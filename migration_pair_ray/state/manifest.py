"""Per-partition commit manifests + job-level pass checkpoints.

The reference has NO checkpointing — a rerun is safe only because Cassandra
upserts are idempotent (``Tasks/MigrationTask.cs:101-104``).  Here the same
guarantee is made explicit and durable:

* every partition commit is ``write temp file → fsync → os.replace``
  (atomic on POSIX) of both the state Parquet file and the manifest JSON;
* state files are named by the deterministic ``pass_id``
  (= hash of the change-file set), so a *retried* Ray task regenerates the
  identical file and the commit is idempotent — exactly-once visibility
  without coordination;
* a pass checkpoint written after all partitions commit records the change
  files consumed; resume skips them (``discover`` in sources/changelog.py).

Replay from any checkpoint therefore reproduces the final state
bit-for-bit (north_star requirement).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def _fsync_dir(path: str) -> None:
    """fsync the directory so the ``os.replace`` rename itself is durable —
    without this a power loss can lose the rename while surviving a later
    unlink of the file it superseded, leaving a manifest that points at a
    deleted data file."""
    fd = os.open(str(Path(path).parent), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


def sha256_file(path: str) -> str:
    """Streaming sha256 of a file (1 MiB chunks) — THE content-hash used
    by the applier's manifests and fsck's deep audit; one implementation
    so the two can never drift."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def content_hash(path: str, hash_state: bool) -> str:
    """A state file's manifest ``content_hash``: its sha256 when the lake
    hashes state (``JobConfig.hash_state``), else "" (fsck skips it)."""
    return sha256_file(path) if hash_state else ""


def compute_pass_id(change_files: list[str]) -> str:
    """Deterministic id for a set of change files (basename + size)."""
    h = hashlib.sha256()
    for p in sorted(change_files, key=lambda p: Path(p).name):
        h.update(Path(p).name.encode())
        h.update(str(os.path.getsize(p)).encode())
    return h.hexdigest()[:16]


class ManifestStore:
    """Reads/writes per-partition manifests under ``<lake>/_manifest/``.
    Only the writers create the directory: a read of a missing lake
    leaves nothing behind."""

    def __init__(self, manifest_dir: str):
        self.dir = Path(manifest_dir)

    def _path(self, pid: int) -> str:
        return str(self.dir / f"part-{pid:05d}.json")

    def read(self, pid: int) -> dict | None:
        try:
            with open(self._path(pid)) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def is_applied(self, pid: int, pass_id: str) -> bool:
        m = self.read(pid)
        return bool(m) and pass_id in m.get("history", [])

    def commit(self, pid: int, record: dict, retain: int = 0) -> None:
        """Atomically publish a new manifest; appends to pass history.
        Committing the same pass twice is a no-op (idempotent).

        With ``retain > 0`` the superseded record (minus its own history /
        retained list) is kept in the new manifest's ``prev_records`` list,
        newest first, trimmed to ``retain`` entries — the time-travel
        window: the GC keeps every state file a retained record references,
        so ``read_lake(as_of=...)`` can reconstruct the partition at any
        retained pass (pipelines/replay.py)."""
        prev = self.read(pid)
        history = list(prev.get("history", [])) if prev else []
        if record["pass_id"] in history:
            return
        record = dict(record, history=history + [record["pass_id"]])
        if retain > 0 and prev is not None:
            slim = {k: v for k, v in prev.items()
                    if k not in ("history", "prev_records")}
            record["prev_records"] = ([slim] + list(prev.get("prev_records", []))
                                      )[:retain]
        self.dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(self._path(pid), json.dumps(record, indent=1).encode())

    def rewrite(self, pid: int, record: dict) -> None:
        """Raw atomic manifest replacement — vacuum's trim path.  Unlike
        ``commit`` this neither touches ``history`` nor checks idempotence;
        the caller owns the record's integrity."""
        self.dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(self._path(pid), json.dumps(record, indent=1).encode())

    def delete(self, pid: int) -> None:
        """Remove a partition's manifest (split GC: the parent's state is
        superseded by its children once the LakeMeta split is published)."""
        try:
            os.remove(self._path(pid))
            _fsync_dir(self._path(pid))
        except FileNotFoundError:
            pass


class CheckpointStore:
    """Job-level pass checkpoints under ``<lake>/_checkpoint/``; like
    ``ManifestStore``, only ``commit_pass`` creates the directory."""

    def __init__(self, checkpoint_dir: str):
        self.dir = Path(checkpoint_dir)

    def committed_files(self) -> set[str]:
        done: set[str] = set()
        for p in sorted(self.dir.glob("pass-*.json")):
            with open(p) as f:
                done.update(json.load(f)["files"])
        return done

    def committed_sizes(self) -> dict[str, int]:
        """basename → recorded size for every committed change file (empty
        entries for checkpoints written before sizes were recorded)."""
        sizes: dict[str, int] = {}
        for p in sorted(self.dir.glob("pass-*.json")):
            with open(p) as f:
                sizes.update(json.load(f).get("file_sizes", {}))
        return sizes

    def pass_seqs(self) -> dict[str, int]:
        """pass_id → monotone sequence number of every committed pass.
        Passes committed before seq stamping existed map in file-name order
        only if every file carries a seq; otherwise they are absent (their
        order is unknowable) and time travel to them raises."""
        seqs: dict[str, int] = {}
        for p in sorted(self.dir.glob("pass-*.json")):
            with open(p) as f:
                rec = json.load(f)
            if "seq" in rec:
                seqs[rec["pass_id"]] = int(rec["seq"])
        return seqs

    def last_seq(self) -> int:
        """Sequence of the newest committed pass, -1 when none."""
        seqs = self.pass_seqs()
        return max(seqs.values()) if seqs else -1

    def next_seq(self) -> int:
        """Sequence number the NEXT committed pass will carry (= number of
        passes committed so far).  Deterministic across a crash-and-retry
        of an uncommitted pass: the pass file only lands after all
        partition commits, so a re-run recomputes the same value."""
        existing = self.pass_seqs()
        n = len(list(self.dir.glob("pass-*.json")))
        return max([n] + [s + 1 for s in existing.values()])

    def commit_pass(self, pass_id: str, change_files: list[str],
                    stats: dict | None = None, name_prefix: str = "",
                    seq: int | None = None) -> None:
        """``name_prefix`` namespaces the recorded basenames — bulk-load
        passes use "bulk:" so an input file that happens to share a
        basename with a future changelog batch can never make discover()
        skip that batch as already-consumed.  A ``change_files`` entry may
        also be a ``(prefix, path)`` tuple carrying its own prefix
        (multi-source passes record "src{k}:" per source in ONE atomic
        pass record).  ``seq`` lets a caller that already computed
        next_seq() (under the writer lease, so it cannot have moved) skip
        a second full checkpoint-directory scan."""
        path = str(self.dir / f"pass-{pass_id}.json")
        if os.path.exists(path):
            with open(path) as f:
                seq = json.load(f).get("seq", seq if seq is not None
                                       else self.next_seq())
        elif seq is None:
            seq = self.next_seq()
        entries = [(e[0] + Path(e[1]).name, e[1]) if isinstance(e, tuple)
                   else (name_prefix + Path(e).name, e)
                   for e in change_files]
        rec = {
            "pass_id": pass_id,
            "seq": seq,
            "files": sorted(n for n, _ in entries),
            # per-file sizes: resume validates that a committed basename
            # never reappears with different content (append-only contract)
            "file_sizes": {n: os.path.getsize(p)
                           for n, p in entries if os.path.exists(p)},
            "stats": stats or {},
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, json.dumps(rec, indent=1).encode())


# The manifest fields that name a partition's state files: ``data_file``
# (one file, with its ``content_hash``) or ``data_files`` (key-range chunk
# entries), plus merge-on-read ``delta_files`` on either base.
# ``stages/applier.write_partition_state`` writes them; ``base_entries``,
# ``record_files`` and ``read_deltas`` read them.
LAYOUT_KEYS = ("data_file", "data_files", "delta_files", "content_hash")


def base_entries(record: dict | None) -> list[dict]:
    """A record's base state files as entries in key order: its chunk
    entries (``data_files``), or one entry for a single ``data_file``
    (``file``, ``rows``, ``tombstones``, ``content_hash``; no key range).
    Merge-on-read deltas are not base entries."""
    if not record:
        return []
    files = record.get("data_files")
    if files is not None:
        return list(files)
    if not record.get("data_file"):
        return []
    return [{"file": record["data_file"],
             "rows": record.get("row_count", 0),
             "tombstones": record.get("tombstones", 0),
             "content_hash": record.get("content_hash", "")}]


def record_files(record: dict | None) -> list[str]:
    """Lake-relative state-file paths ONE manifest record references —
    base entries, then merge-on-read ``delta_files``.  Does NOT descend
    into ``prev_records``."""
    return [e["file"] for e in
            base_entries(record) + (record or {}).get("delta_files", [])]


def read_deltas(lake_dir: str, record: dict | None,
                changes=None):
    """A record's merge-on-read deltas as one table, every file conformed
    to the unified schema, followed by ``changes`` when given (conformed
    too); ``changes`` as is when the record has no deltas.  Each file's
    footer comes from ``read_footer``, parsed once per process."""
    files = (record or {}).get("delta_files") or []
    if not files:
        return changes
    import pyarrow as pa
    from migration_pair_ray.functions.normalize import make_normalizer
    from migration_pair_ray.schemas import unify_change_schemas
    from migration_pair_ray.sources.readers import (read_footer,
                                                    read_parquet_file)
    tables = []
    for e in files:
        path = str(Path(lake_dir) / e["file"])
        tables.append(read_parquet_file(path, metadata=read_footer(path)[2]))
    if changes is not None:
        tables.append(changes)
    norm = make_normalizer(unify_change_schemas([t.schema for t in tables]))
    return pa.concat_tables([norm(t) for t in tables])


def referenced_files(manifest: dict | None) -> set[str]:
    """Every state file the manifest pins: the current record's files plus
    every retained ``prev_records`` entry's — the GC-safe set.  Chunk files
    carried forward across passes appear in several records; the union
    keeps them exactly once."""
    if not manifest:
        return set()
    out = set(record_files(manifest))
    for rec in manifest.get("prev_records", []):
        out.update(record_files(rec))
    return out


class TimeTravelError(RuntimeError):
    """The requested as-of pass cannot be reconstructed (never committed,
    vacuumed beyond retention, or on the far side of a partition split)."""


def manifest_as_of(manifest: dict | None, target_seq: int,
                   pass_seqs: dict[str, int], pid: int) -> dict | None:
    """The newest record (current or retained) committed at or before
    ``target_seq`` — the partition's state as of that pass.

    Returns None when the partition had no state yet at the target pass
    (its first commit came later).  Raises TimeTravelError when state DID
    exist at the target but the covering record is no longer retained."""
    if manifest is None:
        return None

    def seq_of(rec: dict) -> int | None:
        s = rec.get("pass_seq")
        if s is not None and int(s) >= 0:
            return int(s)
        return pass_seqs.get(rec["pass_id"])

    candidates = [manifest] + list(manifest.get("prev_records", []))
    eligible = [(s, rec) for rec in candidates
                if (s := seq_of(rec)) is not None and s <= target_seq]
    if eligible:
        return max(eligible, key=lambda p: p[0])[1]
    # A split/merge moved this partition's state from elsewhere: history
    # before the relayout is unavailable by design (the source ids were
    # GC'd), so "no eligible record" cannot be read as "was empty".
    if any(rec.get("lineage_break") or "split_of" in rec or "merge_of" in rec
           for rec in candidates):
        raise TimeTravelError(
            f"partition {pid}: no retained record at or before seq "
            f"{target_seq} and its state arrived via a partition "
            f"split/merge — pre-relayout history was GC'd; time travel "
            f"cannot cross a split or merge")
    # No retained record covers the target.  Distinguish "partition did
    # not exist yet" (legal: contribute nothing) from "its covering state
    # was dropped" (must fail loudly, silence would be data loss).  A
    # history pass resolves through the checkpoint seq map or through a
    # still-retained record's own stamp; one that resolves through
    # neither (legacy commit, or a split record already vacuumed) makes
    # emptiness unprovable — raise.
    stamped = {rec["pass_id"]: s for rec in candidates
               if (s := seq_of(rec)) is not None}
    hist_seqs: list[int] = []
    for p in manifest.get("history", []):
        s = pass_seqs.get(p, stamped.get(p))
        if s is None:
            raise TimeTravelError(
                f"partition {pid}: history pass {p} carries no resolvable "
                f"sequence (lake written before seq stamping, or its record "
                f"was vacuumed) — cannot prove the partition was empty at "
                f"seq {target_seq}")
        hist_seqs.append(s)
    if any(s <= target_seq for s in hist_seqs):
        raise TimeTravelError(
            f"partition {pid}: state as of pass seq {target_seq} existed but "
            f"is no longer retained (vacuumed or retain_passes too small)")
    return None


class LakeLayoutError(RuntimeError):
    """The lake on disk was created with a different partition layout."""


class LakeMeta:
    """Lake-level layout metadata (``<lake>/_lake_meta.json``).

    ``num_partitions`` and ``partition_mode`` decide which partition a key's
    events route to; replaying into an existing lake with a DIFFERENT
    layout would route new events away from their prior state — silently
    yielding duplicate/stale winners and resurrected deletes.  The layout
    is therefore persisted on first commit and asserted on every
    subsequent write pass.

    ``splits`` records INCREMENTAL per-partition splits (COMPACTION.md):
    ``{"<base_pid>": {"fanout": k, "gen": g}}`` means base partition
    ``base_pid`` currently routes to ``k`` children; keys route onward via
    the quotient hash bits (see stages/partition.py) and child partitions
    live under ``part=<child_id>`` with
    ``child_id = P * (gen + child + 1) + base_pid``.  ``gen`` advances on
    every RE-split (widening k) so a new child generation never reuses a
    live child id — the meta rewrite is the atomic switch-over and a
    crashed split job (old or re-) stays invisible until it lands.  The
    meta file is the single routing authority: readers enumerate
    partitions from it.
    """

    FILE = "_lake_meta.json"

    def __init__(self, lake_dir: str):
        self.path = Path(lake_dir) / self.FILE

    def read(self) -> dict | None:
        try:
            with open(self.path) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def ensure(self, num_partitions: int, partition_mode: str,
               merge_kernel: str = "row",
               hot_convs: list[str] | None = None) -> None:
        """First writer records the layout; later writers must match it.
        ``hot_convs`` (mode "hot" only) is part of the layout: the whale
        set decides key placement, so it is stamped sorted at creation and
        gated exactly like the partition count."""
        cur = self.read()
        hot = sorted(hot_convs) if hot_convs else None
        want = {"num_partitions": num_partitions,
                "partition_mode": partition_mode,
                "merge_kernel": merge_kernel}
        if hot is not None:
            want["hot_convs"] = hot
        if cur is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write(str(self.path), json.dumps(want, indent=1).encode())
            return
        if (cur.get("num_partitions") != num_partitions
                or cur.get("partition_mode") != partition_mode
                # pre-kernel lakes are row-kernel by construction
                or cur.get("merge_kernel", "row") != merge_kernel
                or (cur.get("hot_convs") or None) != hot):
            raise LakeLayoutError(
                f"lake at {self.path.parent} was created with "
                f"num_partitions={cur.get('num_partitions')} "
                f"partition_mode={cur.get('partition_mode')!r} "
                f"merge_kernel={cur.get('merge_kernel', 'row')!r} "
                f"hot_convs={len(cur.get('hot_convs') or [])} entries; this "
                f"job is configured with num_partitions={num_partitions} "
                f"partition_mode={partition_mode!r} "
                f"merge_kernel={merge_kernel!r} "
                f"hot_convs={len(hot or [])} entries. Changing the layout "
                f"of an existing lake requires an explicit "
                f"repartition/compact job, not a config change.")

    def _snapshot(self, cur: dict | None) -> dict:
        """The layout accessors' input: ``cur``, a ``read()`` snapshot the
        caller already took, else a fresh read; ``{}`` when the lake has
        no meta yet.  A caller that derives several layout facts for one
        request (a point lookup's kernel, routing and enumeration) passes
        one snapshot, so a split published meanwhile cannot mix two
        layout versions."""
        return (self.read() if cur is None else cur) or {}

    def hot_convs(self, cur: dict | None = None) -> tuple[str, ...]:
        """The stamped whale set (mode "hot"); empty for other modes."""
        return tuple(self._snapshot(cur).get("hot_convs") or ())

    def merge_kernel(self, cur: dict | None = None) -> str:
        """The lake's merge kernel ("row" | "cell") — a lake-lifetime
        property (the state files' meaning depends on it).  Lakes created
        before the kernel existed are row-kernel."""
        return self._snapshot(cur).get("merge_kernel", "row")

    def splits(self, cur: dict | None = None) -> dict[int, tuple[int, int]]:
        """{base_pid: (fanout, gen)} for every split partition."""
        return {int(k): (int(v["fanout"]), int(v.get("gen", 0)))
                for k, v in (self._snapshot(cur).get("splits") or {}).items()}

    def record_split(self, base_pid: int, fanout: int, gen: int) -> None:
        """Atomically publish a split — the commit point of a split job:
        readers/routers switch from the parent (or the previous child
        generation) to the new children exactly when this rewrite lands."""
        cur = self.read()
        if cur is None:
            raise LakeLayoutError("cannot record a split before the lake exists")
        splits = cur.get("splits") or {}
        splits[str(base_pid)] = {"fanout": fanout, "gen": gen}
        cur["splits"] = splits
        _atomic_write(str(self.path), json.dumps(cur, indent=1).encode())

    def record_unsplit(self, base_pid: int) -> None:
        """Atomically remove a split — the commit point of a merge-back
        job: routing/enumeration flip from the children to the base here.
        The retired id block is remembered (``gen_floor``) so a FUTURE
        re-split of this base never reuses a child id a crashed old job
        might still have files under."""
        cur = self.read()
        if cur is None:
            raise LakeLayoutError("cannot unsplit before the lake exists")
        splits = cur.get("splits") or {}
        ent = splits.pop(str(base_pid), None)
        if ent is None:
            return                     # idempotent: already unsplit
        floors = cur.get("gen_floor") or {}
        floors[str(base_pid)] = int(ent.get("gen", 0)) + int(ent["fanout"])
        cur["gen_floor"] = floors
        cur["splits"] = splits
        _atomic_write(str(self.path), json.dumps(cur, indent=1).encode())

    def gen_floor(self, base_pid: int) -> int:
        """First child generation a NEW split of this base may use."""
        cur = self.read() or {}
        return int((cur.get("gen_floor") or {}).get(str(base_pid), 0))

    def active_partition_ids(self, fallback_num_partitions: int | None = None,
                             cur: dict | None = None) -> list[int]:
        """Partition ids holding live state, in deterministic order: each
        unsplit base pid, then each split base's children.  Read paths
        MUST use this (not ``range(cfg.num_partitions)``): it resolves the
        partition count from the lake's own metadata — a misconfigured
        ``num_partitions`` on a read cannot silently truncate — and it is
        the only enumeration that sees split children."""
        cur = self._snapshot(cur)
        if not cur:
            if fallback_num_partitions is None:
                return []
            return list(range(fallback_num_partitions))
        p = int(cur["num_partitions"])
        splits = self.splits(cur)
        out: list[int] = []
        for pid in range(p):
            if pid in splits:
                k, g = splits[pid]
                out.extend(self.child_id(p, pid, c, g) for c in range(k))
            else:
                out.append(pid)
        return out

    @staticmethod
    def child_id(num_partitions: int, base_pid: int, child: int,
                 gen: int = 0) -> int:
        return num_partitions * (gen + child + 1) + base_pid
