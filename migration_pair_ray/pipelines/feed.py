"""Changefeed consumption with durable consumer cursors.

``cdc_changefeed`` (pipelines/queries) emits the NET state diff between two
lake versions; this module is the other consumer surface a CDC engine
owes its downstream: a resumable, at-least-once SUBSCRIPTION over the raw
change stream, organized by committed pass.

- The replay path already gives the stream durable structure: every pass
  checkpoint (``_checkpoint/pass-*.json``) records its monotone ``seq``
  and the change files it consumed.  A consumer's position is therefore
  ONE integer: the highest pass seq it has acknowledged.
- ``read_feed(cfg, consumer)`` returns the change events of every pass
  the consumer has not acked, as a streaming Dataset (normalized schema,
  plus ``_pass_seq`` provenance), and the frontier to ack.
- ``ack_feed(cfg, consumer, through_seq)`` durably advances the cursor
  (atomic file replace under ``<lake>/_consumers/``).  Crash between read
  and ack ⇒ redelivery of the same passes — at-least-once, and exactly-
  once for any downstream that applies the batch idempotently (e.g. this
  engine's own replay, or any keyed upsert).

Delivery is by PASS, not by file: a pass is the engine's atomic unit of
visibility (its checkpoint lands only after every partition committed),
so a consumer can never observe half a pass.  The change log's
append-only contract is what makes redelivery exact: a committed file
never changes in place (sources/changelog.discover enforces it).

Scale shape: the cursor store is O(consumers) tiny JSON files; the feed
read is the same streaming ``read_changes`` path replay itself uses —
no driver materialization, no extra copies of the log.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pyarrow as pa
import ray

from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import remote_call
from migration_pair_ray.state.manifest import CheckpointStore, _atomic_write


class FeedRetentionError(RuntimeError):
    """A pending pass's change files are gone from the log dir: the
    consumer fell behind the log's retention — data loss, not a skip."""


def _cursor_path(cfg: JobConfig, consumer: str) -> Path:
    if not consumer or "/" in consumer or consumer.startswith("."):
        raise ValueError(f"invalid consumer id {consumer!r}")
    return Path(cfg.lake_dir) / "_consumers" / f"{consumer}.json"


def consumer_cursor(cfg: JobConfig, consumer: str) -> int:
    """Highest acked pass seq for ``consumer``; -1 = never acked (a new
    consumer reads the log from the beginning)."""
    try:
        with open(_cursor_path(cfg, consumer)) as f:
            return int(json.load(f)["acked_seq"])
    except FileNotFoundError:
        return -1


def register_consumer(cfg: JobConfig, consumer: str) -> int:
    """Make ``consumer`` visible to retention (``truncate_log``) even
    before its first ack: creates the cursor file at -1 when missing
    (``ack_feed`` is monotone-advance only, so a consumer that has not
    consumed anything yet would otherwise not exist and not be
    protected).  Returns the current cursor.

    Creation is EXCLUSIVE (write a complete temp file, then ``os.link``
    it to the cursor name — fails if the name exists): a plain
    check-then-write would let a registration racing the same consumer's
    concurrent ack overwrite the durably acked cursor back to -1,
    regressing durable state.  ``os.link`` of a fully fsync'd temp also
    cannot leave a half-written cursor the way ``O_CREAT|O_EXCL`` +
    write would on a crash between the two."""
    path = _cursor_path(cfg, consumer)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.reg.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(json.dumps({"consumer": consumer, "acked_seq": -1}))
        f.flush()
        os.fsync(f.fileno())
    try:
        os.link(tmp, path)
        from migration_pair_ray.state.manifest import _fsync_dir
        _fsync_dir(str(path.parent))
    except FileExistsError:
        pass  # already registered (or acked) — never regress the cursor
    finally:
        os.unlink(tmp)
    return consumer_cursor(cfg, consumer)


class FeedMultiSourceError(RuntimeError):
    """The pass was a multi-source ingest (pipelines/multi.replay_multi):
    its recorded files are per-shard raw batches whose lsn values only
    order correctly under the namespacing the ingest applied.  Serving or
    linking those raw files into a single changelog would collapse the
    namespace and corrupt LWW tie-breaks — bootstrap_replica (which
    exports INTERNAL state, lsn already global) is the supported path."""


def _refuse_multi_source(rec: dict, verb: str) -> None:
    from migration_pair_ray.pipelines.multi import SOURCE_NS_RE
    multi = [n for n in rec.get("files", []) if SOURCE_NS_RE.match(n)]
    if multi:
        raise FeedMultiSourceError(
            f"pass {rec.get('pass_id')!r} (seq {rec.get('seq')}) is a "
            f"multi-source ingest ({multi[0]}, ...): cannot {verb} raw "
            f"shard files — their lsn order only holds under the ingest's "
            f"namespacing; replicate via bootstrap_replica instead")


class FeedUnstampedError(RuntimeError):
    """A committed pass has no seq stamp (written by an older engine
    version): its position in the stream is unknowable, so serving the
    feed would silently skip it — refuse instead."""


class FeedRollbackError(RuntimeError):
    """The pass was a rollback (pipelines/compact.rollback_to): it UNDID
    previously served changes and carries no change files, so a feed
    cannot express it as events and a follower that links zero files
    would keep the rolled-back state and silently diverge.  Re-seed the
    consumer/follower from the post-rollback lake (bootstrap_replica or
    a fresh snapshot), then ack past the rollback seq."""


def _is_rollback(rec: dict) -> bool:
    """True for state-only passes (rollback_to / repair_replica): they
    mutate lake state without carrying change files, so no feed or
    replication stream can express them as events."""
    stats = rec.get("stats") or {}
    return (stats.get("rollback_to") is not None
            or stats.get("repair_of") is not None)


def _refuse_rollback(rec: dict, verb: str) -> None:
    stats = rec.get("stats") or {}
    what = (f"rolled the lake back to pass {stats['rollback_to']!r}"
            if stats.get("rollback_to") is not None
            else f"repaired the lake from {stats.get('repair_of')!r}")
    raise FeedRollbackError(
        f"pass {rec.get('pass_id')!r} (seq {rec.get('seq')}) {what}: "
        f"cannot {verb} — re-seed from the current lake state "
        f"(bootstrap_replica / snapshot) and ack past seq "
        f"{rec.get('seq')} (missing_ok=True skips, keeping the "
        f"stale state downstream)")


def retention_horizon(cfg: JobConfig) -> int | None:
    """The durably recorded ``truncate_log`` horizon (highest pass seq
    whose change files retention may have removed), or None when the log
    was never truncated.  Single authority for the marker's path/schema
    (read by the feed errors and ``lake_stats``)."""
    try:
        with open(Path(cfg.lake_dir) / "_log_retention.json") as f:
            return int(json.load(f).get("truncated_through_seq", -1))
    except FileNotFoundError:
        return None


def _retention_note(cfg: JobConfig, seq: int) -> str:
    """Suffix for FeedRetentionError when the loss is EXPLAINED by a
    recorded ``truncate_log`` horizon (policy, not corruption)."""
    t = retention_horizon(cfg)
    if t is not None and int(seq) <= t:
        return (f" (truncate_log removed passes through seq {t} by "
                f"retention policy; bootstrap from a snapshot instead)")
    return ""


def pending_passes(cfg: JobConfig, consumer: str) -> list[dict]:
    """Committed passes the consumer has not acked, in seq order:
    ``[{seq, pass_id, files}]``.  Each file entry is ``(basename, bulk)``
    — ``bulk`` passes were loaded from OUTSIDE the changelog (their
    recorded basenames are namespaced ``bulk:`` precisely so they can
    never be confused with a changelog batch), so the feed cannot serve
    their bytes.  A pass with no seq stamp raises FeedUnstampedError
    (silently skipping it would violate at-least-once)."""
    cursor = consumer_cursor(cfg, consumer)
    ck = CheckpointStore(cfg.checkpoint_dir)
    out = []
    for p in sorted(Path(ck.dir).glob("pass-*.json")):
        with open(p) as f:
            rec = json.load(f)
        if "seq" not in rec:
            raise FeedUnstampedError(
                f"pass {rec.get('pass_id')!r} has no seq stamp (older "
                f"engine version) — its stream position is unknowable; "
                f"rebuild the lake before serving a feed from it")
        if int(rec["seq"]) <= cursor:
            continue
        _refuse_multi_source(rec, "serve a feed from")
        files = [(n.split(":", 1)[1], True) if n.startswith("bulk:")
                 else (n, False) for n in rec.get("files", [])]
        out.append({"seq": int(rec["seq"]), "pass_id": rec["pass_id"],
                    "files": files, "rollback": _is_rollback(rec),
                    "stats": rec.get("stats") or {}})
    out.sort(key=lambda r: r["seq"])
    return out


def read_feed(cfg: JobConfig, consumer: str,
              missing_ok: bool = False) -> tuple["object", int]:
    """(Dataset of unacked change events, frontier seq to ack).

    The Dataset carries the unified change schema plus an int64
    ``_pass_seq`` column so a consumer can window or resume mid-stream.
    Empty feed ⇒ (empty Dataset, current cursor).  A pending pass whose
    files were deleted from the log dir raises FeedRetentionError
    (``missing_ok=True`` skips those files and keeps going — an explicit
    opt-in to data loss)."""
    from migration_pair_ray.sources.changelog import read_changes, unified_schema
    from migration_pair_ray.sources.readers import driver_dataset
    per_pass, frontier = _served_passes(cfg, consumer, missing_ok)
    if not per_pass:
        from migration_pair_ray.schemas import CHANGE_SCHEMA
        empty = CHANGE_SCHEMA.empty_table().append_column(
            "_pass_seq", pa.array([], pa.int64()))
        return driver_dataset([empty]), frontier
    schema = unified_schema([p for _, paths in per_pass for p in paths])

    def stamp(seq: int):
        def fn(t: pa.Table) -> pa.Table:
            import numpy as np
            return t.append_column(
                "_pass_seq", pa.array(np.full(t.num_rows, seq, np.int64)))
        return fn

    parts = [read_changes(paths, schema).map_batches(
        stamp(seq), batch_format="pyarrow") for seq, paths in per_pass]
    ds = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    return ds, frontier


def _served_passes(cfg: JobConfig, consumer: str, missing_ok: bool
                   ) -> tuple[list[tuple[int, list[str]]], int]:
    """([(seq, change-file paths)] of the unacked passes with events to
    serve, frontier seq to ack) — ``read_feed``'s plan, with its refusals
    (rollback, bulk-load and retention-lost passes)."""
    pending = pending_passes(cfg, consumer)
    frontier = (pending[-1]["seq"] if pending
                else consumer_cursor(cfg, consumer))
    per_pass: list[tuple[int, list[str]]] = []
    for rec in pending:
        if rec.get("rollback"):
            # a rollback has no events to serve; serving "nothing" would
            # leave the consumer holding the rolled-back changes
            if missing_ok:
                continue
            _refuse_rollback(rec, "serve a feed across it")
        paths = []
        for name, bulk in rec["files"]:
            if bulk:
                # a bulk-load pass's input never lived in the changelog;
                # a same-named changelog batch would be the WRONG bytes
                if missing_ok:
                    continue
                raise FeedRetentionError(
                    f"pass {rec['pass_id']} (seq {rec['seq']}) was a "
                    f"bulk load ({name}): its input is not retained in "
                    f"the changelog and cannot be served — ack past it "
                    f"explicitly or re-ingest (missing_ok=True skips)")
            p = Path(cfg.changelog_dir) / name
            if p.exists():
                paths.append(str(p))
            elif not missing_ok:
                raise FeedRetentionError(
                    f"pass {rec['pass_id']} (seq {rec['seq']}) references "
                    f"{name}, which is gone from {cfg.changelog_dir} — "
                    f"consumer {consumer!r} fell behind log retention"
                    f"{_retention_note(cfg, rec['seq'])}")
        if paths:
            per_pass.append((rec["seq"], paths))
    return per_pass, frontier


def ack_feed(cfg: JobConfig, consumer: str, through_seq: int) -> dict:
    """Durably advance the consumer cursor to ``through_seq`` (atomic
    write + fsync).  Acks are monotone: a stale/duplicate ack (≤ current
    cursor) is a no-op, so retried consumers can ack blindly."""
    cur = consumer_cursor(cfg, consumer)
    path = _cursor_path(cfg, consumer)
    if through_seq <= cur:
        return {"consumer": consumer, "acked_seq": cur, "advanced": False}
    last = CheckpointStore(cfg.checkpoint_dir).last_seq()
    if through_seq > last:
        # a typo'd future seq would durably skip every pass committed
        # between now and it — at-least-once forbids that silently
        raise ValueError(
            f"ack seq {through_seq} is beyond the last committed pass "
            f"seq {last} — refusing a cursor that would skip future data")
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(str(path), json.dumps(
        {"consumer": consumer, "acked_seq": int(through_seq)}).encode())
    return {"consumer": consumer, "acked_seq": int(through_seq),
            "advanced": True}


def list_consumers(cfg: JobConfig) -> dict[str, int]:
    """consumer id → acked seq, for ops visibility (lag = last committed
    pass seq minus this)."""
    d = Path(cfg.lake_dir) / "_consumers"
    out = {}
    for p in sorted(d.glob("*.json")) if d.exists() else []:
        with open(p) as f:
            rec = json.load(f)
        out[rec["consumer"]] = int(rec["acked_seq"])
    return out


def truncate_log(cfg: JobConfig, through_seq: int | None = None,
                 dry_run: bool = False) -> dict:
    """Change-log retention: delete the change files of committed passes
    up to a safe horizon — the WAL-truncation half of log management
    (``cdc_log_compaction`` demonstrates the compaction half).  The lake's
    state files already hold those passes' effect (replay never re-reads
    a committed file; time travel pins STATE files, not change files), so
    the only readers that still need old change files are feed consumers
    and replicas.

    Safety rails: the horizon is ``min(through_seq, every registered
    consumer's acked seq)`` — a file a consumer has not acked is never
    deleted; with no ``through_seq`` and no consumers, nothing is deleted
    (an unbounded default would silently break replica bootstrap).  The
    truncation seq is recorded durably (``_log_retention.json``) BEFORE
    any unlink, so a consumer that later falls behind the horizon gets a
    FeedRetentionError naming retention, not mystery-missing files; a
    crash mid-delete re-runs idempotently.  New followers bootstrap from
    a snapshot (+ ``snapshot_diff``) and tail from there — the standard
    compacted-log contract.
    """
    horizons = [int(through_seq)] if through_seq is not None else []
    horizons += list(list_consumers(cfg).values())
    if not horizons:
        return {"truncated_through_seq": None, "files_deleted": 0,
                "note": "no through_seq and no registered consumers"}
    ck = CheckpointStore(cfg.checkpoint_dir)
    # cap at the last committed pass: a typo'd huge through_seq must not
    # durably record a horizon covering passes that never existed (the
    # marker is monotone, and _retention_note would then misdiagnose any
    # future non-retention file loss as policy)
    horizon = min(min(horizons), ck.last_seq())
    if horizon < 0:
        return {"truncated_through_seq": None, "files_deleted": 0,
                "note": "nothing committed (or nothing acked) yet"}
    victims: list[str] = []
    for p in sorted(Path(ck.dir).glob("pass-*.json")):
        with open(p) as f:
            rec = json.load(f)
        if "seq" not in rec:
            raise FeedUnstampedError(
                f"pass {rec.get('pass_id')!r} has no seq stamp — cannot "
                f"prove it is inside the retention horizon; rebuild the "
                f"lake before truncating its log")
        if int(rec["seq"]) > horizon:
            continue
        victims.extend(n for n in rec.get("files", [])
                       if not n.startswith("bulk:"))

    # multi-source names ("src{k}:basename") resolve through the lake's
    # committed source registry to their shard directory; plain names
    # resolve to the single changelog dir as before
    from migration_pair_ray.pipelines.multi import SOURCE_NS_RE, load_sources
    sources = None

    def _resolve(name: str) -> Path:
        nonlocal sources
        if not SOURCE_NS_RE.match(name):
            return Path(cfg.changelog_dir) / name
        if sources is None:
            sources = load_sources(cfg) or []
        ns, base = name.split(":", 1)
        k = int(ns[3:])
        if k >= len(sources):
            raise FeedRetentionError(
                f"pass file {name} names source index {k} but the lake's "
                f"source registry has {len(sources)} entries — cannot "
                f"resolve it for truncation")
        return Path(sources[k]["dir"]) / base

    marker = Path(cfg.lake_dir) / "_log_retention.json"
    if not dry_run:
        prev = retention_horizon(cfg)
        prev = -1 if prev is None else prev
        # the record lands BEFORE any unlink (monotone), so a crash
        # between the two leaves an honest marker, never silent loss
        if horizon > prev:
            marker.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write(str(marker), json.dumps(
                {"truncated_through_seq": max(horizon, prev)}).encode())
    deleted = 0
    for name in victims:
        path = _resolve(name)
        if path.exists():
            if not dry_run:
                path.unlink()
            deleted += 1
    return {"truncated_through_seq": horizon, "files_deleted": deleted,
            "dry_run": dry_run}


def bootstrap_replica(src: JobConfig, dst: JobConfig,
                      src_consumer: str = "") -> dict:
    """Seed a NEW follower from the source's current state instead of its
    full change log — the compacted-log bootstrap ``truncate_log``
    documents (a truncated source cannot serve its history; a 100-TB one
    should not even when it can).

    The source's INTERNAL state rows — tombstone winners / cell determiner
    rows included, original (ts, lsn, op) intact — are exported
    distributed into the follower's changelog as ordinary batch files and
    replayed under the follower's own layout, so delete-dominance and
    patch semantics survive exactly (a visible-rows-only snapshot would
    let a late pre-tombstone event resurrect on the follower).  The
    replica cursor is set to the source seq captured BEFORE the state
    read: any pass committed DURING the read is partially folded in
    already, and re-applying it via the tail is a no-op under either
    kernel (both are join-semilattices) — at-least-once, never a gap.

    Idempotent: an existing replica cursor on ``dst`` makes this a no-op
    (the follower is live; use ``replicate`` to tail).  Crash-safe: the
    cursor lands LAST, so a crash re-runs the bootstrap export (file
    names are seq-keyed and replay skips committed files).
    """
    from migration_pair_ray.pipelines.replay import read_lake, replay
    from migration_pair_ray.state.manifest import LakeMeta

    src_meta = LakeMeta(src.lake_dir).read()
    # an unwritten source has no declared kernel yet — don't fabricate a
    # 'row' default and refuse a legitimate cell-to-cell setup
    if src_meta is not None:
        src_kernel = src_meta.get("merge_kernel", "row")
        if src_kernel != dst.merge_kernel:
            raise ValueError(
                f"bootstrap kernel mismatch: source lake is {src_kernel!r} "
                f"but the follower config is {dst.merge_kernel!r}")
    cursor_path = Path(dst.lake_dir) / "_replica.json"
    if cursor_path.exists():
        with open(cursor_path) as f:
            cur = int(json.load(f)["acked_src_seq"])
        return {"bootstrapped": False, "cursor": cur,
                "note": "follower already has a replica cursor"}

    if src_consumer:
        # register BEFORE any work: the export can take minutes at scale,
        # and a concurrent truncate_log during it must already see this
        # replica's (unacked) cursor — registering after the export would
        # leave the whole bootstrap window unprotected
        register_consumer(src, src_consumer)
    seq = CheckpointStore(src.checkpoint_dir).last_seq()  # BEFORE the read
    os.makedirs(dst.changelog_dir, exist_ok=True)
    # Crash-retry guard: if a previous attempt already REPLAYED this seq's
    # boot files into dst (crash landed between replay and the cursor
    # write), re-exporting would os.replace() committed change files —
    # and Ray's write_parquet block layout is not byte-deterministic, so
    # a size change trips discover()'s append-only contract and wedges
    # the follower.  Committed boot files are already durable state; skip
    # straight to the (idempotent) replay + cursor write.
    boot_prefix = f"batch-00000-boot-s{seq:06d}-"
    committed_boot = set()
    dst_ck = CheckpointStore(dst.checkpoint_dir)
    for p in sorted(Path(dst_ck.dir).glob("pass-*.json")):
        with open(p) as f:
            committed_boot.update(n for n in json.load(f).get("files", [])
                                  if n.startswith(boot_prefix))
    import shutil as _shutil
    if committed_boot:
        n_files = len(committed_boot)
    else:
        tmp = Path(dst.changelog_dir) / f"_boot_tmp_s{seq}"
        _shutil.rmtree(tmp, ignore_errors=True)
        read_lake(src).write_parquet(str(tmp))
        n_files = 0
        for i, f in enumerate(sorted(tmp.glob("*.parquet"))):
            os.replace(f, Path(dst.changelog_dir)
                       / f"{boot_prefix}{i:04d}.parquet")
            n_files += 1
        _shutil.rmtree(tmp, ignore_errors=True)
    s = replay(dst)
    cursor_path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(str(cursor_path),
                  json.dumps({"acked_src_seq": int(seq)}).encode())
    if src_consumer and seq >= 0:
        # ack what the bootstrap already covers (registration happened
        # before the export, so the whole window was retention-protected)
        ack_feed(src, src_consumer, int(seq))
    return {"bootstrapped": True, "cursor": int(seq),
            "boot_files": n_files, "rows": s.get("events_in", 0)}


def replicate(src: JobConfig, dst: JobConfig,
              missing_ok: bool = False, src_consumer: str = "") -> dict:
    """Replicate ``src``'s lake into ``dst`` by consuming the source's
    committed passes in order — the cross-region / re-layout follower a
    CDC engine owes its operators.  ``dst`` may use a DIFFERENT layout
    (num_partitions / partition_mode / chunking / MoR): the change files
    flow through dst's own full replay path, so the follower is also the
    online re-partitioning story (COMPACTION.md) run as a stream instead
    of a bulk job.

    Pass-by-pass: link the source pass's change files into dst's log dir
    (append-only: identical basenames, immutable bytes), replay dst, then
    durably advance the replica cursor (``<dst lake>/_replica.json``).
    Every step is idempotent — a crash at any point resumes exactly:
    re-link skips existing files, replay skips committed passes, the
    cursor ack is monotone.  Source file gone before the replica consumed
    it ⇒ FeedRetentionError (the replica fell behind src log retention).
    """
    import shutil as _shutil

    from migration_pair_ray.state.manifest import LakeMeta
    src_meta = LakeMeta(src.lake_dir).read()
    # an unwritten source has no declared kernel yet (a polling follower
    # may legitimately start before the source's first pass) — only gate
    # once the source has stamped one
    if src_meta is not None and (src_meta.get("merge_kernel", "row")
                                 != dst.merge_kernel):
        # change files are kernel-agnostic raw events; the FOLLOWER's
        # kernel decides what they mean.  A row-kernel follower of a
        # cell-kernel source would fold every patch wrong (a P row's null
        # means KEEP, not set-null) — and silently, since replay succeeds.
        raise ValueError(
            f"replicate kernel mismatch: source lake is "
            f"{src_meta.get('merge_kernel', 'row')!r} but the follower "
            f"config is {dst.merge_kernel!r}; set the follower's "
            f"merge_kernel to match the source (kernel semantics are a "
            f"lake-lifetime property)")

    if src_consumer:
        # register BEFORE consuming anything: a truncate_log racing the
        # tail loop must already see this replica's cursor
        register_consumer(src, src_consumer)

    src_ck = CheckpointStore(src.checkpoint_dir)
    cursor_path = Path(dst.lake_dir) / "_replica.json"
    try:
        with open(cursor_path) as f:
            cursor = int(json.load(f)["acked_src_seq"])
    except FileNotFoundError:
        cursor = -1

    passes = []
    for p in sorted(Path(src_ck.dir).glob("pass-*.json")):
        with open(p) as f:
            rec = json.load(f)
        if "seq" not in rec:
            raise FeedUnstampedError(
                f"source pass {rec.get('pass_id')!r} has no seq stamp — "
                f"its stream position is unknowable; rebuild the source "
                f"lake before replicating from it")
        if int(rec["seq"]) > cursor:
            passes.append(rec)
    passes.sort(key=lambda r: int(r["seq"]))

    os.makedirs(dst.changelog_dir, exist_ok=True)
    applied = events = 0
    for rec in passes:
        _refuse_multi_source(rec, "link into the follower's changelog")
        if _is_rollback(rec) and not missing_ok:
            # the pass carries no files: "replaying" it would keep the
            # follower on the rolled-back state while the cursor advances
            _refuse_rollback(rec, "replicate it as a change stream")
        for name in rec.get("files", []):
            if name.startswith("bulk:"):
                # bulk-load input never lived in the source changelog; a
                # same-named changelog batch would be the wrong bytes
                if missing_ok:
                    continue
                raise FeedRetentionError(
                    f"source pass {rec['pass_id']} was a bulk load "
                    f"({name}): its input is not retained in the "
                    f"changelog — replicate cannot ship it "
                    f"(missing_ok=True skips, diverging the follower)")
            srcp = Path(src.changelog_dir) / name
            dstp = Path(dst.changelog_dir) / name
            if dstp.exists():
                continue
            if not srcp.exists():
                if missing_ok:
                    continue
                raise FeedRetentionError(
                    f"source pass {rec['pass_id']} references {name}, gone "
                    f"from {src.changelog_dir} — replica fell behind"
                    f"{_retention_note(src, rec['seq'])}")
            try:
                os.link(srcp, dstp)
            except OSError:
                _shutil.copy2(srcp, dstp)
        from migration_pair_ray.pipelines.replay import replay
        s = replay(dst)
        if not s.get("up_to_date"):
            applied += 1
            events += s.get("events_in", 0)
        cursor = int(rec["seq"])
        cursor_path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(str(cursor_path),
                      json.dumps({"acked_src_seq": cursor}).encode())
    if src_consumer and cursor >= 0:
        # advance the SOURCE-side cursor so retention can move past the
        # passes this replica has durably applied (registration happened
        # up front, before the loop)
        ack_feed(src, src_consumer, cursor)
    return {"passes_replicated": len(passes), "passes_applied": applied,
            "events_in": events, "cursor": cursor}


def canonical_row_hash64(t: "pa.Table") -> "np.ndarray":
    """64-bit hash of each row's canonical form — columns in sorted name
    order, values stringified, nulls sentineled, the column-name list as
    a schema tag.  THE shared definition of row identity for replica
    audit (``verify_replica``) and targeted repair
    (``pipelines/repair.repair_replica``): repair can only locate the
    rows verify flagged if both hash identically."""
    import numpy as np
    import pyarrow.compute as pc

    from migration_pair_ray.functions.hashing import stable_hash64
    names = sorted(t.column_names)
    cols = [pc.fill_null(pc.cast(t.column(c), pa.string()), "\x00n\x00")
            for c in names]
    # last element = the schema tag (so diverged column sets mismatch),
    # final arg = the per-element separator
    canon = pc.binary_join_element_wise(
        *cols, pa.scalar("|".join(names)), pa.scalar("\x1f"))
    return stable_hash64(canon.to_pandas()).astype(np.uint64)


def _digest_partition_visible(lake_dir: str, manifest: dict, kernel: str,
                              schema: pa.Schema, n_buckets: int) -> dict:
    """One partition's VISIBLE rows → per-bucket (rows, hsum, hsq)
    partials, normalized to the lake-wide unified schema so the digest is
    independent of which partition a row lives in.  Returns a small dict
    {bucket: [rows, hsum, hsq]} — the cacheable unit of the incremental
    audit.  Memory contract: one partition's state in one task (the same
    granularity the Applier merges at)."""
    import numpy as np

    from migration_pair_ray.functions.lww import finalize_visible
    from migration_pair_ray.functions.normalize import make_normalizer
    from migration_pair_ray.stages.applier import read_state_table
    t = read_state_table(lake_dir, manifest, kernel=kernel)
    if t is None or t.num_rows == 0:
        return {}
    vis = finalize_visible(make_normalizer(schema)(t), kernel)
    if vis.num_rows == 0:
        return {}
    h = canonical_row_hash64(vis)
    b = (h % np.uint64(n_buckets)).astype(np.int64)
    order = np.argsort(b, kind="stable")
    hb, bb = h[order], b[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(bb)) + 1))
    ends = np.concatenate((starts[1:], [len(bb)]))
    sums = np.add.reduceat(hb, starts)          # uint64, wrapping
    sqs = np.add.reduceat(hb * hb, starts)
    return {int(bb[s]): [int(e - s), int(sums[i]), int(sqs[i])]
            for i, (s, e) in enumerate(zip(starts, ends))}


def _lake_bucket_partials(cfg: JobConfig, n_buckets: int) -> dict:
    """Per-bucket (rows, hsum, hsq) totals for one lake's visible state,
    computed INCREMENTALLY: each partition's partials are cached in
    ``<lake>/_audit_cache.json`` keyed by its manifest fingerprint (file
    list + sizes — exact, state files are immutable CoW) and the lake's
    unified-schema fingerprint; only partitions whose state moved since
    the last audit are re-digested, one Ray task each.  A quiescent 100-TB
    lake audits in O(changed partitions), not O(lake)."""
    import pyarrow.parquet as _pq

    from migration_pair_ray.pipelines.index import _partition_fingerprint
    from migration_pair_ray.schemas import unify_change_schemas
    from migration_pair_ray.state.manifest import (LakeMeta, ManifestStore,
                                                   record_files)
    store = ManifestStore(cfg.manifest_dir)
    meta = LakeMeta(cfg.lake_dir)
    kernel = meta.merge_kernel()
    manifests = {pid: m for pid in meta.active_partition_ids(
        cfg.num_partitions) if (m := store.read(pid)) is not None}
    if not manifests:
        return {}
    all_files = sorted({f for m in manifests.values()
                        for f in record_files(m)})
    schema = unify_change_schemas(
        [_pq.read_schema(str(Path(cfg.lake_dir) / f)) for f in all_files])
    schema_fp = hashlib.sha256(
        schema.serialize().to_pybytes()).hexdigest()[:16]

    cache_path = Path(cfg.lake_dir) / "_audit_cache.json"
    try:
        with open(cache_path) as f:
            cache = json.load(f)
        if (cache.get("schema_fp") != schema_fp
                or cache.get("n_buckets") != n_buckets):
            cache = {}
    except (FileNotFoundError, json.JSONDecodeError):
        cache = {}
    cached = cache.get("partitions", {})

    fps = {pid: _partition_fingerprint(cfg.lake_dir, record_files(m))
           for pid, m in manifests.items()}
    changed = [pid for pid in manifests
               if cached.get(str(pid), {}).get("fingerprint") != fps[pid]]
    fresh = ray.get([remote_call.remote(
        _digest_partition_visible, cfg.lake_dir, manifests[pid], kernel,
        schema, n_buckets) for pid in changed])
    for pid, partials in zip(changed, fresh):
        cached[str(pid)] = {"fingerprint": fps[pid], "buckets": partials}
    # drop retired partitions (splits/merges) so their rows don't linger
    cached = {p: v for p, v in cached.items() if int(p) in manifests}
    _atomic_write(str(cache_path), json.dumps(
        {"schema_fp": schema_fp, "n_buckets": n_buckets,
         "partitions": cached}).encode())

    out: dict[int, tuple[int, int, int]] = {}
    for entry in cached.values():
        for bkt, (n, s, q) in entry["buckets"].items():
            bkt = int(bkt)
            n0, s0, q0 = out.get(bkt, (0, 0, 0))
            out[bkt] = (n0 + n, (s0 + s) & 0xFFFFFFFFFFFFFFFF,
                        (q0 + q) & 0xFFFFFFFFFFFFFFFF)
    return out


def verify_replica(src: JobConfig, dst: JobConfig,
                   n_buckets: int = 256,
                   incremental: bool = False) -> "pa.Table":
    """Layout-independent content-equality audit between two lakes: the
    completion check ``replicate`` owes its operators (a follower that
    replayed every pass SHOULD be bit-equal, but a retention skip with
    ``missing_ok=True``, a divergent manual write, or an engine bug are
    exactly what an audit exists to catch).

    Returns the MISMATCHED key-space buckets — empty table = lakes hold
    identical visible state.  Each side's visible rows are canonicalized
    (columns in sorted name order, values stringified, nulls sentineled),
    hashed to 64 bits, and folded into per-bucket (count, wrapping sum,
    wrapping sum-of-squares) partials — order- and layout-independent, so
    the two lakes may use different partitioning / chunking / MoR /
    splits.  Both sides stream; the driver sees only 2 × ``n_buckets``
    partial rows.  A false EQUAL needs colliding count+sum+sum² in every
    bucket (≈ 2⁻¹²⁸ per bucket); any real divergence flips at least one.

    Schema divergence (different visible column sets) is reported as a
    mismatch in every bucket both sides populate — the canonical row
    string embeds column names.

    ``incremental=True`` computes each side's partials per PARTITION and
    caches them in ``<lake>/_audit_cache.json`` keyed by the partition's
    manifest fingerprint: re-audits after a replication batch re-digest
    only the partitions that batch touched — O(changed), not O(lake).
    Requires both lake dirs writable (the cache write); results are
    identical to the streaming path (equality-tested).
    """
    import numpy as np

    if incremental:
        a = _lake_bucket_partials(src, n_buckets)
        b = _lake_bucket_partials(dst, n_buckets)
        return _bucket_mismatches(a, b)

    from migration_pair_ray.pipelines.replay import final_state

    def digest(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64()),
                             "hsum": pa.array([], pa.uint64()),
                             "hsq": pa.array([], pa.uint64())})
        h = canonical_row_hash64(t)
        b = (h % np.uint64(n_buckets)).astype(np.int64)
        order = np.argsort(b, kind="stable")
        hb, bb = h[order], b[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(bb)) + 1))
        return pa.table({
            "bucket": pa.array(bb[starts].astype(np.int32)),
            "rows": pa.array(np.diff(np.concatenate(
                (starts, [len(bb)]))).astype(np.int64)),
            "hsum": pa.array(np.add.reduceat(hb, starts)),
            "hsq": pa.array(np.add.reduceat(hb * hb, starts)),
        })

    def tagged(cfg: JobConfig, side: str):
        def fn(t: pa.Table) -> pa.Table:
            d = digest(t)
            return d.append_column(
                "side", pa.array([side] * d.num_rows, pa.string()))
        return (final_state(cfg, sort=False)
                .map_batches(fn, batch_format="pyarrow"))

    # one union = ONE streaming execution: both lakes scan concurrently
    # (two sequential take_all calls would serialize two full-lake folds)
    parts = tagged(src, "src").union(tagged(dst, "dst")).take_all()
    a: dict[int, tuple[int, int, int]] = {}
    b: dict[int, tuple[int, int, int]] = {}
    for r in parts:                               # ≤ 2 × blocks × n_buckets
        out = a if r["side"] == "src" else b
        bkt = int(r["bucket"])
        n, s, q = out.get(bkt, (0, 0, 0))
        out[bkt] = (n + int(r["rows"]),
                    (s + int(r["hsum"])) & 0xFFFFFFFFFFFFFFFF,
                    (q + int(r["hsq"])) & 0xFFFFFFFFFFFFFFFF)
    return _bucket_mismatches(a, b)


def _bucket_mismatches(a: dict, b: dict) -> "pa.Table":
    """Compare two sides' per-bucket (rows, hsum, hsq) totals → the
    mismatch table verify_replica returns (empty = identical)."""
    bad = []
    for bkt in sorted(set(a) | set(b)):
        sa, sb = a.get(bkt, (0, 0, 0)), b.get(bkt, (0, 0, 0))
        if tuple(sa) != tuple(sb):
            bad.append({"bucket": bkt,
                        "src_rows": sa[0], "dst_rows": sb[0],
                        "src_sum": sa[1], "dst_sum": sb[1]})
    schema = pa.schema([pa.field("bucket", pa.int32()),
                        pa.field("src_rows", pa.int64()),
                        pa.field("dst_rows", pa.int64()),
                        pa.field("src_sum", pa.uint64()),
                        pa.field("dst_sum", pa.uint64())])
    return (pa.Table.from_pylist(bad, schema=schema) if bad
            else schema.empty_table())


def export_jsonl(cfg: JobConfig, consumer: str, out_dir: str,
                 ack: bool = False, missing_ok: bool = False) -> dict:
    """Export the consumer's unacked passes as Debezium-style JSONL — the
    outbound half of the changefeed (``sources/jsonl_log`` is the inbound
    half, and round-trips this output bit-equivalently: ``ts_us`` carries
    full microsecond fidelity next to the conventional ``ts_ms``).

    One file per pass (``feed-<seq>.jsonl``), written by one Ray task per
    pass (export parallelizes across passes), lsn-sorted within the file,
    fsync'd atomic rename — deterministic bytes, so a crash-and-rerun
    overwrite is a no-op.  ``ack=True`` advances the cursor only after
    every file landed.  Per-row ``json.dumps`` is the serialization floor
    of the JSONL wire format itself (payload extraction is C via
    ``to_pylist``); this is an edge sink, not the replay hot path."""
    from migration_pair_ray.sources.changelog import unified_schema

    per_pass, frontier = _served_passes(cfg, consumer, missing_ok)
    os.makedirs(out_dir, exist_ok=True)
    events = []
    if per_pass:
        schema = unified_schema([p for _, paths in per_pass for p in paths])
        events = ray.get([remote_call.remote(_export_pass, paths, schema,
                                             seq, out_dir)
                          for seq, paths in per_pass])
    summary = {"passes": sum(1 for n in events if n),
               "events": sum(events), "frontier": frontier}
    if ack and frontier > consumer_cursor(cfg, consumer):
        summary["ack"] = ack_feed(cfg, consumer, frontier)
    return summary


def _export_pass(paths: list[str], schema: pa.Schema, seq: int,
                 out_dir: str) -> int:
    """Write one pass's change events (``paths`` conformed to ``schema``)
    as ``feed-<seq>.jsonl``; returns the event count (no file for 0)."""
    import numpy as np
    import pyarrow.compute as pc

    from migration_pair_ray.functions.normalize import normalize_batch
    from migration_pair_ray.sources.readers import read_parquet_file
    from migration_pair_ray.state.manifest import _fsync_dir
    g = pa.concat_tables([normalize_batch(read_parquet_file(p), schema)
                          for p in paths], promote_options="permissive")
    if g.num_rows == 0:
        return 0
    g = g.sort_by([("lsn", "ascending")])
    op = np.asarray(g.column("op").to_pandas(), dtype=object)
    is_d = op == "D"
    # P → "p" keeps patch semantics on the wire: re-ingesting an exported
    # patch must not turn its kept-column nulls into SET NULL
    wire_op = np.where(is_d, "d", np.where(op == "U", "u",
                       np.where(op == "P", "p", "c")))
    payload_cols = [c for c in g.schema.names if c not in ("op", "lsn", "ts")]
    payload = g.select(payload_cols).to_pylist()
    ts_us = pc.cast(pc.cast(g.column("ts"), pa.timestamp("us")),
                    pa.int64()).to_pylist()
    lsn = g.column("lsn").to_pylist()
    lines = []
    for i in range(g.num_rows):
        u = ts_us[i]
        lines.append(json.dumps({
            "op": wire_op[i],
            "before": payload[i] if is_d[i] else None,
            "after": None if is_d[i] else payload[i],
            "ts_ms": (u // 1000) if u is not None else None,
            "ts_us": u,
            "lsn": lsn[i],
        }, default=str))
    path = Path(out_dir) / f"feed-{seq:012d}.jsonl"
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(out_dir)
    return g.num_rows


# ------------------------------------------------------- co-located diff

def diff_lakes(a: JobConfig, b: JobConfig,
               payload_cols: tuple = ("role", "text", "tool", "ts")
               ) -> "object":
    """NET per-key state diff a → b as a Dataset of
    ``(conv_id, turn_idx, change, before_<c>/after_<c> per payload
    column)`` — insert / update / delete rows only (unchanged keys emit
    nothing; null-safe payload comparison).  ``payload_cols=()`` is the
    presence-only form: insert/delete rows only, no payload compared or
    emitted — the keys-only delta stream incremental view maintenance
    consumes.

    The co-partitioned fast path of the changefeed: when both lakes share
    the SAME layout (partition count, mode, splits, hot set, kernel) a
    key lives in the same partition id on both sides, so the diff is one
    LOCAL outer join per partition — one Ray task reads both sides'
    state files for its pid and emits only that pid's changed rows.
    **No exchange at all**: at 100 TB nothing moves except the changed
    rows flowing to the consumer, never a two-sided payload shuffle.
    Raises ``LakeLayoutError`` when the layouts differ: bring one lake to
    the other's layout with ``pipelines.replay.repartition_lake`` first."""
    import ray.data as rd
    from migration_pair_ray.schemas import CHANGE_SCHEMA
    from migration_pair_ray.sources.readers import driver_dataset
    from migration_pair_ray.state.manifest import (LakeLayoutError, LakeMeta,
                                                   ManifestStore)

    la, lb = LakeMeta(a.lake_dir), LakeMeta(b.lake_dir)
    ra, rb = la.read() or {}, lb.read() or {}
    layout_a = (ra.get("num_partitions"), ra.get("partition_mode"),
                tuple(sorted((la.splits() or {}).items())),
                tuple(la.hot_convs() or ()), la.merge_kernel())
    layout_b = (rb.get("num_partitions"), rb.get("partition_mode"),
                tuple(sorted((lb.splits() or {}).items())),
                tuple(lb.hot_convs() or ()), lb.merge_kernel())
    if layout_a != layout_b:
        raise LakeLayoutError(
            f"diff_lakes needs identical layouts; got {layout_a} vs "
            f"{layout_b} — rebuild one lake under the other's layout with "
            f"pipelines.replay.repartition_lake first")
    kernel = la.merge_kernel()

    sa = ManifestStore(a.manifest_dir)
    sb = ManifestStore(b.manifest_dir)
    pids = sorted(set(la.active_partition_ids(a.num_partitions))
                  | set(lb.active_partition_ids(b.num_partitions)))
    plans = []
    for pid in pids:
        mma, mmb = sa.read(pid), sb.read(pid)
        if mma is None and mmb is None:
            continue
        plans.append((mma, mmb))
    payload = tuple(payload_cols)
    if not plans:
        empty = pa.schema(
            [("conv_id", pa.string()), ("turn_idx", pa.int32()),
             ("change", pa.string())]
            + [(f"{p}_{c}", CHANGE_SCHEMA.field(c).type)
               for p in ("before", "after") for c in payload])
        return driver_dataset([empty.empty_table()])

    return rd.from_arrow_refs([remote_call.remote(
        _diff_partition, a.lake_dir, mma, b.lake_dir, mmb, kernel, payload)
        for mma, mmb in plans])


def _diff_partition(lake_a: str, ma: dict | None, lake_b: str,
                    mb: dict | None, kernel: str,
                    payload: tuple) -> pa.Table:
    """One partition id's net diff a → b (``diff_lakes``' per-partition
    task): a local full outer join of both sides' visible rows."""
    import numpy as np
    import pyarrow.compute as pc
    from migration_pair_ray.functions.lww import finalize_visible
    from migration_pair_ray.functions.normalize import make_normalizer
    from migration_pair_ray.schemas import CHANGE_SCHEMA, unify_change_schemas
    from migration_pair_ray.stages.applier import read_state_table

    # schema unification happens HERE, per pid, from the tables just
    # read — the driver never does an O(total state files) serial footer
    # sweep before the first task can start.  Output payload columns are
    # cast to their canonical CHANGE_SCHEMA types below, so blocks align
    # across partitions that evolved differently.
    ta = read_state_table(lake_a, ma, kernel=kernel)
    tb = read_state_table(lake_b, mb, kernel=kernel)
    local = [t.schema for t in (ta, tb) if t is not None and t.num_rows]
    schema = unify_change_schemas(local) if local else CHANGE_SCHEMA
    norm = make_normalizer(schema)

    def side(t: pa.Table | None, prefix: str) -> pa.Table:
        if t is None or t.num_rows == 0:
            t = schema.empty_table()
        t = finalize_visible(norm(t), kernel)
        cols = {"conv_id": t.column("conv_id"),
                "turn_idx": t.column("turn_idx")}
        for c in payload:
            col = t.column(c)
            if c in CHANGE_SCHEMA.names:
                col = pc.cast(col, CHANGE_SCHEMA.field(c).type)
            cols[f"{prefix}_{c}"] = col
        cols[f"__{prefix}"] = pa.array(np.ones(t.num_rows, np.int8))
        return pa.table(cols)

    va = side(ta, "before")
    vb = side(tb, "after")
    j = va.join(vb, keys=["conv_id", "turn_idx"], join_type="full outer")

    in_a = pc.is_valid(j.column("__before"))
    in_b = pc.is_valid(j.column("__after"))

    def same(col: str):
        x, y = j.column(f"before_{col}"), j.column(f"after_{col}")
        eq = pc.fill_null(pc.equal(x, y), False)
        return pc.or_(eq, pc.and_(pc.is_null(x), pc.is_null(y)))

    if payload:
        unchanged = same(payload[0])
        for c in payload[1:]:
            unchanged = pc.and_(unchanged, same(c))
    else:   # presence-only: both-present keys never emit
        unchanged = pa.array(np.ones(j.num_rows, np.bool_))

    def _cc(x):
        return x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x

    ins = pc.and_(pc.invert(_cc(in_a)), in_b)
    dele = pc.and_(in_a, pc.invert(_cc(in_b)))
    emit = pc.or_(pc.or_(ins, dele),
                  pc.and_(pc.and_(in_a, in_b), pc.invert(_cc(unchanged))))
    j = j.filter(emit)
    ins_np = pc.and_(pc.invert(_cc(pc.is_valid(j.column("__before")))),
                     pc.is_valid(j.column("__after"))
                     ).to_numpy(zero_copy_only=False)
    del_np = pc.and_(pc.is_valid(j.column("__before")),
                     pc.invert(_cc(pc.is_valid(j.column("__after"))))
                     ).to_numpy(zero_copy_only=False)
    change = np.where(ins_np, "insert", np.where(del_np, "delete", "update"))
    cols = {"conv_id": j.column("conv_id"),
            "turn_idx": j.column("turn_idx"),
            "change": pa.array(change.tolist(), pa.string())}
    for p in ("before", "after"):
        for c in payload:
            cols[f"{p}_{c}"] = j.column(f"{p}_{c}")
    return pa.table(cols)
