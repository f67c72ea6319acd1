"""The upsert-apply stage: ``merge_partition`` for each partition of a
pass — in the driver, one partition after another, when the pass fits one
block, else in one plain Ray task per partition, fed by one route task
per input (``pipelines/replay.apply_changes_ds`` chooses).

This is the Ray-Data-native replacement for the reference's batched async
Cassandra writer (``Tasks/MigrationTask.cs:118-134`` + the implicit upsert
semantics of ``:101-104``).  The reference holds one session per worker
(``Tasks/MigrationTask.cs:29-60``); nothing here is worth holding across
partitions — an ``Applier`` is its config values plus a ``ManifestStore``
— so a merge task builds one per partition group, merges that
partition's pre-reduced change events with its existing lake file,
commits and returns, leaving nothing alive after the pass.

Exactly-once under Ray retries: all effects are gated on the atomic
manifest commit; the state file name is derived from the deterministic
``pass_id``, so a retried task rewrites the identical bytes and the commit
stays idempotent (see state/manifest.py).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.lww import merge_tables_chunked
from migration_pair_ray.schemas import DICTIONARY_COLUMNS, MERGE_KEYS
from migration_pair_ray.sources.readers import read_footer, read_parquet_file
from migration_pair_ray.stages.partition import PART_COL
from migration_pair_ray.state.manifest import ManifestStore, content_hash

# Columns the pass combiner (pipelines/replay.combine_changes) stamps on
# every surviving change row: the min and max raw lsn of its partition's
# events in the combined batch.  The merge records the source offsets a
# pass applied from them; the survivors' own lsns are narrower whenever a
# reduce dropped a superseded event at either end.
RAW_LSN_COLS = ("_raw_lsn_lo", "_raw_lsn_hi")

LINEAGE_SCHEMA = pa.schema(
    [
        pa.field("partition", pa.int32()),
        pa.field("pass_id", pa.string()),
        # change rows entering the merge.  The driver executor reduces the
        # whole pass before routing, so this is the partition's distinct
        # keys (row kernel; determiner rows under the cell kernel).  The
        # task executor reduces per input (file or block), so a key whose
        # events span inputs counts once per input: the same pass reports more.
        pa.field("rows_in", pa.int64()),
        pa.field("rows_state", pa.int64()),     # rows in the committed state file
        pa.field("tombstones", pa.int64()),     # tombstone keys held in state
        # source offset range applied: every raw event of the partition in
        # the pass, superseded ones included (RAW_LSN_COLS)
        pa.field("lsn_lo", pa.int64()),
        pa.field("lsn_hi", pa.int64()),
        pa.field("bytes", pa.int64()),
        pa.field("seconds", pa.float64()),
        pa.field("skipped", pa.bool_()),        # already committed (idempotent replay)
    ]
)


def _fsync_write_parquet(table: pa.Table, path: str) -> int:
    """Change, export and index files: pyarrow's default encoding."""
    return _publish(path, lambda tmp: pq.write_table(table, tmp))


def _publish(path: str, write) -> int:
    """``write(tmp)`` then fsync and rename onto ``path``; its size."""
    from migration_pair_ray.state.manifest import _fsync_dir
    tmp = f"{path}.tmp.{os.getpid()}"
    write(tmp)
    with open(tmp, "rb+") as f:
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)   # make the rename durable before the manifest commit
    return os.path.getsize(path)


def write_state_parquet(table: pa.Table, path: str) -> int:
    """The state-file write authority: fsync'd parquet + its Bloom sidecar
    (state/bloom.py) — change/export files use plain ``_fsync_write_parquet``
    (blooms only pay for themselves on point-lookup-served state files).

    State files are written for the read path: LZ4 pages, and dictionary
    pages only on ``DICTIONARY_COLUMNS``, the strings whose values
    repeat.  ``text`` has one distinct value per row, so a dictionary page
    there is pure overhead.  The perfbench serve lake's 16 state files
    (seed 7, 44,229 rows) rewritten per encoding, each set decoded
    serially on one CPU (``read_parquet_file`` with kept footers, median
    of 60) and written (median of 5) on a shared 4-vCPU host:

    ==========================================  ========  =======  =======
    encoding                                    decode    write    bytes
    ==========================================  ========  =======  =======
    zstd, dictionary on every column (before)   13.21 ms  41.1 ms  0.99 MB
    lz4, dictionary on every column              8.35 ms  41.8 ms  1.29 MB
    zstd, dictionary on DICTIONARY_COLUMNS      11.54 ms  38.4 ms  0.79 MB
    lz4, dictionary on DICTIONARY_COLUMNS        7.24 ms  29.4 ms  1.16 MB
    no compression, no dictionary                6.28 ms  19.2 ms  3.47 MB
    ==========================================  ========  =======  =======

    A lookup decodes one whole file, so it pays for decode, not bytes:
    the accepted trade is about 17% more bytes than zstd for a decode in
    about 55% of the time.  Codec and encodings are per-file metadata, so
    lakes written under another policy (zstd before) mix freely with
    these files and need no migration."""
    from migration_pair_ray.state.bloom import write_sidecar
    nbytes = _publish(path, lambda tmp: pq.write_table(
        table, tmp, compression="lz4",
        use_dictionary=list(DICTIONARY_COLUMNS)))
    write_sidecar(path, table)
    return nbytes


def merge_partition(group: pa.Table, cfg: JobConfig, pass_id: str,
                    pass_seq: int, lineage_break: bool) -> pa.Table:
    """The merge stage's per-partition function (both pass executors):
    merge and commit one partition's change group; returns its lineage
    row."""
    return Applier(cfg, pass_id, pass_seq, lineage_break)(group)


class Applier:
    """Merges and commits one partition's change group for one pass;
    ``merge_partition`` builds one per group inside its merge task.

    ``pass_seq`` is the pass's monotone job-level sequence
    (CheckpointStore.next_seq), stamped into every record so as-of reads
    can order records even for partitions a given pass never touched.
    ``lineage_break`` stamps the commit record too: a refilled partition's
    retained history is gone, so time travel to earlier passes must
    raise, not silently answer 'empty' (state/manifest.py).

    With ``state_chunk_rows > 0`` the committed state is a list of
    key-range chunk files (manifest ``data_files``) and a merge rewrites
    ONLY the chunks whose key range the incoming changes touch — the
    Parquet-row-group pruning idea lifted to files (COMPACTION.md).
    In cell mode (``merge_kernel="cell"``) a state file holds each key's
    DETERMINER rows (≤ n_cols+2 per key), not one winner.
    """

    def __init__(self, cfg: JobConfig, pass_id: str, pass_seq: int,
                 lineage_break: bool):
        self.cfg = cfg
        self.lake_dir = cfg.lake_dir
        self.pass_id = pass_id
        self.pass_seq = pass_seq
        self.lineage_break = lineage_break
        self.manifests = ManifestStore(cfg.manifest_dir)

    def _state_file(self, pid: int, seq: int | None = None) -> str:
        d = Path(self.lake_dir) / f"part={pid:05d}"
        d.mkdir(parents=True, exist_ok=True)
        name = (f"state-{self.pass_id}.parquet" if seq is None
                else f"state-{self.pass_id}-{seq:04d}.parquet")
        return str(d / name)

    def _lineage(self, pid: int, **kw) -> pa.Table:
        row = {
            "partition": pid, "pass_id": self.pass_id, "rows_in": 0,
            "rows_state": 0, "tombstones": 0, "lsn_lo": 0, "lsn_hi": 0,
            "bytes": 0, "seconds": 0.0, "skipped": False,
        }
        row.update(kw)
        return pa.Table.from_pylist([row], schema=LINEAGE_SCHEMA)

    # ---------------------------------------------------------- state I/O

    def _gc(self, pid: int, referenced: set[str]) -> None:
        """Delete state files the committed manifest no longer references
        (best-effort).  Carried-over chunk files from earlier passes stay
        referenced and therefore stay on disk."""
        from migration_pair_ray.state.bloom import gc_partition_files
        gc_partition_files(self.lake_dir, pid, referenced)

    def _write_chunks(self, pid: int, merged: pa.Table,
                      seq: int) -> tuple[list[dict], int]:
        """Write ``merged`` (key-sorted) as key-range chunk files of about
        ``state_chunk_rows`` rows, cut at key-group boundaries (one key
        never spans two chunks).  Returns (manifest entries, next seq)."""
        entries = write_chunk_files(
            self.lake_dir, merged, self.cfg.state_chunk_rows,
            name_fn=lambda s: self._state_file(pid, s),
            hash_state=self.cfg.hash_state, start_seq=seq)
        return entries, seq + len(entries)

    def _commit(self, pid: int, record: dict, referenced: set[str]) -> None:
        if self.pass_seq >= 0:
            record = dict(record, pass_seq=self.pass_seq)
        if self.lineage_break:
            record = dict(record, lineage_break=True)
        self.manifests.commit(pid, record, retain=self.cfg.retain_passes)
        if self.cfg.retain_passes > 0:
            # GC keeps everything the committed manifest still pins —
            # current record AND retained prev_records (time-travel window)
            from migration_pair_ray.state.manifest import referenced_files
            referenced = referenced_files(self.manifests.read(pid))
        self._gc(pid, referenced)

    # ------------------------------------------------------------- apply

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        if group.num_rows == 0:
            return pa.Table.from_pylist([], schema=LINEAGE_SCHEMA)
        pid = int(group.column(PART_COL)[0].as_py())
        changes = group.drop_columns([PART_COL, *RAW_LSN_COLS])

        prev = self.manifests.read(pid)
        if prev and self.pass_id in prev.get("history", []):
            # replayed pass: state already reflects these events — skip.
            return self._lineage(pid, rows_in=group.num_rows, skipped=True,
                                 rows_state=prev.get("row_count", 0),
                                 seconds=time.perf_counter() - t0)

        lsn_lo = int(pc.min(group.column(RAW_LSN_COLS[0])).as_py())
        lsn_hi = int(pc.max(group.column(RAW_LSN_COLS[1])).as_py())

        if self.cfg.mor_max_deltas > 0 and prev is not None:
            out = self._apply_mor(pid, prev, changes)
            if out is not None:
                record, rows_in = out
                return self._lineage(
                    pid, rows_in=rows_in,
                    # MoR pass: exact merged counts would need the merge
                    # this mode exists to avoid — report the base+delta
                    # upper bound (exact again after compaction)
                    rows_state=record["row_count"]
                    + sum(e["rows"] for e in record["delta_files"]),
                    tombstones=record.get("tombstones", 0)
                    + sum(e["tombstones"] for e in record["delta_files"]),
                    lsn_lo=lsn_lo, lsn_hi=lsn_hi,
                    bytes=record["delta_files"][-1]["bytes"],
                    seconds=time.perf_counter() - t0)
            # fall through: compaction pass (threshold reached) or
            # degenerate null keys — the merge paths below fold the
            # existing deltas via read_state_table / _fold_deltas

        if self.cfg.state_chunk_rows > 0:
            out = self._apply_chunked(pid, prev, changes)
            if out is not None:
                entries, rows_in = out
                referenced = {e["file"] for e in entries}
                self._commit(pid, {
                    "partition": pid,
                    "pass_id": self.pass_id,
                    "data_files": entries,
                    "row_count": sum(e["rows"] for e in entries),
                    "tombstones": sum(e["tombstones"] for e in entries),
                    "lsn_lo": lsn_lo,
                    "lsn_hi": lsn_hi,
                }, referenced)
                nbytes = sum(os.path.getsize(str(Path(self.lake_dir) / e["file"]))
                             for e in entries)
                return self._lineage(
                    pid, rows_in=rows_in,
                    rows_state=sum(e["rows"] for e in entries),
                    tombstones=sum(e["tombstones"] for e in entries),
                    lsn_lo=lsn_lo, lsn_hi=lsn_hi,
                    bytes=nbytes, seconds=time.perf_counter() - t0)
            # fall through: degenerate (null merge keys) → single-file merge

        existing = read_state_table(self.lake_dir, prev,
                                    kernel=self.cfg.merge_kernel)

        # merge sorts by (conv_id, turn_idx, ts, lsn) and keeps the
        # kernel's surviving rows per key — its output is therefore already
        # in the deterministic (conv_id, turn_idx) file order; no second
        # sort needed.  The chunked variant bounds the transient
        # sort/concat working set when a skewed partition outgrows
        # merge_chunk_rows.
        merged = merge_tables_chunked(existing, changes,
                                      self.cfg.merge_chunk_rows,
                                      self.cfg.merge_kernel)

        tombstones = int(pc.sum(
            pc.cast(pc.equal(merged.column("op"), "D"), pa.int64())
        ).as_py() or 0)

        path = self._state_file(pid)
        nbytes = write_state_parquet(merged, path)
        rel = str(Path(path).relative_to(self.lake_dir))
        self._commit(pid, {
            "partition": pid,
            "pass_id": self.pass_id,
            "data_file": rel,
            "row_count": merged.num_rows,
            "tombstones": tombstones,
            "lsn_lo": lsn_lo,
            "lsn_hi": lsn_hi,
            "content_hash": content_hash(path, self.cfg.hash_state),
        }, {rel})

        return self._lineage(
            pid, rows_in=group.num_rows, rows_state=merged.num_rows,
            tombstones=tombstones, lsn_lo=lsn_lo, lsn_hi=lsn_hi,
            bytes=nbytes, seconds=time.perf_counter() - t0,
        )

    def _apply_mor(self, pid: int, prev: dict,
                   changes: pa.Table) -> tuple[dict, int] | None:
        """Merge-on-read append (COMPACTION.md): write this pass's
        pre-reduced changes as a DELTA file next to the untouched base —
        write cost O(changes), never O(partition).  Readers fold
        base + deltas with the LWW kernel (read_state_table / read_lake).
        Returns None to fall through to a compacting merge when the
        partition would exceed ``mor_max_deltas`` or keys are degenerate
        (null merge keys need the full-merge fallback)."""
        import numpy as np
        from migration_pair_ray.functions.lww import reduce_events
        from migration_pair_ray.state.manifest import record_files

        deltas = list(prev.get("delta_files", []))
        if len(deltas) + 1 > self.cfg.mor_max_deltas:
            return None
        rows_in = changes.num_rows
        reduced = reduce_events(changes, self.cfg.merge_kernel)
        if any(reduced.column(k).null_count > 0 for k in MERGE_KEYS):
            return None

        conv = np.asarray(reduced.column("conv_id").to_pandas())
        turn = reduced.column("turn_idx").to_numpy(zero_copy_only=False)
        d = Path(self.lake_dir) / f"part={pid:05d}"
        d.mkdir(parents=True, exist_ok=True)
        # "state-" prefix keeps the GC/fsck glob authoritative; the pass id
        # makes a retried task rewrite identical bytes (idempotent commit)
        path = str(d / f"state-{self.pass_id}-delta.parquet")
        nbytes = write_state_parquet(reduced, path)
        entry = {
            "file": str(Path(path).relative_to(self.lake_dir)),
            "rows": reduced.num_rows,
            "tombstones": int(pc.sum(pc.cast(
                pc.equal(reduced.column("op"), "D"),
                pa.int64())).as_py() or 0),
            "lsn_lo": int(pc.min(reduced.column("lsn")).as_py()),
            "lsn_hi": int(pc.max(reduced.column("lsn")).as_py()),
            "key_lo": [str(conv[0]), int(turn[0])],
            "key_hi": [str(conv[-1]), int(turn[-1])],
            "content_hash": content_hash(path, self.cfg.hash_state),
            "bytes": nbytes,
        }
        record = {k: v for k, v in prev.items()
                  if k not in ("history", "prev_records")}
        record.update(
            pass_id=self.pass_id,
            lsn_lo=min(int(prev.get("lsn_lo", entry["lsn_lo"])),
                       entry["lsn_lo"]),
            lsn_hi=max(int(prev.get("lsn_hi", entry["lsn_hi"])),
                       entry["lsn_hi"]),
            delta_files=deltas + [entry])
        self._commit(pid, record, set(record_files(record)))
        return record, rows_in

    def _fold_deltas(self, prev: dict | None, changes: pa.Table) -> pa.Table:
        """Concat a partition's pending delta rows into the change stream
        (schema-conformed) so a compacting merge folds them — used by the
        chunked path, which reads base chunk FILES directly rather than
        through read_state_table."""
        files = (prev or {}).get("delta_files") or []
        if not files:
            return changes
        from migration_pair_ray.functions.normalize import make_normalizer
        from migration_pair_ray.schemas import unify_change_schemas
        tables = [read_parquet_file(str(Path(self.lake_dir) / e["file"]))
                  for e in files]
        schema = unify_change_schemas([t.schema for t in tables]
                                      + [changes.schema])
        norm = make_normalizer(schema)
        return pa.concat_tables([norm(t) for t in tables] + [norm(changes)])

    def _apply_chunked(self, pid: int, prev: dict | None,
                       changes: pa.Table) -> tuple[list[dict], int] | None:
        """Chunked-layout merge: rewrite ONLY the chunks whose key range
        the (reduced, key-sorted) changes touch; untouched chunks carry
        their manifest entries — and files — forward unrewritten.

        Chunk i owns the half-open key range [key_lo_i, key_lo_{i+1})
        (first chunk also owns everything below), so every change key maps
        to exactly one chunk by binary search.  Returns None for the
        degenerate null-merge-key case (caller falls back to the
        single-file merge: correctness beats chunk pruning there)."""
        import numpy as np
        from migration_pair_ray.functions.lww import reduce_events
        from migration_pair_ray.schemas import MERGE_KEYS

        rows_in = changes.num_rows
        changes = reduce_events(self._fold_deltas(prev, changes),
                                self.cfg.merge_kernel)
        if any(changes.column(k).null_count > 0 for k in MERGE_KEYS):
            return None

        entries = (prev or {}).get("data_files")
        if not entries:
            # no prior state, or a single-file layout transitioning to
            # chunked: one full merge, then split into chunk files.
            # fold_deltas=False: pending deltas were already folded into
            # ``changes`` above — reading them again here would only waste
            # I/O (LWW idempotence would still make the result correct)
            existing = read_state_table(self.lake_dir, prev,
                                        fold_deltas=False)
            if existing is not None and any(
                    existing.column(k).null_count > 0 for k in MERGE_KEYS):
                return None
            merged = merge_tables_chunked(existing, changes,
                                          self.cfg.merge_chunk_rows,
                                          self.cfg.merge_kernel)
            new_entries, _ = self._write_chunks(pid, merged, 0)
            return new_entries, rows_in

        conv = np.asarray(changes.column("conv_id").to_pandas())
        turn = changes.column("turn_idx").to_numpy(zero_copy_only=False)

        def key_pos(c: str, t: int) -> int:
            lo = int(np.searchsorted(conv, c, "left"))
            hi = int(np.searchsorted(conv, c, "right"))
            return lo + int(np.searchsorted(turn[lo:hi], t, "left"))

        # change-slice boundaries per chunk: slice i = [starts[i], starts[i+1])
        starts = [0]
        for ent in entries[1:]:
            starts.append(key_pos(str(ent["key_lo"][0]), int(ent["key_lo"][1])))
        starts.append(changes.num_rows)

        new_entries: list[dict] = []
        seq = 0
        for i, ent in enumerate(entries):
            lo_c, hi_c = starts[i], starts[i + 1]
            if hi_c <= lo_c:
                new_entries.append(ent)        # untouched: carried forward
                continue
            chunk_tbl = read_parquet_file(str(Path(self.lake_dir)
                                              / ent["file"]))
            merged = merge_tables_chunked(chunk_tbl,
                                          changes.slice(lo_c, hi_c - lo_c),
                                          self.cfg.merge_chunk_rows,
                                          self.cfg.merge_kernel)
            written, seq = self._write_chunks(pid, merged, seq)
            new_entries.extend(written)
        return new_entries, rows_in


def write_chunk_files(lake_dir: str, merged: pa.Table, chunk_rows: int,
                      name_fn, hash_state: bool,
                      start_seq: int = 0) -> list[dict]:
    """The ONE chunk-cutting authority: write a key-sorted table as
    key-range chunk files of about ``chunk_rows`` rows, cut at key-group
    boundaries (one key never spans two chunks), fsync'd.  Used by the
    applier's chunked merge and by delta compaction — callers supply the
    file-naming scheme (``name_fn(seq) -> abs path``).  Callers must have
    handled null merge keys first: key ranges are only meaningful on
    non-null keys."""
    import numpy as np
    n = merged.num_rows
    entries: list[dict] = []
    if n == 0:
        return entries
    conv = np.asarray(merged.column("conv_id").to_pandas())
    turn = merged.column("turn_idx").to_numpy(zero_copy_only=False)
    lo, seq = 0, start_seq
    while lo < n:
        hi = min(lo + max(chunk_rows, 1), n)
        while hi < n and (conv[hi] == conv[hi - 1]
                          and turn[hi] == turn[hi - 1]):
            hi += 1
        sub = merged.slice(lo, hi - lo)
        path = name_fn(seq)
        write_state_parquet(sub, path)
        entries.append({
            "file": str(Path(path).relative_to(lake_dir)),
            "rows": sub.num_rows,
            "tombstones": int(pc.sum(pc.cast(
                pc.equal(sub.column("op"), "D"), pa.int64())).as_py() or 0),
            "key_lo": [str(conv[lo]), int(turn[lo])],
            "key_hi": [str(conv[hi - 1]), int(turn[hi - 1])],
            "content_hash": content_hash(path, hash_state),
        })
        seq += 1
        lo = hi
    return entries


def read_state_table(lake_dir: str, manifest: dict | None,
                     fold_deltas: bool = True,
                     kernel: str = "row") -> pa.Table | None:
    """A partition's committed state as one (key-sorted) table — handles
    all layouts: single ``data_file``, chunked ``data_files`` (chunk files
    are key-ordered and internally sorted, so concatenation is the sorted
    partition), and merge-on-read ``delta_files`` (folded into the base
    with the lake's merge kernel — ``kernel`` must match what the lake
    was written with, see ``LakeMeta.merge_kernel`` — so every consumer
    sees the true current state; ``fold_deltas=False`` returns the base
    only).  Each file's footer comes from ``read_footer``, parsed once
    per process."""
    if not manifest:
        return None

    def read(rel: str) -> pa.Table:
        path = str(Path(lake_dir) / rel)
        return read_parquet_file(path, metadata=read_footer(path)[2])

    files = manifest.get("data_files")
    if files is None:
        base = (read(manifest["data_file"]) if manifest.get("data_file")
                else None)
    elif not files:
        base = None
    else:
        tables = [read(e["file"]) for e in files]
        base = (tables[0] if len(tables) == 1
                else pa.concat_tables(tables, promote_options="permissive"))
    deltas = manifest.get("delta_files") if fold_deltas else None
    if not deltas:
        return base
    from migration_pair_ray.functions.lww import merge_tables
    from migration_pair_ray.functions.normalize import make_normalizer
    from migration_pair_ray.schemas import unify_change_schemas
    dt = [read(e["file"]) for e in deltas]
    schema = unify_change_schemas([t.schema for t in dt])
    norm = make_normalizer(schema)
    return merge_tables(base, pa.concat_tables([norm(t) for t in dt]),
                        kernel=kernel)


def state_file_paths(lake_dir: str, manifest: dict | None) -> list[str]:
    """Absolute paths of a partition's committed state files (both
    layouts), in key order."""
    if not manifest:
        return []
    files = manifest.get("data_files")
    if files is None:
        df = manifest.get("data_file")
        return [str(Path(lake_dir) / df)] if df else []
    return [str(Path(lake_dir) / e["file"]) for e in files]
