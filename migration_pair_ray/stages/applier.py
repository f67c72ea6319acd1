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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.lww import merge_tables_chunked
from migration_pair_ray.schemas import DICTIONARY_COLUMNS, MERGE_KEYS
from migration_pair_ray.sources.readers import read_footer, read_parquet_file
from migration_pair_ray.stages.partition import PART_COL
from migration_pair_ray.state.manifest import (ManifestStore, base_entries,
                                               content_hash, read_deltas,
                                               record_files)

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


def partition_dir(lake_dir: str, pid: int) -> Path:
    """Partition ``pid``'s directory: the one spelling of ``part=NNNNN``."""
    return Path(lake_dir) / f"part={pid:05d}"


def _tombstones(table: pa.Table) -> int:
    return int(pc.sum(pc.cast(pc.equal(table.column("op"), "D"),
                              pa.int64())).as_py() or 0)


def lsn_range(table: pa.Table) -> dict:
    """``lsn_lo``/``lsn_hi`` of a record or delta entry: the min and max
    ``lsn`` of ``table`` (0 for an empty table)."""
    mm = pc.min_max(table.column("lsn")).as_py()
    return {"lsn_lo": int(mm["min"] or 0), "lsn_hi": int(mm["max"] or 0)}


def _chunked(entries: list[dict]) -> dict:
    return {"data_files": entries,
            "row_count": sum(e["rows"] for e in entries),
            "tombstones": sum(e["tombstones"] for e in entries)}


def write_partition_state(lake_dir: str, pid: int, tag: str, table: pa.Table,
                          chunk_rows: int, hash_state: bool,
                          start_seq: int = 0) -> tuple[dict, int]:
    """The partition-state writer: every base layout of a manifest record
    is decided here (the merge, compaction, split, merge-back and repair
    all call it; ``state/manifest.base_entries`` is its reader).

    ``table`` (key-sorted) becomes key-range chunk files
    ``state-{tag}-{seq:04d}.parquet``, numbered from ``start_seq``, of
    about ``chunk_rows`` rows cut at key-group boundaries (one key never
    spans two chunks) when ``chunk_rows > 0`` and no merge key is null —
    key ranges mean nothing on null keys.  Otherwise it becomes one
    ``state-{tag}.parquet``.  Returns the record's layout fields
    (``data_files``, or ``data_file`` + ``content_hash``; ``row_count``;
    ``tombstones``) and the bytes written; the caller adds the partition,
    pass id, lsn range and provenance."""
    d = partition_dir(lake_dir, pid)
    d.mkdir(parents=True, exist_ok=True)
    n = table.num_rows
    if chunk_rows <= 0 or not n or any(table.column(k).null_count
                                       for k in MERGE_KEYS):
        name = f"state-{tag}.parquet"
        nbytes = write_state_parquet(table, str(d / name))
        return {"data_file": f"{d.name}/{name}", "row_count": n,
                "tombstones": _tombstones(table),
                "content_hash": content_hash(str(d / name), hash_state)
                }, nbytes
    conv = np.asarray(table.column("conv_id").to_pandas())
    turn = table.column("turn_idx").to_numpy(zero_copy_only=False)
    entries: list[dict] = []
    nbytes = lo = 0
    while lo < n:
        hi = min(lo + chunk_rows, n)
        while hi < n and conv[hi] == conv[hi - 1] and turn[hi] == turn[hi - 1]:
            hi += 1
        sub = table.slice(lo, hi - lo)
        name = f"state-{tag}-{start_seq + len(entries):04d}.parquet"
        nbytes += write_state_parquet(sub, str(d / name))
        entries.append({
            "file": f"{d.name}/{name}",
            "rows": sub.num_rows,
            "tombstones": _tombstones(sub),
            "key_lo": [str(conv[lo]), int(turn[lo])],
            "key_hi": [str(conv[hi - 1]), int(turn[hi - 1])],
            "content_hash": content_hash(str(d / name), hash_state),
        })
        lo = hi
    return _chunked(entries), nbytes


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

    def _lineage(self, pid: int, **kw) -> pa.Table:
        row = {
            "partition": pid, "pass_id": self.pass_id, "rows_in": 0,
            "rows_state": 0, "tombstones": 0, "lsn_lo": 0, "lsn_hi": 0,
            "bytes": 0, "seconds": 0.0, "skipped": False,
        }
        row.update(kw)
        return pa.Table.from_pylist([row], schema=LINEAGE_SCHEMA)

    def _write(self, pid: int, table: pa.Table,
               start_seq: int = 0) -> tuple[dict, int]:
        return write_partition_state(
            self.lake_dir, pid, self.pass_id, table,
            self.cfg.state_chunk_rows, self.cfg.hash_state, start_seq)

    # ---------------------------------------------------------- state I/O

    def _gc(self, pid: int, referenced: set[str]) -> None:
        """Delete state files the committed manifest no longer references
        (best-effort).  Carried-over chunk files from earlier passes stay
        referenced and therefore stay on disk."""
        from migration_pair_ray.state.bloom import gc_partition_files
        gc_partition_files(self.lake_dir, pid, referenced)

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
            record = self._apply_mor(pid, prev, changes)
            if record is not None:
                return self._lineage(
                    pid, rows_in=group.num_rows,
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
            # existing deltas via read_state_table / read_deltas

        out = (self._apply_chunked(pid, prev, changes)
               if self.cfg.state_chunk_rows > 0 else None)
        if out is None:
            # copy-on-write, or a chunked lake's degenerate null merge
            # keys (the writer then writes one file).  The merge sorts by
            # (conv_id, turn_idx, ts, lsn) and keeps the kernel's
            # surviving rows per key — its output is therefore already in
            # the deterministic (conv_id, turn_idx) file order; no second
            # sort needed.  The chunked variant bounds the transient
            # sort/concat working set when a skewed partition outgrows
            # merge_chunk_rows.
            existing = read_state_table(self.lake_dir, prev,
                                        kernel=self.cfg.merge_kernel)
            out = self._write(pid, merge_tables_chunked(
                existing, changes, self.cfg.merge_chunk_rows,
                self.cfg.merge_kernel))
        layout, nbytes = out
        self._commit(pid, {"partition": pid, "pass_id": self.pass_id,
                           **layout, "lsn_lo": lsn_lo, "lsn_hi": lsn_hi},
                     set(record_files(layout)))
        return self._lineage(
            pid, rows_in=group.num_rows, rows_state=layout["row_count"],
            tombstones=layout["tombstones"], lsn_lo=lsn_lo, lsn_hi=lsn_hi,
            bytes=nbytes, seconds=time.perf_counter() - t0,
        )

    def _apply_mor(self, pid: int, prev: dict,
                   changes: pa.Table) -> dict | None:
        """Merge-on-read append (COMPACTION.md): write this pass's
        pre-reduced changes as a DELTA file next to the untouched base —
        write cost O(changes), never O(partition).  Readers fold
        base + deltas with the LWW kernel (read_state_table / read_lake).
        Returns None to fall through to a compacting merge when the
        partition would exceed ``mor_max_deltas`` or keys are degenerate
        (null merge keys need the full-merge fallback)."""
        from migration_pair_ray.functions.lww import reduce_events

        deltas = list(prev.get("delta_files", []))
        if len(deltas) + 1 > self.cfg.mor_max_deltas:
            return None
        reduced = reduce_events(changes, self.cfg.merge_kernel)
        if any(reduced.column(k).null_count > 0 for k in MERGE_KEYS):
            return None

        conv = np.asarray(reduced.column("conv_id").to_pandas())
        turn = reduced.column("turn_idx").to_numpy(zero_copy_only=False)
        d = partition_dir(self.lake_dir, pid)
        d.mkdir(parents=True, exist_ok=True)
        # "state-" prefix keeps the GC/fsck glob authoritative; the pass id
        # makes a retried task rewrite identical bytes (idempotent commit)
        name = f"state-{self.pass_id}-delta.parquet"
        nbytes = write_state_parquet(reduced, str(d / name))
        entry = {
            "file": f"{d.name}/{name}",
            "rows": reduced.num_rows,
            "tombstones": _tombstones(reduced),
            **lsn_range(reduced),
            "key_lo": [str(conv[0]), int(turn[0])],
            "key_hi": [str(conv[-1]), int(turn[-1])],
            "content_hash": content_hash(str(d / name), self.cfg.hash_state),
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
        return record

    def _apply_chunked(self, pid: int, prev: dict | None,
                       changes: pa.Table) -> tuple[dict, int] | None:
        """Chunked-layout merge: rewrite ONLY the chunks whose key range
        the (reduced, key-sorted) changes touch; untouched chunks carry
        their manifest entries — and files — forward unrewritten.
        Returns the layout and the bytes written (the rewritten chunks
        only).

        Chunk i owns the half-open key range [key_lo_i, key_lo_{i+1})
        (first chunk also owns everything below), so every change key maps
        to exactly one chunk by binary search.  Returns None for the
        degenerate null-merge-key case (caller falls back to the
        single-file merge: correctness beats chunk pruning there)."""
        from migration_pair_ray.functions.lww import reduce_events

        changes = reduce_events(read_deltas(self.lake_dir, prev, changes),
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
            return self._write(pid, merge_tables_chunked(
                existing, changes, self.cfg.merge_chunk_rows,
                self.cfg.merge_kernel))

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
        seq = nbytes = 0
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
            layout, n = self._write(pid, merged, seq)
            new_entries.extend(layout["data_files"])
            seq += len(layout["data_files"])
            nbytes += n
        return _chunked(new_entries), nbytes


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
    tables = []
    for e in base_entries(manifest):
        path = str(Path(lake_dir) / e["file"])
        tables.append(read_parquet_file(path, metadata=read_footer(path)[2]))
    base = (None if not tables else tables[0] if len(tables) == 1
            else pa.concat_tables(tables, promote_options="permissive"))
    deltas = read_deltas(lake_dir, manifest) if fold_deltas else None
    if deltas is None:
        return base
    from migration_pair_ray.functions.lww import merge_tables
    return merge_tables(base, deltas, kernel=kernel)


def state_file_paths(lake_dir: str, manifest: dict | None) -> list[str]:
    """Absolute paths of a partition's base state files, in key order
    (perfbench's ``scan.files`` counts them)."""
    return [str(Path(lake_dir) / e["file"]) for e in base_entries(manifest)]
