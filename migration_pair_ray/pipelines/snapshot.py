"""Snapshot export — the EP2/Extraction analog (SURVEY.md §3).

The reference writes one CSV file from one thread (``Tasks/Extraction.cs:48-76``
— the serial bottleneck of its design), canonicalizing timestamps to unix
epoch milliseconds (``:67-68``) and quote-escaping strings (``:86-87``).

Here: ``final_state → (optional ts→unix-ms map_batches) → parallel
write_parquet/write_csv`` — many files, partition-parallel, and ordering
is available per-partition (mode "conv") or via an explicit sort.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import ray

from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, remote_call


def _ts_to_unix_ms(batch: pa.Table) -> pa.Table:
    """Reference wire form: DateTimeOffset → ToUnixTimeMilliseconds()
    (Tasks/Extraction.cs:67-68), applied to every timestamp column."""
    for i, f in enumerate(batch.schema):
        if pa.types.is_timestamp(f.type):
            us = pc.cast(pc.cast(batch.column(i), pa.timestamp("us")), pa.int64())
            ms = pc.divide(us, pa.scalar(1000, pa.int64()))
            batch = batch.set_column(i, f.name, ms)
    return batch


def snapshot(cfg: JobConfig, out_dir: str, fmt: str = "parquet",
             unix_ms_ts: bool = False, sort: bool = True) -> int:
    """Export the visible final state; returns row count written.

    ``fmt``: "parquet" (preferred sink) or "csv" (reference-format parity —
    Arrow's CSV writer handles the quote/escape rules the reference
    hand-rolled in Extraction.cs:78-93).
    """
    ds = final_state(cfg, sort=sort)
    if unix_ms_ts:
        ds = ds.map_batches(_ts_to_unix_ms, batch_format="pyarrow")
    # The write streams the pipeline once; NO materialize() — at 100 TB a
    # materialized final state would pin the whole table in the object
    # store.  The row count comes from the commit manifests instead: every
    # partition manifest records row_count (internal rows) and tombstones,
    # and the visible state is exactly their difference.
    if fmt == "parquet":
        ds.write_parquet(out_dir)
    elif fmt == "csv":
        # reference wire-format parity: configured delimiter + optional
        # header row (Tasks/Extraction.cs:55-59,92; SettingsModel.cs)
        delim, header = cfg.csv_delimiter, cfg.csv_has_header

        def _csv_args():
            # WriteOptions is not picklable; the _fn form builds it on the
            # writing worker instead of shipping it
            from pyarrow import csv as pacsv
            return {"write_options": pacsv.WriteOptions(
                delimiter=delim, include_header=header)}

        ds.write_csv(out_dir, arrow_csv_args_fn=_csv_args)
    elif fmt == "jsonl":
        # training-data interchange format; pair with unix_ms_ts=True so
        # timestamps survive the JSON roundtrip as exact integers
        ds.write_json(out_dir)
    else:
        raise ValueError(f"unknown snapshot format {fmt!r}")
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore
    store = ManifestStore(cfg.manifest_dir)
    kernel = LakeMeta(cfg.lake_dir).merge_kernel()
    total = 0
    # partition enumeration from the lake's own metadata (LakeMeta), never
    # range(cfg.num_partitions): a misconfigured read must not truncate
    # the exported count, and split children must be included
    mor = []
    for pid in LakeMeta(cfg.lake_dir).active_partition_ids(cfg.num_partitions):
        m = store.read(pid)
        if not m:
            continue
        if m.get("delta_files") or kernel == "cell":
            # cell-kernel state files hold each key's DETERMINER rows, not
            # one winner — row_count-tombstones is not the visible count;
            # fold it like a MoR partition
            mor.append(m)
        else:
            total += int(m["row_count"]) - int(m["tombstones"])
    # merge-on-read and cell partitions: the counts above cannot tell
    # which delta keys superseded base keys, so each folds in its own Ray
    # task (one partition's state per task; never driver memory)
    total += sum(ray.get([remote_call.remote(
        _visible_count, cfg.lake_dir, m, kernel) for m in mor]))
    return total


def _visible_count(lake_dir: str, manifest: dict, kernel: str) -> int:
    """Visible rows of one partition (its base and deltas folded)."""
    from migration_pair_ray.functions.lww import finalize_visible
    from migration_pair_ray.stages.applier import read_state_table
    st = read_state_table(lake_dir, manifest, kernel=kernel)
    return finalize_visible(st, kernel).num_rows if st is not None else 0


def snapshot_incremental(cfg: JobConfig, out_dir: str) -> dict:
    """Incremental export: one visible-state Parquet file per partition,
    re-exporting ONLY partitions whose committed state moved since the
    last export — the resumable-output discipline a daily 100-TB export
    needs (an unchanged partition costs zero I/O on re-run).

    Freshness per partition = the same manifest file-list+sizes
    fingerprint the value index uses (state files are immutable CoW, so
    equality ⇒ identical content; merge-on-read deltas are part of the
    fingerprint and are LWW-folded into the export).  Layout:
    ``<out_dir>/part-NNNNN.parquet`` (key-sorted within the partition) +
    ``_export_meta.json``, rewritten atomically LAST so a crashed export
    re-runs exactly.  Files of retired partitions (splits/merges) are
    removed.  Returns {partitions, exported, reused, rows_exported}."""
    # writer lease: the export reads manifest-pinned files a concurrent
    # replay's commit-time GC could delete mid-run (same rule as the
    # value-index build and every maintenance job)
    import contextlib

    from migration_pair_ray.state.lock import WriterLease
    lease = (WriterLease(cfg.lake_dir, "export", cfg.writer_lease_ttl_s)
             if cfg.writer_lease else contextlib.nullcontext())
    with lease:
        return _snapshot_incremental_locked(cfg, out_dir)


def _snapshot_incremental_locked(cfg: JobConfig, out_dir: str) -> dict:
    import json as _json

    from migration_pair_ray.pipelines.index import _partition_fingerprint
    from migration_pair_ray.state.manifest import (LakeMeta, ManifestStore,
                                                   _atomic_write,
                                                   record_files)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta_path = out / "_export_meta.json"
    old: dict[str, str] = {}
    if meta_path.exists():
        with open(meta_path) as f:
            old = _json.load(f).get("fingerprints", {})

    store = ManifestStore(cfg.manifest_dir)
    kernel = LakeMeta(cfg.lake_dir).merge_kernel()
    manifests, fps = {}, {}
    for pid in LakeMeta(cfg.lake_dir).active_partition_ids(cfg.num_partitions):
        m = store.read(int(pid))
        manifests[int(pid)] = m
        fps[int(pid)] = _partition_fingerprint(
            cfg.lake_dir, record_files(m))
    dirty = [pid for pid, fp in fps.items() if old.get(str(pid)) != fp]

    # one Ray task per moved partition reads, folds and writes its file
    rows_exported = sum(ray.get([remote_call.remote(
        _export_partition, cfg.lake_dir, manifests[pid], kernel,
        str(out / f"part-{pid:05d}.parquet")) for pid in dirty]))

    # atomic meta flip LAST, then GC retired partitions' files
    _atomic_write(str(meta_path), _json.dumps(
        {"fingerprints": {str(p): fp for p, fp in fps.items()}},
        indent=1).encode())
    live = {f"part-{pid:05d}.parquet" for pid in fps}
    for p in out.glob("part-*.parquet"):
        if p.name not in live:
            p.unlink()
    # orphaned tmp files from a worker that died mid-write (the re-run
    # writes under a new pid, so these never get cleaned by rename)
    for p in out.glob("part-*.parquet.tmp.*"):
        p.unlink()
    return {"partitions": len(fps), "exported": len(dirty),
            "reused": len(fps) - len(dirty), "rows_exported": rows_exported}


def _export_partition(lake_dir: str, manifest: dict | None, kernel: str,
                      path: str) -> int:
    """Write one partition's visible state (base and deltas folded) to
    ``path``, key-sorted; returns its row count."""
    from migration_pair_ray.functions.lww import finalize_visible
    from migration_pair_ray.schemas import CHANGE_SCHEMA
    from migration_pair_ray.stages.applier import (_fsync_write_parquet,
                                                   read_state_table)
    st = read_state_table(lake_dir, manifest, kernel=kernel)
    if st is None:
        # never-written partition: canonical-schema empty file
        vis = finalize_visible(CHANGE_SCHEMA.empty_table(), kernel)
    else:
        # keep the partition's own (possibly evolved) schema even when
        # every row is tombstoned — the export dir must not silently mix
        # schema vintages per file
        vis = finalize_visible(st, kernel).sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")])
    _fsync_write_parquet(vis, path)
    return vis.num_rows
