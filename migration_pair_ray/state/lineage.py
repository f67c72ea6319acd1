"""Lineage reading/summarising.

Writing happens inside the replay pipeline (one Parquet record per
partition commit, LINEAGE_SCHEMA in stages/applier.py — source offset
range, rows applied, tombstones, bytes, duration).  This module is the
read side: job-level summaries, the generalization of the reference's
per-batch count logs + stopwatch aspect (``Tasks/MigrationTask.cs:121``,
``Aspects/ExecutionTimeMeasured.cs:15-28``).
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from migration_pair_ray.config import JobConfig


def read_lineage(cfg: JobConfig) -> pa.Table:
    """All lineage records across passes (empty table if none)."""
    files = sorted(Path(cfg.lineage_dir).glob("pass-*.parquet"))
    if not files:
        from migration_pair_ray.stages.applier import LINEAGE_SCHEMA
        return LINEAGE_SCHEMA.empty_table()
    return pa.concat_tables([pq.read_table(str(f)) for f in files])


def lineage_summary(cfg: JobConfig) -> dict:
    """Job-level rollup: per-pass and total events applied, tombstones,
    bytes written, applier seconds, lsn coverage, and how many committed
    passes ran on each executor (checkpoint ``stats.executor``)."""
    t = read_lineage(cfg)
    if t.num_rows == 0:
        return {"passes": 0, "partitions": 0, "rows_in": 0}
    applied = t.filter(pc.equal(t.column("skipped"), False))
    # current-state figures come from the MANIFESTS (each partition's
    # committed latest), never by summing lineage across passes — that
    # would double-count state rows
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore
    store = ManifestStore(cfg.manifest_dir)
    # split-aware: child partitions live outside range(num_partitions)
    pids = LakeMeta(cfg.lake_dir).active_partition_ids(cfg.num_partitions)
    manifests = [m for m in (store.read(pid) for pid in pids) if m]
    rows_state_now = sum(m.get("row_count", 0) for m in manifests)
    tombstones_now = sum(m.get("tombstones", 0) for m in manifests)
    return {
        "passes": len(set(t.column("pass_id").to_pylist())),
        "partitions": len(manifests),
        "rows_in": int(pc.sum(t.column("rows_in")).as_py() or 0),
        "rows_state_last": rows_state_now,
        "tombstones": tombstones_now,
        "bytes_written": int(pc.sum(applied.column("bytes")).as_py() or 0),
        "applier_seconds": float(pc.sum(t.column("seconds")).as_py() or 0.0),
        "lsn_lo": int(pc.min(applied.column("lsn_lo")).as_py() or 0),
        "lsn_hi": int(pc.max(applied.column("lsn_hi")).as_py() or 0),
        "skipped_partitions": int(pc.sum(pc.cast(t.column("skipped"), pa.int64())).as_py() or 0),
        "executors": _executor_counts(cfg),
    }


def _executor_counts(cfg: JobConfig) -> dict[str, int]:
    """Committed passes per recorded executor (``driver`` / ``ray_data``)."""
    import json
    out: dict[str, int] = {}
    for p in sorted(Path(cfg.checkpoint_dir).glob("pass-*.json")):
        ex = (json.loads(p.read_text()).get("stats") or {}).get("executor")
        if ex is not None:
            out[ex] = out.get(ex, 0) + 1
    return out
