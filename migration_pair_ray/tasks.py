"""Task registry + dispatch — the reference's enum-switch entry point
(``Models/TaskToExecute.cs:3-9``, dispatch ``Program.cs:53-59``, DI
registration ``Program.cs:38-48``) as a plain dict of callables.

Reference mode → engine task:
  Extraction → "snapshot"   (lake → sorted parquet/csv export)
  Insertion  → "bulk_load"  (csv/parquet file → upsert sink)
  EndToEnd   → "replay"     (change log → compliance gate → upsert sink)

Users extend by registering a callable (the §2.10 extension surface);
``python -m migration_pair_ray <task> --config job.json`` is the
``ray job submit`` entry point.
"""

from __future__ import annotations

from collections.abc import Callable

from migration_pair_ray.config import JobConfig


def task_replay(cfg: JobConfig, **kw) -> dict:
    from migration_pair_ray.pipelines.replay import replay
    return replay(cfg)


def task_snapshot(cfg: JobConfig, out_dir: str = "", fmt: str = "parquet",
                  unix_ms_ts: bool = False, incremental: bool = False,
                  **kw) -> dict:
    if incremental:
        # distinct default dir: mixing a full export's uuid-named files
        # with incremental part-* files would double-count on read
        out = out_dir or f"{cfg.lake_dir}/_snapshot_incr"
        if fmt not in ("", "parquet") or unix_ms_ts:
            raise ValueError("snapshot --incremental exports Parquet with "
                             "native timestamps; --fmt/--unix-ms do not "
                             "apply")
        from migration_pair_ray.pipelines.snapshot import snapshot_incremental
        return dict(snapshot_incremental(cfg, out), out_dir=out)
    out = out_dir or f"{cfg.lake_dir}/_snapshot"
    from migration_pair_ray.pipelines.snapshot import snapshot
    rows = snapshot(cfg, out, fmt=fmt or "parquet", unix_ms_ts=unix_ms_ts)
    return {"rows": rows, "out_dir": out}


def task_bulk_load(cfg: JobConfig, input_path: str = "", fmt: str = "csv",
                   **kw) -> dict:
    from migration_pair_ray.pipelines.bulk_load import bulk_load
    return bulk_load(cfg, input_path, fmt=fmt)


def task_compliance(cfg: JobConfig, **kw) -> dict:
    """Standalone schema gate: change-log unified schema vs lake schema."""
    import dataclasses
    from migration_pair_ray.pipelines.compliance import check_compliance
    from migration_pair_ray.sources.changelog import discover, unified_schema
    from migration_pair_ray.schemas import CHANGE_SCHEMA
    files = discover(cfg.changelog_dir)
    src = unified_schema(files) if files else CHANGE_SCHEMA
    report = check_compliance(src, CHANGE_SCHEMA, mode=cfg.compliance)
    return dataclasses.asdict(report)


def task_lineage(cfg: JobConfig, **kw) -> dict:
    from migration_pair_ray.state.lineage import lineage_summary
    return lineage_summary(cfg)


def task_stats(cfg: JobConfig, **kw) -> dict:
    """Read-only lake layout statistics (pipelines/fsck.lake_stats):
    file/row/byte counts, chunked/MoR depth, small-file signal."""
    from migration_pair_ray.pipelines.fsck import lake_stats
    return lake_stats(cfg)


def task_hotspots(cfg: JobConfig, top_k: int = 5, **kw) -> dict:
    """Top-k conversations by visible key count (pipelines/fsck.
    lake_hotspots) — the probe behind choosing a partition_mode='hot'
    whale set or a split target.  Distributed, conv_id-pruned read."""
    from migration_pair_ray.pipelines.fsck import lake_hotspots
    rows = lake_hotspots(cfg, k=top_k).take_all()
    return {"top_k": int(top_k),
            "hotspots": [{"conv_id": r["conv_id"],
                          "n_rows": int(r["n_rows"])} for r in rows]}


def task_history(cfg: JobConfig, **kw) -> dict:
    """Committed-pass history in seq order — the ops ledger: one row per
    pass with its kind (replay / bulk / rollback / repair / refill), file
    count and recorded stats, including the executor the pass ran on
    (``driver`` / ``ray_data``) and the footer bytes its plan chose on.
    Read-only, checkpoint-dir only (no data reads)."""
    import json as _json
    from pathlib import Path
    from migration_pair_ray.state.manifest import CheckpointStore
    ck = CheckpointStore(cfg.checkpoint_dir)
    rows = []
    for p in sorted(Path(ck.dir).glob("pass-*.json")):
        with open(p) as f:
            rec = _json.load(f)
        stats = rec.get("stats") or {}
        files = rec.get("files", [])
        kind = ("rollback" if stats.get("rollback_to") is not None
                else "repair" if stats.get("repair_of") is not None
                else "refill" if stats.get("refill_of") is not None
                else "bulk" if any(n.startswith("bulk:") for n in files)
                else "replay")
        rows.append({"seq": rec.get("seq", -1), "pass_id": rec["pass_id"],
                     "kind": kind, "files": len(files),
                     "events_in": stats.get("events_in"),
                     "partitions": stats.get("partitions"),
                     "executor": stats.get("executor"),
                     "planned_bytes": stats.get("planned_bytes")})
    rows.sort(key=lambda r: r["seq"])
    return {"passes": rows, "count": len(rows)}


def task_refill(cfg: JobConfig, base_pid: int = -1, **kw) -> dict:
    """Rebuild partition state from the retained change log — disaster
    recovery for lost/corrupted state files when no replica exists.
    With --base-pid: rebuild that one partition (refill_partition);
    without: deep-fsck and refill every damaged partition
    (refill_damaged)."""
    from migration_pair_ray.pipelines.repair import (refill_damaged,
                                                     refill_partition)
    if base_pid < 0:
        return refill_damaged(cfg)
    return refill_partition(cfg, base_pid)


def task_fsck(cfg: JobConfig, deep: bool = False, **kw) -> dict:
    """Read-only lake audit: manifests vs on-disk files (pipelines/fsck).
    ``deep`` re-reads state files (hash, tombstones, key uniqueness,
    routing)."""
    from migration_pair_ray.pipelines.fsck import validate_lake
    return validate_lake(cfg, deep=deep)


def tail_lag(cfg: JobConfig) -> dict:
    """Bounded-lag metric for the tailer: change files discovered in the
    log but not yet committed by any pass, and their event count (one
    footer read per pending file — no data reads).  Zero lag = the lake
    is caught up with its log; a monitoring loop alerts when
    ``pending_events`` stays above a bound across polls.

    Uses ``discover(changelog_dir, checkpoint_dir)`` — the SAME
    committed-file subtraction replay itself resumes from (including the
    append-only size check and the name-prefix rules that keep bulk /
    multi-source pass entries from masking changelog files) — so the lag
    is exactly the work the next replay would do."""
    import pyarrow.parquet as _pq
    from migration_pair_ray.sources.changelog import discover
    pending = discover(cfg.changelog_dir, cfg.checkpoint_dir)
    return {"pending_files": len(pending),
            "pending_events": sum(_pq.ParquetFile(f).metadata.num_rows
                                  for f in pending)}


def task_tail(cfg: JobConfig, poll_s: float = 5.0, max_polls: int = 0,
              **kw) -> dict:
    """Continuous change-log tailer: poll ``discover`` → ``replay`` until
    stopped — the long-running analog of the reference's one-shot
    EndToEnd run (a binlog/WAL tail consumes batches forever; each poll
    is one bounded LSN-range pass, SURVEY.md §2.9).  ``max_polls=0``
    polls forever; tests set a small positive bound.  Idle polls are
    no-ops (replay returns up_to_date).

    Each poll measures ``tail_lag`` BEFORE applying, so the summary
    reports the max backlog the tailer ever saw and the lag left at
    exit; crash-kill mid-pass is safe by the same idempotent-commit
    argument as replay itself (the restart re-applies only uncommitted
    files — tests/test_durability_config kills the CLI with SIGKILL
    mid-pass and resumes)."""
    import time as _time
    from migration_pair_ray.pipelines.replay import replay
    polls = applied = events = 0
    max_lag_files = max_lag_events = 0
    while True:
        lag = tail_lag(cfg)
        max_lag_files = max(max_lag_files, lag["pending_files"])
        max_lag_events = max(max_lag_events, lag["pending_events"])
        s = replay(cfg)
        polls += 1
        if not s["up_to_date"]:
            applied += 1
            events += s["events_in"]
        if max_polls and polls >= max_polls:
            break
        _time.sleep(poll_s)
    return {"polls": polls, "passes_applied": applied, "events_in": events,
            "max_lag_files": max_lag_files,
            "max_lag_events": max_lag_events, "final_lag": tail_lag(cfg)}


def task_repartition(cfg: JobConfig, new_lake_dir: str = "",
                     new_partitions: int = 0, new_mode: str = "", **kw) -> dict:
    """Bulk re-layout (COMPACTION.md): rebuild the lake under a new
    partition count/mode in a fresh directory; see repartition_lake."""
    import dataclasses
    from migration_pair_ray.pipelines.replay import repartition_lake
    new_cfg = dataclasses.replace(
        cfg, lake_dir=new_lake_dir,
        num_partitions=new_partitions or cfg.num_partitions,
        partition_mode=new_mode or cfg.partition_mode)
    return repartition_lake(cfg, new_cfg)


def task_split(cfg: JobConfig, base_pid: int = -1, fanout: int = 2,
               max_rows: int = 0, **kw) -> dict:
    """Incremental partition split (COMPACTION.md): either split ONE base
    partition (``base_pid`` >= 0) or sweep every active partition above
    ``max_rows`` (the size guard as a maintenance action)."""
    from migration_pair_ray.pipelines.compact import (
        maybe_split_oversized, split_partition)
    if base_pid >= 0:
        return split_partition(cfg, base_pid, fanout=fanout)
    if max_rows <= 0:
        raise ValueError("task_split needs base_pid >= 0 or max_rows > 0")
    return {"splits": maybe_split_oversized(cfg, max_rows, fanout=fanout)}


def task_merge(cfg: JobConfig, base_pid: int = -1, min_rows: int = 0,
               **kw) -> dict:
    """Merge a split base's children back (inverse of ``split``): one
    base (``base_pid`` >= 0) or sweep every split base whose children's
    total rows fell below ``min_rows``."""
    from migration_pair_ray.pipelines.compact import (
        maybe_merge_undersized, merge_partition)
    if base_pid >= 0:
        return merge_partition(cfg, base_pid)
    if min_rows <= 0:
        raise ValueError("task_merge needs base_pid >= 0 or min_rows > 0")
    return {"merges": maybe_merge_undersized(cfg, min_rows)}


def task_replay_multi(cfg: JobConfig, sources: str = "", names: str = "",
                      **kw) -> dict:
    """Multi-source ingest: replay every uncommitted file of K independent
    change logs (``--sources dir0,dir1,...``) into ONE lake under the
    namespaced global lsn order (pipelines/multi).  ``--names`` fixes the
    source identity order (defaults to src0..srcK-1); the committed
    registry refuses a changed sequence on re-runs."""
    from migration_pair_ray.pipelines.multi import replay_multi
    dirs = [d for d in sources.split(",") if d]
    if not dirs:
        raise ValueError("task_replay_multi needs --sources dir0,dir1,...")
    ns = [n for n in names.split(",") if n] or None
    return replay_multi(cfg, dirs, source_names=ns)


def task_ingest_jsonl(cfg: JobConfig, input_path: str = "", **kw) -> dict:
    """Debezium-style JSONL change-log ingestion: convert ``*.jsonl``
    envelope files into canonical change batches and replay."""
    from migration_pair_ray.sources.jsonl_log import ingest_jsonl_log
    if not input_path:
        raise ValueError("task_ingest_jsonl needs input_path (--input)")
    return ingest_jsonl_log(cfg, input_path)


def task_schema_history(cfg: JobConfig, **kw) -> dict:
    """Schema-evolution audit log: per-pass unified schema + diff."""
    from migration_pair_ray.pipelines.compliance import schema_history
    return {"history": schema_history(cfg)}


def task_delete(cfg: JobConfig, where: str = "", tag: str = "",
                max_rows: int = 1_000_000, **kw) -> dict:
    """Targeted delete through the CDC path: tombstone every visible key
    whose winner matches ``where`` ('col=value' equality; programmatic
    callers pass ``predicate=`` for arbitrary masks)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from migration_pair_ray.pipelines.deletes import delete_where
    predicate = kw.pop("predicate", None)
    if predicate is None:
        col, _, val = where.partition("=")
        if not col or not _:
            raise ValueError("task_delete needs where='col=value' or predicate=")
        def predicate(t: pa.Table, col=col, val=val) -> pa.Array:
            return pc.fill_null(
                pc.equal(pc.cast(t.column(col), pa.string()), val), False)
    return delete_where(cfg, predicate, tag or where, max_rows=max_rows)


def task_feed(cfg: JobConfig, consumer: str = "", ack: int = -1,
              **kw) -> dict:
    """Changefeed consumer ops: report a consumer's pending passes and
    frontier; with --ack SEQ, durably advance its cursor first."""
    from migration_pair_ray.pipelines.feed import (ack_feed, consumer_cursor,
                                                   pending_passes)
    if not consumer:
        raise ValueError("task_feed needs consumer (--consumer)")
    out: dict = {}
    if ack >= 0:
        out["ack"] = ack_feed(cfg, consumer, ack)
    pending = pending_passes(cfg, consumer)
    out.update(consumer=consumer, cursor=consumer_cursor(cfg, consumer),
               pending_passes=len(pending),
               frontier=(pending[-1]["seq"] if pending
                         else consumer_cursor(cfg, consumer)))
    return out


def task_replicate(cfg: JobConfig, input_path: str = "",
                   src_consumer: str = "", **kw) -> dict:
    """Follower-lake replication: ``cfg`` is the DESTINATION (its own
    layout), ``--input`` points at the SOURCE lake's JobConfig JSON.
    ``--consumer`` registers the replica on the source so retention
    (``truncate_log``) protects its unconsumed passes."""
    from migration_pair_ray.pipelines.feed import replicate
    if not input_path:
        raise ValueError("task_replicate needs the source JobConfig JSON "
                         "(--input src.json)")
    return replicate(JobConfig.from_json(input_path), cfg,
                     src_consumer=src_consumer)


def task_verify_replica(cfg: JobConfig, input_path: str = "", **kw) -> dict:
    """Replication audit: ``cfg`` is the FOLLOWER, ``--input`` the source
    lake's JobConfig JSON.  Reports the mismatched key-space buckets
    (ok=True = content-identical visible state, any layout/kernel)."""
    from migration_pair_ray.pipelines.feed import verify_replica
    if not input_path:
        raise ValueError("task_verify_replica needs the source JobConfig "
                         "JSON (--input src.json)")
    m = verify_replica(JobConfig.from_json(input_path), cfg,
                       incremental=bool(kw.get("incremental")))
    return {"ok": m.num_rows == 0, "mismatched_buckets": m.num_rows,
            "detail": m.to_pylist()[:32]}


def task_repair(cfg: JobConfig, input_path: str = "", **kw) -> dict:
    """Targeted replica repair: ``cfg`` is the FOLLOWER, ``--input`` the
    source lake's JobConfig JSON.  Audits (verify_replica), transplants
    ONLY the diverged keys' source state, re-audits — O(diverged), never
    a re-bootstrap (pipelines/repair.repair_replica)."""
    from migration_pair_ray.pipelines.repair import repair_replica
    if not input_path:
        raise ValueError("task_repair needs the source JobConfig JSON "
                         "(--input src.json)")
    return repair_replica(JobConfig.from_json(input_path), cfg)


def task_bootstrap(cfg: JobConfig, input_path: str = "",
                   src_consumer: str = "", **kw) -> dict:
    """Seed a NEW follower lake from the source's current state
    (tombstones preserved): ``cfg`` is the FOLLOWER, ``--input`` the
    source JobConfig JSON.  Tail afterwards with ``replicate``;
    ``--consumer`` registers the replica on the source immediately so
    the bootstrap-to-first-tail window is retention-protected."""
    from migration_pair_ray.pipelines.feed import bootstrap_replica
    if not input_path:
        raise ValueError("task_bootstrap needs the source JobConfig JSON "
                         "(--input src.json)")
    return bootstrap_replica(JobConfig.from_json(input_path), cfg,
                             src_consumer=src_consumer)


def task_truncate_log(cfg: JobConfig, through_seq: int = -1,
                      dry_run: bool = False, **kw) -> dict:
    """Change-log retention: delete change files of passes every consumer
    has acked (capped by --through-seq when given)."""
    from migration_pair_ray.pipelines.feed import truncate_log
    return truncate_log(cfg, through_seq if through_seq >= 0 else None,
                        dry_run=dry_run)


def task_expire(cfg: JobConfig, cutoff_us: int = 0,
                max_rows: int = 10_000_000, **kw) -> dict:
    """Event-time retention: tombstone every visible key whose winning ts
    is before ``cutoff_us`` (unix microseconds)."""
    from migration_pair_ray.pipelines.deletes import expire_before
    if cutoff_us <= 0:
        raise ValueError("task_expire needs --cutoff-us (unix microseconds)")
    return expire_before(cfg, cutoff_us, max_rows=max_rows)


def task_compact(cfg: JobConfig, base_pid: int = -1, **kw) -> dict:
    """Fold merge-on-read delta files back into plain bases (one
    partition with --base-pid, else every partition carrying deltas)."""
    from migration_pair_ray.pipelines.compact import compact_deltas
    return compact_deltas(cfg, base_pid if base_pid >= 0 else None)


def task_index(cfg: JobConfig, column: str = "", **kw) -> dict:
    """Build/refresh the secondary value index for ``column``
    (pipelines/index): incremental — only partitions whose state files
    moved since the last build are re-swept."""
    from migration_pair_ray.pipelines.index import build_value_index
    if not column:
        raise ValueError("task_index needs column (--column)")
    return build_value_index(cfg, column)


def task_export_feed(cfg: JobConfig, consumer: str = "", out_dir: str = "",
                     ack: int = -1, **kw) -> dict:
    """Export the consumer's unacked passes as Debezium-style JSONL into
    ``--out`` (one lsn-sorted file per pass; ``--ack 1`` advances the
    cursor after every file landed)."""
    from migration_pair_ray.pipelines.feed import export_jsonl
    if not consumer or not out_dir:
        raise ValueError("task_export_feed needs --consumer and --out")
    return export_jsonl(cfg, consumer, out_dir, ack=ack > 0)


def task_clone(cfg: JobConfig, out_dir: str = "", **kw) -> dict:
    """Zero-copy branch of ``cfg``'s lake into ``--out`` (hardlinked data
    files, carried control plane — pipelines/clone)."""
    from migration_pair_ray.pipelines.clone import clone_lake
    if not out_dir:
        raise ValueError("task_clone needs the destination (--out)")
    return clone_lake(cfg.lake_dir, out_dir)


def task_vacuum(cfg: JobConfig, retain: int = 0, **kw) -> dict:
    """Trim the time-travel window to ``retain`` superseded passes per
    partition and delete the state files nothing references anymore."""
    from migration_pair_ray.pipelines.compact import vacuum
    return vacuum(cfg, retain_passes=retain)


def task_rollback(cfg: JobConfig, to_pass: str = "", **kw) -> dict:
    """Make a retained pass the lake's CURRENT state again — the write
    half of time travel: pure-metadata CoW manifest flips, O(partitions)
    regardless of data size (pipelines/compact.rollback_to)."""
    from migration_pair_ray.pipelines.compact import rollback_to
    if not to_pass:
        raise ValueError("task_rollback needs to_pass (--to-pass <pass_id>)")
    return rollback_to(cfg, to_pass)


def task_maintain(cfg: JobConfig, max_rows: int = 0, min_rows: int = 0,
                  fanout: int = 2, retain: int = -1, **kw) -> dict:
    """One maintenance sweep under one writer lease: fold MoR deltas,
    split partitions above ``--max-rows``, merge split bases below
    ``--min-rows``, vacuum to ``--retain`` retained passes (a negative
    retain skips the vacuum).  The nightly-cron composition of the
    individual ``compact`` / ``split`` / ``merge`` / ``vacuum`` tasks
    (pipelines/compact.auto_maintain)."""
    from migration_pair_ray.pipelines.compact import auto_maintain
    return auto_maintain(cfg, split_max_rows=max_rows,
                         merge_min_rows=min_rows, fanout=fanout,
                         vacuum_retain=None if retain < 0 else retain)


def task_requeue(cfg: JobConfig, reasons: str = "", epoch: int = 90000,
                 **kw) -> dict:
    """Requeue quarantined rows into the change log (identity fix from
    the CLI: only rows that now pass the gate — e.g. after a rule change
    — are re-ingested; programmatic callers pass ``fix=``).  ``reasons``
    is a comma-separated filter ('' = all)."""
    from migration_pair_ray.stages.quarantine import requeue
    if not cfg.quarantine_dir:
        raise ValueError("task_requeue needs cfg.quarantine_dir")
    rs = [r for r in reasons.split(",") if r] or None
    # the LAKE's stamped kernel, not the config's: a stale pre-kernel
    # config (merge_kernel defaulting 'row') must not re-gate fixed 'P'
    # rows under the wrong op set and leave the dead-letter loop
    # silently undrainable
    from migration_pair_ray.state.manifest import LakeMeta
    meta = LakeMeta(cfg.lake_dir).read()
    kernel = (meta.get("merge_kernel", "row") if meta is not None
              else cfg.merge_kernel)
    return requeue(cfg.quarantine_dir, cfg.changelog_dir,
                   fix=kw.pop("fix", None), reasons=rs, epoch=epoch,
                   kernel=kernel)


def task_view(cfg: JobConfig, input_path: str = "", where: str = "",
              consumer: str = "", **kw) -> dict:
    """Maintain a materialized view lake: ``cfg`` is the VIEW, ``--input``
    the source lake's JobConfig JSON, ``--where col=value`` the visibility
    predicate (rows leaving it are tombstoned in the view — the
    delta-rewrite rule; programmatic callers pass ``transform=`` for
    arbitrary reshapes).  Exactly-once via a registered source-feed
    consumer (pipelines/view.maintain_view)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from migration_pair_ray.pipelines.view import (maintain_view,
                                                   make_filter_project)
    if not input_path:
        raise ValueError("task_view needs the source JobConfig JSON "
                         "(--input src.json)")
    transform = kw.pop("transform", None)
    if transform is None:
        col, _, val = where.partition("=")
        if not col or not _:
            raise ValueError("task_view needs where='col=value' or "
                             "transform=")

        def pred(t: pa.Table, col=col, val=val) -> pa.Array:
            return pc.fill_null(
                pc.equal(pc.cast(t.column(col), pa.string()), val), False)
        transform = make_filter_project(where=pred)
    return maintain_view(JobConfig.from_json(input_path), cfg, transform,
                         consumer=consumer or None,
                         missing_ok=bool(kw.pop("missing_ok", False)))


def task_merge_branch(cfg: JobConfig, input_path: str = "",
                      dry_run: bool = False, **kw) -> dict:
    """Fold a diverged clone back: ``cfg`` is the DESTINATION branch,
    ``--input`` the source branch's JobConfig JSON.  Links the change
    files src consumed that dst hasn't and replays them — direction-free
    convergence by the LWW semilattice (pipelines/branch.merge_branch)."""
    from migration_pair_ray.pipelines.branch import merge_branch
    if not input_path:
        raise ValueError("task_merge_branch needs the source branch's "
                         "JobConfig JSON (--input src.json)")
    return merge_branch(cfg, JobConfig.from_json(input_path),
                        dry_run=dry_run)


TASKS: dict[str, Callable[..., dict]] = {
    "replay": task_replay,
    "snapshot": task_snapshot,
    "bulk_load": task_bulk_load,
    "compliance": task_compliance,
    "lineage": task_lineage,
    "repartition": task_repartition,
    "split": task_split,
    "merge": task_merge,
    "vacuum": task_vacuum,
    "rollback": task_rollback,
    "maintain": task_maintain,
    "clone": task_clone,
    "merge_branch": task_merge_branch,
    "view": task_view,
    "export_feed": task_export_feed,
    "index": task_index,
    "compact": task_compact,
    "feed": task_feed,
    "replicate": task_replicate,
    "verify_replica": task_verify_replica,
    "repair": task_repair,
    "bootstrap": task_bootstrap,
    "delete": task_delete,
    "expire": task_expire,
    "truncate_log": task_truncate_log,
    "ingest_jsonl": task_ingest_jsonl,
    "replay_multi": task_replay_multi,
    "schema_history": task_schema_history,
    "requeue": task_requeue,
    "tail": task_tail,
    "fsck": task_fsck,
    "stats": task_stats,
    "hotspots": task_hotspots,
    "refill": task_refill,
    "history": task_history,
}


def register_task(name: str, fn: Callable[..., dict]) -> None:
    TASKS[name] = fn


def run_task(name: str, cfg: JobConfig, **kw) -> dict:
    if name not in TASKS:
        raise KeyError(f"unknown task {name!r}; known: {sorted(TASKS)}")
    return TASKS[name](cfg, **kw)
