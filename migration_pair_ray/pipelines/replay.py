"""CDC replay — the flagship pipeline (EP1/EndToEnd analog, SURVEY.md §3).

    discover uncommitted change files            (manifest/checkpoint diff)
      → plan: footer bytes of the change files + the lake's pinned state
              (read_in_driver: at most one Ray Data block?)
      ├─ driver executor (fits one block)
      │    pyarrow read + normalize per file (map_in_driver: one thread per
      │    CPU of the driver) → batch fns (gates, in file order)
      │    → combine_changes ONCE over the pass  (LWW reduce, hash-partition
      │                                           column, raw lsn range)
      │    → merge_partition for each partition in turn
      └─ Ray Data executor (larger)
           ray.data.read_parquet                 (streaming blocks)
           → normalize → batch fns               (fused map stages)
           → combine_changes per block           (combiner: ≤1 row per key
                                                  per block crosses the wire;
                                                  conv / salted-key routing)
           → groupby(part).map_groups(merge_partition)
                                                 (the ONE shuffle; plain Ray
                                                  tasks merge each partition
                                                  + commit its manifest;
                                                  nothing outlives the pass)
      → lineage records → pass checkpoint (stats: executor, planned_bytes)

Both executors call the same ``merge_partition`` per partition, so every
effect stays behind the per-partition manifest commit on either.

The reference's EndToEnd (``Tasks/EndToEnd.cs:20-49``) is the degenerate
single-stream version of this; the explicit partial reduce + hash partition
is what makes it hold at 10^10 events (only unique keys per batch shuffle,
and a hot conversation can be salted across partitions with mode="key").
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.lww import (finalize_visible, reduce_events,
                                              visible_state)
from migration_pair_ray.functions.normalize import make_normalizer
from migration_pair_ray.sources.changelog import discover, read_changes, unified_schema
from migration_pair_ray.sources.readers import (driver_dataset, map_in_driver,
                                                parse_footer, read_footer,
                                                read_parquet_file)
from migration_pair_ray.stages.applier import (LINEAGE_SCHEMA, RAW_LSN_COLS,
                                               merge_partition,
                                               read_state_table,
                                               state_file_paths)
from migration_pair_ray.stages.partition import (PART_COL,
                                                 add_partition_column,
                                                 partition_ids)
from migration_pair_ray.state.manifest import CheckpointStore, compute_pass_id


def apply_changes_ds(sources: list[tuple[list[str], list]], schema: pa.Schema,
                     cfg: JobConfig, pass_id: str,
                     splits: dict[int, tuple[int, int]] | None = None,
                     pass_seq: int = -1,
                     hot_convs: tuple[str, ...] = (),
                     lineage_break: bool = False,
                     merge_fn=merge_partition) -> tuple[pa.Table, dict]:
    """Plan and run one pass over change files; returns the lineage table
    (one row per partition) and the plan, ``{"executor", "planned_bytes"}``,
    which the caller records in the pass checkpoint's ``stats``.

    ``sources`` is the pass input: a list of ``(files, fns)``, each a
    group of change files and the batch functions (``pa.Table ->
    pa.Table``) its rows run, in order, after being normalized to
    ``schema`` — the txn and quarantine gates, a source's lsn shift, a
    refill's partition filter.  The planner sums the uncompressed bytes
    the change files' footers and the lake's pinned state files declare
    and asks ``read_in_driver``, the lake read's predicate:

    * driver executor: the files are read and normalized on the driver's
      CPUs (``map_in_driver``, one open per file: the planner's footer
      parse is reused; change files are parsed on every pass, never
      kept), then each runs its ``fns`` in file order (per file, as
      the distributed read runs them per block, so content-addressed gate
      outputs collapse the same duplicates); the pass is reduced ONCE,
      routed, and ``merge_fn`` runs for each partition in turn in this
      process.  No Ray Data plan, exchange or task is started.
    * Ray Data executor: ``apply_dataset`` on the streaming read.

    ``splits`` is the lake's incremental-split map (LakeMeta.splits):
    events for a split base partition route to its children, so a replay
    after a split merges into child state without touching other
    partitions.  ``lineage_break`` is stamped into every commit record
    (refill: the partition's retained history is gone).  ``merge_fn`` is
    the per-partition merge (``merge_partition``'s signature); tests swap
    in a fault-injecting one (testing.py)."""
    inputs = [(f, fns) for files, fns in sources for f in files]
    footers = map_in_driver(parse_footer, [f for f, _ in inputs])
    nbytes = sum(n for _, n, _ in footers) + _pinned_state_bytes(cfg)
    if not read_in_driver(nbytes):
        with _push_shuffle():
            ds = None
            for files, fns in sources:
                part = read_changes(files, schema)
                for fn in fns:
                    part = part.map_batches(fn, batch_format="pyarrow")
                ds = part if ds is None else ds.union(part)
            lineage = apply_dataset(ds, cfg, pass_id, splits, pass_seq,
                                    hot_convs, lineage_break, merge_fn)
        return lineage, {"executor": "ray_data", "planned_bytes": nbytes}
    norm = make_normalizer(schema)
    tables = map_in_driver(
        lambda i: norm(read_parquet_file(inputs[i][0],
                                         metadata=footers[i][2])),
        range(len(inputs)))
    parts = []
    for t, (_, fns) in zip(tables, inputs):
        for fn in fns:
            t = fn(t)
        parts.append(t)
    changes = combine_changes(
        pa.concat_tables(parts, promote_options="permissive"), cfg, splits,
        hot_convs)
    pids = changes.column(PART_COL).to_numpy()
    order = np.argsort(pids, kind="stable")
    changes = changes.take(order)
    cuts = [0, *(np.flatnonzero(np.diff(pids[order])) + 1), len(pids)]
    out = [merge_fn(changes.slice(lo, hi - lo), cfg=cfg, pass_id=pass_id,
                    pass_seq=pass_seq, lineage_break=lineage_break)
           for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    lineage = (pa.concat_tables(out).cast(LINEAGE_SCHEMA) if out
               else LINEAGE_SCHEMA.empty_table())
    return lineage, {"executor": "driver", "planned_bytes": nbytes}


def combine_changes(batch: pa.Table, cfg: JobConfig,
                    splits: dict[int, tuple[int, int]] | None,
                    hot_convs: tuple[str, ...]) -> pa.Table:
    """The pass's combiner, one function for both executors (the driver
    runs it once over the whole pass, Ray Data once per block): reduce
    ``batch`` with the lake's kernel, add the survivors' partition column,
    and stamp each survivor with its partition's raw lsn range in
    ``batch`` (``RAW_LSN_COLS``), so the merge records the offsets the
    pass applied whatever the reduce dropped."""
    if batch.num_rows == 0:
        empty = pa.array([], pa.int64())
        return add_partition_column(batch, cfg.num_partitions).append_column(
            RAW_LSN_COLS[0], empty).append_column(RAW_LSN_COLS[1], empty)
    raw = pa.table({PART_COL: partition_ids(batch, cfg.num_partitions,
                                            cfg.partition_mode, splits,
                                            hot_convs),
                    "lsn": batch.column("lsn")})
    rng = raw.group_by(PART_COL).aggregate([("lsn", "min"), ("lsn", "max")])
    out = add_partition_column(reduce_events(batch, cfg.merge_kernel),
                               cfg.num_partitions, cfg.partition_mode,
                               splits, hot_convs)
    at = pc.index_in(out.column(PART_COL), rng.column(PART_COL))
    return (out.append_column(RAW_LSN_COLS[0],
                              rng.column("lsn_min").take(at))
            .append_column(RAW_LSN_COLS[1], rng.column("lsn_max").take(at)))


def _pinned_state_bytes(cfg: JobConfig) -> int:
    """Uncompressed bytes the footers of the lake's pinned state files
    declare (every active partition's current record): the state a pass
    may merge into.  A plain loop: ``read_footer`` keeps each parse, so a
    tailer parses a state file's footer once, after the pass that wrote
    it."""
    from migration_pair_ray.state.manifest import (LakeMeta, ManifestStore,
                                                   record_files)
    store = ManifestStore(cfg.manifest_dir)
    paths = [str(Path(cfg.lake_dir) / f)
             for pid in LakeMeta(cfg.lake_dir).active_partition_ids(
                 cfg.num_partitions)
             for f in record_files(store.read(pid))]
    return sum(read_footer(p)[1] for p in paths)


def apply_dataset(ds: "ray.data.Dataset", cfg: JobConfig, pass_id: str,
                  splits: dict[int, tuple[int, int]] | None = None,
                  pass_seq: int = -1,
                  hot_convs: tuple[str, ...] = (),
                  lineage_break: bool = False,
                  merge_fn=merge_partition) -> pa.Table:
    """The Ray Data executor: the partition→merge→commit tail on a
    normalized change Dataset; returns the lineage table.  Passes over
    change files reach it through ``apply_changes_ds``'s plan;
    ``bulk_load`` (a CSV/Parquet snapshot reader) and ``repartition_lake``
    (a lake read) hand over their Datasets directly, built inside
    ``_push_shuffle``.

    The merge stage is plain Ray tasks, at most ``cfg.apply_concurrency``
    at once, so a pass holds no CPU after it returns.  It carries EXPLICIT
    retry semantics (the analog of the reference's write-timeout retry
    policy, ``Policies/RetryPolicy.cs:18-23``): a merge task whose worker
    dies is retried, which is safe because every effect is gated on the
    idempotent manifest commit — the retry rewrites identical bytes.
    """
    # whole-block batches (batch_size=None): zero-copy through the fused
    # map stages; an explicit batch_size would re-slice and copy each block.
    # The combiner is kernel-dispatched: both kernels are join-semilattices,
    # so the per-batch partial reduce before the shuffle stays safe.
    ds = ds.map_batches(lambda b: combine_changes(b, cfg, splits, hot_convs),
                        batch_format="pyarrow")
    lineage = ds.groupby(PART_COL).map_groups(
        functools.partial(merge_fn, cfg=cfg, pass_id=pass_id,
                          pass_seq=pass_seq, lineage_break=lineage_break),
        batch_format="pyarrow",
        concurrency=cfg.apply_concurrency,
        max_retries=cfg.apply_max_retries,
    )
    out = lineage.take_all()  # tiny: one record per partition
    return pa.Table.from_pylist(out, schema=LINEAGE_SCHEMA)


class _push_shuffle:
    """Context manager selecting the push-based sort shuffle for every
    Dataset CREATED inside the block (Ray snapshots the DataContext into a
    Dataset's plan at creation — setting the strategy after building the
    pipeline is a silent no-op).  Measured ~5x on the replay exchange
    (12.6s vs 61-88s, 20M events, 32 CPUs)."""

    def __enter__(self):
        from ray.data.context import DataContext, ShuffleStrategy
        self.ctx = DataContext.get_current()
        self.prev = self.ctx.shuffle_strategy
        self.ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    def __exit__(self, *exc):
        self.ctx.shuffle_strategy = self.prev
        return False


def _write_lineage(cfg: JobConfig, pass_id: str, lineage: pa.Table) -> None:
    d = Path(cfg.lineage_dir)
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(lineage, str(d / f"pass-{pass_id}.parquet"))


def replay(cfg: JobConfig) -> dict:
    """Replay all uncommitted change files into the lake. Idempotent:
    re-running after success is a no-op; re-running after a partial
    failure completes only the missing partitions."""
    t0 = time.perf_counter()
    files = discover(cfg.changelog_dir, cfg.checkpoint_dir)
    if not files:
        # even an up-to-date job must not silently accept a config whose
        # layout/kernel contradicts the lake it points at (read-only:
        # ensure() only writes when no meta exists yet)
        from migration_pair_ray.state.manifest import LakeMeta
        meta = LakeMeta(cfg.lake_dir)
        if meta.read() is not None:
            meta.ensure(cfg.num_partitions, cfg.partition_mode,
                        cfg.merge_kernel, cfg.hot_convs)
        return {"pass_id": None, "files": 0, "events_in": 0, "partitions": 0,
                "seconds": 0.0, "events_per_sec": 0.0, "up_to_date": True}

    # single-writer lease: a concurrent pass interleaving its partition
    # commits with ours would make the final state order-dependent
    import contextlib
    from migration_pair_ray.state.lock import WriterLease
    lease = (WriterLease(cfg.lake_dir, "replay", cfg.writer_lease_ttl_s)
             if cfg.writer_lease else contextlib.nullcontext())
    with lease:
        return _replay_locked(cfg, files, t0)


def _replay_locked(cfg: JobConfig, files: list[str], t0: float) -> dict:
    # layout gate: replaying into a lake built with a different partition
    # count/mode would route keys away from their existing state
    from migration_pair_ray.state.manifest import LakeMeta
    meta = LakeMeta(cfg.lake_dir)
    meta.ensure(cfg.num_partitions, cfg.partition_mode, cfg.merge_kernel,
                cfg.hot_convs)

    pass_id = compute_pass_id(files)
    # wire schema = this pass's NEW files only (the schema-evolution audit
    # trail must reflect the upstream wire, not pending carry-over)
    schema = unified_schema(files)
    txn_state, read_files, read_schema = None, files, schema
    if cfg.txn_boundary:
        # transactional gate: input = new files + the last committed
        # pass's pending store; events of uncommitted txns are held back
        from migration_pair_ray.pipelines import txn as txnmod
        txn_state = txnmod.prepare_pass(cfg, pass_id, files)
        if txn_state["pending_prev"]:
            read_files = files + txn_state["pending_prev"]
            read_schema = unified_schema(read_files)
    qdir = None
    if cfg.quarantine_dir:
        # this pass is uncommitted (discover() returned its files), so any
        # existing subdir is a crashed attempt — wipe it: its files may
        # have been produced under a different block split and would
        # double-count (stages/quarantine contract)
        import shutil
        qdir = Path(cfg.quarantine_dir) / f"pass-{pass_id}"
        shutil.rmtree(qdir, ignore_errors=True)
        qdir.mkdir(parents=True, exist_ok=True)
    # stamp every partition record with this pass's job-level sequence
    # number (deterministic across crash-retry: the checkpoint file only
    # lands after all partitions commit) — the ordering time travel needs
    pass_seq = CheckpointStore(cfg.checkpoint_dir).next_seq()
    gates = []
    if txn_state is not None:
        # before quarantine: commit markers carry null keys by design
        # and must never be classified as malformed rows
        from migration_pair_ray.pipelines import txn as txnmod
        gates.append(txnmod.make_txn_gate(txn_state["pending_dir"],
                                          txn_state["ids_ref"]))
    if qdir is not None:
        from migration_pair_ray.stages.quarantine import make_quarantine_gate
        gates.append(make_quarantine_gate(str(qdir), cfg.merge_kernel))
    lineage, plan = apply_changes_ds([(read_files, gates)], read_schema, cfg,
                                     pass_id, splits=meta.splits(),
                                     pass_seq=pass_seq,
                                     hot_convs=meta.hot_convs())

    # raw event count from footers (free); lineage rows_in is post-reduce
    events_in = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    _write_lineage(cfg, pass_id, lineage)
    if txn_state is not None:
        # registry delta lands BEFORE the checkpoint: a crash in between
        # re-runs the pass and rewrites the identical registry bytes
        from migration_pair_ray.pipelines import txn as txnmod
        txnmod.commit_markers(cfg, pass_id, txn_state["new_markers"])
    CheckpointStore(cfg.checkpoint_dir).commit_pass(
        pass_id, files, seq=pass_seq,
        stats={"events_in": events_in, "partitions": lineage.num_rows,
               # whether this pass ran the quarantine gate — refill keys
               # its own gating off the history, not the caller's config
               "gated": qdir is not None,
               # schema audit trail: what this pass's unified change
               # schema looked like (pipelines/compliance.schema_history
               # diffs consecutive passes into an evolution log)
               "schema": {f.name: str(f.type) for f in schema},
               **plan},
    )
    quarantined = 0
    if qdir is not None:
        from migration_pair_ray.stages.quarantine import quarantined_total
        quarantined = quarantined_total(str(qdir))
    txn_held = txn_markers = 0
    if txn_state is not None:
        from migration_pair_ray.pipelines import txn as txnmod
        txnmod.gc_superseded(cfg, pass_id)
        txn_held = txnmod.pending_total(cfg, pass_id)
        txn_markers = len(txn_state["new_markers"])
    splits_done = 0
    if cfg.auto_split_max_rows > 0:
        # post-pass size-guard: incrementally split any partition whose
        # committed state outgrew the bound (only oversized partitions are
        # touched; a crash mid-split is invisible and completed on re-run)
        from migration_pair_ray.pipelines.compact import maybe_split_oversized
        splits_done = len(maybe_split_oversized(cfg, cfg.auto_split_max_rows))
    dt = time.perf_counter() - t0
    return {
        "pass_id": pass_id,
        "splits": splits_done,
        "quarantined": quarantined,
        "txn_held": txn_held,
        "txn_markers": txn_markers,
        "files": len(files),
        "events_in": events_in,
        "partitions": lineage.num_rows,
        "rows_state": int(pc.sum(lineage.column("rows_state")).as_py() or 0),
        "tombstones": int(pc.sum(lineage.column("tombstones")).as_py() or 0),
        "skipped_partitions": int(pc.sum(pc.cast(lineage.column("skipped"), pa.int64())).as_py() or 0),
        "seconds": dt,
        "events_per_sec": events_in / dt if dt > 0 else 0.0,
        "up_to_date": False,
    }


def read_in_driver(nbytes: int) -> bool:
    """The planner's executor choice, from the uncompressed bytes the
    Parquet footers of a read or a pass declare.  Work within Ray Data's
    own block target (``DataContext.target_max_block_size``, 128 MiB by
    default) would be about one block anyway, so it runs in the driver
    and skips the fixed cost every Dataset pays (datasource plan, metadata
    tasks, streaming-executor start-up, and for a pass the groupby
    exchange and merge tasks); larger work runs on Ray Data.
    ``read_lake``, ``final_state``, ``lookup.fetch_conversations`` and
    every pass through ``apply_changes_ds`` choose here.  The driver
    executor of a scan or a pass keeps the parallelism of the read tasks
    it replaces: its per-file and per-partition work runs on
    ``map_in_driver``'s threads, one per CPU this process may run on.
    The planners of reads take state-file footers from ``read_footer``,
    which parses each published file once per process."""
    return nbytes <= ray.data.DataContext.get_current().target_max_block_size


def _project(t: pa.Table, columns: list[str] | None) -> pa.Table:
    if columns is None:
        return t
    return t.select([c for c in columns if c in t.schema.names])


def read_partition(lake_dir: str, manifest: dict, kernel: str,
                   schema: pa.Schema, columns: list[str] | None = None,
                   finalize=None) -> pa.Table:
    """One pinned partition's committed state as one table conformed to
    ``schema`` (the read's unified footer schema) — the per-partition
    kernel both lake-read executors share: the driver executor calls it
    for every partition, the distributed one in its merge-on-read and
    ``finalize`` tasks.

    A merge-on-read partition or a ``finalize`` needs full rows (keys,
    ts, lsn, op, every cell): base and deltas fold with the lake's
    ``kernel`` (``read_state_table``), then ``finalize`` runs on the
    complete partition and ``columns`` prunes its output.  Otherwise
    ``columns`` prunes at the Parquet read: each file reads the requested
    columns its footer's Arrow schema carries (a file carrying none of
    them reads the ``lsn`` rider for its row count) and the normalizer
    backfills typed nulls for the rest.  Footers come from
    ``read_footer``, so a file the process has read before is opened
    only to decode."""
    if manifest.get("delta_files") or finalize is not None:
        t = read_state_table(lake_dir, manifest, kernel=kernel)
        t = (make_normalizer(schema)(t) if t is not None and t.num_rows
             else schema.empty_table())
        return _project(finalize(t) if finalize is not None else t, columns)
    pruned = (schema if columns is None
              else pa.schema([schema.field(c) for c in columns]))
    norm = make_normalizer(pruned)
    out = []
    for p in state_file_paths(lake_dir, manifest):
        arrow, _, md = read_footer(p)
        cols = (None if columns is None else
                [c for c in columns if c in arrow.names] or ["lsn"])
        out.append(norm(read_parquet_file(p, cols, metadata=md)))
    if not out:
        return pruned.empty_table()
    return (out[0] if len(out) == 1
            else pa.concat_tables(out, promote_options="permissive"))


def read_lake(cfg: JobConfig, as_of: str | None = None,
              finalize=None,
              columns: list[str] | None = None) -> "ray.data.Dataset":
    """Dataset over the lake's committed internal state (tombstone rows
    included; only manifest-pinned files are read).

    One manifest-planned read, two executors.  The planner reads every
    pinned manifest and every footer (schema + uncompressed bytes;
    ``read_footer`` parses a published file once per process), and
    ``read_in_driver`` picks the executor from the planned bytes: a read
    within Ray Data's block target runs ``read_partition`` for every
    partition in the driver, on one thread per CPU the driver may run on
    (``map_in_driver``) and with each file opened once, to decode, and
    returns ONE block (``driver_dataset``); a larger one streams plain
    partitions through ``read_parquet`` and runs
    ``read_partition`` in one task per merge-on-read/``finalize``
    partition.  Both conform to the same unified schema with the same
    kernels, so they return the same rows.

    ``finalize`` (internal): a ``pa.Table -> pa.Table`` applied to each
    partition's COMPLETE state table (inside one per-partition read task
    on the distributed executor).  Cell-kernel lakes need this shape for
    any fold that must see every determiner row of a key
    (``cell_finalize``) — an arbitrary block slice of the lake is not
    finalizable under cell semantics.  Partition enumeration is resolved
    from the lake's own ``_lake_meta`` (not ``cfg.num_partitions``): a
    misconfigured read cannot silently truncate, and split children are
    seen.

    ``as_of`` = a committed pass_id: read the lake AS IT WAS after that
    pass (time travel).  Requires the lake to have been written with
    ``retain_passes`` large enough that every partition still retains a
    record at-or-before that pass; otherwise TimeTravelError.  A partition
    first touched after the target pass legitimately contributes nothing.
    Travel across a partition split is refused (the parent's pre-split
    state is gone by design — splits GC the parent).

    ``as_of="latest"`` = SNAPSHOT ISOLATION: resolve to the newest
    checkpointed pass, so a concurrent writer mid-pass (some partitions
    committed at the in-flight pass, others not) can never produce a torn
    read — partitions it already touched resolve through their retained
    previous record.  Requires ``retain_passes >= 1`` on the lake only
    when a writer is actually in flight; on a quiescent lake the current
    records ARE the latest pass."""
    return _read_lake(cfg, as_of, finalize, columns)


def _read_lake(cfg: JobConfig, as_of: str | None, finalize,
               columns: list[str] | None, rows=None,
               sort: list[str] | None = None) -> "ray.data.Dataset":
    """``read_lake`` plus two steps ``final_state`` passes into the read:
    ``rows``, a ``pa.Table -> pa.Table`` valid on any slice of the lake
    (row-kernel visibility + projection), and the ``sort`` keys.  The
    driver executor runs ``rows`` on each partition, in the same
    ``map_in_driver`` call that reads it, and sorts its one combined
    table; the distributed one stacks both on the Dataset."""
    from migration_pair_ray.state.manifest import (
        CheckpointStore, LakeMeta, ManifestStore, TimeTravelError,
        manifest_as_of, record_files)
    store = ManifestStore(cfg.manifest_dir)
    meta = LakeMeta(cfg.lake_dir)
    layout = meta.read() or {}     # one snapshot: enumeration and kernel
    pids = meta.active_partition_ids(cfg.num_partitions, layout)
    target_seq = pass_seqs = None
    if as_of is not None:
        pass_seqs = CheckpointStore(cfg.checkpoint_dir).pass_seqs()
        if as_of == "latest":
            if not pass_seqs:
                raise TimeTravelError(
                    "as_of='latest' needs at least one checkpointed pass")
            as_of = max(pass_seqs, key=pass_seqs.get)
        if as_of not in pass_seqs:
            raise TimeTravelError(
                f"pass {as_of!r} was never committed to this lake (known: "
                f"{sorted(pass_seqs)})")
        target_seq = pass_seqs[as_of]
        base_partitions = layout.get("num_partitions", cfg.num_partitions)
    manifests, paths, mor_manifests = [], [], []
    for pid in pids:
        m = store.read(pid)
        if as_of is not None:
            m = manifest_as_of(m, target_seq, pass_seqs, pid)
            if m is None and pid >= base_partitions:
                raise TimeTravelError(
                    f"partition {pid} is a split child with no record at or "
                    f"before pass {as_of!r}; its parent's pre-split state "
                    f"was GC'd — time travel cannot cross a split")
        if not m:
            continue
        manifests.append(m)
        if m.get("delta_files") or finalize is not None:
            # merge-on-read partition (files hold MULTIPLE versions per
            # key — cannot stream raw) or a caller-supplied per-partition
            # finalize: one read-merge task per partition folds base +
            # deltas with the lake's merge kernel
            mor_manifests.append(m)
        else:
            paths.extend(state_file_paths(cfg.lake_dir, m))

    if not paths and not mor_manifests:
        from migration_pair_ray.schemas import CHANGE_SCHEMA
        empty = CHANGE_SCHEMA.empty_table()
        empty = _project(finalize(empty) if finalize is not None else empty,
                         columns)
        return driver_dataset([empty if rows is None else rows(empty)], sort)
    # Partitions evolve independently (a pass may touch only some), so state
    # files can disagree on schema; conform every batch to the deterministic
    # unified schema (footer reads only). This also drops the hive-inferred
    # ``part=NNNNN`` layout column.
    import json as _json

    from migration_pair_ray.schemas import unify_change_schemas
    mor_paths = [str(Path(cfg.lake_dir) / f)
                 for m in mor_manifests for f in record_files(m)]
    footers = [read_footer(p) for p in paths + mor_paths]
    schema = unify_change_schemas([s for s, _, _ in footers])
    if columns is not None:
        unknown = [c for c in columns if c not in schema.names]
        if unknown:
            raise ValueError(f"read_lake columns {unknown} not in the "
                             f"lake schema {schema.names}")
    kernel = meta.merge_kernel(layout)
    if read_in_driver(sum(n for _, n, _ in footers)):
        def partition(m: dict) -> pa.Table:
            t = read_partition(cfg.lake_dir, m, kernel, schema, columns,
                               finalize)
            return t if rows is None else rows(t)

        return driver_dataset(map_in_driver(partition, manifests), sort)
    parts = []
    if paths:
        if columns is None:
            parts.append(ray.data.read_parquet(paths, file_extensions=None)
                         .map_batches(make_normalizer(schema),
                                      batch_format="pyarrow"))
        else:
            # prune at the read — but a file can predate an added column,
            # so group files by which needed columns their footer carries
            # and read each group with its own projection (the normalizer
            # backfills typed nulls to the pruned unified schema).  A file
            # carrying none of them still contributes rows: read one
            # always-present rider column for the row count.  The
            # caller's column order is the order ``read_partition`` gives.
            groups: dict[tuple, list[str]] = {}
            for p, (s, _, _) in zip(paths, footers):
                key = tuple(c for c in columns if c in s.names)
                groups.setdefault(key, []).append(p)
            norm = make_normalizer(
                pa.schema([schema.field(c) for c in columns]))
            for key, grp in groups.items():
                cols = list(key) or ["lsn"]
                parts.append(
                    ray.data.read_parquet(grp, file_extensions=None,
                                          columns=cols)
                    .map_batches(norm, batch_format="pyarrow"))
    if mor_manifests:
        lake_dir = cfg.lake_dir

        def read_task(t: pa.Table) -> pa.Table:       # one manifest
            return read_partition(lake_dir,
                                  _json.loads(t.column("manifest")[0].as_py()),
                                  kernel, schema, columns, finalize)

        parts.append(ray.data.from_items(
            [{"manifest": _json.dumps(m)} for m in mor_manifests]
        ).map_batches(read_task, batch_format="pyarrow", batch_size=1))
    ds = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    if rows is not None:
        ds = ds.map_batches(rows, batch_format="pyarrow")
    return ds.sort(sort) if sort else ds


def repartition_lake(cfg: JobConfig, new_cfg: JobConfig) -> dict:
    """The COMPACTION.md re-layout job: rebuild the lake under a NEW
    partition layout (num_partitions / partition_mode) in a fresh
    directory.  A layout change is never a config edit (the LakeMeta gate
    aborts that) — it is this explicit bulk job:

        read_lake(old)  →  same partition→merge→commit tail, new layout

    The internal state (one winner per key, tombstones + op/lsn intact)
    flows as the change stream, so LWW semantics, ordering and manifests
    come from the exact same code path as replay.  The old lake's pass
    checkpoints are carried over, so change-log consumption resumes from
    the same point against the new lake.  The old lake directory is left
    untouched for rollback.
    """
    t0 = time.perf_counter()
    if Path(new_cfg.lake_dir).resolve() == Path(cfg.lake_dir).resolve():
        raise ValueError("repartition_lake writes a NEW lake directory; "
                         "in-place re-layout is not supported (rollback safety)")
    from migration_pair_ray.state.manifest import LakeMeta
    src_kernel = LakeMeta(cfg.lake_dir).merge_kernel()
    if src_kernel != new_cfg.merge_kernel:
        # internal cell rows are NOT row-kernel change events (a patch's
        # null means KEEP, not set-null) and vice versa — a cross-kernel
        # relayout would silently fold every patch wrong
        raise ValueError(
            f"repartition_lake cannot change the merge kernel: source lake "
            f"is {src_kernel!r}, target config is "
            f"{new_cfg.merge_kernel!r}. Export a snapshot and bulk-load it "
            f"instead — kernel semantics are a lake-lifetime property.")
    # writer lease on the TARGET lake (the source is only read)
    import contextlib
    from migration_pair_ray.state.lock import WriterLease
    lease = (WriterLease(new_cfg.lake_dir, "repartition",
                         new_cfg.writer_lease_ttl_s)
             if new_cfg.writer_lease else contextlib.nullcontext())
    with lease:
        return _repartition_locked(cfg, new_cfg, t0)


def _repartition_locked(cfg: JobConfig, new_cfg: JobConfig, t0: float) -> dict:
    import shutil
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore
    LakeMeta(new_cfg.lake_dir).ensure(new_cfg.num_partitions,
                                      new_cfg.partition_mode,
                                      new_cfg.merge_kernel,
                                      new_cfg.hot_convs)

    # pass identity derives from the SOURCE lake's committed content
    import hashlib
    h = hashlib.sha256(b"relayout")
    store = ManifestStore(cfg.manifest_dir)
    for pid in LakeMeta(cfg.lake_dir).active_partition_ids(cfg.num_partitions):
        m = store.read(pid)
        if m:
            h.update(f"{pid}:{m['pass_id']}:{m['row_count']}".encode())
    pass_id = h.hexdigest()[:16]

    with _push_shuffle():
        lineage = apply_dataset(read_lake(cfg), new_cfg, pass_id,
                                hot_convs=tuple(new_cfg.hot_convs or ()))

    # carry pass checkpoints over so discover() on the new lake skips the
    # change files the old lake already consumed
    src_ck, dst_ck = Path(cfg.checkpoint_dir), Path(new_cfg.checkpoint_dir)
    dst_ck.mkdir(parents=True, exist_ok=True)
    for p in sorted(src_ck.glob("pass-*.json")):
        shutil.copy2(p, dst_ck / p.name)
    # the multi-source registry is part of the lake's identity (indices
    # define the lsn namespace): the re-laid-out lake must carry it so a
    # later replay_multi resumes under the SAME namespacing
    if (src_ck / "sources.json").exists():
        shutil.copy2(src_ck / "sources.json", dst_ck / "sources.json")
    _write_lineage(new_cfg, pass_id, lineage)
    return {
        "pass_id": pass_id,
        "partitions": lineage.num_rows,
        "rows_state": int(pc.sum(lineage.column("rows_state")).as_py() or 0),
        "seconds": time.perf_counter() - t0,
    }


def final_state(cfg: JobConfig, sort: bool = True, drop_meta: bool = True,
                as_of: str | None = None,
                columns: list[str] | None = None) -> "ray.data.Dataset":
    """User-visible final table: tombstones filtered, stable
    ``(conv_id, turn_idx)`` ordering when ``sort`` (the acceptance-comparison
    ordering from BASELINE.json).  ``as_of`` = committed pass_id for a
    time-travel read (see read_lake).

    ``columns`` prunes the read: a consumer that needs two columns must
    not pull the text payload off storage.  Row-kernel lakes prune at the
    Parquet read itself (the visibility ``op`` column rides internally and
    is dropped); cell-kernel and merge-on-read partitions fold full rows
    per partition and prune the fold's output (the fold needs every
    determiner cell).  ``sort=True`` requires the merge keys among
    ``columns``; op/lsn cannot be requested this way (use
    ``drop_meta=False`` or ``read_lake``).

    Row-kernel lakes finalize per block (each key is ONE state row, so any
    slice is finalizable).  Cell-kernel lakes finalize per PARTITION (a
    key's visible row folds from its whole determiner set): the fold runs
    once per partition via ``read_lake(finalize=...)`` — the same
    granularity the merge tasks work at, so it holds at scale.

    Visibility, projection and the sort are passed INTO the lake read, so
    a lake within Ray Data's block target (``read_in_driver``) comes back
    as one driver-built block with no operator stacked on it; a larger
    lake runs them as Ray Data operators on the distributed read."""
    from migration_pair_ray.state.manifest import LakeMeta
    kernel = LakeMeta(cfg.lake_dir).merge_kernel()
    if columns is not None:
        if {"op", "lsn"} & set(columns):
            raise ValueError("final_state(columns=...) cannot request "
                             "op/lsn (visibility consumes them); use "
                             "drop_meta=False or read_lake()")
        if sort and not {"conv_id", "turn_idx"} <= set(columns):
            raise ValueError("final_state(sort=True) needs conv_id and "
                             "turn_idx in columns")
    keys = ["conv_id", "turn_idx"] if sort else None
    if kernel == "cell":
        if not drop_meta:
            # the cell fold CONSUMES op/lsn (several determiner rows fold
            # into one visible row) — silently returning a meta-less table
            # would diverge invisibly at the call site
            raise ValueError(
                "drop_meta=False is not expressible on cell-kernel lakes: "
                "the per-key fold consumes op/lsn; use read_lake() for "
                "internal determiner rows")
        return _read_lake(cfg, as_of, lambda t: finalize_visible(t, "cell"),
                          columns, sort=keys)
    if columns is None:
        return _read_lake(cfg, as_of, None, None, sort=keys,
                          rows=lambda b: visible_state(b, drop_meta=drop_meta))

    # ride the op column for the tombstone filter, then project it out
    def vis(b: pa.Table) -> pa.Table:
        return visible_state(b, drop_meta=True).select(list(columns))

    return _read_lake(cfg, as_of, None, list(columns) + ["op"], rows=vis,
                      sort=keys)
