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
      └─ task executor (larger; plain Ray tasks)
           route task per input (row-group ranges, ≤ bytes/CPUs, ≤ 1 block):
           read + normalize → batch fns → combine_changes
             → one slice per active partition   (≤1 row per key per input)
           → merge task per partition: merge_partition on its slices
                                                 (the ONE exchange; at most
                                                  apply_concurrency at once)
      → lineage records → pass checkpoint (stats: executor, planned_bytes)

Both executors call the same ``combine_changes`` and ``merge_partition``,
so every effect stays behind the per-partition manifest commit on either.
``bulk_load`` and ``repartition_lake`` hand their Datasets' blocks to the
same route and merge tasks (``apply_on_tasks``).

The reference's EndToEnd (``Tasks/EndToEnd.cs:20-49``) is the degenerate
single-stream version of this; the explicit partial reduce + hash partition
is what makes it hold at 10^10 events (only unique keys per input cross to
the merges, and a hot conversation can be salted across partitions with
mode="key").
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.lww import (finalize_visible, reduce_events,
                                              visible_state)
from migration_pair_ray.functions.normalize import make_normalizer
from migration_pair_ray.schemas import unify_change_schemas
from migration_pair_ray.sources.changelog import discover
from migration_pair_ray.sources.readers import (driver_dataset, map_in_driver,
                                                parse_footer, read_footer,
                                                read_parquet_file)
from migration_pair_ray.stages.applier import (LINEAGE_SCHEMA, RAW_LSN_COLS,
                                               merge_partition,
                                               read_state_table)
from migration_pair_ray.stages.partition import (PART_COL,
                                                 add_partition_column,
                                                 partition_ids)
from migration_pair_ray.state.manifest import (CheckpointStore, base_entries,
                                               compute_pass_id)


def apply_changes_ds(sources: list[tuple[list[str], list]], schema: pa.Schema,
                     cfg: JobConfig, pass_id: str,
                     splits: dict[int, tuple[int, int]] | None = None,
                     pass_seq: int = -1,
                     hot_convs: tuple[str, ...] = (),
                     lineage_break: bool = False,
                     merge_fn=merge_partition,
                     footers: dict[str, tuple] | None = None
                     ) -> tuple[pa.Table, dict, dict[str, int]]:
    """Plan and run one pass over change files; returns the lineage table
    (one row per partition), the plan (``{"executor", "planned_bytes"}``
    for the checkpoint's ``stats``) and each file's footer row count.

    ``sources`` is a list of ``(files, fns)``: change files and the batch
    functions (``pa.Table -> pa.Table``: txn and quarantine gates, a
    source's lsn shift, a refill's partition filter) their rows run, in
    order, once normalized to ``schema`` (``_prepared``).  The planner
    sums the uncompressed bytes of the change files' footers (parsed once
    per pass, never kept) and the lake's pinned state, and asks
    ``read_in_driver``:

    * driver executor: files read and normalized on ``map_in_driver``'s
      threads, ``fns`` per file in file order, ONE reduce over the pass,
      then ``merge_fn`` for each partition in turn.  No Ray Data plan or
      Ray task is started.
    * task executor: ``apply_on_tasks`` on ``_route_inputs``.

    ``splits`` (LakeMeta.splits) routes a split base partition's events
    to its children.  ``lineage_break`` is stamped into every commit
    record (refill).  ``merge_fn`` is the per-partition merge; tests swap
    in a fault-injecting one (testing.py).  ``footers`` maps a file to its
    ``parse_footer`` when the caller has parsed it already (``replay``
    builds the pass schema from them); the rest are parsed here."""
    inputs = [(f, fns) for files, fns in sources for f in files]
    footers = _parsed_footers([f for f, _ in inputs], footers)
    inputs = [(f, footers[f][2], fns) for f, fns in inputs]
    change_bytes = sum(footers[f][1] for f, _, _ in inputs)
    nbytes = change_bytes + _pinned_state_bytes(cfg)
    file_rows = {f: md.num_rows for f, md, _ in inputs}
    norm = make_normalizer(schema)
    if not read_in_driver(nbytes):
        lineage = apply_on_tasks(_route_inputs(inputs, change_bytes), cfg,
                                 pass_id, splits, pass_seq, hot_convs,
                                 lineage_break, merge_fn,
                                 prepare=lambda pieces: _prepared(pieces, norm))
        # "ray_data": the label lakes have always recorded for this executor
        return lineage, {"executor": "ray_data", "planned_bytes": nbytes}, \
            file_rows
    changes = combine_changes(
        _prepared([(f, md, None, fns) for f, md, fns in inputs], norm,
                  map_in_driver), cfg, splits, hot_convs)
    lineage = _lineage([merge_fn(group, cfg=cfg, pass_id=pass_id,
                                 pass_seq=pass_seq, lineage_break=lineage_break)
                        for group in _by_partition(changes).values()])
    return lineage, {"executor": "driver", "planned_bytes": nbytes}, file_rows


def _prepared(pieces: list[tuple], norm, mapper=map) -> pa.Table:
    """The rows of a pass's ``pieces`` as one table, ``combine_changes``'s
    input on both executors.  A piece ``(path, footer, row_groups, fns)``
    is read (``None``: every row group) and normalized (``mapper``: the
    driver maps on its threads, which make no Ray call), then runs its
    ``fns``, in piece order."""
    tables = mapper(lambda p: norm(read_parquet_file(p[0], metadata=p[1],
                                                     row_groups=p[2])),
                    pieces)
    out = []
    for t, (_, _, _, fns) in zip(tables, pieces):
        for fn in fns:
            t = fn(t)
        out.append(t)
    return pa.concat_tables(out, promote_options="permissive")


def _route_inputs(files: list[tuple], nbytes: int) -> list[list[tuple]]:
    """The task executor's route inputs: the pass's ``(path, footer,
    fns)`` files cut at row-group bounds and packed, in order, into lists
    of ``_prepared`` pieces of at most ``nbytes`` over the cluster's CPUs
    (every CPU gets a task) and at most the block target (a task holds
    about one block however large a file is); a larger row group is an
    input alone.  Small files share an input, so a merge takes few
    slices."""
    # before Ray is started (the first task starts it) only the target cuts
    cpus = (max(1, int(ray.cluster_resources().get("CPU", 1)))
            if ray.is_initialized() else 1)
    budget = min(ray.data.DataContext.get_current().target_max_block_size,
                 max(1, -(-nbytes // cpus)))
    routes, cur, size = [], [], 0
    for path, md, fns in files:
        piece = None
        for rg in range(md.num_row_groups):
            n = md.row_group(rg).total_byte_size
            if cur and size + n > budget:
                routes.append(cur)
                cur, size, piece = [], 0, None
            if piece is None:
                piece = (path, md, [], fns)
                cur.append(piece)
            piece[2].append(rg)
            size += n
    return routes + [cur] if cur else routes


def _lineage(rows: list[pa.Table]) -> pa.Table:
    out = [t for t in rows if t.num_rows]
    return (pa.concat_tables(out).cast(LINEAGE_SCHEMA) if out
            else LINEAGE_SCHEMA.empty_table())


def _by_partition(changes: pa.Table) -> dict[int, pa.Table]:
    """``changes`` cut into one slice per partition id it holds, in
    partition-id order (rows keep their order within a partition)."""
    pids = changes.column(PART_COL).to_numpy()
    order = np.argsort(pids, kind="stable")
    changes, pids = changes.take(order), pids[order]
    cuts = [0, *(np.flatnonzero(np.diff(pids)) + 1), len(pids)]
    return {int(pids[lo]): changes.slice(lo, hi - lo)
            for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo}


@ray.remote
def remote_call(fn, *args):
    """``fn(*args)`` in a plain Ray task (object refs in ``args`` resolved)."""
    return fn(*args)


def apply_on_tasks(inputs: list, cfg: JobConfig, pass_id: str,
                   splits: dict[int, tuple[int, int]] | None = None,
                   pass_seq: int = -1, hot_convs: tuple[str, ...] = (),
                   lineage_break: bool = False, merge_fn=merge_partition,
                   prepare=None) -> pa.Table:
    """The task executor of a pass; returns the lineage table.  One route
    task per input runs ``combine_changes`` on ``prepare(input)`` (or on
    the input, a block ref of a normalized Dataset, as ``bulk_load`` and
    ``repartition_lake`` hand theirs over) and returns one slice per
    active partition (split children included); then one merge task per
    partition calls ``merge_fn`` on its slices, at most
    ``cfg.apply_concurrency`` at once.  A merge task whose worker dies is
    retried up to ``cfg.apply_max_retries`` times (the reference's
    write-timeout retry, ``Policies/RetryPolicy.cs:18-23``): every effect
    is gated on the idempotent manifest commit, so the retry rewrites
    identical bytes."""
    if not inputs:
        return LINEAGE_SCHEMA.empty_table()
    from migration_pair_ray.state.manifest import LakeMeta
    pids = LakeMeta(cfg.lake_dir).active_partition_ids(cfg.num_partitions)

    def route(src):
        changes = combine_changes(src if prepare is None else prepare(src),
                                  cfg, splits, hot_convs)
        parts = _by_partition(changes)
        out = [parts.pop(pid, changes.slice(0, 0)) for pid in pids]
        if parts:
            raise RuntimeError(f"rows routed to inactive partitions {list(parts)}")
        return out if len(out) > 1 else out[0]

    def merge(*slices):
        return merge_fn(pa.concat_tables(slices, promote_options="permissive"),
                        cfg=cfg, pass_id=pass_id, pass_seq=pass_seq,
                        lineage_break=lineage_break)

    router = remote_call.options(num_returns=len(pids))
    routed = [router.remote(route, src) for src in inputs]
    if len(pids) == 1:
        routed = [[r] for r in routed]
    merger = remote_call.options(max_retries=cfg.apply_max_retries)
    refs, running = [], []
    for i in range(len(pids)):
        if cfg.apply_concurrency and len(running) >= cfg.apply_concurrency:
            _, running = ray.wait(running)
        refs.append(merger.remote(merge, *(r[i] for r in routed)))
        running.append(refs[-1])
    return _lineage(ray.get(refs))


def combine_changes(batch: pa.Table, cfg: JobConfig,
                    splits: dict[int, tuple[int, int]] | None,
                    hot_convs: tuple[str, ...]) -> pa.Table:
    """The pass's combiner, one function for both executors (the driver
    runs it once over the whole pass, the task executor once per input):
    reduce ``batch`` with the lake's kernel, add the survivors' partition
    column, and stamp each survivor with its partition's raw lsn range in
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
    declare: the state a pass may merge into (``read_footer`` keeps each
    parse, so a tailer parses a state file's footer once)."""
    from migration_pair_ray.state.manifest import (LakeMeta, ManifestStore,
                                                   record_files)
    store = ManifestStore(cfg.manifest_dir)
    paths = [str(Path(cfg.lake_dir) / f)
             for pid in LakeMeta(cfg.lake_dir).active_partition_ids(
                 cfg.num_partitions)
             for f in record_files(store.read(pid))]
    return sum(read_footer(p)[1] for p in paths)


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
    # each change file's footer is parsed once per pass: the schemas below
    # and the planner in apply_changes_ds share these parses
    footers = _parsed_footers(files)
    # wire schema = this pass's NEW files only (the schema-evolution audit
    # trail must reflect the upstream wire, not pending carry-over)
    schema = unified_schema([footers[f] for f in files])
    txn_state, read_files, read_schema = None, files, schema
    if cfg.txn_boundary:
        # transactional gate: input = new files + the last committed
        # pass's pending store; events of uncommitted txns are held back
        from migration_pair_ray.pipelines import txn as txnmod
        txn_state = txnmod.prepare_pass(cfg, pass_id, files)
        if txn_state["pending_prev"]:
            read_files = files + txn_state["pending_prev"]
            footers = _parsed_footers(read_files, footers)
            read_schema = unified_schema([footers[f] for f in read_files])
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
    lineage, plan, file_rows = apply_changes_ds(
        [(read_files, gates)], read_schema, cfg, pass_id, splits=meta.splits(),
        pass_seq=pass_seq, hot_convs=meta.hot_convs(), footers=footers)

    # raw events of the pass's new files (not the txn carry-over), from the
    # planner's footer parse; lineage rows_in is post-reduce
    events_in = sum(file_rows[f] for f in files)
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


def _parsed_footers(files: list[str], parsed: dict[str, tuple] | None = None
                    ) -> dict[str, tuple]:
    """``parsed`` plus a ``parse_footer`` of each of ``files`` it lacks
    (on ``map_in_driver``'s threads)."""
    parsed = dict(parsed or {})
    todo = [f for f in files if f not in parsed]
    parsed.update(zip(todo, map_in_driver(parse_footer, todo)))
    return parsed


def unified_schema(footers: list[tuple]) -> pa.Schema:
    """A pass's unified change schema (``unify_change_schemas``) from its
    change files' ``parse_footer`` results: no file is opened.  The
    analog of the reference's ``GetColumnsInfo`` schema probe
    (``Tasks/MigrationTask.cs:107-116``)."""
    return unify_change_schemas([schema for schema, _, _ in footers])


def read_in_driver(nbytes: int) -> bool:
    """The planner's executor choice, from the uncompressed bytes the
    Parquet footers of a read or a pass declare.  Work within Ray Data's
    block target (``DataContext.target_max_block_size``, 128 MiB by
    default) is about one block, so it runs in the driver, on
    ``map_in_driver``'s threads, and skips the fixed cost of remote work
    (task start-up, object-store hand-over); larger work runs the same
    kernels in Ray tasks.  ``read_lake``, ``final_state``,
    ``lookup.fetch_conversations`` and ``apply_changes_ds`` choose
    here."""
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
    kernel both lake-read executors share.

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
    for e in base_entries(manifest):
        p = str(Path(lake_dir) / e["file"])
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

    One manifest-planned read, two executors of ``read_partition``,
    chosen by ``read_in_driver`` from the pinned footers' bytes: in the
    driver on ``map_in_driver``'s threads, returning ONE block
    (``driver_dataset``), or one streamed Ray Data read task per
    partition (``_PartitionReads``).  Both conform to the same unified
    schema with the same kernel, so they return the same rows.

    ``finalize`` (internal): a ``pa.Table -> pa.Table`` applied to each
    partition's COMPLETE state table (inside ``read_partition``, on
    either executor).  Cell-kernel lakes need this shape for
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
    (row-kernel visibility + projection), run on each partition where it
    is read, and the ``sort`` keys."""
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
    manifests = []
    for pid in pids:
        m = store.read(pid)
        if as_of is not None:
            m = manifest_as_of(m, target_seq, pass_seqs, pid)
            if m is None and pid >= base_partitions:
                raise TimeTravelError(
                    f"partition {pid} is a split child with no record at or "
                    f"before pass {as_of!r}; its parent's pre-split state "
                    f"was GC'd — time travel cannot cross a split")
        if m:
            manifests.append(m)
    footers = [[read_footer(str(Path(cfg.lake_dir) / f))
                for f in record_files(m)] for m in manifests]
    sizes = [sum(n for _, n, _ in fs) for fs in footers]
    if not any(footers):
        from migration_pair_ray.schemas import CHANGE_SCHEMA
        empty = CHANGE_SCHEMA.empty_table()
        empty = _project(finalize(empty) if finalize is not None else empty,
                         columns)
        return driver_dataset([empty if rows is None else rows(empty)], sort)
    # Partitions evolve independently (a pass may touch only some), so state
    # files can disagree on schema; conform every partition to the
    # deterministic unified schema (footer reads only).
    from migration_pair_ray.schemas import unify_change_schemas
    schema = unify_change_schemas([s for fs in footers for s, _, _ in fs])
    if columns is not None:
        unknown = [c for c in columns if c not in schema.names]
        if unknown:
            raise ValueError(f"read_lake columns {unknown} not in the "
                             f"lake schema {schema.names}")
    kernel = meta.merge_kernel(layout)

    def partition(m: dict) -> pa.Table:
        t = read_partition(cfg.lake_dir, m, kernel, schema, columns, finalize)
        return t if rows is None else rows(t)

    if read_in_driver(sum(sizes)):
        return driver_dataset(map_in_driver(partition, manifests), sort)
    ds = ray.data.read_datasource(_PartitionReads(partition, manifests, sizes),
                                  override_num_blocks=len(manifests))
    return ds.sort(sort) if sort else ds


class _PartitionReads(ray.data.Datasource):
    """The task executor of a lake read: one read task per pinned manifest
    (``sizes``: its footer bytes) running the driver's ``partition``
    closure, streamed: a consumer's backpressure (``iter_batches``,
    ``write_parquet``) bounds how many partitions are held at once."""

    def __init__(self, partition, manifests: list[dict], sizes: list[int]):
        from ray.data.block import BlockMetadata
        self._tasks = [ray.data.ReadTask(lambda m=m: [partition(m)],
                                         BlockMetadata(None, n, None, None))
                       for m, n in zip(manifests, sizes)]

    def estimate_inmemory_data_size(self) -> int:
        return sum(t.metadata.size_bytes for t in self._tasks)

    def get_read_tasks(self, parallelism: int) -> list:
        return self._tasks      # the partition is the kernel's unit


def repartition_lake(cfg: JobConfig, new_cfg: JobConfig) -> dict:
    """The COMPACTION.md re-layout job: rebuild the lake under a NEW
    partition layout (num_partitions / partition_mode) in a fresh
    directory.  A layout change is never a config edit (the LakeMeta gate
    aborts that) — it is this explicit bulk job:

        read_lake(old)  →  the same route → merge tasks, new layout

    The internal state (one winner per key, tombstones + op/lsn intact)
    flows as the change stream, one route task per block of the read
    (``apply_on_tasks``; the read streams its partitions into them), so LWW semantics, ordering and manifests come
    from the exact same code path as replay.  The old lake's pass
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

    lineage = apply_on_tasks(read_lake(cfg).to_arrow_refs(), new_cfg, pass_id,
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

    ``columns`` prunes the read (``read_partition``; the visibility ``op``
    column rides internally and is dropped).  ``sort=True`` requires the
    merge keys among ``columns``; op/lsn cannot be requested this way
    (use ``drop_meta=False`` or ``read_lake``).

    Cell-kernel lakes finalize per PARTITION (a key's visible row folds
    from its whole determiner set, ``read_lake(finalize=...)``).
    Visibility, projection and the sort are passed INTO the lake read:
    each partition's read runs them, on either executor."""
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
