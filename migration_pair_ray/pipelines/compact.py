"""Incremental partition split — COMPACTION.md made code.

``split_partition`` rewrites ONE base partition's state into ``fanout``
children and atomically publishes the new routing via the ``_lake_meta``
splits map.  The other P-1 partitions are untouched: their state files,
manifests and key placement are byte-stable across the split.  At 100 TB
this is the difference between a multi-day whole-lake re-layout
(``repartition_lake``) and a minutes-long maintenance action on one hot
partition.

Crash protocol (all effects idempotent, meta rewrite is the commit point):

1. children state files + manifests are written first (fresh child ids —
   a re-split advances the generation so live ids are never reused);
2. ``LakeMeta.record_split`` atomically repoints routing and enumeration
   (readers use ``active_partition_ids``; writers pass ``meta.splits()``
   into the partition stage), making the children visible and the parent
   invisible in one rename;
3. the superseded parent manifest/state files are GC'd best-effort.

A crash before (2) leaves the lake exactly as before the split; re-running
the job completes it (deterministic split pass id ⇒ identical bytes,
idempotent manifest commits).

Reference analog: none — Cassandra owned placement for the reference
(``Tasks/MigrationTask.cs:101-104``); an engine that owns its own lake
needs the lifecycle explicitly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import ray

from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import remote_call
from migration_pair_ray.stages.applier import (lsn_range, read_state_table,
                                               write_partition_state)
from migration_pair_ray.state.manifest import (
    LakeLayoutError,
    LakeMeta,
    ManifestStore,
)


def _lease(cfg: JobConfig, owner: str):
    """Single-writer lease (state/lock.py) — reentrant, so maintenance
    actions taken from inside a replay pass reuse the pass's lease."""
    import contextlib
    from migration_pair_ray.state.lock import WriterLease
    return (WriterLease(cfg.lake_dir, owner, cfg.writer_lease_ttl_s)
            if cfg.writer_lease else contextlib.nullcontext())


def _gc_inactive_manifests(cfg: JobConfig, store: ManifestStore,
                           meta: LakeMeta) -> int:
    """Best-effort sweep of manifests (and the files they pin) for
    partition ids the lake meta no longer enumerates — the leftovers of a
    relayout job that crashed between its atomic meta flip and its GC.
    Readers never see inactive ids (the meta is the routing authority) and
    retired id generations are never reused, so without this sweep a
    crash-after-flip would leak those files forever.  Runs only under the
    writer lease (callers hold it), so a pre-flip record of an IN-FLIGHT
    relayout can never be swept by a concurrent job."""
    from migration_pair_ray.state.manifest import referenced_files
    active = set(meta.active_partition_ids())
    swept = 0
    for p in Path(store.dir).glob("part-*.json"):
        try:
            pid = int(p.stem.split("-", 1)[1])
        except ValueError:
            continue
        if pid in active:
            continue
        for rel in referenced_files(store.read(pid)):
            try:
                (Path(cfg.lake_dir) / rel).unlink()
            except OSError:
                pass
        # an inactive partition references nothing — this clears its whole
        # directory of state files AND their bloom sidecars
        from migration_pair_ray.state.bloom import gc_partition_files
        gc_partition_files(cfg.lake_dir, pid, set())
        store.delete(pid)
        swept += 1
    return swept


def split_partition(cfg: JobConfig, base_pid: int, fanout: int = 2) -> dict:
    with _lease(cfg, "split"):
        return _split_partition_locked(cfg, base_pid, fanout)


def _split_partition_locked(cfg: JobConfig, base_pid: int,
                            fanout: int = 2) -> dict:
    """Split base partition ``base_pid`` into ``fanout`` children.

    Works whether the partition holds state or not (an empty split just
    records routing), and supports RE-splitting (widening fanout): the
    previous children's state is read back, re-routed under the new
    fanout, and written as a fresh child generation.  Idempotent: a
    re-run after success (same fanout) is a no-op.
    """
    meta = LakeMeta(cfg.lake_dir)
    cur = meta.read()
    if cur is None:
        raise LakeLayoutError(
            f"no lake at {cfg.lake_dir} — nothing to split")
    p = int(cur["num_partitions"])
    mode = cur["partition_mode"]
    if not (0 <= base_pid < p):
        raise ValueError(f"base_pid {base_pid} outside [0, {p})")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    splits = meta.splits()
    prev = splits.get(base_pid)
    if prev and prev[0] == fanout:
        # finish any interrupted GC (crash between flip and cleanup)
        _gc_inactive_manifests(cfg, ManifestStore(cfg.manifest_dir), meta)
        return {"base_pid": base_pid, "fanout": fanout, "gen": prev[1],
                "children": [], "rows": 0, "already_split": True}

    store = ManifestStore(cfg.manifest_dir)
    if prev:
        prev_fanout, prev_gen = prev
        src_pids = [LakeMeta.child_id(p, base_pid, c, prev_gen)
                    for c in range(prev_fanout)]
        new_gen = prev_gen + prev_fanout       # fresh id block, never reused
    else:
        src_pids = [base_pid]
        # never reuse a child id block a crashed pre-merge job might
        # still have files under (LakeMeta.record_unsplit retired it)
        new_gen = meta.gen_floor(base_pid)

    kernel = meta.merge_kernel()
    tables, src_sig = [], []
    for pid in src_pids:
        m = store.read(pid)
        if m:
            t = read_state_table(cfg.lake_dir, m, kernel=kernel)
            if t is not None:
                tables.append(t)
            src_sig.append(f"{pid}:{m['pass_id']}:{m['row_count']}")
    # deterministic split identity from the source state being rewritten
    pass_id = hashlib.sha256(
        f"split:{base_pid}:{fanout}:{new_gen}:{';'.join(src_sig)}".encode()
    ).hexdigest()[:16]

    # children re-layout EXACTLY the last committed pass's state, so they
    # are stamped with that pass's sequence: as-of reads targeting it (or
    # 'latest' on a quiescent lake) resolve to the children, while any
    # EARLIER target finds no eligible record and fails loudly via the
    # lineage_break marker (the parent's pre-split state is GC'd below —
    # splits intentionally truncate history)
    from migration_pair_ray.state.manifest import CheckpointStore
    pass_seq = max(CheckpointStore(cfg.checkpoint_dir).last_seq(), 0)

    new_splits = dict(splits)
    new_splits[base_pid] = (fanout, new_gen)
    child_ids = [LakeMeta.child_id(p, base_pid, c, new_gen)
                 for c in range(fanout)]
    rows_total = 0

    if tables:
        from migration_pair_ray.functions.lww import _SORT_KEYS
        from migration_pair_ray.stages.partition import partition_ids

        state = (tables[0] if len(tables) == 1
                 else pa.concat_tables(tables, promote_options="permissive"))
        rows_total = state.num_rows
        route = partition_ids(state, p, mode, new_splits,
                              meta.hot_convs())
        # every source row must route to this base's new children — the
        # base component of the hash is unchanged by construction
        if not np.isin(route, np.asarray(child_ids)).all():
            raise AssertionError(
                "split routing produced ids outside the new child set — "
                "the lake's partition_mode/num_partitions do not match the "
                "state being split")
        for c, cid in enumerate(child_ids):
            sub = state.filter(pa.array(route == cid))
            # child state comes from key-disjoint (but interleaved) source
            # files — restore the deterministic (conv_id, turn_idx) order
            sub = sub.sort_by(_SORT_KEYS)
            if store.is_applied(cid, pass_id):
                continue               # crash-resume: child already committed
            layout, _ = write_partition_state(
                cfg.lake_dir, cid, pass_id, sub, cfg.state_chunk_rows,
                cfg.hash_state)
            store.commit(cid, {"partition": cid, "pass_id": pass_id,
                               **layout, **lsn_range(sub),
                               "split_of": base_pid, "pass_seq": pass_seq})

    # THE commit point: routing + enumeration flip to the children here
    meta.record_split(base_pid, fanout, new_gen)

    # GC every superseded manifest: the split sources (parent or previous
    # child generation) just went inactive, and the sweep also collects
    # leftovers of any prior relayout that crashed between its flip and
    # its cleanup.  Retained time-travel records die with their manifest —
    # referenced_files covers them, not just the current file.
    _gc_inactive_manifests(cfg, store, meta)

    return {"base_pid": base_pid, "fanout": fanout, "gen": new_gen,
            "children": child_ids, "rows": rows_total, "pass_id": pass_id,
            "already_split": False}


def merge_partition(cfg: JobConfig, base_pid: int) -> dict:
    with _lease(cfg, "merge"):
        return _merge_partition_locked(cfg, base_pid)


def _merge_partition_locked(cfg: JobConfig, base_pid: int) -> dict:
    """Merge a split base's children back into the base partition — the
    inverse lifecycle action of ``split_partition`` for partitions that
    SHRANK (tombstone-heavy workloads, post-compaction).  The other
    partitions are byte-untouched; the ``_lake_meta`` unsplit rewrite is
    the atomic commit point.

    Crash protocol mirrors split: (1) base state + manifest are written
    while the base id is still inactive (readers keep enumerating the
    children), (2) ``record_unsplit`` atomically flips routing and
    enumeration back to the base, (3) child manifests/state are GC'd
    best-effort.  Re-running after any crash completes the job
    (deterministic merge pass id ⇒ idempotent commit).  The retired child
    generation is remembered so a future re-split never reuses its ids.
    """
    meta = LakeMeta(cfg.lake_dir)
    cur = meta.read()
    if cur is None:
        raise LakeLayoutError(f"no lake at {cfg.lake_dir} — nothing to merge")
    p = int(cur["num_partitions"])
    splits = meta.splits()
    if base_pid not in splits:
        # finish any interrupted GC: a crash between a relayout's meta
        # flip and its cleanup leaves inactive manifests behind
        _gc_inactive_manifests(cfg, ManifestStore(cfg.manifest_dir), meta)
        return {"base_pid": base_pid, "rows": 0, "already_merged": True}
    fanout, gen = splits[base_pid]
    child_ids = [LakeMeta.child_id(p, base_pid, c, gen) for c in range(fanout)]

    from migration_pair_ray.functions.lww import _SORT_KEYS
    store = ManifestStore(cfg.manifest_dir)
    kernel = meta.merge_kernel()
    tables, src_sig = [], []
    for cid in child_ids:
        m = store.read(cid)
        if m:
            t = read_state_table(cfg.lake_dir, m, kernel=kernel)
            if t is not None and t.num_rows:
                tables.append(t)
            src_sig.append(f"{cid}:{m['pass_id']}:{m['row_count']}")
    pass_id = hashlib.sha256(
        f"merge:{base_pid}:{gen}:{';'.join(src_sig)}".encode()).hexdigest()[:16]

    # stamped with the last COMMITTED seq — the merged base holds exactly
    # that pass's state (same rule as split children)
    from migration_pair_ray.state.manifest import CheckpointStore
    pass_seq = max(CheckpointStore(cfg.checkpoint_dir).last_seq(), 0)

    rows_total = 0
    if tables and not store.is_applied(base_pid, pass_id):
        state = (tables[0] if len(tables) == 1
                 else pa.concat_tables(tables, promote_options="permissive"))
        # children are conv-disjoint slices of the base's key space but
        # interleave under the quotient routing — restore key order
        state = state.sort_by(_SORT_KEYS)
        rows_total = state.num_rows
        layout, _ = write_partition_state(
            cfg.lake_dir, base_pid, pass_id, state, cfg.state_chunk_rows,
            cfg.hash_state)
        store.commit(base_pid, {"partition": base_pid, "pass_id": pass_id,
                                **layout, **lsn_range(state),
                                "merge_of": child_ids, "lineage_break": True,
                                "pass_seq": pass_seq})
    elif tables:
        rows_total = sum(t.num_rows for t in tables)

    # THE commit point: routing + enumeration flip back to the base here
    meta.record_unsplit(base_pid)

    # GC every superseded manifest (the children, plus leftovers of any
    # PRIOR relayout that crashed between its flip and its cleanup)
    _gc_inactive_manifests(cfg, store, meta)

    return {"base_pid": base_pid, "children": child_ids, "rows": rows_total,
            "pass_id": pass_id, "already_merged": False}


def maybe_merge_undersized(cfg: JobConfig, min_rows: int) -> list[dict]:
    """Size guard in the shrink direction: merge back every split base
    whose children's TOTAL committed rows fell below ``min_rows`` (the
    split no longer pays for its fan-out).  Returns the merge summaries."""
    meta = LakeMeta(cfg.lake_dir)
    cur = meta.read()
    if cur is None:
        return []
    p = int(cur["num_partitions"])
    store = ManifestStore(cfg.manifest_dir)
    out = []
    for base, (fanout, gen) in sorted(meta.splits().items()):
        total = 0
        for c in range(fanout):
            m = store.read(LakeMeta.child_id(p, base, c, gen))
            if m:
                total += int(m["row_count"])
        if total < min_rows:
            out.append(merge_partition(cfg, base))
    return out


def rollback_to(cfg: JobConfig, pass_id: str) -> dict:
    """Make a retained pass the lake's CURRENT state again — the write
    half of time travel (``read_lake(as_of=...)`` is the read half).

    Revert-style, not reset-style: nothing is deleted.  Each partition
    gets a NEW manifest record whose content (state/chunk/delta file
    entries, counts, hashes) is copied from its record as of the target
    pass — state files are immutable copy-on-write, so the flip is pure
    metadata, O(partitions) regardless of data size.  The superseded head
    is retained under ``cfg.retain_passes`` like any other pass, so the
    rollback itself can be time-traveled past or rolled back again.

    The change log is NOT un-consumed: passes after the target stay
    committed in the checkpoint store (their effects are what the
    rollback removes), so a subsequent ``replay`` applies only genuinely
    new change files on top of the restored state.

    Fails loudly with TimeTravelError — before touching anything — when
    any partition cannot prove its state at the target (vacuumed beyond
    retention, or across a split/merge relayout).  Crash-safe: the
    rollback pass id is deterministic for a given (target, next seq), so
    a retry re-commits the same records idempotently; the job-level
    checkpoint lands last."""
    with _lease(cfg, "rollback"):
        return _rollback_locked(cfg, pass_id)


def _rollback_locked(cfg: JobConfig, target: str) -> dict:
    import time
    from migration_pair_ray.state.manifest import (CheckpointStore,
                                                   TimeTravelError,
                                                   manifest_as_of,
                                                   record_files)
    t0 = time.perf_counter()
    ck = CheckpointStore(cfg.checkpoint_dir)
    pass_seqs = ck.pass_seqs()
    if target not in pass_seqs:
        raise TimeTravelError(
            f"pass {target!r} was never committed to this lake (known: "
            f"{sorted(pass_seqs)})")
    target_seq = pass_seqs[target]
    meta = LakeMeta(cfg.lake_dir)
    store = ManifestStore(cfg.manifest_dir)
    seq = ck.next_seq()
    rb_pass = hashlib.sha256(
        f"rollback:{target}:{seq}".encode()).hexdigest()[:16]

    # resolve EVERY partition before mutating ANY: a TimeTravelError on
    # partition k must not leave partitions < k already flipped
    plan: list[tuple[int, dict, dict | None]] = []
    base_partitions = (meta.read() or {}).get("num_partitions",
                                              cfg.num_partitions)
    for pid in meta.active_partition_ids(cfg.num_partitions):
        m = store.read(pid)
        if m is None:
            continue  # never had state — nothing to restore or clear
        rec = manifest_as_of(m, target_seq, pass_seqs, pid)
        if rec is None and pid >= base_partitions:
            raise TimeTravelError(
                f"partition {pid} is a split child with no record at or "
                f"before pass {target!r}; rollback cannot cross a split")
        plan.append((pid, m, rec))

    flipped = cleared = unchanged = 0
    for pid, m, rec in plan:
        if rec is not None and record_files(rec) == record_files(m):
            unchanged += 1
            continue
        new = {k: v for k, v in (rec or {}).items()
               if k not in ("history", "prev_records")}
        if rec is None:
            # the partition's first commit came AFTER the target: its
            # restored state is empty (an explicit empty record, so the
            # pre-rollback head is retained and fsck sees a committed
            # partition, not a missing manifest)
            new.update(partition=pid, row_count=0, tombstones=0,
                       data_file=None)   # canonical empty: no state files
        new.update(pass_id=rb_pass,
                   rollback_of={"target_pass": target,
                                "target_seq": target_seq,
                                "restored_pass": (rec or {}).get("pass_id")})
        if seq >= 0:
            new["pass_seq"] = seq
        store.commit(pid, new, retain=cfg.retain_passes)
        if rec is None:
            cleared += 1
        else:
            flipped += 1
    # checkpoint lands last: a crash above re-runs with the same seq →
    # same rb_pass → idempotent re-commits.  The pass carries no change
    # files (feed/replicate refuse to serve it — a follower linking zero
    # files would silently diverge; bootstrap_replica re-seeds instead).
    ck.commit_pass(rb_pass, [], seq=seq,
                   stats={"rollback_to": target, "target_seq": target_seq,
                          "flipped": flipped, "cleared": cleared})
    return {"pass_id": rb_pass, "rollback_to": target,
            "target_seq": target_seq, "partitions": len(plan),
            "flipped": flipped, "cleared": cleared, "unchanged": unchanged,
            "seconds": time.perf_counter() - t0}


def auto_maintain(cfg: JobConfig, split_max_rows: int = 0,
                  merge_min_rows: int = 0, fanout: int = 2,
                  compact: bool = True,
                  vacuum_retain: int | None = None) -> dict:
    """One maintenance sweep — the nightly-cron entrypoint composing the
    lifecycle jobs in dependency order, all under ONE writer lease (each
    sub-job's lease acquisition is process-reentrant):

    1. ``compact_deltas``  — fold MoR deltas first, so the row counts the
       split/merge guards read are exact (a delta-carrying manifest's
       ``row_count`` is the base only)
    2. ``maybe_split_oversized(split_max_rows)``  — when > 0
    3. ``maybe_merge_undersized(merge_min_rows)`` — when > 0
    4. ``vacuum(vacuum_retain)`` — when not None, trim the time-travel
       window last (splits/merges retire records that vacuum then sweeps)

    Each step is independently crash-safe and idempotent, so a crashed
    sweep is simply re-run.  Thresholds default OFF: an operator opts
    into each action explicitly."""
    import time as _time
    t0 = _time.perf_counter()
    with _lease(cfg, "maintain"):
        out: dict = {}
        if compact:
            out["compact"] = _compact_deltas_locked(cfg, None)
        if split_max_rows > 0:
            out["splits"] = maybe_split_oversized(cfg, split_max_rows,
                                                  fanout=fanout)
        if merge_min_rows > 0:
            out["merges"] = maybe_merge_undersized(cfg, merge_min_rows)
        if vacuum_retain is not None:
            out["vacuum"] = _vacuum_locked(cfg, vacuum_retain)
        out["seconds"] = _time.perf_counter() - t0
        return out


def vacuum(cfg: JobConfig, retain_passes: int = 0) -> dict:
    with _lease(cfg, "vacuum"):
        return _vacuum_locked(cfg, retain_passes)


def _vacuum_locked(cfg: JobConfig, retain_passes: int = 0) -> dict:
    """Trim every partition's time-travel window to ``retain_passes``
    superseded records and delete the state files nothing references
    anymore.  ``retain_passes=0`` drops all history (only the current
    state stays readable).  Safe while readers of the CURRENT state run
    (their files are always retained); concurrent as-of readers of a pass
    being vacuumed can lose their files — quiesce those first, as with
    any lake vacuum.  Idempotent.  Also sweeps inactive manifests left by
    a relayout that crashed between its meta flip and its cleanup."""
    from migration_pair_ray.state.manifest import referenced_files

    if retain_passes < 0:
        raise ValueError("retain_passes must be >= 0")
    meta = LakeMeta(cfg.lake_dir)
    store = ManifestStore(cfg.manifest_dir)
    swept = _gc_inactive_manifests(cfg, store, meta) if meta.read() else 0
    parts = trimmed = files_deleted = bytes_freed = 0
    for pid in meta.active_partition_ids(cfg.num_partitions):
        m = store.read(pid)
        if m is None:
            continue
        parts += 1
        prev = list(m.get("prev_records", []))
        if len(prev) > retain_passes:
            m = dict(m)
            if retain_passes:
                m["prev_records"] = prev[:retain_passes]
            else:
                m.pop("prev_records", None)
            # manifest rewrite first (atomic), THEN file deletion: a crash
            # between the two leaks bytes (re-run vacuums them), never
            # dangles a reference
            store.rewrite(pid, m)
            trimmed += 1
        from migration_pair_ray.state.bloom import gc_partition_files
        nf, nb = gc_partition_files(cfg.lake_dir, pid, referenced_files(m))
        files_deleted += nf
        bytes_freed += nb
    return {"partitions": parts, "manifests_trimmed": trimmed,
            "files_deleted": files_deleted, "bytes_freed": bytes_freed,
            "inactive_swept": swept, "retain_passes": retain_passes}


def maybe_split_oversized(cfg: JobConfig, max_rows: int,
                          fanout: int = 2) -> list[dict]:
    """Size guard as a maintenance action: split every active partition
    whose committed ``row_count`` exceeds ``max_rows``.  Children of a
    previous split are eligible too (their BASE is re-split at a widened
    fanout).  Returns the split summaries."""
    meta = LakeMeta(cfg.lake_dir)
    cur = meta.read()
    if cur is None:
        return []
    p = int(cur["num_partitions"])
    store = ManifestStore(cfg.manifest_dir)
    # collect first, split after: a split mutates the active-id set, and
    # two oversized children of one base must widen that base ONCE
    oversized: list[int] = []
    for pid in meta.active_partition_ids():
        m = store.read(pid)
        if m and int(m["row_count"]) > max_rows:
            oversized.append(pid % p)
    out = []
    for base in dict.fromkeys(oversized):
        prev = meta.splits().get(base)
        new_fanout = (prev[0] * 2) if prev else fanout
        out.append(split_partition(cfg, base, new_fanout))
    return out


def compact_deltas(cfg: JobConfig, base_pid: int | None = None) -> dict:
    """Fold merge-on-read delta files back into a plain base for every
    active partition carrying deltas (or just ``base_pid``), under the
    writer lease.  The logical content is unchanged — same pass_id, same
    history — so this is a pure layout rewrite: new base files land
    (fsync'd) first, the manifest rewrite is the atomic flip, and the old
    base + delta files are GC'd after (a crash in between leaks bytes
    that the next vacuum/compact sweeps, never a dangling reference).
    Read-side features that refuse MoR partitions (the value index) work
    again after this."""
    with _lease(cfg, "compact"):
        return _compact_deltas_locked(cfg, base_pid)


def _compact_one_partition(lake_dir: str, m: dict, state_chunk_rows: int,
                           hash_state: bool, kernel: str = "row") -> dict:
    """Fold one MoR partition's base + deltas and write the new base files
    (fsync'd, names disjoint from every live file) — the per-partition
    task of compact_deltas.  Returns the replacement manifest record; the
    driver performs the atomic rewrite + GC.  Honors the chunked layout:
    with ``state_chunk_rows > 0`` the fold re-chunks at key boundaries
    instead of collapsing into one unbounded file."""
    from migration_pair_ray.state.manifest import LAYOUT_KEYS
    merged = read_state_table(lake_dir, m, kernel=kernel)  # base+deltas folded
    # the -c<n> tag keeps names disjoint from the live base (same pass_id)
    # so a crash mid-write can never clobber a referenced file
    tag = f"{m['pass_id']}-c{len(m['delta_files'])}"
    layout, _ = write_partition_state(lake_dir, int(m["partition"]), tag,
                                      merged, state_chunk_rows, hash_state)
    return dict({k: v for k, v in m.items() if k not in LAYOUT_KEYS},
                **layout)


def _compact_deltas_locked(cfg: JobConfig, base_pid: int | None) -> dict:
    from migration_pair_ray.state.bloom import gc_partition_files
    from migration_pair_ray.state.manifest import referenced_files
    meta = LakeMeta(cfg.lake_dir)
    if meta.read() is None:
        raise LakeLayoutError(f"no lake at {cfg.lake_dir} — nothing to compact")
    store = ManifestStore(cfg.manifest_dir)
    pids = ([base_pid] if base_pid is not None
            else meta.active_partition_ids(cfg.num_partitions))
    todo = []
    for pid in pids:
        m = store.read(pid)
        if m and m.get("delta_files"):
            todo.append(dict(m, partition=int(pid)))
    # fold + write in one task per partition (bounded memory); the
    # manifest flips + GC below are tiny and serial
    kernel = meta.merge_kernel()
    recs = ray.get([remote_call.remote(
        _compact_one_partition, cfg.lake_dir, m, cfg.state_chunk_rows,
        cfg.hash_state, kernel) for m in todo])
    files_deleted = 0
    for rec in recs:
        pid = int(rec["partition"])
        store.rewrite(pid, rec)                       # atomic flip
        nf, _ = gc_partition_files(cfg.lake_dir, pid, referenced_files(rec))
        files_deleted += nf
    return {"partitions_compacted": len(todo),
            "files_deleted": files_deleted}
