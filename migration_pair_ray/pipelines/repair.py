"""Targeted replica repair — the fix half of the audit ``verify_replica``
provides (pipelines/feed.py).

``verify_replica`` localizes divergence to key-space buckets (hash of the
canonicalized visible row mod n_buckets).  ``repair_replica`` makes the
follower's visible state equal to the source again by transplanting ONLY
the diverged keys — cost O(diverged rows) + one rewrite per touched
follower partition, never a full re-bootstrap:

1. audit           → the set of mismatched buckets B (empty ⇒ no-op)
2. key discovery   → distributed scan of BOTH lakes' visible states,
                     keeping only rows whose canonical hash lands in B;
                     the driver sees just the (bounded) diverged key set
3. source fetch    → the source's INTERNAL rows (tombstone winners /
                     cell determiner rows, original ts/lsn/op intact)
                     for those keys — same reasoning as
                     ``bootstrap_replica``: visible rows alone would let
                     late pre-tombstone events resurrect on the follower
4. partition surgery → for each follower partition that routes any
                     repaired key: drop its rows for those keys, splice
                     in the source rows, rewrite state (single-file or
                     chunked per the follower's layout), commit a new
                     manifest record
5. commit          → one checkpointed repair pass (no change files — the
                     feed/replicate surface refuses to serve it, exactly
                     like a rollback pass), then a re-audit

Key membership is tested by 64-bit hash: a collision can only WIDEN the
repair (an extra key gets its source state copied — a no-op when the
sides already agree), never narrow it.

Reference parity note: the reference (Mycenae) has no repair surface —
divergence between Cassandra source and target was handled by re-running
the full copy (Tasks/MigrationTask.cs).  O(diverged) repair is what that
becomes when the target is a 100-TB lake.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import remote_call


def _key_hash64(conv: pa.ChunkedArray | pa.Array,
                turn: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic 64-bit hash of the merge key (vectorized, cross-node
    stable — same discipline as stages/partition.py)."""
    from migration_pair_ray.stages.partition import _GOLDEN, hash_strings
    h = hash_strings(conv)
    t = (pc.fill_null(pc.cast(turn, pa.int64()), -1)
         .to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64))
    return (h ^ (t * _GOLDEN)) * _GOLDEN


def _discover_keys(cfg: JobConfig, bad: frozenset[int],
                   n_buckets: int) -> "ray.data.Dataset":
    """Distributed scan of one lake's VISIBLE state → the (conv_id,
    turn_idx) keys whose canonical row hash falls in a mismatched bucket.
    Emits a tiny keys-only table per block; the full state never reaches
    the driver."""
    from migration_pair_ray.pipelines.feed import canonical_row_hash64
    from migration_pair_ray.pipelines.replay import final_state
    bad_arr = np.fromiter(bad, dtype=np.uint64)

    def pick(t: pa.Table) -> pa.Table:
        empty = pa.table({"conv_id": pa.array([], pa.string()),
                          "turn_idx": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        h = canonical_row_hash64(t)
        mask = np.isin(h % np.uint64(n_buckets), bad_arr)
        if not mask.any():
            return empty
        kept = t.filter(pa.array(mask))
        return pa.table({
            "conv_id": kept.column("conv_id"),
            "turn_idx": pc.cast(kept.column("turn_idx"), pa.int64())})

    return final_state(cfg, sort=False).map_batches(
        pick, batch_format="pyarrow")


def _repair_partition(lake_dir: str, prev: dict | None, kernel: str,
                      key_set: np.ndarray, add: pa.Table, pid: int,
                      route_mask: np.ndarray, pass_id: str,
                      state_chunk_rows: int, hash_state: bool) -> dict:
    """Rewrite ONE follower partition: drop rows whose key hash is in
    ``key_set`` (sorted uint64), splice in the source's rows routed here
    (``route_mask`` over the broadcast repair table ``add``), return the
    new manifest record (uncommitted — the driver owns the commit order)."""
    from migration_pair_ray.functions.lww import _SORT_KEYS
    from migration_pair_ray.stages.applier import (lsn_range,
                                                   read_state_table,
                                                   write_partition_state)

    existing = read_state_table(lake_dir, prev, kernel=kernel)
    parts = []
    if existing is not None and existing.num_rows:
        h = _key_hash64(existing.column("conv_id"),
                        existing.column("turn_idx"))
        keep = ~np.isin(h, key_set)
        if keep.any():
            parts.append(existing.filter(pa.array(keep)))
    if route_mask.any():
        parts.append(add.filter(pa.array(route_mask)))
    if parts:
        merged = (parts[0] if len(parts) == 1
                  else pa.concat_tables(parts, promote_options="permissive"))
        merged = merged.sort_by(_SORT_KEYS)
    else:
        merged = None

    record: dict = {"partition": pid, "pass_id": pass_id}
    if merged is None or merged.num_rows == 0:
        # canonical empty record (same shape rollback_to commits)
        record.update(row_count=0, tombstones=0, data_file=None)
        return record

    layout, _ = write_partition_state(lake_dir, pid, pass_id, merged,
                                      state_chunk_rows, hash_state)
    record.update(layout, **lsn_range(merged))
    return record


def repair_replica(src: JobConfig, dst: JobConfig, n_buckets: int = 256,
                   verify_after: bool = True) -> dict:
    """Converge ``dst``'s visible state back onto ``src``'s by repairing
    ONLY the diverged keys (docstring at module top).  Runs under
    ``dst``'s writer lease; idempotent (a re-run after the repair audits
    clean and no-ops); crash-safe (the checkpoint lands last — a crash
    mid-commit re-runs the repair, whose per-partition writes are
    name-deterministic for the same pass seq)."""
    from migration_pair_ray.pipelines.compact import _lease
    with _lease(dst, "repair"):
        return _repair_locked(src, dst, n_buckets, verify_after)


def _repair_locked(src: JobConfig, dst: JobConfig, n_buckets: int,
                   verify_after: bool) -> dict:
    from migration_pair_ray.pipelines.feed import verify_replica
    from migration_pair_ray.pipelines.replay import read_lake
    from migration_pair_ray.stages.partition import partition_ids
    from migration_pair_ray.state.manifest import (CheckpointStore, LakeMeta,
                                                   ManifestStore)
    t0 = time.perf_counter()
    src_meta = LakeMeta(src.lake_dir).read()
    dst_meta_o = LakeMeta(dst.lake_dir)
    dst_meta = dst_meta_o.read()
    if src_meta is None or dst_meta is None:
        raise ValueError("repair_replica needs both lakes written "
                         "(missing _lake_meta)")
    if (src_meta.get("merge_kernel", "row")
            != dst_meta.get("merge_kernel", "row")):
        raise ValueError(
            f"repair kernel mismatch: source lake is "
            f"{src_meta.get('merge_kernel', 'row')!r}, follower is "
            f"{dst_meta.get('merge_kernel', 'row')!r} — internal-state "
            f"transplants are only meaningful under the same kernel")
    kernel = dst_meta.get("merge_kernel", "row")

    bad_tbl = verify_replica(src, dst, n_buckets=n_buckets)
    if bad_tbl.num_rows == 0:
        return {"repaired": False, "bad_buckets": 0, "keys": 0,
                "partitions": 0, "seconds": time.perf_counter() - t0}
    bad = frozenset(int(b) for b in bad_tbl.column("bucket").to_pylist())

    # 2. diverged keys, both sides, one streaming union execution
    keys_ds = (_discover_keys(src, bad, n_buckets)
               .union(_discover_keys(dst, bad, n_buckets)))
    # iter_batches(batch_format="pyarrow") yields pa.Table blocks
    key_batches = list(keys_ds.iter_batches(batch_format="pyarrow"))
    keys_tbl = (pa.concat_tables(key_batches, promote_options="permissive")
                if key_batches else None)
    if keys_tbl is None or keys_tbl.num_rows == 0:
        # buckets mismatched on aggregate counts but no single row is
        # locatable — cannot happen with the shared canonical hash; guard
        # anyway rather than report success
        raise RuntimeError(
            f"audit flagged buckets {sorted(bad)} but key discovery found "
            f"no rows — canonicalization drift between verify and repair")
    key_set = np.unique(_key_hash64(keys_tbl.column("conv_id"),
                                    keys_tbl.column("turn_idx")))

    # 3. source internal rows for the diverged keys (bounded by
    # divergence; cell lakes contribute every determiner row of a key)
    def pick_src(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        h = _key_hash64(t.column("conv_id"), t.column("turn_idx"))
        return t.filter(pa.array(np.isin(h, key_set)))

    picked = list(read_lake(src).map_batches(pick_src, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow"))
    # no batch when every diverged key exists on the follower only
    repair_rows = (pa.concat_tables(picked, promote_options="permissive")
                   if picked else pa.table({}))

    # 4. route every spliced row AND every diverged key under the
    # follower's layout; the union of both routings is the touched set
    # (a dst-only ghost key has no source row but its partition must
    # still be rewritten to drop it)
    n_parts = int(dst_meta["num_partitions"])
    mode = dst_meta.get("partition_mode", dst.partition_mode)
    splits = dst_meta_o.splits()
    hot = dst_meta_o.hot_convs()
    row_pids = (partition_ids(repair_rows, n_parts, mode, splits, hot)
                if repair_rows.num_rows else np.array([], np.int32))
    key_pids = partition_ids(keys_tbl, n_parts, mode, splits, hot)
    touched = sorted(set(row_pids.tolist()) | set(key_pids.tolist()))

    ck = CheckpointStore(dst.checkpoint_dir)
    seq = ck.next_seq()
    rb_pass = hashlib.sha256(
        f"repair:{','.join(map(str, sorted(bad)))}:{seq}".encode()
    ).hexdigest()[:16]

    store = ManifestStore(dst.manifest_dir)
    rows_ref = ray.put(repair_rows)
    records = ray.get([remote_call.remote(
        _repair_partition, dst.lake_dir, store.read(pid), kernel, key_set,
        rows_ref, pid, row_pids == pid, rb_pass, dst.state_chunk_rows,
        dst.hash_state) for pid in touched])

    # 5. commit — manifests first (idempotent: same seq → same pass id →
    # same file names/bytes on retry), job checkpoint last
    from migration_pair_ray.state.bloom import gc_partition_files
    from migration_pair_ray.state.manifest import referenced_files
    for pid, rec in zip(touched, records):
        if seq >= 0:
            rec = dict(rec, pass_seq=seq)
        rec["repair_of"] = {"bad_buckets": sorted(bad),
                            "src_lake": src.lake_dir}
        store.commit(pid, rec, retain=dst.retain_passes)
        # GC exactly like the applier: keep whatever the committed
        # manifest (current + retained prev records) still pins
        gc_partition_files(dst.lake_dir, pid,
                           referenced_files(store.read(pid)))
    ck.commit_pass(rb_pass, [], seq=seq,
                   stats={"repair_of": src.lake_dir,
                          "bad_buckets": len(bad),
                          "keys": int(key_set.size),
                          "partitions": len(touched)})

    out = {"repaired": True, "pass_id": rb_pass,
           "bad_buckets": len(bad), "keys": int(key_set.size),
           "rows_spliced": repair_rows.num_rows,
           "partitions": len(touched),
           "seconds": time.perf_counter() - t0}
    if verify_after:
        out["clean_after"] = bool(
            verify_replica(src, dst, n_buckets=n_buckets).num_rows == 0)
    return out


# --------------------------------------------------------------------------
# Partition refill: disaster recovery from the retained change log


class RefillError(RuntimeError):
    """The partition cannot be reconstructed from this lake's change log
    (the error says why and what to do instead)."""


def _effective_passes(cfg: JobConfig) -> list[dict]:
    """Committed passes whose effects constitute the lake's CURRENT state,
    in seq order.  Folds rollbacks (a rollback pass removes every earlier
    pass above its target seq); refuses histories a log replay cannot
    express: unstamped passes, replica repairs (state spliced from another
    lake), multi-source ingests (lsn order holds only under the ingest's
    namespacing), and bulk loads (their bytes live outside the log)."""
    from migration_pair_ray.pipelines.feed import (FeedUnstampedError,
                                                   _refuse_multi_source)
    from migration_pair_ray.state.manifest import CheckpointStore
    ck = CheckpointStore(cfg.checkpoint_dir)
    recs = []
    for p in sorted(Path(ck.dir).glob("pass-*.json")):
        with open(p) as f:
            rec = json.load(f)
        if "seq" not in rec:
            raise FeedUnstampedError(
                f"pass {rec.get('pass_id')!r} has no seq stamp (older "
                f"engine version) — its position in the apply order is "
                f"unknowable; refill cannot reconstruct state")
        recs.append(rec)
    recs.sort(key=lambda r: int(r["seq"]))
    # fold FIRST, refuse after: a bulk/repair/multi-source pass that a
    # later rollback removed from the effective history must not block a
    # perfectly log-expressible recovery
    eff: list[dict] = []
    for rec in recs:
        stats = rec.get("stats") or {}
        if stats.get("rollback_to") is not None:
            t = int(stats["target_seq"])
            eff = [r for r in eff if int(r["seq"]) <= t]
            continue
        eff.append(rec)
    for rec in eff:
        stats = rec.get("stats") or {}
        if stats.get("repair_of") is not None:
            raise RefillError(
                f"pass {rec['pass_id']!r} is a replica repair from "
                f"{stats['repair_of']!r}: its spliced state is not in this "
                f"lake's change log — re-run repair_replica against that "
                f"replica instead of refill")
        _refuse_multi_source(rec, "refill a partition from")
        for name in rec.get("files", []):
            if name.startswith("bulk:"):
                raise RefillError(
                    f"pass {rec['pass_id']!r} is a bulk load "
                    f"({name!r}): its bytes were never in the change log — "
                    f"re-run the bulk load or bootstrap from a replica")
    return eff


def refill_partition(cfg: JobConfig, pid: int) -> dict:
    """Rebuild ONE partition's state from the retained change log — the
    recovery path for a lost/corrupted state file when no replica exists
    (``repair_replica`` is the cheaper fix when one does).

    O(log read) + O(one partition merge+write): every committed pass's
    change files are re-read (column-pruned only by Parquet row groups —
    the log IS the recovery source), filtered to the rows that route to
    ``pid`` under the lake's stamped layout (mode/splits/hot set), and
    merged in ONE pass — sound because both merge kernels are join-
    semilattices (the same property bootstrap_replica's overlap re-apply
    relies on), and per-log lsns are unique so cross-pass order is
    immaterial.  The quarantine gate is re-applied when configured (rows
    the original replay diverted must not resurrect).  Refuses lakes whose
    state is not a pure function of the log: txn-gated (held-back events
    interleave with a registry), repaired-from-replica, multi-source,
    bulk-loaded (see _effective_passes).

    The fresh manifest carries ``lineage_break`` (retained history for
    this partition is unrecoverable — it was corrupt) and is stamped with
    the LAST COMMITTED pass seq, so ``as_of='latest'`` resolves on a
    quiescent lake while older as-of reads raise.  Crash-safe: the
    manifest is deleted first (fsck flags the partition; a re-run
    completes the rebuild with the same deterministic pass id/bytes)."""
    from migration_pair_ray.pipelines.compact import _lease
    with _lease(cfg, "refill"):
        return _refill_locked(cfg, pid)


def _refill_locked(cfg: JobConfig, pid: int) -> dict:
    import pyarrow.compute as _pc  # noqa: F401  (kernels via pa.compute)
    from migration_pair_ray.pipelines.replay import (_parsed_footers,
                                                     apply_changes_ds,
                                                     unified_schema)
    from migration_pair_ray.stages.partition import partition_ids
    from migration_pair_ray.state.bloom import gc_partition_files
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore

    t0 = time.perf_counter()
    # keyed off the LAKE, not the caller's config: a txn-gated lake keeps
    # its registry at <lake>/_txns, so a config that forgot txn_boundary
    # cannot slip held-back uncommitted events into the rebuilt partition
    if cfg.txn_boundary or (Path(cfg.lake_dir) / "_txns").exists():
        raise RefillError(
            "refill on a txn-gated lake is not supported: held-back "
            "events interleave with the commit-marker registry; restore "
            "from a replica (bootstrap_replica) instead")
    meta = LakeMeta(cfg.lake_dir)
    cur = meta.read()
    if cur is None:
        raise RefillError(f"no lake at {cfg.lake_dir}")
    meta.ensure(cfg.num_partitions, cfg.partition_mode, cfg.merge_kernel,
                cfg.hot_convs)   # config must match the stamped layout
    active = set(meta.active_partition_ids(cfg.num_partitions))
    if pid not in active:
        raise RefillError(f"partition {pid} is not active in this layout "
                          f"(active: {sorted(active)})")

    eff = _effective_passes(cfg)
    paths: list[str] = []
    for rec in eff:
        for name in rec.get("files", []):
            p = Path(cfg.changelog_dir) / name
            if not p.exists():
                raise RefillError(
                    f"change file {name!r} of committed pass "
                    f"{rec['pass_id']!r} has left the log (truncated?): "
                    f"refill needs the full effective history — restore "
                    f"from a replica instead")
            paths.append(str(p))
    last_seq = max((int(r["seq"]) for r in eff), default=-1)

    h = hashlib.sha256(f"refill:{pid}:".encode())
    for p in paths:
        h.update(os.path.basename(p).encode() + b"\0")
    pass_id = h.hexdigest()[:16]

    # drop the (possibly corrupt) manifest so the merge starts from empty;
    # its files are GC'd AFTER the new commit (they may be the only copy
    # until the rebuild lands — and unreferenced bytes are harmless)
    store = ManifestStore(cfg.manifest_dir)
    store.delete(pid)

    n_parts = int(cur["num_partitions"])
    mode = cur["partition_mode"]
    splits = meta.splits()
    hot = meta.hot_convs()

    def keep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        ids = partition_ids(b, n_parts, mode, splits, hot)
        return b.filter(pa.array(ids == pid))

    rows_applied = 0
    # gate decision follows the HISTORY, not the caller's config: passes
    # record whether they ran gated ("gated" in checkpoint stats).  A
    # gated history refilled without the gate would resurrect diverted
    # malformed rows; an ungated history refilled WITH the gate would
    # drop rows the state legitimately contains.  Mixed or pre-recording
    # histories fall back to cfg with a refusal where that is unsafe.
    gated_flags = {(r.get("stats") or {}).get("gated") for r in eff}
    gated_flags.discard(None)
    if len(gated_flags) > 1:
        raise RefillError(
            "effective history mixes quarantine-gated and ungated passes "
            "— one refill pass cannot express both; restore from a "
            "replica instead")
    want_gate = (gated_flags.pop() if gated_flags
                 else bool(cfg.quarantine_dir))
    if want_gate and not cfg.quarantine_dir:
        raise RefillError(
            "this lake's passes ran with a quarantine gate but "
            "cfg.quarantine_dir is unset — set it so the refill diverts "
            "the same malformed rows the original replay did")

    plan: dict = {}
    if paths:
        gates = [keep]
        if want_gate:
            # same gate as replay: rows the original passes diverted to
            # the dead-letter sink must not resurrect in the merge.  Gate
            # AFTER keep(pid): partition_ids sentinel-routes even null-key
            # rows deterministically, so this refill's quarantine dir
            # holds exactly the malformed rows attributed to pid —
            # refilling every partition re-creates the original
            # dead-letter set ONCE, instead of each refill re-diverting
            # the whole lake's rejects into a fresh pass-<id> dir
            # (unbounded duplication across repeated refills)
            import shutil as _sh
            from migration_pair_ray.stages.quarantine import \
                make_quarantine_gate
            qdir = Path(cfg.quarantine_dir) / f"pass-{pass_id}"
            _sh.rmtree(qdir, ignore_errors=True)
            qdir.mkdir(parents=True, exist_ok=True)
            gates.append(make_quarantine_gate(str(qdir), cfg.merge_kernel))
        footers = _parsed_footers(paths)
        schema = unified_schema(list(footers.values()))
        lineage, plan, _ = apply_changes_ds([(paths, gates)], schema,
                                            cfg, pass_id, splits=splits,
                                            hot_convs=hot, pass_seq=last_seq,
                                            lineage_break=True, footers=footers)
        if lineage.num_rows:
            rows_applied = int(pa.compute.sum(
                lineage.column("rows_in")).as_py() or 0)

    rec = store.read(pid)
    if rec is None:
        # no surviving rows route here — commit an explicit empty record
        # (fsck sees a committed partition, not a missing manifest)
        empty = {"partition": pid, "pass_id": pass_id, "row_count": 0,
                 "tombstones": 0, "data_file": None, "lineage_break": True}
        if last_seq >= 0:
            empty["pass_seq"] = last_seq
        store.commit(pid, empty)
        gc_partition_files(cfg.lake_dir, pid, set())
        rec = store.read(pid)

    # the ops ledger must account for a state-mutating recovery: commit a
    # zero-change-file pass record (the rollback precedent) so
    # task_history shows the refill and the manifest's pass_id resolves
    # in the checkpoint store.  Lands LAST (crash above = re-run with the
    # same deterministic pass_id; commit_pass is idempotent on an
    # existing file).  Feed/replicate serve it as an empty pass — a
    # refill does not change visible state, so a consumer skipping it
    # cannot diverge (unlike a rollback, which they refuse).
    from migration_pair_ray.state.manifest import CheckpointStore
    CheckpointStore(cfg.checkpoint_dir).commit_pass(
        pass_id, [],
        stats={"refill_of": pid, "gated": bool(want_gate),
               "files_read": len(paths), **plan})

    return {"partition": pid, "pass_id": pass_id,
            "passes_replayed": len(eff), "files_read": len(paths),
            "rows_in_partition": rows_applied,
            "rows_state": int(rec.get("row_count", 0)),
            "seconds": time.perf_counter() - t0}


def refill_damaged(cfg: JobConfig) -> dict:
    """Self-healing sweep: deep-fsck the lake, refill every ACTIVE
    partition with a detected problem, re-audit.  Partition-scoped damage
    (lost/truncated/corrupt state files, duplicate or misrouted keys,
    manifest-count drift, missing retained files) is all fixed by a
    rebuild; non-partition problems (if any) are returned untouched in
    ``unfixed``.  One lease spans audit → refills → re-audit
    (refill_partition's acquisition is process-reentrant)."""
    from migration_pair_ray.pipelines.compact import _lease
    from migration_pair_ray.pipelines.fsck import validate_lake
    with _lease(cfg, "refill"):
        t0 = time.perf_counter()
        rep = validate_lake(cfg, deep=True)
        if rep["ok"]:
            return {"ok": True, "refilled": [], "unfixed": [],
                    "seconds": time.perf_counter() - t0}
        from migration_pair_ray.state.manifest import LakeMeta
        active = set(LakeMeta(cfg.lake_dir)
                     .active_partition_ids(cfg.num_partitions))
        pids = sorted({int(p["partition"]) for p in rep["problems"]
                       if int(p["partition"]) in active})
        results = [refill_partition(cfg, pid) for pid in pids]
        after = validate_lake(cfg, deep=True)
        return {"ok": after["ok"], "refilled": results,
                "unfixed": after["problems"],
                "seconds": time.perf_counter() - t0}
