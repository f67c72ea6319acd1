"""Transactional-consistency gate for the CDC ingest (txn boundaries).

A CDC stream that tails a transactional source carries events in COMMIT
order only per transaction; the commit itself is a separate marker record
(Debezium's transaction-metadata events; MySQL binlog XID; Postgres WAL
commit).  Applying a transaction's events before its commit marker has
arrived exposes readers to dirty/torn writes: half a multi-row transaction
visible, the other half still in flight — and an ABORTED transaction must
never become visible at all.  The reference copies committed rows only by
construction (a Cassandra scan reads committed state,
``Tasks/MigrationTask.cs:84-92``); a log-tailing engine has to enforce the
boundary itself.

Wire form (optional, per event): a ``txn_id`` string column.
  * ``txn_id`` null  → autocommit event, applied immediately.
  * ``txn_id`` set   → applied only once a COMMIT MARKER for that txn has
    been seen.  Markers are rows with ``op == "C"`` and the ``txn_id`` set
    (all other columns null); they carry no data and never reach the merge.

Apply rule per pass (``cfg.txn_boundary = True``):

    committed = registry(all prior passes' markers) ∪ markers(this pass)
    input     = new change files ∪ PENDING store of the last committed pass
    released  = input events with txn_id null or txn_id ∈ committed
    held      = the rest → written to this pass's pending store

so an event whose marker arrives K passes later is applied in THAT pass —
correct under LWW because the merge kernel is a join-semilattice: apply
order cannot change winners, only visibility timing.  An aborted
transaction's events stay pending forever (they are the anomaly set, like
quarantine) until an operator inspects/drops them.

Durability mirrors the lake's idempotent-commit discipline:

* pending files are CONTENT-ADDRESSED under ``_txns/pending-<pass_id>/``
  (same contract as ``stages/quarantine``): a retried task rewrites
  identical bytes; the uncommitted pass's directory is wiped before the
  run, so a crashed attempt can never double-count;
* the marker registry is one ``markers-<pass_id>.parquet`` per pass,
  written (fsync'd, atomic) BEFORE the pass checkpoint commits; only
  registry files of COMMITTED passes are folded, so a crashed pass's
  orphan can never release early under a different later pass;
* the pending store consumed by a pass is the one named by the LAST
  COMMITTED pass — a deterministic function of the checkpoint history, so
  crash-retry of a pass reproduces bit-identical state AND bit-identical
  pending content.

Scale notes (10^10 events): the released/held split is one vectorized
``pc.is_in`` per block against a broadcast (``ray.put``) sorted id array —
one marker id per transaction, ~32 B each, so 10^8 live transactions ≈
3 GB broadcast: beyond that, swap the broadcast for a distributed
semi-join against the registry table (``stages/join.hash_join``), same
contract.  The pending store is rewritten each pass (cost O(pending)); it
is bounded by the in-flight + aborted set, not by log size.  Trim old
marker ids only with a late-event policy in hand: an event arriving after
its marker id was trimmed would be held forever.

Interplay: ``rollback_to`` does NOT un-consume the change log, so the
newest pending store stays correct after a rollback (pending tracks
consumed-but-unreleased events, not applied state).  Feed/replica
consumers of a txn-gated lake's raw change files must run the same
``txn_boundary`` config; ``bootstrap_replica`` (internal-state export) is
gate-free by construction — released state only.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from migration_pair_ray.sources.readers import read_parquet_file

TXN_COL = "txn_id"
OP_COMMIT = "C"


def txn_root(cfg) -> Path:
    return Path(cfg.lake_dir) / "_txns"


def pending_dir(cfg, pass_id: str) -> Path:
    return txn_root(cfg) / f"pending-{pass_id}"


def pending_files(cfg, pass_id: str) -> list[str]:
    d = pending_dir(cfg, pass_id)
    return sorted(str(p) for p in d.glob("p-*.parquet"))


def _last_committed_pass(cfg) -> str | None:
    from migration_pair_ray.state.manifest import CheckpointStore
    seqs = CheckpointStore(cfg.checkpoint_dir).pass_seqs()
    return max(seqs, key=seqs.get) if seqs else None


def scan_new_markers(files: list[str]) -> list[str]:
    """Distinct commit-marker txn ids across this pass's NEW change files,
    read in the driver (one open per file, no Arrow thread pool) and
    column-pruned (op + txn_id only); files
    without a txn_id column cannot carry markers and are skipped from the
    read entirely (footer check)."""
    out: set[str] = set()
    for f in files:
        if TXN_COL not in pq.read_schema(f).names:
            continue
        t = read_parquet_file(f, columns=["op", TXN_COL])
        m = t.filter(pc.equal(t.column("op"), OP_COMMIT))
        out.update(pc.unique(m.column(TXN_COL)).drop_null().to_pylist())
    return sorted(out)


def registry_ids(cfg) -> set[str]:
    """Marker ids from every COMMITTED pass's registry file.  Orphan
    registries (a crashed attempt whose pass never committed) are ignored:
    their files re-enter a later pass and re-derive the same ids."""
    from migration_pair_ray.state.manifest import CheckpointStore
    root = txn_root(cfg)
    if not root.exists():
        return set()
    committed = set(CheckpointStore(cfg.checkpoint_dir).pass_seqs())
    out: set[str] = set()
    for p in root.glob("markers-*.parquet"):
        if p.name[len("markers-"):-len(".parquet")] in committed:
            t = pq.read_table(str(p), columns=[TXN_COL])
            out.update(t.column(TXN_COL).to_pylist())
    return out


def commit_markers(cfg, pass_id: str, ids: list[str]) -> None:
    """Write this pass's marker-registry delta — BEFORE the checkpoint
    commits, atomic + fsync'd, idempotent (deterministic content)."""
    root = txn_root(cfg)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"markers-{pass_id}.parquet"
    t = pa.table({TXN_COL: pa.array(sorted(ids), pa.string())})
    from migration_pair_ray.stages.applier import _fsync_write_parquet
    _fsync_write_parquet(t, str(path))


def gc_superseded(cfg, current_pass: str) -> None:
    """After the pass checkpoint commits: the current pending store
    supersedes every older one (its content carries forward unreleased
    rows), and orphan attempt dirs are dead — delete both.  Registry
    files are kept for all committed passes (they ARE the committed-txn
    set); a crashed attempt's orphan registry is deleted."""
    from migration_pair_ray.state.manifest import CheckpointStore
    root = txn_root(cfg)
    if not root.exists():
        return
    committed = set(CheckpointStore(cfg.checkpoint_dir).pass_seqs())
    for d in root.glob("pending-*"):
        if d.is_dir() and d.name != f"pending-{current_pass}":
            shutil.rmtree(d, ignore_errors=True)
    for p in root.glob("markers-*.parquet"):
        pid = p.name[len("markers-"):-len(".parquet")]
        if pid != current_pass and pid not in committed:
            p.unlink(missing_ok=True)


def prepare_pass(cfg, pass_id: str, files: list[str]) -> dict:
    """Driver-side setup for a txn-gated pass.  Returns everything the
    gate needs: the previous pending store's files (extra read inputs),
    this pass's new marker ids, a broadcast ref of the full committed-id
    set, and the (wiped) pending directory for held rows."""
    pdir = pending_dir(cfg, pass_id)
    # this pass is uncommitted — any existing dir is a crashed attempt
    # whose files may reflect a different block split
    shutil.rmtree(pdir, ignore_errors=True)
    pdir.mkdir(parents=True, exist_ok=True)
    prev = _last_committed_pass(cfg)
    pending_prev = pending_files(cfg, prev) if prev else []
    new_markers = scan_new_markers(files)
    committed = registry_ids(cfg)
    committed.update(new_markers)
    ids_ref = ray.put(pa.array(sorted(committed), pa.string()))
    return {"pending_prev": pending_prev, "new_markers": new_markers,
            "ids_ref": ids_ref, "pending_dir": str(pdir)}


def make_txn_gate(pend_dir: str, ids_ref):
    """Batch fn for ``map_batches``: drops commit markers, releases events
    of committed (or autocommit) transactions with ``txn_id`` stripped,
    writes held rows (txn_id retained) content-addressed under
    ``pend_dir``.  Vectorized; the committed-id array is fetched from the
    object store once per worker and cached."""
    cache: dict = {}

    def gate(batch: pa.Table) -> pa.Table:
        if TXN_COL not in batch.column_names:
            # autocommit-only stream: nothing to hold, no markers possible
            return batch
        ev = batch.filter(pc.not_equal(
            pc.fill_null(batch.column("op"), ""), OP_COMMIT))
        if "ids" not in cache:
            cache["ids"] = ray.get(ids_ref)
        txn = ev.column(TXN_COL)
        released_mask = pc.or_(
            pc.is_null(txn),
            pc.is_in(txn, value_set=cache["ids"]))
        held = ev.filter(pc.invert(released_mask))
        if held.num_rows:
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, held.schema) as w:
                w.write_table(held)
            digest = hashlib.sha256(sink.getvalue()).hexdigest()[:24]
            final = Path(pend_dir) / f"p-{digest}.parquet"
            if not final.exists():
                tmp = Path(pend_dir) / f".p-{digest}.{os.getpid()}.tmp"
                pq.write_table(held, str(tmp))
                os.replace(tmp, final)
        return ev.filter(released_mask).drop_columns([TXN_COL])
    return gate


def pending_total(cfg, pass_id: str) -> int:
    """Row count across a pass's pending files — footers only.  Same
    distinct-content semantics as ``quarantine.quarantined_total``."""
    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in pending_files(cfg, pass_id))


def pending_table(cfg, pass_id: str | None = None) -> pa.Table:
    """The current (or a named pass's) pending store as one table —
    operator forensics: which transactions are still in flight/aborted.
    Bounded by the anomaly set, driver-side by design."""
    pid = pass_id or _last_committed_pass(cfg)
    files = pending_files(cfg, pid) if pid else []
    if not files:
        return pa.table({})
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="permissive")
