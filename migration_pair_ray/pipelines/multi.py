"""Multi-source ingest: replay K independent change logs into ONE lake.

A sharded upstream (per-vnode Cassandra scans — the reference runs one
stream per table/range, ``Tasks/MigrationTask.cs:84-92`` — MySQL binlog
shards, Kafka partitions) emits several independent logs whose offsets are
incomparable: each source's lsn is monotone only within that source.  The
engine makes them comparable by NAMESPACING: event ``(k, lsn)`` from
source ``k`` of ``K`` maps to

    global_lsn = lsn * K + k

which preserves each source's internal order, never collides across
sources, and is deterministic under ANY interleaving of the physical reads
(the total order is a pure function of the data, not of scheduling).  The
LWW kernel then orders by (ts, global_lsn) exactly as single-source replay
does — event-time first, namespaced offset as the tiebreak — so replaying
the same events through one log or through K shards yields bit-identical
final state.

Durability contract:
- The source registry (``_checkpoint/sources.json``: ordered
  ``[{name, dir}]``) is part of the lake's identity — indices define the
  namespace, so a re-run with sources added/removed/reordered would
  silently re-namespace history; the registry check refuses instead.
  Directories may move (the registry updates), names and order may not.
- Checkpoints record files as ``src{k}:{basename}`` (the same pattern as
  bulk loads' ``bulk:`` namespace), so same-named batch files in
  different sources can never alias each other or a future single-source
  batch, and resume is per-source incremental: a new file in ANY source
  is picked up by the next pass, everything committed is skipped.
- Each source directory is append-only, enforced per source exactly like
  single-source ``discover`` (a committed basename reappearing with a
  different size raises).

Feed/replicate do NOT serve multi-source passes (a follower linking raw
shard files into one changelog would collapse the namespacing and corrupt
LWW tie-breaks) — ``bootstrap_replica`` is the supported replication path:
it exports INTERNAL state, where lsn is already the namespaced global
value.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from migration_pair_ray.config import JobConfig
from migration_pair_ray.state.manifest import (CheckpointStore, LakeMeta,
                                               _atomic_write)

SOURCE_NS_RE = re.compile(r"^src\d+:")


def _namespace(k: int) -> str:
    return f"src{k}:"


def _registry_path(cfg: JobConfig) -> Path:
    return Path(cfg.checkpoint_dir) / "sources.json"


def load_sources(cfg: JobConfig) -> list[dict] | None:
    """The lake's committed source registry (ordered [{name, dir}]), or
    None when the lake has never seen a multi-source pass."""
    try:
        with open(_registry_path(cfg)) as f:
            return json.load(f)["sources"]
    except FileNotFoundError:
        return None


def _check_registry(cfg: JobConfig, source_dirs: list[str],
                    source_names: list[str]) -> None:
    """Commit the registry on first use; on re-use refuse any change to
    the name SEQUENCE (indices are the lsn namespace — reordering would
    re-namespace history).  Moved directories are tolerated and the
    registry is updated to the new paths."""
    existing = load_sources(cfg)
    if existing is not None:
        names = [s["name"] for s in existing]
        if names != source_names:
            raise ValueError(
                f"multi-source registry mismatch: this lake was built from "
                f"sources {names} (in that order — the order IS the lsn "
                f"namespace) but replay_multi was called with "
                f"{source_names}; adding, removing, renaming or reordering "
                f"sources would silently re-namespace history")
    rec = {"sources": [{"name": n, "dir": str(Path(d).resolve())}
                       for n, d in zip(source_names, source_dirs)]}
    if existing is None or rec["sources"] != existing:
        Path(cfg.checkpoint_dir).mkdir(parents=True, exist_ok=True)
        _atomic_write(str(_registry_path(cfg)), json.dumps(rec).encode())


def _discover_source(changelog_dir: str, ns: str, done: set[str],
                     sizes: dict[str, int]) -> list[str]:
    """Uncommitted change files of ONE source, in epoch order, enforcing
    the per-source append-only contract under the namespaced basenames
    (mirror of sources.changelog.discover with a committed-name prefix)."""
    import os
    files = sorted(str(p) for p in Path(changelog_dir).glob("batch-*.parquet"))
    out = []
    for f in files:
        name = ns + Path(f).name
        if name in done:
            if name in sizes and os.path.getsize(f) != sizes[name]:
                raise RuntimeError(
                    f"change file {name} was already committed with size "
                    f"{sizes[name]} but now has size {os.path.getsize(f)}: "
                    f"each source log is append-only; a committed file "
                    f"must not be modified in place")
            continue
        out.append(f)
    return out


def _shift_lsn(k: int, n_sources: int):
    """Per-source stage mapping lsn → lsn * K + k (the global namespace).
    int64 headroom: 10^10 events across even 10^4 shards is < 2^63."""
    def shift(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("lsn")
        g = pc.add(pc.multiply(t.column("lsn"), pa.scalar(n_sources,
                                                          pa.int64())),
                   pa.scalar(k, pa.int64()))
        return t.set_column(i, "lsn", g)
    return shift


def _pass_id_ns(pairs: list[tuple[str, str]]) -> str:
    """Deterministic pass id over (namespaced basename, size) — the
    namespaced mirror of state.manifest.compute_pass_id (same-named files
    in different sources must not alias)."""
    import hashlib
    import os
    h = hashlib.sha256()
    for ns, p in sorted(pairs, key=lambda x: x[0] + Path(x[1]).name):
        h.update((ns + Path(p).name).encode())
        h.update(str(os.path.getsize(p)).encode())
    return h.hexdigest()[:16]


def replay_multi(cfg: JobConfig, source_dirs: list[str],
                 source_names: list[str] | None = None) -> dict:
    """Replay all uncommitted change files of every source into the lake
    under the namespaced global order.  Idempotent and per-source
    incremental, same crash/resume semantics as single-source ``replay``
    (manifest-gated partition commits; the pass checkpoint lands last).

    ``cfg.changelog_dir`` is ignored — the sources ARE the changelogs."""
    t0 = time.perf_counter()
    if not source_dirs:
        raise ValueError("replay_multi needs at least one source dir")
    names = (source_names if source_names is not None
             else [f"src{k}" for k in range(len(source_dirs))])
    if len(names) != len(source_dirs):
        raise ValueError("source_names must match source_dirs 1:1")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate source names: {names}")

    import contextlib

    from migration_pair_ray.state.lock import WriterLease
    lease = (WriterLease(cfg.lake_dir, "replay_multi", cfg.writer_lease_ttl_s)
             if cfg.writer_lease else contextlib.nullcontext())
    with lease:
        return _replay_multi_locked(cfg, source_dirs, names, t0)


def _replay_multi_locked(cfg: JobConfig, source_dirs: list[str],
                         names: list[str], t0: float) -> dict:
    from migration_pair_ray.pipelines.replay import (_parsed_footers,
                                                     _write_lineage,
                                                     apply_changes_ds,
                                                     unified_schema)

    _check_registry(cfg, source_dirs, names)
    ck = CheckpointStore(cfg.checkpoint_dir)
    done, sizes = ck.committed_files(), ck.committed_sizes()
    K = len(source_dirs)
    per_source = [_discover_source(d, _namespace(k), done, sizes)
                  for k, d in enumerate(source_dirs)]
    if not any(per_source):
        meta = LakeMeta(cfg.lake_dir)
        if meta.read() is not None:
            meta.ensure(cfg.num_partitions, cfg.partition_mode,
                        cfg.merge_kernel, cfg.hot_convs)
        return {"pass_id": None, "files": 0, "events_in": 0, "partitions": 0,
                "sources": {n: 0 for n in names},
                "seconds": 0.0, "events_per_sec": 0.0, "up_to_date": True}

    meta = LakeMeta(cfg.lake_dir)
    meta.ensure(cfg.num_partitions, cfg.partition_mode, cfg.merge_kernel,
                cfg.hot_convs)

    pairs = [(_namespace(k), f)
             for k, files in enumerate(per_source) for f in files]
    pass_id = _pass_id_ns(pairs)
    # ONE unified schema across every source's files: schema evolution is
    # global (a source that gained `tool` widens the whole stream)
    footers = _parsed_footers([f for _, f in pairs])
    schema = unified_schema(list(footers.values()))
    pass_seq = ck.next_seq()

    qdir = None
    if cfg.quarantine_dir:
        import shutil
        qdir = Path(cfg.quarantine_dir) / f"pass-{pass_id}"
        shutil.rmtree(qdir, ignore_errors=True)
        qdir.mkdir(parents=True, exist_ok=True)

    gates = []
    if qdir is not None:
        from migration_pair_ray.stages.quarantine import make_quarantine_gate
        gates.append(make_quarantine_gate(str(qdir), cfg.merge_kernel))
    lineage, plan, file_rows = apply_changes_ds(
        [(files, [_shift_lsn(k, K), *gates])
         for k, files in enumerate(per_source) if files],
        schema, cfg, pass_id, splits=meta.splits(),
        hot_convs=meta.hot_convs(), pass_seq=pass_seq, footers=footers)

    src_events = {n: sum(file_rows[f] for f in files)
                  for n, files in zip(names, per_source)}
    events_in = sum(src_events.values())
    _write_lineage(cfg, pass_id, lineage)
    ck.commit_pass(
        pass_id, pairs, seq=pass_seq,
        stats={"events_in": events_in, "partitions": lineage.num_rows,
               "sources": src_events,
               "schema": {f.name: str(f.type) for f in schema},
               **plan})
    quarantined = 0
    if qdir is not None:
        from migration_pair_ray.stages.quarantine import quarantined_total
        quarantined = quarantined_total(str(qdir))
    splits_done = 0
    if cfg.auto_split_max_rows > 0:
        from migration_pair_ray.pipelines.compact import maybe_split_oversized
        splits_done = len(maybe_split_oversized(cfg, cfg.auto_split_max_rows))
    dt = time.perf_counter() - t0
    return {
        "pass_id": pass_id,
        "splits": splits_done,
        "quarantined": quarantined,
        "files": len(pairs),
        "events_in": events_in,
        "sources": src_events,
        "partitions": lineage.num_rows,
        "rows_state": int(pc.sum(lineage.column("rows_state")).as_py() or 0),
        "tombstones": int(pc.sum(lineage.column("tombstones")).as_py() or 0),
        "skipped_partitions": int(pc.sum(pc.cast(
            lineage.column("skipped"), pa.int64())).as_py() or 0),
        "seconds": dt,
        "events_per_sec": events_in / dt if dt > 0 else 0.0,
        "up_to_date": False,
    }
