"""Secondary value index over a lake column: postings + pruned probes.

The lake's primary access paths are key-routed (``pipelines/lookup``) or
full scans; a predicate on a NON-key column (``tool = 'w3'``,
``role = 'error'``) otherwise reads every state file.  This module adds the
classic inverted-index answer, shaped for the lake's own commit discipline:

- ``build_value_index(cfg, column)`` sweeps the committed state files ONCE
  (one Ray task per partition, column-pruned reads) and writes, per
  partition, a tiny postings file ``_index/<column>/part-<pid>.parquet``
  with rows ``(value, file, n_rows)`` — which state files contain which
  values.
- Builds are INCREMENTAL: each partition's postings are fingerprinted by
  its manifest's current state-file list + sizes (state files are
  immutable copy-on-write, so an unchanged list ⇒ unchanged contents); a
  rebuild re-sweeps only partitions whose fingerprint moved.  The
  ``_meta.json`` rewrite is the single atomic commit point.
- ``lookup_by_value(cfg, column, values)`` verifies every ACTIVE
  partition's fingerprint (a stale or missing posting raises
  ``IndexStaleError`` — never a silently partial answer), reads only the
  posting files, and then only the state files whose postings match,
  with Parquet ``filters=`` bounding even those reads.

At 100 TB the win is the usual one: postings are O(distinct values ×
chunks), thousands of times smaller than the lake, and a rare-value probe
touches O(matching chunks) files instead of all of them.  Splits, merges,
vacuum and new passes all change the manifest file lists, so freshness
needs no coupling to those code paths.

Reference analog: none — Cassandra owned secondary indexes natively; an
engine that owns its lake files must own the index discipline too.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.lww import visible_state
from migration_pair_ray.pipelines.replay import remote_call
from migration_pair_ray.state.manifest import (LakeMeta, ManifestStore,
                                               _atomic_write, record_files)


class IndexStaleError(RuntimeError):
    """The lake moved past the index: probe refused (rebuild first)."""


def _index_dir(cfg: JobConfig, column: str) -> Path:
    return Path(cfg.lake_dir) / "_index" / column


def _partition_fingerprint(lake_dir: str, files: list[str]) -> str:
    """Freshness token for one partition's current state: the sorted
    relative file list + byte sizes.  State files are immutable (every
    pass writes new ones), so equality ⇒ identical contents."""
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode())
        h.update(str(os.path.getsize(str(Path(lake_dir) / rel))).encode())
    return h.hexdigest()[:16]


def _current_partitions(cfg: JobConfig) -> tuple[dict[int, dict | None], str]:
    """(active pid → that partition's manifest AS READ NOW, lake kernel).

    Returns the manifest records themselves (not just file lists): every
    downstream step — fingerprinting, the build sweep, and the probes —
    must consume exactly this captured view.  Re-reading the store later
    (after ``_verify_fresh``) would open a race where a commit landing
    between the freshness check and the re-read hands back UNVERIFIED
    newer state, silently mixing vintages in one answer.

    Row-kernel lakes index at FILE grain (postings point at state files,
    probes read only matching files) but refuse partitions carrying
    merge-on-read deltas: a posting can point at a base row a delta has
    since superseded, so a probe could return stale winners.  Compact
    first (pipelines/compact.compact_deltas / CLI `compact`) — the
    read-optimized-view rule MoR lakehouse formats apply to their
    secondary indexes.

    Cell-kernel lakes index at PARTITION grain: a column's visible value
    folds from several determiner rows (possibly across files), so the
    build folds each partition (``read_state_table`` + ``cell_finalize``)
    and postings record visible values per partition; probes re-fold only
    matching partitions.  The fold path handles MoR deltas natively, and
    the fingerprint covers them (``record_files`` includes delta files),
    so cell indexes accept MoR partitions."""
    meta = LakeMeta(cfg.lake_dir)
    kernel = meta.merge_kernel()
    store = ManifestStore(cfg.manifest_dir)
    out: dict[int, dict | None] = {}
    for pid in meta.active_partition_ids(cfg.num_partitions):
        m = store.read(int(pid))
        if kernel == "row" and m and m.get("delta_files"):
            raise IndexStaleError(
                f"partition {pid} carries {len(m['delta_files'])} "
                f"merge-on-read delta file(s) — run compact_deltas before "
                f"building or probing a value index")
        out[int(pid)] = m
    return out, kernel


def build_value_index(cfg: JobConfig, column: str) -> dict:
    """Build (or incrementally refresh) the postings for ``column``.

    Returns ``{"partitions": N, "reindexed": K, "reused": N-K,
    "postings_rows": R}``.  Only partitions whose state-file fingerprint
    changed since the last build are re-swept; their postings files are
    rewritten atomically, and the ``_meta.json`` flip publishes the new
    index state as one step."""
    # writer lease: the build reads manifest-pinned files and writes into
    # the lake dir — a concurrent replay's commit-time GC could otherwise
    # delete a fingerprinted state file mid-sweep (same rule as every
    # other maintenance job: compact/vacuum/split/merge)
    import contextlib

    from migration_pair_ray.state.lock import WriterLease
    lease = (WriterLease(cfg.lake_dir, "index", cfg.writer_lease_ttl_s)
             if cfg.writer_lease else contextlib.nullcontext())
    with lease:
        return _build_value_index_locked(cfg, column)


def _build_value_index_locked(cfg: JobConfig, column: str) -> dict:
    idx = _index_dir(cfg, column)
    idx.mkdir(parents=True, exist_ok=True)
    meta_path = idx / "_meta.json"
    old: dict[str, str] = {}
    if meta_path.exists():
        with open(meta_path) as f:
            old = json.load(f).get("fingerprints", {})

    parts, kernel = _current_partitions(cfg)
    fps = {pid: _partition_fingerprint(cfg.lake_dir, record_files(m))
           for pid, m in parts.items()}
    dirty = [pid for pid, fp in fps.items() if old.get(str(pid)) != fp]

    # one Ray task per dirty partition reads its files, sorts its postings
    # and writes its postings file (empty when it has none, so the probe
    # can trust it).  Manifests come from the SAME captured view the
    # fingerprints were computed from — never a second store read.
    rows_written = sum(ray.get([remote_call.remote(
        _index_partition, cfg.lake_dir, parts[pid], kernel, column,
        str(idx / f"part-{pid:05d}.parquet")) for pid in dirty]))

    # single atomic commit point; stale posting files for retired pids are
    # harmless (unreferenced) but cleaned here for tidiness
    _atomic_write(str(meta_path), json.dumps(
        {"column": column, "kernel": kernel,
         "fingerprints": {str(pid): fp for pid, fp in fps.items()}},
        indent=1).encode())
    live = {f"part-{pid:05d}.parquet" for pid in fps}
    for p in idx.glob("part-*.parquet"):
        if p.name not in live:
            p.unlink()
    return {"partitions": len(fps), "reindexed": len(dirty),
            "reused": len(fps) - len(dirty), "postings_rows": rows_written}


def _value_counts(col) -> tuple[pa.Array, pa.Array]:
    """(each non-null value of ``col`` as a string, its row count)."""
    vc = pa.table({"v": col}).group_by("v").aggregate([("v", "count")])
    keep = vc.filter(pc.is_valid(vc.column("v")))
    return (keep.column("v").cast(pa.string()).combine_chunks(),
            keep.column("v_count").cast(pa.int64()).combine_chunks())


def _index_partition(lake_dir: str, manifest: dict | None, kernel: str,
                     column: str, path: str) -> int:
    """Write one partition's postings ``(value, file, n_rows)`` to
    ``path``, sorted; returns the postings row count.

    Row kernel: one posting per (value, state file), each file read
    column-pruned to ``column``.  Cell kernel: the partition folds to
    its VISIBLE values (``read_state_table`` folds MoR deltas too) and
    postings carry ``file=""`` — the probe re-folds whole partitions,
    files are not value-addressable."""
    from migration_pair_ray.stages.applier import _fsync_write_parquet
    vals, files, counts = [], [], []
    if kernel == "cell":
        from migration_pair_ray.functions.cells import cell_finalize
        from migration_pair_ray.stages.applier import read_state_table
        st = read_state_table(lake_dir, manifest, kernel="cell")
        if st is not None and column in st.schema.names:
            v, n = _value_counts(cell_finalize(st).column(column))
            vals, counts = [v], [n]
            files = [pa.array([""] * len(v), pa.string())]
    else:
        for rel in record_files(manifest):
            full = str(Path(lake_dir) / rel)
            if column not in pq.ParquetFile(full).schema_arrow.names:
                continue  # pre-evolution file: column reads all-null
            v, n = _value_counts(
                pq.read_table(full, columns=[column]).column(column))
            vals.append(v)
            counts.append(n)
            files.append(pa.array([rel] * len(v), pa.string()))
    out = pa.table({
        "value": pa.concat_arrays(vals) if vals else pa.array([], pa.string()),
        "file": pa.concat_arrays(files) if files else pa.array([], pa.string()),
        "n_rows": (pa.concat_arrays(counts) if counts
                   else pa.array([], pa.int64())),
    }).sort_by([("value", "ascending"), ("file", "ascending")])
    _fsync_write_parquet(out, path)
    return out.num_rows


def _verify_fresh(cfg: JobConfig,
                  column: str) -> tuple[dict[int, dict | None], str]:
    """Raise IndexStaleError unless every ACTIVE partition's fingerprint
    matches the committed index meta; returns (pid → the manifest the
    fingerprint was VERIFIED against, lake kernel).  Callers must consume
    these manifests — not re-read the store — so the answer is built from
    exactly the verified vintage."""
    meta_path = _index_dir(cfg, column) / "_meta.json"
    if not meta_path.exists():
        raise IndexStaleError(f"no index built for column {column!r}")
    with open(meta_path) as f:
        recorded = json.load(f).get("fingerprints", {})
    parts, kernel = _current_partitions(cfg)
    for pid, m in parts.items():
        if recorded.get(str(pid)) != _partition_fingerprint(
                cfg.lake_dir, record_files(m)):
            raise IndexStaleError(
                f"index for {column!r} is stale at partition {pid} — "
                f"run build_value_index first")
    return parts, kernel


def _stringify_values(values) -> list[str]:
    """Match the build-time stringification EXACTLY: postings are written
    with an Arrow cast-to-string, so native-typed probe values must go
    through the same cast (str(True) = 'True' but Arrow writes 'true';
    str(1.0) = '1.0' but Arrow writes '1')."""
    vals = list(values)
    if all(isinstance(v, str) for v in vals):
        return vals
    return pa.array(vals).cast(pa.string()).to_pylist()


def _matching_postings(
        cfg: JobConfig, column: str, values: list,
) -> tuple[list[str], list[int], str, dict[int, dict | None]]:
    """(matching state files, matching partition ids, kernel, the
    freshness-VERIFIED pid→manifest map) — the raw pruning plan behind
    the probes.  Row-kernel postings address files; cell-kernel postings
    address partitions (file='').  Callers needing partition manifests or
    file lists must use the returned map, not re-scan (a concurrent
    commit between the freshness check and a re-scan could hand back
    unverified files)."""
    parts, kernel = _verify_fresh(cfg, column)
    idx = _index_dir(cfg, column)
    want = pa.array(sorted(set(_stringify_values(values))), pa.string())
    files: list[str] = []
    pids: list[int] = []
    for pid in sorted(parts):
        path = idx / f"part-{pid:05d}.parquet"
        if not path.exists():
            raise IndexStaleError(
                f"postings missing for partition {pid} — rebuild")
        t = pq.read_table(str(path), columns=["value", "file"])
        hit = t.filter(pc.is_in(t.column("value"), value_set=want))
        if hit.num_rows:
            pids.append(pid)
            files.extend(sorted(set(f for f in hit.column("file").to_pylist()
                                    if f)))
    return files, pids, kernel, parts


def index_candidate_files(cfg: JobConfig, column: str,
                          values: list) -> list[str]:
    """The pruning plan: lake-relative state files the probe will read for
    any requested value (exposed for tests/ops, like
    lookup.candidate_files).  Verifies freshness first.  On cell-kernel
    lakes the probe grain is the PARTITION, so the plan is the matching
    partitions' full current file lists."""
    files, pids, kernel, parts = _matching_postings(cfg, column, values)
    if kernel == "cell":
        return sorted({f for pid in pids for f in record_files(parts[pid])})
    return files


def lookup_by_value(cfg: JobConfig, column: str, values: list[str],
                    visible_only: bool = True) -> pa.Table:
    """All lake rows whose ``column`` equals any of ``values``, via the
    postings — O(postings + matching chunks) I/O, never a scan.  Driver-
    side like ``lookup_keys``: a value probe is a latency path; bulk
    extraction should use ``read_lake`` + a distributed filter.

    ``values`` may be strings or native-typed scalars; both are
    normalized with the same Arrow cast the postings were built with,
    and cast back to the column's native type for the Parquet filter —
    int/bool/float columns probe correctly either way.

    Cell-kernel lakes probe at PARTITION grain: matching partitions are
    re-folded (``read_state_table`` + ``cell_finalize``) and the visible
    rows filtered — a determiner row's raw value is not the visible
    value, so ``visible_only=False`` is not expressible and raises."""
    want = sorted(set(_stringify_values(values)))
    files, pids, kernel, parts = _matching_postings(cfg, column, want)
    if kernel == "cell":
        if not visible_only:
            raise ValueError(
                "visible_only=False is not supported on cell-kernel lakes: "
                "internal determiner rows are not value-addressable (a "
                "column's visible value folds from several of them)")
        from migration_pair_ray.functions.cells import cell_finalize
        from migration_pair_ray.stages.applier import read_state_table
        tables = []
        for pid in pids:
            # fold the manifests captured at verify time — a store
            # re-read here could see a commit that landed after
            # _verify_fresh and fold unverified newer state
            st = read_state_table(cfg.lake_dir, parts[pid], kernel="cell")
            if st is None or column not in st.schema.names:
                continue
            vis = cell_finalize(st)
            col_type = vis.schema.field(column).type
            native = (want if pa.types.is_string(col_type)
                      or pa.types.is_large_string(col_type)
                      else pa.array(want, pa.string())
                      .cast(col_type).to_pylist())
            hit = vis.filter(pc.is_in(vis.column(column),
                                      value_set=pa.array(native, col_type)))
            if hit.num_rows:
                tables.append(hit)
        if not tables:
            from migration_pair_ray.schemas import CHANGE_SCHEMA
            from migration_pair_ray.functions.cells import cell_finalize
            out = cell_finalize(CHANGE_SCHEMA.empty_table())
        else:
            out = pa.concat_tables(tables, promote_options="permissive")
        return out.sort_by([("conv_id", "ascending"),
                            ("turn_idx", "ascending")])
    tables = []
    for rel in files:
        path = str(Path(cfg.lake_dir) / rel)
        col_type = pq.read_schema(path).field(column).type
        native = (want if pa.types.is_string(col_type)
                  or pa.types.is_large_string(col_type)
                  else pa.array(want, pa.string()).cast(col_type).to_pylist())
        t = pq.read_table(path, filters=[(column, "in", native)])
        if t.num_rows:
            tables.append(t)
    if not tables:
        from migration_pair_ray.schemas import CHANGE_SCHEMA
        out = CHANGE_SCHEMA.empty_table()
    else:
        out = pa.concat_tables(tables, promote_options="permissive")
    if visible_only:
        out = visible_state(out, drop_meta=True)
    return out.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
