"""Similarity search over embedding columns (list<float>) — Dataset ops.

* ``brute_force_topk`` — the exactness baseline: broadcast the query matrix
  once (``ray.put``), each batch computes a numpy matmul and emits only its
  local top-k, a tiny final reduce merges them.  Shuffle-free.
* ``ivf_topk`` — the scale path: coarse k-means centroids (computed on a
  sample, broadcast), each vector assigned to its nearest centroid
  (= bucket); queries probe only ``n_probe`` buckets, so a 10^10-row
  corpus reads a fraction of its blocks per query.
* ``embedding_dedup`` — cosine near-dup: random-hyperplane LSH bucket key,
  vectors shipped in the bucket rows, within-bucket pairwise cosine,
  connected components, keep min id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def _batch_matrix(batch: pa.Table, col: str) -> np.ndarray:
    """(n, d) float32 matrix from a list<float> column — zero-copy flatten
    for Arrow list types; Ray's tensor-extension columns (from_pandas with
    ndarray cells) go through their numpy view."""
    arr = batch.column(col)
    ca = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    if (pa.types.is_list(ca.type) or pa.types.is_large_list(ca.type)
            or pa.types.is_fixed_size_list(ca.type)):
        flat = np.asarray(ca.flatten(), dtype=np.float32)
        return flat.reshape(batch.num_rows, -1)
    m = np.asarray(ca.to_numpy(zero_copy_only=False).tolist(), dtype=np.float32)
    return m.reshape(batch.num_rows, -1)


def _l2_normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def brute_force_topk(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id",
                     round_to: int | None = 6) -> pa.Table:
    """Exact cosine top-k of every query against the corpus.

    Returns a table (query_id, vec_id, cos) with k rows per query, ordered
    by (query_id, -cos, vec_id).  ``round_to`` rounds cosines so results
    are comparable across float implementations (e.g. a SQL oracle).
    """
    qn = _l2_normalize(np.asarray(queries, dtype=np.float32))
    ref = ray.put(qn)

    def local_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(ref)                                   # (nq, d) once per task
        m = _l2_normalize(_batch_matrix(batch, vec_col))   # (n, d)
        cos = q @ m.T                                      # (nq, n)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        nq, n = cos.shape
        # margin over k: the global selection re-ranks on ROUNDED cosine
        # (tie-broken by id), so near-boundary candidates must survive the
        # local unrounded cut
        kk = min(3 * k, n)
        part = np.argpartition(-cos, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(np.arange(nq), kk)
        cols = part.reshape(-1)
        return pa.table({
            "query_id": pa.array(rows.astype(np.int64)),
            id_col: pa.array(ids[cols]),
            "cos": pa.array(cos[rows, cols].astype(np.float64)),
        })

    # per-batch top-k shrinks each block to nq*k rows; the driver-side merge
    # touches only those partials (never the corpus)
    partials = ds.map_batches(local_topk, batch_format="pyarrow").take_all()
    empty_schema = pa.schema([pa.field("query_id", pa.int64()),
                              pa.field(id_col, pa.int64()),
                              pa.field("cos", pa.float64())])
    if not partials:   # empty corpus / empty IVF shortlist
        return empty_schema.empty_table()
    t = pa.Table.from_pylist(partials, schema=empty_schema)
    import pyarrow.compute as pc
    if round_to is not None:
        t = t.set_column(t.schema.get_field_index("cos"), "cos",
                         pc.round(t.column("cos"), ndigits=round_to, round_mode="half_towards_infinity"))
    t = t.sort_by([("query_id", "ascending"), ("cos", "descending"),
                   (id_col, "ascending")])
    # keep k per query — vectorized rank-within-group (no per-query filter
    # loop: that re-scans the merged table once per query id)
    qids = t.column("query_id").to_numpy(zero_copy_only=False)
    first = np.concatenate([[True], qids[1:] != qids[:-1]])
    group_start = np.maximum.accumulate(np.where(first, np.arange(len(qids)), 0))
    rank = np.arange(len(qids)) - group_start
    return t.filter(pa.array(rank < k))


def kmeans_centroids(sample: np.ndarray, n_clusters: int, n_iter: int = 10,
                     seed: int = 11) -> np.ndarray:
    """Tiny deterministic k-means (numpy, driver-side on a sample) — the
    coarse quantizer for IVF."""
    rng = np.random.default_rng(seed)
    x = _l2_normalize(np.asarray(sample, dtype=np.float32))
    cent = x[rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)]
    for _ in range(n_iter):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _l2_normalize(cent)
    return cent


def ivf_topk(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10,
             n_clusters: int = 16, n_probe: int = 4,
             vec_col: str = "embedding", id_col: str = "vec_id",
             sample_size: int = 2048, round_to: int | None = 6) -> pa.Table:
    """IVF-style ANN: centroids from a corpus sample (broadcast once);
    blocks filter themselves to vectors whose centroid is probed by ANY
    query, then brute-force within the shortlist.  At cluster scale the
    corpus would be *written* bucket-partitioned so probing reads only
    n_probe/n_clusters of the data; here the filter happens at scan time."""
    sample = [r[vec_col] for r in ds.take(sample_size)]
    cent = kmeans_centroids(np.asarray(sample), n_clusters)
    qn = _l2_normalize(np.asarray(queries, dtype=np.float32))
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :n_probe]     # (nq, n_probe)
    probed = np.unique(probes.reshape(-1))
    ref = ray.put((cent, set(probed.tolist())))

    def shortlist(batch: pa.Table) -> pa.Table:
        c, keep = ray.get(ref)
        m = _l2_normalize(_batch_matrix(batch, vec_col))
        assign = (m @ c.T).argmax(axis=1)
        mask = np.isin(assign, list(keep))
        return batch.filter(pa.array(mask))

    short = ds.map_batches(shortlist, batch_format="pyarrow")
    return brute_force_topk(short, queries, k=k, vec_col=vec_col,
                            id_col=id_col, round_to=round_to)


def _clear_buckets(index_dir: str) -> None:
    """Remove every ``bucket=*`` directory of a bucketed index, so a
    rebuild into the same ``index_dir`` leaves no file of the old corpus
    for a probe to read."""
    import glob
    import os
    import shutil
    for d in glob.glob(os.path.join(index_dir, "bucket=*")):
        shutil.rmtree(d)


def ivf_build(ds: "ray.data.Dataset", index_dir: str, n_clusters: int = 16,
              sample_size: int = 2048, vec_col: str = "embedding",
              id_col: str = "vec_id", seed: int = 11) -> np.ndarray:
    """Build the PERSISTED IVF layout: the corpus is written partitioned by
    nearest-centroid bucket (``<index_dir>/bucket=N/``) with the centroids
    saved alongside.  This is the scale path ``ivf_topk``'s docstring
    promises: probing reads only the probed buckets' FILES — at 10^10 rows
    a query touches ~n_probe/n_clusters of the data instead of scanning
    everything and filtering.  A rebuild into an existing ``index_dir``
    replaces the old buckets."""
    import os
    sample = [r[vec_col] for r in ds.take(sample_size)]
    cent = kmeans_centroids(np.asarray(sample), n_clusters, seed=seed)
    ref = ray.put(cent)
    _clear_buckets(index_dir)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _l2_normalize(_batch_matrix(batch, vec_col))
        b = (m @ c.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(b))

    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        index_dir, partition_cols=["bucket"])
    np.save(os.path.join(index_dir, "centroids.npy"), cent)
    return cent


def ivf_probe(index_dir: str, queries: np.ndarray, k: int = 10,
              n_probe: int = 4, vec_col: str = "embedding",
              id_col: str = "vec_id", round_to: int | None = 6) -> pa.Table:
    """Query a persisted IVF layout: rank buckets per query against the
    saved centroids, then ``read_parquet`` ONLY the probed buckets'
    directories and brute-force within that shortlist."""
    import os
    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    qn = _l2_normalize(np.asarray(queries, dtype=np.float32))
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :n_probe]
    probed = np.unique(probes.reshape(-1))
    paths = []
    for b in probed:
        d = os.path.join(index_dir, f"bucket={b}")
        if os.path.isdir(d):
            paths.extend(sorted(os.path.join(d, f) for f in os.listdir(d)
                                if f.endswith(".parquet")))
    if not paths:
        return pa.schema([pa.field("query_id", pa.int64()),
                          pa.field(id_col, pa.int64()),
                          pa.field("cos", pa.float64())]).empty_table()
    short = ray.data.read_parquet(paths)
    return brute_force_topk(short, queries, k=k, vec_col=vec_col,
                            id_col=id_col, round_to=round_to)


_PLANE_CACHE: dict[tuple, np.ndarray] = {}


def _lsh_planes(seed: int, n_tables: int, dim: int, n_planes: int) -> np.ndarray:
    """Seeded hyperplane tensor, built ONCE per worker process (module-level
    cache — the ST1 once-per-worker discipline).  Seeded RNG ⇒ identical
    planes on every node, so bucketing stays globally consistent while the
    per-batch ``standard_normal`` regeneration cost disappears."""
    key = (seed, n_tables, dim, n_planes)
    planes = _PLANE_CACHE.get(key)
    if planes is None:
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((n_tables, dim, n_planes)).astype(np.float32)
        _PLANE_CACHE[key] = planes
    return planes


def _pack_f32(m: np.ndarray) -> pa.Array:
    """(n, d) float32 matrix → fixed_size_binary(d*4), zero-padding-free."""
    arr = np.ascontiguousarray(m.astype("<f4", copy=False))
    return pa.Array.from_buffers(pa.binary(arr.shape[1] * 4), arr.shape[0],
                                 [None, pa.py_buffer(arr.tobytes())])


def _unpack_f32(col) -> np.ndarray:
    """fixed_size_binary column → (n, d) float32 matrix (zero-copy)."""
    ca = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    width = ca.type.byte_width
    a = np.frombuffer(ca.buffers()[1], dtype="<f4")
    off = ca.offset * (width // 4)
    return a[off: off + len(ca) * (width // 4)].reshape(len(ca), width // 4)


def embedding_dedup(ds: "ray.data.Dataset", threshold: float = 0.98,
                    n_planes: int = 12, n_tables: int = 4,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    seed: int = 5, n_coarse: int = 64) -> "ray.data.Dataset":
    """Cosine near-duplicate removal: multi-table random-hyperplane LSH.

    ``n_tables`` independent tables of ``n_planes`` hyperplanes each
    (seeded → identical planes on every node).  A pair at cosine c collides
    in one table with p = (1 - acos(c)/pi)^n_planes; across tables the
    detection probability is 1 - (1-p)^n_tables — at c = 0.98,
    n_planes = 12, n_tables = 4 that is > 0.998, while random pairs
    (c ≈ 0) land together with p ≈ 2^-12 per table, keeping buckets small.

    No broadcast: each bucket row carries its normalized vector as
    ``fixed_size_binary(dim*4)`` (n_tables copies per doc on the wire,
    dim×4 B each), so the verify needs nothing beyond its own group and
    the operator never counts or collects the caller's pipeline.

    Ray groups are ``n_coarse`` COARSE buckets (not one per fine bucket —
    per-group dispatch pitfall); inside a group, fine-bucket runs are
    found by one lexsort and each run is verified by ONE normalized
    matmul + ``triu_indices`` threshold — no Python pair loop.  Buckets
    beyond ``_BUCKET_CAP`` members are degenerate (near-constant
    embeddings) and are skipped, bounding the quadratic.
    """
    from migration_pair_ray.stages.dedup import (
        _BUCKET_CAP, connected_components, drop_cluster_losers)

    golden = np.int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)

    def bucketize(batch: pa.Table) -> pa.Table:
        m = _l2_normalize(_batch_matrix(batch, vec_col))
        planes = _lsh_planes(seed, n_tables, m.shape[1], n_planes)
        n = m.shape[0]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keys = np.empty((n_tables, n), dtype=np.int64)
        for t in range(n_tables):
            bits = (m @ planes[t]) > 0
            keys[t] = (bits * (1 << np.arange(n_planes, dtype=np.int64))).sum(axis=1)
            keys[t] += np.int64(t) << np.int64(n_planes)   # disjoint per table
        flat_keys = keys.reshape(-1)
        with np.errstate(over="ignore"):
            coarse = ((flat_keys * golden) % n_coarse).astype(np.int32)
        return pa.table({
            "bucket": pa.array(flat_keys),
            "coarse": pa.array(np.abs(coarse)),
            "doc_id": pa.array(np.tile(ids, n_tables)),
            "vecb": _pack_f32(np.tile(m, (n_tables, 1))),
        })

    cand = ds.map_batches(bucketize, batch_format="pyarrow")

    def coarse_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if g.num_rows < 2:
            return empty
        buckets = g.column("bucket").to_numpy(zero_copy_only=False)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, buckets))
        buckets, ids = buckets[order], ids[order]
        group_vecs = _unpack_f32(g.column("vecb"))[order]
        starts = np.flatnonzero(
            np.concatenate([[True], buckets[1:] != buckets[:-1]]))
        ends = np.concatenate([starts[1:], [len(buckets)]])
        rows_a, rows_b, sims = [], [], []
        for s, e in zip(starts, ends):
            k = e - s
            if k < 2 or k > _BUCKET_CAP:     # degenerate bucket: no signal
                continue
            sub = group_vecs[s:e]
            cos = sub @ sub.T                # one matmul per fine bucket
            iu, ju = np.triu_indices(k, 1)
            cv = cos[iu, ju]
            hit = cv >= threshold
            if not hit.any():
                continue
            a, b = ids[s:e][iu[hit]], ids[s:e][ju[hit]]
            rows_a.append(np.minimum(a, b))
            rows_b.append(np.maximum(a, b))
            sims.append(cv[hit].astype(np.float64))
        if not rows_a:
            return empty
        return pa.table({"a": pa.array(np.concatenate(rows_a)),
                         "b": pa.array(np.concatenate(rows_b)),
                         "sim": pa.array(np.concatenate(sims))})

    pairs = cand.groupby("coarse").map_groups(coarse_pairs, batch_format="pyarrow")
    # a pair can collide in several tables — dedup on (a, b)
    pairs = (pairs.groupby(["a", "b"]).max("sim")
             .map_batches(lambda t: t.rename_columns(["a", "b", "sim"]),
                          batch_format="pyarrow"))
    clusters = connected_components(pairs)
    return drop_cluster_losers(ds, clusters, id_col=id_col)


def ivf_append(ds: "ray.data.Dataset", index_dir: str, tag: str,
               vec_col: str = "embedding", id_col: str = "vec_id") -> int:
    """Incrementally add vectors to a persisted IVF layout — index
    maintenance for a CDC world where the corpus grows after the build.
    New rows are assigned with the SAVED centroids (no re-cluster; recall
    degrades only as the distribution drifts — rebuild when it does) and
    written as append segments inside each bucket directory.

    Durability mirrors the lake's manifest discipline: every segment file
    lands via write-temp + atomic ``os.replace`` under a caller-supplied
    idempotence ``tag`` — a crashed append leaves only ``*.tmp.*`` files
    (invisible to ``ivf_probe``'s ``*.parquet`` glob) and re-running the
    same (tag, data) replaces byte-identical files instead of duplicating
    rows.  Returns the number of vectors appended."""
    import os
    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _l2_normalize(_batch_matrix(batch, vec_col))
        b = (m @ c.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(b))

    def write_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64())})
        b = int(g.column("bucket")[0].as_py())
        g = g.drop_columns(["bucket"]).sort_by([(id_col, "ascending")])
        d = os.path.join(index_dir, f"bucket={b}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"append-{tag}.parquet")
        tmp = f"{path}.tmp.{os.getpid()}"
        import pyarrow.parquet as pq
        pq.write_table(g, tmp)
        os.replace(tmp, path)
        return pa.table({"bucket": pa.array([b], pa.int32()),
                         "rows": pa.array([g.num_rows], pa.int64())})

    written = (ds.map_batches(assign, batch_format="pyarrow")
               .groupby("bucket").map_groups(write_bucket,
                                             batch_format="pyarrow")
               .take_all())
    return int(sum(r["rows"] for r in written))


# ------------------------------------------------------------------- hnsw
#
# HNSW (Malkov & Yashunin 2016, arXiv:1603.09320) behind the same
# bucketed-files interface as ivf_build/ivf_probe: the corpus is coarse-
# quantized into centroid buckets exactly like IVF, and each bucket holds
# a SELF-CONTAINED small-world graph file (vectors + ids + layered
# adjacency).  Probing ranks buckets by centroid, then greedy-searches
# only the probed buckets' graphs — the recall-sensitive option the IVF
# shortlist lacks (IVF recall collapses when a true neighbor's bucket is
# not probed AND the shortlist is large; HNSW recall inside a probed
# bucket is near-exact at modest ef).  Per-bucket graphs keep the build
# embarrassingly parallel (one Ray task per bucket) and bound insert cost
# by bucket size, not corpus size.


class _HNSW:
    """In-memory HNSW over L2-normalized vectors (cosine via dot).
    Deterministic: level draws come from a seeded RNG keyed by insertion
    order, so a rebuild from the same rows is bit-identical."""

    def __init__(self, dim: int, m: int = 16, ef_construction: int = 80,
                 seed: int = 7):
        self.dim, self.m, self.m0 = dim, m, 2 * m
        self.ef_c = ef_construction
        self.ml = 1.0 / np.log(m)
        self.rng = np.random.default_rng(seed)
        self.vecs = np.empty((0, dim), dtype=np.float32)
        self.ids: list[int] = []
        self.levels: list[int] = []
        # neighbors[node][layer] -> list[int]
        self.neighbors: list[list[list[int]]] = []
        self.entry = -1
        self.max_level = -1

    # ---------------------------------------------------------- search
    def _search_layer(self, q: np.ndarray, entries: list[int], ef: int,
                      layer: int) -> list[tuple[float, int]]:
        """Best-first beam search on one layer; returns up to ``ef``
        (sim, node) pairs, best first."""
        import heapq
        sims = {e: float(self.vecs[e] @ q) for e in entries}
        visited = set(entries)
        # candidates: max-heap by sim (negate); results: min-heap by sim
        cand = [(-s, n) for n, s in sims.items()]
        res = [(s, n) for n, s in sims.items()]
        heapq.heapify(cand)
        heapq.heapify(res)
        while cand:
            cs, c = heapq.heappop(cand)
            if -cs < res[0][0] and len(res) >= ef:
                break
            for nb in self.neighbors[c][layer]:
                if nb in visited:
                    continue
                visited.add(nb)
                s = float(self.vecs[nb] @ q)
                if len(res) < ef or s > res[0][0]:
                    heapq.heappush(cand, (-s, nb))
                    heapq.heappush(res, (s, nb))
                    if len(res) > ef:
                        heapq.heappop(res)
        return sorted(res, reverse=True)

    def add(self, vec: np.ndarray, ext_id: int) -> None:
        node = len(self.ids)
        self.vecs = np.vstack([self.vecs, vec[None, :]])
        self.ids.append(int(ext_id))
        level = int(-np.log(max(self.rng.random(), 1e-12)) * self.ml)
        self.levels.append(level)
        self.neighbors.append([[] for _ in range(level + 1)])
        if self.entry < 0:
            self.entry, self.max_level = node, level
            return
        ep = [self.entry]
        for lyr in range(self.max_level, level, -1):
            ep = [self._search_layer(vec, ep, 1, lyr)[0][1]]
        for lyr in range(min(level, self.max_level), -1, -1):
            cand = self._search_layer(vec, ep, self.ef_c, lyr)
            mmax = self.m0 if lyr == 0 else self.m
            chosen = [n for _, n in cand[:mmax]]
            self.neighbors[node][lyr] = list(chosen)
            for nb in chosen:
                lst = self.neighbors[nb][lyr]
                lst.append(node)
                if len(lst) > mmax:
                    # prune to the mmax most similar (simple heuristic)
                    sims = self.vecs[lst] @ self.vecs[nb]
                    keep = np.argsort(-sims)[:mmax]
                    self.neighbors[nb][lyr] = [lst[i] for i in keep]
            ep = [n for _, n in cand]
        if level > self.max_level:
            self.entry, self.max_level = node, level

    def search(self, q: np.ndarray, k: int, ef_search: int = 64
               ) -> list[tuple[float, int]]:
        """Top-k (sim, external id), best first.  A beam as wide as the
        whole graph IS an exact scan — take it literally (one matmul)
        instead of walking edges, which also makes full-width probes
        provably exact (the hard-oracle contract ``embed_knn_hnsw``
        relies on; a graph walk could in principle strand a node in a
        disconnected layer-0 component)."""
        if self.entry < 0:
            return []
        if ef_search >= len(self.ids):
            sims = self.vecs @ q
            order = np.lexsort((np.asarray(self.ids), -sims))[:k]
            return [(float(sims[i]), self.ids[i]) for i in order]
        ep = [self.entry]
        for lyr in range(self.max_level, 0, -1):
            ep = [self._search_layer(q, ep, 1, lyr)[0][1]]
        res = self._search_layer(q, ep, max(ef_search, k), 0)
        return [(s, self.ids[n]) for s, n in res[:k]]

    # ----------------------------------------------------- (de)serialize
    def to_table(self) -> pa.Table:
        flat_nbrs, nbr_offsets, layers, nodes = [], [0], [], []
        for n, per_layer in enumerate(self.neighbors):
            for lyr, lst in enumerate(per_layer):
                nodes.append(n)
                layers.append(lyr)
                flat_nbrs.extend(lst)
                nbr_offsets.append(len(flat_nbrs))
        adj = pa.LargeListArray.from_arrays(
            pa.array(nbr_offsets, pa.int64()),
            pa.array(flat_nbrs, pa.int32()))
        meta = {"entry": str(self.entry), "max_level": str(self.max_level),
                "m": str(self.m), "ef_c": str(self.ef_c),
                "dim": str(self.dim),
                "n_nodes": str(len(self.ids)),
                "rng_draws": str(len(self.ids))}
        # vec is a VARIABLE list column (empty on adjacency rows):
        # Parquet does not round-trip null fixed-size-list slots
        # int64 offsets: a bucket at n_nodes*dim > 2^31-1 floats (e.g.
        # ~2.8M vectors at dim 768) must serialize, not overflow
        n_nodes = len(self.ids)
        vec = pa.LargeListArray.from_arrays(
            pa.array(np.arange(n_nodes + 1, dtype=np.int64) * self.dim,
                     pa.int64()),
            pa.array(self.vecs.reshape(-1), pa.float32()))
        empty_vec = pa.LargeListArray.from_arrays(
            pa.array(np.zeros(len(nodes) + 1, dtype=np.int64), pa.int64()),
            pa.array([], pa.float32()))
        nodes_t = pa.table({
            "kind": pa.array(["node"] * n_nodes, pa.string()),
            "node": pa.array(range(n_nodes), pa.int32()),
            "layer": pa.array(self.levels, pa.int32()),
            "ext_id": pa.array(self.ids, pa.int64()),
            "vec": vec,
            "nbrs": pa.LargeListArray.from_arrays(
                pa.array(np.zeros(n_nodes + 1, dtype=np.int64), pa.int64()),
                pa.array([], pa.int32())),
        })
        adj_t = pa.table({
            "kind": pa.array(["adj"] * len(nodes), pa.string()),
            "node": pa.array(nodes, pa.int32()),
            "layer": pa.array(layers, pa.int32()),
            "ext_id": pa.nulls(len(nodes), pa.int64()),
            "vec": empty_vec,
            "nbrs": adj,
        })
        t = pa.concat_tables([nodes_t, adj_t])
        return t.replace_schema_metadata(meta)

    @classmethod
    def from_table(cls, t: pa.Table, seed: int = 7) -> "_HNSW":
        meta = {k.decode(): v.decode()
                for k, v in (t.schema.metadata or {}).items()}
        g = cls(int(meta["dim"]), m=int(meta["m"]),
                ef_construction=int(meta["ef_c"]), seed=seed)
        nodes = t.filter(pc.equal(t.column("kind"), "node")).sort_by(
            [("node", "ascending")])
        n = nodes.num_rows
        g.vecs = np.asarray(nodes.column("vec").combine_chunks().flatten(),
                            dtype=np.float32).reshape(n, -1)
        g.ids = nodes.column("ext_id").to_pylist()
        g.levels = nodes.column("layer").to_pylist()
        g.neighbors = [[[] for _ in range(lv + 1)] for lv in g.levels]
        adj = t.filter(pc.equal(t.column("kind"), "adj"))
        for node, layer, nbrs in zip(adj.column("node").to_pylist(),
                                     adj.column("layer").to_pylist(),
                                     adj.column("nbrs").to_pylist()):
            g.neighbors[node][layer] = list(nbrs)
        g.entry = int(meta["entry"])
        g.max_level = int(meta["max_level"])
        # burn the construction draws so appends continue the SAME
        # deterministic level sequence a single-shot build would produce
        for _ in range(int(meta["rng_draws"])):
            g.rng.random()
        return g


def _centroid_assign(batch: pa.Table, cent: np.ndarray, vec_col: str,
                     id_col: str) -> pa.Table:
    """(id, vec, bucket) rows under a fixed centroid set — the one
    assignment used by both hnsw_build and hnsw_append (a drifted copy
    would route appends into different buckets than the build)."""
    mm = _l2_normalize(_batch_matrix(batch, vec_col))
    b = (mm @ cent.T).argmax(axis=1).astype(np.int32)
    return pa.table({id_col: batch.column(id_col),
                     vec_col: batch.column(vec_col),
                     "bucket": pa.array(b)})


def _hnsw_meta_path(index_dir: str) -> str:
    import os
    return os.path.join(index_dir, "_meta.json")


def _hnsw_meta(index_dir: str) -> dict:
    import json
    import os
    path = _hnsw_meta_path(index_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{path} missing: the HNSW index at {index_dir} was never "
            f"committed (a crashed build is invisible by design — re-run "
            f"hnsw_build)")
    return json.loads(open(path).read())


def _bucket_graph_path(index_dir: str, b: int) -> str:
    import os
    return os.path.join(index_dir, f"bucket={b}", "graph.parquet")


def hnsw_build(ds: "ray.data.Dataset", index_dir: str, n_clusters: int = 8,
               m: int = 16, ef_construction: int = 80,
               sample_size: int = 2048, vec_col: str = "embedding",
               id_col: str = "vec_id", seed: int = 11) -> int:
    """Build the persisted bucketed-HNSW layout: IVF coarse quantization
    (centroids from a sample, saved alongside) + one self-contained HNSW
    graph file per bucket, built by one Ray task per bucket (insertion
    order = ascending id → deterministic bytes; atomic tmp+rename).
    Crash-visibility follows the repo's index discipline
    (build_fingerprint_index / build_minhash_index): ``_meta.json`` — which
    also records the m/ef_construction the graphs were built with, so
    appends into fresh buckets use the SAME parameters — commits LAST; a
    killed build leaves no meta and probe/append refuse instead of
    silently serving an index with missing buckets.  A rebuild into an
    existing ``index_dir`` first withdraws the old meta, then removes the
    old buckets.  Returns total vectors indexed."""
    import json
    import os
    from migration_pair_ray.state.manifest import _atomic_write
    sample = [r[vec_col] for r in ds.take(sample_size)]
    cent = kmeans_centroids(np.asarray(sample), n_clusters, seed=seed)
    if os.path.exists(_hnsw_meta_path(index_dir)):
        os.remove(_hnsw_meta_path(index_dir))
    _clear_buckets(index_dir)
    os.makedirs(index_dir, exist_ok=True)
    ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        return _centroid_assign(batch, ray.get(ref), vec_col, id_col)

    def build_bucket(g: pa.Table) -> pa.Table:
        import os
        import pyarrow.parquet as pq
        if g.num_rows == 0:
            return pa.table({"rows": pa.array([], pa.int64())})
        b = int(g.column("bucket")[0].as_py())
        g = g.sort_by([(id_col, "ascending")])
        mm = _l2_normalize(_batch_matrix(g, vec_col))
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        graph = _HNSW(mm.shape[1], m=m, ef_construction=ef_construction,
                      seed=seed + b)
        for i in range(len(ids)):
            graph.add(mm[i], int(ids[i]))
        path = _bucket_graph_path(index_dir, b)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(graph.to_table(), tmp)
        os.replace(tmp, path)
        return pa.table({"rows": pa.array([g.num_rows], pa.int64())})

    rows = (ds.map_batches(assign, batch_format="pyarrow")
            .groupby("bucket").map_groups(build_bucket,
                                          batch_format="pyarrow")
            .take_all())
    total = int(sum(r["rows"] for r in rows))
    cpath = os.path.join(index_dir, "centroids.npy")
    np.save(cpath + f".tmp.{os.getpid()}.npy", cent)
    os.replace(cpath + f".tmp.{os.getpid()}.npy", cpath)
    _atomic_write(_hnsw_meta_path(index_dir),
                  json.dumps({"n_clusters": n_clusters, "m": m,
                              "ef_construction": ef_construction,
                              "seed": seed, "built": total}).encode())
    return total


def hnsw_append(ds: "ray.data.Dataset", index_dir: str,
                vec_col: str = "embedding", id_col: str = "vec_id",
                seed: int = 11) -> int:
    """Incremental append: route new vectors to their centroid bucket and
    INSERT them into that bucket's existing graph (one Ray task per
    touched bucket; untouched buckets' files are byte-stable).  The
    centroids are fixed at build time — the same contract as
    ``ivf_append``: appends follow the frozen coarse quantizer.
    Refuses an uncommitted index (no ``_meta.json``); a bucket that was
    EMPTY at build time gets a fresh graph with the meta-recorded
    m/ef_construction, never hardcoded defaults."""
    import os
    meta = _hnsw_meta(index_dir)
    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        return _centroid_assign(batch, ray.get(ref), vec_col, id_col)

    def extend_bucket(g: pa.Table) -> pa.Table:
        import os
        import pyarrow.parquet as pq
        if g.num_rows == 0:
            return pa.table({"rows": pa.array([], pa.int64())})
        b = int(g.column("bucket")[0].as_py())
        path = _bucket_graph_path(index_dir, b)
        if os.path.exists(path):
            graph = _HNSW.from_table(pq.read_table(path), seed=seed + b)
        else:
            mm0 = _l2_normalize(_batch_matrix(g.slice(0, 1), vec_col))
            graph = _HNSW(mm0.shape[1], m=int(meta["m"]),
                          ef_construction=int(meta["ef_construction"]),
                          seed=seed + b)
        g = g.sort_by([(id_col, "ascending")])
        mm = _l2_normalize(_batch_matrix(g, vec_col))
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        known = set(graph.ids)
        added = 0
        for i in range(len(ids)):
            if int(ids[i]) in known:    # idempotent re-append
                continue
            graph.add(mm[i], int(ids[i]))
            added += 1
        tmp = f"{path}.tmp.{os.getpid()}"
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(graph.to_table(), tmp)
        os.replace(tmp, path)
        return pa.table({"rows": pa.array([added], pa.int64())})

    rows = (ds.map_batches(assign, batch_format="pyarrow")
            .groupby("bucket").map_groups(extend_bucket,
                                          batch_format="pyarrow")
            .take_all())
    return int(sum(r["rows"] for r in rows))


def hnsw_probe(index_dir: str, queries: np.ndarray, k: int = 10,
               n_probe: int = 4, ef_search: int = 64,
               id_col: str = "vec_id", round_to: int | None = 6
               ) -> pa.Table:
    """Query the bucketed-HNSW layout: rank buckets per query against the
    saved centroids, search ONLY the probed buckets' graphs (one Ray task
    per bucket — each loads one graph file, never the corpus), merge the
    per-bucket top-k driver-side (k·n_probe·n_queries rows).  Same output
    contract as ``ivf_probe``/``brute_force_topk``: (query_id, id, cos)
    ordered by (query_id, -cos, id)."""
    import os
    _hnsw_meta(index_dir)      # refuse an uncommitted (crashed) build
    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    qn = _l2_normalize(np.asarray(queries, dtype=np.float32))
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :n_probe]   # (nq, p)

    @ray.remote(num_cpus=1)
    def search_bucket(b: int, q_idx: np.ndarray) -> list[tuple]:
        import pyarrow.parquet as pq
        path = _bucket_graph_path(index_dir, int(b))
        if not os.path.exists(path):
            return []
        graph = _HNSW.from_table(pq.read_table(path))
        # margin over k, as in brute_force_topk: the cross-bucket merge
        # re-ranks on ROUNDED cosine (tie-broken by id), so near-boundary
        # candidates must survive the local unrounded cut
        kk = min(3 * k, len(graph.ids))
        out = []
        for qi in q_idx:
            for s, ext in graph.search(qn[qi], kk, ef_search=ef_search):
                out.append((int(qi), ext, float(s)))
        return out

    by_bucket: dict[int, list[int]] = {}
    for qi in range(len(qn)):
        for b in probes[qi]:
            by_bucket.setdefault(int(b), []).append(qi)
    refs = [search_bucket.remote(b, np.array(qis, dtype=np.int64))
            for b, qis in sorted(by_bucket.items())]
    rows = [r for part in ray.get(refs) for r in part]
    if not rows:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "cos": pa.array([], pa.float64())})
    qid = np.array([r[0] for r in rows], dtype=np.int64)
    vid = np.array([r[1] for r in rows], dtype=np.int64)
    cos = np.array([r[2] for r in rows], dtype=np.float64)
    if round_to is not None:
        cos = np.round(cos, round_to)
    t = pa.table({"query_id": pa.array(qid), id_col: pa.array(vid),
                  "cos": pa.array(cos)})
    t = t.sort_by([("query_id", "ascending"), ("cos", "descending"),
                   (id_col, "ascending")])
    # per-query top-k after the cross-bucket merge
    keep = np.zeros(t.num_rows, dtype=bool)
    qs = t.column("query_id").to_numpy(zero_copy_only=False)
    seen: dict[int, int] = {}
    for i, q in enumerate(qs):
        c = seen.get(int(q), 0)
        if c < k:
            keep[i] = True
            seen[int(q)] = c + 1
    return t.filter(pa.array(keep))
