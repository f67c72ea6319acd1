"""Deduplication operators over document tables — Dataset → Dataset.

Five flavors, each built from the same scale skeleton:

    vectorized per-batch fingerprinting (map_batches tasks; a hasher's
    state is a worker-local cache) → shuffle ONLY the small fingerprint/candidate rows
    (never the full text twice) → per-bucket verification → connected
    components by iterative min-label propagation (each round = one groupby)
    → winners keep the minimum doc id.

Partitioning assumption: bucket keys (content hash, LSH band, simhash
block) are uniformly distributed by construction, so the groupbys are
skew-free even when the corpus is not.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from migration_pair_ray.functions.hashing import (
    MinHasher,
    band_hashes,
    ngram_jaccard,
    simhash64,
    stable_hash64,
)
from migration_pair_ray.sources.readers import driver_dataset

# ------------------------------------------------------------------ exact

def exact_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                id_col: str = "doc_id",
                num_buckets: int | None = None) -> "ray.data.Dataset":
    """Exact dedup: keep the minimum-id row per distinct text.

    Scale shape: hash-partition by a COARSE bucket of the 64-bit content
    hash (``num_buckets`` Ray groups — not one group per distinct text;
    per-group dispatch at 10^9 docs is the pitfall), then inside each
    bucket a single vectorized Arrow sort by (hash, text, id) + keep-first
    boundary mask (the ``lww.py`` kernel).  The text itself participates in
    the sort key within equal-hash runs, so a hash collision cannot cause
    a false merge.

    ``num_buckets`` defaults CPU-scaled (each bucket is one task holding
    its whole group — text included — so the count trades dispatch
    overhead against per-group memory; raise it for extreme corpora).
    """
    from migration_pair_ray.functions.lww import _group_first_mask
    from migration_pair_ray.stages.windows import _default_coarse
    num_buckets = _default_coarse(num_buckets)

    def add_hash(batch: pa.Table) -> pa.Table:
        h = stable_hash64(batch.column(text_col).to_pylist()).astype(np.int64)
        batch = batch.append_column("__h", pa.array(h))
        return batch.append_column(
            "__b", pa.array((h % num_buckets).astype(np.int32)))

    def keep_first(g: pa.Table) -> pa.Table:
        g = g.sort_by([("__h", "ascending"), (text_col, "ascending"),
                       (id_col, "ascending")])
        g = g.filter(_group_first_mask(g, ["__h", text_col]))
        return g.drop_columns(["__h", "__b"])

    return (ds.map_batches(add_hash, batch_format="pyarrow")
              .groupby("__b")
              .map_groups(keep_first, batch_format="pyarrow"))


# ----------------------------------------------------- incremental exact

_FP_SALT = "\x00mpr-fp2"   # second-hash salt: (h1, h2) is a 128-bit print


def _fingerprints(texts: list) -> tuple[np.ndarray, np.ndarray]:
    h1 = stable_hash64(texts)
    h2 = stable_hash64([("" if t is None else t) + _FP_SALT for t in texts])
    return h1.astype(np.uint64), h2.astype(np.uint64)


def _fp_struct(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    out = np.empty(len(h1), dtype="u8,u8")
    out["f0"], out["f1"] = h1, h2
    return out


def _read_bucket_fps(bdir: str, skip_tag: str | None) -> np.ndarray:
    """A bucket's committed fingerprints as a sorted structured array.
    Segments named ``append-<skip_tag>.parquet`` are EXCLUDED so a retried
    pass probes the index state as of before itself (idempotent re-run)."""
    import os
    import pyarrow.parquet as pq
    parts = []
    if os.path.isdir(bdir):
        for f in sorted(os.listdir(bdir)):
            if not f.endswith(".parquet"):
                continue
            if skip_tag is not None and f == f"append-{skip_tag}.parquet":
                continue
            t = pq.read_table(os.path.join(bdir, f), columns=["h1", "h2"])
            parts.append(_fp_struct(
                t.column("h1").to_numpy(zero_copy_only=False),
                t.column("h2").to_numpy(zero_copy_only=False)))
    if not parts:
        return np.empty(0, dtype="u8,u8")
    fp = np.concatenate(parts)
    fp.sort()
    return fp


def build_fingerprint_index(ds: "ray.data.Dataset", index_dir: str,
                            text_col: str = "text",
                            num_buckets: int = 64) -> int:
    """Persist a corpus's exact-content fingerprint index: the distinct
    128-bit text prints (two independent 64-bit hashes — a false match
    needs a 128-bit collision, ~n²/2¹²⁹, negligible at any corpus size;
    the full text is deliberately NOT stored: the index must stay ~16 B
    per distinct document to be broadcastable/bucket-readable at 10^10
    docs).  Layout: ``<index_dir>/bucket=<h1 % num_buckets>/base.parquet``
    — probes read ONLY their bucket's files.  ``_meta.json`` is the commit
    marker (written last; a crashed build is invisible).  Returns the
    distinct-print count."""
    import json
    import os
    import pyarrow.parquet as pq
    from migration_pair_ray.state.manifest import _atomic_write

    def add_fp(batch: pa.Table) -> pa.Table:
        h1, h2 = _fingerprints(batch.column(text_col).to_pylist())
        return pa.table({"h1": pa.array(h1), "h2": pa.array(h2),
                         "__b": pa.array((h1 % num_buckets).astype(np.int32))})

    def write_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        b = int(g.column("__b")[0].as_py())
        fp = np.unique(_fp_struct(
            g.column("h1").to_numpy(zero_copy_only=False),
            g.column("h2").to_numpy(zero_copy_only=False)))
        bdir = os.path.join(index_dir, f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        path = os.path.join(bdir, "base.parquet")
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(pa.table({"h1": pa.array(fp["f0"]),
                                 "h2": pa.array(fp["f1"])}), tmp)
        os.replace(tmp, path)
        return pa.table({"n": pa.array([len(fp)], pa.int64())})

    rows = (ds.map_batches(add_fp, batch_format="pyarrow")
            .groupby("__b").map_groups(write_bucket, batch_format="pyarrow")
            .take_all())
    total = sum(r["n"] for r in rows)
    _atomic_write(os.path.join(index_dir, "_meta.json"),
                  json.dumps({"num_buckets": num_buckets,
                              "distinct": int(total)}).encode())
    return int(total)


def exact_dedup_incremental(ds: "ray.data.Dataset", index_dir: str,
                            tag: str, text_col: str = "text",
                            id_col: str = "doc_id") -> "ray.data.Dataset":
    """Dedup a NEW batch against the persisted corpus index — the
    continuous-ingestion shape: the corpus is never re-deduped per batch;
    a new document probes only its own fingerprint bucket.

    Per bucket (one Ray group): load the committed prints (base + earlier
    appends; segments of THIS ``tag`` are excluded so a retried/re-run
    pass is idempotent), drop members, keep the min-id row per distinct
    new text (text participates in the within-batch sort key, so equal-
    print new rows cannot false-merge), then commit the surviving prints
    as ``append-<tag>.parquet`` (deterministic bytes, atomic rename — a
    retry rewrites the identical file).  Returns the surviving rows.

    Equals ``exact_dedup`` over (indexed corpus + new batch) restricted to
    the new batch, up to a 128-bit print collision against the index.

    Concurrency contract: batches (tags) apply SERIALLY, like replay
    passes — two tags probing simultaneously would each miss the other's
    in-flight appends and both keep a shared duplicate."""
    import json
    import os
    import pyarrow.parquet as pq
    from migration_pair_ray.functions.lww import _group_first_mask
    meta = json.loads(open(os.path.join(index_dir, "_meta.json")).read())
    num_buckets = int(meta["num_buckets"])

    def add_fp(batch: pa.Table) -> pa.Table:
        h1, h2 = _fingerprints(batch.column(text_col).to_pylist())
        batch = batch.append_column("__h1", pa.array(h1))
        batch = batch.append_column("__h2", pa.array(h2))
        return batch.append_column(
            "__b", pa.array((h1 % num_buckets).astype(np.int32)))

    def probe_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g.drop_columns(["__h1", "__h2", "__b"])
        b = int(g.column("__b")[0].as_py())
        bdir = os.path.join(index_dir, f"bucket={b}")
        idx = _read_bucket_fps(bdir, skip_tag=tag)
        fp = _fp_struct(g.column("__h1").to_numpy(zero_copy_only=False),
                        g.column("__h2").to_numpy(zero_copy_only=False))
        fresh = g.filter(pa.array(~np.isin(fp, idx)))
        fresh = fresh.sort_by([("__h1", "ascending"), ("__h2", "ascending"),
                               (text_col, "ascending"), (id_col, "ascending")])
        fresh = fresh.filter(
            _group_first_mask(fresh, ["__h1", "__h2", text_col]))
        new_fp = np.unique(_fp_struct(
            fresh.column("__h1").to_numpy(zero_copy_only=False),
            fresh.column("__h2").to_numpy(zero_copy_only=False)))
        if len(new_fp):
            os.makedirs(bdir, exist_ok=True)
            path = os.path.join(bdir, f"append-{tag}.parquet")
            tmp = f"{path}.tmp.{os.getpid()}"
            pq.write_table(pa.table({"h1": pa.array(new_fp["f0"]),
                                     "h2": pa.array(new_fp["f1"])}), tmp)
            os.replace(tmp, path)
        return fresh.drop_columns(["__h1", "__h2", "__b"])

    return (ds.map_batches(add_fp, batch_format="pyarrow")
            .groupby("__b").map_groups(probe_bucket, batch_format="pyarrow"))


def compact_fingerprint_index(index_dir: str) -> int:
    """Fold every bucket's append segments into its base file — the index
    twin of changelog compaction: probe cost returns to one file per
    bucket after many incremental batches.  Per bucket: read all
    segments, unique-sort, write ``base.parquet.tmp`` → fsync-free
    atomic rename, THEN unlink the appends (a crash between the two
    leaves appends whose prints are already in base — harmless, membership
    is idempotent).  Returns the number of buckets compacted.

    Compaction FINALIZES outstanding tags: a tag's prints folded into
    base can no longer be excluded by its own re-run, so re-running that
    batch afterwards returns no survivors (its content is committed).
    Compact only after every in-flight batch's result is consumed — the
    same discipline as compacting a changelog past its checkpoints."""
    import json
    import os
    import pyarrow.parquet as pq
    import ray
    meta = json.loads(open(os.path.join(index_dir, "_meta.json")).read())
    buckets = [b for b in range(int(meta["num_buckets"]))
               if os.path.isdir(os.path.join(index_dir, f"bucket={b}"))
               and any(f.startswith("append-")
                       for f in os.listdir(
                           os.path.join(index_dir, f"bucket={b}")))]

    @ray.remote
    def compact(b: int) -> int:
        bdir = os.path.join(index_dir, f"bucket={b}")
        fp = _read_bucket_fps(bdir, skip_tag=None)
        path = os.path.join(bdir, "base.parquet")
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(pa.table({"h1": pa.array(fp["f0"]),
                                 "h2": pa.array(fp["f1"])}), tmp)
        os.replace(tmp, path)
        for f in os.listdir(bdir):
            if f.startswith("append-") and f.endswith(".parquet"):
                os.unlink(os.path.join(bdir, f))
        return 1

    return sum(ray.get([compact.remote(b) for b in buckets]))


# ------------------------------------------------ candidate-pair machinery

# An LSH bucket larger than this is degenerate (near-constant content across
# the corpus): its pairs carry no dedup signal and the quadratic blows up.
# Skipped buckets are simply not candidates — precision is unaffected.
_BUCKET_CAP = 1024

# Residues per band/block for the coarse Ray-group key: group count =
# n_bands (or 4 simhash blocks) × this, so pair-verify parallelism scales
# past the raw band/block count while a bucket never spans two groups.
_COARSE_PER_GROUP = 16

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _pairs_table(rows_a, rows_b, sims) -> pa.Table:
    """Arrow output (pandas-block schemas are unhashable for Ray's schema
    dedup and cost a conversion on the next stage)."""
    if not rows_a:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "sim": pa.array([], pa.float64())})
    return pa.table({"a": pa.array(np.concatenate(rows_a).astype(np.int64)),
                     "b": pa.array(np.concatenate(rows_b).astype(np.int64)),
                     "sim": pa.array(np.concatenate(sims).astype(np.float64))})


def connected_components(pairs: "ray.data.Dataset",
                         driver_max_edges: int = 2_000_000
                         ) -> "ray.data.Dataset":
    """Exact connected components over the candidate-pair edge set.

    The edge set is the *verified near-duplicate pairs* — orders of
    magnitude smaller than the corpus (LSH bucketing bounds it) — so the
    standard practice even at web scale applies: collect the edges and run
    union-find with path compression on the driver.  AUTO-ROUTING: the
    pair set is materialized (it is consumed either way) and counted; an
    adversarial dup rate whose edge set exceeds ``driver_max_edges`` is
    handed to ``connected_components_distributed`` (same output contract;
    one shuffle per propagation round) instead of being pulled onto the
    driver.

    Returns (doc_id, cluster) rows for every node that appears in an edge,
    with cluster = min doc_id of its component.
    """
    pairs = pairs.materialize()    # bounded by LSH bucketing; executed once
    if pairs.count() > driver_max_edges:
        return connected_components_distributed(pairs)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:                 # path compression
            parent[x], x = root, parent[x]
        return root

    # the materialized blocks as they are: a lazy projection would start
    # an executor and leave its output block pinned until the cyclic GC
    for t in pairs.iter_batches(batch_size=None, batch_format="pyarrow"):
        for a, b in zip(t.column("a").to_pylist(), t.column("b").to_pylist()):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo

    nodes = sorted(parent)
    clusters = [find(n) for n in nodes]
    return driver_dataset([pa.table({
        "doc_id": pa.array(nodes, pa.int64()),
        "cluster": pa.array(clusters, pa.int64()),
    })])


def connected_components_distributed(pairs: "ray.data.Dataset",
                                     max_rounds: int = 50) -> "ray.data.Dataset":
    """Distributed min-label propagation — the driver-free fallback for
    edge sets too large for driver union-find.

    Labels live in a Dataset ``(doc_id, cluster)``; each round ships every
    node's current label across its edges (one hash-join shuffle + one
    groupby-min) and stops when no label changed.  Round count is bounded
    by the longest min-label propagation path (graph diameter), with a
    hard ``max_rounds`` backstop.  The convergence witness is an exact
    CHANGED-LABEL COUNT (old label rides the min-groupby as a second
    column; changed = rows where new < old) — comparison-only, so no
    int64-sum wraparound can ever fake a fixpoint.  The driver never holds
    edges or labels; the join's bucket count scales with cluster CPUs
    (``hash_join`` default).
    """
    from ray.data.aggregate import Min

    from migration_pair_ray.stages.join import hash_join

    _NO_OLD = np.int64(1) << np.int64(62)    # > any real doc_id label

    edges = pairs.map_batches(
        lambda t: pa.table({
            "src": pa.concat_arrays([t.column("a").cast(pa.int64()).combine_chunks(),
                                     t.column("b").cast(pa.int64()).combine_chunks()]),
            "dst": pa.concat_arrays([t.column("b").cast(pa.int64()).combine_chunks(),
                                     t.column("a").cast(pa.int64()).combine_chunks()]),
        }), batch_format="pyarrow").materialize()  # reused every round; tiny rows

    labels = edges.map_batches(
        lambda t: (lambda g: g.group_by("src").aggregate([("src", "min")])
                   .rename_columns(["doc_id", "cluster"]))(
            pa.table({"src": t.column("src")})),
        batch_format="pyarrow").groupby("doc_id").min("cluster").map_batches(
        lambda t: t.rename_columns(["doc_id", "cluster"]), batch_format="pyarrow")

    labels = labels.materialize()
    for _ in range(max_rounds):
        # candidate labels arriving over edges: src's label offered to dst
        offered = hash_join(
            edges,
            labels.map_batches(lambda t: t.rename_columns(["src", "cand"]),
                               batch_format="pyarrow"),
            on="src",
        ).map_batches(lambda t: pa.table({"doc_id": t.column("dst"),
                                          "cand": t.column("cand"),
                                          "old": pa.array(np.full(t.num_rows, int(_NO_OLD)), pa.int64())}),
                      batch_format="pyarrow")
        # old label rides along as a second min column: every doc appears
        # exactly once on the "old" side with old=cluster, offered rows
        # carry the _NO_OLD sentinel, so min(old) recovers the prior label
        # in the SAME groupby that computes the new one.
        old_tagged = labels.map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_id"),
                                "cand": t.column("cluster"),
                                "old": t.column("cluster")}),
            batch_format="pyarrow")
        merged = (old_tagged.union(offered).groupby("doc_id")
                  .aggregate(Min("cand", alias_name="cluster"),
                             Min("old", alias_name="old"))).materialize()
        # exact changed-label count, computed distributed (comparisons
        # only — immune to the int64 label-sum wraparound)
        changed = merged.map_batches(
            lambda t: pa.table({"c": pa.array(
                [int(pa.compute.sum(pa.compute.cast(
                    pa.compute.less(t.column("cluster"), t.column("old")),
                    pa.int64())).as_py() or 0)], pa.int64())}),
            batch_format="pyarrow").sum("c")
        labels = merged.select_columns(["doc_id", "cluster"])
        if not changed:
            break
    return labels


def drop_cluster_losers(ds: "ray.data.Dataset", clusters: "ray.data.Dataset",
                        id_col: str = "doc_id") -> "ray.data.Dataset":
    """Remove every clustered doc except its cluster minimum.  The loser
    set is broadcast (ray.put) — it is bounded by the number of near-dup
    docs, far smaller than the corpus; a 100 TB corpus with a huge dup rate
    would switch this to a hash anti-join on id."""
    # clusters schema is always (doc_id, cluster) regardless of ds's id column
    losers_tbl = clusters.map_batches(
        lambda t: t.filter(pa.compute.not_equal(t.column("doc_id"), t.column("cluster"))),
        batch_format="pyarrow").select_columns(["doc_id"]).take_all()
    loser_ids = np.sort(np.fromiter((r["doc_id"] for r in losers_tbl),
                                    dtype=np.int64, count=len(losers_tbl)))
    ref = ray.put(loser_ids)

    def keep(batch: pa.Table) -> pa.Table:
        bad = ray.get(ref)
        if len(bad) == 0:
            return batch
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        mask = np.isin(ids, bad, invert=True)
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------- minhash

_MINHASHER_CACHE: dict[tuple, "MinHasher"] = {}


def _cached_minhasher(n_perm: int, k: int) -> "MinHasher":
    """MinHasher built once per worker PROCESS (module cache — the ST1
    once-per-worker discipline without an actor pool: the permutation
    coefficients are a trivial seeded RNG draw, so a task-based stage with
    a worker-local cache beats paying actor-pool spin-up on every query)."""
    key = (n_perm, k)
    mh = _MINHASHER_CACHE.get(key)
    if mh is None:
        mh = MinHasher(n_perm=n_perm, k=k)
        _MINHASHER_CACHE[key] = mh
    return mh


def _sketch_batch(batch: pa.Table, n_perm: int, k: int,
                  n_bands: int) -> pa.Table:
    """Per-doc MinHash sketch — signature + LSH band hashes, computed ONCE
    (permutation coefficients from the worker-local cache).  Emits one row
    per doc; the exploded per-band shuffle rows are derived from this
    table WITHOUT the signature payload.  Task-based (no actor pool): the
    only state is the cached MinHasher."""
    mh = _cached_minhasher(n_perm, k)
    texts = batch.column("text").to_pylist()
    sigs = mh.signatures(texts)                           # (n, n_perm)
    bands = band_hashes(sigs, n_bands)                    # (n, n_bands)
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "sig": pa.array(list(sigs.astype(np.int64)), pa.list_(pa.int64())),
        "bands": pa.array(list(bands.astype(np.int64)), pa.list_(pa.int64())),
    })


def _explode_band_rows(t: pa.Table, n_bands: int) -> pa.Table:
    """Sketch table → slim (coarse, band_hash, doc_id) shuffle rows
    (~24 B each; the signature NEVER rides the exchange — that was
    n_perm × 8 B per doc per band ≈ 8 KB/doc through the shuffle).

    Coarse Ray-group key: band_id × a residue of the bucket hash —
    n_bands × _COARSE_PER_GROUP groups (vs n_bands alone, which caps
    shuffle/verify parallelism at 16 tasks regardless of corpus size).
    A whole (band, bucket) always maps into ONE group."""
    n = t.num_rows
    bands_col = t.column("bands").combine_chunks()
    band_hash = (np.asarray(bands_col.flatten(), dtype=np.int64)
                 .reshape(n, n_bands).T.reshape(-1))
    doc_id = t.column("doc_id").to_numpy(zero_copy_only=False)
    band_id = np.repeat(np.arange(n_bands, dtype=np.int64), n)
    coarse = band_id * _COARSE_PER_GROUP + band_hash % _COARSE_PER_GROUP
    return pa.table({
        "coarse": pa.array(coarse.astype(np.int32)),
        "band_hash": pa.array(band_hash),
        "doc_id": pa.array(np.tile(doc_id, n_bands)),
    })


def _bucket_runs(g: pa.Table):
    """lexsort a coarse group's (band_hash, doc_id) rows into bucket runs;
    yields (ids_run,) slices with 2 <= len <= _BUCKET_CAP."""
    hashes = g.column("band_hash").to_numpy(zero_copy_only=False)
    ids = g.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, hashes))
    hashes, ids = hashes[order], ids[order]
    keep = np.concatenate([[True], (hashes[1:] != hashes[:-1])
                           | (ids[1:] != ids[:-1])])
    hashes, ids = hashes[keep], ids[keep]
    starts = np.flatnonzero(np.concatenate([[True], hashes[1:] != hashes[:-1]]))
    ends = np.concatenate([starts[1:], [len(hashes)]])
    for s, e2 in zip(starts, ends):
        n = e2 - s
        if 2 <= n <= _BUCKET_CAP:   # degenerate bucket: no signal
            yield ids[s:e2]


def _verified_bucket_pairs(g: pa.Table, sig_ref, threshold: float) -> pa.Table:
    """Group fn: bucket-collision pairs VERIFIED in-group against the
    broadcast signature store — only pairs with estimated Jaccard ≥
    threshold ever leave the group.  This keeps the pair stream bounded by
    the true near-dup rate: on boilerplate-heavy corpora the raw
    bucket-collision pairs can be ~1000× the verified set (measured at
    sf0.1: 415k raw → 256 verified), and those must die where they are
    born, not flow through a shuffle.

    The store is (sorted id array, (n, n_perm) sig matrix) — two flat
    numpy buffers, so the per-task ``ray.get`` maps them ZERO-COPY from
    the local object store (no deserialization — the reason this can be a
    task-based stage instead of an actor pool); lookup is one
    ``searchsorted`` per bucket run."""
    if g.num_rows < 2:
        return _pairs_table([], [], [])
    ids_store, mat = ray.get(sig_ref)
    rows_a, rows_b, sims = [], [], []
    for ids_run in _bucket_runs(g):
        n = len(ids_run)
        sg = mat[np.searchsorted(ids_store, ids_run)]
        est = (sg[:, None, :] == sg[None, :, :]).mean(axis=2)
        iu, ju = np.triu_indices(n, 1)
        hit = est[iu, ju] >= threshold
        if not hit.any():
            continue
        a, b = ids_run[iu[hit]], ids_run[ju[hit]]
        rows_a.append(np.minimum(a, b))
        rows_b.append(np.maximum(a, b))
        sims.append(est[iu, ju][hit])
    return _pairs_table(rows_a, rows_b, sims)


def _collect_sig_store(sketch: "ray.data.Dataset") -> tuple[np.ndarray, np.ndarray]:
    """Materialized sketch table → (sorted ids, sig matrix) via zero-copy
    block iteration (``take_all``'s per-row dicts measured 2.3 s for a
    5k-doc table; this path is ~milliseconds)."""
    ids_parts, sig_parts = [], []
    for t in sketch.select_columns(["doc_id", "sig"]).iter_batches(
            batch_size=None, batch_format="pyarrow"):
        n = t.num_rows
        if n == 0:
            continue
        ids_parts.append(t.column("doc_id").to_numpy(zero_copy_only=False))
        sig_parts.append(np.asarray(
            t.column("sig").combine_chunks().flatten(), dtype=np.int64
        ).reshape(n, -1))
    if not ids_parts:
        return np.empty(0, np.int64), np.empty((0, 1), np.int64)
    ids = np.concatenate(ids_parts)
    mat = np.concatenate(sig_parts)
    order = np.argsort(ids)
    return ids[order], mat[order]


def minhash_candidate_pairs(ds: "ray.data.Dataset", threshold: float = 0.8,
                            n_perm: int = 64, k: int = 5, n_bands: int = 16
                            ) -> "ray.data.Dataset":
    """docs(doc_id, text) → verified pairs (a, b, sim) with estimated
    Jaccard ≥ threshold.

    Exchange discipline (the 100-TB shape): signatures are computed ONCE
    per doc (sketch pass, materialized), and the shuffle carries ONLY the
    slim (coarse, band_hash, doc_id) band rows — ~24 B/row, ~22× lighter
    than shipping the n_perm × 8 B signature on every band row.

    Per-doc signatures are broadcast once (``ray.put``) and pairs are
    verified INSIDE the bucket group, so only true near-dup pairs ever
    leave a group.  Limit: the signature store is n_docs × (n_perm+1) ×
    8 B on each node (~5 GB at 10^7 docs, n_perm=64).
    """
    sketch = (ds.select_columns(["doc_id", "text"]).map_batches(
        _sketch_batch,
        fn_kwargs={"n_perm": n_perm, "k": k, "n_bands": n_bands},
        batch_format="pyarrow")
        .materialize())    # one sig computation; read twice below
    band_rows = sketch.map_batches(
        lambda t: _explode_band_rows(t, n_bands), batch_format="pyarrow")
    sig_ref = ray.put(_collect_sig_store(sketch))
    return band_rows.groupby("coarse").map_groups(
        lambda g: _verified_bucket_pairs(g, sig_ref, threshold),
        batch_format="pyarrow")


def minhash_lsh_dedup(ds: "ray.data.Dataset", threshold: float = 0.8,
                      n_perm: int = 64, k: int = 5, n_bands: int = 16
                      ) -> "ray.data.Dataset":
    pairs = minhash_candidate_pairs(ds, threshold, n_perm, k, n_bands)
    clusters = connected_components(pairs)
    return drop_cluster_losers(ds, clusters)


# ---------------------------------------------------------------- simhash

def simhash_candidate_pairs(ds: "ray.data.Dataset", max_hamming: int = 3,
                            k: int = 4,
                            dedup_pairs: bool = True) -> "ray.data.Dataset":
    """SimHash near-dup candidates: 64-bit fingerprints, bucketed by each of
    four 16-bit blocks (two fingerprints within hamming ≤ 3 share at least
    one block by pigeonhole), verified by exact hamming distance."""

    def fingerprint(batch: pa.Table) -> pa.Table:
        sh = simhash64(batch.column("text").to_pylist(), k=k).astype(np.int64)
        doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(doc_id)
        blocks = np.stack([(sh.view(np.uint64) >> np.uint64(16 * b)) & np.uint64(0xFFFF)
                           for b in range(4)])          # (4, n)
        block_id = np.repeat(np.arange(4, dtype=np.int64), n)
        block_val = blocks.reshape(-1).astype(np.int64)
        # coarse group key: 4 blocks × 16 residues = 64 Ray groups (4 alone
        # caps verify parallelism at 4 tasks); a (block, value) bucket
        # never spans two groups
        coarse = block_id * _COARSE_PER_GROUP + block_val % _COARSE_PER_GROUP
        return pa.table({
            "coarse": pa.array(coarse.astype(np.int32)),
            "block_id": pa.array(block_id.astype(np.int32)),
            "block_val": pa.array(block_val),
            "doc_id": pa.array(np.tile(doc_id, 4)),
            "sh": pa.array(np.tile(sh, 4)),
        })

    cand = ds.select_columns(["doc_id", "text"]).map_batches(
        fingerprint, batch_format="pyarrow")

    def block_pairs(g: pa.Table) -> pa.Table:
        # one Ray group per (block, residue); one lexsort finds bucket
        # runs; hamming distance via vectorized xor-popcount per run
        ng = g.num_rows
        if ng < 2:
            return _pairs_table([], [], [])
        vals = g.column("block_val").to_numpy(zero_copy_only=False)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        sh_all = (g.column("sh").to_numpy(zero_copy_only=False)
                  .astype(np.int64).view(np.uint64))
        order = np.lexsort((ids, vals))
        vals, ids, sh_all = vals[order], ids[order], sh_all[order]
        keep = np.concatenate([[True], (vals[1:] != vals[:-1])
                               | (ids[1:] != ids[:-1])])
        vals, ids, sh_all = vals[keep], ids[keep], sh_all[keep]
        starts = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
        ends = np.concatenate([starts[1:], [len(vals)]])
        rows_a, rows_b, sims = [], [], []
        for s, e2 in zip(starts, ends):
            n = e2 - s
            if n < 2 or n > _BUCKET_CAP:   # degenerate bucket: no signal
                continue
            sh = sh_all[s:e2]
            xor = sh[:, None] ^ sh[None, :]
            dist = _POPCOUNT8[xor.view(np.uint8).reshape(n, n, 8)].sum(axis=2)
            iu, ju = np.triu_indices(n, 1)
            hit = dist[iu, ju] <= max_hamming
            if not hit.any():
                continue
            a, b = ids[s:e2][iu[hit]], ids[s:e2][ju[hit]]
            rows_a.append(np.minimum(a, b)); rows_b.append(np.maximum(a, b))
            sims.append((64.0 - dist[iu, ju][hit]) / 64.0)
        return _pairs_table(rows_a, rows_b, sims)

    pairs = cand.groupby("coarse").map_groups(block_pairs, batch_format="pyarrow")
    if not dedup_pairs:
        return pairs
    return (pairs.groupby(["a", "b"]).max("sim")
            .map_batches(lambda t: t.rename_columns(["a", "b", "sim"]),
                         batch_format="pyarrow"))


def simhash_dedup(ds: "ray.data.Dataset", max_hamming: int = 3) -> "ray.data.Dataset":
    # duplicate pairs are harmless to union-find → skip the dedup shuffle
    pairs = simhash_candidate_pairs(ds, max_hamming, dedup_pairs=False)
    clusters = connected_components(pairs)
    return drop_cluster_losers(ds, clusters)


# ----------------------------------------------------------- ngram-jaccard

def ngram_jaccard_pairs(ds: "ray.data.Dataset", threshold: float = 0.8,
                        n: int = 5, n_perm: int = 64, n_bands: int = 16
                        ) -> "ray.data.Dataset":
    """Verified EXACT n-gram-Jaccard pairs (a < b, sim ≥ threshold) —
    the pair stage under ``ngram_jaccard_dedup``, exposed for consumers
    that need the pairs themselves (split-leakage audits, cluster
    inspection) rather than the deduped survivors.

    Candidates are the LSH bucket-collision pairs PREFILTERED in-group by
    the signature estimate at a threshold a little BELOW the target
    (estimator noise ~1/sqrt(n_perm), so recall is preserved): raw bucket
    collisions on boilerplate-heavy corpora run ~1000× the true pair set,
    and each surviving candidate costs an exact shingle-set intersection —
    the prefilter keeps that quadratic honest.  The pair decision itself
    is the true n-gram Jaccard.  Only the candidate docs' shingle sets are
    broadcast — never the whole corpus.

    ``n`` defaults to 5: shingles shorter than ~5 chars are degenerate on
    natural text (nearly all documents share nearly all 3-grams, making
    every pair a "candidate" and the pair set quadratic).
    """
    # prefilter a little below the target (estimator noise ~1/sqrt(n_perm))
    # but never ABOVE it — that would silently drop genuine candidates
    prefilter = max(0.0, threshold - 2.0 / np.sqrt(n_perm))
    pairs = minhash_candidate_pairs(ds, threshold=prefilter,
                                    n_perm=n_perm, k=n, n_bands=n_bands)
    cand_rows = pairs.select_columns(["a", "b"]).take_all()
    if cand_rows:
        ab = np.unique(np.array([[r["a"], r["b"]] for r in cand_rows],
                                dtype=np.int64), axis=0)
    else:
        ab = np.empty((0, 2), dtype=np.int64)
    cand_ids = np.unique(ab.reshape(-1))
    ids_ref = ray.put(cand_ids)

    # candidate docs → UNIQUE sorted shingle-hash sets, computed INSIDE
    # map_batches (the corpus text never reaches the driver): filter each
    # block to candidates (np.isin), one vectorized shingle pass over the
    # block's texts, then per-doc sort+dedup via a lexsort boundary mask.
    from migration_pair_ray.functions.hashing import _batch_shingles

    def shingle_candidates(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = np.isin(ids, wanted)
        sub = batch.filter(pa.array(mask))
        texts = sub.column("text").to_pylist()
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "sh": pa.array([], pa.large_list(pa.uint64()))})
        if not texts:
            return empty
        h, starts = _batch_shingles(texts, n)
        counts = np.diff(np.concatenate([starts, [len(h)]]))
        doc_of = np.repeat(np.arange(len(texts)), counts)
        order = np.lexsort((h, doc_of))
        hs, ds_ = h[order], doc_of[order]
        keep = np.concatenate([[True], (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])])
        hs, ds_ = hs[keep], ds_[keep]
        uniq_counts = np.bincount(ds_, minlength=len(texts))
        offsets = np.concatenate([[0], np.cumsum(uniq_counts)]).astype(np.int64)
        lst = pa.LargeListArray.from_arrays(pa.array(offsets), pa.array(hs))
        return pa.table({"doc_id": sub.column("doc_id").cast(pa.int64()),
                         "sh": lst})

    # Collect the candidate shingle sets as THREE flat buffers
    # (sorted ids, segment offsets, concatenated hashes) — zero-copy via
    # block iteration on the way in, zero-copy plasma map in every verify
    # task on the way out (a dict of small arrays would deserialize per
    # task; take_all's per-row lists were the slow path).
    ids_parts, len_parts, hash_parts = [], [], []
    for t in (ds.select_columns(["doc_id", "text"])
                .map_batches(shingle_candidates, batch_format="pyarrow")
                .iter_batches(batch_size=None, batch_format="pyarrow")):
        if t.num_rows == 0:
            continue
        ids_parts.append(t.column("doc_id").to_numpy(zero_copy_only=False))
        col = t.column("sh").combine_chunks()
        hash_parts.append(np.asarray(col.flatten(), dtype=np.uint64))
        offs = np.asarray(col.offsets, dtype=np.int64)
        len_parts.append(np.diff(offs))
    if ids_parts:
        sids = np.concatenate(ids_parts)
        lens = np.concatenate(len_parts)
        hashes = np.concatenate(hash_parts)
        seg_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        order = np.argsort(sids)
        hashes = (np.concatenate([hashes[seg_starts[i]:seg_starts[i] + lens[i]]
                                  for i in order])
                  if len(order) else hashes)
        sids, lens = sids[order], lens[order]
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    else:
        sids = np.empty(0, np.int64)
        offsets = np.zeros(1, np.int64)
        hashes = np.empty(0, np.uint64)
    ref = ray.put((sids, offsets, hashes))

    def exact_verify(batch: pa.Table) -> pa.Table:
        sids_, offs_, hashes_ = ray.get(ref)   # zero-copy plasma buffers

        def seg(doc: int) -> np.ndarray | None:
            i = int(np.searchsorted(sids_, doc))
            if i >= len(sids_) or sids_[i] != doc:
                return None
            return hashes_[offs_[i]:offs_[i + 1]]

        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        sims = []
        for x, y in zip(a, b):
            sa, sb = seg(x), seg(y)
            if sa is None or sb is None:
                sims.append(0.0)
                continue
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            sims.append(inter / max(1, len(sa) + len(sb) - inter))
        out = batch.set_column(batch.schema.get_field_index("sim"), "sim",
                               pa.array(sims, pa.float64()))
        return out.filter(pa.compute.greater_equal(out.column("sim"), threshold))

    # verify from the already-collected, already-deduped pair table — the
    # candidate pipeline is NOT re-executed
    pairs_tbl = pa.table({"a": pa.array(ab[:, 0]), "b": pa.array(ab[:, 1]),
                          "sim": pa.array(np.zeros(len(ab), dtype=np.float64))})
    return driver_dataset([pairs_tbl]).map_batches(
        exact_verify, batch_format="pyarrow")


def ngram_jaccard_dedup(ds: "ray.data.Dataset", threshold: float = 0.8,
                        n: int = 5, n_perm: int = 64, n_bands: int = 16
                        ) -> "ray.data.Dataset":
    """MinHash-LSH recall, EXACT n-gram Jaccard precision: the verified
    pair stage (``ngram_jaccard_pairs``, design notes there) → connected
    components → keep the minimum doc id per cluster."""
    verified = ngram_jaccard_pairs(ds, threshold=threshold, n=n,
                                   n_perm=n_perm, n_bands=n_bands)
    clusters = connected_components(verified)
    return drop_cluster_losers(ds, clusters)


# ----------------------------------------------------------- span grain

def explode_spans(t: pa.Table, id_col: str, text_col: str,
                  span_words: int) -> pa.Table:
    """Split each row's whitespace-tokenized text into consecutive
    ``span_words``-word spans: one output row per (doc, span_idx), fully
    vectorized — the span boundaries are pure offset arithmetic over the
    flattened word buffer (spans tile a doc's words exactly, and docs are
    contiguous, so the span list-offsets ARE the start positions)."""
    if t.num_rows == 0:
        return pa.table({id_col: pa.array([], t.schema.field(id_col).type),
                         "span_idx": pa.array([], pa.int64()),
                         "span": pa.array([], pa.large_string())})
    words = pc.split_pattern(t.column(text_col).combine_chunks(), " ")
    flat = pc.cast(words.values, pa.large_string())
    offs = words.offsets.to_numpy().astype(np.int64)
    counts = np.diff(offs)
    n_spans = -(-counts // span_words)          # ceil; "" still yields 1
    doc_rep = np.repeat(np.arange(t.num_rows), n_spans)
    excl = np.concatenate([[0], np.cumsum(n_spans)[:-1]])
    span_idx = np.arange(int(n_spans.sum())) - np.repeat(excl, n_spans)
    starts = offs[doc_rep] + span_idx * span_words
    span_offsets = np.append(starts, offs[-1])
    lists = pa.LargeListArray.from_arrays(pa.array(span_offsets), flat)
    return pa.table({
        id_col: pc.take(t.column(id_col), pa.array(doc_rep)),
        "span_idx": pa.array(span_idx.astype(np.int64)),
        "span": pc.binary_join(lists, pa.scalar(" ", pa.large_string())),
    })


def span_exact_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                     id_col: str = "doc_id", span_words: int = 16,
                     num_buckets: int | None = None) -> "ray.data.Dataset":
    """Paragraph-grain exact dedup (CCNet/RefinedWeb-style, word-window
    spans standing in for paragraphs in newline-free corpora): explode
    docs into ``span_words``-word spans, keep ONE copy of every distinct
    span corpus-wide (the minimum (doc_id, span_idx) occurrence), and
    reassemble each doc from its surviving spans in order.  Docs whose
    every span was seen earlier vanish entirely.

    Scale shape: explode is per-batch vectorized (no shuffle); the dedup
    is the exact_dedup skeleton — coarse content-hash buckets, one Arrow
    sort + keep-first mask per bucket, span text in the sort key so hash
    collisions cannot false-merge; reassembly is grouped_string_agg (one
    doc-hash shuffle, zero per-key dispatch).  Rows exchanged are spans,
    i.e. ~input-sized — the same weight class as the exact_dedup shuffle.
    """
    from migration_pair_ray.functions.lww import _group_first_mask
    from migration_pair_ray.stages.analytic import grouped_string_agg
    from migration_pair_ray.stages.windows import _default_coarse
    num_buckets = _default_coarse(num_buckets)

    def add_hash(batch: pa.Table) -> pa.Table:
        s = explode_spans(batch, id_col, text_col, span_words)
        h = stable_hash64(s.column("span").to_pylist()).astype(np.int64)
        s = s.append_column("__h", pa.array(h))
        return s.append_column(
            "__b", pa.array((h % num_buckets).astype(np.int32)))

    def keep_first(g: pa.Table) -> pa.Table:
        g = g.sort_by([("__h", "ascending"), ("span", "ascending"),
                       (id_col, "ascending"), ("span_idx", "ascending")])
        g = g.filter(_group_first_mask(g, ["__h", "span"]))
        return g.drop_columns(["__h", "__b"])

    kept = (ds.map_batches(add_hash, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(keep_first, batch_format="pyarrow"))
    return grouped_string_agg(kept, id_col, ["span_idx"], "span",
                              sep=" ", out_col="text_dedup")


# ------------------------------------------------- incremental MinHash index

def build_minhash_index(ds: "ray.data.Dataset", index_dir: str,
                        n_perm: int = 64, k: int = 5, n_bands: int = 16,
                        num_buckets: int = 64) -> int:
    """Persist a corpus's MinHash-LSH index for INCREMENTAL near-dup
    probing — the streaming-ingest complement of ``minhash_lsh_dedup``
    (which re-sketches the whole corpus per run).  Two bucket-partitioned
    layouts, both probe-prunable:

    * ``band_bucket=<band_hash % num_buckets>/``: slim ``(band_id,
      band_hash, doc_id)`` rows (~20 B/doc/band) — a new document reads
      ONLY the buckets its own band hashes land in;
    * ``sig_bucket=<doc_id % num_buckets>/``: ``(doc_id, sig)`` rows
      (n_perm × 8 B/doc) — the verify pass fetches ONLY the buckets
      holding candidate ids.

    ``_meta.json`` (params + corpus count) is the commit marker, written
    last: a crashed build is invisible and a re-run overwrites cleanly.
    Returns the indexed doc count."""
    import json
    import os
    import pyarrow.parquet as pq
    from migration_pair_ray.state.manifest import _atomic_write

    sketch = ds.map_batches(
        lambda b: _sketch_batch(b, n_perm, k, n_bands),
        batch_format="pyarrow").materialize()   # executed once, reused twice

    def band_rows(t: pa.Table) -> pa.Table:
        e = _explode_band_rows(t, n_bands)
        bh = e.column("band_hash").to_numpy(zero_copy_only=False)
        band = (e.column("coarse").to_numpy(zero_copy_only=False)
                // _COARSE_PER_GROUP)
        return pa.table({
            "band_id": pa.array(band.astype(np.int32)),
            "band_hash": e.column("band_hash"),
            "doc_id": e.column("doc_id"),
            "__b": pa.array((bh % num_buckets).astype(np.int32)),
        })

    def write_part(kind: str):
        def _w(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return pa.table({"n": pa.array([], pa.int64())})
            b = int(g.column("__b")[0].as_py())
            g = g.drop_columns(["__b"]).sort_by(
                [("band_hash", "ascending"), ("doc_id", "ascending")]
                if kind == "band" else [("doc_id", "ascending")])
            d = os.path.join(index_dir, f"{kind}_bucket={b}")
            os.makedirs(d, exist_ok=True)
            tmp = os.path.join(d, f"base.parquet.tmp.{os.getpid()}")
            pq.write_table(g, tmp)
            os.replace(tmp, os.path.join(d, "base.parquet"))
            return pa.table({"n": pa.array([g.num_rows], pa.int64())})
        return _w

    (sketch.map_batches(band_rows, batch_format="pyarrow")
     .groupby("__b").map_groups(write_part("band"), batch_format="pyarrow")
     .materialize())

    def sig_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "sig": t.column("sig"),
            "__b": pa.array((ids % num_buckets).astype(np.int32)),
        })

    (sketch.map_batches(sig_rows, batch_format="pyarrow")
     .groupby("__b").map_groups(write_part("sig"), batch_format="pyarrow")
     .materialize())

    n_docs = sketch.count()
    _atomic_write(os.path.join(index_dir, "_meta.json"), json.dumps({
        "n_perm": n_perm, "k": k, "n_bands": n_bands,
        "num_buckets": num_buckets, "n_docs": n_docs}).encode())
    return n_docs


def minhash_probe_incremental(new_ds: "ray.data.Dataset", index_dir: str,
                              threshold: float = 0.8) -> pa.Table:
    """Near-dup pairs between a NEW batch and the persisted index —
    ``(a=index doc, b=new doc, sim=estimated Jaccard)`` with sim ≥
    threshold.  The corpus is never re-sketched: a new document's band
    hashes select the band buckets to read; raw band collisions become
    candidate pairs IN-GROUP (capped per bucket run, deduped before the
    verify exchange); the verify pass groups candidates by the index
    side's sig bucket, reads that one signature file, and scores against
    the broadcast new-batch signatures.

    Scale contract: index I/O is proportional to the probed buckets, the
    verify exchange carries only deduped candidate id pairs, and the
    returned table is bounded by the true near-dup rate.  New-vs-new
    duplicates inside the batch are out of scope (run the batch dedup for
    that); call ``build_minhash_index`` again to fold accepted docs in."""
    import json
    import os
    import pyarrow.parquet as pq

    meta = json.loads(open(os.path.join(index_dir, "_meta.json")).read())
    n_perm, k = int(meta["n_perm"]), int(meta["k"])
    n_bands, num_buckets = int(meta["n_bands"]), int(meta["num_buckets"])

    sketch = new_ds.map_batches(
        lambda b: _sketch_batch(b, n_perm, k, n_bands),
        batch_format="pyarrow").materialize()
    new_tbl = pa.concat_tables(
        [r for r in ray.get(sketch.to_arrow_refs()) if r.num_rows],
        promote_options="permissive") if sketch.count() else None
    if new_tbl is None or new_tbl.num_rows == 0:
        return _pairs_table([], [], [])
    order = np.argsort(new_tbl.column("doc_id").to_numpy(zero_copy_only=False))
    ids_new = new_tbl.column("doc_id").to_numpy(zero_copy_only=False)[order]
    sig_new = (np.asarray(new_tbl.column("sig").combine_chunks().flatten(),
                          dtype=np.int64)
               .reshape(new_tbl.num_rows, n_perm))[order]
    new_ref = ray.put((ids_new, sig_new))   # bounded: one new batch

    def candidates(g: pa.Table) -> pa.Table:
        """One band bucket: new band rows vs the index bucket file."""
        if g.num_rows == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        b = int(g.column("__b")[0].as_py())
        path = os.path.join(index_dir, f"band_bucket={b}", "base.parquet")
        if not os.path.exists(path):
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        idx = pq.read_table(path)
        # composite (band_id, band_hash) key on both sides
        def keyed(t):
            band = t.column("band_id").to_numpy(zero_copy_only=False).astype(np.int64)
            bh = t.column("band_hash").to_numpy(zero_copy_only=False)
            return band * np.int64(0x9E3779B9) + bh
        ki = keyed(idx)
        oi = np.argsort(ki, kind="stable")
        ki = ki[oi]
        idx_ids = idx.column("doc_id").to_numpy(zero_copy_only=False)[oi]
        kn = keyed(g)
        lo = np.searchsorted(ki, kn, "left")
        hi = np.searchsorted(ki, kn, "right")
        runs = np.minimum(hi - lo, _BUCKET_CAP)   # cap degenerate buckets
        tot = int(runs.sum())
        if tot == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        new_ids_g = g.column("doc_id").to_numpy(zero_copy_only=False)
        out_b = np.repeat(new_ids_g, runs)
        pos = np.concatenate([[0], np.cumsum(runs)[:-1]])
        take = (np.repeat(lo, runs)
                + (np.arange(tot) - np.repeat(pos, runs)))
        out_a = idx_ids[take]
        # in-group EXACT pair dedup before the exchange (lexsort +
        # neighbor mask — a hashed dedup key could collide and drop a
        # genuine pair)
        o = np.lexsort((out_b, out_a))
        sa, sb = out_a[o], out_b[o]
        first = np.concatenate([[True], (sa[1:] != sa[:-1])
                                | (sb[1:] != sb[:-1])])
        return pa.table({"a": pa.array(sa[first]), "b": pa.array(sb[first])})

    def verify(g: pa.Table) -> pa.Table:
        """One sig bucket: score candidate pairs against the index sig
        file + the broadcast new-batch signatures."""
        if g.num_rows == 0:
            return _pairs_table([], [], [])
        sb = int(g.column("__sb")[0].as_py())
        path = os.path.join(index_dir, f"sig_bucket={sb}", "base.parquet")
        if not os.path.exists(path):
            return _pairs_table([], [], [])
        st = pq.read_table(path)
        sid = st.column("doc_id").to_numpy(zero_copy_only=False)
        smat = (np.asarray(st.column("sig").combine_chunks().flatten(),
                           dtype=np.int64).reshape(st.num_rows, n_perm))
        nid, nmat = ray.get(new_ref)
        a = g.column("a").to_numpy(zero_copy_only=False)
        b = g.column("b").to_numpy(zero_copy_only=False)
        # pairs may repeat across band buckets: exact dedup once more
        o = np.lexsort((b, a))
        a, b = a[o], b[o]
        first = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        a, b = a[first], b[first]
        pa_i = np.searchsorted(sid, a)
        pb_i = np.searchsorted(nid, b)
        ok = (pa_i < len(sid)) & (sid[np.minimum(pa_i, len(sid) - 1)] == a) \
            & (pb_i < len(nid)) & (nid[np.minimum(pb_i, len(nid) - 1)] == b)
        a, b, pa_i, pb_i = a[ok], b[ok], pa_i[ok], pb_i[ok]
        if not len(a):
            return _pairs_table([], [], [])
        sims = (smat[pa_i] == nmat[pb_i]).mean(axis=1)
        hit = sims >= threshold
        return _pairs_table([a[hit]], [b[hit]], [sims[hit]])

    exploded = sketch.map_batches(
        lambda t: (lambda e: pa.table({
            "band_id": pa.array((e.column("coarse")
                                 .to_numpy(zero_copy_only=False)
                                 // _COARSE_PER_GROUP).astype(np.int32)),
            "band_hash": e.column("band_hash"),
            "doc_id": e.column("doc_id"),
            "__b": pa.array((e.column("band_hash")
                             .to_numpy(zero_copy_only=False)
                             % num_buckets).astype(np.int32)),
        }))(_explode_band_rows(t, n_bands)),
        batch_format="pyarrow")

    cand = (exploded.groupby("__b")
            .map_groups(candidates, batch_format="pyarrow"))
    cand = cand.map_batches(
        lambda t: t.append_column("__sb", pa.array(
            (t.column("a").to_numpy(zero_copy_only=False)
             % num_buckets).astype(np.int32))),
        batch_format="pyarrow")
    rows = (cand.groupby("__sb").map_groups(verify, batch_format="pyarrow")
            .take_all())                      # bounded: verified pairs only
    if not rows:
        return _pairs_table([], [], [])
    out = pa.Table.from_pylist(rows).sort_by(
        [("a", "ascending"), ("b", "ascending")])
    return out
