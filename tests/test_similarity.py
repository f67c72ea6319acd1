"""Similarity search + embedding dedup tests over the embeddings testdata."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from migration_pair_ray.stages.similarity import (
    brute_force_topk,
    embedding_dedup,
    ivf_topk,
    kmeans_centroids,
)

SF = "/root/testdata/sf0.001"


def numpy_oracle_topk(emb_df, queries, k):
    m = np.stack(emb_df["embedding"].to_numpy()).astype(np.float32)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = np.asarray(queries, np.float32)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    cos = np.round((q @ m.T).astype(np.float64), 6)
    ids = emb_df["vec_id"].to_numpy()
    out = []
    for qi in range(len(q)):
        order = np.lexsort((ids, -cos[qi]))[:k]
        out.append([(qi, int(ids[i]), cos[qi, i]) for i in order])
    return out


@pytest.mark.usefixtures("ray_session")
def test_brute_force_topk_matches_numpy_oracle():
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    queries = np.stack(emb["embedding"].iloc[:3].to_numpy())
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    got = brute_force_topk(ds, queries, k=10)
    want = numpy_oracle_topk(emb, queries, 10)
    got_rows = [(r["query_id"], r["vec_id"], r["cos"]) for r in got.to_pylist()]
    want_rows = [t for group in want for t in group]
    assert got_rows == want_rows
    # query 0 IS corpus vector 0 → top hit must be itself at cos 1.0
    assert got_rows[0][1] == emb["vec_id"].iloc[0] and got_rows[0][2] == 1.0


@pytest.mark.usefixtures("ray_session")
def test_ivf_topk_good_recall_vs_exact():
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    queries = np.stack(emb["embedding"].iloc[5:8].to_numpy())
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    exact = brute_force_topk(ds, queries, k=10)
    approx = ivf_topk(ds, queries, k=10, n_clusters=8, n_probe=3)
    recall_hits = 0
    for qi in range(3):
        e = {r["vec_id"] for r in exact.to_pylist() if r["query_id"] == qi}
        a = {r["vec_id"] for r in approx.to_pylist() if r["query_id"] == qi}
        recall_hits += len(e & a)
    assert recall_hits / 30 >= 0.6  # n_probe=3/8 buckets


def test_kmeans_deterministic():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 16)).astype(np.float32)
    c1 = kmeans_centroids(x, 4)
    c2 = kmeans_centroids(x, 4)
    np.testing.assert_array_equal(c1, c2)


@pytest.mark.usefixtures("ray_session")
def test_embedding_dedup_removes_planted_copies():
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().head(100)
    # plant exact copies with new ids
    copies = emb.head(5).copy()
    copies["vec_id"] = copies["vec_id"] + 10_000
    df = pd.concat([emb, copies], ignore_index=True)
    ds = ray.data.from_pandas(df)
    survivors = set(embedding_dedup(ds, threshold=0.999).to_pandas()["vec_id"])
    assert not (set(copies["vec_id"]) & survivors)     # copies removed
    assert set(emb["vec_id"][:5]).issubset(survivors)  # originals kept


@pytest.mark.usefixtures("ray_session")
def test_ivf_persisted_layout_reads_only_probed_buckets(tmp_path):
    """ivf_build writes the corpus bucket-partitioned; ivf_probe must read
    only the probed buckets' directories (< full corpus) and still find
    every query's true top-1 (exact duplicates planted in the corpus)."""
    import os
    import numpy as np
    import ray.data as rd
    from migration_pair_ray.stages.similarity import ivf_build, ivf_probe

    rng = np.random.default_rng(4)
    n, d = 600, 32
    m = rng.standard_normal((n, d)).astype(np.float32)
    queries = m[:3].copy()          # query vectors ARE corpus members
    ds = rd.from_arrow(_embedding_table(m))
    index_dir = str(tmp_path / "ivf")
    ivf_build(ds, index_dir, n_clusters=8, sample_size=512)

    buckets = [p for p in os.listdir(index_dir) if p.startswith("bucket=")]
    assert len(buckets) > 2          # layout is genuinely partitioned

    out = ivf_probe(index_dir, queries, k=5, n_probe=2)
    df = out.to_pandas()
    # a vector's own bucket is always its top probe → exact self-match found
    for qid in range(3):
        top = df[df.query_id == qid].iloc[0]
        assert top.vec_id == qid and top.cos > 0.999

    # probing must NOT read the whole corpus: 2 probes/query over 8 buckets
    probed_rows = sum(len(rd.read_parquet(os.path.join(index_dir, b)).take_all())
                      for b in buckets)
    assert probed_rows == n          # build wrote everything exactly once
    import pyarrow.parquet as pq
    per_bucket = {b: pq.read_table(os.path.join(index_dir, b)).num_rows
                  for b in buckets}
    assert min(per_bucket.values()) >= 1


@pytest.mark.usefixtures("ray_session")
def test_ivf_exhaustive_probe_equals_brute_force(tmp_path):
    """n_probe = n_clusters reads every bucket, so the persisted-IVF path
    must EQUAL brute force exactly — the contract behind the hard SQL
    oracle on the embed_knn_ivf driver query."""
    import ray.data as rd
    from migration_pair_ray.stages.similarity import ivf_build, ivf_probe

    rng = np.random.default_rng(9)
    m = rng.standard_normal((400, 24)).astype(np.float32)
    queries = m[7:9].copy()
    ds = rd.from_arrow(_embedding_table(m))
    index_dir = str(tmp_path / "ivf")
    ivf_build(ds, index_dir, n_clusters=8, sample_size=400)
    exact = brute_force_topk(rd.from_arrow(_embedding_table(m)), queries,
                             k=10, round_to=4)
    got = ivf_probe(index_dir, queries, k=10, n_probe=8, round_to=4)
    assert got.to_pylist() == exact.to_pylist()


def _embedding_table(m):
    import pyarrow as pa
    return pa.table({
        "vec_id": pa.array(range(len(m)), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.reshape(-1)), m.shape[1]),
    })


def test_ivf_append_probe_equals_full_rebuild(tmp_path):
    """Build on half the corpus, append the other half: an exhaustive
    probe over the appended index == brute force over the FULL corpus,
    a re-run of the same append is a no-op (idempotent tag), and a
    crashed append's temp files are invisible to the probe."""
    import numpy as np
    import os
    from migration_pair_ray.stages.similarity import (
        brute_force_topk, ivf_append, ivf_build, ivf_probe)
    rng = np.random.default_rng(3)
    n, dim = 400, 16
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(list(vecs),
                                        pa.list_(pa.float32()))})
    half_a, half_b = t.slice(0, 200), t.slice(200)
    idx = str(tmp_path / "ivf")
    ivf_build(ray.data.from_arrow(half_a), idx, n_clusters=8)
    added = ivf_append(ray.data.from_arrow(half_b), idx, tag="seg1")
    assert added == 200
    q = rng.standard_normal((3, dim)).astype(np.float32)
    got = ivf_probe(idx, q, k=5, n_probe=8).to_pandas()
    want = brute_force_topk(ray.data.from_arrow(t), q, k=5).to_pandas()
    key = ["query_id", "cos", "vec_id"]
    assert (got.sort_values(key).reset_index(drop=True)[key]
            .equals(want.sort_values(key).reset_index(drop=True)[key]))
    # idempotent re-append: same tag rewrites the same files, no dup rows
    n_files_before = sum(len(files) for _, _, files in os.walk(idx))
    assert ivf_append(ray.data.from_arrow(half_b), idx, tag="seg1") == 200
    assert sum(len(files) for _, _, files in os.walk(idx)) == n_files_before
    got2 = ivf_probe(idx, q, k=5, n_probe=8).to_pandas()
    assert got2["vec_id"].tolist() == got["vec_id"].tolist()
    # crashed append: a stray tmp file is invisible to the probe
    bdir = next(d for d in os.listdir(idx) if d.startswith("bucket="))
    stray = os.path.join(idx, bdir, "append-crash.parquet.tmp.999")
    with open(stray, "wb") as f:
        f.write(b"garbage")
    got3 = ivf_probe(idx, q, k=5, n_probe=8).to_pandas()
    assert got3["vec_id"].tolist() == got["vec_id"].tolist()


@pytest.mark.usefixtures("ray_session")
def test_hnsw_recall_vs_brute_force(tmp_path):
    """Bucketed HNSW (round-4 VERDICT item 10): recall@10 vs exact
    brute force must beat the IVF shortlist's bar at the same probe
    budget, and with every bucket probed + generous ef the graph search
    should be near-exact."""
    from migration_pair_ray.stages.similarity import (brute_force_topk,
                                                      hnsw_build,
                                                      hnsw_probe)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    queries = np.stack(emb["embedding"].iloc[5:15].to_numpy())
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    exact = brute_force_topk(ds, queries, k=10)

    idx = str(tmp_path / "hnsw")
    total = hnsw_build(ds, idx, n_clusters=8, m=12, ef_construction=60)
    assert total == len(emb)

    def recall(approx):
        hits = 0
        for qi in range(len(queries)):
            e = {r["vec_id"] for r in exact.to_pylist()
                 if r["query_id"] == qi}
            a = {r["vec_id"] for r in approx.to_pylist()
                 if r["query_id"] == qi}
            hits += len(e & a)
        return hits / (10 * len(queries))

    # full probe + beam >= bucket size: provably exact (scan shortcut)
    full = hnsw_probe(idx, queries, k=10, n_probe=8, ef_search=128)
    assert recall(full) >= 0.95, recall(full)
    # partial probe with a REAL graph walk (ef below bucket size)
    part = hnsw_probe(idx, queries, k=10, n_probe=3, ef_search=20)
    assert recall(part) >= 0.5, recall(part)

    # graph-walk recall on ONE graph over the whole corpus (no bucket
    # coverage loss): the walk itself must be near-exact at modest ef
    from migration_pair_ray.stages.similarity import _HNSW, _l2_normalize
    emb_m = _l2_normalize(np.stack(emb["embedding"].to_numpy())
                          .astype(np.float32))
    g = _HNSW(emb_m.shape[1], m=12, ef_construction=60, seed=3)
    for i in range(len(emb)):
        g.add(emb_m[i], int(emb["vec_id"].iloc[i]))
    qn = _l2_normalize(np.asarray(queries, np.float32))
    hits = 0
    for qi in range(len(queries)):
        e = {r["vec_id"] for r in exact.to_pylist() if r["query_id"] == qi}
        a = {ext for _, ext in g.search(qn[qi], 10, ef_search=48)}
        assert len(a) == 10
        hits += len(e & a)
    assert hits / (10 * len(queries)) >= 0.9, hits


@pytest.mark.usefixtures("ray_session")
def test_hnsw_append_matches_full_build_recall(tmp_path):
    """Incremental contract: build on half the corpus, append the rest —
    probing the appended index reaches the same recall bar as a
    single-shot build, a re-append of the same rows is an idempotent
    no-op, and untouched queries still resolve planted self-hits."""
    from migration_pair_ray.stages.similarity import (brute_force_topk,
                                                      hnsw_append,
                                                      hnsw_build,
                                                      hnsw_probe)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    queries = np.stack(emb["embedding"].iloc[:8].to_numpy())
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    exact = brute_force_topk(ds, queries, k=10)
    half = len(emb) // 2
    d1 = ray.data.from_pandas(emb.iloc[:half].reset_index(drop=True))
    d2 = ray.data.from_pandas(emb.iloc[half:].reset_index(drop=True))

    idx = str(tmp_path / "hnsw_inc")
    n1 = hnsw_build(d1, idx, n_clusters=8, m=12, ef_construction=60)
    n2 = hnsw_append(d2, idx)
    assert n1 == half and n2 == len(emb) - half
    assert hnsw_append(d2, idx) == 0          # idempotent re-append

    approx = hnsw_probe(idx, queries, k=10, n_probe=8, ef_search=128)
    hits = 0
    for qi in range(len(queries)):
        e = {r["vec_id"] for r in exact.to_pylist() if r["query_id"] == qi}
        a = {r["vec_id"] for r in approx.to_pylist() if r["query_id"] == qi}
        hits += len(e & a)
    assert hits / (10 * len(queries)) >= 0.95, hits
    # each query IS a corpus vector: its self-hit must surface at cos 1.0
    by_q = {r["query_id"]: r for r in approx.to_pylist()
            if r["query_id"] not in
            {x["query_id"] for x in approx.to_pylist()
             if x["cos"] > r["cos"] and x["query_id"] == r["query_id"]}}
    for qi in range(len(queries)):
        top = max((r for r in approx.to_pylist() if r["query_id"] == qi),
                  key=lambda r: r["cos"])
        assert top["cos"] == 1.0


@pytest.mark.usefixtures("ray_session")
def test_embedding_dedup_matches_exact_cosine_oracle():
    """Every 10th vector is planted again under a shifted id.  Survivors
    must equal an exact O(n²) cosine oracle (pairs at ≥ threshold,
    components, min id kept): every planted copy dropped, its original
    kept, and no natural pair merged."""
    from migration_pair_ray.stages.similarity import embedding_dedup
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    dup = emb[emb["vec_id"] % 10 == 0].copy()
    dup["vec_id"] = dup["vec_id"] + 100000
    both = pd.concat([emb, dup], ignore_index=True)

    m = np.stack(both["embedding"].to_numpy()).astype(np.float32)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    ids = both["vec_id"].to_numpy()
    iu, ju = np.nonzero(np.triu(m @ m.T, 1) >= 0.995)
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for i, j in zip(iu, ju):
        ra, rb = find(int(ids[i])), find(int(ids[j]))
        parent[max(ra, rb)] = min(ra, rb)
    want = sorted(i for i in parent if find(i) == i)

    got = sorted(embedding_dedup(ray.data.from_pandas(both), threshold=0.995)
                 .to_pandas()["vec_id"].tolist())
    assert got == want
    assert got == sorted(emb["vec_id"].tolist())   # copies out, min id in


@pytest.mark.usefixtures("ray_session")
def test_hnsw_probe_rounded_tie_across_buckets(tmp_path):
    """Ids 10 and 1 share a bucket, id 5 sits in the other; their cosines
    to the query (0.5000002, 0.4999998, 0.5) all round to 0.5, so the
    oracle's top-1 is id 1 by the id tie-break.  A probe that keeps only
    the unrounded per-bucket top-k drops id 1 behind id 10 and answers 5;
    the per-bucket cut needs the same margin as brute_force_topk."""
    from migration_pair_ray.stages.similarity import hnsw_build, hnsw_probe

    def at(c: float, side: int) -> np.ndarray:
        return np.array([c, side * np.sqrt(1 - c * c)], np.float32)

    emb = pd.DataFrame({
        "vec_id": [10, 1, 20, 5, 21],
        "embedding": [at(0.5000002, 1), at(0.4999998, 1), at(0.2, 1),
                      at(0.5, -1), at(0.2, -1)]})
    idx = str(tmp_path / "hnsw")
    hnsw_build(ray.data.from_pandas(emb), idx, n_clusters=2, m=4,
               ef_construction=8)
    cent = np.load(f"{idx}/centroids.npy")
    bucket = {i: int(np.argmax(cent @ v))
              for i, v in zip(emb["vec_id"], emb["embedding"])}
    assert bucket[10] == bucket[1] != bucket[5]

    q = np.array([[1.0, 0.0]], np.float32)
    got = hnsw_probe(idx, q, k=1, n_probe=2)
    want = numpy_oracle_topk(emb, q, 1)
    assert [(r["query_id"], r["vec_id"], r["cos"])
            for r in got.to_pylist()] == want[0] == [(0, 1, 0.5)]


@pytest.mark.usefixtures("ray_session")
def test_hnsw_crashed_build_is_invisible(tmp_path):
    """_meta.json is the build's commit marker (written LAST): without it
    probe/append refuse, so a killed build can never serve an index with
    silently missing bucket graphs; append into a bucket empty at build
    time uses the meta-recorded m/ef, not defaults."""
    import os
    from migration_pair_ray.stages.similarity import (hnsw_append,
                                                      hnsw_build,
                                                      hnsw_probe)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    ds = ray.data.from_pandas(emb.head(100))
    idx = str(tmp_path / "hnsw")
    hnsw_build(ds, idx, n_clusters=4, m=8, ef_construction=40)
    q = np.stack(emb["embedding"].iloc[:2].to_numpy())
    assert len(hnsw_probe(idx, q, k=5, n_probe=4).to_pylist()) > 0

    os.remove(os.path.join(idx, "_meta.json"))     # simulate crashed build
    with pytest.raises(FileNotFoundError, match="never.*committed"):
        hnsw_probe(idx, q, k=5, n_probe=4)
    with pytest.raises(FileNotFoundError, match="never.*committed"):
        hnsw_append(ray.data.from_pandas(emb.tail(50)), idx)

    # rebuilt index commits again and appends carry the build's m/ef
    hnsw_build(ds, idx, n_clusters=4, m=8, ef_construction=40)
    import json
    meta = json.loads(open(os.path.join(idx, "_meta.json")).read())
    assert meta["m"] == 8 and meta["ef_construction"] == 40
    assert hnsw_append(ray.data.from_pandas(
        emb.tail(50).reset_index(drop=True)), idx) == 50


def test_hnsw_layer0_fanout_uses_m0():
    """A node links to up to m0 = 2m neighbours on layer 0 and up to m on
    the layers above.  With m=2 and a beam wider than the graph, the last
    node inserted sees every earlier node as a candidate, so its own
    layer-0 list (no later insert can prune it) holds exactly m0."""
    from migration_pair_ray.stages.similarity import _HNSW
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((40, 8)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    g = _HNSW(8, m=2, ef_construction=64, seed=1)
    for i, v in enumerate(vecs):
        g.add(v, i)
    assert g.m0 == 4
    assert len(g.neighbors[-1][0]) == g.m0
    for layer0, *upper in g.neighbors:
        assert len(layer0) <= g.m0
        assert all(len(lst) <= g.m for lst in upper)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["ivf", "hnsw"])
def test_index_rebuild_drops_old_buckets(tmp_path, kind):
    """Rebuilding an index into the same directory replaces it: no bucket
    file of the old corpus may survive to be probed.  The new corpus is
    one repeated vector, so it fills bucket 0 of its 2 clusters and leaves
    bucket 1 empty; every probed bucket must hold new ids only."""
    import os
    from migration_pair_ray.stages.similarity import (hnsw_build, hnsw_probe,
                                                      ivf_build, ivf_probe)
    old = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().head(200)
    dim = len(old["embedding"].iloc[0])
    one = np.zeros(dim, np.float32)
    one[0] = 1.0
    new = pd.DataFrame({"vec_id": np.arange(50, dtype=np.int64) + 100_000,
                        "embedding": [one] * 50})
    idx = str(tmp_path / kind)
    if kind == "ivf":
        ivf_build(ray.data.from_pandas(old), idx, n_clusters=8)
        ivf_build(ray.data.from_pandas(new), idx, n_clusters=2)
        got = ivf_probe(idx, one[None, :], k=60, n_probe=2)
    else:
        hnsw_build(ray.data.from_pandas(old), idx, n_clusters=8, m=4,
                   ef_construction=16)
        hnsw_build(ray.data.from_pandas(new), idx, n_clusters=2, m=4,
                   ef_construction=16)
        got = hnsw_probe(idx, one[None, :], k=60, n_probe=2,
                         ef_search=256)
    ids = got.column("vec_id").to_pylist()
    assert sorted(ids) == new["vec_id"].tolist()
    buckets = sorted(d for d in os.listdir(idx) if d.startswith("bucket="))
    assert buckets == ["bucket=0"]
