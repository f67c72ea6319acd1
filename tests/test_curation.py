"""Curation-operator tests: tokenization contract, word-gram hashing,
decontamination (planted contamination + collision-proofing), vectorized
chunker edge semantics, and the distributed word count."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from migration_pair_ray.stages.curation import (
    chunk_batch,
    chunk_windows,
    decontaminate,
    term_counts,
    top_terms,
    word_gram_hashes,
    word_lists,
)

SF = "/root/testdata/sf0.001"


def test_word_lists_contract():
    flat, offs = word_lists(pa.chunked_array([pa.array(
        ["  Hello,  WORLD! 42 ", "", None, "a-b_c"])]))
    toks = flat.to_pylist()
    assert toks == ["hello", "world", "42", "a", "b", "c"]
    assert offs.tolist() == [0, 3, 3, 3, 6]
    # mirror of the SQL side of the contract
    want = duckdb.sql("""
        SELECT list_filter(string_split_regex(lower('  Hello,  WORLD! 42 '),
               '[^a-z0-9]+'), w -> w <> '') AS w""").fetchone()[0]
    assert list(want) == toks[:3]


def test_word_gram_hashes_short_docs_emit_no_grams():
    flat, offs = word_lists(pa.array(["a b c d", "a b", ""]))
    h, doc_of, pos = word_gram_hashes(flat, offs, 3)
    assert doc_of.tolist() == [0, 0]          # only doc 0 has >= 3 words
    assert len(h) == 2 and pos.tolist() == [0, 1]
    # identical windows hash identically across docs/batches
    f2, o2 = word_lists(pa.array(["x a b c", "a b c d"]))
    h2, d2, _ = word_gram_hashes(f2, o2, 3)
    assert h2[1] == h[0]   # "a b c" in both
    assert h2[3] == h[1]   # "b c d" in both


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_planted_overlap():
    bench = rd.from_arrow(pa.table({
        "doc_id": [1000], "text": ["alpha beta gamma delta"]}))
    corpus = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["zz alpha beta gamma delta yy",   # contains the bench 4-gram
                 "alpha beta gamma q delta",        # broken window: clean
                 "totally unrelated words here"]}))
    out = (decontaminate(corpus, bench, n=4).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["n_hit"].tolist() == [1, 0, 0]
    assert out["contaminated"].tolist() == [True, False, False]


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_counts_distinct_grams():
    bench = rd.from_arrow(pa.table({
        "doc_id": [0], "text": ["a b c d e"]}))   # grams: "a b c","b c d","c d e"
    corpus = rd.from_arrow(pa.table({
        "doc_id": [1], "text": ["a b c d e a b c d e"]}))  # repeats grams
    out = decontaminate(corpus, bench, n=3).to_pandas()
    # distinct shared grams: a b c / b c d / c d e / (d e a, e a b not in bench)
    assert out["n_hit"].tolist() == [3]


def test_chunk_batch_edges():
    t = pa.table({"doc_id": [1, 2, 3],
                  "text": ["one two three four five six",  # 6 tokens
                           "a b",                          # < size: 1 chunk
                           ""]})                           # empty: 1 empty chunk
    out = chunk_batch(t, size=4, stride=2)
    df = out.to_pandas()
    d1 = df[df.doc_id == 1]
    assert d1["chunk_text"].tolist() == [
        "one two three four", "three four five six"]
    assert d1["n_tokens"].tolist() == [4, 4]
    assert df[df.doc_id == 2]["chunk_text"].tolist() == ["a b"]
    assert df[df.doc_id == 3]["chunk_text"].tolist() == [""]
    assert df[df.doc_id == 3]["n_tokens"].tolist() == [0]


def test_chunk_batch_tail_chunk_shorter():
    t = pa.table({"doc_id": [7], "text": ["w1 w2 w3 w4 w5"]})
    df = chunk_batch(t, size=3, stride=2).to_pandas()
    # chunks: [w1 w2 w3], [w3 w4 w5], and (5-3)/2=1 → exactly 2 chunks
    assert df["chunk_text"].tolist() == ["w1 w2 w3", "w3 w4 w5"]
    assert df["chunk_idx"].tolist() == [0, 1]


@pytest.mark.usefixtures("ray_session")
def test_chunk_windows_covers_every_token():
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    chunks = chunk_windows(ds, size=32, stride=24).to_pandas()
    # stride < size ⇒ consecutive chunks overlap by size-stride; the union
    # of windows covers all tokens: last chunk must end at the doc's token
    # count, token count from the independent word_lists path
    flat, offs = word_lists(pa.array(
        pd.read_parquet(f"{SF}/documents.parquet").sort_values("doc_id")["text"]))
    wcnt = dict(zip(
        pd.read_parquet(f"{SF}/documents.parquet").sort_values("doc_id")["doc_id"],
        np.diff(offs)))
    last = chunks.sort_values(["doc_id", "chunk_idx"]).groupby("doc_id").tail(1)
    for _, r in last.iterrows():
        assert r.chunk_idx * 24 + r.n_tokens == wcnt[r.doc_id]


@pytest.mark.usefixtures("ray_session")
def test_term_counts_matches_duckdb():
    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    got = (term_counts(ds).to_pandas()
           .sort_values("term").reset_index(drop=True))
    want = duckdb.sql(f"""
        WITH w AS (SELECT list_filter(string_split_regex(lower(text),
                   '[^a-z0-9]+'), x -> x <> '') AS w
                   FROM read_parquet('{SF}/documents.parquet')),
        t AS (SELECT unnest(w) AS term FROM w)
        SELECT term, COUNT(*) AS n FROM t GROUP BY term ORDER BY term""").df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # top_terms = the same counts, top-k by (n desc, term)
    top = top_terms(ds, k=5).to_pandas()
    want_top = want.sort_values(["n", "term"], ascending=[False, True]).head(5)
    assert top["term"].tolist() == want_top["term"].tolist()
    assert top["n"].tolist() == want_top["n"].tolist()


def test_repetition_stats_hand_cases():
    from migration_pair_ray.stages.curation import repetition_stats_batch
    t = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["a b a b c", "x x x", "", "hello world"]})
    out = repetition_stats_batch(t).to_pandas().set_index("doc_id")
    # "a b a b c": grams [a b, b a, a b, b c]; "a b" twice
    assert out.loc[1].tolist() == [5, 3, 4, 2, 2]
    # "x x x": grams [x x, x x]
    assert out.loc[2].tolist() == [3, 1, 2, 2, 2]
    assert out.loc[3].tolist() == [0, 0, 0, 0, 0]
    assert out.loc[4].tolist() == [2, 2, 1, 0, 1]


def test_repetition_stats_matches_duckdb():
    from migration_pair_ray.stages.curation import repetition_stats
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    got = repetition_stats(ds).sort("doc_id").to_pandas()
    want = duckdb.sql(f"""
        WITH words AS (
          SELECT doc_id, list_filter(string_split_regex(lower(text),
                 '[^a-z0-9]+'), w -> w <> '') AS w
          FROM read_parquet('{SF}/documents.parquet')),
        tok AS (SELECT doc_id, unnest(w) AS t FROM words),
        ws AS (SELECT doc_id, COUNT(*) n_words, COUNT(DISTINCT t) nd
               FROM tok GROUP BY doc_id),
        expl AS (SELECT doc_id, w, unnest(generate_series(1, len(w)-1)) i
                 FROM words WHERE len(w) >= 2),
        gc AS (SELECT doc_id, array_to_string(w[i:i+1], ' ') g, COUNT(*) c
               FROM expl GROUP BY 1, 2),
        gs AS (SELECT doc_id, SUM(c) FILTER (WHERE c >= 2) dup, MAX(c) top
               FROM gc GROUP BY doc_id)
        SELECT w.doc_id, ws.n_words, ws.nd,
               GREATEST(len(w.w) - 1, 0) AS n_grams,
               COALESCE(gs.dup, 0) AS dup, COALESCE(gs.top, 0) AS top
        FROM words w LEFT JOIN ws USING (doc_id)
        LEFT JOIN gs USING (doc_id) ORDER BY w.doc_id""").df()
    assert got["n_words"].tolist() == want["n_words"].tolist()
    assert got["n_distinct_words"].tolist() == want["nd"].tolist()
    assert got["n_grams"].tolist() == want["n_grams"].tolist()
    assert got["n_dup_gram_instances"].tolist() == want["dup"].tolist()
    assert got["top_gram_count"].tolist() == want["top"].tolist()


def test_tfidf_top_term_matches_duckdb():
    from migration_pair_ray.stages.curation import tfidf_top_term
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    got = tfidf_top_term(ds, n_docs=ds.count()).sort("doc_id").to_pandas()
    want = duckdb.sql(f"""
        WITH words AS (
          SELECT doc_id, list_filter(string_split_regex(lower(text),
                 '[^a-z0-9]+'), w -> w <> '') AS w
          FROM read_parquet('{SF}/documents.parquet')),
        tok AS (SELECT doc_id, unnest(w) t FROM words),
        tf AS (SELECT doc_id, t, COUNT(*) c FROM tok GROUP BY 1, 2),
        df AS (SELECT t, COUNT(DISTINCT doc_id) df FROM tok GROUP BY t),
        nd AS (SELECT COUNT(*) n
               FROM read_parquet('{SF}/documents.parquet')),
        s AS (SELECT tf.doc_id, tf.t, tf.c, df.df,
                     CAST(FLOOR(tf.c * (ln((nd.n+1.0)/(df.df+1.0)) + 1.0)
                          * 1000000) AS BIGINT) score_s
              FROM tf JOIN df ON tf.t = df.t, nd),
        r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
              ORDER BY score_s DESC, t) rn FROM s)
        SELECT doc_id, t, c, df, score_s FROM r WHERE rn = 1
        ORDER BY doc_id""").df()
    assert got["top_term"].tolist() == want["t"].tolist()
    assert got["score_s"].tolist() == want["score_s"].tolist()
    assert got["df"].tolist() == want["df"].tolist()


def test_tfidf_min_df_prunes_rare_terms():
    from migration_pair_ray.stages.curation import tfidf_top_term
    docs = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["common rare1", "common rare2", "common common"]}))
    out = tfidf_top_term(docs, n_docs=3, min_df=2).sort("doc_id").to_pandas()
    # rare terms pruned from the store -> every doc's top term is "common"
    assert out["top_term"].tolist() == ["common", "common", "common"]
    assert out["df"].tolist() == [3, 3, 3]


@pytest.mark.usefixtures("ray_session")
def test_linear_gate_exact_scores():
    from migration_pair_ray.stages.curation import linear_gate
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "a": pa.array([10, 1], pa.int64())})

    def feats(b: pa.Table) -> np.ndarray:
        a = b.column("a").to_numpy(zero_copy_only=False)
        return np.stack([a, np.ones(len(a), np.int64)], axis=1)

    got = (linear_gate(rd.from_arrow(t), feats, np.array([2, -5]))
           .sort("doc_id").to_pandas())
    assert got["score"].tolist() == [15, -3]
    assert got["verdict"].tolist() == ["keep", "drop"]


@pytest.mark.usefixtures("ray_session")
def test_embed_quantize_zero_vector_guard():
    import pyarrow.parquet as pq_mod
    from migration_pair_ray.pipelines.queries import embed_quantize
    import tempfile, os
    d = tempfile.mkdtemp()
    t = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]],
                              pa.list_(pa.float32())),
    })
    pq_mod.write_table(t, os.path.join(d, "embeddings.parquet"))
    got = embed_quantize(d).to_pandas()
    z = got[got.vec_id == 0].iloc[0]
    assert (z.scale_u, z.q_sum, z.q_min, z.q_max) == (0, 0, 0, 0)
    nz = got[got.vec_id == 1].iloc[0]
    assert nz.q_min == -127 or nz.q_max == 127   # the max-|x| dim saturates


@pytest.mark.usefixtures("ray_session")
def test_bigram_typicality_exact(tmp_path):
    """Engine == brute-force python recomputation, including null/empty/
    single-char docs (no bigrams -> dropped)."""
    import collections
    import ray.data as rd
    from migration_pair_ray.stages.curation import bigram_typicality

    # leading empty/None texts are the hard case: a doc-end offset of 0
    # must not mask an earlier bigram or index -1
    texts = ["", None, "abab", "abc", "x", "", None, "the cat",
             "the bat", "zz", ""]
    ids = list(range(len(texts)))
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "text": pa.array(texts, pa.string())}))
    got = {r["doc_id"]: (r["familiarity"], r["n_bigrams"])
           for r in bigram_typicality(ds).take_all()}

    model = collections.Counter()
    for t in texts:
        t = t or ""
        model.update(t[i:i + 2] for i in range(len(t) - 1))
    want = {}
    for i, t in enumerate(texts):
        t = t or ""
        grams = [t[j:j + 2] for j in range(len(t) - 1)]
        if grams:
            want[i] = (sum(model[g] for g in grams), len(grams))
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_tfidf_top_term_matches_pandas():
    """Every output column, including tf, against a pandas tf-idf written
    from the contract: lowercase tokens split on [^a-z0-9]+, smoothed
    idf = ln((N+1)/(df+1)) + 1, score_s = floor(tf·idf·1e6), top term by
    score then smallest term; a doc without tokens emits no row."""
    import re
    from migration_pair_ray.stages.curation import tfidf_top_term
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    n = len(docs)
    tok = pd.DataFrame(
        [(d, w) for d, t in zip(docs["doc_id"], docs["text"])
         for w in re.split(r"[^a-z0-9]+", (t or "").lower()) if w],
        columns=["doc_id", "term"])
    tf = tok.groupby(["doc_id", "term"]).size().rename("tf").reset_index()
    tf["df"] = tf.groupby("term")["doc_id"].transform("size")
    idf = np.log((n + 1.0) / (tf["df"].to_numpy() + 1.0)) + 1.0
    tf["score_s"] = np.floor(tf["tf"].to_numpy() * idf * 1_000_000
                             ).astype(np.int64)
    want = (tf.sort_values(["doc_id", "score_s", "term"],
                           ascending=[True, False, True])
            .drop_duplicates("doc_id")
            .rename(columns={"term": "top_term"})
            [["doc_id", "top_term", "tf", "df", "score_s"]]
            .reset_index(drop=True))

    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    got = (tfidf_top_term(ds, n).to_pandas().sort_values("doc_id")
           .reset_index(drop=True)[want.columns])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_tfidf_join_min_df_and_string_ids():
    """min_df pruning and non-integer doc ids take the join scorer's other
    branches (string-hash coarse buckets; pruned terms score nothing)."""
    from migration_pair_ray.stages.curation import tfidf_top_term
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(["d1", "d2", "d3"], pa.string()),
        "text": ["common rare1", "common rare2", "common common"]}))
    out = (tfidf_top_term(docs, 3, min_df=2).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["top_term"].tolist() == ["common", "common", "common"]
    assert out["df"].tolist() == [3, 3, 3]


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_distinct_hits_and_passthrough():
    """Planted overlap, a broken window, a clean doc and a doc repeating
    two distinct bench 4-grams give n_hit [1, 0, 0, 2]; passthrough
    appends the flags to the input columns unchanged."""
    bench = rd.from_arrow(pa.table({
        "doc_id": [1000, 1001],
        "text": ["alpha beta gamma delta", "a b c d e"]}))
    texts = ["zz alpha beta gamma delta yy",
             "alpha beta gamma q delta",
             "totally unrelated words here",
             "a b c d e a b c d e"]
    corpus = rd.from_arrow(pa.table({"doc_id": [1, 2, 3, 4], "text": texts}))

    def norm(ds):
        return (ds.to_pandas().sort_values("doc_id")
                .reset_index(drop=True))

    got = norm(decontaminate(corpus, bench, n=4))
    assert list(got.columns) == ["doc_id", "n_hit", "contaminated"]
    assert got["n_hit"].tolist() == [1, 0, 0, 2]   # doc 4: 2 distinct 4-grams
    assert got["contaminated"].tolist() == [True, False, False, True]

    pt = norm(decontaminate(corpus, bench, n=4, passthrough=True))
    assert list(pt.columns) == ["doc_id", "text", "n_hit", "contaminated"]
    assert pt["text"].tolist() == texts
    pd.testing.assert_frame_equal(pt.drop(columns="text"), got)
