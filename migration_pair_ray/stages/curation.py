"""Corpus-curation operators for training-data pipelines: benchmark
decontamination (broadcast n-gram semi-join), sliding-window chunking
(vectorized flat-map), corpus vocabulary statistics (word count with a
per-block combiner) and per-doc top tf-idf term (term runs joined with
the document-frequency table).

Reference analog: none — these generalize the curation steps a 100-TB
text-corpus pipeline needs on top of the reference's row-copy engine
(SURVEY.md "Beyond the reference").  Design stance per SURVEY.md §7:
everything is a vectorized Arrow/numpy transform inside ``map_batches``;
the only driver-side materializations are the benchmark gram table (an
eval set is small BY CONSTRUCTION — a few thousand documents vs the
corpus's billions) and the merged top-k partials.

Tokenization contract (shared by every operator here and mirrored 1:1 in
the SQL oracles): lowercase, split on the RE2 class ``[^a-z0-9]+``, drop
empty tokens — SQL: ``list_filter(string_split_regex(lower(text),
'[^a-z0-9]+'), w -> w <> '')``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from migration_pair_ray.functions.hashing import _POLY_B, stable_hash64

_TOKEN_SPLIT = r"[^a-z0-9]+"


def word_lists(col: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, np.ndarray]:
    """Tokenize a string column → ``(flat_tokens, offsets)``.

    ``flat_tokens`` is the concatenation of every row's tokens;
    ``offsets`` (len = n_rows + 1, starts at 0) delimits row r's tokens as
    ``flat_tokens[offsets[r]:offsets[r+1]]``.  Fully vectorized: one
    ``split_pattern_regex`` kernel, one filter for empty tokens, and the
    offset rebuild is a cumsum gather — no Python row loop.  Returning the
    flat+offsets pair (instead of a ListArray) sidesteps Arrow child-offset
    pitfalls and feeds numpy segment tricks directly.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    lists = pc.split_pattern_regex(pc.utf8_lower(col), _TOKEN_SPLIT)
    offs = np.asarray(lists.offsets)
    offs = (offs - offs[0]).astype(np.int64)
    flat = lists.flatten()
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    cum = np.concatenate([[0], np.cumsum(keep_np, dtype=np.int64)])
    return flat.filter(keep), cum[offs]


def word_gram_hashes(flat_tokens: pa.Array, offsets: np.ndarray, n: int,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word n-gram hashes for a tokenized batch.

    Returns ``(hashes, doc_of, start_pos)``: one entry per n-gram —
    polynomial rolling hash (uint64 wraparound, process-stable via the
    SipHash word hash) over each window of ``n`` consecutive tokens, the
    owning row index, and the gram's starting index into ``flat_tokens``
    (for exact string reconstruction of a *small* candidate subset).  A row
    with fewer than ``n`` tokens contributes no grams — mirroring the SQL
    ``WHERE i <= len(w) - n + 1`` guard.  Vectorized: ``n`` fused
    multiply-adds over a gather index, no per-doc loop.
    """
    wh = stable_hash64(np.asarray(flat_tokens.to_pandas(), dtype=object))
    wcnt = np.diff(offsets)
    n_g = np.maximum(wcnt - n + 1, 0)
    total = int(n_g.sum())
    if total == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    doc_of = np.repeat(np.arange(len(wcnt), dtype=np.int64), n_g)
    seg_starts = np.concatenate([[0], np.cumsum(n_g)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, n_g)
    pos = offsets[:-1][doc_of] + within
    h = np.zeros(total, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            h = h * _POLY_B + wh[pos + j]
    return h, doc_of, pos


# ---------------------------------------------------------------- decontam

def _gram_rows_batch(t: pa.Table, text_col: str, n: int) -> pa.Table:
    """(gh, g) rows of a batch's word n-grams WITH materialized strings —
    the broadcast store's extraction (bench side only: gram strings are
    bounded by the eval set, never the corpus)."""
    flat, offs = word_lists(t.column(text_col))
    h, _, pos = word_gram_hashes(flat, offs, n)
    toks = np.asarray(flat.to_pandas(), dtype=object)
    strs = [" ".join(toks[p:p + n]) for p in pos]
    return pa.table({"gh": pa.array(h, pa.uint64()),
                     "g": pa.array(strs, pa.string())})


def benchmark_gram_store(bench: rd.Dataset, text_col: str = "text",
                         n: int = 8) -> "ray.ObjectRef":
    """Distill a (small) benchmark/eval dataset into a broadcastable gram
    store: ``{"hashes": sorted unique uint64, "strings": frozenset}``.

    The gram extraction runs distributed (``map_batches``); only the
    distilled per-block gram tables come back to the driver — bounded by
    the eval set's size, which is small by construction (the whole point
    of decontamination is eval sets ≪ corpus).  ``ray.put`` once; every
    scrubbing task reads it zero-copy from the object store.
    """

    parts = bench.map_batches(
        lambda t: _gram_rows_batch(t, text_col, n),
        batch_format="pyarrow").to_pandas()
    hashes = np.unique(parts["gh"].to_numpy(dtype=np.uint64))
    return ray.put({"hashes": hashes, "strings": frozenset(parts["g"])})


def flag_contaminated(t: pa.Table, store_ref, n: int = 8,
                      text_col: str = "text", id_col: str = "doc_id",
                      passthrough: bool = False) -> pa.Table:
    """Count each document's distinct word n-grams that appear in the
    benchmark store (0 ⇒ clean).

    Hash semi-join first (``np.isin`` against the sorted broadcast hash
    array — vectorized over every gram in the batch), then EXACT string
    verification of the few candidate docs only, so a 64-bit hash
    collision can never flag a clean doc (and a real overlap can never be
    missed — equal strings hash equal).  The store is fetched from the
    object store once per batch.
    """
    store = ray.get(store_ref)
    flat, offs = word_lists(t.column(text_col))
    h, doc_of, pos = word_gram_hashes(flat, offs, n)
    n_hit = np.zeros(t.num_rows, dtype=np.int64)
    hit = np.isin(h, store["hashes"])
    if hit.any():
        toks = np.asarray(flat.to_pandas(), dtype=object)
        for d in np.unique(doc_of[hit]):     # candidates only
            sel = pos[doc_of == d]
            gs = {" ".join(toks[p:p + n]) for p in sel}
            n_hit[d] = len(gs & store["strings"])
    flags = (pa.array(n_hit, pa.int64()), pa.array(n_hit > 0, pa.bool_()))
    if passthrough:     # keep input columns (for composed gates)
        return (t.append_column("n_hit", flags[0])
                .append_column("contaminated", flags[1]))
    return pa.table({id_col: t.column(id_col),
                     "n_hit": flags[0], "contaminated": flags[1]})


def decontaminate(docs: rd.Dataset, bench: rd.Dataset, n: int = 8,
                  text_col: str = "text", id_col: str = "doc_id",
                  passthrough: bool = False) -> rd.Dataset:
    """Benchmark decontamination: (id, n_hit, contaminated) per corpus doc
    (``passthrough=True`` appends the flags to the input columns instead).

    The classic broadcast semi-join shape — the big side streams, the
    small side rides the object store; no shuffle of the corpus.  Limit:
    the gram store (distinct eval-set grams) must fit in one node's
    object store — an eval set is small by design."""
    store = benchmark_gram_store(bench, text_col=text_col, n=n)
    return docs.map_batches(
        flag_contaminated, fn_kwargs=dict(
            store_ref=store, n=n, text_col=text_col, id_col=id_col,
            passthrough=passthrough),
        batch_format="pyarrow")


# ----------------------------------------------------------------- chunker

def chunk_batch(t: pa.Table, size: int, stride: int,
                text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Sliding-window chunker over one batch: split each doc's token list
    into windows of ``size`` tokens advancing by ``stride`` (the training
    context-window prep step).  Emits (id, chunk_idx, n_tokens,
    chunk_text); every doc emits ≥ 1 chunk (an empty doc yields one empty
    chunk), n_chunks = 1 + ceil(max(0, n_tokens_doc - size) / stride).

    Fully vectorized flat-map: window membership is a gather index built
    with repeat/cumsum arithmetic, the chunk text is one Arrow
    ``take`` + ``binary_join`` — no per-chunk Python string assembly.
    """
    flat, offs = word_lists(t.column(text_col))
    wcnt = np.diff(offs)
    n_chunks = 1 + np.ceil(np.maximum(wcnt - size, 0) / stride).astype(np.int64)
    total = int(n_chunks.sum())
    doc_of = np.repeat(np.arange(len(wcnt), dtype=np.int64), n_chunks)
    seg = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
    chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(seg, n_chunks)
    start = chunk_idx * stride
    length = np.minimum(start + size, wcnt[doc_of]) - start
    g_off = np.concatenate([[0], np.cumsum(length)])
    within = np.arange(int(g_off[-1]), dtype=np.int64) - np.repeat(g_off[:-1], length)
    gather = np.repeat(offs[:-1][doc_of] + start, length) + within
    words = flat.take(pa.array(gather, pa.int64()))
    chunks = pa.ListArray.from_arrays(pa.array(g_off, pa.int32()), words)
    return pa.table({
        id_col: t.column(id_col).take(pa.array(doc_of, pa.int64())),
        "chunk_idx": pa.array(chunk_idx, pa.int64()),
        "n_tokens": pa.array(length, pa.int64()),
        "chunk_text": pc.binary_join(chunks, " ")})


def chunk_windows(docs: rd.Dataset, size: int = 32, stride: int = 24,
                  text_col: str = "text", id_col: str = "doc_id") -> rd.Dataset:
    return docs.map_batches(
        lambda t: chunk_batch(t, size, stride, text_col, id_col),
        batch_format="pyarrow")


# --------------------------------------------------------------- term freq

def term_counts(docs: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Distributed word count: per-block tokenize + local grouped count
    (the combiner — the shuffle moves at most one row per distinct term
    per block, never the raw token stream), then a grouped sum."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        flat, _ = word_lists(t.column(text_col))
        g = (pa.table({"term": flat}).group_by("term")
             .aggregate([("term", "count")]))
        return g.rename_columns(["term", "n"])

    return (docs.map_batches(partial, batch_format="pyarrow")
            .groupby("term").aggregate(Sum("n", alias_name="n")))


def top_terms(docs: rd.Dataset, k: int = 50,
              text_col: str = "text") -> pa.Table:
    """Top-k terms by frequency (ties → lexicographic) — local top-k per
    aggregated block + tiny driver merge; the vocabulary itself never
    funnels through one node (web-scale vocabularies are large)."""
    keys = [("n", "descending"), ("term", "ascending")]

    def local_topk(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=keys).slice(0, k))

    parts = (term_counts(docs, text_col)
             .map_batches(local_topk, batch_format="pyarrow").take_all())
    merged = pa.Table.from_pylist(parts, schema=pa.schema(
        [pa.field("term", pa.string()), pa.field("n", pa.int64())]))
    return merged.sort_by(keys).slice(0, k)


# ------------------------------------------------------------- repetition

def repetition_stats_batch(t: pa.Table, n: int = 2, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Per-document repetition signals (the Gopher/MassiveText quality
    rules): word counts, distinct-word counts, and duplicate word-n-gram
    counts.  Everything is an exact INTEGER count so the SQL oracle is a
    bit-exact compare; callers derive the published fractions
    (duplicate-n-gram fraction = n_dup_gram_instances / n_grams,
    top-gram fraction = top_gram_count / n_grams) downstream.

    Exactness: gram identity is decided on the gram STRINGS (one Arrow
    gather + ``take`` + ``binary_join``, then one sort) — never on 64-bit
    hashes — so a hash collision can't inflate a duplicate count.  Pure
    per-batch map (a document is one row, so all its grams live in one
    batch); no shuffle.
    """
    flat, offs = word_lists(t.column(text_col))
    wcnt = np.diff(offs)
    n_docs = len(wcnt)
    d_of_word = np.repeat(np.arange(n_docs, dtype=np.int64), wcnt)

    def _per_doc_run_stats(d: np.ndarray, vals: pa.Array
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For rows (d, vals): sort by (d, val), run-length the equal
        runs, return per-doc (n_distinct, n_dup_instances, top_run_len)."""
        distinct = np.zeros(n_docs, np.int64)
        dup = np.zeros(n_docs, np.int64)
        top = np.zeros(n_docs, np.int64)
        if len(d) == 0:
            return distinct, dup, top
        tbl = pa.table({"d": pa.array(d), "v": vals})
        order = pc.sort_indices(tbl, sort_keys=[("d", "ascending"),
                                                ("v", "ascending")])
        ds_ = np.asarray(pc.take(tbl.column("d"), order))
        vs = pc.take(tbl.column("v"), order).combine_chunks()
        same_v = pc.equal(vs.slice(1), vs.slice(0, len(vs) - 1)
                          ).to_numpy(zero_copy_only=False)
        first = np.concatenate([[True],
                                (ds_[1:] != ds_[:-1]) | ~same_v])
        run_id = np.cumsum(first) - 1
        run_len = np.bincount(run_id)
        run_doc = ds_[first]
        distinct = np.bincount(run_doc, minlength=n_docs)
        dup = np.bincount(run_doc, weights=run_len * (run_len >= 2),
                          minlength=n_docs).astype(np.int64)
        doc_first = np.concatenate([[True], run_doc[1:] != run_doc[:-1]])
        seg_starts = np.flatnonzero(doc_first)
        top_present = np.maximum.reduceat(run_len, seg_starts)
        top[run_doc[seg_starts]] = top_present
        return distinct.astype(np.int64), dup, top

    n_distinct_words, _, _ = _per_doc_run_stats(d_of_word, flat)

    n_g = np.maximum(wcnt - n + 1, 0)
    total = int(n_g.sum())
    if total:
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_g)
        seg = np.concatenate([[0], np.cumsum(n_g)[:-1]])
        within = np.arange(total, dtype=np.int64) - np.repeat(seg, n_g)
        pos = offs[:-1][doc_of] + within
        gather = (pos[:, None] + np.arange(n, dtype=np.int64)).ravel()
        words = flat.take(pa.array(gather, pa.int64()))
        g_offs = np.arange(total + 1, dtype=np.int64) * n
        grams = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(g_offs), words), " ")
        _, n_dup, top_cnt = _per_doc_run_stats(doc_of, grams)
    else:
        n_dup = np.zeros(n_docs, np.int64)
        top_cnt = np.zeros(n_docs, np.int64)

    return pa.table({
        id_col: t.column(id_col),
        "n_words": pa.array(wcnt, pa.int64()),
        "n_distinct_words": pa.array(n_distinct_words, pa.int64()),
        "n_grams": pa.array(n_g, pa.int64()),
        "n_dup_gram_instances": pa.array(n_dup, pa.int64()),
        "top_gram_count": pa.array(top_cnt, pa.int64())})


def repetition_stats(docs: rd.Dataset, n: int = 2, text_col: str = "text",
                     id_col: str = "doc_id") -> rd.Dataset:
    return docs.map_batches(
        lambda t: repetition_stats_batch(t, n, text_col, id_col),
        batch_format="pyarrow")


# ----------------------------------------------------------------- tf-idf

def doc_freq(docs: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Distributed document frequency: per block, each doc's DISTINCT
    terms (one Arrow sort + boundary mask — a doc is one row, so a block
    sees all of it) grouped into partial df counts; the shuffle then
    carries one row per distinct term per block (the combiner), never the
    token stream."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        flat, offs = word_lists(t.column(text_col))
        wcnt = np.diff(offs)
        d = np.repeat(np.arange(len(wcnt), dtype=np.int64), wcnt)
        if len(d) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        tbl = pa.table({"d": pa.array(d), "t": flat})
        order = pc.sort_indices(tbl, sort_keys=[("d", "ascending"),
                                                ("t", "ascending")])
        ds_ = np.asarray(pc.take(tbl.column("d"), order))
        ts = pc.take(tbl.column("t"), order).combine_chunks()
        same = pc.equal(ts.slice(1), ts.slice(0, len(ts) - 1)
                        ).to_numpy(zero_copy_only=False)
        first = np.concatenate([[True], (ds_[1:] != ds_[:-1]) | ~same])
        g = (pa.table({"term": ts.filter(pa.array(first))})
             .group_by("term").aggregate([("term", "count")]))
        return g.rename_columns(["term", "df"])

    return (docs.map_batches(partial, batch_format="pyarrow")
            .groupby("term").aggregate(Sum("df", alias_name="df")))


def _term_tf_runs(t: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Per-batch (id, term, tf) rows — one row per distinct term per doc.
    Valid per batch because a document is one input row, so a block sees
    all of it.  One Arrow sort + boundary masks, no Python loop."""
    it = t.schema.field(id_col).type
    empty = pa.table({id_col: pa.array([], it),
                      "term": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64())})
    flat, offs = word_lists(t.column(text_col))
    wcnt = np.diff(offs)
    d = np.repeat(np.arange(len(wcnt), dtype=np.int64), wcnt)
    if len(d) == 0:
        return empty
    tbl = pa.table({"d": pa.array(d), "t": flat})
    order = pc.sort_indices(tbl, sort_keys=[("d", "ascending"),
                                            ("t", "ascending")])
    ds_ = np.asarray(pc.take(tbl.column("d"), order))
    ts = pc.take(tbl.column("t"), order).combine_chunks()
    same = pc.equal(ts.slice(1), ts.slice(0, len(ts) - 1)
                    ).to_numpy(zero_copy_only=False)
    first = np.concatenate([[True], (ds_[1:] != ds_[:-1]) | ~same])
    run_id = np.cumsum(first) - 1
    tf = np.bincount(run_id).astype(np.int64)
    return pa.table({
        id_col: t.column(id_col).take(pa.array(ds_[first])),
        "term": ts.filter(pa.array(first)),
        "tf": pa.array(tf),
    })


def tfidf_top_term(docs: rd.Dataset, n_docs: int, text_col: str = "text",
                   id_col: str = "doc_id", min_df: int = 1,
                   n_coarse: int = 64) -> rd.Dataset:
    """Per-doc top tf-idf term, fully distributed: no vocabulary ever
    funnels to the driver or broadcasts.  (doc, term, tf) runs stream out
    of the corpus, meet the ``doc_freq`` table in one partitioned
    ``hash_join`` on term, and the per-doc argmax runs inside coarse
    doc-hash groups (one in-group lexsort + first-mask — never one Ray
    group per doc).

    Smoothed ``idf = ln((N+1)/(df+1)) + 1``; scores are floor-scaled to
    int64 (``score_s = floor(tf·idf·1e6)``) so ranking and output are
    bit-portable to a SQL mirror doing the identical double arithmetic.
    Ties break on the lexicographically smallest term; terms with
    df < ``min_df`` score nothing."""
    from migration_pair_ray.stages.join import hash_join
    df_ds = doc_freq(docs, text_col=text_col)
    if min_df > 1:
        df_ds = df_ds.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("df"), min_df)),
            batch_format="pyarrow")
    runs = docs.map_batches(
        lambda t: _term_tf_runs(t, text_col, id_col),
        batch_format="pyarrow")
    joined = hash_join(runs, df_ds, on="term", how="inner")

    golden = np.uint64(0x9E3779B97F4A7C15)

    def score(t: pa.Table) -> pa.Table:
        dfv = t.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
        idf = np.log((n_docs + 1.0) / (dfv + 1.0)) + 1.0
        s = np.floor(tf * idf * 1_000_000).astype(np.int64)
        ids = t.column(id_col)
        if pa.types.is_integer(ids.type):
            h = ids.to_numpy(zero_copy_only=False).astype(np.int64
                                                          ).view(np.uint64)
            coarse = ((h * golden) % np.uint64(n_coarse)).astype(np.int32)
        else:
            from migration_pair_ray.stages.partition import hash_strings
            coarse = (hash_strings(ids) % np.uint64(n_coarse)
                      ).astype(np.int32)
        return pa.table({id_col: ids, "term": t.column("term"),
                         "tf": pa.array(tf), "df": pa.array(dfv),
                         "score_s": pa.array(s),
                         "__c": pa.array(coarse)})

    def top1(g: pa.Table) -> pa.Table:
        it = g.schema.field(id_col).type
        if g.num_rows == 0:
            return pa.table({id_col: pa.array([], it),
                             "top_term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64()),
                             "score_s": pa.array([], pa.int64())})
        o = pc.sort_indices(g, sort_keys=[(id_col, "ascending"),
                                          ("score_s", "descending"),
                                          ("term", "ascending")])
        g = g.take(o)
        ids = g.column(id_col)
        neq = pc.invert(pc.equal(ids.combine_chunks().slice(1),
                                 ids.combine_chunks().slice(0, len(ids) - 1)))
        first = np.concatenate(
            [[True], pc.fill_null(neq, True).to_numpy(zero_copy_only=False)])
        g = g.filter(pa.array(first))
        return pa.table({id_col: g.column(id_col),
                         "top_term": g.column("term"),
                         "tf": g.column("tf"), "df": g.column("df"),
                         "score_s": g.column("score_s")})

    return (joined.map_batches(score, batch_format="pyarrow")
            .groupby("__c").map_groups(top1, batch_format="pyarrow"))


def linear_gate(ds: "ray.data.Dataset", feature_fn, weights: np.ndarray,
                id_col: str = "doc_id") -> "ray.data.Dataset":
    """Model-scored gating with broadcast parameters: ``feature_fn``
    turns a batch into an integer feature matrix (n_rows × n_features,
    LAST feature column = 1 for the bias), the weight vector is shipped
    to the cluster ONCE (``ray.put``) and read zero-copy per task, and
    the score is one int64 matmul — an exact-arithmetic stand-in for a
    learned quality classifier, with the real inference plumbing
    (broadcast params, vectorized batch scoring, no per-row dispatch).
    Emits (id, score, verdict) with verdict 'keep' iff score >= 0."""
    import ray
    wref = ray.put(np.asarray(weights, dtype=np.int64))

    def score(t: pa.Table) -> pa.Table:
        w = ray.get(wref)
        X = feature_fn(t)                       # (n, len(w)) int64
        s = X @ w
        verdict = np.where(s >= 0, "keep", "drop")
        return pa.table({id_col: t.column(id_col),
                         "score": pa.array(s, pa.int64()),
                         "verdict": pa.array(verdict.tolist(), pa.string())})

    return ds.map_batches(score, batch_format="pyarrow")


# --------------------------------------------------- bigram typicality score

def _bigram_code_segments(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Byte-bigram codes (prev*256 + cur) for a batch of texts, one flat
    array, plus per-doc bigram counts.  Boundary positions between docs
    are excluded.  ASCII corpora make byte bigrams == character bigrams
    (the same convention the simhash oracle relies on)."""
    bs = [t.encode() if t else b"" for t in texts]
    lens = np.fromiter((len(b) for b in bs), np.int64, len(bs))
    buf = np.frombuffer(b"".join(bs), np.uint8)
    if len(buf) == 0:
        return np.empty(0, np.int64), np.zeros(len(bs), np.int64)
    codes = buf[:-1].astype(np.int64) * 256 + buf[1:]
    ends = np.cumsum(lens)                       # doc end offsets in buf
    # position i pairs buf[i] with buf[i+1]; invalid when byte i is the
    # LAST byte of a doc (the pair would cross a boundary).  Only docs
    # with bytes have a last byte — an empty doc's end offset equals an
    # earlier doc's and masking it would wrongly drop that doc's final
    # bigram (or index -1 when the batch STARTS with an empty doc).
    valid = np.ones(len(codes), bool)
    last_bytes = ends[:-1][lens[:-1] > 0] - 1
    valid[last_bytes[last_bytes < len(codes)]] = False
    n_bi = np.maximum(lens - 1, 0)
    return codes[valid], n_bi


def bigram_typicality(ds: "rd.Dataset", text_col: str = "text",
                      id_col: str = "doc_id") -> "rd.Dataset":
    """Corpus-typicality score per document, exact-integer arithmetic
    (bit-identical to a SQL recomputation — no log/float divergence):

        familiarity(d) = Σ over d's byte bigrams of the CORPUS count of
                         that bigram;    n_bigrams(d) = len(d) - 1.

    Two passes, both distributed: (1) per-block ``np.bincount`` partials
    over the 2^16 bigram code space → one tiny groupby-sum (≤65k rows
    cross the wire per block, the raw text never shuffles); the dense
    count vector (512 KB) is ``ray.put`` once; (2) per-doc segment sums
    via ``np.add.reduceat`` over the broadcast lookup.  Docs shorter than
    2 bytes have no bigrams and are dropped (mirroring the SQL join).
    The high-familiarity tail is boilerplate; the low tail is noise/
    atypical text — the same signal an n-gram LM gives, kept exactly
    verifiable."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        codes, _ = _bigram_code_segments(t.column(text_col).to_pylist())
        if not len(codes):
            return pa.table({"code": pa.array([], pa.int32()),
                             "cnt": pa.array([], pa.int64())})
        counts = np.bincount(codes, minlength=65536)
        nz = np.flatnonzero(counts)
        return pa.table({"code": pa.array(nz.astype(np.int32)),
                         "cnt": pa.array(counts[nz])})

    model_rows = (ds.map_batches(partial, batch_format="pyarrow")
                  .groupby("code").aggregate(Sum("cnt", alias_name="cnt"))
                  .take_all())                  # ≤65536 rows
    lookup = np.zeros(65536, np.int64)
    for r in model_rows:
        lookup[int(r["code"])] = int(r["cnt"])
    ref = ray.put(lookup)

    def score(t: pa.Table) -> pa.Table:
        codes, n_bi = _bigram_code_segments(t.column(text_col).to_pylist())
        lk = ray.get(ref)                        # zero-copy plasma map
        ids = t.column(id_col)
        if not len(codes):
            return pa.table({id_col: ids.slice(0, 0),
                             "familiarity": pa.array([], pa.int64()),
                             "n_bigrams": pa.array([], pa.int64())})
        starts = np.concatenate([[0], np.cumsum(n_bi)[:-1]])
        keep = n_bi > 0
        fam = np.add.reduceat(lk[codes], starts[keep])
        return pa.table({id_col: ids.filter(pa.array(keep)),
                         "familiarity": pa.array(fam.astype(np.int64)),
                         "n_bigrams": pa.array(n_bi[keep])})

    return ds.map_batches(score, batch_format="pyarrow")
