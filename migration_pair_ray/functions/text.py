"""Text-analysis functions for training-data pipelines — all vectorized
batch-level kernels (Arrow/numpy), designed for `map_batches`.

These are engine extensions beyond the reference (which processes opaque
cells only); they operate on the `documents`-shaped tables
(doc_id, text, lang, source, n_chars) and the transcripts `text` column.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------- tokens

def token_count(col: pa.ChunkedArray | pa.Array) -> pa.Array | pa.ChunkedArray:
    """Whitespace token count, defined as count(' ') + 1 for non-empty text
    and 0 for empty/null.  The SQL mirror is
    ``length(text) - length(replace(text,' ','')) + 1`` — both sides compute
    the identical formula so oracle comparison is exact."""
    spaces = pc.count_substring(col, " ")
    n = pc.add(spaces, 1)
    empty = pc.or_kleene(pc.is_null(col), pc.equal(pc.utf8_length(col), 0))
    return pc.if_else(pc.fill_null(empty, True), pa.scalar(0, pa.int32()),
                      pc.cast(n, pa.int32()))


def add_token_count(batch: pa.Table, text_col: str = "text",
                    out: str = "n_tokens") -> pa.Table:
    return batch.append_column(out, token_count(batch.column(text_col)))


# BPE-style pre-tokenizer: letter runs | digit runs | single
# non-alphanumeric rune.  The classes are disjoint and runs are maximal,
# so leftmost-first (Python re) and leftmost-longest (RE2 variants) agree;
# whitespace is the EXPLICIT ASCII class (Python's \s would also match
# unicode spaces, DuckDB/RE2's would not — an oracle-divergence trap).
BPE_TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r\f]"

_BPE_RE_CACHE: dict[str, "object"] = {}


def bpe_token_count(col: pa.ChunkedArray | pa.Array,
                    pattern: str = BPE_TOKEN_PATTERN) -> pa.Array:
    """BPE-ish token count: matches of a GPT-2-style pre-tokenizer regex
    (letter runs, digit runs, individual punctuation/CJK runes — roughly
    the granularity a byte-pair encoder starts from).  The compiled regex
    lives in a worker-local cache (once per process); counting loops over
    docs but the regex engine does the per-char work.  SQL mirror:
    ``len(regexp_extract_all(text, pattern))``."""
    import re
    rx = _BPE_RE_CACHE.get(pattern)
    if rx is None:
        rx = re.compile(pattern)
        _BPE_RE_CACHE[pattern] = rx
    ca = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    counts = np.fromiter(
        (len(rx.findall(t)) if t else 0 for t in ca.to_pylist()),
        dtype=np.int64, count=len(ca))
    return pa.array(counts, pa.int64())


def add_bpe_token_count(batch: pa.Table, text_col: str = "text",
                        out: str = "n_bpe_tokens") -> pa.Table:
    return batch.append_column(out, bpe_token_count(batch.column(text_col)))


# ------------------------------------------------------------- quality

_STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "it")


def quality_features(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality-scoring features, all exactly mirrorable in SQL:

    * n_chars_m  — utf8 length
    * n_tokens   — whitespace tokens (see token_count)
    * mean_token_len — (n_chars - spaces) / n_tokens  (0 when empty)
    * stop_hits  — occurrences of a fixed stopword list (substring count
      with space guards, so SQL can mirror with the same expression)
    * quality_score — a deterministic arithmetic blend
    """
    text = batch.column(text_col)
    n_chars = pc.cast(pc.fill_null(pc.utf8_length(text), 0), pa.int64())
    spaces = pc.cast(pc.fill_null(pc.count_substring(text, " "), 0), pa.int64())
    n_tokens = pc.cast(token_count(text), pa.int64())

    padded = pc.binary_join_element_wise(
        pa.scalar(" "), pc.fill_null(text, ""), pa.scalar(" "), "")
    stop_hits = None
    for w in _STOPWORDS:
        h = pc.cast(pc.count_substring(padded, f" {w} "), pa.int64())
        stop_hits = h if stop_hits is None else pc.add(stop_hits, h)

    safe_tokens = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64()))
    mean_tok = pc.divide(
        pc.cast(pc.subtract(n_chars, spaces), pa.float64()),
        pc.cast(safe_tokens, pa.float64()))
    stop_ratio = pc.divide(pc.cast(stop_hits, pa.float64()),
                           pc.cast(safe_tokens, pa.float64()))
    score = pc.add(
        pc.multiply(pc.min_element_wise(
            pc.divide(pc.cast(n_tokens, pa.float64()), pa.scalar(100.0)),
            pa.scalar(1.0)), pa.scalar(0.5)),
        pc.multiply(pc.min_element_wise(stop_ratio, pa.scalar(0.5)),
                    pa.scalar(1.0)))
    out = batch
    for name, arr in (("n_chars_m", n_chars), ("n_tokens", n_tokens),
                      ("mean_token_len", mean_tok), ("stop_hits", stop_hits),
                      ("stop_ratio", stop_ratio), ("quality_score", score)):
        out = out.append_column(name, arr)
    return out


# ------------------------------------------------------------ fingerprint

def md5_fingerprint(batch: pa.Table, text_col: str = "text",
                    out: str = "fp") -> pa.Table:
    """Content fingerprint = hex md5 of the utf-8 text (SQL mirror:
    ``md5(text)``).  Crypto hashing is inherently per-value; numpy's
    fromiter keeps the loop in C-adjacent territory and this stage is
    embarrassingly parallel across blocks."""
    vals = batch.column(text_col).to_pylist()
    fps = [hashlib.md5((v or "").encode("utf-8")).hexdigest() for v in vals]
    return batch.append_column(out, pa.array(fps, pa.string()))


# ---------------------------------------------------------------- langid

# Per-language marker strings; a doc scores one point per occurrence.
LANG_PROFILES = {
    "en": (" the ", " and ", " of ", " to ", " is "),
    "de": (" der ", " und ", " die ", " ist ", " das "),
    "fr": (" le ", " la ", " et ", " les ", " est "),
    "es": (" el ", " la ", " los ", " es ", " y "),
    "zh": ("的", "是", "了", "在", "我"),
}


def lang_id(batch: pa.Table) -> pa.Table:
    """Character-frequency language-ID heuristic: append ``lang_pred``,
    the language of ``LANG_PROFILES`` whose markers occur most often in
    ``text`` (ties go to the earlier language; no hit ⇒ ``"und"``).

    Deterministic and dependency-free: the plumbing-correct stand-in for a
    real fastText-style model (which isn't in this image).
    """
    text = pc.binary_join_element_wise(
        pa.scalar(" "), pc.fill_null(batch.column("text"), ""),
        pa.scalar(" "), "")
    scores = []
    for marks in LANG_PROFILES.values():
        s = None
        for m in marks:
            c = pc.cast(pc.count_substring(text, m), pa.int64())
            s = c if s is None else pc.add(s, c)
        scores.append(s.to_numpy(zero_copy_only=False))
    mat = np.stack(scores)                              # (n_langs, n_rows)
    langs = np.array(list(LANG_PROFILES))
    pred = np.where(mat.max(axis=0) > 0, langs[mat.argmax(axis=0)], "und")
    return batch.append_column("lang_pred", pa.array(pred.tolist(), pa.string()))


# ------------------------------------------------------------- redaction

def redact_patterns(col: pa.ChunkedArray | pa.Array,
                    patterns: list[tuple[str, str]]):
    """PII scrub: apply ``(regex, replacement)`` pairs IN ORDER to a string
    column, returning ``(redacted, [match_count_per_pattern])``.  Each
    count is taken on the column state the pattern actually saw (after the
    previous replacements), matching a nested SQL ``regexp_replace`` chain
    exactly.  Arrow's regex engine is RE2, the same engine DuckDB uses, so
    a pattern restricted to RE2 syntax (no backrefs/lookaround) is
    bit-mirrorable: ``regexp_replace(x, pat, repl, 'g')`` /
    ``len(regexp_extract_all(x, pat))``.  Fully vectorized — one
    ``replace_substring_regex`` + one ``count_substring_regex`` kernel call
    per pattern, no Python row loop."""
    counts = []
    for pat, repl in patterns:
        counts.append(pc.cast(pc.count_substring_regex(col, pat),
                              pa.int64()))
        col = pc.replace_substring_regex(col, pat, repl)
    return col, counts


def extract_int_field(col: pa.ChunkedArray | pa.Array, pattern: str):
    """Extract one integer capture group from a string column (e.g. a
    field out of a JSON-ish props blob) as int64; rows without a match
    become null.  SQL mirror: ``CASE WHEN regexp_matches(x, pat) THEN
    CAST(regexp_extract(x, pat, 1) AS BIGINT) END``.  Implemented with
    RE2 via ``extract_regex`` (struct of named groups) — vectorized."""
    named = pattern.replace("(", "(?P<v>", 1)
    st = pc.extract_regex(col, named)
    return pc.cast(pc.struct_field(st, "v"), pa.int64())
