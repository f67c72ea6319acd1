"""Deterministic vectorized hashing primitives: stable 64-bit string hash,
MinHash signatures, SimHash.  All numpy-vectorized per batch; all seeds
fixed → identical results on every node/process (a requirement for
hash-partitioned dedup at cluster scale).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_MERSENNE = np.uint64((1 << 61) - 1)


def stable_hash64(values) -> np.ndarray:
    """Process-stable 64-bit hash of a string sequence (SipHash via pandas
    with its fixed default key); a null (None/NaN) hashes like ``""``."""
    arr = np.asarray(values, dtype=object)
    nulls = pd.isna(arr)
    if nulls.any():
        arr = arr.copy()
        arr[nulls] = ""
    return pd.util.hash_array(arr, categorize=False)


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Rolling k-character shingles → stable hashes (one doc)."""
    s, starts = _batch_shingles([text], k)
    return np.unique(s)


_POLY_B = np.uint64(1099511628211)  # FNV prime as the rolling-hash base


def _batch_shingles(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized k-byte shingle hashes for a whole batch of texts.

    Returns (hashes, seg_starts): ``hashes`` is the concatenation of every
    doc's shingle hashes (polynomial over utf-8 bytes, uint64 wraparound —
    deterministic everywhere); ``seg_starts[d]`` indexes doc d's first
    shingle (for ``np.minimum.reduceat`` segment reductions).  Docs shorter
    than k are zero-padded to k so every doc has ≥ 1 shingle.
    """
    if len(texts) == 0:   # an upstream filter can empty a block
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    bs = [(t or "").encode("utf-8") for t in texts]
    bs = [b if len(b) >= k else b.ljust(k, b"\0") for b in bs]
    lens = np.fromiter((len(b) for b in bs), dtype=np.int64, count=len(bs))
    buf = np.frombuffer(b"".join(bs), dtype=np.uint8).astype(np.uint64)
    offs = np.concatenate([[0], np.cumsum(lens)])
    n_sh = lens - k + 1                       # ≥ 1 per doc
    seg_starts = np.concatenate([[0], np.cumsum(n_sh)[:-1]])
    total = int(n_sh.sum())
    # global start position of every shingle
    doc_of = np.repeat(np.arange(len(bs)), n_sh)
    within = np.arange(total) - np.repeat(seg_starts, n_sh)
    pos = offs[doc_of] + within
    with np.errstate(over="ignore"):
        h = np.zeros(total, dtype=np.uint64)
        for j in range(k):
            h = h * _POLY_B + buf[pos + j]
    return h, seg_starts.astype(np.int64)


class MinHasher:
    """n_perm universal-hash MinHash over character shingles.

    Signature of doc D = [ min_{s in shingles(D)} (a_i * s + b_i mod p) ]_i.
    Mergeable (elementwise min) and deterministic (seeded a, b).
    """

    def __init__(self, n_perm: int = 64, k: int = 5, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, int(_MERSENNE), size=n_perm, dtype=np.uint64)
        self.b = rng.integers(0, int(_MERSENNE), size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm
        self.k = k

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def signatures(self, texts) -> np.ndarray:
        """(n_docs, n_perm) signatures, fully vectorized: one shingle-hash
        pass over the batch's concatenated bytes, then per-permutation
        universal hash + ``np.minimum.reduceat`` segment-min (no per-doc
        Python loop — ~100x the per-doc implementation)."""
        sh, seg_starts = _batch_shingles(texts, self.k)
        out = np.empty((len(texts), self.n_perm), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i in range(self.n_perm):
                hv = (self.a[i] * sh + self.b[i]) % _MERSENNE
                out[:, i] = np.minimum.reduceat(hv, seg_starts)
        return out

    @staticmethod
    def jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float((sig_a == sig_b).mean())


def band_hashes(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """LSH banding: (n_docs, n_perm) signatures → (n_docs, n_bands) band
    bucket hashes.  Two docs sharing any band bucket are candidates."""
    n_docs, n_perm = sigs.shape
    rows = n_perm // n_bands
    out = np.empty((n_docs, n_bands), dtype=np.uint64)
    for b in range(n_bands):
        seg = sigs[:, b * rows:(b + 1) * rows]
        acc = np.zeros(n_docs, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in range(seg.shape[1]):
                acc = acc * np.uint64(1099511628211) + seg[:, c]
        out[:, b] = acc
    return out


def simhash64(texts, k: int = 4) -> np.ndarray:
    """64-bit SimHash over k-char shingles: bit i = sign of the summed
    (+1/-1) votes of each shingle hash's bit i.  Vectorized per batch:
    one shingle pass + 64 ``np.add.reduceat`` segment sums."""
    sh, seg_starts = _batch_shingles(texts, k)
    n_sh_per_doc = np.diff(np.concatenate([seg_starts, [len(sh)]]))
    out = np.zeros(len(texts), dtype=np.uint64)
    for bit in range(64):
        ones = ((sh >> np.uint64(bit)) & np.uint64(1)).astype(np.int64)
        votes = np.add.reduceat(ones, seg_starts) * 2 - n_sh_per_doc
        out |= (votes > 0).astype(np.uint64) << np.uint64(bit)
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    cnt = np.zeros(x.shape, dtype=np.int64)
    while x.any():
        cnt += (x & np.uint64(1)).astype(np.int64)
        x = x >> np.uint64(1)
    return cnt


def ngram_set(text: str, n: int = 3) -> set:
    t = text or ""
    if len(t) < n:
        return {t}
    return {t[i:i + n] for i in range(len(t) - n + 1)}


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = ngram_set(a, n), ngram_set(b, n)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))
