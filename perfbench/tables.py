"""Seeded generator of the operator-suite input tables.

Same column names and types as the repository's TPC-H-style test tables
(documents, events, orders, lineitem, embeddings; see TESTDATA.md), written
as one Parquet file per table.  Documents include near-duplicate variants so the dedup
query has clusters to find.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# 400 words: unrelated documents share few 5-character shingles
_WORDS = np.array([a + b + c for a in ("ka", "lo", "mi", "nu", "pe", "ro", "si", "tu")
                   for b in ("ban", "dek", "fol", "gim", "hup")
                   for c in ("a", "e", "i", "o", "u", "ar", "en", "is", "ot", "um")])
_LANGS = np.array(["en", "zh", "es", "de", "fr"])
_EVENT_TYPES = np.array(["click", "view", "signup", "purchase", "error"])
_PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                        "5-LOW"])
_T0_US = 1_704_067_200_000_000  # 2024-01-01


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    """Documents of 60-120 words; one in ten copies an earlier document
    with one word changed.  The dedup query is MinHash LSH, an estimate
    of the exact Jaccard its oracle computes: at this length a one-word
    edit keeps a pair's Jaccard near 0.95 and unrelated documents stay
    far below, so no pair sits at the 0.8 threshold where the estimate
    may legitimately fall either way."""
    texts = []
    for i in range(n):
        if i >= 10 and rng.random() < 0.1:
            # near duplicate of an earlier document: one word changed
            words = texts[int(rng.integers(0, i))].split(" ")
            words[int(rng.integers(0, len(words)))] = str(rng.choice(_WORDS))
            texts.append(" ".join(words))
        else:
            texts.append(" ".join(rng.choice(_WORDS, int(rng.integers(60, 121)))))
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(rng.choice(_LANGS, n), pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def _events(rng: np.random.Generator, n: int, users: int) -> pa.Table:
    ts = _T0_US + np.sort(rng.integers(0, 30 * 86_400_000_000, n))
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, users, n), pa.int64()),
        "event_type": pa.array(rng.choice(_EVENT_TYPES, n), pa.string()),
        "value": pa.array(np.round(rng.random(n) * 20, 2), pa.float64()),
        "props": pa.array([json.dumps({"k": int(k)})
                           for k in rng.integers(0, 100, n)], pa.string()),
    })


def _orders(rng: np.random.Generator, n: int, customers: int) -> pa.Table:
    days = rng.integers(0, 7 * 365, n)
    return pa.table({
        "o_orderkey": pa.array(np.arange(n), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, customers, n), pa.int64()),
        "o_orderstatus": pa.array(rng.choice(np.array(["O", "F", "P"]), n),
                                  pa.string()),
        "o_totalprice": pa.array(np.round(rng.random(n) * 500_000, 2),
                                 pa.float64()),
        "o_orderdate": pa.array(_T0_US - 9 * 365 * 86_400_000_000
                                + days * 86_400_000_000, pa.timestamp("us")),
        "o_orderpriority": pa.array(rng.choice(_PRIORITIES, n), pa.string()),
    })


def _lineitem(rng: np.random.Generator, n: int, orders: int) -> pa.Table:
    days = rng.integers(0, 7 * 365, n)
    return pa.table({
        "l_orderkey": pa.array(rng.integers(0, orders, n), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 2000, n), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, n), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n), pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, n).astype(float), pa.float64()),
        "l_extendedprice": pa.array(np.round(rng.random(n) * 90_000, 2),
                                    pa.float64()),
        "l_discount": pa.array(rng.integers(0, 11, n) / 100, pa.float64()),
        "l_tax": pa.array(rng.integers(0, 9, n) / 100, pa.float64()),
        "l_returnflag": pa.array(rng.choice(np.array(["A", "N", "R"]), n),
                                 pa.string()),
        "l_linestatus": pa.array(rng.choice(np.array(["O", "F"]), n), pa.string()),
        "l_shipdate": pa.array(_T0_US - 8 * 365 * 86_400_000_000
                               + days * 86_400_000_000, pa.timestamp("us")),
    })


def _embeddings(rng: np.random.Generator, n: int, dim: int) -> pa.Table:
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n), pa.int32()),
    })


def generate_tables(out_dir: str, seed: int, sizes: dict) -> dict[str, int]:
    """Write the suite tables under ``out_dir``; returns rows per table."""
    rng = np.random.default_rng(seed)
    tables = {
        "documents": _documents(rng, sizes["documents"]),
        "events": _events(rng, sizes["events"], sizes["users"]),
        "orders": _orders(rng, sizes["orders"], sizes["customers"]),
        "lineitem": _lineitem(rng, sizes["lineitem"], sizes["orders"]),
        "embeddings": _embeddings(rng, sizes["embeddings"], sizes["dim"]),
    }
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, f"{out_dir}/{name}.parquet")
    return {name: t.num_rows for name, t in tables.items()}
