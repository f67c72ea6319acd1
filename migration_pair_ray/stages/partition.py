"""Hash partitioning on ``conv_id`` (+ optional key-level salting for skew).

The reference needs no partitioning (single stream, Cassandra owns
placement).  At 10^10 events the placement must be explicit: every event of
one merge key ``(conv_id, turn_idx)`` must land in exactly one partition so
the LWW merge is local.

* mode "conv": ``part = H(conv_id) % P`` — partitions are conv-disjoint, so
  per-partition files are internally ordered by ``(conv_id, turn_idx)`` and a
  global snapshot order is a cheap partition-ordered concatenation.
* mode "key": ``part = H(conv_id, turn_idx) % P`` — the salted layout: a hot
  conversation's turns spread over all partitions (skew defeated) while each
  merge key still lives in exactly one partition (LWW stays local).
* mode "hot": conv placement for everything EXCEPT a recorded whale set
  (``hot_convs``, stamped into ``_lake_meta`` at lake creation), whose keys
  are salted like mode "key" — the north-star layout: 99.99% of the lake
  keeps conv-disjoint partitions (cheap per-conv reads/ordering) while the
  few conversations that would bottleneck one partition spread across all
  of them.  The hot set is a lake-lifetime LAYOUT property (changing it
  moves keys between partitions): grow it via ``repartition_lake`` to a
  new lake, pick it with ``detect_hot_keys``.

``H`` is pandas' SipHash-based ``hash_array`` (fixed key → deterministic
across processes and nodes — Python's builtin ``hash`` is salted per process
and must never be used here).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

PART_COL = "part"
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def hash_strings(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic 64-bit hash of a string column (vectorized).
    Nulls hash as empty string (stable everywhere).

    Values are EXACTLY ``pd.util.hash_array(obj_array, categorize=False)``
    — the SipHash-2-4 + splitmix64 contract every existing lake's routing
    is pinned to (frozen-value test in tests/test_hot_mode.py).  Computed
    via Arrow ``dictionary_encode`` first: only the DISTINCT values pay
    the per-object conversion + C hash, then a numpy take fans the
    distinct hashes back out.  Change batches cluster events per conv
    (10^1–10^5 convs per multi-million-row block), so this is 3–8×
    faster than hashing per row and removes the per-row object churn;
    the pathological all-distinct batch costs ~1.4× the direct path —
    the right trade for a CDC stream.  (A fully buffer-level numpy
    SipHash was measured SLOWER than pandas' C loop — elementwise numpy
    needs ~160 memory passes for the round chain; see NOTES_r5.)"""
    import pyarrow.compute as pc
    filled = pc.fill_null(arr, "")
    if isinstance(filled, pa.ChunkedArray):
        filled = filled.combine_chunks()
    d = filled.dictionary_encode()
    # object array of Python str, as the hash needs; no pandas Series
    uniq = d.dictionary.to_numpy(zero_copy_only=False)
    hu = pd.util.hash_array(uniq, categorize=False)
    idx = d.indices.to_numpy(zero_copy_only=False)
    return hu[idx]


def partition_ids(batch: pa.Table, num_partitions: int, mode: str = "conv",
                  splits: dict[int, tuple[int, int]] | None = None,
                  hot_convs=None) -> np.ndarray:
    import pyarrow.compute as pc
    turn = hot = None
    if mode in ("key", "hot"):
        # null turn_idx → sentinel BEFORE the numpy cast (a null would go
        # through float NaN, whose uint64 conversion is architecture-
        # dependent — every node must hash a key identically)
        turn_arr = pc.fill_null(pc.cast(batch.column("turn_idx"), pa.int64()), -1)
        turn = turn_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    if mode == "hot" and hot_convs:
        # salt ONLY the recorded whales; everything else stays
        # conv-disjoint.  One vectorized membership test per block.
        hot = pc.fill_null(pc.is_in(
            batch.column("conv_id"),
            value_set=pa.array(sorted(hot_convs), pa.string())),
            False).to_numpy(zero_copy_only=False)
    return _place(hash_strings(batch.column("conv_id")), turn, hot,
                  num_partitions, mode, splits)


def key_partition_ids(conv_ids: list[str], turn_idx: list[int] | None,
                      num_partitions: int, mode: str = "conv",
                      splits: dict[int, tuple[int, int]] | None = None,
                      hot_convs=None) -> np.ndarray:
    """``partition_ids`` of keys a caller holds as Python lists (a point
    lookup's request): the same ``hash_array`` call on the list itself,
    with no Arrow table or dictionary encoding built to hash a few keys.
    ``turn_idx=None`` hashes every key with the null-turn sentinel, as
    ``partition_ids`` does for a null ``turn_idx``."""
    h = pd.util.hash_array(
        np.array(["" if c is None else c for c in conv_ids], dtype=object),
        categorize=False)
    turn = hot = None
    if mode in ("key", "hot"):
        turn = (np.full(len(conv_ids), -1, np.int64) if turn_idx is None
                else np.array([-1 if t is None else t for t in turn_idx],
                              np.int64))
    if mode == "hot" and hot_convs:
        whales = set(hot_convs)
        hot = np.fromiter((c in whales for c in conv_ids), dtype=bool,
                          count=len(conv_ids))
    return _place(h, turn, hot, num_partitions, mode, splits)


def _place(h: np.ndarray, turn: np.ndarray | None, hot: np.ndarray | None,
           num_partitions: int, mode: str,
           splits: dict[int, tuple[int, int]] | None) -> np.ndarray:
    """Partition ids from the conv hashes ``h``, the int64 turns (modes
    "key"/"hot") and the whale mask (mode "hot")."""
    if mode in ("key", "hot"):
        mixed = (h ^ (turn.view(np.uint64) * _GOLDEN)) * _GOLDEN
        if mode == "key":
            h = mixed
        elif hot is not None:
            h = np.where(hot, mixed, h)
    base = (h % np.uint64(num_partitions)).astype(np.int32)
    if not splits:
        return base
    # incremental split routing (COMPACTION.md / LakeMeta.splits): a split
    # base partition forwards its keys to one of ``fanout`` children via
    # the QUOTIENT hash bits — independent of the modulus bits, so
    # children stay balanced; keys of unsplit partitions are untouched, so
    # the other P-1 partitions' placement is byte-stable across a split.
    # ``splits`` maps base_pid -> (fanout, gen); child id =
    # P * (gen + child + 1) + base (LakeMeta.child_id).
    fanout = np.zeros(num_partitions, dtype=np.uint64)
    gen = np.zeros(num_partitions, dtype=np.int64)
    for b, (k, g) in splits.items():
        fanout[b] = k
        gen[b] = g
    kk = fanout[base]
    hit = kk > 0
    if not hit.any():
        return base
    child = ((h // np.uint64(num_partitions)) % np.maximum(kk, np.uint64(1))
             ).astype(np.int64)
    out = base.astype(np.int64)
    out[hit] = (num_partitions * (gen[base[hit]] + child[hit] + 1)
                + base[hit])
    return out.astype(np.int32)


def add_partition_column(batch: pa.Table, num_partitions: int, mode: str = "conv",
                         splits: dict[int, tuple[int, int]] | None = None,
                         hot_convs=None) -> pa.Table:
    if batch.num_rows == 0:
        return batch.append_column(PART_COL, pa.array([], type=pa.int32()))
    return batch.append_column(
        PART_COL, pa.array(partition_ids(batch, num_partitions, mode, splits,
                                         hot_convs)))


def key_histogram(batch: pa.Table) -> pa.Table:
    """Per-batch conv_id histogram — partial counts for hot-key detection.

    Emit one (conv_id, cnt) row per distinct conv per batch; a tiny
    ``groupby("conv_id").sum("cnt")`` over these partials yields the global
    histogram without shuffling the raw events (SURVEY.md §4 skew row).
    """
    counts = batch.group_by("conv_id").aggregate([("conv_id", "count")])
    return counts.rename_columns(["conv_id", "cnt"])


def detect_hot_keys(ds, hot_frac: float = 0.05) -> "pa.Table":
    """Global conv histogram (via per-batch partials — the raw events never
    shuffle) → conversations holding more than ``hot_frac`` of all events.
    The skew probe behind the choice of ``partition_mode="key"``/"hot": if
    this returns rows, mode "conv" may bottleneck one partition on one
    conversation and a salted layout should be considered.

    Counts EVENTS per conv (the stream-side signal).  Note the measured
    nuance (bench.py --skew): event-count skew alone is absorbed by the
    per-batch LWW combiner; what actually skews a partition is distinct-KEY
    count — on an existing lake prefer ``pipelines/fsck.lake_hotspots``,
    which ranks by visible keys.  An event-hot conv is still the right
    candidate set to CHECK (key-hot implies event-hot in an upsert stream).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum
    empty = pa.table({"conv_id": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64()),
                      "frac": pa.array([], pa.float64())})
    hist = (ds.map_batches(key_histogram, batch_format="pyarrow")
            .groupby("conv_id").aggregate(Sum("cnt", alias_name="cnt"))
            ).materialize()
    total = hist.sum("cnt")
    if not total:
        return empty
    total = int(total)
    # hot-key filter runs DISTRIBUTED: the driver receives only keys above
    # the threshold, never the full distinct-key histogram
    hot = hist.map_batches(
        lambda t: (lambda frac: t.append_column("frac", frac)
                   .filter(pc.greater(frac, hot_frac)))(
            pc.divide(pc.cast(t.column("cnt"), pa.float64()), float(total))),
        batch_format="pyarrow")
    rows = hot.take_all()
    if not rows:
        return empty
    t = pa.Table.from_pylist(rows, schema=pa.schema(
        [pa.field("conv_id", pa.string()), pa.field("cnt", pa.int64()),
         pa.field("frac", pa.float64())]))
    return t.sort_by([("cnt", "descending")])
