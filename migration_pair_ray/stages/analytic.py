"""Analytic (window-function-shaped) operators.

The reference engine has no analytic functions (SURVEY.md §2 — its widest
computation is the per-key LWW reduce); a complete engine needs the
window-function family users reach for daily: per-key top-N, per-key
running aggregates, exact quantiles, and pivot.  Ray Data has none of
them natively, so each is built on the engine's coarse-bucket skeleton
(``stages/windows.py``): hash the key into ~2×CPU coarse Ray groups (ONE
shuffle, never one group per key), then inside each bucket one Arrow sort
+ numpy boundary/segment masks compute every key's answer at once —
vectorized, pandas-free.

Partitioning assumption (same as sessionize): one coarse bucket fits one
task's memory; raise ``n_coarse`` for extreme skew.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Sum

from migration_pair_ray.sources.readers import driver_dataset
from migration_pair_ray.stages.windows import _coarse_key_bucket, _default_coarse


def _with_bucket(ds: "ray.data.Dataset", key_col: str, n_coarse: int
                 ) -> "ray.data.Dataset":
    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__b", pa.array(_coarse_key_bucket(t.column(key_col), n_coarse)))
    return ds.map_batches(add_bucket, batch_format="pyarrow")


def _key_segments(g: pa.Table, key_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(segment_id, position_within_key) for a key-sorted table — the rank
    kernel shared by top-N and running aggregates."""
    from migration_pair_ray.functions.lww import _group_first_mask
    first = _group_first_mask(g, [key_col]).to_numpy(zero_copy_only=False)
    idx = np.arange(g.num_rows, dtype=np.int64)
    seg_start = np.maximum.accumulate(np.where(first, idx, 0))
    return np.cumsum(first) - 1, idx - seg_start


def grouped_top_n(ds: "ray.data.Dataset", key_col: str, order_col: str,
                  n: int, descending: bool = True,
                  tie_breakers: list[str] | None = None,
                  n_coarse: int | None = None) -> "ray.data.Dataset":
    """Per-key top-N: the N best rows of every key by ``order_col``
    (``row_number() OVER (PARTITION BY key ORDER BY order ...) <= n``),
    with a ``rank`` column (0-based).  ``tie_breakers`` (ascending) make
    the cut deterministic when ``order_col`` ties.

    Unlike a global ``ds.sort(...).limit(...)`` this keeps N rows per KEY;
    the full sort never happens — each coarse bucket sorts only its own
    rows.
    """
    n_coarse = _default_coarse(n_coarse)

    def topn_bucket(g: pa.Table) -> pa.Table:
        return top_n_table(g.drop_columns(["__b"]), key_col, order_col, n,
                           descending, tie_breakers)

    return (_with_bucket(ds, key_col, n_coarse)
            .groupby("__b").map_groups(topn_bucket, batch_format="pyarrow"))


def top_n_table(g: pa.Table, key_col: str, order_col: str, n: int,
                descending: bool = True,
                tie_breakers: list[str] | None = None) -> pa.Table:
    """The in-bucket kernel of ``grouped_top_n`` as a reusable
    table→table function (every row of a key must be present) — the
    co-partitioned building block, like ``string_agg_table``."""
    ties = tie_breakers or []
    sort_keys = ([(key_col, "ascending"),
                  (order_col, "descending" if descending else "ascending")]
                 + [(c, "ascending") for c in ties])
    if g.num_rows == 0:
        return g.append_column("rank", pa.array([], pa.int64()))
    g = g.sort_by(sort_keys)
    _, pos = _key_segments(g, key_col)
    keep = pos < n
    return (g.filter(pa.array(keep))
            .append_column("rank", pa.array(pos[keep])))


def running_aggregate(ds: "ray.data.Dataset", key_col: str, order_col: str,
                      value_col: str, tie_breakers: list[str] | None = None,
                      n_coarse: int | None = None) -> "ray.data.Dataset":
    """Per-key running sum + row number in ``order_col`` order — the
    cumulative-window frame (``SUM(v) OVER (PARTITION BY key ORDER BY ord
    ROWS UNBOUNDED PRECEDING)``).  Output = input columns +
    ``running_sum`` + ``row_idx`` (0-based).

    The cumulative sum is a segmented prefix scan: one global ``cumsum``
    minus the cumsum value at each key's segment start — every key in the
    bucket at once.  Integer value columns stay exact; float columns sum
    left-to-right in sort order (callers needing a portable comparison
    should pre-scale to integers — see ``orders_running_revenue``).
    """
    n_coarse = _default_coarse(n_coarse)
    ties = tie_breakers or []
    sort_keys = ([(key_col, "ascending"), (order_col, "ascending")]
                 + [(c, "ascending") for c in ties])

    def scan_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        if g.num_rows == 0:
            vt = g.schema.field(value_col).type
            return (g.append_column("running_sum", pa.array([], vt))
                    .append_column("row_idx", pa.array([], pa.int64())))
        g = g.sort_by(sort_keys)
        v = g.column(value_col).to_numpy(zero_copy_only=False)
        _, pos = _key_segments(g, key_col)
        csum = np.cumsum(v)
        seg_base = csum - v  # prefix before each row
        # cumsum at each key's first row minus its value = sum before key
        key_start_idx = np.flatnonzero(pos == 0)
        before_key = seg_base[key_start_idx]
        run = csum - np.repeat(before_key, np.diff(
            np.concatenate([key_start_idx, [g.num_rows]])))
        return (g.append_column("running_sum", pa.array(run))
                .append_column("row_idx", pa.array(pos)))

    return (_with_bucket(ds, key_col, n_coarse)
            .groupby("__b").map_groups(scan_bucket, batch_format="pyarrow"))


def grouped_string_agg(ds: "ray.data.Dataset", key_col: str,
                       order_cols: list[str], text_col: str,
                       sep: str = "\n", out_col: str = "agg_text",
                       n_coarse: int | None = None) -> "ray.data.Dataset":
    """Per-key ordered string concatenation —
    ``string_agg(text, sep ORDER BY order_cols)`` — the transcript-assembly
    operator: one row per key with all its ``text_col`` values joined in
    order, plus ``n_rows`` (the member count).

    Vectorized like the rest of the family: coarse key-hash buckets (ONE
    shuffle), per bucket one Arrow sort, then the per-key join is a single
    ``pc.binary_join`` over a LargeListArray built from the segment-start
    offsets — zero per-key dispatch, no Python string concatenation.
    Null ``text_col`` rows must be filtered by the caller first (SQL
    ``string_agg`` skips nulls; a vectorized join cannot, so the contract
    is explicit).  ``large_string`` output: a key's transcript may exceed
    the 2 GiB flat-buffer limit only per BUCKET, which the coarse-bucket
    memory assumption already bounds.
    """
    n_coarse = _default_coarse(n_coarse)
    sort_keys = ([(key_col, "ascending")]
                 + [(c, "ascending") for c in order_cols])

    def join_bucket(g: pa.Table) -> pa.Table:
        return string_agg_table(g.drop_columns(["__b"]), key_col,
                                order_cols, text_col, sep, out_col)

    return (_with_bucket(ds, key_col, n_coarse)
            .groupby("__b").map_groups(join_bucket, batch_format="pyarrow"))


def string_agg_table(g: pa.Table, key_col: str, order_cols: list[str],
                     text_col: str, sep: str = "\n",
                     out_col: str = "agg_text") -> pa.Table:
    """The in-bucket kernel of ``grouped_string_agg`` as a reusable
    table→table function: every row of a key must be present in ``g``.
    Co-partitioned callers use it directly — a conv-disjoint lake
    partition already IS a complete bucket, so transcript assembly there
    needs no shuffle at all (one call per partition read task)."""
    kt = g.schema.field(key_col).type
    if g.num_rows == 0:
        return pa.table({key_col: pa.array([], kt),
                         out_col: pa.array([], pa.large_string()),
                         "n_rows": pa.array([], pa.int64())})
    sort_keys = ([(key_col, "ascending")]
                 + [(c, "ascending") for c in order_cols])
    g = g.sort_by(sort_keys)
    first = _group_first_mask_np(g, key_col)
    starts = np.flatnonzero(first)
    offsets = np.append(starts, g.num_rows).astype(np.int64)
    flat = pc.cast(g.column(text_col).combine_chunks(),
                   pa.large_string())
    lists = pa.LargeListArray.from_arrays(pa.array(offsets), flat)
    joined = pc.binary_join(lists, pa.scalar(sep, pa.large_string()))
    return pa.table({
        key_col: pc.take(g.column(key_col), pa.array(starts)),
        out_col: joined,
        "n_rows": pa.array(np.diff(offsets))})


def _group_first_mask_np(g: pa.Table, key_col: str) -> np.ndarray:
    from migration_pair_ray.functions.lww import _group_first_mask
    return _group_first_mask(g, [key_col]).to_numpy(zero_copy_only=False)


def exact_quantiles(ds: "ray.data.Dataset", value_col: str,
                    qs: list[float], scale: int = 100
                    ) -> pa.Table:
    """EXACT discrete quantiles of ``value_col`` at fixed precision
    (``scale`` = 100 → cents, via ``floor(v*scale)`` — floor, not round,
    so the scaling is bit-portable to any engine doing the same double
    multiply).  Scale shape: per-block ``np.unique`` histograms → one
    small ``groupby(value)`` merge (exchange size is the value DOMAIN,
    not the row count) → the merged histogram sorts tiny and the quantile
    is read off the cumulative counts.  Equivalent to ``quantile_disc``
    over the scaled values: result[i] = the smallest value whose
    cumulative count reaches ``ceil(q_i * n)``.

    Returns a driver-side ``pa.Table`` (q, value) — the histogram is
    bounded by the domain, so collecting it is safe at any row count.
    """

    def hist(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        v = np.floor(v * scale).astype(np.int64)
        vals, counts = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(vals),
                         "cnt": pa.array(counts.astype(np.int64))})

    merged = (ds.map_batches(hist, batch_format="pyarrow")
              .groupby("v").aggregate(Sum("cnt", alias_name="cnt"))
              .sort("v").take_all())
    vals = np.array([r["v"] for r in merged], dtype=np.int64)
    counts = np.array([r["cnt"] for r in merged], dtype=np.int64)
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        target = max(1, int(np.ceil(q * n)))
        out_q.append(q)
        out_v.append(float(vals[np.searchsorted(cum, target)]) / scale)
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.float64())})


def pivot_counts(ds: "ray.data.Dataset", key_col: str, pivot_col: str,
                 pivot_values: list[str],
                 value_col: str | None = None) -> "ray.data.Dataset":
    """Pivot ``pivot_col`` into one column per value of ``pivot_values``
    (counts, or sums of ``value_col``), keyed by ``key_col`` — the
    long→wide reshape.  Fully vectorized: each batch appends one indicator
    (or masked-value) column per pivot value and group-aggregates them, so
    the shuffle carries the WIDE partials (|keys-in-batch| × |values|
    cells), never the raw rows.  Unlisted pivot values are ignored (the
    caller fixes the column set up front — required for a stable schema).
    """
    names = [f"{pivot_col}_{v}" for v in pivot_values]

    def partial(t: pa.Table) -> pa.Table:
        p = t.column(pivot_col)
        cols = {key_col: t.column(key_col)}
        if value_col is None:
            for v, name in zip(pivot_values, names):
                cols[name] = pc.cast(pc.equal(p, pa.scalar(v)), pa.int64())
        else:
            val = t.column(value_col)
            for v, name in zip(pivot_values, names):
                cols[name] = pc.if_else(pc.equal(p, pa.scalar(v)), val,
                                        pa.scalar(0, val.type))
        return (pa.table(cols).group_by(key_col)
                .aggregate([(nm, "sum") for nm in names])
                .rename_columns([key_col] + names))

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(key_col)
            .aggregate(*[Sum(nm, alias_name=nm) for nm in names]))


def range_join_broadcast(big: "ray.data.Dataset", ranges: pa.Table,
                         value_col: str, lo_col: str = "lo",
                         hi_col: str = "hi") -> "ray.data.Dataset":
    """Non-equi (interval) join: each big-side row matches the range row
    with ``lo <= value < hi``.  Ranges must be non-overlapping; they are
    sorted once, ``ray.put`` once (zero-copy to every task), and each
    batch resolves via one ``np.searchsorted`` — no shuffle of the big
    side, no per-row loop.  Rows outside every range get null payload
    (filter on a payload column for inner semantics).
    """
    import ray as _ray
    order = pc.sort_indices(ranges.column(lo_col))
    ranges = ranges.take(order)
    ref = _ray.put(ranges)
    payload = [c for c in ranges.schema.names if c not in (lo_col, hi_col)]

    def lookup(t: pa.Table) -> pa.Table:
        r = _ray.get(ref)
        lo = r.column(lo_col).to_numpy(zero_copy_only=False)
        hi = r.column(hi_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(lo, v, side="right") - 1
        ok = (idx >= 0) & (v < hi[np.clip(idx, 0, None)])
        take = pa.array(np.clip(idx, 0, None), pa.int64(), mask=~ok)
        for c in payload:
            t = t.append_column(c, pc.take(r.column(c), take))
        return t

    return big.map_batches(lookup, batch_format="pyarrow")


def grouped_quantiles(ds: "ray.data.Dataset", key_col: str, value_col: str,
                      qs: list[float], scale: int = 100,
                      n_coarse: int | None = None) -> "ray.data.Dataset":
    """EXACT per-key discrete quantiles — ``quantile_disc(v, q) GROUP BY
    key`` — at fixed precision (``floor(v*scale)``, same bit-portable
    scaling as :func:`exact_quantiles`).  Scale shape: per-block (key,
    value) histogram partials (the combiner — exchange size is bounded by
    keys × value DOMAIN per block, never the row count) → ONE coarse
    key-hash shuffle → per bucket one Arrow sort + a segmented
    cumulative-count scan answers every key's quantiles at once (the
    result row index for q is the first row of the key's segment whose
    cumulative count reaches ``ceil(q·n_key)``).  Zero per-key dispatch.

    Output: one row per (key, q): ``(key_col, q, value)``.
    """
    n_coarse = _default_coarse(n_coarse)
    qs = list(qs)

    def hist(t: pa.Table) -> pa.Table:
        v = np.floor(t.column(value_col).to_numpy(zero_copy_only=False)
                     * scale).astype(np.int64)
        g = (pa.table({key_col: t.column(key_col), "__v": pa.array(v)})
             .group_by([key_col, "__v"]).aggregate([("__v", "count")]))
        return g.rename_columns([key_col, "__v", "__cnt"])

    def quantiles_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        kt = g.schema.field(key_col).type
        if g.num_rows == 0:
            return pa.table({key_col: pa.array([], kt),
                             "q": pa.array([], pa.float64()),
                             "value": pa.array([], pa.float64())})
        # merge the per-block partials, then sort (key, value)
        g = (g.group_by([key_col, "__v"]).aggregate([("__cnt", "sum")])
             .rename_columns([key_col, "__v", "__cnt"])
             .sort_by([(key_col, "ascending"), ("__v", "ascending")]))
        cnt = g.column("__cnt").to_numpy(zero_copy_only=False)
        vals = g.column("__v").to_numpy(zero_copy_only=False)
        first = _group_first_mask_np(g, key_col)
        seg_starts = np.flatnonzero(first)
        seg_len = np.diff(np.append(seg_starts, g.num_rows))
        cum = np.cumsum(cnt)
        base = np.repeat(cum[seg_starts] - cnt[seg_starts], seg_len)
        cumseg = cum - base
        n_key = np.add.reduceat(cnt, seg_starts)
        idx = np.arange(g.num_rows, dtype=np.int64)
        keys_out, qs_out, vs_out = [], [], []
        for q in qs:
            tgt = np.maximum(np.ceil(q * n_key).astype(np.int64), 1)
            ok = cumseg >= np.repeat(tgt, seg_len)
            pick = np.minimum.reduceat(
                np.where(ok, idx, g.num_rows), seg_starts)
            keys_out.append(pc.take(g.column(key_col), pa.array(seg_starts)))
            qs_out.append(np.full(len(seg_starts), q))
            vs_out.append(vals[pick] / scale)
        return pa.table({
            key_col: pa.concat_arrays(
                [k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k
                 for k in keys_out]),
            "q": pa.array(np.concatenate(qs_out), pa.float64()),
            "value": pa.array(np.concatenate(vs_out), pa.float64())})

    partials = ds.map_batches(hist, batch_format="pyarrow")
    return (_with_bucket(partials, key_col, n_coarse)
            .groupby("__b").map_groups(quantiles_bucket,
                                       batch_format="pyarrow"))


def rollup_aggregate(ds: "ray.data.Dataset", keys: list[str],
                     value_col: str,
                     all_marker: str = "ALL") -> "ray.data.Dataset":
    """GROUP BY ROLLUP(keys): (value sum, count) at every prefix level —
    (k1..kn), (k1..kn-1), ..., grand total — with rolled-up key columns
    holding ``all_marker`` (string keys assumed non-null, so the marker is
    unambiguous; SQL mirror: ``COALESCE(k, marker)`` over ``ROLLUP``).

    Scale shape: raw rows are scanned ONCE — per-block partials feed one
    groupby exchange producing the finest level; every coarser level is
    re-aggregated from the finest RESULT (one row per finest group, i.e.
    group-cardinality-sized, not data-sized), so adding rollup levels
    costs tiny groupbys, never a rescan.  The finest result is pinned
    (`materialize`) because it is consumed len(keys)+1 times.
    """
    import ray.data
    from ray.data.aggregate import Sum

    keys = list(keys)

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({**{k: t.column(k) for k in keys},
                       "v": t.column(value_col)})
        return (t2.group_by(keys).aggregate([("v", "sum"), ("v", "count")])
                .rename_columns(keys + ["value_sum", "n"]))

    finest = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(keys)
              .aggregate(Sum("value_sum", alias_name="value_sum"),
                         Sum("n", alias_name="n"))
              .materialize())

    def with_markers(t: pa.Table, kept: list[str]) -> pa.Table:
        cols = {}
        for k in keys:
            if k in kept:
                cols[k] = pc.cast(t.column(k), pa.string())
            else:
                cols[k] = pa.array([all_marker] * t.num_rows, pa.string())
        # pin the union schema regardless of the input value dtype
        cols["value_sum"] = pc.cast(t.column("value_sum"), pa.float64())
        cols["n"] = pc.cast(t.column("n"), pa.int64())
        return pa.table(cols)

    levels = [finest.map_batches(
        lambda t: with_markers(t, keys), batch_format="pyarrow")]
    for i in range(len(keys) - 1, 0, -1):
        kept = keys[:i]
        lv = (finest.groupby(kept)
              .aggregate(Sum("value_sum", alias_name="value_sum"),
                         Sum("n", alias_name="n"))
              .map_batches(lambda t, kept=kept: with_markers(t, kept),
                           batch_format="pyarrow"))
        levels.append(lv)
    # grand total: a two-value reduce — driver-side by construction
    tot = finest.aggregate(Sum("value_sum", alias_name="value_sum"),
                           Sum("n", alias_name="n"))
    grand = pa.table({**{k: pa.array([all_marker], pa.string()) for k in keys},
                      "value_sum": pa.array([tot["value_sum"]], pa.float64()),
                      "n": pa.array([int(tot["n"])], pa.int64())})
    levels.append(driver_dataset([grand]))
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def grouped_lag(ds: "ray.data.Dataset", key_col: str,
                order_cols: list[str], value_col: str,
                lag_col: str = "lag",
                n_coarse: int | None = None) -> "ray.data.Dataset":
    """Per-key previous value — ``lag(value) OVER (PARTITION BY key
    ORDER BY order_cols)`` — the primitive under event-sequence
    transitions, turn-gap latencies, and delta encoding.  Same vectorized
    family shape: coarse key-hash buckets (ONE shuffle), one Arrow sort
    per bucket, then the lag is a single shifted ``take`` with key-first
    rows nulled by the boundary mask — zero per-key dispatch."""
    n_coarse = _default_coarse(n_coarse)
    sort_keys = ([(key_col, "ascending")]
                 + [(c, "ascending") for c in order_cols])

    def lag_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        vt = g.schema.field(value_col).type
        if g.num_rows == 0:
            return g.append_column(lag_col, pa.array([], vt))
        g = g.sort_by(sort_keys)
        first = _group_first_mask_np(g, key_col)
        idx = np.arange(g.num_rows, dtype=np.int64) - 1
        idx[0] = 0
        shifted = pc.take(g.column(value_col), pa.array(idx))
        lag = pc.if_else(pa.array(first), pa.scalar(None, vt), shifted)
        return g.append_column(lag_col, lag)

    return (_with_bucket(ds, key_col, n_coarse)
            .groupby("__b").map_groups(lag_bucket, batch_format="pyarrow"))


def grouped_lead(ds: "ray.data.Dataset", key_col: str,
                 order_cols: list[str], value_col: str,
                 lead_col: str = "lead",
                 n_coarse: int | None = None) -> "ray.data.Dataset":
    """Per-key NEXT value — ``lead(value) OVER (PARTITION BY key ORDER BY
    order_cols)`` — ``grouped_lag``'s mirror (shift -1, key-LAST rows
    nulled): the primitive under SCD2 validity intervals (a version's
    ``valid_to`` is the next version's ``valid_from``) and lookahead
    features.  Same skeleton: coarse key-hash buckets, ONE shuffle, one
    Arrow sort + one shifted ``take`` per bucket."""
    n_coarse = _default_coarse(n_coarse)
    sort_keys = ([(key_col, "ascending")]
                 + [(c, "ascending") for c in order_cols])

    def lead_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        vt = g.schema.field(value_col).type
        if g.num_rows == 0:
            return g.append_column(lead_col, pa.array([], vt))
        g = g.sort_by(sort_keys)
        first = _group_first_mask_np(g, key_col)
        last = np.concatenate([first[1:], [True]])   # key-LAST rows
        idx = np.arange(g.num_rows, dtype=np.int64) + 1
        idx[-1] = g.num_rows - 1
        shifted = pc.take(g.column(value_col), pa.array(idx))
        lead = pc.if_else(pa.array(last), pa.scalar(None, vt), shifted)
        return g.append_column(lead_col, lead)

    return (_with_bucket(ds, key_col, n_coarse)
            .groupby("__b").map_groups(lead_bucket, batch_format="pyarrow"))
