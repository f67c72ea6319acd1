"""Distributed joins.

The reference has no data-level joins (SURVEY.md §2.4 — its only "join" is
the O(n²) schema-compliance match in ``Tasks/EndToEnd.cs:64-75``).  A
complete engine needs them, in two shapes:

* ``broadcast_join`` — small side shipped once via ``ray.put``, lookup per
  batch (no shuffle of the big side).  Used by the conformance queries.
* ``hash_join`` — both sides large: tag each side, bucket both by a
  deterministic hash of the key, union, ONE shuffle groups each bucket's
  rows from both sides together, and a pandas merge joins inside the
  bucket.  This is the portable partitioned hash join (Ray 2.49's native
  ``Dataset.join`` crashes on empty hash partitions, so the engine carries
  its own).

Partitioning assumption: ``num_buckets`` should be >= cluster parallelism;
hot keys can be salted by joining on (key, salt) when one key's rows
exceed a bucket (not needed for equi-joins whose key groups fit memory).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from migration_pair_ray.functions.hashing import stable_hash64

_SIDE_COL = "__side"
_BUCKET_COL = "__bucket"
right_suffix_default = "_r"


def _key_hash64(batch: pa.Table, on: list[str]) -> np.ndarray:
    """Deterministic 64-bit combined hash of the key columns (the bucket
    hash of hash_join and the membership hash of the bloom prefilter —
    the two MUST agree so the bloom can be built from the same batches)."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for col in on:
        c = batch.column(col)
        if pa.types.is_integer(c.type):
            vals = c.to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = h * np.uint64(0x9E3779B97F4A7C15) + vals
        else:
            h = h ^ stable_hash64(c.to_pylist())
    return h


def _add_bucket(batch: pa.Table, on: list[str], num_buckets: int, side: int) -> pa.Table:
    if batch.num_rows == 0:
        return (batch.append_column(_BUCKET_COL, pa.array([], pa.int64()))
                     .append_column(_SIDE_COL, pa.array([], pa.int8())))
    h = _key_hash64(batch, on)
    bucket = (h % np.uint64(num_buckets)).astype(np.int64)
    return (batch.append_column(_BUCKET_COL, pa.array(bucket))
                 .append_column(_SIDE_COL, pa.array(np.full(batch.num_rows, side, np.int8))))


def _bloom_positions(h: np.ndarray, n_bits: int, k: int) -> list[np.ndarray]:
    """Kirsch-Mitzenmacher double hashing: position_i = (h1 + i*h2) mod m."""
    with np.errstate(over="ignore"):
        h2 = h * np.uint64(0xFF51AFD7ED558CCD) + np.uint64(0x2545F4914F6CDD1D)
        return [((h + np.uint64(i) * h2) % np.uint64(n_bits))
                for i in range(k)]


def build_key_bloom(ds: "ray.data.Dataset", on: list[str] | str,
                    n_bits: int = 1 << 23, n_hashes: int = 4
                    ) -> "ray.ObjectRef":
    """Distributed bloom-filter build over a Dataset's key columns:
    per-block partial bitmaps (fixed ``n_bits/8`` bytes each, one row per
    block through the exchange) OR-merged on the driver and broadcast
    once via ``ray.put``.  Default 2^23 bits = 1 MiB ≈ 1% false positives
    at ~10^6 distinct keys; size up for bigger build sides (the merge
    cost is blocks × bitmap bytes — tree-merge via a groupby if block
    counts ever make the driver OR a bottleneck)."""
    if isinstance(on, str):
        on = [on]
    words = n_bits // 64

    def partial(t: pa.Table) -> pa.Table:
        bm = np.zeros(words, np.uint64)
        if t.num_rows:
            h = _key_hash64(t, on)
            for pos in _bloom_positions(h, n_bits, n_hashes):
                np.bitwise_or.at(bm, (pos >> np.uint64(6)).astype(np.int64),
                                 np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.large_binary())})

    merged = np.zeros(words, np.uint64)
    for r in ds.map_batches(partial, batch_format="pyarrow").take_all():
        merged |= np.frombuffer(r["bm"], np.uint64)
    return ray.put({"bm": merged, "n_bits": n_bits, "k": n_hashes})


def bloom_filter_keys(ds: "ray.data.Dataset", on: list[str] | str,
                      bloom_ref: "ray.ObjectRef") -> "ray.data.Dataset":
    """Drop rows whose key definitely isn't in the bloom (no false
    negatives: every surviving row is re-checked by the real join).  Pure
    per-block filter — runs BEFORE the join shuffle, so a selective build
    side cuts the big side's exchange volume by the match rate."""
    if isinstance(on, str):
        on = [on]

    def keep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        b = ray.get(bloom_ref)
        bm, n_bits, k = b["bm"], b["n_bits"], b["k"]
        h = _key_hash64(t, on)
        mask = np.ones(t.num_rows, bool)
        for pos in _bloom_positions(h, n_bits, k):
            mask &= (bm[(pos >> np.uint64(6)).astype(np.int64)]
                     >> (pos & np.uint64(63))) & np.uint64(1) != 0
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


# (bloom_from, side that gets filtered) combinations that preserve join
# semantics: the filtered side's dropped rows must be provably irrelevant
_BLOOM_SAFE = {"left": {"inner", "left", "semi", "anti"},
               "right": {"inner", "right", "semi"}}


def hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              on: list[str] | str, how: str = "inner",
              num_buckets: int | None = None,
              bloom_from: str | None = None,
              bloom_bits: int = 1 << 23) -> "ray.data.Dataset":
    """Partitioned hash join of two large Datasets on equality of ``on``.

    Both sides shuffle once (bucketed by key hash); each bucket joins
    locally with an Acero hash join.  Column name collisions (outside the
    key) get a ``_r`` suffix on the right side.

    ``num_buckets`` defaults to 2× the cluster's CPU count (min 32) so
    join parallelism scales with cluster size instead of being pinned to
    a constant.

    ``bloom_from='left'|'right'`` builds a bloom filter from that side's
    keys and prefilters the OTHER side before its shuffle — the classic
    selective-join exchange cut (build side small/selective, probe side
    huge).  Only allowed where dropping provably-unmatched probe rows
    can't change the result (e.g. never the outer-preserved side);
    invalid combinations raise.  False positives only cost shuffle bytes.
    """
    if isinstance(on, str):
        on = [on]
    if bloom_from is not None:
        if how not in _BLOOM_SAFE.get(bloom_from, set()):
            raise ValueError(
                f"bloom_from={bloom_from!r} would change how={how!r} "
                f"semantics (the filtered side is result-preserved)")
        if bloom_from == "left":
            right = bloom_filter_keys(
                right, on, build_key_bloom(left, on, n_bits=bloom_bits))
        else:
            left = bloom_filter_keys(
                left, on, build_key_bloom(right, on, n_bits=bloom_bits))
    if num_buckets is None:
        try:
            num_buckets = max(32, int(ray.cluster_resources().get("CPU", 16)) * 2)
        except Exception:
            num_buckets = 32

    def _arrow_types(schema) -> dict:
        out = {}
        for n, t in zip(schema.names, schema.types):
            if not isinstance(t, pa.DataType):   # pandas-block dataset: numpy dtype
                try:
                    t = pa.from_numpy_dtype(t)
                except (pa.ArrowNotImplementedError, TypeError):
                    t = pa.string()
            out[n] = t
        return out

    ltypes = _arrow_types(left.schema())
    rtypes = _arrow_types(right.schema())
    l_only = [c for c in ltypes if c not in on]
    r_only = [c for c in rtypes if c not in on]

    # shared non-key names would duplicate fields in the union schema and
    # corrupt the in-bucket merge — suffix the right side up front
    collisions = set(l_only) & set(r_only)
    if collisions:
        new_names = [c + right_suffix_default if c in collisions else c
                     for c in rtypes]
        right = right.map_batches(
            lambda b, names=tuple(new_names): b.rename_columns(list(names)),
            batch_format="pyarrow")
        rtypes = dict(zip(new_names, rtypes.values()))
        r_only = [c for c in rtypes if c not in on]
    union_schema = pa.schema(
        [pa.field(c, ltypes[c]) for c in on]
        + [pa.field(c, ltypes[c]) for c in l_only]
        + [pa.field(c, rtypes[c]) for c in r_only])
    from migration_pair_ray.schemas import conform_batch

    lt = left.map_batches(
        lambda b: _add_bucket(conform_batch(b, union_schema), on,
                              num_buckets, 0),
        batch_format="pyarrow")
    rt = right.map_batches(
        lambda b: _add_bucket(conform_batch(b, union_schema), on,
                              num_buckets, 1),
        batch_format="pyarrow")
    both = lt.union(rt)

    arrow_how = {"inner": "inner", "left": "left outer",
                 "right": "right outer", "outer": "full outer",
                 "semi": "left semi", "anti": "left anti"}[how]

    def join_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        lmask = pc.equal(g.column(_SIDE_COL), 0)
        lg = g.filter(lmask).select(on + l_only)
        rg = g.filter(pc.invert(lmask)).select(on + r_only)
        # Acero hash join — vectorized C++, no pandas conversion
        return lg.join(rg, keys=on, join_type=arrow_how)

    return both.groupby(_BUCKET_COL).map_groups(join_bucket, batch_format="pyarrow")


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              key: str, ts_col: str, how: str = "left",
              tolerance_s: float | None = None,
              n_coarse: int | None = None) -> "ray.data.Dataset":
    """Backward-inclusive as-of join: each left row picks the LATEST right
    row of the same ``key`` with ``right.ts <= left.ts`` (standard
    point-in-time semantics; ``tolerance_s`` additionally bounds how stale
    the match may be).  Ray Data has no native as-of join — this is the
    composition form: coarse-hash-bucket both sides on ``key`` (keys never
    span buckets), ONE shuffle, then inside each bucket one Arrow sort by
    (key, ts, side) and a vectorized last-right scan (``maximum.accumulate``
    over right-row indices, reset at key boundaries) matches every left row
    at once — no per-key dispatch, no pandas.

    Right must be unique per (key, ts) for deterministic output (pre-
    aggregate duplicates upstream).  ``how``: "left" keeps unmatched left
    rows with null right payload; "inner" drops them.  Non-key, non-ts
    right columns are the payload; name collisions get the ``_r`` suffix.

    Partitioning assumption: one key's rows fit one bucket task's memory
    (same contract as sessionize; raise ``n_coarse`` for extreme skew).
    """
    if how not in ("left", "inner"):
        raise ValueError(f"asof_join: how={how!r} (use 'left' or 'inner')")
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(n_coarse)

    lnames = list(left.schema().names)
    rnames = list(right.schema().names)
    l_only = [c for c in lnames if c not in (key, ts_col)]
    r_only = [c for c in rnames if c not in (key, ts_col)]
    collisions = set(l_only) & set(r_only)
    if collisions:
        new_names = [c + right_suffix_default
                     if c in collisions and c not in (key, ts_col) else c
                     for c in rnames]
        right = right.map_batches(
            lambda b, names=tuple(new_names): b.rename_columns(list(names)),
            batch_format="pyarrow")
        r_only = [c for c in new_names if c not in (key, ts_col)]

    def tag(side: int):
        def _tag(t: pa.Table) -> pa.Table:
            cols = {key: t.column(key), ts_col: t.column(ts_col)}
            for c in (l_only if side == 1 else r_only):
                cols[c] = t.column(c)
            out = pa.table(cols)
            # null-fill the other side's payload so blocks share one schema
            for c in (r_only if side == 1 else l_only):
                out = out.append_column(c, pa.nulls(t.num_rows))
            out = out.append_column(
                _SIDE_COL, pa.array(np.full(t.num_rows, side, np.int8)))
            return out.append_column(_BUCKET_COL, pa.array(
                _coarse_key_bucket(t.column(key), n_coarse)))
        return _tag

    # unify payload types across the null-filled sides
    def _arrow_types(schema) -> dict:
        out = {}
        for n, t in zip(schema.names, schema.types):
            if not isinstance(t, pa.DataType):   # pandas-block dataset
                try:
                    t = pa.from_numpy_dtype(t)
                except (pa.ArrowNotImplementedError, TypeError):
                    t = pa.string()
            out[n] = t
        return out

    ltypes, rtypes = _arrow_types(left.schema()), _arrow_types(right.schema())
    union_schema = pa.schema(
        [pa.field(key, ltypes[key]), pa.field(ts_col, ltypes[ts_col])]
        + [pa.field(c, ltypes[c]) for c in l_only]
        + [pa.field(c, rtypes[c]) for c in r_only]
        + [pa.field(_SIDE_COL, pa.int8()), pa.field(_BUCKET_COL, pa.int32())])
    from migration_pair_ray.schemas import conform_batch

    lt = left.map_batches(lambda t: conform_batch(tag(1)(t), union_schema),
                          batch_format="pyarrow")
    rt = right.map_batches(lambda t: conform_batch(tag(0)(t), union_schema),
                           batch_format="pyarrow")
    both = lt.union(rt)
    out_cols = [key, ts_col] + l_only + r_only

    def asof_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        from migration_pair_ray.functions.lww import _group_first_mask
        if g.num_rows == 0:
            return pa.table({c: pa.array([], union_schema.field(c).type)
                             for c in out_cols})
        # right (side=0) sorts before left at equal ts → backward-INCLUSIVE
        g = g.sort_by([(key, "ascending"), (ts_col, "ascending"),
                       (_SIDE_COL, "ascending")])
        side = g.column(_SIDE_COL).to_numpy(zero_copy_only=False)
        is_right = side == 0
        idx = np.arange(g.num_rows, dtype=np.int64)
        first_of_key = _group_first_mask(g, [key]).to_numpy(zero_copy_only=False)
        seg_id = np.cumsum(first_of_key) - 1
        seg_start = np.flatnonzero(first_of_key)
        last_r = np.maximum.accumulate(np.where(is_right, idx, -1))
        matched = last_r >= seg_start[seg_id]
        if tolerance_s is not None:
            ts_us = (pc.cast(pc.cast(g.column(ts_col), pa.timestamp("us")),
                             pa.int64()).to_numpy(zero_copy_only=False))
            lag = ts_us - ts_us[np.clip(last_r, 0, None)]
            matched &= lag <= int(tolerance_s * 1_000_000)
        lmask = ~is_right
        lrows = g.filter(pa.array(lmask)).select([key, ts_col] + l_only)
        midx, valid = last_r[lmask], matched[lmask]
        if how == "inner":
            lrows = lrows.filter(pa.array(valid))
            midx, valid = midx[valid], valid[valid]
        take_idx = pa.array(np.clip(midx, 0, None), pa.int64(),
                            mask=~valid)   # null index → null payload
        for c in r_only:
            lrows = lrows.append_column(c, pc.take(g.column(c), take_idx))
        return lrows

    return both.groupby(_BUCKET_COL).map_groups(asof_bucket,
                                                batch_format="pyarrow")


def range_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               key: str, ts_col: str, lo_s: float, hi_s: float,
               how: str = "inner",
               n_coarse: int | None = None) -> "ray.data.Dataset":
    """Interval (range) join: each left row matches EVERY right row of the
    same ``key`` with ``right.ts in [left.ts + lo_s, left.ts + hi_s]``
    (both ends inclusive; ``lo_s`` may be negative).  One-to-many — the
    other custom temporal join Ray Data lacks (``asof_join`` is the
    one-to-one sibling and shares the shuffle skeleton).

    Execution: coarse-hash-bucket both sides on ``key`` (ONE shuffle, keys
    never span buckets).  Inside a bucket the left side is exploded into a
    LOWER and an UPPER probe row, unioned with the right rows, and ONE
    Arrow sort by (key, ts, tie) orders probes around equal-ts rights so
    that a running count of right rows read off at the two probe positions
    IS the per-key searchsorted pair: the matching rights for left row i
    are exactly the compacted right indices ``[cum[lo_i], cum[hi_i])`` —
    the per-key segment offsets cancel because both probes carry the same
    key, so no per-key loop and no segment arithmetic exist at all.  Pair
    emission is the standard ragged ``repeat + arange`` gather.

    ``how``: "inner" emits matched pairs only; "left" additionally keeps
    unmatched left rows with null right payload.  Right payload columns
    keep their names (``_r`` suffix on collisions); the matched right
    timestamp is emitted as ``ts_col + "_r"``.

    Partitioning assumption: one coarse bucket's rows (plus its emitted
    pairs) fit one task's memory — same contract as ``asof_join``; raise
    ``n_coarse`` for extreme skew, and keep the window tight: output size
    is the number of TRUE matches, which the window width controls.
    """
    if how not in ("left", "inner"):
        raise ValueError(f"range_join: how={how!r} (use 'left' or 'inner')")
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(n_coarse)
    lo_us, hi_us = int(lo_s * 1_000_000), int(hi_s * 1_000_000)
    if lo_us > hi_us:
        raise ValueError("range_join: lo_s must be <= hi_s")

    lschema, rschema = left.schema(), right.schema()
    lnames, rnames = list(lschema.names), list(rschema.names)
    l_only = [c for c in lnames if c not in (key, ts_col)]
    r_ts = ts_col + right_suffix_default
    new_rnames = [c if c in (key, ts_col) else
                  (c + right_suffix_default if c in lnames else c)
                  for c in rnames]
    if new_rnames != rnames:
        # a renamed empty dataset can no longer report a schema, so the
        # type maps below come from the pre-rename schemas
        right = right.map_batches(
            lambda b, names=tuple(new_rnames): b.rename_columns(list(names)),
            batch_format="pyarrow")
    r_only = [c for c in new_rnames if c not in (key, ts_col)]

    def tag(side: int):
        def _tag(t: pa.Table) -> pa.Table:
            cols = {key: t.column(key), ts_col: t.column(ts_col)}
            for c in (l_only if side == 1 else r_only):
                cols[c] = t.column(c)
            out = pa.table(cols)
            for c in (r_only if side == 1 else l_only):
                out = out.append_column(c, pa.nulls(t.num_rows))
            out = out.append_column(
                _SIDE_COL, pa.array(np.full(t.num_rows, side, np.int8)))
            return out.append_column(_BUCKET_COL, pa.array(
                _coarse_key_bucket(t.column(key), n_coarse)))
        return _tag

    def _arrow_types(schema) -> dict:
        out = {}
        for n, t in zip(schema.names, schema.types):
            if not isinstance(t, pa.DataType):
                try:
                    t = pa.from_numpy_dtype(t)
                except (pa.ArrowNotImplementedError, TypeError):
                    t = pa.string()
            out[n] = t
        return out

    ltypes = _arrow_types(lschema)
    rtypes0 = _arrow_types(rschema)
    rtypes = {n: rtypes0[o] for n, o in zip(new_rnames, rnames)}
    union_schema = pa.schema(
        [pa.field(key, ltypes[key]), pa.field(ts_col, ltypes[ts_col])]
        + [pa.field(c, ltypes[c]) for c in l_only]
        + [pa.field(c, rtypes[c]) for c in r_only]
        + [pa.field(_SIDE_COL, pa.int8()), pa.field(_BUCKET_COL, pa.int32())])
    from migration_pair_ray.schemas import conform_batch

    lt = left.map_batches(lambda t: conform_batch(tag(1)(t), union_schema),
                          batch_format="pyarrow")
    rt = right.map_batches(lambda t: conform_batch(tag(0)(t), union_schema),
                           batch_format="pyarrow")
    both = lt.union(rt)
    out_fields = ([pa.field(key, ltypes[key]), pa.field(ts_col, ltypes[ts_col])]
                  + [pa.field(c, ltypes[c]) for c in l_only]
                  + [pa.field(r_ts, rtypes[ts_col])]
                  + [pa.field(c, rtypes[c]) for c in r_only])

    def _empty() -> pa.Table:
        return pa.table({f.name: pa.array([], f.type) for f in out_fields})

    def range_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if g.num_rows == 0:
            return _empty()
        side = g.column(_SIDE_COL).to_numpy(zero_copy_only=False)
        lefts = g.filter(pa.array(side == 1)).select([key, ts_col] + l_only)
        rights = g.filter(pa.array(side == 0)).select([key, ts_col] + r_only)
        nl, nr = lefts.num_rows, rights.num_rows
        if nl == 0:
            return _empty()
        l_ts = pc.cast(pc.cast(lefts.column(ts_col), pa.timestamp("us")),
                       pa.int64()).to_numpy(zero_copy_only=False)
        r_ts_us = pc.cast(pc.cast(rights.column(ts_col), pa.timestamp("us")),
                          pa.int64()).to_numpy(zero_copy_only=False)
        # probe stream: rights(tie=1) + lo-probes(tie=0, so equal-ts rights
        # count as >= lo) + hi-probes(tie=2, so equal-ts rights count as
        # <= hi); src = row index within its own side's table
        stream = pa.table({
            key: pa.concat_arrays([
                rights.column(key).combine_chunks().cast(ltypes[key]),
                lefts.column(key).combine_chunks(),
                lefts.column(key).combine_chunks()]),
            "__ts": pa.array(np.concatenate([r_ts_us, l_ts + lo_us,
                                             l_ts + hi_us])),
            "__tie": pa.array(np.concatenate([
                np.full(nr, 1, np.int8), np.zeros(nl, np.int8),
                np.full(nl, 2, np.int8)])),
            "__src": pa.array(np.concatenate([
                np.arange(nr, dtype=np.int64),
                np.arange(nl, dtype=np.int64),
                np.arange(nl, dtype=np.int64)])),
        }).sort_by([(key, "ascending"), ("__ts", "ascending"),
                    ("__tie", "ascending")])
        tie = stream.column("__tie").to_numpy(zero_copy_only=False)
        src = stream.column("__src").to_numpy(zero_copy_only=False)
        cum_r = np.cumsum(tie == 1)           # rights at-or-before position
        lb = np.zeros(nl, np.int64)
        ub = np.zeros(nl, np.int64)
        lb[src[tie == 0]] = cum_r[tie == 0]   # rights strictly before lo
        ub[src[tie == 2]] = cum_r[tie == 2]   # rights at-or-before hi
        # compacted right order = right rows in (key, ts) sorted order
        r_perm = src[tie == 1]
        counts = ub - lb
        total = int(counts.sum())
        l_idx = np.repeat(np.arange(nl, dtype=np.int64), counts)
        starts = np.zeros(nl, np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        r_pos = np.repeat(lb, counts) + (np.arange(total, dtype=np.int64)
                                         - np.repeat(starts, counts))
        r_idx = pa.array(r_perm[r_pos]) if total else pa.array([], pa.int64())
        if how == "left":
            miss = np.flatnonzero(counts == 0)
            l_idx = np.concatenate([l_idx, miss])
            r_idx = pa.array(
                np.concatenate([r_perm[r_pos], np.zeros(len(miss), np.int64)]),
                pa.int64(),
                mask=np.concatenate([np.zeros(total, bool),
                                     np.ones(len(miss), bool)]))
        lsel = lefts.take(pa.array(l_idx))
        cols = {c: lsel.column(c) for c in [key, ts_col] + l_only}
        cols[r_ts] = pc.take(rights.column(ts_col), r_idx)
        for c in r_only:
            cols[c] = pc.take(rights.column(c), r_idx)
        return pa.table(cols)

    return both.groupby(_BUCKET_COL).map_groups(range_bucket,
                                                batch_format="pyarrow")


def broadcast_join(big: "ray.data.Dataset", small: pa.Table,
                   on: list[str] | str, how: str = "inner") -> "ray.data.Dataset":
    """Broadcast hash join: the small side is ``ray.put`` once (zero-copy
    Arrow in the object store) and Acero-joined into every batch of the
    big side — no shuffle, no pandas conversion."""
    if isinstance(on, str):
        on = [on]
    arrow_how = {"inner": "inner", "left": "left outer",
                 "right": "right outer", "outer": "full outer"}[how]
    ref = ray.put(small)

    def join_batch(g: pa.Table) -> pa.Table:
        return g.join(ray.get(ref), keys=on, join_type=arrow_how)

    return big.map_batches(join_batch, batch_format="pyarrow")


def _hot_join_keys(ds: "ray.data.Dataset", col: str,
                   hot_frac: float) -> list:
    """Keys holding more than ``hot_frac`` of the dataset's rows.
    Per-block count partials → one small groupby; the threshold filter
    runs distributed, so the driver receives at most ~1/hot_frac keys,
    never the distinct-key histogram (same stance as
    stages/partition.detect_hot_keys)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def hist(t: pa.Table) -> pa.Table:
        g = t.select([col]).group_by(col).aggregate([(col, "count")])
        return g.rename_columns([col, "cnt"])

    h = (ds.map_batches(hist, batch_format="pyarrow")
         .groupby(col).aggregate(Sum("cnt", alias_name="cnt"))).materialize()
    total = int(h.sum("cnt") or 0)
    if not total:
        return []
    hot = h.map_batches(
        lambda t: t.filter(pc.greater(
            pc.divide(pc.cast(t.column("cnt"), pa.float64()), float(total)),
            hot_frac)), batch_format="pyarrow")
    vals = []
    for b in hot.iter_batches(batch_format="pyarrow", batch_size=None):
        vals.extend(b.column(col).to_pylist())
    return vals


_SALT_SAFE = {"inner", "left", "semi", "anti"}


def salted_hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                     on: str, how: str = "inner", salt: int = 16,
                     hot_keys: list | None = None, hot_frac: float = 0.01,
                     num_buckets: int | None = None) -> "ray.data.Dataset":
    """Skew-defeating hash join on a single key column: the LEFT (probe)
    side's HOT keys are sprayed across ``salt`` sub-keys so no one join
    bucket owns a whole hot key's rows; the RIGHT (build) side replicates
    only its hot-key rows ``salt``× to cover every sub-key.  Cold keys pay
    nothing (salt 0 both sides).  This is the join-side twin of the
    replay's salted ``partition_mode="key"`` layout — the engine's answer
    to the north-star's "explicit salting of hot conversations".

    ``hot_keys=None`` auto-detects keys above ``hot_frac`` of left rows
    (one tiny aggregate; the raw table never funnels to the driver).
    Only ``inner/left/semi/anti`` are allowed: replicated right rows that
    match nothing would surface as duplicate null-left rows in right/full
    outer results.
    """
    import pyarrow.compute as pc
    if how not in _SALT_SAFE:
        raise ValueError(f"salted_hash_join cannot preserve how={how!r} "
                         f"(replicated build rows would duplicate "
                         f"outer-preserved output)")
    if hot_keys is None:
        hot_keys = _hot_join_keys(left, on, hot_frac)
    if not hot_keys:
        return hash_join(left, right, on=on, how=how,
                         num_buckets=num_buckets)
    key_type = None
    for name, t in zip(left.schema().names, left.schema().types):
        if name == on:
            key_type = t if isinstance(t, pa.DataType) else None
    hot_arr = pa.array(hot_keys, key_type)
    hot_ref = ray.put(hot_arr)

    def salt_left(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("__salt", pa.array([], pa.int32()))
        hot = pc.fill_null(pc.is_in(t.column(on), value_set=ray.get(hot_ref)),
                           False).to_numpy(zero_copy_only=False)
        s = np.where(hot,
                     np.arange(t.num_rows, dtype=np.int64) % salt,
                     0).astype(np.int32)
        return t.append_column("__salt", pa.array(s))

    def replicate_right(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("__salt", pa.array([], pa.int32()))
        hot = pc.fill_null(pc.is_in(t.column(on), value_set=ray.get(hot_ref)),
                           False).to_numpy(zero_copy_only=False)
        reps = np.where(hot, salt, 1).astype(np.int64)
        idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), reps)
        seg = np.concatenate([[0], np.cumsum(reps)[:-1]])
        s = (np.arange(len(idx), dtype=np.int64)
             - np.repeat(seg, reps)).astype(np.int32)
        return (t.take(pa.array(idx))
                .append_column("__salt", pa.array(s)))

    lt = left.map_batches(salt_left, batch_format="pyarrow")
    rt = right.map_batches(replicate_right, batch_format="pyarrow")
    out = hash_join(lt, rt, on=[on, "__salt"], how=how,
                    num_buckets=num_buckets)
    return out.map_batches(lambda t: t.drop_columns(["__salt"]),
                           batch_format="pyarrow")
