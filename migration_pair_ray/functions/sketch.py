"""Mergeable sketches — approximate aggregates for the 10^10-row regime.

``approx_distinct`` is the canonical shape: a HyperLogLog register array is
built PER BLOCK inside ``map_batches`` (vectorized ``np.maximum.at``), the
tiny per-block partials (2^p bytes each) flow to one elementwise-max merge,
and only the estimate leaves.  No shuffle, no distinct-value exchange —
the exact-distinct alternative moves every unique value through a groupby.

Deterministic: hashing is the process-stable SipHash used everywhere else
in the engine, so the same input produces the same registers (and estimate)
on any cluster shape — merge order is irrelevant because max is
commutative/associative/idempotent (the mergeability contract of every
sketch in this family).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from migration_pair_ray.functions.hashing import stable_hash64
from migration_pair_ray.sources.readers import driver_dataset


def md5_hash64(values) -> np.ndarray:
    """SQL-mirrorable 64-bit hash: the first 8 bytes (big-endian) of
    md5(utf-8(s)) — DuckDB: ``('0x' || substr(md5(s), 1, 16))::UBIGINT``.
    Slower than ``stable_hash64`` (per-value digest); used only where a
    relational oracle must reproduce the hash bit-for-bit."""
    out = np.empty(len(values), dtype=np.uint64)
    for i, s in enumerate(values):
        out[i] = int.from_bytes(
            hashlib.md5(str(s).encode("utf-8")).digest()[:8], "big")
    return out


def hll_registers(values, p: int = 12, hash64=None) -> np.ndarray:
    """HyperLogLog register array (length 2^p, uint8) for a value batch:
    register[top-p hash bits] = max(position of first 1-bit in the rest)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = (hash64 or stable_hash64)(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)           # remaining 64-p bits, left-aligned
    # rho = 1 + number of leading zeros in `rest` (capped at 64-p+1)
    lz = np.full(len(h), 64 - p, dtype=np.uint8)
    mask = rest != 0
    if mask.any():
        # float64 log2 is exact for the leading-bit position of a uint64
        # that keeps < 2^53 significant bits after the shift; use bit
        # scanning via conversion to avoid precision traps
        r = rest[mask]
        pos = np.zeros(len(r), dtype=np.uint8)
        cur = r.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            high = cur >> np.uint64(64 - shift)
            zero_high = high == 0
            pos[zero_high] += shift
            cur[zero_high] = cur[zero_high] << np.uint64(shift)
        lz_m = np.minimum(pos, 64 - p)
        lz[mask] = lz_m
    rho = lz.astype(np.uint8) + 1
    np.maximum.at(regs, idx, rho)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction."""
    m = len(regs)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
    inv = np.ldexp(1.0, -regs.astype(np.int64))
    est = alpha * m * m / inv.sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return float(est)


def hll_estimate_portable(regs: np.ndarray) -> int:
    """Bit-portable HLL estimate: the inverse-power sum Σ 2^-reg is kept
    as the EXACT integer Σ 2^(64-reg) (fits int128 for p ≤ 14), so the
    only float operations are one division, the alpha product, and —
    in the small-range branch — one ``ln``; every step is mirrorable in
    SQL (HUGEINT sum + one DOUBLE divide + FLOOR), making the estimate of
    a probabilistic sketch oracle-checkable.  Use with p ≥ 7 (the alpha
    closed form)."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    inv_scaled = 0
    for r in np.asarray(regs, dtype=np.int64):
        inv_scaled += 1 << (64 - int(r))
    est = alpha * m * m * 18446744073709551616.0 / float(inv_scaled)
    zeros = int((np.asarray(regs) == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * math.log(m / zeros)
    return int(math.floor(est))


def approx_distinct_portable(ds: "ray.data.Dataset", col: str,
                             p: int = 10) -> tuple[int, int]:
    """``approx_distinct`` in its SQL-portable configuration: values are
    stringified (CAST(x AS VARCHAR) semantics), hashed with ``md5_hash64``
    and estimated with ``hll_estimate_portable`` — a relational engine
    running the same md5/register/floor arithmetic reproduces the estimate
    bit-for-bit.  Same scale shape as ``approx_distinct``: per-block
    register partials (2^p bytes each, deduped with ``np.unique`` before
    hashing), one elementwise-max merge.  Returns (estimate, non-null
    row count)."""
    m = 1 << p

    def partial(t: pa.Table) -> pa.Table:
        arr = t.column(col).drop_null()
        vals = pc.cast(arr, pa.string()).to_pylist()
        uniq = np.unique(np.asarray(vals, dtype=object)) if vals else []
        regs = hll_registers(uniq, p, hash64=md5_hash64)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary(m)),
                         "n": pa.array([len(arr)], pa.int64())})

    merged = np.zeros(m, dtype=np.uint8)
    n_rows = 0
    for t in (ds.map_batches(partial, batch_format="pyarrow")
                .iter_batches(batch_size=None, batch_format="pyarrow")):
        for buf in t.column("regs").to_pylist():
            merged = hll_merge(merged, np.frombuffer(buf, dtype=np.uint8))
        n_rows += int(pc.sum(t.column("n")).as_py())
    return hll_estimate_portable(merged), n_rows


def approx_distinct(ds: "ray.data.Dataset", col: str, p: int = 12) -> float:
    """Approximate distinct count of ``col`` (relative error ≈ 1.04/√2^p,
    ~1.6% at the default p=12): per-block register partials → one tiny
    elementwise-max merge on the driver → estimate."""
    m = 1 << p

    def partial(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pylist()
        return pa.table({"regs": pa.array([hll_registers(vals, p).tobytes()],
                                          pa.binary(m))})

    merged = np.zeros(m, dtype=np.uint8)
    for t in (ds.map_batches(partial, batch_format="pyarrow")
                .iter_batches(batch_size=None, batch_format="pyarrow")):
        for buf in t.column("regs").to_pylist():
            merged = hll_merge(merged, np.frombuffer(buf, dtype=np.uint8))
    return hll_estimate(merged)


def grouped_approx_distinct_portable(ds: "ray.data.Dataset", group_col: str,
                                     col: str, p: int = 10
                                     ) -> "ray.data.Dataset":
    """Per-group ``approx_distinct`` in the SQL-portable configuration:
    every block emits one (group, registers, n) partial row per group it
    saw — the exchange carries |groups seen| × (2^p + key) bytes per
    block, never values — and a per-group max-merge folds the registers
    and reads off the portable estimate.  The group grain is the final
    ``map_groups`` dispatch unit: right for low-cardinality dimensions
    (event types, languages, sources); for 10^6+ groups switch to the
    coarse-bucket pattern (stages/analytic.py) with an in-bucket merge.

    Returns a Dataset of (group_col, approx_distinct, n_rows)."""
    m = 1 << p

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(col)))
        gt = t.schema.field(group_col).type
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], gt),
                             "regs": pa.array([], pa.binary(m)),
                             "n": pa.array([], pa.int64())})
        order = pc.sort_indices(t, sort_keys=[(group_col, "ascending")])
        t = t.take(order)
        from migration_pair_ray.functions.lww import _group_first_mask
        first = _group_first_mask(t, [group_col]).to_numpy(
            zero_copy_only=False)
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], t.num_rows)
        svals = pc.cast(t.column(col), pa.string())
        groups, regs_out, counts = [], [], []
        for s, e in zip(starts, ends):
            seg = np.unique(np.asarray(svals.slice(s, e - s).to_pylist(),
                                       dtype=object))
            regs_out.append(hll_registers(seg, p,
                                          hash64=md5_hash64).tobytes())
            groups.append(t.column(group_col)[s].as_py())
            counts.append(int(e - s))
        return pa.table({group_col: pa.array(groups, gt),
                         "regs": pa.array(regs_out, pa.binary(m)),
                         "n": pa.array(counts, pa.int64())})

    def merge_group(g: pa.Table) -> pa.Table:
        gt = g.schema.field(group_col).type
        if g.num_rows == 0:
            return pa.table({group_col: pa.array([], gt),
                             "approx_distinct": pa.array([], pa.int64()),
                             "n_rows": pa.array([], pa.int64())})
        merged = np.zeros(m, dtype=np.uint8)
        for buf in g.column("regs").to_pylist():
            merged = hll_merge(merged, np.frombuffer(buf, dtype=np.uint8))
        return pa.table({
            group_col: g.column(group_col).slice(0, 1),
            "approx_distinct": pa.array([hll_estimate_portable(merged)],
                                        pa.int64()),
            "n_rows": pa.array([int(pc.sum(g.column("n")).as_py())],
                               pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(group_col).map_groups(merge_group,
                                           batch_format="pyarrow"))


def heavy_hitters(ds: "ray.data.Dataset", col: str, num: int = 1,
                  den: int = 50) -> "ray.data.Dataset":
    """EXACT φ-heavy hitters (φ = num/den) without a full-table groupby —
    the frequent-items problem at 10^10 rows.  Two passes:

    1. per-block exact counts, keeping values with ``cnt·den ≥ num·n_block``
       — by pigeonhole a value with global count ≥ φ·n must clear that
       bar in at least one block, so the candidate union (≤ den/num rows
       per block through the exchange) is a SUPERSET of every true heavy
       hitter;
    2. the candidate set broadcasts (``ray.put`` once, bounded by
       blocks × den/num) and one streaming recount gets exact global
       counts for candidates only — the full value domain never shuffles.

    The φ threshold is an integer compare (``cnt·den ≥ num·n``), so the
    output is bit-portable to ``GROUP BY … HAVING COUNT(*)·den ≥ num·n``.
    Returns (col, cnt) for the true heavy hitters."""
    from ray.data.aggregate import Sum

    def candidates(t: pa.Table) -> pa.Table:
        ct = t.schema.field(col).type
        t = t.filter(pc.is_valid(t.column(col)))
        if t.num_rows == 0:
            return pa.table({col: pa.array([], ct),
                             "n_block": pa.array([], pa.int64())})
        g = (t.select([col]).group_by(col).aggregate([(col, "count")])
             .rename_columns([col, "cnt"]))
        keep = pc.greater_equal(
            pc.multiply(pc.cast(g.column("cnt"), pa.int64()),
                        pa.scalar(den, pa.int64())),
            pa.scalar(num * t.num_rows, pa.int64()))
        g = g.filter(keep)
        return pa.table({col: g.column(col),
                         "n_block": pa.array(
                             np.full(g.num_rows, t.num_rows, np.int64))})

    cand_parts = ds.map_batches(candidates, batch_format="pyarrow")
    vals: list = []
    for b in cand_parts.iter_batches(batch_size=None,
                                     batch_format="pyarrow"):
        vals.extend(b.column(col).to_pylist())
    uniq = sorted(set(vals))
    n_total = int(ds.map_batches(
        lambda t: pa.table({"n": pa.array(
            [int(pc.sum(pc.cast(pc.is_valid(t.column(col)), pa.int64()))
                 .as_py() or 0)], pa.int64())}),
        batch_format="pyarrow").sum("n") or 0)
    if not uniq or not n_total:
        ct = None
        for name, t in zip(ds.schema().names, ds.schema().types):
            if name == col and isinstance(t, pa.DataType):
                ct = t
        return driver_dataset([pa.table({
            col: pa.array([], ct or pa.string()),
            "cnt": pa.array([], pa.int64())})])
    cand_ref = ray.put(pa.array(uniq))

    def recount(t: pa.Table) -> pa.Table:
        ct = t.schema.field(col).type
        t = t.filter(pc.fill_null(
            pc.is_in(t.column(col), value_set=ray.get(cand_ref)), False))
        if t.num_rows == 0:
            return pa.table({col: pa.array([], ct),
                             "cnt": pa.array([], pa.int64())})
        g = (t.select([col]).group_by(col).aggregate([(col, "count")]))
        return g.rename_columns([col, "cnt"])

    counted = (ds.map_batches(recount, batch_format="pyarrow")
               .groupby(col).aggregate(Sum("cnt", alias_name="cnt")))
    thresh = num * n_total
    return counted.map_batches(
        lambda t: t.filter(pc.greater_equal(
            pc.multiply(pc.cast(t.column("cnt"), pa.int64()),
                        pa.scalar(den, pa.int64())),
            pa.scalar(thresh, pa.int64()))),
        batch_format="pyarrow")


# --------------------------------------------------------------- count-min

def cm_partial(values: np.ndarray, counts: np.ndarray, w_p: int,
               d: int) -> np.ndarray:
    """(d, 2^w_p) int64 Count-Min register matrix for one batch of
    (unique stringified value, multiplicity) pairs.  Row j's hash is
    ``md5_hash64("j:" + v) % 2^w_p`` — the same md5 slice DuckDB computes
    with ``('0x' || substr(md5(j || ':' || v), 1, 16))::UBIGINT``, so a
    SQL engine can rebuild the registers bit-for-bit."""
    m = 1 << w_p
    regs = np.zeros((d, m), np.int64)
    if len(values):
        for j in range(d):
            h = (md5_hash64([f"{j}:{v}" for v in values])
                 % np.uint64(m)).astype(np.int64)
            np.add.at(regs[j], h, counts)
    return regs


def cm_count_portable(ds: "ray.data.Dataset", col: str,
                      probes: list, w_p: int = 8,
                      d: int = 4) -> list[tuple[str, int]]:
    """Count-Min point estimates for ``probes`` over ``ds[col]`` in the
    SQL-portable configuration (md5 row hashes, stringified values):
    estimate(q) = min over rows j of regs[j][h_j(q)] — always ≥ the true
    count, inflated only by bucket collisions, and bit-for-bit
    reproducible by a relational engine that rebuilds the registers.

    Scale shape: ONE pass — per-block partials scatter-add into a
    (d × 2^w_p) int64 matrix (values deduped with np.unique first, so
    the md5 cost is per distinct-per-block, not per row), merged by
    elementwise SUM (count sketches are additive, unlike HLL's max).
    The value domain never shuffles; each block ships d·2^w_p·8 bytes.
    """
    m = 1 << w_p

    def partial(t: pa.Table) -> pa.Table:
        arr = pc.cast(t.column(col).drop_null(), pa.string())
        vals, counts = (np.unique(np.asarray(arr.to_pylist(), dtype=object),
                                  return_counts=True)
                        if len(arr) else (np.array([], object), np.array([], np.int64)))
        regs = cm_partial(vals, counts, w_p, d)
        return pa.table({"regs": pa.array([regs.tobytes()],
                                          pa.binary(d * m * 8))})

    merged = np.zeros((d, m), np.int64)
    for t in (ds.map_batches(partial, batch_format="pyarrow")
                .iter_batches(batch_size=None, batch_format="pyarrow")):
        for buf in t.column("regs").to_pylist():
            merged += np.frombuffer(buf, dtype=np.int64).reshape(d, m)
    out = []
    for q in probes:
        # uint64 % python-int promotes to float64 in numpy — keep integral
        h = np.array([int(md5_hash64([f"{j}:{q}"])[0]) % m for j in range(d)],
                     dtype=np.int64)
        out.append((q, int(merged[np.arange(d), h].min())))
    return out
