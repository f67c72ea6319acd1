"""Last-writer-wins merge core — pure, vectorized Arrow functions.

This re-implements, explicitly, what the reference got for free from
Cassandra upsert semantics: every INSERT in ``Tasks/MigrationTask.cs:101-104``
overwrites the row with the same primary key, with the cluster's write
timestamp providing last-writer-wins.  Here the total order per key
``(conv_id, turn_idx)`` is the lexicographic ``(ts, lsn)`` pair and a winning
``op == "D"`` is a tombstone (key absent from the *visible* state, but kept in
the internal lake state so late/replayed older events cannot resurrect it).

All functions are batch-level (``pyarrow.Table`` in/out), no Python row
loops: sort + boundary-mask keep-last.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from migration_pair_ray.schemas import MERGE_KEYS, ORDER_COLS

_SORT_KEYS = [(k, "ascending") for k in MERGE_KEYS + ORDER_COLS]


def _boundary(table: pa.Table, keys: list[str]) -> pa.Array:
    """Element i is True iff rows i and i+1 belong to DIFFERENT key groups.

    Null-safe: two nulls are the SAME group member (``not_equal(null,null)``
    is null, which must not read as a boundary — a null key would otherwise
    never merge); a null next to a non-null IS a boundary.
    ``table`` must already be sorted by ``keys`` (nulls grouped together).
    """
    n = table.num_rows
    mask = None
    for k in keys:
        col = table.column(k).combine_chunks()
        a, b = col.slice(0, n - 1), col.slice(1, n - 1)
        neq = pc.fill_null(pc.not_equal(a, b), False)
        null_diff = pc.xor(pc.is_null(a), pc.is_null(b))
        diff = pc.or_(neq, null_diff)
        mask = diff if mask is None else pc.or_(mask, diff)
    return mask.combine_chunks() if isinstance(mask, pa.ChunkedArray) else mask


def _group_last_mask(table: pa.Table, keys: list[str]) -> pa.Array:
    """Boolean mask selecting the LAST row of each consecutive key group."""
    if table.num_rows == 0:
        return pa.array([], type=pa.bool_())
    return pa.concat_arrays([_boundary(table, keys),
                             pa.array([True], type=pa.bool_())])


def _group_first_mask(table: pa.Table, keys: list[str]) -> pa.Array:
    """Boolean mask selecting the FIRST row of each consecutive key group."""
    if table.num_rows == 0:
        return pa.array([], type=pa.bool_())
    return pa.concat_arrays([pa.array([True], type=pa.bool_()),
                             _boundary(table, keys)])


def lww_reduce(table: pa.Table) -> pa.Table:
    """Reduce change events to one winner per ``(conv_id, turn_idx)``.

    Winner = max by ``(ts, lsn)``; tombstone winners (``op == "D"``) are
    KEPT (internal lake form).  Used both as the per-batch partial reduce
    before the shuffle (monotone: reduce(reduce(a)+reduce(b)) ==
    reduce(a+b)) and as the final per-partition merge.
    """
    if table.num_rows == 0:
        return table
    # a >2 GiB 32-bit-offset payload column cannot survive the sort's
    # chunk concatenation — promote to 64-bit offsets first (no-op for
    # ordinary batches; functions/normalize.promote_large_strings)
    from migration_pair_ray.functions.normalize import promote_large_strings
    table = promote_large_strings(table)
    # null_placement="at_start": a null ts/lsn always loses to a real one.
    table = table.sort_by(_SORT_KEYS, null_placement="at_start")
    return table.filter(_group_last_mask(table, MERGE_KEYS))


def reduce_events(table: pa.Table, kernel: str = "row") -> pa.Table:
    """The per-batch monotone partial reduce, kernel-dispatched.

    ``kernel="row"``: whole-row LWW (``lww_reduce`` — one winner per key).
    ``kernel="cell"``: column-level LWW with PATCH ops (``cells.cell_reduce``
    — per key, the ≤ n_cols+2 rows that can still determine a cell).  Both
    are join-semilattices, so both are safe as the pre-shuffle combiner AND
    as the per-partition merge step.
    """
    if kernel == "row":
        return lww_reduce(table)
    from migration_pair_ray.functions.cells import cell_reduce
    return cell_reduce(table)


def finalize_visible(table: pa.Table, kernel: str = "row",
                     drop_meta: bool = True) -> pa.Table:
    """Internal lake form → user-visible rows, kernel-dispatched.

    Row kernel: drop tombstone winners (+ meta columns).  Cell kernel:
    fold each key's determiner rows into ONE row (``cells.cell_finalize``
    — op/lsn are consumed by the fold, so ``drop_meta`` does not apply).
    Cell-kernel callers must pass a table holding EVERY determiner row of
    each key it contains (a whole partition, or a point lookup's complete
    candidate set) — an arbitrary block slice is not finalizable.
    """
    if kernel == "row":
        return visible_state(table, drop_meta=drop_meta)
    from migration_pair_ray.functions.cells import cell_finalize
    return cell_finalize(table)


def dedup_replayed(table: pa.Table) -> pa.Table:
    """Exact dedup of replayed change events: keep-first per
    ``(conv_id, turn_idx, lsn)`` (an at-least-once log may repeat events;
    SURVEY.md §2.7).  LWW itself is insensitive to duplicates, so this is a
    volume optimization, not a correctness requirement.
    """
    if table.num_rows == 0:
        return table
    keys = MERGE_KEYS + ["lsn"]
    table = table.sort_by([(k, "ascending") for k in keys])
    return table.filter(_group_first_mask(table, keys))


def visible_state(table: pa.Table, drop_meta: bool = True) -> pa.Table:
    """Internal lake form -> user-visible final state: tombstone winners
    removed; CDC metadata columns dropped when ``drop_meta``."""
    if "op" in table.schema.names:
        keep = pc.fill_null(pc.not_equal(table.column("op"), "D"), True)
        if drop_meta:      # before the filter: dropped columns are not copied
            table = table.drop_columns([c for c in ("op", "lsn") if c in table.schema.names])
        table = table.filter(keep)
    return table


def merge_tables(existing: pa.Table | None, changes: pa.Table,
                 kernel: str = "row") -> pa.Table:
    """Merge a partition's existing internal state with new (pre-reduced)
    change events, with schema evolution: added columns backfill null on
    the old side, and diverged types conform to the canonical unified
    schema (numeric widening, unix-ms-int ↔ timestamp wire forms — the
    cases Arrow's permissive promotion alone cannot merge arrive when a
    pass widens a column a PREVIOUS pass committed narrow).  Both kernels'
    internal forms stay in the change-event schema, so the merge IS
    concat + re-reduce for either."""
    if existing is None or existing.num_rows == 0:
        return reduce_events(changes, kernel)
    if existing.schema != changes.schema:
        from migration_pair_ray.functions.normalize import normalize_batch
        from migration_pair_ray.schemas import unify_change_schemas
        target = unify_change_schemas([existing.schema, changes.schema])
        existing = normalize_batch(existing, target)
        changes = normalize_batch(changes, target)
    both = pa.concat_tables([existing, changes], promote_options="permissive")
    return reduce_events(both, kernel)


def merge_tables_chunked(existing: pa.Table | None, changes: pa.Table,
                         chunk_rows: int, kernel: str = "row") -> pa.Table:
    """``merge_tables`` with a bounded transient working set — the
    partition-size guard for skewed lakes (one conversation holding a
    large share of a partition).

    Both sides are key-sorted (``merge_tables`` output is; ``lww_reduce``
    sorts the change side), so the merge can proceed key-range by
    key-range: the change side is cut at ``chunk_rows`` boundaries aligned
    to key-group edges, the existing state is sliced to each chunk's key
    range by binary search, and per-range merges concatenate into the
    (still fully sorted) result.  Peak extra memory is one chunk's sort +
    concat instead of the whole partition's.
    """
    if (existing is None or existing.num_rows == 0
            or changes.num_rows + existing.num_rows <= chunk_rows):
        return merge_tables(existing, changes, kernel)

    def _null_keys(t: pa.Table) -> bool:
        return any(t.column(k).null_count > 0 for k in MERGE_KEYS)

    # Null merge keys break the binary-search slicing below (None is not
    # orderable against str; null turn_idx surfaces as NaN whose self-
    # equality is False, which would split a null-key group across chunks).
    # Null-key events are degenerate; correctness beats chunking for them.
    if _null_keys(changes) or _null_keys(existing):
        return merge_tables(existing, changes, kernel)

    import numpy as np
    changes = reduce_events(changes, kernel)
    conv_c = np.asarray(changes.column("conv_id").to_pandas())
    turn_c = changes.column("turn_idx").to_numpy(zero_copy_only=False)
    conv_e = np.asarray(existing.column("conv_id").to_pandas())
    turn_e = existing.column("turn_idx").to_numpy(zero_copy_only=False)

    def existing_pos(c, t) -> int:
        """First index in existing with key >= (c, t)."""
        lo = int(np.searchsorted(conv_e, c, side="left"))
        hi = int(np.searchsorted(conv_e, c, side="right"))
        return lo + int(np.searchsorted(turn_e[lo:hi], t, side="left"))

    out, c_lo, e_lo = [], 0, 0
    n = changes.num_rows
    while c_lo < n:
        c_hi = min(c_lo + max(chunk_rows, 1), n)
        if c_hi < n:
            # advance to a key-group edge so one key never spans chunks
            while c_hi < n and (conv_c[c_hi] == conv_c[c_hi - 1]
                                and turn_c[c_hi] == turn_c[c_hi - 1]):
                c_hi += 1
        e_hi = (existing.num_rows if c_hi >= n
                else existing_pos(conv_c[c_hi], turn_c[c_hi]))
        out.append(merge_tables(existing.slice(e_lo, e_hi - e_lo),
                                changes.slice(c_lo, c_hi - c_lo), kernel))
        c_lo, e_lo = c_hi, e_hi
    if e_lo < existing.num_rows:   # tail of existing past the last change key
        out.append(existing.slice(e_lo))
    return pa.concat_tables(out, promote_options="permissive")
