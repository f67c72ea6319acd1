"""Normalize stage — vectorized re-expression of the reference's per-cell
type conversion (``Converters/DynamicTypeConverter.cs:8-22``), empty→null
rule (``:10-13``) and timestamp canonicalization (``Tasks/Extraction.cs:65-70``
stores timestamps as unix epoch milliseconds).

One batch-level function, Arrow in / Arrow out, matching columns **by name**
against a target schema (the reference's positional bind in
``Tasks/Insertion.cs:101-102`` is a hazard deliberately not reproduced).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def _cast_column(col: pa.ChunkedArray | pa.Array, target: pa.DataType) -> pa.ChunkedArray | pa.Array:
    src = col.type
    if src == target:
        return col
    # string source → typed target: empty string means null
    # (DynamicTypeConverter.cs:10-13 returns null for IsNullOrEmpty input).
    if pa.types.is_string(src) or pa.types.is_large_string(src):
        col = pc.if_else(pc.equal(col, ""), pa.scalar(None, type=src), col)
        if pa.types.is_boolean(target):
            # bool.Parse accepts "True"/"true" — lowercase first.
            return pc.cast(pc.utf8_lower(col), target)
        return pc.cast(col, target)
    # integer source → timestamp target: interpret as unix epoch ms,
    # the reference's canonical wire form (Extraction.cs:67-68).
    if pa.types.is_integer(src) and pa.types.is_timestamp(target):
        ms = pc.cast(col, pa.int64())
        return pc.cast(pc.multiply(ms, pa.scalar(1000, pa.int64())), pa.timestamp("us"))
    # timestamp source → integer target: emit unix epoch ms.
    if pa.types.is_timestamp(src) and pa.types.is_integer(target):
        us = pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
        return pc.cast(pc.divide(us, pa.scalar(1000, pa.int64())), target)
    return pc.cast(col, target)


# Promote string/binary columns to their large_ (64-bit offset) types
# BEFORE a batch's payload bytes reach Arrow's 2^31-1 single-array offset
# cap: sort_by / take / combine_chunks all concatenate chunks, and a
# >2 GiB logical string column fails them with "offset overflow while
# concatenating arrays" (measured; the changegen hit it at 10^8 rows).
# The margin leaves headroom for kernels that pad while concatenating.
LARGE_PROMOTE_BYTES = (1 << 31) - (1 << 27)


def promote_large_strings(batch: pa.Table,
                          threshold: int = LARGE_PROMOTE_BYTES) -> pa.Table:
    """string→large_string / binary→large_binary for any column whose
    LOGICAL payload (summed over chunks — concatenation is what
    overflows) is at or past ``threshold``.  Casts run per chunk (each
    chunk is under the cap by construction), so the promotion itself
    cannot overflow.  No-op (zero-copy) for ordinary batches: one
    ``nbytes`` check per column."""
    for i, f in enumerate(batch.schema):
        if pa.types.is_string(f.type):
            big = pa.large_string()
        elif pa.types.is_binary(f.type):
            big = pa.large_binary()
        else:
            continue
        col = batch.column(i)
        if col.nbytes >= threshold:
            batch = batch.set_column(
                i, pa.field(f.name, big), pc.cast(col, big))
    return batch


def normalize_batch(batch: pa.Table, target: pa.Schema) -> pa.Table:
    """Conform ``batch`` to ``target`` by name: missing columns backfilled
    with typed nulls (schema evolution), extra columns dropped, types cast
    with the reference's conversion semantics.  Columns whose payload
    approaches the 32-bit offset cap leave as ``large_string`` /
    ``large_binary`` regardless of the target's declared type — the merge
    kernels downstream sort and concatenate, which a >2 GiB 32-bit-offset
    column cannot survive (see ``promote_large_strings``).  A batch whose
    fields already equal the target's (every state file of an unevolved
    lake) only takes the large-string check, not a column-by-column
    rebuild; either way the result carries no schema-level metadata."""
    if batch.schema.remove_metadata().equals(target.remove_metadata(),
                                             check_metadata=True):
        return promote_large_strings(batch.replace_schema_metadata())
    n = batch.num_rows
    cols = []
    fields = []
    for f in target:
        idx = batch.schema.get_field_index(f.name)
        if idx == -1:
            cols.append(pa.nulls(n, type=f.type))
            fields.append(f)
            continue
        col = _cast_column(batch.column(idx), f.type)
        if (pa.types.is_string(col.type)
                and col.nbytes >= LARGE_PROMOTE_BYTES):
            col = pc.cast(col, pa.large_string())
            f = pa.field(f.name, pa.large_string())
        elif (pa.types.is_binary(col.type)
                and col.nbytes >= LARGE_PROMOTE_BYTES):
            col = pc.cast(col, pa.large_binary())
            f = pa.field(f.name, pa.large_binary())
        cols.append(col)
        fields.append(f)
    return pa.Table.from_arrays(cols, schema=pa.schema(fields))


def empty_strings_to_null(batch: pa.Table) -> pa.Table:
    """CSV wire convention: an empty field means null (the reference cannot
    distinguish them either — empty→null in DynamicTypeConverter.cs:10-13).
    Applied to every string column; used on the CSV ingest path only."""
    for i, f in enumerate(batch.schema):
        if pa.types.is_string(f.type) or pa.types.is_large_string(f.type):
            col = pc.if_else(pc.equal(batch.column(i), ""),
                             pa.scalar(None, type=f.type), batch.column(i))
            batch = batch.set_column(i, f.name, col)
    return batch


def make_normalizer(target: pa.Schema):
    """A pickleable map_batches fn bound to a target schema."""
    def _normalize(batch: pa.Table) -> pa.Table:
        return normalize_batch(batch, target)
    return _normalize
