"""Canonical schemas and schema-evolution helpers.

The reference's schema system is runtime introspection of a live table
(``Tasks/MigrationTask.cs:107-116`` — ``SELECT * ... LIMIT 1`` harvesting
``(name, type)`` pairs).  Here the equivalent is the Arrow schema carried by
the Parquet files themselves plus ``pyarrow.unify_schemas`` across
heterogeneous change-log files (early files may lack the ``tool`` column —
the schema-evolution case mandated by BASELINE.json ``input_hint``).
"""

from __future__ import annotations

import pyarrow as pa

# The base/target lake table (BASELINE.json input_hint / FIXTURES.md F1).
BASE_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

# Change-event envelope = base columns + CDC metadata (FIXTURES.md F2).
# op: "I" | "U" | "D" (tombstone); lsn: globally-unique log sequence number.
# Winner per (conv_id, turn_idx) = max by (ts, lsn); winning "D" => key absent.
CHANGE_SCHEMA = pa.schema(
    list(BASE_SCHEMA)
    + [
        pa.field("op", pa.string()),
        pa.field("lsn", pa.int64()),
    ]
)

# The columns a state file dictionary-encodes (stages/applier.
# write_state_parquet): the strings whose values repeat.  Every other
# column, and any column schema evolution adds, is written plain.
DICTIONARY_COLUMNS = ("conv_id", "role", "tool", "op")

MERGE_KEYS = ["conv_id", "turn_idx"]
ORDER_COLS = ["ts", "lsn"]  # LWW total order within a key


def unify_change_schemas(schemas: list[pa.Schema]) -> pa.Schema:
    """Unify change-file schemas deterministically.

    Column order is canonical regardless of which file introduced a column:
    CHANGE_SCHEMA order first, then unknown extra columns sorted by name.
    (The reference's analog is the duplicate-column-name dedup in
    ``Tasks/MigrationTask.cs:98``; determinism here is what makes replay
    bit-for-bit reproducible under schema evolution.)

    Wire-form reconciliation: a column that arrives as unix-epoch-ms
    INTEGERS in some files and as a TIMESTAMP in others unifies to
    ``timestamp[us]`` — Arrow's promotion cannot merge those, but the
    normalize stage owns exactly that cast (the reference's canonical
    timestamp wire form, ``Tasks/Extraction.cs:67-68``).  Pure numeric
    widening (int32 → int64, int → float) flows through Arrow's
    permissive promotion; genuinely incompatible pairs still raise.
    """
    by_name: dict[str, set] = {}
    for s in schemas:
        for f in s:
            by_name.setdefault(f.name, set()).add(f.type)
    ts_wire = {n for n, types in by_name.items()
               if any(pa.types.is_timestamp(t) for t in types)
               and any(pa.types.is_integer(t) for t in types)}
    if ts_wire:
        schemas = [
            pa.schema([
                pa.field(f.name, pa.timestamp("us"))
                if f.name in ts_wire and pa.types.is_integer(f.type) else f
                for f in s])
            for s in schemas]
    unified = pa.unify_schemas(schemas, promote_options="permissive")
    fields: list[pa.Field] = []
    seen: set[str] = set()
    for f in CHANGE_SCHEMA:
        idx = unified.get_field_index(f.name)
        if idx != -1:
            fields.append(unified.field(idx))
            seen.add(f.name)
    for name in sorted(unified.names):
        if name not in seen:
            fields.append(unified.field(name))
            seen.add(name)
    return pa.schema(fields)


def conform_batch(batch: pa.Table, target: pa.Schema) -> pa.Table:
    """Project/cast an Arrow batch onto ``target`` by **name** (never by
    position — the positional binding in ``Tasks/Insertion.cs:101-102`` is the
    reference hazard this engine deliberately avoids).

    Missing columns are backfilled with typed nulls (schema evolution);
    extra columns are dropped; mismatched types are cast.
    """
    n = batch.num_rows
    cols = []
    for f in target:
        idx = batch.schema.get_field_index(f.name)
        if idx == -1:
            cols.append(pa.nulls(n, type=f.type))
        else:
            col = batch.column(idx)
            if col.type != f.type:
                col = col.cast(f.type)
            cols.append(col)
    return pa.Table.from_arrays(cols, schema=target)
