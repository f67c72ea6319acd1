"""Debezium-style JSONL change-log source.

A very common CDC wire format is one JSON envelope per line:

    {"op": "c"|"r"|"u"|"d", "before": {...}|null, "after": {...}|null,
     "ts_ms": <epoch ms>, "lsn": <int>}

``ingest_jsonl_log`` converts a directory of such files into canonical
Parquet change batches (one per input file, deterministic name, atomic
rename) and replays them — the JSONL path inherits every engine guarantee
because after conversion it IS the normal change log.  Conversion runs
distributed: one ``read_json`` over all pending files, envelope→columns
vectorized per batch, one write task per input file (grouped on the
``include_paths`` provenance column), mirroring the change-derivation
pattern in pipelines/queries._write_derived_log.

Payload schema follows the envelopes: a field absent from every struct in
a file (e.g. ``tool`` before it existed) is absent from that file's
Parquet schema too — the same schema-evolution contract the Parquet log
has.  ``op`` maps c/r → I (Debezium emits ``r`` for initial-snapshot
reads), u → U, d → D; delete payloads come from ``before``.  ``p`` → P
(partial row image — the MongoDB-connector / reduced-row-image shape):
``after`` carries ONLY the columns the event set, null/absent = keep.
Patch envelopes carry cell semantics, so they belong in
``merge_kernel="cell"`` lakes (a row-kernel lake reads their nulls as
SET NULL — the kernel is the lake's declared contract, not the wire's).
"""

from __future__ import annotations

import os
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from migration_pair_ray.config import JobConfig
from migration_pair_ray.schemas import BASE_SCHEMA

_OP_MAP = [("c", "I"), ("r", "I"), ("u", "U"), ("d", "D"), ("p", "P")]


def _payload_field(struct_col, name: str, typ: pa.DataType, n: int):
    """Column ``name`` out of a struct column; typed nulls when the struct
    lacks the field or carries an all-null (null-typed) parse of it."""
    if struct_col is None or struct_col.type.num_fields == 0 or \
            name not in [f.name for f in struct_col.type]:
        return pa.nulls(n, typ)
    v = pc.struct_field(struct_col, name)
    if pa.types.is_null(v.type):
        return pa.nulls(n, typ)
    return pc.cast(v, typ)


def envelopes_to_changes(batch: pa.Table) -> pa.Table:
    """Vectorized envelope → CHANGE_SCHEMA-shaped columns.  Passes a
    ``path`` column through untouched (file provenance for the per-file
    writer).  Unknown ``op`` values become null ops — the quarantine gate
    names them if enabled; the merge rejects them loudly otherwise."""
    n = batch.num_rows
    names = batch.schema.names
    if n == 0 or "op" not in names:
        # a whitespace-only file parses to zero rows (possibly with no
        # columns at all) — contribute nothing; the ingest post-pass
        # closes such files out with an explicit empty batch
        from migration_pair_ray.schemas import CHANGE_SCHEMA
        cols = {f.name: pa.nulls(0, f.type) for f in CHANGE_SCHEMA}
        cols["path"] = pa.nulls(0, pa.string())
        cols["__fields"] = pa.nulls(0, pa.string())
        return pa.table(cols)
    before = batch.column("before") if "before" in names else None
    after = batch.column("after") if "after" in names else None
    op_raw = pc.cast(batch.column("op"), pa.string())
    is_d = pc.fill_null(pc.equal(op_raw, "d"), False)

    def struct_names(col) -> set:
        return ({f.name for f in col.type} if col is not None
                and pa.types.is_struct(col.type) else set())

    present = struct_names(before) | struct_names(after)
    types = {f.name: f.type for f in BASE_SCHEMA}
    cols: dict = {}
    for f in BASE_SCHEMA:
        if f.name == "ts":
            continue                      # event time comes from ts_ms
        if f.name not in present and f.name not in ("conv_id", "turn_idx"):
            continue                      # schema evolution: field not born yet
        typ = types[f.name]
        b = _payload_field(before, f.name, typ, n)
        a = _payload_field(after, f.name, typ, n)
        cols[f.name] = pc.if_else(is_d, b, a)

    # epoch-ms wire form -> canonical timestamp (Extraction.cs:67-68 rule);
    # envelopes that also carry ts_us (this engine's own feed export,
    # Debezium 2.x source blocks) keep full microsecond fidelity — that is
    # what makes export->ingest round-trips LWW-exact instead of
    # ms-truncated
    ms = pc.cast(batch.column("ts_ms"), pa.int64())
    us = pc.multiply(ms, pa.scalar(1000, pa.int64()))
    if "ts_us" in names and not pa.types.is_null(batch.column("ts_us").type):
        us = pc.coalesce(pc.cast(batch.column("ts_us"), pa.int64()), us)
    cols["ts"] = pc.cast(us, pa.timestamp("us"))

    op = pa.nulls(n, pa.string())
    for raw, mapped in _OP_MAP:
        op = pc.if_else(pc.fill_null(pc.equal(op_raw, raw), False),
                        pa.scalar(mapped, pa.string()), op)
    cols["op"] = op
    cols["lsn"] = pc.cast(batch.column("lsn"), pa.int64())
    if "path" in names:
        cols["path"] = batch.column("path")
        # the grouped write's shuffle unifies schemas across files (an
        # absent field comes back as typed nulls) — record which payload
        # fields THIS file's structs actually carried so the writer can
        # restore the per-file schema (absent != present-but-null)
        emitted = sorted(c for c in cols
                         if c in present or c in ("conv_id", "turn_idx"))
        cols["__fields"] = pa.array([",".join(emitted)] * n, pa.string())
    return pa.table(cols)


def ingest_jsonl_log(cfg: JobConfig, input_dir: str, apply: bool = True) -> dict:
    """Convert every pending ``*.jsonl`` file under ``input_dir`` into a
    canonical change batch under ``cfg.changelog_dir`` and (when
    ``apply``) replay.  Idempotent: an input whose output already exists
    (or was already committed) is skipped; a crash mid-conversion leaves
    only whole, atomically-renamed outputs."""
    import ray.data
    from migration_pair_ray.state.manifest import CheckpointStore

    files = sorted(str(p) for p in Path(input_dir).glob("*.jsonl"))
    os.makedirs(cfg.changelog_dir, exist_ok=True)
    committed = set()
    if Path(cfg.checkpoint_dir).exists():
        committed = CheckpointStore(cfg.checkpoint_dir).committed_files()

    def out_name(src: str) -> str:
        return f"batch-jsonl-{Path(src).stem}.parquet"

    pending = [f for f in files
               if not (Path(cfg.changelog_dir) / out_name(f)).exists()
               and out_name(f) not in committed]

    # 0-byte inputs (log-rotation artifacts) crash Arrow's JSON reader
    # ('Empty JSON file') and a 0-row parse can never emit a grouped
    # output — both get an explicit empty canonical batch so they are
    # consumed once and never re-read as eternally 'pending'
    from migration_pair_ray.schemas import CHANGE_SCHEMA
    from migration_pair_ray.stages.applier import _fsync_write_parquet

    def write_empty(src: str) -> None:
        _fsync_write_parquet(CHANGE_SCHEMA.empty_table(),
                             str(Path(cfg.changelog_dir) / out_name(src)))

    n_already = len(files) - len(pending)
    empties = [f for f in pending if os.path.getsize(f) == 0]
    for f in empties:
        write_empty(f)
    pending = [f for f in pending if os.path.getsize(f) > 0]

    converted = len(empties)
    if pending:
        out_dir = cfg.changelog_dir

        def write_file(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return pa.table({"file": pa.array([], pa.string()),
                                 "rows": pa.array([], pa.int64())})
            src = g.column("path")[0].as_py()
            # restore the per-file schema the shuffle unified away: drop
            # payload columns this file's structs never carried
            fields = set((g.column("__fields")[0].as_py() or "").split(","))
            prune = [c for c in ("role", "text", "tool")
                     if c in g.schema.names and c not in fields]
            g = g.drop_columns(["path", "__fields"] + prune)
            g = g.sort_by([("lsn", "ascending")])
            path = str(Path(out_dir) / out_name(src))
            # fsync'd rename: a converted batch either exists whole or not
            # at all (the change log is the engine's source of truth)
            from migration_pair_ray.stages.applier import _fsync_write_parquet
            _fsync_write_parquet(g, path)
            return pa.table({"file": pa.array([Path(path).name]),
                             "rows": pa.array([g.num_rows], pa.int64())})

        # one read dataset PER file, unioned: a multi-file read_json can
        # pack small files into one block, whose unified struct schema
        # destroys the per-file field information this module's schema-
        # evolution contract depends on (absent field != present-but-null)
        parts = [ray.data.read_json([f], include_paths=True)
                 for f in pending]
        ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        written = (ds
                   .map_batches(envelopes_to_changes, batch_format="pyarrow")
                   .groupby("path").map_groups(write_file,
                                               batch_format="pyarrow")
                   .take_all())              # tiny: one record per file
        converted += len(written)
        # whitespace-only inputs parse to zero rows and emit no group —
        # close them out with an empty batch too
        for f in pending:
            if not (Path(cfg.changelog_dir) / out_name(f)).exists():
                write_empty(f)
                converted += 1

    summary = {"inputs": len(files), "converted": converted,
               "skipped": n_already}
    if apply:
        from migration_pair_ray.pipelines.replay import replay
        summary["pass"] = replay(cfg)
    return summary
