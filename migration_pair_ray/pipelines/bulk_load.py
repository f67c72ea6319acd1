"""Bulk load — the EP3/Insertion analog (SURVEY.md §3).

Reference: CSV file → per-cell type conversion against the live target
schema → batched prepared-statement INSERTs (``Tasks/Insertion.cs:25-52``),
with the positional-binding hazard at ``:101-102`` (CSV column order must
equal target schema order).  Here:

    read_csv/read_parquet → compliance gate → normalize (cast BY NAME to the
    change schema; empty→null; unix-ms/ISO → timestamp) → synthesize CDC
    envelope (op="I", lsn) → replay's route → merge tasks, one per block.

Loading a snapshot is just replaying a change log of pure inserts — the
engine has exactly one write path (the reference effectively discovered the
same thing: Insertion and EndToEnd share ``ProcessRows``/``ExecuteInsertAsync``).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.normalize import normalize_batch
from migration_pair_ray.pipelines.compliance import check_compliance
from migration_pair_ray.pipelines.replay import apply_on_tasks
from migration_pair_ray.schemas import CHANGE_SCHEMA


class SchemaComplianceError(ValueError):
    pass


def _csv_read_args(cfg: JobConfig, input_path: str) -> dict:
    """pyarrow CSV options mirroring the reference's configurable delimiter
    and header flag (``Tasks/Insertion.cs:107-112``).  Headerless files
    bind columns positionally to the target schema order — explicitly via
    ``cfg.csv_columns`` or by sniffing the field count of the first line
    and taking the leading CHANGE_SCHEMA names (conv_id..ts[,op,lsn]),
    which is the reference's ``preparedRow[i] by columns[i]`` contract."""
    from pathlib import Path
    from pyarrow import csv as pacsv

    args: dict = {"parse_options": pacsv.ParseOptions(delimiter=cfg.csv_delimiter)}
    if not cfg.csv_has_header:
        names = cfg.csv_columns
        if names is None:
            p = Path(input_path)
            files = sorted(f for f in (p.glob("**/*") if p.is_dir() else [p])
                           if Path(f).is_file())
            if not files:
                raise FileNotFoundError(
                    f"bulk_load: no input file under {input_path!r} to sniff "
                    f"headerless CSV columns from (set cfg.csv_columns to "
                    f"bind columns explicitly)")
            import csv as _csv
            with open(files[0], encoding="utf-8") as f:
                # quote-aware field count (a delimiter inside a quoted
                # text field must not inflate the sniffed column count)
                n_fields = len(next(_csv.reader(f, delimiter=cfg.csv_delimiter)))
            if n_fields > len(CHANGE_SCHEMA.names):
                raise SchemaComplianceError(
                    f"headerless CSV {files[0]} has {n_fields} fields but the "
                    f"change schema has only {len(CHANGE_SCHEMA.names)} "
                    f"columns ({CHANGE_SCHEMA.names}); positional binding is "
                    f"ambiguous — set cfg.csv_columns")
            names = list(CHANGE_SCHEMA.names[:n_fields])
        args["read_options"] = pacsv.ReadOptions(column_names=list(names))
    return args


def _synthesize_envelope(batch: pa.Table) -> pa.Table:
    """Rows → insert change events.  lsn: taken from the input when present;
    otherwise 0 for every row — a snapshot holds at most one row per
    ``(conv_id, turn_idx)``, so ``(ts, lsn=0)`` is already a total order.
    op: "I" unless the input carries its own op column."""
    out = normalize_batch(batch, CHANGE_SCHEMA)
    names = batch.schema.names
    if "op" not in names:
        out = out.set_column(out.schema.get_field_index("op"), "op",
                             pa.array(["I"] * batch.num_rows, pa.string()))
    if "lsn" not in names:
        out = out.set_column(out.schema.get_field_index("lsn"), "lsn",
                             pa.array([0] * batch.num_rows, pa.int64()))
    return out


def bulk_load(cfg: JobConfig, input_path: str, fmt: str = "csv",
              pass_tag: str = "bulkload") -> dict:
    """Load a CSV/Parquet snapshot into the lake via the upsert sink.
    Returns a summary dict. Idempotent per (input content, pass_tag)."""
    import contextlib
    from migration_pair_ray.state.lock import WriterLease
    lease = (WriterLease(cfg.lake_dir, "bulk_load", cfg.writer_lease_ttl_s)
             if cfg.writer_lease else contextlib.nullcontext())
    with lease:
        return _bulk_load(cfg, input_path, fmt, pass_tag)


def _bulk_load(cfg: JobConfig, input_path: str, fmt: str, pass_tag: str) -> dict:
    from migration_pair_ray.state.manifest import LakeMeta
    meta = LakeMeta(cfg.lake_dir)
    meta.ensure(cfg.num_partitions, cfg.partition_mode, cfg.merge_kernel,
                cfg.hot_convs)
    if fmt == "csv":
        ds = ray.data.read_csv(input_path, **_csv_read_args(cfg, input_path))
    elif fmt == "parquet":
        ds = ray.data.read_parquet(input_path)
    else:
        raise ValueError(f"unknown bulk_load format {fmt!r}")

    src_schema = ds.schema()
    src = pa.schema([pa.field(n, t) for n, t in
                     zip(src_schema.names, src_schema.types)])
    report = check_compliance(src, CHANGE_SCHEMA, mode=cfg.compliance)
    if not report.compliant:
        # reference behavior: abort before writing anything
        # (Tasks/EndToEnd.cs:29-30)
        raise SchemaComplianceError(
            f"schema not compliant ({report.mode}): added={report.added} "
            f"missing={report.missing} mismatched={report.mismatched}")

    if fmt == "csv":
        from migration_pair_ray.functions.normalize import empty_strings_to_null
        ds = ds.map_batches(empty_strings_to_null, batch_format="pyarrow")
    ds = ds.map_batches(_synthesize_envelope, batch_format="pyarrow")
    # pass identity covers the input CONTENT (file names + sizes), not just
    # the path — re-loading a modified file at the same path must re-apply,
    # not silently skip
    import hashlib
    from pathlib import Path as _P
    from migration_pair_ray.state.manifest import compute_pass_id
    p = _P(input_path)
    in_files = sorted(str(f) for f in (p.glob("**/*") if p.is_dir() else [p])
                      if _P(f).is_file())
    pass_id = hashlib.sha256(
        f"{pass_tag}:{compute_pass_id(in_files)}".encode()).hexdigest()[:16]
    # a bulk load is a first-class pass: stamped + checkpointed so time
    # travel can order its records (an unstamped manifest would make
    # every later as_of read fail as unresolvable)
    from migration_pair_ray.state.manifest import CheckpointStore
    ckpt = CheckpointStore(cfg.checkpoint_dir)
    pass_seq = ckpt.next_seq()
    lineage = apply_on_tasks(ds.to_arrow_refs(), cfg, pass_id,
                             splits=meta.splits(),
                             hot_convs=meta.hot_convs(), pass_seq=pass_seq)
    import pyarrow.compute as pc
    rows_in = int(pc.sum(lineage.column("rows_in")).as_py() or 0)
    ckpt.commit_pass(pass_id, in_files, name_prefix="bulk:", seq=pass_seq,
                     stats={
        "bulk_load": True, "rows_in": rows_in, "executor": "ray_data",
        "schema": {f.name: str(f.type) for f in CHANGE_SCHEMA}})
    return {
        "pass_id": pass_id,
        "rows_in": int(pc.sum(lineage.column("rows_in")).as_py() or 0),
        "rows_state": int(pc.sum(lineage.column("rows_state")).as_py() or 0),
        "partitions": lineage.num_rows,
        "skipped_partitions": int(pc.sum(pc.cast(lineage.column("skipped"), pa.int64())).as_py() or 0),
    }
