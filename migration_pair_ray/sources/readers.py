"""Source readers beyond Parquet/CSV — JSON lines, raw text, binary files.

The reference reads exactly one format (CSV, ``Tasks/Insertion.cs:54-64``);
a complete engine ingests whatever the lake's producers emit.  Each reader
returns a Dataset normalized to the requested schema (by name, reference
conversion semantics — see functions/normalize.py), so every downstream
pipeline is format-agnostic.

``driver_dataset`` is the source for a table the driver already holds
(a driver-executed lake read or fetch, a driver-side reduce's answer):
it hands the table to Ray Data as one executed block.  ``map_in_driver``
runs the per-file or per-partition work that builds such a table on the
CPUs the driver may run on.  ``read_footer`` and ``read_parquet_file``
are the in-process Parquet reads of the lake's own files.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from migration_pair_ray.functions.normalize import make_normalizer
from migration_pair_ray.state.filecache import published


def map_in_driver(fn, items) -> list:
    """``[fn(x) for x in items]``, run on a thread pool that lives only for
    this call: the driver executor's per-file and per-partition work
    (footer reads, Parquet decodes, per-partition folds).  Results come in
    input order, and the exception of the first failing item (in input
    order) is re-raised, as the plain loop would raise it.

    The pool has one thread per CPU this process may run on (its affinity
    mask where the platform has one), at most one per item.  The mask,
    not ``pa.cpu_count()``, sizes it: Arrow sizes its own pool from
    ``OMP_NUM_THREADS`` when that is set, so a driver pinned to several
    CPUs can still see a one-thread Arrow pool.  Arrow releases the GIL
    while it decodes and filters, so the threads overlap.  ``fn`` must
    make no Ray call, and it decodes with ``use_threads=False`` (as Ray
    Data's read tasks do), so the pools never nest."""
    items = list(items)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max(1, min(len(items), cpus)),
                            thread_name_prefix="map_in_driver") as pool:
        return list(pool.map(fn, items))


def parse_footer(path: str) -> tuple[pa.Schema, int, pq.FileMetaData]:
    """A Parquet file's Arrow schema, uncompressed data bytes (its row
    groups' ``total_byte_size``) and parsed footer, from one footer read.
    Parses every time: the planner of a pass reads change files, which
    their producers may rewrite, through here."""
    md = pq.read_metadata(path)
    return (md.schema.to_arrow_schema(),
            sum(md.row_group(i).total_byte_size
                for i in range(md.num_row_groups)), md)


def read_footer(path: str) -> tuple[pa.Schema, int, pq.FileMetaData]:
    """``parse_footer`` of a state or delta file the lake has published,
    parsed once per process (``state.filecache.published``: one
    ``os.stat`` validates the kept footer).  Every planner and reader of
    state files takes its footer here and hands it to the decode
    (``read_parquet_file(path, metadata=...)``), so a file read before is
    opened only to decode its data.  A missing file raises
    ``FileNotFoundError``."""
    return published(path, parse_footer)


def read_parquet_file(path: str, columns: list[str] | None = None,
                      metadata: pq.FileMetaData | None = None,
                      row_groups: list[int] | None = None) -> pa.Table:
    """One Parquet file decoded from one open: no dataset discovery (as
    ``pq.read_table`` runs on every call) and no Arrow thread pool (as
    Ray Data's read tasks decode).  ``metadata`` is the file's footer
    when the caller holds it (``read_footer``), so the file is not parsed
    again; ``row_groups`` reads only those (a pass's route input).  The
    in-process decode of every state and change file."""
    with pq.ParquetFile(path, metadata=metadata) as f:
        return (f.read(columns=columns, use_threads=False) if row_groups is None
                else f.read_row_groups(row_groups, columns, use_threads=False))


def driver_dataset(tables: list[pa.Table],
                   sort: list[str] | None = None) -> "ray.data.Dataset":
    """The tables as ONE block of an already-executed Dataset: the
    driver executor's tail (``read_lake`` and ``final_state``, whose
    per-partition tables are built on ``map_in_driver``'s threads, and
    ``lookup.fetch_conversations``) and the hand-over of every table a
    stage built in the driver.  The ``sort`` keys apply to the
    concatenated table first.

    Built with Ray Data's ``from_blocks`` (Ray 2.49): the table's chunks
    combined and put once, its block metadata computed here, and the
    plan executed once, in place, which takes the source operator's
    output as it is and runs no task.  That skips what
    ``from_arrow(t).materialize()`` adds: a remote metadata task per
    block, two more Dataset constructions (a stats-actor call each) and a
    second plan execution; and a put of one chunk per column is cheaper
    than a put of many.  Consuming the result starts no streaming
    executor, and the Dataset is the block's only owner, so dropping it
    frees the block; a lazy ``from_arrow`` or ``from_blocks`` plan holds
    its block in reference cycles, pinned until Python's cyclic GC
    runs."""
    t = (tables[0] if len(tables) == 1
         else pa.concat_tables(tables, promote_options="permissive"))
    if sort:
        t = t.sort_by([(k, "ascending") for k in sort])
    ds = ray.data.from_blocks([t.combine_chunks()])
    ds._plan.execute()     # no task: marks the plan executed, as materialize()
    return ds


def read_jsonl(paths: str | list[str], schema: pa.Schema | None = None,
               **kwargs) -> "ray.data.Dataset":
    """JSON-lines source; optional normalization to ``schema``."""
    ds = ray.data.read_json(paths, **kwargs)
    if schema is not None:
        ds = ds.map_batches(make_normalizer(schema), batch_format="pyarrow")
    return ds


def read_text_documents(paths: str | list[str], **kwargs) -> "ray.data.Dataset":
    """Plain-text corpus → documents-shaped rows (doc_id, text).
    doc_id = stable hash of the line content (deterministic across runs and
    nodes — NOT the line number, which depends on file split)."""
    from migration_pair_ray.functions.hashing import stable_hash64
    import numpy as np

    ds = ray.data.read_text(paths, **kwargs)

    def to_docs(batch: pa.Table) -> pa.Table:
        texts = batch.column("text")
        ids = stable_hash64(texts.to_pylist()).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids), "text": texts})

    return ds.map_batches(to_docs, batch_format="pyarrow")


def read_media_files(paths: str | list[str], media_type: str = "image",
                     **kwargs) -> "ray.data.Dataset":
    """Binary files → the MEDIA_SCHEMA used by stages/multimodal.py
    (media_id = stable hash of the file path; payload = raw bytes)."""
    from migration_pair_ray.functions.hashing import stable_hash64
    import numpy as np

    ds = ray.data.read_binary_files(paths, include_paths=True, **kwargs)

    def to_media(batch: pa.Table) -> pa.Table:
        p = batch.column("path")
        ids = stable_hash64(p.to_pylist()).astype(np.int64)
        n = batch.num_rows
        meta = pa.array([f'{{"path": "{v}"}}' for v in p.to_pylist()], pa.string())
        return pa.table({
            "media_id": pa.array(ids),
            "payload": batch.column("bytes").cast(pa.binary()),
            "media_type": pa.array([media_type] * n, pa.string()),
            "meta": meta,
        })

    return ds.map_batches(to_media, batch_format="pyarrow")
