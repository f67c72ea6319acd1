"""Source readers beyond Parquet/CSV — JSON lines, raw text, binary files.

The reference reads exactly one format (CSV, ``Tasks/Insertion.cs:54-64``);
a complete engine ingests whatever the lake's producers emit.  Each reader
returns a Dataset normalized to the requested schema (by name, reference
conversion semantics — see functions/normalize.py), so every downstream
pipeline is format-agnostic.

``driver_dataset`` is the source for a table the driver already holds
(a driver-executed lake read or fetch, a driver-side reduce's answer):
it hands the table to Ray Data as one executed block.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from migration_pair_ray.functions.normalize import make_normalizer


def driver_dataset(tables: list[pa.Table], rows=None,
                   sort: list[str] | None = None) -> "ray.data.Dataset":
    """The tables as ONE block of an already-executed Dataset: the
    driver executor's tail (``read_lake``, ``final_state``,
    ``lookup.fetch_conversations``) and the hand-over of every table a
    stage built in the driver.  ``rows`` (a ``pa.Table -> pa.Table``) and
    the ``sort`` keys apply to the concatenated table first.

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
    if rows is not None:
        t = rows(t)
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
