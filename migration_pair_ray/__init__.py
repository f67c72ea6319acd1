"""migration_pair_ray — a Ray-Data-native CDC / incremental-ingest engine.

A from-scratch re-expression of the query/data-processing capabilities of
``vieira-andre/migration-pair`` ("Mycenae", a Cassandra row-copy CLI — see
its ``Tasks/{Extraction,Insertion,EndToEnd}.cs``) as an idiomatic Ray Data
engine:

* change-log tailer  →  normalize  →  hash-partition on ``conv_id``  →
  last-writer-wins merge per partition (in the driver for a pass that fits
  one block, else in plain Ray tasks)  →  partitioned Parquet lake with
  idempotent per-partition commit manifests (exactly-once replay),
* plus snapshot export, bulk load, schema compliance (schema evolution aware),
* plus the training-data operator family a 100 TB pipeline needs:
  dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard / embedding cosine),
  similarity search, text analysis, multimodal plumbing.

Operators are ``ray.data.Dataset`` + ``map_batches`` of plain functions
over zero-copy Arrow batches, run as Ray Data tasks; large passes and lake
reads run the same kernels on plain Ray tasks (``pipelines/replay.py``).

This package never calls ``ray.init()`` — sessions are owned by the caller
(tests' conftest fixture, ``bench.py``, or the external driver).
"""

from migration_pair_ray.config import JobConfig
from migration_pair_ray.schemas import BASE_SCHEMA, CHANGE_SCHEMA

__all__ = ["JobConfig", "BASE_SCHEMA", "CHANGE_SCHEMA"]
__version__ = "0.1.0"
