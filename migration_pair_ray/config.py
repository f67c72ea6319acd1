"""Job configuration.

Mirrors the *semantics* of the reference's ``Models/SettingsModel.cs:3-43``
(source/target locations, task selection) re-expressed for a Parquet-lake
world.  JSON-loadable like ``appsettings.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path


@dataclass
class JobConfig:
    # Source: directory of change-log Parquet files (the "binlog/WAL tail").
    changelog_dir: str = ""
    # Target: lake root; partition files live at <lake_dir>/part=NNNN/,
    # manifests at <lake_dir>/_manifest/, checkpoints at <lake_dir>/_checkpoint/.
    lake_dir: str = ""
    # Number of hash partitions on conv_id. Fixed for the table's lifetime.
    num_partitions: int = 16
    # Partitioning mode: "conv" = hash(conv_id) (conv-disjoint partitions,
    # cheap per-partition ordering) | "key" = hash(conv_id, turn_idx)
    # (salted: defeats hot-conversation skew; snapshot then needs a sort)
    # | "hot" = conv placement except for the recorded ``hot_convs`` whale
    # set, whose keys are salted like "key" (stages/partition.py).
    partition_mode: str = "conv"
    # The whale set for partition_mode="hot": conversations hot enough to
    # bottleneck one partition (pick with stages/partition.detect_hot_keys).
    # A lake-lifetime LAYOUT property — stamped into _lake_meta on first
    # write and gated on every later pass; changing it means
    # repartition_lake to a new lake.  Bounded by design (whales are few).
    hot_convs: list[str] | None = None
    # Most merge/apply tasks running at once (a positive int); None = no
    # cap beyond the cluster's free CPUs.
    apply_concurrency: int | None = None
    # Schema compliance policy: "strict" (reference EndToEnd.cs:51-85
    # semantics: exact name+type match) | "evolve" (added nullable columns
    # allowed, incompatible type changes abort).
    compliance: str = "evolve"
    # sha256 the committed state files into the manifest (audit trail).
    # Costs one extra read of every written byte — benchmarks turn it off.
    hash_state: bool = True
    # CSV wire-format parity with the reference (Models/SettingsModel.cs
    # Delimiter / HasHeaderRecord; read side Tasks/Insertion.cs:107-112,
    # write side Tasks/Extraction.cs:57,92): field delimiter and whether
    # files carry a header row.  With csv_has_header=False, columns bind
    # POSITIONALLY to the target schema order (csv_columns overrides) —
    # the reference's Insertion.cs:101-102 contract.
    csv_delimiter: str = ","
    csv_has_header: bool = True
    csv_columns: list[str] | None = None
    # Ray task retries for the merge/apply stage (reference retries write
    # timeouts with backoff, Policies/RetryPolicy.cs:18-23; here a retried
    # task is safe because commits are manifest-gated and idempotent).
    apply_max_retries: int = 3
    # Partition-size guard: merges bigger than this run key-range by
    # key-range (bounded transient memory) instead of one whole-partition
    # sort — see functions/lww.py merge_tables_chunked and COMPACTION.md.
    merge_chunk_rows: int = 4_000_000
    # Within-partition state layout: 0 = one state file per partition
    # (default); > 0 = the committed state splits into key-range chunk
    # files of about this many rows, and a merge REWRITES ONLY the chunks
    # whose key range the incoming changes touch (COMPACTION.md: merge I/O
    # proportional to the touched key range, not the partition size).
    state_chunk_rows: int = 0
    # Auto-compaction: 0 = splits are manual (CLI `split` task); > 0 =
    # every replay pass ends with a size-guard sweep that incrementally
    # splits any partition whose committed state exceeds this many rows
    # (pipelines/compact.maybe_split_oversized — other partitions
    # untouched, crash-safe via the atomic _lake_meta commit).
    auto_split_max_rows: int = 0
    # Merge-on-read ingest: 0 = copy-on-write (default — every pass
    # rewrites the touched state, reads are merge-free); N > 0 = a pass
    # appends its per-partition pre-reduced changes as a DELTA file
    # (write cost O(changes), never O(partition)) and readers fold
    # base + deltas with the LWW kernel at read time.  A partition
    # compacts back to a plain base automatically when it would exceed N
    # deltas (or explicitly via pipelines/compact.compact_deltas, CLI
    # `compact`).  The 100-TB trade: hot-partition ingest stops paying
    # the partition rewrite, reads pay a bounded (≤ N files) merge.
    mor_max_deltas: int = 0
    # Time-travel retention: 0 = superseded state files are GC'd at commit
    # (no history, default); N > 0 = every partition manifest keeps its
    # last N superseded records and their state files, enabling
    # read_lake(as_of=<pass_id>) / final_state(as_of=...) at any retained
    # pass.  Trim the window later with pipelines/compact.vacuum (CLI task
    # `vacuum`).  Storage cost ≈ N extra copies of each touched partition.
    retain_passes: int = 0
    # Single-writer lease: every mutating job (replay, split/merge,
    # vacuum, repartition target) takes <lake>/_writer.lock for its
    # duration; a second concurrent writer fails fast with the holder's
    # identity instead of interleaving passes (state/lock.py).  A crashed
    # writer's lease expires after writer_lease_ttl_s.
    writer_lease: bool = True
    writer_lease_ttl_s: float = 1800.0
    # Merge kernel: "row" (default — whole-row LWW, the reference's
    # Cassandra-upsert semantics) | "cell" (column-level LWW: ``op == "P"``
    # PATCH events set only their non-null columns — Debezium partial row
    # images / Cassandra per-cell writes; functions/cells.py).  Decides
    # what the lake's state FILES mean, so it is a lake-lifetime property:
    # stamped into _lake_meta.json on first write and gated on every later
    # pass (like num_partitions/partition_mode).
    merge_kernel: str = "row"
    # Transactional consistency: when True, change events may carry a
    # ``txn_id`` column and ``op == "C"`` commit-marker rows; events of a
    # transaction are HELD BACK (durable pending store under
    # <lake>/_txns/) until their commit marker has been consumed, so an
    # uncommitted or aborted transaction is never partially visible
    # (pipelines/txn.py — Debezium transaction-metadata semantics).
    txn_boundary: bool = False
    # Dead-letter sink: "" = gate off (a malformed row poisons the merge,
    # reference behavior); a directory path routes unroutable/unmergeable
    # rows (null key, unknown op) to content-addressed Parquet files under
    # <dir>/pass-<id>/ with a per-row reason (stages/quarantine), and the
    # pass result reports the count.
    quarantine_dir: str = ""

    def __post_init__(self) -> None:
        if self.partition_mode not in ("conv", "key", "hot"):
            raise ValueError(f"partition_mode must be 'conv'|'key'|'hot', "
                             f"got {self.partition_mode!r}")
        if self.partition_mode == "hot" and not self.hot_convs:
            raise ValueError(
                "partition_mode='hot' needs a non-empty hot_convs whale "
                "set (detect_hot_keys picks it); with no whales use 'conv'")
        if self.hot_convs and self.partition_mode != "hot":
            raise ValueError("hot_convs only applies to partition_mode='hot'")
        if self.hot_convs and len(self.hot_convs) > 65536:
            raise ValueError(
                f"hot_convs has {len(self.hot_convs)} entries — the whale "
                f"set is meant to be small (it broadcasts to every routing "
                f"site); salt everything with partition_mode='key' instead")
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.apply_concurrency is not None and (
                not isinstance(self.apply_concurrency, int)
                or self.apply_concurrency <= 0):
            raise ValueError(f"apply_concurrency must be a positive int or "
                             f"None, got {self.apply_concurrency!r}")
        if self.merge_kernel not in ("row", "cell"):
            raise ValueError(
                f"merge_kernel must be 'row'|'cell', got {self.merge_kernel!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "JobConfig":
        with open(path) as f:
            return cls(**json.load(f))

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2))

    # Lake layout helpers -------------------------------------------------
    @property
    def manifest_dir(self) -> str:
        return str(Path(self.lake_dir) / "_manifest")

    @property
    def checkpoint_dir(self) -> str:
        return str(Path(self.lake_dir) / "_checkpoint")

    @property
    def lineage_dir(self) -> str:
        return str(Path(self.lake_dir) / "_lineage")
