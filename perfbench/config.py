"""Pinned settings of the benchmark: Ray resources, the engine's JobConfig,
and the generator parameters of every workload.

Everything a run depends on besides ``--seed`` lives here, so two commits
measured with the same benchmark files run identical jobs.  The sizes are
chosen so that every untraced run (Ray start, set-up, ``--seconds`` of
measurement, output checks, shutdown) finishes in about 55 seconds.
"""

from __future__ import annotations

# Ray: logical CPUs (the test suite's value) and a small object store so
# the run stays well inside a shared machine's memory.
RAY_NUM_CPUS = 4
# CPUs the run's process tree may use (run.py sets the affinity before Ray
# starts).  On a 4-vCPU host shared with other tenants, runs spread over
# all four vCPUs saw 0-24% hypervisor steal time and median pass times
# that followed it (tail passes: spread 0.50 over ten seeds); on two CPUs
# steal stayed under 3% (spread 0.18 over five seeds).
HOST_CPUS = 2
RAY_OBJECT_STORE_BYTES = 512 * 1024 * 1024

# Engine configuration: these fields are pinned, every other JobConfig
# field stays at its default (hash_state, merge_chunk_rows, ...).
JOB = {"num_partitions": 16, "partition_mode": "conv", "apply_concurrency": 2}

# Change-log shape shared by the ingest and read workloads
# (migration_pair_ray.changegen.generate_change_log keyword arguments).
# One hot conversation ("conv-0") receives 10% of events over 4x the turn
# space of the others; writes arrive in bursts of 1..3 events per key;
# 3% of events are redelivered, 5% are deletes, and arrival is shuffled
# within windows of 5000 events, so files overlap in (ts, lsn).
CHANGES = {
    "n_convs": 2000,
    "turns_per_conv": 64,
    "hot_frac": 0.10,
    "delete_frac": 0.05,
    "update_frac": 0.35,
    "dup_frac": 0.03,
    "shuffle_window": 5000,
    "burst_max": 3,
}
HOT_CONV = "conv-0"

# Every workload repeats its data set-up this many times and reports the
# median (plus the one Ray start) as setup_s.
SETUP_REPS = 3
# Untimed request cycles before the measured loop (Ray worker start-up,
# first Dataset plan of the read path).
WARMUP_OPS = 1

# Tail passes, measured by the layer sweep of every traced run: a base
# lake of base_files files, then one file of file_events events lands
# before each of tail_files replay() passes.  tool_epoch: files before it
# lack the ``tool`` column.
TAIL = {"base_files": 10, "file_events": 10_000, "tail_files": 4,
        "tool_epoch": 5}

# serve_reads: a quiescent lake of n_events events, then a closed loop of
# requests.  Requests come in cycles holding ``mix`` requests of each kind
# in a seeded order, so every run sees the same proportions.  Of point
# lookups, hot_key_frac hit the hot conversation, absent_frac ask for keys
# that never existed and tombstone_frac ask for deleted keys; a fetch asks
# for fetch_convs whole conversations; a scan reads the whole final state.
SERVE = {"n_events": 120_000, "n_files": 12, "tool_epoch": 4,
         "mix": {"lookup": 45, "fetch": 4, "scan": 1},
         "fetch_convs": 3, "hot_key_frac": 0.10, "absent_frac": 0.05,
         "tombstone_frac": 0.05}
# scan_reads: the same lake, every request a full final_state scan.
SCAN_MIX = {"scan": 1}

# The operator suite that ends every traced run (op.<query>_s): one
# query per operator family from __ray_entry__.queries(), run once each
# over tables generated from the seed
# (perfbench/tables.py).  Queries that cache state under /tmp
# (corpus_curation, conv_context_windows, embed_knn_ivf) are replaced by
# a query of the same family that reads only its inputs.  Each query's
# oracle is exact; the inputs keep every decision away from the query's
# threshold (see tables.py), so a mismatch is a defect, not rounding.
SUITE = {
    "queries": {
        # query name: (operator family, tables it reads)
        "doc_near_dedup_minhash": ("stages.dedup", ["documents"]),
        "join_orders_lineitem_priority": ("stages.join", ["orders", "lineitem"]),
        "events_sessionize": ("stages.windows", ["events"]),
        "doc_token_stats": ("functions.text", ["documents"]),
        "events_approx_distinct": ("functions.sketch", ["events"]),
        "doc_term_freq": ("stages.curation", ["documents"]),
        "topn_orders_per_customer": ("stages.analytic", ["orders"]),
        "embed_near_dedup": ("stages.similarity", ["embeddings"]),
    },
    "tables": {"documents": 400, "events": 10_000, "users": 150,
               "orders": 5_000, "customers": 500, "lineitem": 20_000,
               "embeddings": 400, "dim": 32},
}

# The read requests of the layer sweep of a traced run whose workload
# makes no point lookups (scan_reads), on the workload's lake.
SWEEP_MIX = {"lookup": 60, "fetch": 4, "scan": 2}

# An operation slower than this multiple of the run's median latency
# counts in loop.stall_ops.
STALL_FACTOR = 3.0
