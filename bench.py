#!/usr/bin/env python
"""Benchmark harness.

Default: run the headline CDC replay (generated change log, cached under
/tmp) plus a set of operator queries over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(num_cpus=$RAY_GRAFT_CPUS, default 32),
and print ONE JSON line:

    {"metric": "cdc_replay_seconds", "value": <headline sec>,
     "unit": "sec", "queries": {...}, "sf": ..., "num_cpus": N,
     "events_per_sec": ...}

--scaling: run the identical replay job in two FRESH processes at
num_cpus=4 and num_cpus=16 on the same (pre-generated, warmed) input and
print throughput at both plus efficiency = (thr_hi / thr_lo) / 4 —
the sandbox evidence for the north rule's N→4N criterion (BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_EVENTS = int(os.environ.get("GRAFT_BENCH_EVENTS", 20_000_000))
BENCH_LOG = f"/tmp/mpr_bench/log-{BENCH_EVENTS}"
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

QUERY_NAMES = [
    "conv_transcripts",
    "cdc_changefeed",
    "agg_pricing_summary",
    "join_orders_customer_segment",
    "join_lineitem_part_type",
    "join_orders_lineitem_priority",
    "join_orders_customer_left",
    "join_customer_orders_semi",
    "join_customer_orders_anti",
    "join_urgent_lineitems",
    "join_events_orders_salted",
    "join_events_orders_asof",
    "join_events_orders_range",
    "conv_near_dup",
    "conv_token_packing",
    "topk_orders_by_price",
    "topn_orders_per_customer",
    "orders_running_revenue",
    "events_value_quantiles",
    "events_type_quantiles",
    "events_type_pivot",
    "events_type_transitions",
    "lineitem_price_bands",
    "events_hourly_windows",
    "events_sessionize",
    "events_session_windows",
    "events_late_data",
    "events_value_outliers",
    "events_funnel",
    "events_retention_cohorts",
    "events_value_moments",
    "events_type_drift",
    "cdc_turn_versions",
    "cdc_state_asof",
    "doc_dedup_incremental",
    "doc_split_leakage",
    "doc_dedup_by_quality",
    "events_approx_distinct",
    "events_user_cm_counts",
    "events_type_approx_users",
    "events_heavy_users",
    "events_sample_hash",
    "events_stratified_sample",
    "events_redact_pii",
    "events_props_extract",
    "doc_token_stats",
    "doc_token_stats_bpe",
    "doc_fingerprints_rolling",
    "doc_quality",
    "doc_langid",
    "doc_exact_dedup",
    "doc_span_dedup",
    "doc_model_gate",
    "doc_pack_bins",
    "doc_near_dedup_minhash",
    "doc_near_dedup_simhash",
    "doc_near_dedup_ngram",
    "doc_decontaminate",
    "doc_chunk_windows",
    "doc_term_freq",
    "doc_normalize",
    "doc_repetition",
    "doc_tfidf_top",
    "doc_shuffle_shards",
    "doc_quality_gate",
    "training_prep",
    "corpus_curation",
    "corpus_mixture",
    "conv_context_windows",
    "conv_tool_stats",
    "conv_split_assign",
    "conv_turn_gaps",
    "corpus_union_dedup",
    "cdc_incremental_agg",
    "agg_rollup_pricing",
    "orders_range_shards",
    "embed_topk_bruteforce",
    "embed_quantize",
    "embed_label_centroids",
    "embed_near_dedup",
    "embed_knn_ivf",
    "embed_knn_ivf_incremental",
    "embed_knn_hnsw",
    "cdc_schema_gate",
    "conv_repeated_turns",
    "distinct_event_types",
    "doc_dup_clusters",
    "doc_fingerprints",
    "events_hot_users",
    "events_sliding_windows",
    "events_value_stats",
    "filter_highvalue_orders",
    "events_csv_roundtrip",
    "media_byte_stats",
    "media_features",
    "media_frame_stats",
    "cdc_state_diff",
    "conv_role_violations",
    "conv_template_turns",
    "cdc_point_lookup",
    "cdc_conv_fetch",
    "cdc_hotspots",
    "cdc_find_by_tool",
    "cdc_stale_updates",
    "conv_role_transitions",
]
# Excluded on purpose: the cdc_* lake queries (cdc_lww_merge, tombstones,
# snapshots, lineage, compaction, quarantine, two-phase, time_travel,
# mor_replay, feed_resume, replica) each rebuild an events lake per call —
# the headline replay above IS that path, measured properly (warm-up +
# best-of-2) instead of N noisy single-shot rebuilds.  cdc_point_lookup
# and cdc_find_by_tool stay in: they read (and index) the shared lake.


def ensure_change_log() -> str:
    """Generate (once, cached) the bench change log: 20M events, 50k convs,
    one hot conversation with ~10% of events, 64 files, schema evolution,
    out-of-order arrival, replayed duplicates."""
    from migration_pair_ray.changegen import generate_change_log
    marker = os.path.join(BENCH_LOG, "_COMPLETE")
    if not os.path.exists(marker):
        # no completion marker → (re)generate from scratch; a crash midway
        # through the 64-file write must not leave a truncated log that
        # later runs silently benchmark
        shutil.rmtree(BENCH_LOG, ignore_errors=True)
        os.makedirs(BENCH_LOG, exist_ok=True)
        generate_change_log(
            BENCH_LOG, n_events=BENCH_EVENTS, n_convs=50_000,
            turns_per_conv=400, n_files=64, tool_epoch=8, hot_frac=0.1,
            delete_frac=0.05, update_frac=0.35, dup_frac=0.03,
            shuffle_window=500_000, burst_max=6, seed=1234)
        open(marker, "w").close()
    return BENCH_LOG


def warm_cache(paths_dir: str) -> None:
    for name in os.listdir(paths_dir):
        with open(os.path.join(paths_dir, name), "rb") as f:
            while f.read(1 << 22):
                pass


def run_replay(num_cpus: int, mode: str = "key",
               hot_convs: list[str] | None = None) -> dict:
    """One replay pass into a fresh lake.  Knobs held CONSTANT across CPU
    counts (same partitions, same layout) so the scaling comparison is the
    same job at two parallelism levels; the apply pool takes half the CPUs
    (a pool reserving every CPU starves the shuffle and deadlocks)."""
    from migration_pair_ray.config import JobConfig
    from migration_pair_ray.pipelines.replay import replay
    lake = tempfile.mkdtemp(prefix="mpr_bench_lake_", dir="/tmp")
    try:
        # 128 partitions measured ~6% faster than 64 at 32 CPUs
        # (interleaved best-of-3: 14.6 vs 15.5 s): smaller merge tasks
        # overlap the shuffle tail better and recovery granularity is
        # finer — the same reasons it holds multi-node.  The SCALING probe
        # pins 64 (GRAFT_BENCH_PARTS) so the 4-CPU level isn't
        # fixed-overhead-bound — 128 partitions at 4 CPUs inflate the
        # measured 4→16 speedup past 1.0, which flatters the metric
        # instead of measuring the exchange.
        cfg = JobConfig(changelog_dir=BENCH_LOG, lake_dir=lake,
                        num_partitions=int(os.environ.get("GRAFT_BENCH_PARTS", "128")),
                        partition_mode=mode, hot_convs=hot_convs,
                        apply_concurrency=max(2, num_cpus // 2),
                        hash_state=False)
        return replay(cfg)
    finally:
        shutil.rmtree(lake, ignore_errors=True)


def ensure_skew_log() -> str:
    """The KEY-count-skew fixture for --skew: conv-0 holds ~30% of events
    spread over 2M distinct turns, so its visible state (~2M keys) lands in
    ONE partition under mode 'conv' (~26x the average partition's keys).
    Event-count skew alone is NOT enough to measure layout effects — the
    per-batch LWW combiner collapses a whale's events to its distinct keys
    before the exchange (measured: a 10%-event whale over 1.6k keys ties
    all three modes within noise)."""
    from migration_pair_ray.changegen import generate_change_log
    log = f"/tmp/mpr_bench/skewlog-{BENCH_EVENTS}"
    marker = os.path.join(log, "_COMPLETE")
    if not os.path.exists(marker):
        shutil.rmtree(log, ignore_errors=True)
        os.makedirs(log, exist_ok=True)
        generate_change_log(
            log, n_events=BENCH_EVENTS, n_convs=50_000,
            turns_per_conv=400, n_files=64, tool_epoch=8, hot_frac=0.3,
            hot_turns=2_000_000, delete_frac=0.05, update_frac=0.35,
            dup_frac=0.03, shuffle_window=500_000, burst_max=6, seed=1234)
        open(marker, "w").close()
    return log


def skew() -> None:
    """--skew: replay the SAME whale-skewed log (conv-0: ~30% of events
    over 2M distinct turns) under the three layouts at the same CPU count
    — the north-star's "explicit salting of hot conversations" quantified.
    'conv' routes the whale's ~2M-key state to ONE partition (the
    straggler case), 'hot' salts only the recorded whale, 'key' salts
    every key.  Prints one JSON line; record in BASELINE.md."""
    global BENCH_LOG
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    BENCH_LOG = ensure_skew_log()   # run_replay reads BENCH_LOG
    warm_cache(BENCH_LOG)
    run_replay(num_cpus)   # one untimed warm-up (page cache, worker spin-up)
    out: dict = {"metric": "skew_replay_seconds", "unit": "sec",
                 "num_cpus": num_cpus, "modes": {}}
    events = None
    for mode, hot in (("conv", None), ("hot", ["conv-0"]), ("key", None)):
        runs = []
        for _ in range(2):
            t0 = time.perf_counter()
            s = run_replay(num_cpus, mode=mode, hot_convs=hot)
            runs.append(round(time.perf_counter() - t0, 3))
            events = s["events_in"]
        out["modes"][mode] = {"best": min(runs), "runs": runs,
                              "events_per_sec": round(events / min(runs), 1)}
    out["bench_events"] = events
    ray.shutdown()
    print(json.dumps(out, separators=(",", ":")))


def consume(res) -> int:
    import pandas as pd
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.count()
    if isinstance(res, pa.Table):
        return res.num_rows
    if isinstance(res, pd.DataFrame):
        return len(res)
    return 0


def main() -> None:
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    ensure_change_log()
    warm_cache(BENCH_LOG)

    queries_sec: dict[str, float] = {}

    # headline FIRST (before any query touches the box), one untimed
    # warm-up (page cache, worker spin-up), then best-of-2 timed runs —
    # the sandbox's co-tenant noise is 2-4x, so a single timed pass can
    # record a number that says nothing about the code (BASELINE.md)
    run_replay(num_cpus)
    replay_runs = []
    summary = None
    for _ in range(2):
        t0 = time.perf_counter()
        summary = run_replay(num_cpus)
        replay_runs.append(round(time.perf_counter() - t0, 3))
    headline = min(replay_runs)
    queries_sec["cdc_replay"] = headline
    events_per_sec = summary["events_in"] / headline

    import __ray_entry__ as em
    qmap = em.queries()
    for name in QUERY_NAMES:
        t0 = time.perf_counter()
        consume(qmap[name](SF_DIR))
        queries_sec[name] = round(time.perf_counter() - t0, 3)

    out = {
        "metric": "cdc_replay_seconds",
        "value": round(headline, 3),
        "unit": "sec",
        "runs": replay_runs,
        "queries": queries_sec,
        "sf": SF_DIR,
        "num_cpus": num_cpus,
        "bench_events": summary["events_in"],
        "events_per_sec": round(events_per_sec, 1),
    }
    ray.shutdown()
    full_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "bench_full.json")
    with open(full_path, "w") as f:
        json.dump(out, f, indent=1)
    print(_fit_line(out))


# The harness that consumes this script keeps only the LAST ~2000 chars of
# stdout; a JSON line longer than that arrives truncated and unparseable
# (round 3's 100-query line did exactly that).  Keep the printed line under
# the cap by dropping the CHEAPEST query timings from the inline map —
# the expensive ones are the ones worth reading — and point at
# bench_full.json for the complete map.
MAX_LINE_CHARS = 1900


def _fit_line(out: dict) -> str:
    line = json.dumps(out, separators=(",", ":"))
    if len(line) <= MAX_LINE_CHARS:
        return line
    q = dict(out["queries"])
    # drop cheapest first; the headline replay entry is never dropped
    order = sorted((k for k in q if k != "cdc_replay"), key=lambda k: q[k])
    out = dict(out, full="bench_full.json")
    while order:
        order.pop(0)
        kept = {"cdc_replay", *order}
        out["queries"] = {k: v for k, v in q.items() if k in kept}
        out["queries_omitted"] = len(q) - len(out["queries"])
        line = json.dumps(out, separators=(",", ":"))
        if len(line) <= MAX_LINE_CHARS:
            return line
    return line


def scaling() -> None:
    # pre-generate + warm in the parent so both children see a hot cache
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    ensure_change_log()
    ray.shutdown()
    warm_cache(BENCH_LOG)

    def child(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_ONLY_REPLAY="1",
                   GRAFT_BENCH_PARTS="64")   # see run_replay comment
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    # N=4 vs 4N=16: the CPU-bound scaling window on a single box.  At
    # higher counts the map/exchange phases saturate the machine's SHARED
    # memory bandwidth — a single-node artifact; on a real N- vs 4N-node
    # cluster each node brings its own memory/disk channels.  Two timed
    # runs per level, best taken (the sandbox shows heavy run-to-run noise
    # from co-tenants).
    lo, hi = 4, 16
    runs_lo = [child(lo), child(lo)]
    runs_hi = [child(hi), child(hi)]
    r_lo = max(runs_lo, key=lambda r: r["events_per_sec"])
    r_hi = max(runs_hi, key=lambda r: r["events_per_sec"])
    thr_lo, thr_hi = r_lo["events_per_sec"], r_hi["events_per_sec"]
    eff = (thr_hi / thr_lo) / (hi / lo)
    print(json.dumps({
        "metric": "scaling_efficiency",
        "num_cpus_lo": lo, "num_cpus_hi": hi,
        "sec_lo": r_lo["value"], "sec_hi": r_hi["value"],
        "events_per_sec_lo": thr_lo, "events_per_sec_hi": thr_hi,
        "all_runs_lo_sec": [r["value"] for r in runs_lo],
        "all_runs_hi_sec": [r["value"] for r in runs_hi],
        "scaling_efficiency": round(eff, 3),
        "bench_events": r_lo["bench_events"],
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--skew" in sys.argv:
        skew()
    elif os.environ.get("GRAFT_BENCH_ONLY_REPLAY", "").lower() in ("1", "true", "yes"):
        # child mode for --scaling: replay only, one JSON line
        num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        import ray
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        ensure_change_log()
        run_replay(num_cpus)  # untimed warm-up
        t0 = time.perf_counter()
        summary = run_replay(num_cpus)
        dt = time.perf_counter() - t0
        ray.shutdown()
        print(json.dumps({
            "metric": "cdc_replay_seconds", "value": round(dt, 3),
            "unit": "sec", "num_cpus": num_cpus,
            "bench_events": summary["events_in"],
            "events_per_sec": round(summary["events_in"] / dt, 1),
        }))
    else:
        main()
