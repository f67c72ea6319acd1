"""partition_mode='hot': conv-disjoint placement with key-level salting
for a recorded whale set only (the north-star skew answer)."""

import glob
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.stages.partition import detect_hot_keys

REPO = Path(__file__).resolve().parents[1]  # repository root

ORACLE = """
WITH ch AS (SELECT * FROM read_parquet('{log}/*.parquet', union_by_name=true)),
w AS (SELECT *, row_number() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM w WHERE rn = 1 AND op <> 'D'
ORDER BY conv_id, turn_idx
"""


def _hot_set(log: str) -> list[str]:
    ds = rd.read_parquet(sorted(glob.glob(f"{log}/*.parquet")),
                         columns=["conv_id"], file_extensions=None)
    hot = detect_hot_keys(ds, hot_frac=0.1)
    return sorted(hot.column("conv_id").to_pylist())


@pytest.mark.usefixtures("ray_session")
def test_hot_mode_matches_oracle_and_spreads_whales(tmp_lake):
    log, lake = tmp_lake
    generate_change_log(log, n_events=1500, n_convs=15, n_files=3,
                        tool_epoch=1, hot_frac=0.4, shuffle_window=200,
                        seed=51)
    hot = _hot_set(log)
    assert hot, "fixture must contain a whale"
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8,
                    partition_mode="hot", hot_convs=hot)
    replay(cfg)
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    want = duckdb.sql(ORACLE.format(log=log)).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # placement: the whale's keys spread over >1 partition, a cold conv's
    # keys stay in exactly one
    by_conv: dict[str, set] = {}
    for p in Path(lake).glob("part=*/state-*.parquet"):
        pid = p.parent.name
        for c in set(pq.read_table(str(p), columns=["conv_id"])
                     .column("conv_id").to_pylist()):
            by_conv.setdefault(c, set()).add(pid)
    assert len(by_conv[hot[0]]) > 1, "whale conv was not salted"
    cold = [c for c in by_conv if c not in hot]
    assert cold and all(len(by_conv[c]) == 1 for c in cold), \
        "cold convs must stay conv-disjoint"


@pytest.mark.usefixtures("ray_session")
def test_hot_set_is_layout_gated(tmp_lake):
    from migration_pair_ray.state.manifest import LakeLayoutError
    log, lake = tmp_lake
    generate_change_log(log, n_events=400, n_convs=8, n_files=2, seed=52)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    partition_mode="hot", hot_convs=["c0001"])
    replay(cfg)
    bad = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    partition_mode="hot", hot_convs=["c0002"])
    with pytest.raises(LakeLayoutError):
        replay(bad)
    # unchanged set is accepted (no-op replay)
    assert replay(cfg)["up_to_date"]


@pytest.mark.usefixtures("ray_session")
def test_hot_lake_fsck_and_lookup(tmp_lake):
    from migration_pair_ray.pipelines.fsck import validate_lake
    from migration_pair_ray.pipelines.lookup import candidate_files, lookup_keys
    log, lake = tmp_lake
    generate_change_log(log, n_events=1200, n_convs=10, n_files=2,
                        hot_frac=0.4, seed=53)
    hot = _hot_set(log)
    assert hot
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8,
                    partition_mode="hot", hot_convs=hot)
    replay(cfg)
    rep = validate_lake(cfg, deep=True)
    assert rep["ok"], rep["problems"]

    vis = final_state(cfg).to_pandas()
    whale_rows = vis[vis["conv_id"] == hot[0]]
    cold_conv = sorted(set(vis["conv_id"]) - set(hot))[0]
    cold_rows = vis[vis["conv_id"] == cold_conv]
    keys = [(hot[0], int(whale_rows.iloc[0]["turn_idx"])),
            (cold_conv, int(cold_rows.iloc[0]["turn_idx"]))]
    got = lookup_keys(cfg, [k[0] for k in keys], [k[1] for k in keys])
    assert got.num_rows == 2
    # conv-level lookup of a COLD conv prunes to that conv's partition
    plan = candidate_files(cfg, [cold_conv])
    all_files = [str(p.relative_to(lake))
                 for p in Path(lake).glob("part=*/state-*.parquet")]
    assert 0 < len(plan) < len(all_files)


@pytest.mark.usefixtures("ray_session")
def test_skew_migration_conv_to_hot(tmp_lake, tmp_path):
    """The operational skew answer end-to-end: a 'conv' lake develops a
    whale conversation → detect_hot_keys picks it from the stream →
    repartition_lake rebuilds into a 'hot' layout lake → final state
    identical, the whale now spreads, and change-log consumption RESUMES
    against the hot lake (carried checkpoints; new files route under the
    hot rule)."""
    import dataclasses
    import os
    from migration_pair_ray.pipelines.replay import repartition_lake

    log, lake = tmp_lake
    generate_change_log(log, n_events=1400, n_convs=12, n_files=2,
                        tool_epoch=1, hot_frac=0.45, seed=54)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8,
                    partition_mode="conv")
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    hot = _hot_set(log)
    assert hot, "fixture must contain a whale"
    hot_cfg = dataclasses.replace(cfg, lake_dir=str(tmp_path / "lake_hot"),
                                  partition_mode="hot", hot_convs=hot)
    repartition_lake(cfg, hot_cfg)
    got = final_state(hot_cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # whale keys spread across partitions in the NEW lake
    whale_parts = set()
    for p in Path(hot_cfg.lake_dir).glob("part=*/state-*.parquet"):
        t = pq.read_table(str(p), columns=["conv_id"])
        if hot[0] in set(t.column("conv_id").to_pylist()):
            whale_parts.add(p.parent.name)
    assert len(whale_parts) > 1, "whale conv was not salted after migration"

    # new change files arrive AFTER the migration → only they apply, and
    # they route under the hot rule (combined state == full-log oracle)
    extra = str(tmp_path / "extra")
    generate_change_log(extra, n_events=400, n_convs=12, n_files=1,
                        tool_epoch=0, hot_frac=0.45, seed=55)
    for i, p in enumerate(sorted(glob.glob(f"{extra}/*.parquet"))):
        os.rename(p, os.path.join(log, f"batch-{50 + i:05d}-"
                                  + os.path.basename(p).split("-", 2)[2]))
    s2 = replay(hot_cfg)
    assert s2["files"] == 1 and not s2["up_to_date"]
    got2 = final_state(hot_cfg).to_pandas().reset_index(drop=True)
    want2 = duckdb.sql(ORACLE.format(log=log)).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got2, want2, check_dtype=False)

    from migration_pair_ray.pipelines.fsck import validate_lake
    rep = validate_lake(hot_cfg, deep=True)
    assert rep["ok"], rep["problems"]


@pytest.mark.usefixtures("ray_session")
def test_lake_hotspots_probe_and_cli(tmp_lake, tmp_path):
    """lake_hotspots ranks conversations by VISIBLE key count (the signal
    that actually skews a partition), deterministic tie-break by conv_id;
    top-1 is the whale; CLI `hotspots --top-k` round-trips it."""
    import json
    import subprocess
    import sys
    from migration_pair_ray.pipelines.fsck import lake_hotspots

    log, lake = tmp_lake
    generate_change_log(log, n_events=1200, n_convs=10, n_files=2,
                        hot_frac=0.5, hot_turns=300, seed=56)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8)
    from migration_pair_ray.pipelines.replay import replay as _replay
    _replay(cfg)

    vis = final_state(cfg).to_pandas()
    want = (vis.groupby("conv_id").size().reset_index(name="n_rows")
            .sort_values(["n_rows", "conv_id"], ascending=[False, True])
            .head(4).reset_index(drop=True))
    got = lake_hotspots(cfg, k=4).to_pandas()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got.iloc[0]["conv_id"] == "conv-0", "whale must rank first"

    cfg_path = tmp_path / "job.json"
    cfg.to_json(cfg_path)
    out = subprocess.run(
        [sys.executable, "-m", "migration_pair_ray", "hotspots",
         "--config", str(cfg_path), "--top-k", "2", "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["top_k"] == 2 and len(summary["hotspots"]) == 2
    assert summary["hotspots"][0] == {"conv_id": "conv-0",
                                      "n_rows": int(want.iloc[0]["n_rows"])}


def test_hot_routing_invariants():
    """Mode 'hot' is exactly mode 'conv' for cold convs and exactly mode
    'key' for whales — per-row, on the same batch."""
    import pyarrow as pa
    from migration_pair_ray.stages.partition import partition_ids
    rng = np.random.default_rng(7)
    convs = [f"conv-{i}" for i in rng.integers(0, 40, size=5000)]
    turns = rng.integers(0, 500, size=5000).astype(np.int32)
    batch = pa.table({"conv_id": pa.array(convs, pa.string()),
                      "turn_idx": pa.array(turns, pa.int32())})
    whales = ("conv-3", "conv-17")
    p_conv = partition_ids(batch, 16, "conv")
    p_key = partition_ids(batch, 16, "key")
    p_hot = partition_ids(batch, 16, "hot", hot_convs=whales)
    is_whale = np.isin(np.asarray(convs), np.asarray(whales))
    assert (p_hot[~is_whale] == p_conv[~is_whale]).all()
    assert (p_hot[is_whale] == p_key[is_whale]).all()
    # and the whale actually spreads while cold convs stay put
    assert len(set(p_hot[is_whale].tolist())) > 1
    for c in set(convs) - set(whales):
        m = np.asarray(convs) == c
        assert len(set(p_hot[m].tolist())) == 1


@pytest.mark.usefixtures("ray_session")
def test_hot_composes_with_split_chunked_mor(tmp_lake):
    """Layout-feature composition matrix on one lake: hot whale salting ×
    chunked state files × merge-on-read deltas × incremental partition
    split — final state stays oracle-green and deep fsck passes."""
    import os
    from migration_pair_ray.pipelines.compact import (compact_deltas,
                                                      split_partition)
    from migration_pair_ray.pipelines.fsck import validate_lake

    log, lake = tmp_lake
    files = generate_change_log(log, n_events=1600, n_convs=12, n_files=4,
                                tool_epoch=2, hot_frac=0.45, hot_turns=400,
                                shuffle_window=200, seed=58)
    # stage the last two files so the second pass lands as MoR deltas
    held = [Path(f) for f in files[2:]]
    staged = [p.with_suffix(".hold") for p in held]
    for p, s in zip(held, staged):
        os.rename(p, s)

    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    partition_mode="hot", hot_convs=["conv-0"],
                    state_chunk_rows=64, mor_max_deltas=4)
    replay(cfg)
    # split the whale-heavy partition (the whale salts over all 4, so any
    # partition is a valid target; pick the largest)
    from migration_pair_ray.state.manifest import ManifestStore
    store = ManifestStore(os.path.join(lake, "_manifest"))
    sizes = {pid: (store.read(pid) or {}).get("row_count", 0)
             for pid in range(4)}
    big = max(sizes, key=lambda p: sizes[p])
    split_partition(cfg, big, fanout=2)

    for p, s in zip(held, staged):
        os.rename(s, p)
    s2 = replay(cfg)
    assert s2["files"] == 2

    got = final_state(cfg).to_pandas().reset_index(drop=True)
    want = duckdb.sql(ORACLE.format(log=log)).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    compact_deltas(cfg)
    got2 = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got2, want, check_dtype=False)
    rep = validate_lake(cfg, deep=True)
    assert rep["ok"], rep["problems"]


def test_hot_config_validation():
    with pytest.raises(ValueError, match="non-empty hot_convs"):
        JobConfig(changelog_dir="x", lake_dir="y", partition_mode="hot")
    with pytest.raises(ValueError, match="only applies"):
        JobConfig(changelog_dir="x", lake_dir="y", partition_mode="conv",
                  hot_convs=["a"])
    # merge tasks take one cap; a JSON array (from_json) or an actor-pool
    # style (min, max) tuple must fail here, not inside Ray's planner
    for bad in ([1, 4], (1, 4), 0, -2):
        with pytest.raises(ValueError, match="apply_concurrency"):
            JobConfig(changelog_dir="x", lake_dir="y", apply_concurrency=bad)


@pytest.mark.usefixtures("ray_session")
def test_hot_mixed_request_keeps_cold_routing(tmp_lake):
    """Round-4 ADVICE: a conv-level request mixing ONE whale with cold
    conversations must not lose routing for the cold majority — the plan
    fans out only the whale; each cold conv is planned (and shipped) to
    exactly its routed partition."""
    from migration_pair_ray.pipelines.lookup import (candidate_plan,
                                                     fetch_conversations)
    log, lake = tmp_lake
    generate_change_log(log, n_events=1500, n_convs=12, n_files=2,
                        hot_frac=0.4, seed=77)
    hot = _hot_set(log)
    assert hot
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8,
                    partition_mode="hot", hot_convs=hot)
    replay(cfg)
    vis = final_state(cfg).to_pandas()
    cold = sorted(set(vis["conv_id"]) - set(hot))[:2]
    assert len(cold) == 2
    req = [hot[0]] + cold

    plan = candidate_plan(cfg, req)
    for c in cold:
        holders = [pid for pid, e in plan.items() if c in e["convs"]]
        assert len(holders) == 1, (c, holders)   # cold conv stays routed
    whale_holders = [pid for pid, e in plan.items()
                     if hot[0] in e["convs"]]
    assert len(whale_holders) > 1                # whale fans out

    got = (fetch_conversations(cfg, req).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    want = (vis[vis["conv_id"].isin(req)]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hash_strings_frozen_contract():
    """Routing stability: hash_strings pins the SipHash-2-4 + splitmix64
    values of pd.util.hash_array — a changed hash silently re-routes
    every existing lake's keys, so these literals must NEVER change.
    (The dictionary-encode fast path must reproduce them bit for bit;
    nulls hash as empty string.)"""
    import pyarrow as pa
    from migration_pair_ray.stages.partition import hash_strings

    golden = {
        "": 1760245841805064774,
        "c0": 14157290225740440609,
        "c49": 9065829157774324872,
        "conv_00000042": 537632746438920373,
        "whale-βξ": 18304047671962012706,
        "a" * 40: 12515515532949263426,
    }
    vals = list(golden)
    h = hash_strings(pa.array(vals * 3, pa.string()))
    for i, v in enumerate(vals * 3):
        assert int(h[i]) == golden[v], (v, int(h[i]))
    hn = hash_strings(pa.array([None, ""], pa.string()))
    assert int(hn[0]) == int(hn[1]) == golden[""]
    # chunked + sliced inputs take the same path
    ch = pa.chunked_array([pa.array(vals), pa.array(vals).slice(2, 3)])
    hc = hash_strings(ch)
    assert [int(x) for x in hc] == [golden[v] for v in vals + vals[2:5]]


def test_key_partition_ids_equal_partition_ids():
    """A lookup routes its keys from Python lists
    (``key_partition_ids``) to the partition ids ``partition_ids`` gives
    the same keys as a table, in every mode, with and without turns and
    across an incremental split."""
    import pyarrow as pa
    from migration_pair_ray.stages.partition import (key_partition_ids,
                                                     partition_ids)
    rng = np.random.default_rng(11)
    convs = [f"conv-{i}" for i in rng.integers(0, 60, size=2000)] + [""]
    turns = [int(t) for t in rng.integers(-1, 1000, size=len(convs))]
    whales = ("conv-3", "conv-17")
    for mode in ("conv", "key", "hot"):
        for splits in (None, {2: (2, 0), 5: (3, 1)}):
            for turn in (turns, None):
                batch = pa.table({
                    "conv_id": pa.array(convs, pa.string()),
                    "turn_idx": pa.array(turn or [-1] * len(convs),
                                         pa.int32())})
                want = partition_ids(batch, 8, mode, splits, whales)
                got = key_partition_ids(convs, turn, 8, mode, splits, whales)
                assert got.dtype == want.dtype
                assert (got == want).all(), (mode, splits, turn is None)
