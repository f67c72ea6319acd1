"""Point lookup (pipelines/lookup): partition routing + chunk key-range
pruning must serve exact rows while reading only the files that can hold
the requested keys."""

from pathlib import Path

import pandas as pd
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.lookup import candidate_files, lookup_keys
from migration_pair_ray.pipelines.replay import final_state, replay


def _mk_lake(tmp_path, **cfg_kw) -> JobConfig:
    log = str(tmp_path / "log")
    generate_change_log(log, n_events=2000, n_convs=24, n_files=2,
                        tool_epoch=1, seed=53)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False, **cfg_kw)
    replay(cfg)
    return cfg


@pytest.mark.usefixtures("ray_session")
def test_conv_lookup_exact_and_pruned(tmp_path):
    cfg = _mk_lake(tmp_path, state_chunk_rows=60)  # chunked layout
    full = final_state(cfg).to_pandas()
    keys = sorted(full["conv_id"].unique())[:3]

    got = lookup_keys(cfg, list(keys)).to_pandas().reset_index(drop=True)
    want = (full[full["conv_id"].isin(keys)]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)

    # pruning: the plan reads a strict subset of the lake's state files
    all_files = {str(p.relative_to(cfg.lake_dir))
                 for p in Path(cfg.lake_dir).glob("part=*/state-*.parquet")}
    planned = set(candidate_files(cfg, list(keys)))
    assert planned and planned < all_files


@pytest.mark.usefixtures("ray_session")
def test_key_level_lookup_salted_mode(tmp_path):
    """mode='key': conv-level lookup cannot route (salted layout) but
    turn-level lookup routes each key to its single partition."""
    cfg = _mk_lake(tmp_path, partition_mode="key")
    full = final_state(cfg).to_pandas()
    rows = full.sort_values(["conv_id", "turn_idx"]).head(3)
    convs = rows["conv_id"].tolist()
    turns = [int(t) for t in rows["turn_idx"]]

    got = lookup_keys(cfg, convs, turn_idx=turns).to_pandas()
    want = (full.merge(pd.DataFrame({"conv_id": convs, "turn_idx": turns}))
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)

    # routed plan touches at most one partition file per (conv, turn)
    # key; the conv-level (unroutable) plan considers every partition
    assert len(candidate_files(cfg, convs, turns)) <= len(convs)
    n_parts = len({str(p) for p in Path(cfg.lake_dir).glob("part=*")})
    assert len(candidate_files(cfg, convs)) == n_parts


@pytest.mark.usefixtures("ray_session")
def test_missing_key_empty(tmp_path):
    cfg = _mk_lake(tmp_path)
    out = lookup_keys(cfg, ["no-such-conversation"])
    assert out.num_rows == 0
    assert "conv_id" in out.schema.names and "op" not in out.schema.names


@pytest.mark.usefixtures("ray_session")
def test_fetch_conversations_distributed(tmp_path):
    """fetch_conversations == lookup_keys == the filtered final state, on
    a chunked lake; the per-pid plan is a strict subset of partitions."""
    from migration_pair_ray.pipelines.lookup import (candidate_files_by_pid,
                                                     fetch_conversations)
    cfg = _mk_lake(tmp_path, state_chunk_rows=60)
    full = final_state(cfg).to_pandas()
    keys = sorted(full["conv_id"].unique())[:4]

    got = (fetch_conversations(cfg, list(keys))
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))
    want = (full[full["conv_id"].isin(keys)]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    via_lookup = lookup_keys(cfg, list(keys)).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, via_lookup)

    plan = candidate_files_by_pid(cfg, list(keys))
    assert plan and len(plan) < cfg.num_partitions
    # internal rows requested -> winners incl. op/lsn
    internal = (fetch_conversations(cfg, list(keys), visible_only=False)
                .to_pandas())
    assert {"op", "lsn"} <= set(internal.columns)


@pytest.mark.usefixtures("ray_session")
def test_fetch_conversations_mor_and_hot(tmp_path):
    """Layout matrix: merge-on-read deltas fold to true winners; under
    mode 'hot' a cold conv's fetch touches only its routed partition."""
    import glob as _glob
    import os
    from migration_pair_ray.pipelines.lookup import (candidate_files_by_pid,
                                                     fetch_conversations)

    log = str(tmp_path / "log")
    files = generate_change_log(log, n_events=1600, n_convs=12, n_files=4,
                                tool_epoch=2, hot_frac=0.4, hot_turns=300,
                                seed=72)
    for f in files[2:]:
        os.rename(f, f + ".hold")
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=6, partition_mode="hot",
                    hot_convs=["conv-0"], mor_max_deltas=4,
                    hash_state=False)
    replay(cfg)
    for f in files[2:]:
        os.rename(f + ".hold", f)
    replay(cfg)   # second pass lands as MoR deltas

    full = final_state(cfg).to_pandas()
    cold = sorted(c for c in full["conv_id"].unique() if c != "conv-0")[0]
    keys = ["conv-0", cold]
    got = (fetch_conversations(cfg, keys).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    want = (full[full["conv_id"].isin(keys)]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)

    # a cold conv alone routes to exactly one partition's plan
    plan = candidate_files_by_pid(cfg, [cold])
    assert len(plan) == 1
    # the whale fans out (salted) — more than one partition in the plan
    assert len(candidate_files_by_pid(cfg, ["conv-0"])) > 1


@pytest.mark.usefixtures("ray_session")
def test_fetch_conversations_empty_partition_block_schema(tmp_path):
    """A planned partition whose files hold NO requested rows (range/bloom
    false positive) must emit a block with the SAME schema as non-empty
    visible blocks — no op/lsn resurfacing, no malformed Dataset union."""
    from migration_pair_ray.pipelines.lookup import fetch_conversations
    cfg = _mk_lake(tmp_path, state_chunk_rows=60)
    full = final_state(cfg).to_pandas()
    real = sorted(full["conv_id"].unique())[0]
    # lexically inside the key space but absent -> planned yet empty reads
    ghost = real + "zz"
    got = fetch_conversations(cfg, [real, ghost]).to_pandas()
    assert "op" not in got.columns and "lsn" not in got.columns
    want = (full[full["conv_id"] == real]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    got = got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # fully-absent request: empty Dataset, still visible-shaped
    empty = fetch_conversations(cfg, [ghost]).to_pandas()
    assert len(empty) == 0


# -- the fetches above, on the forced one-task-per-partition executor ------

@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_fetch_conversations_distributed_executor(tmp_path):
    test_fetch_conversations_distributed(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_fetch_conversations_mor_and_hot_distributed(tmp_path):
    test_fetch_conversations_mor_and_hot(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_fetch_conversations_empty_partition_block_schema_distributed(
        tmp_path):
    test_fetch_conversations_empty_partition_block_schema(tmp_path)
