"""Targeted replica repair (pipelines/repair): verify_replica localizes
divergence to key-space buckets; repair_replica transplants ONLY the
diverged keys' source state into the follower — O(diverged), never a
re-bootstrap — and the lakes audit clean afterwards."""

import os
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.feed import replicate, verify_replica
from migration_pair_ray.pipelines.repair import repair_replica
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.state.manifest import CheckpointStore


def _two_pass_lake(tmp_path, **cfg_kw):
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1200, n_convs=10,
                                n_files=4, tool_epoch=1, seed=31)
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False, **cfg_kw)
    for group in (files[:2], files[2:]):
        for f in group:
            os.link(f, log / Path(f).name)
        replay(cfg)
    return cfg, files


def _assert_equal_state(src, dst):
    a = final_state(src).to_pandas().reset_index(drop=True)
    b = final_state(dst).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def _ghost_batch():
    return pa.table({
        "conv_id": pa.array(["zz-div", "zz-div2"], pa.string()),
        "turn_idx": pa.array([1, 7], pa.int32()),
        "role": pa.array(["x", "x"], pa.string()),
        "text": pa.array(["diverged", "also diverged"], pa.string()),
        "tool": pa.array([None, None], pa.string()),
        "ts": pa.array([9_999_999_999_000_000] * 2, pa.timestamp("us")),
        "op": pa.array(["I", "I"], pa.string()),
        "lsn": pa.array([10**9, 10**9 + 1], pa.int64()),
    })


@pytest.mark.usefixtures("ray_session")
def test_repair_noop_on_clean_replica(tmp_path):
    src, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=3, partition_mode="key")
    replicate(src, dst)
    s = repair_replica(src, dst)
    assert s["repaired"] is False and s["bad_buckets"] == 0


@pytest.mark.usefixtures("ray_session")
def test_repair_removes_follower_ghost_keys(tmp_path):
    """Keys that exist ONLY on the follower (a rogue local write) are
    deleted by the repair; the follower converges to the source."""
    src, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=3, partition_mode="key",
                    state_chunk_rows=64)
    replicate(src, dst)
    pq.write_table(_ghost_batch(),
                   str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)
    assert verify_replica(src, dst).num_rows > 0

    s = repair_replica(src, dst)
    assert s["repaired"] and s["clean_after"]
    assert s["keys"] >= 2
    _assert_equal_state(src, dst)
    # idempotent: a second repair audits clean and no-ops
    assert repair_replica(src, dst)["repaired"] is False


@pytest.mark.usefixtures("ray_session")
def test_repair_follower_only_keys_with_no_source_row(tmp_path):
    """With buckets fine enough that the ghost keys' buckets hold no
    source row, the repair has nothing to splice in: it drops the ghosts
    and converges."""
    src, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"), num_partitions=4)
    replicate(src, dst)
    pq.write_table(_ghost_batch(),
                   str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)

    s = repair_replica(src, dst, n_buckets=1 << 20)
    assert s["repaired"] and s["clean_after"]
    _assert_equal_state(src, dst)


@pytest.mark.usefixtures("ray_session")
def test_repair_fills_skipped_pass(tmp_path):
    """A follower that skipped a retention-lost pass (missing_ok=True)
    is missing that pass's effects; repair transplants exactly those
    keys from the source."""
    src, files = _two_pass_lake(tmp_path)
    # drop pass 2's files from the source log, as retention would
    ck = CheckpointStore(src.checkpoint_dir)
    pass2 = [Path(f).name for f in files[2:]]
    for name in pass2:
        os.remove(Path(src.changelog_dir) / name)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=5)
    replicate(src, dst, missing_ok=True)   # documented divergence path
    assert verify_replica(src, dst).num_rows > 0

    s = repair_replica(src, dst)
    assert s["repaired"] and s["clean_after"]
    assert s["partitions"] <= 5
    _assert_equal_state(src, dst)


@pytest.mark.usefixtures("ray_session")
def test_repair_touches_only_diverged_partitions(tmp_path):
    """Partitions none of whose keys diverged keep their manifest record
    (same pass_id) — the repair is O(diverged), not a relayout."""
    from migration_pair_ray.state.manifest import ManifestStore
    src, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=8, partition_mode="key")
    replicate(src, dst)
    pq.write_table(_ghost_batch().slice(0, 1),
                   str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)
    store = ManifestStore(dst.manifest_dir)
    before = {pid: (store.read(pid) or {}).get("pass_id")
              for pid in range(8)}

    s = repair_replica(src, dst)
    assert s["repaired"] and s["clean_after"]
    untouched = sum(
        1 for pid in range(8)
        if (store.read(pid) or {}).get("pass_id") == before[pid])
    assert untouched == 8 - s["partitions"]
    assert s["partitions"] < 8
    _assert_equal_state(src, dst)


@pytest.mark.usefixtures("ray_session")
def test_repair_cell_kernel_preserves_determiners(tmp_path):
    """Cell-kernel lakes repair at determiner-row grain: the transplanted
    keys keep column-level LWW semantics (a later patch on the repaired
    follower folds exactly as on the source)."""
    src, _ = _two_pass_lake(tmp_path, merge_kernel="cell")
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=3, merge_kernel="cell")
    replicate(src, dst)
    pq.write_table(_ghost_batch(),
                   str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)
    assert verify_replica(src, dst).num_rows > 0
    s = repair_replica(src, dst)
    assert s["repaired"] and s["clean_after"]
    _assert_equal_state(src, dst)


@pytest.mark.usefixtures("ray_session")
def test_repair_kernel_mismatch_refused(tmp_path):
    src, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=2, merge_kernel="cell")
    # build an (empty-history) cell lake by replaying nothing — force the
    # meta stamp via a tiny replay of one linked file
    import shutil
    stage2 = generate_change_log(str(tmp_path / "s2"), n_events=50,
                                 n_convs=2, n_files=1, tool_epoch=0, seed=7)
    os.makedirs(dst.changelog_dir, exist_ok=True)
    shutil.copy(stage2[0], Path(dst.changelog_dir) / Path(stage2[0]).name)
    replay(dst)
    with pytest.raises(ValueError, match="kernel mismatch"):
        repair_replica(src, dst)


@pytest.mark.usefixtures("ray_session")
def test_repair_task_form(tmp_path):
    import json as _json

    from migration_pair_ray.tasks import run_task
    src, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"), num_partitions=2)
    replicate(src, dst)
    pq.write_table(_ghost_batch(),
                   str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)
    src_json = tmp_path / "src.json"
    src_json.write_text(_json.dumps({
        "changelog_dir": src.changelog_dir, "lake_dir": src.lake_dir,
        "num_partitions": src.num_partitions}))
    s = run_task("repair", dst, input_path=str(src_json))
    assert s["repaired"] and s["clean_after"]


@pytest.mark.usefixtures("ray_session")
def test_repair_pass_refused_by_feed_and_replicate(tmp_path):
    """The repair pass carries no change files: serving it as a feed or
    replicating it would silently diverge a downstream consumer — both
    refuse, exactly like a rollback pass."""
    from migration_pair_ray.pipelines.feed import (FeedRollbackError,
                                                   read_feed)
    src, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"), num_partitions=3)
    replicate(src, dst)
    pq.write_table(_ghost_batch(),
                   str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)
    assert repair_replica(src, dst)["repaired"]

    with pytest.raises(FeedRollbackError):
        read_feed(dst, "downstream")
    d2 = JobConfig(changelog_dir=str(tmp_path / "d2log"),
                   lake_dir=str(tmp_path / "d2lake"), num_partitions=2)
    with pytest.raises(FeedRollbackError):
        replicate(dst, d2)
