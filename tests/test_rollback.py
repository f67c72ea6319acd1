"""Rollback — the write half of time travel (pipelines/compact.rollback_to).

Contract: ``rollback_to(cfg, pass_id)`` makes a retained pass the lake's
CURRENT state again via pure-metadata CoW manifest flips (no state file is
read, written, or deleted).  Nothing is lost: the superseded head is
retained like any other pass, so a rollback can itself be rolled back.
The change log is not un-consumed — a later ``replay`` applies only
genuinely new change files on top of the restored state.  Feed consumers
and replicas must never silently sail past a rollback pass.
"""

import os
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.compact import rollback_to, split_partition
from migration_pair_ray.pipelines.fsck import validate_lake
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.state.manifest import TimeTravelError

REPO = Path(__file__).resolve().parents[1]  # repository root


def _oracle(files: list[str]) -> pd.DataFrame:
    lst = ", ".join(f"'{f}'" for f in files)
    return duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet([{lst}], union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)


def _staged(tmp_path, n_files=6, seed=71, **gen_kw):
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1800, n_convs=12,
                                n_files=n_files, tool_epoch=1, seed=seed,
                                **gen_kw)
    log = tmp_path / "log"
    log.mkdir()
    k = n_files // 3
    return str(log), [files[:k], files[k:2 * k], files[2 * k:]]


def _arrive(log: str, files: list[str]) -> None:
    for f in files:
        os.link(f, Path(log) / Path(f).name)


def _fs(cfg: JobConfig, as_of=None) -> pd.DataFrame:
    return final_state(cfg, as_of=as_of).to_pandas().reset_index(drop=True)


def _state_files(cfg: JobConfig) -> set[str]:
    return {str(p) for p in Path(cfg.lake_dir).glob("part=*/*.parquet")}


@pytest.mark.usefixtures("ray_session")
def test_rollback_restores_past_pass_metadata_only(tmp_path):
    log, (g1, g2, _) = _staged(tmp_path)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=4, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    s2 = replay(cfg)

    before = _state_files(cfg)
    rep = rollback_to(cfg, s1["pass_id"])
    assert rep["rollback_to"] == s1["pass_id"]
    assert rep["flipped"] > 0 and rep["cleared"] == 0
    # pure metadata: the data-file set on disk is untouched
    assert _state_files(cfg) == before

    # current state IS the pass-1 state, bit-for-bit vs the oracle
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1))
    # the rollback pass itself resolves as-of; the pre-rollback head is
    # retained, so the undone pass is STILL time-travelable
    pd.testing.assert_frame_equal(_fs(cfg, as_of=rep["pass_id"]), _oracle(g1))
    pd.testing.assert_frame_equal(_fs(cfg, as_of=s2["pass_id"]),
                                  _oracle(g1 + g2))
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_replay_after_rollback_applies_only_new_files(tmp_path):
    """The log is not un-consumed: pass-2's files stay committed (their
    effects are what the rollback removed), so a later replay applies
    only genuinely new files — final state == LWW over g1 ∪ g3."""
    log, (g1, g2, g3) = _staged(tmp_path, seed=73)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=4, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    replay(cfg)
    rollback_to(cfg, s1["pass_id"])

    _arrive(log, g3)
    s3 = replay(cfg)
    assert not s3.get("up_to_date")
    assert s3["files"] == len(g3)
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g3))
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_rollback_of_rollback_rolls_forward(tmp_path):
    log, (g1, g2, _) = _staged(tmp_path, seed=79)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=6, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    s2 = replay(cfg)
    rollback_to(cfg, s1["pass_id"])
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1))
    # roll forward again: the undone head is a retained pass like any other
    rollback_to(cfg, s2["pass_id"])
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g2))
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_rollback_refusals(tmp_path):
    log, (g1, g2, _) = _staged(tmp_path, seed=83, hot_frac=0.5)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=1, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    with pytest.raises(TimeTravelError, match="never committed"):
        rollback_to(cfg, "deadbeef00000000")

    _arrive(log, g2)
    replay(cfg)
    # retention too small (retain_passes=1 but two passes superseded the
    # target on at least one partition after the next replay) is covered
    # by the split case below; here: crossing a split must refuse BEFORE
    # mutating anything
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore
    store = ManifestStore(cfg.manifest_dir)
    sizes = {pid: store.read(pid)["row_count"]
             for pid in LakeMeta(cfg.lake_dir).active_partition_ids()
             if store.read(pid)}
    hot = max(sizes, key=sizes.get)
    heads = {pid: store.read(pid) for pid in sizes}
    split_partition(cfg, hot, fanout=2)
    with pytest.raises(TimeTravelError, match="split|retained"):
        rollback_to(cfg, s1["pass_id"])
    # nothing was flipped: surviving base partitions still carry their
    # pre-rollback heads
    for pid, m in heads.items():
        if pid == hot:
            continue
        assert store.read(pid)["pass_id"] == m["pass_id"]
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g2))


@pytest.mark.usefixtures("ray_session")
def test_rollback_clears_partition_born_after_target(tmp_path):
    """A partition whose FIRST commit came after the target pass is
    restored to explicit emptiness (committed empty record, not a missing
    manifest)."""
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=8, retain_passes=4, hash_state=False)

    def batch(conv, texts, lsn0, ts0):
        n = len(texts)
        return pa.table({
            "conv_id": pa.array([conv] * n, pa.string()),
            "turn_idx": pa.array(list(range(n)), pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array(texts),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array([ts0 + i for i in range(n)], pa.timestamp("us")),
            "op": pa.array(["I"] * n),
            "lsn": pa.array([lsn0 + i for i in range(n)], pa.int64()),
        })

    # pick a second conv the engine routes to a DIFFERENT partition
    from migration_pair_ray.stages.partition import partition_ids

    def pid_of(conv: str) -> int:
        t = batch(conv, ["x"], 0, 1)
        return int(partition_ids(t, cfg.num_partitions)[0])

    other = next(c for c in (f"conv-{i}" for i in range(1, 64))
                 if pid_of(c) != pid_of("conv-a"))

    pq.write_table(batch("conv-a", ["a0", "a1"], 0, 1_000_000),
                   str(log / "batch-00000.parquet"))
    s1 = replay(cfg)
    pq.write_table(batch(other, ["z0"], 100, 2_000_000),
                   str(log / "batch-00001.parquet"))
    replay(cfg)
    assert sorted(_fs(cfg)["text"]) == ["a0", "a1", "z0"]

    rep = rollback_to(cfg, s1["pass_id"])
    assert rep["cleared"] >= 1
    assert sorted(_fs(cfg)["text"]) == ["a0", "a1"]
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_rollback_crash_retry_is_idempotent(tmp_path):
    """Crash after the manifest flips but before the job checkpoint: the
    retry recomputes the same seq ⇒ same rollback pass id ⇒ idempotent
    re-commits; the lake converges to the same state."""
    log, (g1, g2, _) = _staged(tmp_path, seed=89)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=4, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    replay(cfg)

    rep1 = rollback_to(cfg, s1["pass_id"])
    # simulate the crash: delete the rollback's job-level checkpoint
    ckpt = Path(cfg.checkpoint_dir) / f"pass-{rep1['pass_id']}.json"
    assert ckpt.exists()
    ckpt.unlink()
    rep2 = rollback_to(cfg, s1["pass_id"])
    assert rep2["pass_id"] == rep1["pass_id"]
    assert rep2["flipped"] == 0 and rep2["unchanged"] > 0
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1))
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_rollback_task_cli(tmp_path):
    """The rollback task end-to-end through the real CLI (subprocess owns
    its own Ray session)."""
    import json as _json
    import subprocess
    import sys

    log = tmp_path / "log"
    files = generate_change_log(str(log), n_events=400, n_convs=6,
                                n_files=2, tool_epoch=0, seed=101)
    first = Path(files[1])
    held = first.with_suffix(".held")
    first.rename(held)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=2, hash_state=False)
    cfg_path = tmp_path / "job.json"
    cfg.to_json(cfg_path)

    def cli(*args):
        out = subprocess.run(
            [sys.executable, "-m", "migration_pair_ray", *args,
             "--config", str(cfg_path), "--num-cpus", "4"],
            capture_output=True, text=True, cwd=REPO, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        return _json.loads(out.stdout.strip().splitlines()[-1])

    s1 = cli("replay")
    held.rename(first)
    cli("replay")
    rep = cli("rollback", "--to-pass", s1["pass_id"])
    assert rep["rollback_to"] == s1["pass_id"] and rep["flipped"] > 0
    pd.testing.assert_frame_equal(_fs(cfg), _oracle([files[0]]))


@pytest.mark.usefixtures("ray_session")
def test_feed_and_replica_refuse_rollback_pass(tmp_path):
    from migration_pair_ray.pipelines.feed import (FeedRollbackError,
                                                   ack_feed, read_feed,
                                                   register_consumer,
                                                   replicate)
    log, (g1, g2, _) = _staged(tmp_path, seed=97)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=4, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    register_consumer(cfg, "ops")
    _arrive(log, g2)
    replay(cfg)

    # a replica fully caught up BEFORE the rollback
    dst = JobConfig(changelog_dir=str(tmp_path / "dst_log"),
                    lake_dir=str(tmp_path / "dst_lake"),
                    num_partitions=2, hash_state=False)
    replicate(cfg, dst)
    pd.testing.assert_frame_equal(_fs(dst), _oracle(g1 + g2))

    rb = rollback_to(cfg, s1["pass_id"])

    # feed: refuse (the consumer holds changes the source rolled back)
    with pytest.raises(FeedRollbackError, match="rolled the lake back"):
        read_feed(cfg, "ops")
    # explicit opt-in skips the rollback pass and serves the rest
    ds, frontier = read_feed(cfg, "ops", missing_ok=True)
    assert ds.count() > 0 and frontier >= 0

    # replica: refuse on the next tail (it would silently keep g2's state)
    with pytest.raises(FeedRollbackError, match="re-seed"):
        replicate(cfg, dst)

    # recovery path: ack past the rollback, feed flows again
    ack_feed(cfg, "ops", rb["target_seq"] + 2)
    ds2, _ = read_feed(cfg, "ops")
    assert ds2.count() == 0
