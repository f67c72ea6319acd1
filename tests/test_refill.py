"""Partition refill: rebuild one partition's state from the retained
change log (pipelines/repair.refill_partition) — the no-replica disaster
recovery path."""

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.fsck import validate_lake
from migration_pair_ray.pipelines.repair import RefillError, refill_partition
from migration_pair_ray.pipelines.replay import final_state, replay

REPO = Path(__file__).resolve().parents[1]  # repository root

ORACLE = """
WITH ch AS (SELECT * FROM read_parquet({files}, union_by_name=true)),
w AS (SELECT *, row_number() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM w WHERE rn = 1 AND op <> 'D'
ORDER BY conv_id, turn_idx
"""


def _oracle(files) -> pd.DataFrame:
    lst = "[" + ",".join(f"'{f}'" for f in files) + "]"
    return duckdb.sql(ORACLE.format(files=lst)).df().reset_index(drop=True)


def _nonempty_pid(lake: str) -> int:
    for m in sorted(Path(lake, "_manifest").glob("part-*.json")):
        rec = json.loads(m.read_text())
        if rec.get("row_count", 0) > 0:
            return int(rec["partition"])
    raise AssertionError("no non-empty partition")


@pytest.mark.usefixtures("ray_session")
def test_refill_recovers_lost_state_file(tmp_lake):
    log, lake = tmp_lake
    files = generate_change_log(log, n_events=1200, n_convs=10, n_files=3,
                                tool_epoch=1, shuffle_window=150, seed=60)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=6)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    pid = _nonempty_pid(lake)
    victim = sorted(Path(lake, f"part={pid:05d}").glob("state-*.parquet"))[0]
    os.remove(victim)                                   # lost state file
    rep = validate_lake(cfg, deep=True)
    assert not rep["ok"]

    s = refill_partition(cfg, pid)
    assert s["partition"] == pid and s["rows_state"] > 0
    rep2 = validate_lake(cfg, deep=True)
    assert rep2["ok"], rep2["problems"]
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    pd.testing.assert_frame_equal(got, _oracle(files), check_dtype=False)

    # idempotent: a second refill re-commits the same pass id / state
    s2 = refill_partition(cfg, pid)
    assert s2["pass_id"] == s["pass_id"]
    got2 = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got2, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_refill_corrupted_chunked_hot_lake(tmp_lake):
    """Composition: chunked state x hot whale salting; corruption (a
    truncated chunk) detected by deep fsck, repaired by refill."""
    log, lake = tmp_lake
    generate_change_log(log, n_events=1500, n_convs=12, n_files=3,
                        hot_frac=0.4, hot_turns=400, tool_epoch=1, seed=61)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=6,
                    partition_mode="hot", hot_convs=["conv-0"],
                    state_chunk_rows=64, hash_state=True)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    pid = _nonempty_pid(lake)
    victim = sorted(Path(lake, f"part={pid:05d}").glob("state-*.parquet"))[0]
    t = pq.read_table(str(victim))
    pq.write_table(t.slice(0, max(t.num_rows - 1, 0)), str(victim))
    assert not validate_lake(cfg, deep=True)["ok"]

    refill_partition(cfg, pid)
    rep = validate_lake(cfg, deep=True)
    assert rep["ok"], rep["problems"]
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_refill_folds_rollback_history(tmp_lake, tmp_path):
    """After a rollback, the effective history excludes the rolled-back
    pass — refill must reproduce the ROLLED-BACK state, not the union."""
    from migration_pair_ray.pipelines.compact import rollback_to

    log, lake = tmp_lake
    files = generate_change_log(log, n_events=900, n_convs=8, n_files=3,
                                tool_epoch=1, seed=62)
    # stage: pass 1 = files 0-1, pass 2 = file 2
    held = Path(files[2])
    held_tmp = held.with_suffix(".hold")
    os.rename(held, held_tmp)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    retain_passes=2)
    p1 = replay(cfg)["pass_id"]
    os.rename(held_tmp, held)
    replay(cfg)
    rollback_to(cfg, p1)
    want = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(want, _oracle(files[:2]), check_dtype=False)

    pid = _nonempty_pid(lake)
    os.remove(Path(lake, "_manifest", f"part-{pid:05d}.json"))
    refill_partition(cfg, pid)
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_refill_time_travel_contract(tmp_lake):
    """The refilled partition carries lineage_break: as_of an earlier pass
    raises (its retained history is gone), 'latest' still resolves."""
    from migration_pair_ray.pipelines.replay import read_lake
    from migration_pair_ray.state.manifest import TimeTravelError

    log, lake = tmp_lake
    files = generate_change_log(log, n_events=800, n_convs=8, n_files=2,
                                tool_epoch=1, seed=63)
    held = Path(files[1]); held_tmp = held.with_suffix(".hold")
    os.rename(held, held_tmp)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    retain_passes=2)
    p1 = replay(cfg)["pass_id"]
    os.rename(held_tmp, held)
    replay(cfg)
    # time travel works before the refill
    read_lake(cfg, as_of=p1).count()

    pid = _nonempty_pid(lake)
    refill_partition(cfg, pid)
    with pytest.raises(TimeTravelError):
        read_lake(cfg, as_of=p1).count()
    assert read_lake(cfg, as_of="latest").count() > 0


@pytest.mark.usefixtures("ray_session")
def test_refill_refusals(tmp_lake, tmp_path):
    log, lake = tmp_lake
    generate_change_log(log, n_events=400, n_convs=6, n_files=2, seed=64)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    replay(cfg)

    with pytest.raises(RefillError, match="not active"):
        refill_partition(cfg, 99)

    # txn-gated lakes refuse up front
    txn_cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                        txn_boundary=True)
    with pytest.raises(RefillError, match="txn"):
        refill_partition(txn_cfg, 0)

    # a bulk-load pass's bytes are outside the log
    import pyarrow.csv as pacsv
    from migration_pair_ray.pipelines.bulk_load import bulk_load
    src = final_state(cfg).to_pandas().head(5)
    csv_path = tmp_path / "seed.csv"
    src.to_csv(csv_path, index=False)
    bulk_load(cfg, str(csv_path), fmt="csv")
    with pytest.raises(RefillError, match="bulk"):
        refill_partition(cfg, 0)

    # a truncated log (missing committed change file) refuses
    log2 = tmp_path / "log2"; lake2 = tmp_path / "lake2"
    generate_change_log(str(log2), n_events=300, n_convs=6, n_files=2, seed=65)
    cfg2 = JobConfig(changelog_dir=str(log2), lake_dir=str(lake2),
                     num_partitions=4)
    replay(cfg2)
    victim = sorted(glob.glob(f"{log2}/batch-*.parquet"))[0]
    os.remove(victim)
    with pytest.raises(RefillError, match="left the log"):
        refill_partition(cfg2, _nonempty_pid(str(lake2)))


@pytest.mark.usefixtures("ray_session")
def test_refill_damaged_sweep(tmp_lake):
    """Self-healing: two partitions damaged two different ways; the sweep
    finds and refills exactly those, re-audit green, state equals control."""
    from migration_pair_ray.pipelines.repair import refill_damaged

    log, lake = tmp_lake
    generate_change_log(log, n_events=1200, n_convs=10, n_files=3,
                        tool_epoch=1, seed=67)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=6,
                    hash_state=True)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    # an already-clean lake sweeps to a no-op
    s0 = refill_damaged(cfg)
    assert s0["ok"] and s0["refilled"] == []

    pids = []
    for m in sorted(Path(lake, "_manifest").glob("part-*.json")):
        rec = json.loads(m.read_text())
        if rec.get("row_count", 0) > 0:
            pids.append(int(rec["partition"]))
        if len(pids) == 2:
            break
    assert len(pids) == 2
    f0 = sorted(Path(lake, f"part={pids[0]:05d}").glob("state-*.parquet"))[0]
    os.remove(f0)                                       # lost file
    f1 = sorted(Path(lake, f"part={pids[1]:05d}").glob("state-*.parquet"))[0]
    t = pq.read_table(str(f1))
    pq.write_table(t.slice(0, t.num_rows - 1), str(f1))  # truncated file

    s = refill_damaged(cfg)
    assert s["ok"], s["unfixed"]
    assert sorted(r["partition"] for r in s["refilled"]) == sorted(pids)
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_refill_crash_window_resumes(tmp_lake):
    """Crash between the manifest drop and the rebuild: fsck flags the
    partition (orphan files, no manifest); a re-run of refill completes
    the recovery."""
    from migration_pair_ray.state.manifest import ManifestStore

    log, lake = tmp_lake
    generate_change_log(log, n_events=600, n_convs=8, n_files=2, seed=68)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    pid = _nonempty_pid(lake)
    # simulate refill crashing right after its first mutation
    ManifestStore(cfg.manifest_dir).delete(pid)
    assert not validate_lake(cfg, deep=True)["ok"]

    refill_partition(cfg, pid)
    assert validate_lake(cfg, deep=True)["ok"]
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_history_task_ledger(tmp_lake):
    """The ops ledger: pass kinds classified in seq order."""
    from migration_pair_ray.pipelines.compact import rollback_to
    from migration_pair_ray.tasks import run_task

    log, lake = tmp_lake
    files = generate_change_log(log, n_events=600, n_convs=8, n_files=2,
                                seed=69)
    held = Path(files[1]); held_tmp = held.with_suffix(".hold")
    os.rename(held, held_tmp)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    retain_passes=2)
    p1 = replay(cfg)["pass_id"]
    os.rename(held_tmp, held)
    replay(cfg)
    rollback_to(cfg, p1)
    h = run_task("history", cfg)
    assert h["count"] == 3
    assert [r["kind"] for r in h["passes"]] == ["replay", "replay",
                                                "rollback"]
    assert [r["seq"] for r in h["passes"]] == [0, 1, 2]
    assert h["passes"][0]["events_in"] > 0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [70, 71])
def test_refill_property_random_history(tmp_lake, seed):
    """Randomized lifecycle: random pass splits, maybe a rollback, then
    refill EVERY partition — the rebuilt lake must equal the pre-refill
    control bit for bit (same visible frame)."""
    import numpy as np
    from migration_pair_ray.pipelines.compact import rollback_to

    rng = np.random.default_rng(seed)
    log, lake = tmp_lake
    files = generate_change_log(log, n_events=900, n_convs=9, n_files=4,
                                tool_epoch=1, shuffle_window=100, seed=seed)
    # stage files into 1..4 random passes
    for f in files:
        os.rename(f, f + ".hold")
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=5,
                    retain_passes=3)
    cuts = sorted(set(rng.integers(1, len(files), size=2).tolist()))
    bounds = [0] + cuts + [len(files)]
    pass_ids = []
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        for f in files[lo:hi]:
            os.rename(f + ".hold", f)
        pass_ids.append(replay(cfg)["pass_id"])
    if len(pass_ids) > 1 and rng.random() < 0.5:
        rollback_to(cfg, pass_ids[int(rng.integers(0, len(pass_ids) - 1))])
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    for pid in range(5):
        refill_partition(cfg, pid)
    rep = validate_lake(cfg, deep=True)
    assert rep["ok"], rep["problems"]
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_refill_task_cli(tmp_path):
    """CLI e2e in a subprocess (owns its Ray session)."""
    log = tmp_path / "log"
    generate_change_log(str(log), n_events=300, n_convs=5, n_files=2, seed=66)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4)
    cfg_path = tmp_path / "job.json"
    cfg.to_json(cfg_path)
    out = subprocess.run(
        [sys.executable, "-m", "migration_pair_ray", "replay",
         "--config", str(cfg_path), "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    pid = _nonempty_pid(cfg.lake_dir)
    os.remove(sorted(Path(cfg.lake_dir, f"part={pid:05d}")
                     .glob("state-*.parquet"))[0])
    out = subprocess.run(
        [sys.executable, "-m", "migration_pair_ray", "refill",
         "--config", str(cfg_path), "--base-pid", str(pid),
         "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["partition"] == pid and summary["rows_state"] > 0


@pytest.mark.usefixtures("ray_session")
def test_refill_allows_rolled_back_bulk_pass(tmp_lake, tmp_path):
    """A bulk load that a LATER rollback removed from the effective
    history must not block refill — the current state is a pure function
    of the change log again."""
    from migration_pair_ray.pipelines.bulk_load import bulk_load
    from migration_pair_ray.pipelines.compact import rollback_to

    log, lake = tmp_lake
    generate_change_log(log, n_events=500, n_convs=6, n_files=2, seed=73)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    retain_passes=2)
    p1 = replay(cfg)["pass_id"]
    src = final_state(cfg).to_pandas().head(3)
    csv_path = tmp_path / "seed.csv"
    src.to_csv(csv_path, index=False)
    bulk_load(cfg, str(csv_path), fmt="csv")
    with pytest.raises(RefillError, match="bulk"):
        refill_partition(cfg, _nonempty_pid(lake))
    rollback_to(cfg, p1)
    want = final_state(cfg).to_pandas().reset_index(drop=True)
    pid = _nonempty_pid(lake)
    refill_partition(cfg, pid)          # no longer refuses
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_refill_honors_gated_history(tmp_lake, tmp_path):
    """The quarantine-gate decision follows the recorded pass history:
    a gated lake refuses refill without cfg.quarantine_dir (diverted rows
    must not resurrect) and recovers exactly with it.  A txn lake refuses
    even when the CALLER's config forgot txn_boundary (the on-disk
    registry is the authority)."""
    import dataclasses
    import pyarrow.parquet as _pq
    import pyarrow as pa

    log, lake = tmp_lake
    files = generate_change_log(log, n_events=600, n_convs=6, n_files=2,
                                seed=74)
    # corrupt a few rows (null conv_id) so the gate actually diverts
    t = _pq.read_table(files[1])
    conv = t.column("conv_id").to_pylist()
    for i in range(0, 9, 3):
        conv[i] = None
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                     pa.array(conv, pa.string()))
    _pq.write_table(t, files[1])

    qdir = str(tmp_path / "quarantine")
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    quarantine_dir=qdir)
    s = replay(cfg)
    assert s["quarantined"] > 0
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    pid = _nonempty_pid(lake)
    bare = dataclasses.replace(cfg, quarantine_dir="")
    with pytest.raises(RefillError, match="quarantine"):
        refill_partition(bare, pid)
    refill_partition(cfg, pid)
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # txn registry on disk refuses refill regardless of caller config
    log2, lake2 = str(tmp_path / "log2"), str(tmp_path / "lake2")
    generate_change_log(log2, n_events=300, n_convs=5, n_files=1, seed=75)
    txn_cfg = JobConfig(changelog_dir=log2, lake_dir=lake2,
                        num_partitions=4, txn_boundary=True)
    replay(txn_cfg)
    forgot = dataclasses.replace(txn_cfg, txn_boundary=False)
    with pytest.raises(RefillError, match="txn"):
        refill_partition(forgot, 0)


@pytest.mark.usefixtures("ray_session")
def test_fsck_flags_total_partition_loss_and_refill_heals(tmp_lake):
    """Round-4 ADVICE (medium): a partition whose manifest AND state
    files are both gone must not pass deep fsck as 'never written' — the
    lineage ledger names every partition that ever committed, and
    refill_damaged must rebuild it."""
    from migration_pair_ray.pipelines.repair import refill_damaged

    log, lake = tmp_lake
    files = generate_change_log(log, n_events=1000, n_convs=8, n_files=2,
                                tool_epoch=1, seed=61)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=6)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    pid = _nonempty_pid(lake)
    # total loss: manifest and every state file of the partition
    os.remove(Path(lake, "_manifest", f"part-{pid:05d}.json"))
    for f in Path(lake, f"part={pid:05d}").glob("state-*.parquet"):
        os.remove(f)

    rep = validate_lake(cfg, deep=True)
    assert not rep["ok"]
    kinds = {p["kind"] for p in rep["problems"] if p["partition"] == pid}
    assert "lost_partition" in kinds, rep["problems"]

    healed = refill_damaged(cfg)
    assert healed["ok"], healed
    assert pid in [r["partition"] for r in healed["refilled"]]
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    pd.testing.assert_frame_equal(got, _oracle(files), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_refill_commits_checkpoint_pass_record(tmp_lake):
    """Round-4 ADVICE: a refill is a state-mutating recovery and must be
    visible in the ops ledger — a zero-change-file pass record with
    stats.refill_of, classified 'refill' by task_history, and served as
    an EMPTY pass by the feed (a refill does not change visible state,
    so consumers skip it rather than refuse)."""
    from migration_pair_ray.pipelines.feed import ack_feed, read_feed
    from migration_pair_ray.state.manifest import CheckpointStore
    from migration_pair_ray.tasks import task_history

    log, lake = tmp_lake
    generate_change_log(log, n_events=800, n_convs=8, n_files=2, seed=62)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=6)
    replay(cfg)

    pid = _nonempty_pid(lake)
    victim = sorted(Path(lake, f"part={pid:05d}").glob("state-*.parquet"))[0]
    os.remove(victim)
    s = refill_partition(cfg, pid)

    seqs = CheckpointStore(cfg.checkpoint_dir).pass_seqs()
    assert s["pass_id"] in seqs, "refill pass missing from checkpoint store"
    hist = task_history(cfg)["passes"]
    byid = {r["pass_id"]: r for r in hist}
    assert byid[s["pass_id"]]["kind"] == "refill"
    # manifest pass_id now resolves in the ledger (auditable trace)
    rec = json.loads(
        Path(lake, "_manifest", f"part-{pid:05d}.json").read_text())
    assert rec["pass_id"] == s["pass_id"]

    # a fresh consumer reads the whole stream across the refill pass
    # without error and lands on the frontier (refill contributes 0 rows)
    ds, frontier = read_feed(cfg, "c1")
    assert frontier == max(seqs.values())
    n_log = sum(pq.ParquetFile(f).metadata.num_rows
                for f in glob.glob(f"{log}/*.parquet"))
    assert ds.count() == n_log
    ack_feed(cfg, "c1", frontier)
    ds2, _ = read_feed(cfg, "c1")
    assert ds2.count() == 0


@pytest.mark.usefixtures("ray_session")
def test_refill_quarantine_scoped_to_partition(tmp_lake, tmp_path):
    """Round-4 ADVICE: the refill gate runs AFTER the partition filter,
    so each refill's dead-letter dir holds only the malformed rows
    attributed (sentinel-routed) to that partition — refilling every
    partition recreates the original reject set once, with no lake-wide
    duplication."""
    import pyarrow as pa
    import pyarrow.parquet as _pq
    from migration_pair_ray.stages.partition import partition_ids

    log, lake = tmp_lake
    files = generate_change_log(log, n_events=900, n_convs=8, n_files=2,
                                seed=63)
    t = _pq.read_table(files[0])
    conv = t.column("conv_id").to_pylist()
    for i in range(0, 30, 3):
        conv[i] = None                       # 10 unroutable rows
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                     pa.array(conv, pa.string()))
    _pq.write_table(t, files[0])

    qdir = tmp_path / "quarantine"
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    quarantine_dir=str(qdir))
    s = replay(cfg)
    assert s["quarantined"] == 10
    want = final_state(cfg).to_pandas().reset_index(drop=True)
    replay_dirs = set(qdir.glob("pass-*"))

    total_refilled = 0
    for pid in range(4):
        refill_partition(cfg, pid)
        new_dirs = set(qdir.glob("pass-*")) - replay_dirs
        pid_rows = 0
        for d in new_dirs:
            for f in d.glob("q-*.parquet"):
                qt = _pq.read_table(f)
                routed = partition_ids(qt, 4, "conv")
                assert (routed == pid).all(), \
                    f"refill of {pid} quarantined another partition's rows"
                pid_rows += qt.num_rows
        total_refilled += pid_rows
        replay_dirs |= new_dirs
    # union across all partitions == the original reject set, exactly once
    assert total_refilled == 10
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
