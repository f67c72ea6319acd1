"""Durability / configuration-contract tests:

* lake layout metadata: a replay or bulk load into an existing lake with a
  different num_partitions/partition_mode must abort (silent key-routing
  corruption otherwise);
* append-only change log: a committed file modified in place must raise on
  resume, not be silently skipped;
* CSV delimiter/header parity (reference SettingsModel Delimiter /
  HasHeaderRecord): headerless ';'-delimited snapshot → bulk-load round trip;
* mid-task applier retry: an injected one-shot task failure must be
  retried by Ray and yield a bit-identical lake (manifest-gated
  exactly-once under retries).
"""

import hashlib
import pathlib

import pandas as pd
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.bulk_load import bulk_load
from migration_pair_ray.pipelines.replay import (
    apply_changes_ds, final_state, replay)
from migration_pair_ray.pipelines.snapshot import snapshot
from migration_pair_ray.state.manifest import LakeLayoutError, compute_pass_id

REPO = pathlib.Path(__file__).resolve().parents[1]  # repository root


@pytest.mark.usefixtures("ray_session")
def test_lake_layout_change_aborts(tmp_lake, tmp_path):
    log, lake = tmp_lake
    generate_change_log(log, n_events=300, n_convs=6, n_files=2, seed=51)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    replay(cfg)
    # more change files arrive; the operator "helpfully" bumps partitions
    generate_change_log(str(tmp_path / "extra"), n_events=100, n_convs=6,
                        n_files=1, seed=52)
    src = next(pathlib.Path(str(tmp_path / "extra")).glob("batch-*.parquet"))
    src.rename(pathlib.Path(log) / f"batch-99999-{src.name.split('-', 2)[2]}")
    bad = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8)
    with pytest.raises(LakeLayoutError):
        replay(bad)
    bad_mode = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                         partition_mode="key")
    with pytest.raises(LakeLayoutError):
        replay(bad_mode)
    with pytest.raises(LakeLayoutError):
        bulk_load(bad, str(tmp_path / "whatever.parquet"), fmt="parquet")


@pytest.mark.usefixtures("ray_session")
def test_modified_committed_file_raises(tmp_lake):
    log, lake = tmp_lake
    generate_change_log(log, n_events=300, n_convs=6, n_files=2, seed=53)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    replay(cfg)
    committed = sorted(pathlib.Path(log).glob("batch-*.parquet"))[0]
    with open(committed, "ab") as f:     # in-place mutation (size change)
        f.write(b"garbage")
    with pytest.raises(RuntimeError, match="append-only"):
        replay(cfg)


@pytest.mark.usefixtures("ray_session")
def test_headerless_semicolon_csv_roundtrip(tmp_lake, tmp_path):
    """Reference bread-and-butter wire format: delimiter=';', no header
    (Models/SettingsModel.cs Delimiter/HasHeaderRecord; positional binding
    Tasks/Insertion.cs:101-102 — here by schema-order name assignment)."""
    log, lake = tmp_lake
    generate_change_log(log, n_events=400, n_convs=6, n_files=2,
                        tool_epoch=1, seed=54)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    csv_delimiter=";", csv_has_header=False)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    csv_dir = str(tmp_path / "wire")
    snapshot(cfg, csv_dir, fmt="csv", unix_ms_ts=True)
    # really headerless ';' files
    first = sorted(pathlib.Path(csv_dir).glob("*.csv"))[0].read_text().splitlines()[0]
    assert ";" in first and "conv_id" not in first

    cfg2 = JobConfig(changelog_dir=str(tmp_path / "nolog"),
                     lake_dir=str(tmp_path / "lake2"), num_partitions=4,
                     csv_delimiter=";", csv_has_header=False)
    pathlib.Path(cfg2.changelog_dir).mkdir(parents=True, exist_ok=True)
    bulk_load(cfg2, f"{csv_dir}/", fmt="csv")
    got = final_state(cfg2).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _state_hashes(lake: str) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(pathlib.Path(lake).glob("part=*/state-*.parquet"))}


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_applier_midtask_retry_bit_identical(tmp_lake, tmp_path):
    """On the task executor (the fault's ``os._exit`` would end the
    driver executor's own process), a merge task killed mid-task is
    retried and the lake is bit-identical to an undisturbed one."""
    log, lake = tmp_lake
    generate_change_log(log, n_events=400, n_convs=8, n_files=2,
                        tool_epoch=1, seed=55)
    from migration_pair_ray.sources.changelog import discover, unified_schema
    files = discover(log)
    pass_id = compute_pass_id(files)
    schema = unified_schema(files)

    lake2 = str(tmp_path / "undisturbed")
    cfg_flaky = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    cfg_clean = JobConfig(changelog_dir=log, lake_dir=lake2, num_partitions=4)

    from migration_pair_ray.testing import fault_injecting_merge
    lineage, plan, _ = apply_changes_ds([(files, [])], schema, cfg_flaky,
                                        pass_id, merge_fn=fault_injecting_merge)
    assert plan["executor"] == "ray_data"
    # the injected crash did fire
    assert (pathlib.Path(lake) / "_fault_injected_once").exists()
    assert lineage.num_rows == 4
    apply_changes_ds([(files, [])], schema, cfg_clean, pass_id)
    assert _state_hashes(lake) == _state_hashes(lake2)


@pytest.mark.usefixtures("ray_session")
def test_passes_release_their_cpus(tmp_lake, tmp_path, cpus_back):
    """Back-to-back passes (no gc.collect between them, as the tail loop
    runs them) give every logical CPU they took back when they return:
    a merge stage still holding CPUs after a pass stalls the next one.
    These passes fit one block, so they run on the driver executor;
    ``repartition_lake`` always runs on Ray tasks."""
    _passes_release_their_cpus(tmp_lake, tmp_path, cpus_back, "driver")


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_passes_release_their_cpus_distributed(tmp_lake, tmp_path,
                                               cpus_back):
    """The same passes on the task executor, whose route and merge
    stages run in Ray tasks."""
    _passes_release_their_cpus(tmp_lake, tmp_path, cpus_back, "ray_data")


def _passes_release_their_cpus(tmp_lake, tmp_path, cpus_back, executor: str):
    import dataclasses
    import ray
    from migration_pair_ray.pipelines.replay import repartition_lake

    log, lake = tmp_lake
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8,
                    apply_concurrency=2)
    for i in range(4):
        gen = str(tmp_path / f"gen{i}")
        generate_change_log(gen, n_events=400, n_convs=8, n_files=1,
                            tool_epoch=1, seed=70 + i)
        src = next(pathlib.Path(gen).glob("batch-*.parquet"))
        src.rename(pathlib.Path(log)
                   / f"batch-{i:05d}-{src.name.split('-', 2)[2]}")
        before = ray.available_resources().get("CPU", 0.0)
        assert replay(cfg)["files"] == 1
        assert cpus_back(before) >= before, f"pass {i} kept CPUs"
    from migration_pair_ray.tasks import task_history
    assert {p["executor"] for p in task_history(cfg)["passes"]} == {executor}
    before = ray.available_resources().get("CPU", 0.0)
    repartition_lake(cfg, dataclasses.replace(
        cfg, lake_dir=str(tmp_path / "lake4"), num_partitions=4))
    assert cpus_back(before) >= before, "repartition_lake kept CPUs"


@pytest.mark.usefixtures("ray_session")
def test_skewed_replay_with_chunked_merge(tmp_lake):
    """VERDICT #10 done-criterion: a deliberately skewed log (one
    conversation ~50% of all events) replayed in mode='conv' with a tiny
    merge_chunk_rows (forcing the key-range chunked merge path) still
    matches the DuckDB oracle."""
    import duckdb
    log, lake = tmp_lake
    generate_change_log(log, n_events=2000, n_convs=10, n_files=3,
                        hot_frac=0.5, tool_epoch=1, seed=56)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    partition_mode="conv", merge_chunk_rows=37)
    replay(cfg)
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    want = duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet('{log}/*.parquet', union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_repartition_lake_relayout_and_resume(tmp_lake, tmp_path):
    """COMPACTION.md re-layout job: rebuild a P=4/'conv' lake as
    P=8/'key', final state identical; change-log consumption RESUMES
    against the new lake (carried checkpoints skip consumed files, new
    files apply) and the combined state still matches the full-log
    oracle."""
    import dataclasses
    import duckdb
    import glob
    import os
    from migration_pair_ray.pipelines.replay import repartition_lake

    log, lake = tmp_lake
    generate_change_log(log, n_events=600, n_convs=10, n_files=2,
                        tool_epoch=1, seed=57)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    partition_mode="conv")
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    new_cfg = dataclasses.replace(cfg, lake_dir=str(tmp_path / "lake8"),
                                  num_partitions=8, partition_mode="key")
    s = repartition_lake(cfg, new_cfg)
    assert s["partitions"] >= 1
    got = final_state(new_cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # in-place re-layout must refuse
    with pytest.raises(ValueError, match="NEW lake directory"):
        repartition_lake(cfg, dataclasses.replace(cfg, num_partitions=8))

    # new change files arrive AFTER the re-layout → only they apply
    extra = str(tmp_path / "extra")
    generate_change_log(extra, n_events=300, n_convs=10, n_files=1,
                        tool_epoch=0, seed=58)
    for i, p in enumerate(sorted(glob.glob(f"{extra}/*.parquet"))):
        os.rename(p, os.path.join(log, f"batch-{50 + i:05d}-"
                                  + os.path.basename(p).split("-", 2)[2]))
    s2 = replay(new_cfg)
    assert s2["files"] == 1 and not s2["up_to_date"]
    got2 = final_state(new_cfg).to_pandas().reset_index(drop=True)
    oracle = duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet('{log}/*.parquet', union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got2, oracle, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_tail_task_applies_arriving_batches(tmp_lake, tmp_path):
    """Binlog-tail loop: first poll applies the initial files; a file
    arriving between polls is applied by the next one; idle polls no-op."""
    import glob
    import os
    import threading
    import duckdb
    from migration_pair_ray.tasks import run_task

    log, lake = tmp_lake
    generate_change_log(log, n_events=300, n_convs=6, n_files=1, seed=60)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)

    extra = str(tmp_path / "late")
    generate_change_log(extra, n_events=200, n_convs=6, n_files=1,
                        tool_epoch=0, seed=61)

    def drop_late_file():
        p = sorted(glob.glob(f"{extra}/*.parquet"))[0]
        os.rename(p, os.path.join(
            log, "batch-00900-" + os.path.basename(p).split("-", 2)[2]))

    t = threading.Timer(1.0, drop_late_file)
    t.start()
    s = run_task("tail", cfg, poll_s=0.6, max_polls=6)
    t.join()
    assert s["passes_applied"] == 2 and s["polls"] == 6
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    want = duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet('{log}/*.parquet', union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_tail_cli_survives_sigkill_mid_pass(tmp_path):
    """Daemon-form crash property: the tail CLI killed with SIGKILL while
    applying a pass leaves a lake a restarted tailer completes to exactly
    the oracle state — the manifest-gated idempotent commit argument,
    proven for the long-running loop.  The 12k-event log fits one block,
    so the kill lands in the driver executor, between or inside the
    per-partition merges of the tail process itself."""
    import glob
    import json
    import os
    import signal
    import subprocess
    import sys
    import time

    import duckdb

    log = tmp_path / "log"
    generate_change_log(str(log), n_events=12000, n_convs=30, n_files=3,
                        tool_epoch=1, shuffle_window=500, seed=91)
    # short lease TTL: the killed holder's lease must expire before the
    # restart may take over (liveness is TTL-based, never pid-probing —
    # pids are meaningless across nodes)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=8, writer_lease_ttl_s=5.0)
    cfg_path = tmp_path / "job.json"
    cfg.to_json(cfg_path)

    argv = [sys.executable, "-m", "migration_pair_ray", "tail",
            "--config", str(cfg_path), "--num-cpus", "4",
            "--poll-s", "0.2", "--max-polls", "2"]
    proc = subprocess.Popen(argv, cwd=REPO,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # kill as soon as the applier starts committing state (mid-pass for
    # the remaining partitions); fall back to a hard deadline if the
    # machine finishes the whole pass before we see it
    deadline = time.time() + 120
    while time.time() < deadline and proc.poll() is None:
        if glob.glob(str(tmp_path / "lake" / "part=*" / "state-*.parquet")):
            break
        time.sleep(0.02)
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=60)
    time.sleep(6)   # let the dead holder's lease expire

    # restart: the tailer completes whatever the kill left behind
    out = subprocess.run(
        [sys.executable, "-m", "migration_pair_ray", "tail",
         "--config", str(cfg_path), "--num-cpus", "4",
         "--poll-s", "0.0", "--max-polls", "1"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["final_lag"]["pending_files"] == 0

    got = final_state(cfg).to_pandas().reset_index(drop=True)
    want = duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet('{log}/*.parquet',
                    union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx
                ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
