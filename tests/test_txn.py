"""Transactional-consistency gate (pipelines/txn.py): hold-back of
uncommitted transactions, durable pending carry-forward across passes,
marker-registry release, crash/resume bit-identity, and composition with
quarantine."""

import hashlib
import pathlib

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.pipelines.txn import pending_table

COMMITTED_ORACLE = """
WITH ch AS (SELECT * FROM read_parquet('{log}/batch-*.parquet', union_by_name=true)),
committed AS (SELECT DISTINCT txn_id FROM ch WHERE op = 'C'),
ev AS (SELECT * FROM ch WHERE op <> 'C'
       AND (txn_id IS NULL OR txn_id IN (SELECT txn_id FROM committed))),
w AS (SELECT *, row_number() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ev)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM w WHERE rn = 1 AND op <> 'D'
ORDER BY conv_id, turn_idx
"""


def _mk_events(n: int, txn_of) -> pa.Table:
    """n events over 3 convs x 4 turns; txn_of(lsn) -> txn id or None."""
    return pa.table({
        "conv_id": pa.array([f"c{i % 3}" for i in range(n)], pa.string()),
        "turn_idx": pa.array([i % 4 for i in range(n)], pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"t{i}" for i in range(n)]),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([1000 + i for i in range(n)], pa.timestamp("us")),
        "op": pa.array(["I"] * n),
        "lsn": pa.array(list(range(n)), pa.int64()),
        "txn_id": pa.array([txn_of(i) for i in range(n)], pa.string()),
    })


def _marker(txn_id: str, lsn: int) -> pa.Table:
    return pa.table({
        "conv_id": pa.array([None], pa.string()),
        "turn_idx": pa.array([None], pa.int32()),
        "role": pa.array([None], pa.string()),
        "text": pa.array([None], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([None], pa.timestamp("us")),
        "op": pa.array(["C"], pa.string()),
        "lsn": pa.array([lsn], pa.int64()),
        "txn_id": pa.array([txn_id], pa.string()),
    })


@pytest.mark.usefixtures("ray_session")
def test_holdback_carry_forward_and_release(tmp_lake):
    log, lake = tmp_lake
    ev = _mk_events(12, lambda i: "t0" if i < 4 else ("t1" if i < 8 else None))
    pq.write_table(ev.slice(0, 8), f"{log}/batch-00000-000-007.parquet")
    pq.write_table(ev.slice(8, 4), f"{log}/batch-00001-008-011.parquet")
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    txn_boundary=True)
    r1 = replay(cfg)
    assert r1["txn_held"] == 8 and r1["txn_markers"] == 0
    s1 = final_state(cfg, sort=True).to_pandas()
    # only the 4 autocommit rows are visible; nothing transactional leaked
    assert len(s1) == 4 and set(s1["text"]) == {"t8", "t9", "t10", "t11"}
    assert "txn_id" not in s1.columns

    # t0's commit marker arrives; t1 stays in flight
    pq.write_table(_marker("t0", 100), f"{log}/batch-00002-100-100.parquet")
    r2 = replay(cfg)
    assert r2["txn_markers"] == 1
    assert r2["txn_held"] == 4            # t1 carried forward, still pending
    s2 = final_state(cfg, sort=True).to_pandas()
    assert len(s2) == 8
    assert set(pending_table(cfg)["txn_id"].to_pylist()) == {"t1"}
    assert replay(cfg)["up_to_date"]      # idempotent no-op

    # a LATE event of the already-committed t0 releases immediately via
    # the registry (marker seen in an earlier pass)
    late = _mk_events(12, lambda i: "t0").slice(2, 1)
    late = late.set_column(late.column_names.index("lsn"),
                           "lsn", pa.array([200], pa.int64()))
    late = late.set_column(late.column_names.index("text"),
                           "text", pa.array(["late"], pa.string()))
    pq.write_table(late, f"{log}/batch-00003-200-200.parquet")
    r3 = replay(cfg)
    assert r3["txn_held"] == 4            # only t1 pending, late row applied
    s3 = final_state(cfg, sort=True).to_pandas()
    assert "late" in set(s3["text"])


@pytest.mark.usefixtures("ray_session")
def test_generated_log_matches_committed_only_oracle(tmp_lake):
    """Realistic generated log (dups, tombstones, schema evolution) with a
    txn overlay: final state == DuckDB LWW over committed txns only."""
    log, lake = tmp_lake
    generate_change_log(log, n_events=900, n_convs=14, n_files=3,
                        tool_epoch=1, shuffle_window=120, seed=11)
    # overlay: txn = lsn // 5; txns with t % 4 == 1 never commit;
    # lsn % 7 == 3 rows are autocommit
    max_lsn = 0
    for p in sorted(pathlib.Path(log).glob("batch-*.parquet")):
        t = pq.read_table(str(p))
        lsn = t.column("lsn").to_pylist()
        max_lsn = max(max_lsn, max(lsn))
        txn = [None if l % 7 == 3 else f"t{l // 5}" for l in lsn]
        t = t.append_column("txn_id", pa.array(txn, pa.string()))
        pq.write_table(t, str(p))
    markers = [_marker(f"t{t}", max_lsn + 1 + t)
               for t in range(max_lsn // 5 + 1) if t % 4 != 1]
    pq.write_table(pa.concat_tables(markers),
                   f"{log}/batch-00099-markers.parquet")
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8,
                    txn_boundary=True)
    s = replay(cfg)
    assert s["txn_held"] > 0 and s["txn_markers"] > 0
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    want = duckdb.sql(COMMITTED_ORACLE.format(log=log)).df()
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True),
                                  check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_crash_resume_bit_identical_with_pending(tmp_lake):
    log, lake = tmp_lake
    ev = _mk_events(12, lambda i: "t0" if i < 6 else None)
    pq.write_table(ev, f"{log}/batch-00000-000-011.parquet")
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    txn_boundary=True)
    replay(cfg)

    def hashes(glob_pat):
        return {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(pathlib.Path(lake).glob(glob_pat))}

    state_before = hashes("part=*/state-*.parquet")
    pend_before = hashes("_txns/pending-*/p-*.parquet")
    assert pend_before                    # t0 is pending
    # die between the last partition commit and the pass checkpoint
    ck = sorted(pathlib.Path(lake).glob("_checkpoint/pass-*.json"))
    ck[-1].unlink()
    s = replay(cfg)
    assert s["skipped_partitions"] == s["partitions"]
    assert hashes("part=*/state-*.parquet") == state_before
    assert hashes("_txns/pending-*/p-*.parquet") == pend_before


@pytest.mark.usefixtures("ray_session")
def test_gate_is_identity_without_txn_column(tmp_lake):
    """txn_boundary on a plain (autocommit-only) log == plain replay."""
    log, lake = tmp_lake
    generate_change_log(log, n_events=500, n_convs=8, n_files=2, seed=7)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    txn_boundary=True)
    s = replay(cfg)
    assert s["txn_held"] == 0 and s["txn_markers"] == 0
    lake2 = lake + "_plain"
    cfg2 = JobConfig(changelog_dir=log, lake_dir=lake2, num_partitions=4)
    replay(cfg2)
    a = final_state(cfg, sort=True).to_pandas()
    b = final_state(cfg2, sort=True).to_pandas()
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_composes_with_quarantine(tmp_lake, tmp_path):
    """Markers (null keys by design) pass the txn gate unharmed; a
    genuinely malformed row inside a COMMITTED txn is still quarantined."""
    log, lake = tmp_lake
    ev = _mk_events(8, lambda i: "t0")
    # corrupt one committed-txn row: null conv_id
    conv = ev.column("conv_id").to_pylist()
    conv[3] = None
    ev = ev.set_column(0, "conv_id", pa.array(conv, pa.string()))
    pq.write_table(ev, f"{log}/batch-00000-000-007.parquet")
    pq.write_table(_marker("t0", 50), f"{log}/batch-00001-050-050.parquet")
    qdir = str(tmp_path / "quarantine")
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    txn_boundary=True, quarantine_dir=qdir)
    s = replay(cfg)
    assert s["quarantined"] == 1          # the null-key row, NOT the marker
    assert s["txn_held"] == 0
    got = final_state(cfg, sort=True).to_pandas()
    assert len(got) == 7                  # 8 committed rows - 1 quarantined


@pytest.mark.usefixtures("ray_session")
def test_driver_pass_scans_markers_without_tasks(tmp_lake, monkeypatch):
    """A txn-gated pass that fits one block reads its commit markers in
    the driver, like the rest of the pass: no remote function runs."""
    from ray.remote_function import RemoteFunction

    from migration_pair_ray.tasks import task_history
    log, lake = tmp_lake
    ev = _mk_events(12, lambda i: "t0" if i < 4 else ("t1" if i < 8 else None))
    pq.write_table(ev, f"{log}/batch-00000-000-011.parquet")
    pq.write_table(_marker("t0", 100), f"{log}/batch-00001-100-100.parquet")
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    txn_boundary=True)
    remote = RemoteFunction._remote
    called: list[str] = []

    def counting(self, *args, **kwargs):
        called.append(self._function_name)
        return remote(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counting)
    r = replay(cfg)
    monkeypatch.undo()
    assert (r["txn_markers"], r["txn_held"]) == (1, 4)
    (rec,) = task_history(cfg)["passes"]
    assert rec["executor"] == "driver"
    assert called == []
    got = final_state(cfg, sort=True).to_pandas()
    want = duckdb.sql(COMMITTED_ORACLE.format(log=log)).df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True),
                                  check_dtype=False)
