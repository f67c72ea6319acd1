"""Snapshot (EP2), bulk load (EP3) and compliance-gate (M5) parity tests."""

import glob
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.bulk_load import SchemaComplianceError, bulk_load
from migration_pair_ray.pipelines.compliance import check_compliance
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.pipelines.snapshot import snapshot
from migration_pair_ray.schemas import BASE_SCHEMA, CHANGE_SCHEMA


# ---------------- compliance (pure, no ray) ----------------

def test_strict_compliance_exact_match_required():
    rep = check_compliance(CHANGE_SCHEMA, CHANGE_SCHEMA, mode="strict")
    assert rep.compliant and rep.mismatch_count == 0


def test_strict_rejects_added_column():
    src = CHANGE_SCHEMA.append(pa.field("extra", pa.string()))
    rep = check_compliance(src, CHANGE_SCHEMA, mode="strict")
    assert not rep.compliant and rep.added == ["extra"] and rep.mismatch_count == 1


def test_evolve_allows_added_and_missing():
    src = pa.schema([f for f in CHANGE_SCHEMA if f.name != "tool"]).append(
        pa.field("new_col", pa.float64()))
    rep = check_compliance(src, CHANGE_SCHEMA, mode="evolve")
    assert rep.compliant and rep.added == ["new_col"] and rep.missing == ["tool"]


def test_evolve_rejects_incompatible_type():
    src = pa.schema([pa.field("turn_idx", pa.string()) if f.name == "turn_idx" else f
                     for f in CHANGE_SCHEMA])
    # string<->int32 unifies permissively? If not, mismatched. Either way the
    # report must be internally consistent.
    rep = check_compliance(src, CHANGE_SCHEMA, mode="evolve")
    assert rep.compliant == (not rep.mismatched)


# ---------------- snapshot ----------------

@pytest.mark.usefixtures("ray_session")
def test_snapshot_parquet_and_csv(tmp_lake, tmp_path):
    log, lake = tmp_lake
    generate_change_log(log, n_events=500, n_convs=8, n_files=2, tool_epoch=1, seed=21)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    pq_dir = str(tmp_path / "snap_pq")
    n = snapshot(cfg, pq_dir, fmt="parquet")
    got = duckdb.sql(
        f"SELECT conv_id,turn_idx,role,text,tool,ts FROM read_parquet('{pq_dir}/*.parquet') "
        "ORDER BY conv_id, turn_idx").df()
    assert n == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    csv_dir = str(tmp_path / "snap_csv")
    snapshot(cfg, csv_dir, fmt="csv", unix_ms_ts=True)
    got_csv = duckdb.sql(
        f"SELECT conv_id,turn_idx,role,text,tool,ts FROM read_csv('{csv_dir}/*.csv') "
        "ORDER BY conv_id, turn_idx").df()
    want_ms = want.copy()
    want_ms["ts"] = want_ms["ts"].astype("datetime64[ms]").astype("int64")
    pd.testing.assert_frame_equal(got_csv, want_ms, check_dtype=False)


# ---------------- bulk load ----------------

@pytest.mark.usefixtures("ray_session")
def test_bulk_load_csv_roundtrip(tmp_lake, tmp_path):
    """Extraction → Insertion round trip: snapshot a lake to CSV (unix-ms
    wire form), bulk-load the CSV into a fresh lake, states equal —
    the reference's EndToEnd equivalence."""
    log, lake = tmp_lake
    generate_change_log(log, n_events=400, n_convs=6, n_files=2, tool_epoch=1, seed=22)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    replay(cfg)
    want = final_state(cfg).to_pandas().reset_index(drop=True)

    csv_dir = str(tmp_path / "wire_csv")
    snapshot(cfg, csv_dir, fmt="csv", unix_ms_ts=True)

    cfg2 = JobConfig(changelog_dir=str(tmp_path / "nolog"),
                     lake_dir=str(tmp_path / "lake2"), num_partitions=4)
    os.makedirs(cfg2.changelog_dir, exist_ok=True)
    s = bulk_load(cfg2, f"{csv_dir}/", fmt="csv")
    assert s["rows_state"] == len(want)
    got = final_state(cfg2).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # idempotent: loading the same file again is a no-op
    s2 = bulk_load(cfg2, f"{csv_dir}/", fmt="csv")
    assert s2["skipped_partitions"] == s2["partitions"]


@pytest.mark.usefixtures("ray_session")
def test_bulk_load_csv_matches_duckdb_lww(tmp_path):
    """CSV ``bulk_load`` end to end against a DuckDB LWW oracle over the
    same rows: empty fields load as nulls, a redelivered row counts once,
    a later update wins, a delete removes its key, an equal ts orders by
    lsn and an older ts loses to a newer one whatever its lsn."""
    import csv
    header = ["conv_id", "turn_idx", "role", "text", "tool", "ts", "op",
              "lsn"]
    first = [
        ["c1", 0, "user", "hello", "", "2024-01-01 00:00:01", "I", 1],
        ["c1", 1, "assistant", "", "search", "2024-01-01 00:00:02", "I", 2],
        ["c2", 0, "", "no role", "calc", "2024-01-01 00:00:03", "I", 3],
        ["c3", 0, "user", "to delete", "", "2024-01-01 00:00:04", "I", 4],
        ["c3", 1, "user", "tie a", "", "2024-01-01 00:00:05", "I", 5],
        ["c4", 0, "tool", "", "calc", "2024-01-01 00:00:06", "I", 6],
    ]
    second = [
        first[0],                                            # redelivered
        ["c1", 1, "assistant", "edited", "", "2024-01-01 00:00:07", "U", 7],
        ["c3", 0, "", "", "", "2024-01-01 00:00:08", "D", 8],
        ["c3", 1, "user", "tie b", "calc", "2024-01-01 00:00:05", "U", 9],
        ["c2", 0, "user", "stale", "", "2024-01-01 00:00:00", "U", 10],
    ]
    src = tmp_path / "csv_in"
    src.mkdir()
    for name, rows in (("a.csv", first), ("b.csv", second)):
        with open(src / name, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
    cfg = JobConfig(changelog_dir=str(tmp_path / "nolog"),
                    lake_dir=str(tmp_path / "lake"), num_partitions=4)
    os.makedirs(cfg.changelog_dir, exist_ok=True)
    bulk_load(cfg, f"{src}/", fmt="csv")

    got = final_state(cfg, sort=True).to_pandas()
    want = duckdb.sql(f"""
        WITH raw AS (SELECT * FROM read_csv('{src}/*.csv', header=true,
                                            all_varchar=true)),
        ch AS (SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                      NULLIF(role, '') AS role, NULLIF(text, '') AS text,
                      NULLIF(tool, '') AS tool, CAST(ts AS TIMESTAMP) AS ts,
                      op, CAST(lsn AS BIGINT) AS lsn FROM raw),
        w AS (SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY ts DESC, lsn DESC) rn
              FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts FROM w
        WHERE rn = 1 AND op <> 'D' ORDER BY conv_id, turn_idx""").df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the cases the rows were written for actually survive to the answer
    assert list(zip(got["conv_id"], got["turn_idx"])) == [
        ("c1", 0), ("c1", 1), ("c2", 0), ("c3", 1), ("c4", 0)]
    assert got["role"].isna().sum() == 1 and got["text"].isna().sum() == 1
    assert list(got["text"])[1] == "edited" and list(got["text"])[3] == "tie b"


@pytest.mark.usefixtures("ray_session")
def test_bulk_load_strict_gate_aborts(tmp_lake, tmp_path):
    log, lake = tmp_lake
    bad = pa.table({"conv_id": pa.array(["a"]), "nonsense": pa.array([1])})
    import pyarrow.parquet as pq
    p = str(tmp_path / "bad.parquet")
    pq.write_table(bad, p)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, compliance="strict")
    with pytest.raises(SchemaComplianceError):
        bulk_load(cfg, p, fmt="parquet")


def test_cdc_changefeed_classification(tmp_path):
    """Changefeed semantics on a hand-built log: a key deleted after the
    checkpoint emits 'delete', a new key 'insert', a rewritten key
    'update', and an untouched key emits nothing."""
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    from migration_pair_ray.config import JobConfig
    from migration_pair_ray.pipelines.feed import diff_lakes
    from migration_pair_ray.pipelines.replay import replay

    def write_log(d, rows, name):
        os.makedirs(d, exist_ok=True)
        pq.write_table(pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array(["user"] * len(rows), pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
            "op": pa.array([r[4] for r in rows], pa.string()),
            "lsn": pa.array([r[5] for r in rows], pa.int64()),
        }), f"{d}/{name}")

    import datetime as dt
    t0 = dt.datetime(2024, 1, 1)
    t1 = dt.datetime(2024, 1, 2)
    pre = [("a", 0, "stable", t0, "I", 0),
           ("b", 0, "will-update", t0, "I", 1),
           ("c", 0, "will-delete", t0, "I", 2)]
    post = [("b", 0, "updated", t1, "U", 3),
            ("c", 0, None, t1, "D", 4),
            ("d", 0, "fresh", t1, "I", 5)]
    log_pre, log_full = str(tmp_path / "pre"), str(tmp_path / "full")
    write_log(log_pre, pre, "batch-00000.parquet")
    write_log(log_full, pre, "batch-00000.parquet")
    write_log(log_full, post, "batch-00001.parquet")
    cfg_a = JobConfig(changelog_dir=log_pre,
                      lake_dir=str(tmp_path / "lake_a"), num_partitions=4)
    cfg_b = JobConfig(changelog_dir=log_full,
                      lake_dir=str(tmp_path / "lake_b"), num_partitions=4)
    replay(cfg_a), replay(cfg_b)

    # the diff cdc_changefeed emits, on the same hand-built log
    got = diff_lakes(cfg_a, cfg_b).to_pandas().set_index("conv_id")
    assert sorted(got.index) == ["b", "c", "d"]      # "a" emits nothing
    assert got.loc["b", "change"] == "update"
    assert got.loc["b", "before_text"] == "will-update"
    assert got.loc["b", "after_text"] == "updated"
    assert got.loc["c", "change"] == "delete"        # deleted after checkpoint
    assert got.loc["c", "before_text"] == "will-delete"
    assert pd.isna(got.loc["c", "after_text"])
    assert got.loc["d", "change"] == "insert"        # inserted after checkpoint
    assert pd.isna(got.loc["d", "before_text"])
    assert got.loc["d", "after_text"] == "fresh"
