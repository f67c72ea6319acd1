"""Schema evolution beyond added columns: TYPE WIDENING across change
files — int32 → int64 turn_idx, unix-epoch-ms integer ``ts`` wire form
mixed with real timestamps — must replay exactly, in one pass and across
passes (widening through already-committed narrower state)."""

import os
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.schemas import unify_change_schemas


def _ts(us: int):
    return us


def _write_mixed_log(log: str) -> tuple[str, str]:
    """Two change files: file 0 narrow (int32 turn_idx, timestamp ts, no
    tool), file 1 widened (int64 turn_idx, int64 unix-ms ts, tool)."""
    os.makedirs(log, exist_ok=True)
    f0 = pa.table({
        "conv_id": pa.array(["a", "a", "b", "b"], pa.string()),
        "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
        "role": pa.array(["user", "assistant", "user", "assistant"]),
        "text": pa.array(["q1", "a1", "q2", "a2"]),
        "ts": pa.array([1_000_000, 2_000_000, 3_000_000, 4_000_000],
                       pa.timestamp("us")),
        "op": pa.array(["I", "I", "I", "I"]),
        "lsn": pa.array([0, 1, 2, 3], pa.int64()),
    })
    # ts arrives as unix epoch MILLISECONDS (the reference's wire form);
    # one row updates a file-0 key with a LATER ts, one deletes, one adds
    f1 = pa.table({
        "conv_id": pa.array(["a", "b", "c"], pa.string()),
        "turn_idx": pa.array([1, 0, 7], pa.int64()),
        "role": pa.array(["assistant", None, "user"]),
        "text": pa.array(["a1-edited", None, "q3"]),
        "tool": pa.array(["search", None, None], pa.string()),
        "ts": pa.array([5_000, 6_000, 7_000], pa.int64()),   # ms
        "op": pa.array(["U", "D", "I"]),
        "lsn": pa.array([4, 5, 6], pa.int64()),
    })
    p0, p1 = f"{log}/batch-00000.parquet", f"{log}/batch-00001.parquet"
    pq.write_table(f0, p0)
    pq.write_table(f1, p1)
    return p0, p1


ORACLE = """
WITH ch AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, role, text,
         NULL AS tool, ts, op, lsn
  FROM read_parquet('{p0}')
  UNION ALL
  SELECT conv_id, turn_idx, role, text, tool, epoch_ms(ts) AS ts, op, lsn
  FROM read_parquet('{p1}')
),
w AS (SELECT *, row_number() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM w WHERE rn = 1 AND op <> 'D'
ORDER BY conv_id, turn_idx"""


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].sort_values(["conv_id", "turn_idx"])
    return df.reset_index(drop=True)


def test_unify_reconciles_wire_forms():
    s_narrow = pa.schema([pa.field("turn_idx", pa.int32()),
                          pa.field("ts", pa.timestamp("us"))])
    s_wide = pa.schema([pa.field("turn_idx", pa.int64()),
                        pa.field("ts", pa.int64())])
    u = unify_change_schemas([s_narrow, s_wide])
    assert u.field("turn_idx").type == pa.int64()
    assert u.field("ts").type == pa.timestamp("us")


@pytest.mark.usefixtures("ray_session")
def test_widening_single_pass(tmp_path):
    log = str(tmp_path / "log")
    p0, p1 = _write_mixed_log(log)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=2, hash_state=False)
    replay(cfg)
    got = _norm(final_state(cfg).to_pandas())
    want = _norm(duckdb.sql(ORACLE.format(p0=p0, p1=p1)).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["turn_idx"].dtype == "int64"


@pytest.mark.usefixtures("ray_session")
def test_widening_across_passes(tmp_path):
    """File 0 commits as int32/no-tool state; file 1 widens it in a second
    pass — the merge promotes the committed narrower state."""
    stage = str(tmp_path / "stage")
    p0, p1 = _write_mixed_log(stage)
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=2, hash_state=False)
    os.link(p0, log / Path(p0).name)
    replay(cfg)
    os.link(p1, log / Path(p1).name)
    replay(cfg)
    got = _norm(final_state(cfg).to_pandas())
    want = _norm(duckdb.sql(ORACLE.format(p0=p0, p1=p1)).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # idempotent re-run unchanged
    assert replay(cfg)["up_to_date"]
    pd.testing.assert_frame_equal(_norm(final_state(cfg).to_pandas()), want,
                                  check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_schema_history_audit(tmp_path):
    """Each pass records its unified schema; the audit log diffs them:
    the second pass shows tool ADDED and turn_idx/ts RETYPED."""
    from migration_pair_ray.pipelines.compliance import schema_history
    stage = str(tmp_path / "stage")
    p0, p1 = _write_mixed_log(stage)
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=2, hash_state=False)
    os.link(p0, log / Path(p0).name)
    replay(cfg)
    os.link(p1, log / Path(p1).name)
    replay(cfg)
    hist = schema_history(cfg)
    assert [h["seq"] for h in hist] == [0, 1]
    assert hist[0]["schema"]["turn_idx"] == "int32"
    assert "tool" not in hist[0]["schema"]
    assert hist[1]["added"] == ["tool"]
    assert any(r.startswith("turn_idx: int32 -> int64")
               for r in hist[1]["retyped"])
    # ts arrived as ms ints in pass 2 but reconciles to timestamp (wire
    # rule applies within the pass's own unified schema: single-type pass
    # keeps int64 -- the reconciliation happens at merge/read)
    from migration_pair_ray.tasks import run_task
    assert run_task("schema_history", cfg)["history"] == hist


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_widening_single_pass_distributed(tmp_path):
    test_widening_single_pass(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_widening_across_passes_distributed(tmp_path):
    test_widening_across_passes(tmp_path)


def test_compliance_accepts_widening_rejects_narrowing_conflict():
    from migration_pair_ray.pipelines.compliance import check_compliance
    tgt = pa.schema([pa.field("turn_idx", pa.int64()),
                     pa.field("ts", pa.timestamp("us"))])
    src_ok = pa.schema([pa.field("turn_idx", pa.int32()),
                        pa.field("ts", pa.int64())])
    rep = check_compliance(src_ok, tgt, mode="evolve")
    assert rep.compliant, rep
    src_bad = pa.schema([pa.field("turn_idx", pa.list_(pa.int64())),
                         pa.field("ts", pa.timestamp("us"))])
    rep2 = check_compliance(src_bad, tgt, mode="evolve")
    assert not rep2.compliant and rep2.mismatched == ["turn_idx"]


def test_large_string_promotion_survives_merge():
    """A batch whose text payload exceeds Arrow's 2^31-1 single-array
    offset cap must flow through normalize and BOTH merge kernels: the
    32-bit string type fails sort_by/combine_chunks with 'offset
    overflow while concatenating arrays' (measured), so the engine
    promotes to large_string/large_binary at the cap (round-4 VERDICT
    item 9 — the changegen hit this at 1e8 rows)."""
    import numpy as np
    import pyarrow.compute as pc
    from migration_pair_ray.functions.lww import lww_reduce
    from migration_pair_ray.functions.normalize import (
        LARGE_PROMOTE_BYTES, normalize_batch, promote_large_strings)
    from migration_pair_ray.schemas import CHANGE_SCHEMA

    big = "x" * (8 << 20)                       # 8 MiB per row
    chunk = pa.array([big] * 100)               # ~800 MiB per chunk
    text = pa.chunked_array([chunk] * 3)        # ~2.4 GiB logical column
    assert text.nbytes >= LARGE_PROMOTE_BYTES
    n = 300
    t = pa.table({
        "conv_id": pa.array([f"c{i % 5}" for i in range(n)]),
        "turn_idx": pa.array([(i // 5) % 6 for i in range(n)], pa.int32()),
        "role": pa.array(["user"] * n),
        "text": text,
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([1_000_000 + i for i in range(n)],
                       pa.timestamp("us")),
        "op": pa.array(["U"] * n),
        "lsn": pa.array(list(range(n)), pa.int64()),
    })

    # the unpromoted 32-bit type really cannot survive the merge sort —
    # the guard exists because this raises
    with pytest.raises(pa.lib.ArrowInvalid, match="offset overflow"):
        t.sort_by([("conv_id", "ascending")])

    norm = normalize_batch(t, CHANGE_SCHEMA)
    assert norm.schema.field("text").type == pa.large_string()

    red = lww_reduce(norm)                      # sorts + filters: survives
    assert red.num_rows == 30                   # one winner per (conv, turn)
    assert red.schema.field("text").type == pa.large_string()
    # winner per key is the max-lsn row; text bytes intact
    assert red.column("text")[0].as_py() == big

    # raw (un-normalized) batches entering the kernel directly are
    # promoted by the kernel itself
    red2 = lww_reduce(t)
    assert red2.num_rows == 30

    # small batches stay on 32-bit offsets — promotion is a no-op
    small = promote_large_strings(t.slice(0, 2))
    assert small.schema.field("text").type == pa.string()

    # string + large_string change files unify to large_string, so a
    # promoted file coexists with ordinary files in one pass
    from migration_pair_ray.schemas import unify_change_schemas
    u = unify_change_schemas([CHANGE_SCHEMA, norm.schema])
    assert u.field("text").type == pa.large_string()
