"""The lake read's two executors (``replay.read_in_driver``): a lake whose
Parquet footers declare at most Ray Data's block target is read in the
driver into ONE block; a larger one runs on Ray Data.  Both must give the
DuckDB last-writer-wins answer."""

import duckdb
import pandas as pd
import pytest
import ray.data

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.lookup import fetch_conversations
from migration_pair_ray.pipelines.replay import final_state, read_footer, replay
from migration_pair_ray.stages.applier import state_file_paths
from migration_pair_ray.state.manifest import LakeMeta, ManifestStore


def _bench_shaped_lake(tmp_path) -> tuple[JobConfig, list[str]]:
    """The serving benchmark's lake layout, scaled down: 16 conv-routed
    partitions, a column added mid-log, redelivered events."""
    log = tmp_path / "log"
    files = generate_change_log(str(log), n_events=4000, n_convs=60,
                                n_files=4, tool_epoch=2, dup_frac=0.03,
                                shuffle_window=500, seed=5)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=16, partition_mode="conv",
                    apply_concurrency=2)
    replay(cfg)
    return cfg, files


def _oracle(files: list[str]) -> pd.DataFrame:
    lst = ", ".join(f"'{f}'" for f in files)
    return duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet([{lst}], union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn
              FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df()


def _blocks(ds) -> list:
    return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _planned_bytes(cfg: JobConfig) -> int:
    store = ManifestStore(cfg.manifest_dir)
    return sum(read_footer(p)[1]
               for pid in LakeMeta(cfg.lake_dir).active_partition_ids(
                   cfg.num_partitions)
               for p in state_file_paths(cfg.lake_dir, store.read(pid)))


@pytest.mark.usefixtures("ray_session")
def test_bench_shaped_lake_scans_as_one_block(tmp_path):
    cfg, files = _bench_shaped_lake(tmp_path)
    want = _oracle(files)
    ds = final_state(cfg, sort=True)
    blocks = _blocks(ds)
    assert len(blocks) == 1
    assert "ReadParquet" not in ds.stats()
    got = blocks[0].to_pandas()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    convs = sorted(want["conv_id"].unique())[:3]
    fetched = _blocks(fetch_conversations(cfg, convs))
    assert len(fetched) == 1
    assert fetched[0].num_rows == int(want["conv_id"].isin(convs).sum())


@pytest.mark.usefixtures("ray_session")
def test_footers_over_block_target_read_distributed(tmp_path):
    """The predicate is the footers' uncompressed bytes against Ray
    Data's ``target_max_block_size``: at the boundary the read stays in
    the driver, one byte below it the same read runs on Ray Data."""
    cfg, files = _bench_shaped_lake(tmp_path)
    want = _oracle(files)
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    planned = _planned_bytes(cfg)
    try:
        ctx.target_max_block_size = planned
        at = final_state(cfg, sort=True)
        assert len(_blocks(at)) == 1
        assert "ReadParquet" not in at.stats()
        ctx.target_max_block_size = planned - 1
        over = final_state(cfg, sort=True)
        got = over.to_pandas()
        assert "ReadParquet" in over.stats()
    finally:
        ctx.target_max_block_size = saved
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
