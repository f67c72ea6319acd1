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


def _consume(ds) -> int:
    return sum(b.num_rows for b in ds.iter_batches(batch_size=None,
                                                   batch_format="pyarrow"))


@pytest.mark.usefixtures("ray_session")
def test_consumed_driver_reads_leave_no_block_pinned(tmp_path):
    """A driver-built scan or fetch frees its block when the consumer
    drops the Dataset, with no help from Python's cyclic GC: after five
    scans and five fetches the driver owns no more object refs than
    before them."""
    import gc

    from ray._private.worker import global_worker
    cfg, files = _bench_shaped_lake(tmp_path)
    convs = sorted(_oracle(files)["conv_id"].unique())[:3]

    def refs() -> int:
        return len(global_worker.core_worker.get_all_reference_counts())

    _consume(final_state(cfg, sort=False))           # warm-up
    _consume(fetch_conversations(cfg, convs))
    gc.collect()
    before = refs()
    gc.disable()
    try:
        for _ in range(5):
            assert _consume(final_state(cfg, sort=False))
            assert _consume(fetch_conversations(cfg, convs))
        after = refs()
    finally:
        gc.enable()
    assert after <= before


@pytest.mark.usefixtures("ray_session")
def test_turn_lookup_opens_one_file_of_each_kind(tmp_path, monkeypatch):
    """The fixed cost of a point lookup stays out: on the benchmark's
    layout one turn-level lookup reads ``_lake_meta.json`` once, one
    manifest, one bloom sidecar and one state file, and builds no
    ``pq.read_table``/``ParquetDataset`` plan."""
    import builtins
    from pathlib import Path

    import pyarrow.parquet as pq

    from migration_pair_ray.pipelines.lookup import lookup_keys
    cfg, files = _bench_shaped_lake(tmp_path)
    row = _oracle(files).iloc[7]
    key = ([row["conv_id"]], [int(row["turn_idx"])])
    assert lookup_keys(cfg, *key).num_rows == 1      # warm-up

    opened: list[str] = []

    def counting(owner, attr, path_of):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            opened.append(str(path_of(args)))
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counting(builtins, "open", lambda a: a[0])
    counting(Path, "read_bytes", lambda a: a[0])
    counting(pq, "ParquetFile", lambda a: a[0])
    counting(pq, "read_table", lambda a: "read_table")
    counting(pq, "ParquetDataset", lambda a: "ParquetDataset")
    got = lookup_keys(cfg, *key)
    monkeypatch.undo()
    assert got.num_rows == 1
    kinds = [Path(p).name if Path(p).name == "_lake_meta.json"
             else "manifest" if Path(p).parent.name == "_manifest"
             else "sidecar" if p.endswith(".bloom")
             else "state" if p.endswith(".parquet")
             else p for p in opened]
    assert sorted(kinds) == ["_lake_meta.json", "manifest", "sidecar",
                             "state"]
