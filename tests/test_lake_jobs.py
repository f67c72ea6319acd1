"""Per-partition lake jobs (fsck, compaction, snapshot counts and exports,
value-index builds, replica audit, diff and repair, JSONL export) call
their kernels in plain Ray tasks.  With Ray Data's ``from_items`` and
``Dataset.groupby`` and any per-call ``ray.remote(...)(fn)`` of a package
function refused, every job still returns what its own tests expect."""

import os
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, read_lake, replay
from migration_pair_ray.state.manifest import LakeMeta, ManifestStore


@pytest.fixture()
def no_ray_data_fanout(monkeypatch):
    import ray
    import ray.data

    def refuse(*args, **kwargs):
        raise AssertionError("lake job planned a Ray Data from_items or "
                             "groupby fan-out")

    monkeypatch.setattr(ray.data, "from_items", refuse)
    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    real_remote = ray.remote

    def remote(*args, **kwargs):
        if args:                       # @ray.remote on a def or class
            return real_remote(*args, **kwargs)
        options = real_remote(**kwargs)

        def wrap(fn):
            if fn.__module__.startswith("migration_pair_ray"):
                raise AssertionError(
                    f"per-call remote definition of {fn.__qualname__}")
            return options(fn)
        return wrap

    monkeypatch.setattr(ray, "remote", remote)


def _fs(cfg) -> pd.DataFrame:
    return final_state(cfg).to_pandas().reset_index(drop=True)


def _passes(tmp_path, name: str, n_groups: int = 3, **cfg_kw) -> JobConfig:
    stage = tmp_path / f"{name}_stage"
    files = generate_change_log(str(stage), n_events=1800, n_convs=12,
                                n_files=2 * n_groups, tool_epoch=1, seed=77,
                                shuffle_window=300)
    log = tmp_path / f"{name}_log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / name),
                    num_partitions=4, hash_state=False, **cfg_kw)
    for i in range(n_groups):
        for f in files[2 * i:2 * i + 2]:
            os.link(f, log / Path(f).name)
        replay(cfg)
    return cfg


def _deltas(cfg) -> int:
    store = ManifestStore(cfg.manifest_dir)
    return sum(len((store.read(pid) or {}).get("delta_files", []))
               for pid in LakeMeta(cfg.lake_dir).active_partition_ids())


@pytest.mark.usefixtures("ray_session", "no_ray_data_fanout")
def test_row_lake_jobs_without_ray_data(tmp_path):
    from migration_pair_ray.pipelines.compact import compact_deltas
    from migration_pair_ray.pipelines.fsck import validate_lake
    from migration_pair_ray.pipelines.index import (build_value_index,
                                                    lookup_by_value)
    from migration_pair_ray.pipelines.snapshot import (snapshot,
                                                       snapshot_incremental)

    cfg = _passes(tmp_path, "mor", mor_max_deltas=8)
    before = _fs(cfg)
    assert _deltas(cfg) > 0
    for deep in (False, True):
        rep = validate_lake(cfg, deep=deep)
        assert rep["ok"], rep["problems"]
        assert rep["rows"] >= read_lake(cfg).count() > 0
        assert rep["files"] >= rep["partitions"] == 4
    assert snapshot(cfg, str(tmp_path / "snap")) == len(before)

    out = str(tmp_path / "export")
    s = snapshot_incremental(cfg, out)
    assert s["exported"] == s["partitions"] == 4
    assert s["rows_exported"] == len(before)
    exported = pd.concat([pd.read_parquet(p)
                          for p in sorted(Path(out).glob("part-*.parquet"))],
                         ignore_index=True)
    pd.testing.assert_frame_equal(
        exported.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True),
        before)

    stats = compact_deltas(cfg)
    assert stats["partitions_compacted"] > 0 and stats["files_deleted"] > 0
    assert _deltas(cfg) == 0
    pd.testing.assert_frame_equal(_fs(cfg), before)
    assert validate_lake(cfg, deep=True)["ok"]
    assert compact_deltas(cfg)["partitions_compacted"] == 0

    b = build_value_index(cfg, "role")
    assert b["partitions"] == b["reindexed"] == 4 and b["postings_rows"] > 0
    for role in sorted(before["role"].dropna().unique()):
        got = lookup_by_value(cfg, "role", [role]).to_pandas()
        want = before[before["role"] == role].reset_index(drop=True)
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                      check_dtype=False)
    assert build_value_index(cfg, "role")["reused"] == 4


@pytest.mark.usefixtures("ray_session", "no_ray_data_fanout")
def test_cell_lake_jobs_without_ray_data(tmp_path):
    from migration_pair_ray.pipelines.fsck import validate_lake
    from migration_pair_ray.pipelines.index import (build_value_index,
                                                    lookup_by_value)
    from migration_pair_ray.pipelines.snapshot import snapshot

    cfg = _passes(tmp_path, "cell", merge_kernel="cell", mor_max_deltas=3)
    before = _fs(cfg)
    assert snapshot(cfg, str(tmp_path / "snap")) == len(before)
    assert validate_lake(cfg, deep=True)["ok"]
    b = build_value_index(cfg, "role")
    assert b["reindexed"] == b["partitions"] == 4
    role = before["role"].dropna().iloc[0]
    got = lookup_by_value(cfg, "role", [role]).to_pandas()
    assert len(got) == int((before["role"] == role).sum()) > 0
    assert set(got["role"]) == {role}


def _ghost_batch() -> pa.Table:
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


@pytest.mark.usefixtures("ray_session", "no_ray_data_fanout")
def test_replica_jobs_without_ray_data(tmp_path):
    from migration_pair_ray.pipelines.feed import (diff_lakes, export_jsonl,
                                                   replicate, verify_replica)
    from migration_pair_ray.pipelines.repair import repair_replica

    src = _passes(tmp_path, "src", n_groups=2)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"), num_partitions=4,
                    hash_state=False)
    replicate(src, dst)
    assert verify_replica(src, dst).num_rows == 0
    assert verify_replica(src, dst, incremental=True).num_rows == 0
    assert diff_lakes(src, dst).count() == 0

    pq.write_table(_ghost_batch(),
                   str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)
    bad = verify_replica(src, dst)
    assert bad.num_rows > 0
    assert verify_replica(src, dst, incremental=True).equals(bad)
    diff = diff_lakes(src, dst).to_pandas().sort_values("turn_idx")
    assert diff["conv_id"].tolist() == ["zz-div", "zz-div2"]
    assert diff["change"].tolist() == ["insert", "insert"]
    assert diff["after_text"].tolist() == ["diverged", "also diverged"]

    s = repair_replica(src, dst)
    assert s["repaired"] and s["clean_after"] and s["keys"] >= 2
    pd.testing.assert_frame_equal(_fs(dst), _fs(src), check_dtype=False)
    assert diff_lakes(src, dst).count() == 0
    assert repair_replica(src, dst)["repaired"] is False

    wire = tmp_path / "wire"
    events = sum(pq.read_metadata(str(f)).num_rows
                 for f in Path(src.changelog_dir).glob("*.parquet"))
    e = export_jsonl(src, "mirror", str(wire), ack=True)
    assert e["passes"] == 2 and e["events"] == events
    lines = [len(f.read_text().splitlines())
             for f in sorted(wire.glob("feed-*.jsonl"))]
    assert len(lines) == 2 and sum(lines) == events
