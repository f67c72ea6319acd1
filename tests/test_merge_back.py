"""Merge-back (un-split) — pipelines/compact.merge_partition.

Contract: the inverse of split_partition.  A split base's children fold
back into the base without touching other partitions; routing flips
atomically at the _lake_meta rewrite; subsequent replay routes to the
base; the final state stays bit-identical to a never-split lake; a future
re-split never reuses the retired child ids.
"""

import glob

import duckdb
import pandas as pd
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.compact import (
    maybe_merge_undersized,
    merge_partition,
    split_partition,
)
from migration_pair_ray.pipelines.fsck import validate_lake
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.state.manifest import LakeMeta, ManifestStore


def _oracle(log: str) -> pd.DataFrame:
    return duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet('{log}/*.parquet', union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)


def _fs(cfg: JobConfig) -> pd.DataFrame:
    return final_state(cfg).to_pandas().reset_index(drop=True)


def _heaviest(cfg: JobConfig) -> int:
    store = ManifestStore(cfg.manifest_dir)
    sizes = {pid: store.read(pid)["row_count"]
             for pid in LakeMeta(cfg.lake_dir).active_partition_ids()
             if store.read(pid)}
    return max(sizes, key=sizes.get)


@pytest.mark.usefixtures("ray_session")
def test_merge_back_bit_identical(tmp_lake, tmp_path):
    log, lake = tmp_lake
    generate_change_log(log, n_events=1600, n_convs=8, n_files=2,
                        tool_epoch=1, hot_frac=0.5, seed=61)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    hash_state=False)
    replay(cfg)
    store = ManifestStore(cfg.manifest_dir)
    hot = _heaviest(cfg)
    s = split_partition(cfg, hot, fanout=2)
    assert len(s["children"]) == 2

    others_before = {pid: store.read(pid)["data_file"] for pid in range(4)
                     if pid != hot and store.read(pid)}

    m = merge_partition(cfg, hot)
    assert not m["already_merged"] and m["rows"] == s["rows"]
    meta = LakeMeta(cfg.lake_dir)
    assert meta.splits() == {}
    assert store.read(hot) is not None
    assert all(store.read(c) is None for c in s["children"])
    # no child state files linger; other partitions byte-untouched
    assert not glob.glob(f"{lake}/part=*/state-*.parquet".replace(
        "part=*", f"part={s['children'][0]:05d}"))
    for pid, df in others_before.items():
        assert store.read(pid)["data_file"] == df

    pd.testing.assert_frame_equal(_fs(cfg), _oracle(log))
    assert validate_lake(cfg, deep=True)["ok"]

    # replay NEW files after the merge: events route to the base again
    import os
    from pathlib import Path
    more = generate_change_log(str(tmp_path / "more"), n_events=900,
                               n_convs=8, n_files=1, tool_epoch=0,
                               hot_frac=0.5, seed=62)
    os.link(more[0], Path(log) / "batch-00090.parquet")
    replay(cfg)
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(log))
    assert validate_lake(cfg, deep=True)["ok"]

    # idempotent: merging again is a no-op
    assert merge_partition(cfg, hot)["already_merged"]


@pytest.mark.usefixtures("ray_session")
def test_split_and_merge_back_keep_chunks(tmp_lake):
    """A chunked lake's split children and merged-back base are written
    as key-range chunks (``state_chunk_rows``), as every other state
    writer's output is, and reads stay equal to the LWW oracle."""
    from migration_pair_ray.pipelines.lookup import lookup_keys
    log, lake = tmp_lake
    generate_change_log(log, n_events=1600, n_convs=8, n_files=2,
                        tool_epoch=1, hot_frac=0.5, seed=61)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    state_chunk_rows=40)
    replay(cfg)
    store = ManifestStore(cfg.manifest_dir)
    want = _oracle(log)
    convs = sorted(want["conv_id"].unique())[::2]
    subset = want[want["conv_id"].isin(convs)].reset_index(drop=True)

    def reads_match() -> None:
        pd.testing.assert_frame_equal(_fs(cfg), want)
        got = (lookup_keys(cfg, convs).to_pandas()[list(want.columns)]
               .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, subset, check_dtype=False)

    hot = _heaviest(cfg)
    s = split_partition(cfg, hot, fanout=2)
    children = [store.read(c) for c in s["children"]]
    assert all("data_files" in m for m in children if m["row_count"])
    assert sum(len(m.get("data_files", [])) for m in children) > 2
    reads_match()

    merge_partition(cfg, hot)
    m = store.read(hot)
    assert "data_file" not in m and len(m["data_files"]) > 1, m
    reads_match()
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_re_split_after_merge_uses_fresh_gen(tmp_lake):
    log, lake = tmp_lake
    generate_change_log(log, n_events=1200, n_convs=8, n_files=1,
                        tool_epoch=0, hot_frac=0.5, seed=67)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    hash_state=False)
    replay(cfg)
    hot = _heaviest(cfg)
    s1 = split_partition(cfg, hot, fanout=2)
    merge_partition(cfg, hot)
    assert LakeMeta(cfg.lake_dir).gen_floor(hot) == 2
    s2 = split_partition(cfg, hot, fanout=2)
    # retired ids never reused
    assert set(s1["children"]).isdisjoint(s2["children"])
    assert s2["gen"] == 2
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(log))
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_maybe_merge_undersized_threshold(tmp_lake):
    log, lake = tmp_lake
    generate_change_log(log, n_events=1500, n_convs=8, n_files=1,
                        tool_epoch=0, hot_frac=0.5, seed=71)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    hash_state=False)
    replay(cfg)
    store = ManifestStore(cfg.manifest_dir)
    sizes = {pid: store.read(pid)["row_count"] for pid in range(4)
             if store.read(pid)}
    hot = max(sizes, key=sizes.get)
    cold = min(sizes, key=sizes.get)
    split_partition(cfg, hot, fanout=2)
    split_partition(cfg, cold, fanout=2)
    # threshold between the two bases' sizes: only the cold base merges
    thresh = (sizes[cold] + sizes[hot]) // 2
    merged = maybe_merge_undersized(cfg, thresh)
    assert [m["base_pid"] for m in merged] == [cold]
    assert set(LakeMeta(cfg.lake_dir).splits()) == {hot}
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(log))


@pytest.mark.usefixtures("ray_session")
def test_merge_crash_before_meta_flip_resumes(tmp_lake, monkeypatch):
    """Crash between the base commit and the meta rewrite: the lake still
    reads as the children (old view); re-running completes the merge."""
    log, lake = tmp_lake
    generate_change_log(log, n_events=1200, n_convs=8, n_files=1,
                        tool_epoch=0, hot_frac=0.5, seed=73)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    hash_state=False)
    replay(cfg)
    before = _fs(cfg)
    hot = _heaviest(cfg)
    split_partition(cfg, hot, fanout=2)

    real = LakeMeta.record_unsplit
    boom = {"armed": True}

    def crashing(self, base_pid):
        if boom["armed"]:
            boom["armed"] = False
            raise RuntimeError("injected crash before meta flip")
        return real(self, base_pid)

    monkeypatch.setattr(LakeMeta, "record_unsplit", crashing)
    with pytest.raises(RuntimeError, match="injected"):
        merge_partition(cfg, hot)
    # old view intact: children still route/enumerate
    assert hot in LakeMeta(cfg.lake_dir).splits()
    pd.testing.assert_frame_equal(_fs(cfg), before)
    # re-run completes (idempotent base commit, then the flip)
    m = merge_partition(cfg, hot)
    assert not m["already_merged"]
    assert LakeMeta(cfg.lake_dir).splits() == {}
    pd.testing.assert_frame_equal(_fs(cfg), before)
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_time_travel_around_merge(tmp_path):
    """A merged-back base is stamped with the last committed pass: as-of
    that pass (and 'latest') resolve to it, while a genuinely pre-merge
    pass whose covering child records were GC'd raises."""
    import os
    from pathlib import Path
    from migration_pair_ray.state.manifest import TimeTravelError

    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1500, n_convs=10,
                                n_files=4, tool_epoch=1, hot_frac=0.5,
                                seed=79)
    log = tmp_path / "log"
    log.mkdir()
    for f in files[:2]:
        os.link(f, Path(log) / Path(f).name)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=4, hash_state=False)
    s1 = replay(cfg)
    hot = _heaviest(cfg)
    split_partition(cfg, hot, fanout=2)
    for f in files[2:]:
        os.link(f, Path(log) / Path(f).name)
    s2 = replay(cfg)
    merge_partition(cfg, hot)

    oracle_full = _oracle(str(log))
    pd.testing.assert_frame_equal(_fs(cfg), oracle_full)
    # as-of the pass the merge re-laid-out, and 'latest': resolve
    pd.testing.assert_frame_equal(
        final_state(cfg, as_of=s2["pass_id"]).to_pandas()
        .reset_index(drop=True), oracle_full)
    pd.testing.assert_frame_equal(
        final_state(cfg, as_of="latest").to_pandas()
        .reset_index(drop=True), oracle_full)
    # pre-merge pass: the covering child records died with the merge
    with pytest.raises(TimeTravelError, match="split or merge"):
        final_state(cfg, as_of=s1["pass_id"]).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_crash_after_flip_gc_completed_later(tmp_lake, monkeypatch):
    """Crash AFTER the meta flip but before GC: child manifests/files
    leak; fsck names the leak (inactive_manifest) and the next
    maintenance call sweeps it."""
    import migration_pair_ray.pipelines.compact as compact_mod

    log, lake = tmp_lake
    generate_change_log(log, n_events=1200, n_convs=8, n_files=1,
                        tool_epoch=0, hot_frac=0.5, seed=89)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    hash_state=False)
    replay(cfg)
    before = _fs(cfg)
    hot = _heaviest(cfg)
    s = split_partition(cfg, hot, fanout=2)

    real_gc = compact_mod._gc_inactive_manifests
    monkeypatch.setattr(compact_mod, "_gc_inactive_manifests",
                        lambda *a, **k: 0)      # simulated crash before GC
    merge_partition(cfg, hot)
    store = ManifestStore(cfg.manifest_dir)
    assert any(store.read(c) for c in s["children"])   # the leak
    rep = validate_lake(cfg)
    assert any(p["kind"] == "inactive_manifest" for p in rep["problems"])
    pd.testing.assert_frame_equal(_fs(cfg), before)    # reads unaffected

    monkeypatch.setattr(compact_mod, "_gc_inactive_manifests", real_gc)
    m = merge_partition(cfg, hot)                      # resumes: sweeps
    assert m["already_merged"]
    assert all(store.read(c) is None for c in s["children"])
    assert validate_lake(cfg, deep=True)["ok"]
    pd.testing.assert_frame_equal(_fs(cfg), before)


@pytest.mark.usefixtures("ray_session")
def test_merged_base_carries_content_hash(tmp_lake):
    """With ``hash_state`` on, the base an unsplit writes records the
    sha256 of its state file, so a deep fsck catches changed bytes."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from migration_pair_ray.state.manifest import sha256_file
    log, lake = tmp_lake
    generate_change_log(log, n_events=1200, n_convs=8, n_files=1,
                        tool_epoch=1, seed=67)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    hash_state=True)
    replay(cfg)
    hot = _heaviest(cfg)
    split_partition(cfg, hot, fanout=2)
    merge_partition(cfg, hot)
    m = ManifestStore(cfg.manifest_dir).read(hot)
    path = os.path.join(lake, m["data_file"])
    assert m["content_hash"] == sha256_file(path) != ""
    assert validate_lake(cfg, deep=True)["ok"]

    # same rows, keys and tombstones: only the content hash can tell
    t = pq.read_table(path)
    i = t.schema.get_field_index("text")
    t = t.set_column(i, "text", pc.utf8_upper(t.column("text")))
    pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)
    rep = validate_lake(cfg, deep=True)
    assert [(p["partition"], p["kind"]) for p in rep["problems"]] == [
        (hot, "hash_mismatch")]
