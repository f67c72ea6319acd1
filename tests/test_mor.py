"""Merge-on-read ingest (cfg.mor_max_deltas): delta appends must be
invisible to every reader (bit-identical to a copy-on-write control),
compact at the threshold and on demand, serve point lookups with true
winners, and stay auditable by fsck."""

import os
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.compact import compact_deltas
from migration_pair_ray.pipelines.fsck import validate_lake
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.state.manifest import LakeMeta, ManifestStore


def _staged(tmp_path, n_files=6, groups=3, seed=77, **gen_kw):
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1800, n_convs=12,
                                n_files=n_files, tool_epoch=1, seed=seed,
                                shuffle_window=300, **gen_kw)
    per = n_files // groups
    return [files[i * per:(i + 1) * per] for i in range(groups)]


def _arrive(log: Path, files) -> None:
    log.mkdir(exist_ok=True)
    for f in files:
        os.link(f, log / Path(f).name)


def _fs(cfg, **kw) -> pd.DataFrame:
    return final_state(cfg, **kw).to_pandas().reset_index(drop=True)


def _run_passes(tmp_path, name: str, groups, **cfg_kw) -> JobConfig:
    log = tmp_path / f"log_{name}"
    cfg = JobConfig(changelog_dir=str(log),
                    lake_dir=str(tmp_path / f"lake_{name}"),
                    num_partitions=4, hash_state=False, **cfg_kw)
    for g in groups:
        _arrive(log, g)
        replay(cfg)
    return cfg


def _delta_counts(cfg) -> dict[int, int]:
    store = ManifestStore(cfg.manifest_dir)
    out = {}
    for pid in LakeMeta(cfg.lake_dir).active_partition_ids(cfg.num_partitions):
        m = store.read(pid)
        out[pid] = len((m or {}).get("delta_files", []))
    return out


@pytest.mark.usefixtures("ray_session")
def test_mor_equals_cow_and_time_travels(tmp_path):
    groups = _staged(tmp_path)
    mor = _run_passes(tmp_path, "mor", groups, mor_max_deltas=8,
                      retain_passes=3)
    cow = _run_passes(tmp_path, "cow", groups, retain_passes=3)

    # passes 2 and 3 landed as deltas somewhere
    assert sum(_delta_counts(mor).values()) > 0
    pd.testing.assert_frame_equal(_fs(mor), _fs(cow))

    # time travel through a retained MoR record folds correctly too
    from migration_pair_ray.state.manifest import CheckpointStore
    seqs = CheckpointStore(mor.checkpoint_dir).pass_seqs()
    for pass_id in seqs:
        pd.testing.assert_frame_equal(_fs(mor, as_of=pass_id),
                                      _fs(cow, as_of=pass_id))
    assert validate_lake(mor, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_mor_equals_cow_and_time_travels_distributed(tmp_path):
    test_mor_equals_cow_and_time_travels(tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_mor_threshold_compacts(tmp_path):
    groups = _staged(tmp_path)
    mor = _run_passes(tmp_path, "mor1", groups, mor_max_deltas=1)
    cow = _run_passes(tmp_path, "cow1", groups)
    # pass 2 wrote the single allowed delta; pass 3 hit the threshold and
    # compacted — no partition may exceed 1 delta, and some must be at 0
    counts = _delta_counts(mor)
    assert max(counts.values()) <= 1
    pd.testing.assert_frame_equal(_fs(mor), _fs(cow))
    assert validate_lake(mor, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_compact_deltas_explicit_and_index_gate(tmp_path):
    from migration_pair_ray.pipelines.index import (IndexStaleError,
                                                    build_value_index)
    groups = _staged(tmp_path)
    mor = _run_passes(tmp_path, "morc", groups, mor_max_deltas=8)
    before = _fs(mor)
    assert sum(_delta_counts(mor).values()) > 0

    # the value index refuses an uncompacted MoR lake
    with pytest.raises(IndexStaleError, match="compact"):
        build_value_index(mor, "role")

    stats = compact_deltas(mor)
    assert stats["partitions_compacted"] > 0
    assert sum(_delta_counts(mor).values()) == 0
    pd.testing.assert_frame_equal(_fs(mor), before)
    assert validate_lake(mor, deep=True)["ok"]
    assert build_value_index(mor, "role")["partitions"] > 0
    # compaction is idempotent / no-op when clean
    assert compact_deltas(mor)["partitions_compacted"] == 0


@pytest.mark.usefixtures("ray_session")
def test_mor_lookup_true_winners(tmp_path):
    """A delta row must win only by (ts, lsn): newer-ts delta supersedes
    the base, older-ts delta loses to it."""
    from migration_pair_ray.pipelines.lookup import lookup_keys
    log = tmp_path / "log"
    log.mkdir()
    t0, t1, t2, t3 = [pd.Timestamp(f"2024-01-0{i+1}") for i in range(4)]

    def batch(name, rows):
        cols = list(zip(*rows))
        pq.write_table(pa.table({
            "conv_id": pa.array(cols[0], pa.string()),
            "turn_idx": pa.array(cols[1], pa.int32()),
            "role": pa.array(cols[2], pa.string()),
            "text": pa.array(cols[3], pa.string()),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array(cols[4]).cast(pa.timestamp("us")),
            "op": pa.array(cols[5], pa.string()),
            "lsn": pa.array(cols[6], pa.int64()),
        }), str(log / name))

    batch("batch-00000-a.parquet", [
        ("c0", 0, "user", "base-wins", t2, "I", 0),
        ("c0", 1, "user", "base-loses", t1, "I", 1),
    ])
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=2, hash_state=False, mor_max_deltas=4)
    replay(cfg)
    batch("batch-00001-b.parquet", [
        ("c0", 0, "user", "delta-too-old", t0, "U", 2),   # loses on ts
        ("c0", 1, "user", "delta-wins", t3, "U", 3),      # wins on ts
    ])
    replay(cfg)
    assert sum(_delta_counts(cfg).values()) == 1

    got = lookup_keys(cfg, ["c0", "c0"], turn_idx=[0, 1]).to_pandas()
    assert got.set_index("turn_idx")["text"].to_dict() == {
        0: "base-wins", 1: "delta-wins"}
    # read path agrees
    fs = _fs(cfg).set_index("turn_idx")["text"].to_dict()
    assert fs == {0: "base-wins", 1: "delta-wins"}


@pytest.mark.usefixtures("ray_session")
def test_mor_chunked_layout_compaction(tmp_path):
    groups = _staged(tmp_path)
    mor = _run_passes(tmp_path, "morch", groups, mor_max_deltas=1,
                      state_chunk_rows=60)
    cow = _run_passes(tmp_path, "cowch", groups, state_chunk_rows=60)
    pd.testing.assert_frame_equal(_fs(mor), _fs(cow))
    assert validate_lake(mor, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_mor_fsck_catches_missing_delta(tmp_path):
    groups = _staged(tmp_path)
    mor = _run_passes(tmp_path, "morf", groups, mor_max_deltas=8)
    delta = next(Path(mor.lake_dir).glob("part=*/state-*-delta.parquet"))
    delta.unlink()
    report = validate_lake(mor)
    assert not report["ok"]
    assert any(p["kind"] == "missing_file" for p in report["problems"])


@pytest.mark.usefixtures("ray_session")
def test_compact_deltas_preserves_chunked_layout(tmp_path):
    """Explicit compaction of a chunked-layout MoR lake must re-chunk at
    key boundaries, not collapse partitions into one unbounded file."""
    groups = _staged(tmp_path)
    mor = _run_passes(tmp_path, "morcc", groups, mor_max_deltas=8,
                      state_chunk_rows=60)
    cow = _run_passes(tmp_path, "cowcc", groups, state_chunk_rows=60)
    assert sum(_delta_counts(mor).values()) > 0
    stats = compact_deltas(mor)
    assert stats["partitions_compacted"] > 0
    store = ManifestStore(mor.manifest_dir)
    multi = 0
    for pid in LakeMeta(mor.lake_dir).active_partition_ids(4):
        m = store.read(pid)
        assert not m.get("delta_files")
        entries = m.get("data_files")
        assert entries is not None          # chunked layout preserved
        multi += len(entries) > 1
    assert multi > 0                        # real chunking happened
    pd.testing.assert_frame_equal(_fs(mor), _fs(cow))
    assert validate_lake(mor, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_mor_property_random_splits(tmp_path):
    """Property (bounded): for random pass splits × delta thresholds ×
    layouts, the MoR lake's visible state equals the DuckDB LWW oracle
    over the full log."""
    import duckdb
    import random
    rng = random.Random(1234)
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1500, n_convs=8,
                                n_files=6, tool_epoch=2, seed=13,
                                shuffle_window=400, dup_frac=0.1)
    lst = ", ".join(f"'{f}'" for f in files)
    want = duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet([{lst}], union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx
                ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)
    for trial in range(4):
        cuts = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        groups, prev = [], 0
        for c in cuts + [6]:
            groups.append(files[prev:c])
            prev = c
        cfg = _run_passes(
            tmp_path, f"prop{trial}", [g for g in groups if g],
            mor_max_deltas=rng.randint(1, 4),
            state_chunk_rows=rng.choice([0, 70]),
            partition_mode=rng.choice(["conv", "key"]))
        got = _fs(cfg)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert validate_lake(cfg, deep=True)["ok"], f"trial {trial}"


@pytest.mark.usefixtures("ray_session")
def test_auto_maintain_sweep(tmp_path):
    """auto_maintain composes compact -> split -> merge -> vacuum under
    one lease: MoR deltas fold first (so split reads exact counts), the
    oversized partition splits, retention trims, and the visible state
    is bit-identical throughout."""
    from migration_pair_ray.pipelines.compact import auto_maintain
    groups = _staged(tmp_path)
    cfg = _run_passes(tmp_path, "maint", groups, mor_max_deltas=8,
                      retain_passes=3)
    want = _fs(cfg)
    assert any(n > 0 for n in _delta_counts(cfg).values())

    s0 = auto_maintain(cfg)   # compact-only sweep (thresholds default off)
    assert s0["compact"]["partitions_compacted"] >= 1
    assert "splits" not in s0 and "vacuum" not in s0

    store = ManifestStore(cfg.manifest_dir)
    max_rows = max(store.read(pid)["row_count"] for pid in range(4)) - 1
    s = auto_maintain(cfg, split_max_rows=max_rows, vacuum_retain=0)
    assert s["compact"]["partitions_compacted"] == 0
    assert len(s["splits"]) >= 1
    assert all(n == 0 for n in _delta_counts(cfg).values())
    assert LakeMeta(cfg.lake_dir).splits()
    pd.testing.assert_frame_equal(_fs(cfg), want, check_dtype=False)
    assert validate_lake(cfg, deep=True)["ok"]

    # nothing left to do: no deltas, nothing above a generous threshold
    s2 = auto_maintain(cfg, split_max_rows=10**9, vacuum_retain=0)
    assert s2["compact"]["partitions_compacted"] == 0
    assert s2["splits"] == []

    # merge-back sweep: children total far below min_rows -> un-split
    s3 = auto_maintain(cfg, merge_min_rows=10**9, compact=False)
    assert len(s3["merges"]) >= 1
    assert not LakeMeta(cfg.lake_dir).splits()
    pd.testing.assert_frame_equal(_fs(cfg), want, check_dtype=False)
