"""Pass-level time travel + vacuum (retain_passes / read_lake(as_of=...)).

Contract: a lake written with ``retain_passes=N`` can be read AS OF any of
the last N superseded passes per partition — bit-identical to a control
lake that stopped at that pass — and ``vacuum`` trims the window, freeing
the unreferenced state files.  Travel past the window, to an unknown pass,
or across a partition split fails loudly (never silently partial).
"""

import os
from pathlib import Path

import duckdb
import pandas as pd
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.compact import split_partition, vacuum
from migration_pair_ray.pipelines.fsck import validate_lake
from migration_pair_ray.pipelines.replay import final_state, read_lake, replay
from migration_pair_ray.state.manifest import TimeTravelError


def _oracle(files: list[str]) -> pd.DataFrame:
    lst = ", ".join(f"'{f}'" for f in files)
    return duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet([{lst}], union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)


def _staged_passes(tmp_path, n_files=4, seed=91, **gen_kw):
    """Generate a change log in a staging dir and return (log_dir, groups)
    where groups is a list of file-path lists to link in, one per pass."""
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1500, n_convs=10,
                                n_files=n_files, tool_epoch=1, seed=seed,
                                **gen_kw)
    log = tmp_path / "log"
    log.mkdir()
    half = n_files // 2
    return str(log), [files[:half], files[half:]]


def _arrive(log: str, files: list[str]) -> None:
    for f in files:
        os.link(f, Path(log) / Path(f).name)


def _fs(cfg: JobConfig, as_of=None) -> pd.DataFrame:
    return (final_state(cfg, as_of=as_of).to_pandas()
            .reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_as_of_reconstructs_past_pass(tmp_path):
    log, (g1, g2) = _staged_passes(tmp_path)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=1, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    s2 = replay(cfg)
    assert s1["pass_id"] != s2["pass_id"]

    # as-of the first pass == a control lake that stopped there == oracle
    past = _fs(cfg, as_of=s1["pass_id"])
    ctrl_log = tmp_path / "ctrl_log"
    ctrl_log.mkdir()
    _arrive(str(ctrl_log), g1)
    ctrl = JobConfig(changelog_dir=str(ctrl_log),
                     lake_dir=str(tmp_path / "ctrl_lake"),
                     num_partitions=4, hash_state=False)
    replay(ctrl)
    pd.testing.assert_frame_equal(past, _fs(ctrl))
    pd.testing.assert_frame_equal(past, _oracle(g1))

    # current read is the full-log state, unaffected by retention
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g2))
    # as-of the LATEST pass is the current state
    pd.testing.assert_frame_equal(_fs(cfg, as_of=s2["pass_id"]), _fs(cfg))

    # retention must not trip fsck (prev_records files are referenced)
    rep = validate_lake(cfg, deep=True)
    assert rep["ok"], rep

    # idempotent re-replay keeps pass seqs / as-of reads intact
    assert replay(cfg)["up_to_date"]
    pd.testing.assert_frame_equal(_fs(cfg, as_of=s1["pass_id"]), past)


@pytest.mark.usefixtures("ray_session")
def test_retention_zero_drops_history(tmp_path):
    log, (g1, g2) = _staged_passes(tmp_path, seed=17)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False)   # retain_passes=0
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    replay(cfg)
    with pytest.raises(TimeTravelError, match="no longer retained"):
        read_lake(cfg, as_of=s1["pass_id"])


@pytest.mark.usefixtures("ray_session")
def test_unknown_pass_raises(tmp_path):
    log, (g1, _) = _staged_passes(tmp_path, seed=23)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False)
    _arrive(log, g1)
    replay(cfg)
    with pytest.raises(TimeTravelError, match="never committed"):
        read_lake(cfg, as_of="deadbeef00000000")


@pytest.mark.usefixtures("ray_session")
def test_vacuum_trims_and_frees(tmp_path):
    log, (g1, g2) = _staged_passes(tmp_path, seed=29)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=2, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    replay(cfg)
    past = _fs(cfg, as_of=s1["pass_id"])

    def n_state_files():
        return len(list(Path(cfg.lake_dir).glob("part=*/state-*.parquet")))

    before = n_state_files()
    from migration_pair_ray.tasks import run_task
    rep = run_task("vacuum", cfg, retain=0)
    assert rep["files_deleted"] > 0 and rep["bytes_freed"] > 0
    assert n_state_files() == before - rep["files_deleted"]

    # history gone, current intact, fsck green, vacuum idempotent
    with pytest.raises(TimeTravelError):
        read_lake(cfg, as_of=s1["pass_id"])
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g2))
    assert validate_lake(cfg, deep=True)["ok"]
    assert vacuum(cfg, retain_passes=0)["files_deleted"] == 0
    assert past is not None  # silence linters: past exercised above


@pytest.mark.usefixtures("ray_session")
def test_chunked_layout_retention(tmp_path):
    """Chunked state layout: retained records share carried-forward chunk
    files with the current record — GC/vacuum must keep shared files and
    as-of reads stay exact."""
    log, (g1, g2) = _staged_passes(tmp_path, seed=37)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=1, state_chunk_rows=40,
                    hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    replay(cfg)

    pd.testing.assert_frame_equal(_fs(cfg, as_of=s1["pass_id"]), _oracle(g1))
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g2))
    assert validate_lake(cfg, deep=True)["ok"]

    vacuum(cfg, retain_passes=0)
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g2))
    assert validate_lake(cfg, deep=True)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_snapshot_isolation_latest(tmp_path):
    """as_of='latest' under a concurrent writer mid-pass: partitions the
    in-flight pass already committed resolve through their retained
    previous record — the read sees exactly the last CHECKPOINTED pass,
    never a torn mix."""
    log, (g1, g2) = _staged_passes(tmp_path, seed=47)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=1, hash_state=False)
    _arrive(log, g1)
    replay(cfg)
    _arrive(log, g2)
    replay(cfg)
    settled = _fs(cfg, as_of="latest")
    pd.testing.assert_frame_equal(settled, _fs(cfg))   # quiescent: == current

    # simulate an in-flight pass-3 writer that already committed
    # partition 0: bump its manifest to a not-yet-checkpointed pass
    from migration_pair_ray.state.manifest import ManifestStore
    store = ManifestStore(cfg.manifest_dir)
    m = store.read(0)
    assert m is not None
    fake = dict(m)
    fake.pop("history", None)
    fake.pop("prev_records", None)
    fake.update(pass_id="feedfacefeedface", pass_seq=99)
    store.commit(0, fake, retain=1)

    # the snapshot read must resolve partition 0 through the RETAINED
    # pass-2 record, not the in-flight pass-99 one
    from migration_pair_ray.state.manifest import (CheckpointStore,
                                                   manifest_as_of)
    seqs = CheckpointStore(cfg.checkpoint_dir).pass_seqs()
    latest = max(seqs, key=seqs.get)
    resolved = manifest_as_of(store.read(0), seqs[latest], seqs, 0)
    assert resolved["pass_id"] == m["pass_id"] != "feedfacefeedface"
    snap = _fs(cfg, as_of="latest")
    pd.testing.assert_frame_equal(snap, settled)


@pytest.mark.usefixtures("ray_session")
def test_time_travel_around_splits(tmp_path):
    """Split children are stamped with the last COMMITTED pass: as-of
    that pass (and 'latest' on a quiescent post-split lake) resolves to
    the children — they hold exactly that state in a new layout — while
    a genuinely PRE-split pass raises (the parent's state was GC'd)."""
    log, (g1, g2) = _staged_passes(tmp_path, seed=43, hot_frac=0.5)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=4, hash_state=False)
    _arrive(log, g1)
    s1 = replay(cfg)
    _arrive(log, g2)
    s2 = replay(cfg)

    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore
    store = ManifestStore(cfg.manifest_dir)
    sizes = {pid: store.read(pid)["row_count"]
             for pid in LakeMeta(cfg.lake_dir).active_partition_ids()
             if store.read(pid)}
    hot = max(sizes, key=sizes.get)
    split_partition(cfg, hot, fanout=2)

    # current state unaffected; as-of the pass the split re-laid-out (and
    # 'latest') resolve to the children — no spurious refusal
    pd.testing.assert_frame_equal(_fs(cfg), _oracle(g1 + g2))
    pd.testing.assert_frame_equal(_fs(cfg, as_of=s2["pass_id"]),
                                  _oracle(g1 + g2))
    pd.testing.assert_frame_equal(_fs(cfg, as_of="latest"),
                                  _oracle(g1 + g2))
    # but a pass BEFORE the split is gone with the parent
    with pytest.raises(TimeTravelError, match="split"):
        _fs(cfg, as_of=s1["pass_id"])


@pytest.mark.usefixtures("ray_session")
def test_bulk_load_pass_is_time_travel_resolvable(tmp_path):
    """A bulk load is a first-class stamped+checkpointed pass: as-of reads
    of it (and of later replay passes over the same lake) resolve instead
    of raising 'no resolvable sequence'."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from migration_pair_ray.pipelines.bulk_load import bulk_load

    snap = pa.table({
        "conv_id": pa.array(["a", "a", "b"], pa.string()),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "role": pa.array(["user", "assistant", "user"]),
        "text": pa.array(["q", "a", "q2"]),
        "tool": pa.array([None, None, None], pa.string()),
        "ts": pa.array([1_000_000, 2_000_000, 3_000_000],
                       pa.timestamp("us")),
    })
    src = tmp_path / "snap.parquet"
    pq.write_table(snap, str(src))
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=2, retain_passes=1, hash_state=False)
    s0 = bulk_load(cfg, str(src), fmt="parquet")

    # a later replay pass updates one key
    upd = pa.table({
        "conv_id": pa.array(["a"], pa.string()),
        "turn_idx": pa.array([1], pa.int32()),
        "role": pa.array(["assistant"]),
        "text": pa.array(["a-v2"]),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([9_000_000], pa.timestamp("us")),
        "op": pa.array(["U"]),
        "lsn": pa.array([100], pa.int64()),
    })
    pq.write_table(upd, str(log / "batch-00000.parquet"))
    replay(cfg)

    past = _fs(cfg, as_of=s0["pass_id"])
    assert sorted(past["text"]) == ["a", "q", "q2"]
    cur = _fs(cfg, as_of="latest")
    assert sorted(cur["text"]) == ["a-v2", "q", "q2"]
    pd.testing.assert_frame_equal(cur, _fs(cfg))


@pytest.mark.parametrize("seed, distributed", [
    pytest.param(11, False, id="11"), pytest.param(13, False, id="13"),
    pytest.param(11, True, id="11-distributed")])
@pytest.mark.usefixtures("ray_session")
def test_every_retained_prefix_reconstructs(tmp_path, request, seed,
                                            distributed):
    """Property: with retain_passes >= number of passes, EVERY pass prefix
    is reconstructible and equals the oracle over exactly that prefix —
    including middle passes that partitions may have skipped."""
    if distributed:
        request.getfixturevalue("distributed_reads")
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1800, n_convs=12,
                                n_files=6, tool_epoch=1, seed=seed)
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, retain_passes=3, hash_state=False)
    groups = [files[0:2], files[2:4], files[4:6]]
    pass_ids = []
    for g in groups:
        _arrive(str(log), g)
        pass_ids.append(replay(cfg)["pass_id"])
    for k, pid in enumerate(pass_ids, start=1):
        prefix = [f for g in groups[:k] for f in g]
        pd.testing.assert_frame_equal(_fs(cfg, as_of=pid), _oracle(prefix))
    assert validate_lake(cfg, deep=True)["ok"]


# -- the as_of reads above, on the forced Ray Data executor ---------------

@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_as_of_reconstructs_past_pass_distributed(tmp_path):
    test_as_of_reconstructs_past_pass(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_vacuum_trims_and_frees_distributed(tmp_path):
    test_vacuum_trims_and_frees(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_chunked_layout_retention_distributed(tmp_path):
    test_chunked_layout_retention(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_snapshot_isolation_latest_distributed(tmp_path):
    test_snapshot_isolation_latest(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_time_travel_around_splits_distributed(tmp_path):
    test_time_travel_around_splits(tmp_path)


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_bulk_load_pass_is_time_travel_resolvable_distributed(tmp_path):
    test_bulk_load_pass_is_time_travel_resolvable(tmp_path)
