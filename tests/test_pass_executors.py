"""The pass planner's two executors (``replay.apply_changes_ds``): a pass
whose change files and pinned lake state declare at most Ray Data's block
target runs in the driver, one partition after another; a larger one runs
one route task per input (row-group ranges of the change files) and one
merge task per partition (recorded as ``"ray_data"``).  Each test builds the same lake once per
executor, the task one through the ``distributed_reads`` fixture, and
asks for the same bytes: state files and Bloom sidecars
byte-identical, lineage equal except ``seconds`` and ``rows_in``,
quarantined and pending rows equal as multisets, and the final state equal
to the last-writer-wins oracle."""

import collections
import hashlib
import os
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, read_footer, replay
from migration_pair_ray.state.lineage import lineage_summary
from migration_pair_ray.tasks import task_history

ORACLE = """
WITH ch AS (SELECT * FROM read_parquet({files}, union_by_name=true)
            WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL
              AND op IN ('I', 'U', 'D')),
w AS (SELECT *, row_number() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn FROM ch)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM w WHERE rn = 1 AND op <> 'D'
ORDER BY conv_id, turn_idx"""


def _row_log(stage: Path, seed: int = 5, **kw) -> list[str]:
    kw = {"n_events": 1500, "n_convs": 14, "n_files": 3, "tool_epoch": 1,
          "shuffle_window": 200, "dup_frac": 0.05, **kw}
    return generate_change_log(str(stage), seed=seed, **kw)


def _cell_log(stage: Path, n: int = 1200, n_files: int = 3) -> list[str]:
    """I/U/P/D events over 40 keys; a patch sets a random subset of the
    payload columns, event time independent of log order."""
    rng = np.random.default_rng(9)
    k = rng.integers(0, 40, n)
    ops = rng.choice(np.array(["I", "U", "P", "P", "D"]), size=n)
    cols = {"conv_id": pa.array([f"c{i % 7}" for i in k]),
            "turn_idx": pa.array((k // 7).astype("int32"))}
    for c in ("role", "text", "tool"):
        v = np.array([f"{c}-{i}" for i in range(n)], dtype=object)
        v[rng.random(n) < np.where(ops == "P", 0.5, 0.15)] = None
        cols[c] = pa.array(v, pa.string())
    cols["ts"] = pa.array(rng.integers(1_700_000_000_000_000,
                                       1_700_000_100_000_000, n),
                          pa.timestamp("us"))
    cols["op"] = pa.array(ops.tolist())
    cols["lsn"] = pa.array(np.arange(n, dtype="int64"))
    t = pa.table(cols)
    stage.mkdir(parents=True)
    per = -(-n // n_files)
    out = []
    for i in range(n_files):
        out.append(str(stage / f"batch-{i:05d}.parquet"))
        pq.write_table(t.slice(i * per, per), out[-1])
    return out


def _build(root: Path, name: str, files: list[str], passes, cfg_kw,
           between=None) -> JobConfig:
    """Land ``files`` pass by pass (``passes`` lists file indexes) and
    replay after each; ``between(cfg, i)`` runs after pass ``i``."""
    log = root / f"{name}_log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(root / f"{name}_lake"),
                    **{"num_partitions": 4, **cfg_kw})
    for i, idx in enumerate(passes):
        for j in idx:
            os.link(files[j], log / Path(files[j]).name)
        assert not replay(cfg)["up_to_date"]
        if between is not None:
            between(cfg, i)
    return cfg


def _both(request, build) -> tuple[JobConfig, JobConfig]:
    """``build(name)`` once on the executor the planner picks, then once
    with every pass forced to Ray Data."""
    driver = build("driver")
    request.getfixturevalue("distributed_reads")
    return driver, build("ray")


def _tree_bytes(root: str, pattern: str) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).glob(pattern))}


def _lineage(cfg: JobConfig) -> list[dict]:
    rows = [r for p in sorted(Path(cfg.lineage_dir).glob("pass-*.parquet"))
            for r in pq.read_table(str(p)).to_pylist()]
    for r in rows:
        del r["seconds"], r["rows_in"]
    return sorted(rows, key=lambda r: (r["pass_id"], r["partition"]))


def _rows(pattern_root: Path, pattern: str) -> collections.Counter:
    return collections.Counter(
        tuple(sorted(r.items())) for p in sorted(pattern_root.glob(pattern))
        for r in pq.read_table(str(p)).to_pylist())


def _assert_same_lake(driver: JobConfig, ray_cfg: JobConfig) -> None:
    state = _tree_bytes(driver.lake_dir, "part=*/state-*")
    assert any(k.endswith(".bloom") for k in state)
    assert state == _tree_bytes(ray_cfg.lake_dir, "part=*/state-*")
    assert _lineage(driver) == _lineage(ray_cfg)
    for cfg, executor in ((driver, "driver"), (ray_cfg, "ray_data")):
        assert {p["executor"] for p in task_history(cfg)["passes"]} == \
            {executor}


def _assert_oracle(cfg: JobConfig, files: list[str]) -> None:
    got = final_state(cfg).to_pandas().reset_index(drop=True)
    want = duckdb.sql(ORACLE.format(files=files)).df()
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True),
                                  check_dtype=False)


def _split_largest(cfg: JobConfig, i: int) -> None:
    from migration_pair_ray.pipelines.compact import split_partition
    from migration_pair_ray.state.manifest import ManifestStore
    if i == 0:
        store = ManifestStore(cfg.manifest_dir)
        pid = max(range(cfg.num_partitions),
                  key=lambda p: (store.read(p) or {}).get("row_count", 0))
        split_partition(cfg, pid, 2)


LAYOUTS = {
    "plain": ({}, None),
    "chunked": ({"state_chunk_rows": 40}, None),
    "mor": ({"mor_max_deltas": 4}, None),
    "key": ({"partition_mode": "key"}, None),
    "hot": ({"partition_mode": "hot", "hot_convs": ["conv-0"]}, None),
    "split": ({}, _split_largest),
}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_row_layouts_byte_identical_on_both_executors(tmp_path, request,
                                                      layout):
    cfg_kw, between = LAYOUTS[layout]
    files = _row_log(tmp_path / "stage", hot_frac=0.4)
    passes = [[0], [1], [2]] if layout == "mor" else [[0, 1], [2]]
    driver, on_ray = _both(request, lambda name: _build(
        tmp_path, name, files, passes, cfg_kw, between))
    _assert_same_lake(driver, on_ray)
    if layout == "mor":
        from migration_pair_ray.state.manifest import ManifestStore
        store = ManifestStore(driver.manifest_dir)
        assert any((store.read(p) or {}).get("delta_files")
                   for p in range(driver.num_partitions))
    _assert_oracle(driver, files)


@pytest.mark.usefixtures("ray_session")
def test_cell_layout_byte_identical_on_both_executors(tmp_path, request):
    from migration_pair_ray.functions.cells import cell_finalize
    files = _cell_log(tmp_path / "stage")
    driver, on_ray = _both(request, lambda name: _build(
        tmp_path, name, files, [[0, 1], [2]], {"merge_kernel": "cell"}))
    _assert_same_lake(driver, on_ray)
    want = cell_finalize(pa.concat_tables([pq.read_table(f) for f in files]))
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    got = pa.Table.from_pylist(final_state(driver, sort=True).take_all())
    assert got.select(cols).to_pylist() == want.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    ).select(cols).to_pylist()


@pytest.mark.usefixtures("ray_session")
def test_multi_source_byte_identical_on_both_executors(tmp_path, request):
    """``replay_multi``: each source's files carry their own lsn shift
    through either executor."""
    import pyarrow.compute as pc

    from migration_pair_ray.pipelines.multi import replay_multi
    files = _row_log(tmp_path / "stage")
    t = pa.concat_tables([pq.read_table(f) for f in files],
                         promote_options="default")
    dirs = []
    for k in range(2):
        d = tmp_path / f"src{k}"
        d.mkdir()
        part = t.filter(pc.equal(pc.bit_wise_and(t.column("lsn"), 1), k))
        part = part.set_column(part.schema.get_field_index("lsn"), "lsn",
                               pc.shift_right(part.column("lsn"), 1))
        half = part.num_rows // 2
        pq.write_table(part.slice(0, half), str(d / "batch-0000.parquet"))
        pq.write_table(part.slice(half), str(d / "batch-0001.parquet"))
        dirs.append(str(d))

    def build(name: str) -> JobConfig:
        cfg = JobConfig(lake_dir=str(tmp_path / f"{name}_lake"),
                        num_partitions=4)
        assert replay_multi(cfg, dirs)["events_in"] == t.num_rows
        return cfg

    driver, on_ray = _both(request, build)
    _assert_same_lake(driver, on_ray)
    _assert_oracle(driver, files)


def _with_malformed_rows(stage: Path, files: list[str]) -> list[str]:
    """A change file with null keys and unknown ops among good rows."""
    n = 8
    bad = pa.table({
        "conv_id": pa.array(["conv-1", None, "conv-2", "conv-3", None,
                             "conv-4", "conv-5", "conv-6"]),
        "turn_idx": pa.array([0, 1, None, 2, 3, 4, 5, 6], pa.int32()),
        "role": pa.array(["user"] * n), "text": pa.array(["t"] * n),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([pd.Timestamp("2030-01-01")] * n, pa.timestamp("us")),
        "op": pa.array(["I", "I", "I", "X", "I", None, "U", "I"]),
        "lsn": pa.array(range(90_001, 90_001 + n), pa.int64())})
    path = str(stage / "batch-00099-000000090001-000000090008.parquet")
    pq.write_table(bad, path)
    return [*files, path]


@pytest.mark.usefixtures("ray_session")
def test_quarantine_log_same_rows_on_both_executors(tmp_path, request):
    files = _with_malformed_rows(tmp_path / "stage",
                                 _row_log(tmp_path / "stage"))

    def build(name: str) -> JobConfig:
        return _build(tmp_path, name, files, [[0, 1], [2, 3]],
                      {"quarantine_dir": str(tmp_path / f"{name}_q")})

    driver, on_ray = _both(request, build)
    _assert_same_lake(driver, on_ray)
    q = _rows(Path(driver.quarantine_dir), "pass-*/q-*.parquet")
    assert sum(q.values()) == 5          # 3 null keys, 2 unknown ops
    assert q == _rows(Path(on_ray.quarantine_dir), "pass-*/q-*.parquet")


@pytest.mark.usefixtures("ray_session")
def test_refill_byte_identical_on_both_executors(tmp_path, request):
    """A gated refill of the largest partition: the refill's ``keep``
    filter and quarantine gate run per file, or per row-group range of a
    file, on both executors (in the driver, in the route tasks)."""
    from migration_pair_ray.pipelines.repair import refill_partition
    from migration_pair_ray.state.manifest import ManifestStore
    files = _with_malformed_rows(tmp_path / "stage",
                                 _row_log(tmp_path / "stage"))

    def build(name: str) -> JobConfig:
        cfg = _build(tmp_path, name, files, [[0, 1], [2, 3]],
                     {"quarantine_dir": str(tmp_path / f"{name}_q")})
        store = ManifestStore(cfg.manifest_dir)
        pid = max(range(cfg.num_partitions),
                  key=lambda p: store.read(p)["row_count"])
        for p in Path(cfg.lake_dir).glob(f"part={pid:05d}/state-*"):
            p.unlink()
        assert refill_partition(cfg, pid)["rows_state"] > 0
        return cfg

    driver, on_ray = _both(request, build)
    _assert_same_lake(driver, on_ray)
    refills = [p for p in task_history(driver)["passes"]
               if p["kind"] == "refill"]
    assert [p["executor"] for p in refills] == ["driver"]
    assert (_rows(Path(driver.quarantine_dir), "pass-*/q-*.parquet")
            == _rows(Path(on_ray.quarantine_dir), "pass-*/q-*.parquet"))
    _assert_oracle(driver, files)


@pytest.mark.usefixtures("ray_session")
def test_txn_log_same_state_and_pending_on_both_executors(tmp_path, request):
    """A txn-gated log whose commit markers arrive a pass late: the held
    rows go to the pending store and are released by the next pass."""
    stage = tmp_path / "stage"
    files = _row_log(stage)
    for p in files:
        t = pq.read_table(p)
        txn = [None if lsn % 7 == 3 else f"t{lsn // 5}"
               for lsn in t.column("lsn").to_pylist()]
        pq.write_table(t.append_column("txn_id", pa.array(txn, pa.string())),
                       p)
    top = max(pq.read_table(p).column("lsn").to_pylist()[-1] for p in files)
    n_txn = 1500 // 5 + 1
    ids = [f"t{i}" for i in range(n_txn) if i % 4 != 1]
    markers = pa.table({
        "conv_id": pa.array([None] * len(ids), pa.string()),
        "turn_idx": pa.array([None] * len(ids), pa.int32()),
        "ts": pa.array([None] * len(ids), pa.timestamp("us")),
        "op": pa.array(["C"] * len(ids)),
        "lsn": pa.array(range(top + 1, top + 1 + len(ids)), pa.int64()),
        "txn_id": pa.array(ids)})
    files.append(str(stage / "batch-00099-markers.parquet"))
    pq.write_table(markers, files[-1])

    def build(name: str) -> JobConfig:
        return _build(tmp_path, name, files, [[0, 1], [2, 3]],
                      {"txn_boundary": True})

    driver, on_ray = _both(request, build)
    _assert_same_lake(driver, on_ray)
    held = _rows(Path(driver.lake_dir) / "_txns", "pending-*/p-*.parquet")
    assert sum(held.values()) > 0
    assert held == _rows(Path(on_ray.lake_dir) / "_txns",
                         "pending-*/p-*.parquet")
    assert (_tree_bytes(driver.lake_dir, "_txns/markers-*")
            == _tree_bytes(on_ray.lake_dir, "_txns/markers-*"))


@pytest.mark.usefixtures("ray_session")
def test_small_replay_starts_no_ray_data(tmp_path, request):
    """A pass that fits one block runs in the driver: it builds no
    ``read_parquet`` plan and no ``groupby`` exchange, and its checkpoint
    records the driver executor and the bytes it planned on.  Forced
    onto the task executor, the same pass builds neither (it runs plain
    route and merge tasks) and records ``"ray_data"``."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pass started a Ray Data read or exchange")

    for executor in ("driver", "ray_data"):
        if executor == "ray_data":
            request.getfixturevalue("distributed_reads")
        log = tmp_path / f"{executor}_log"
        files = generate_change_log(str(log), n_events=2000, n_convs=12,
                                    n_files=3, tool_epoch=1, seed=17)
        cfg = JobConfig(changelog_dir=str(log),
                        lake_dir=str(tmp_path / f"{executor}_lake"),
                        num_partitions=8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ray.data, "read_parquet", refuse)
            mp.setattr(ray.data.Dataset, "groupby", refuse)
            events_in = replay(cfg)["events_in"]
        assert events_in == sum(pq.read_metadata(f).num_rows for f in files)
        (rec,) = task_history(cfg)["passes"]
        assert rec["executor"] == executor
        assert rec["planned_bytes"] == sum(read_footer(f)[1] for f in files)
        assert lineage_summary(cfg)["executors"] == {executor: 1}
        _assert_oracle(cfg, files)


@pytest.mark.usefixtures("ray_session")
def test_driver_pass_parses_each_change_footer_once(tmp_lake, monkeypatch):
    """One footer parse per change file serves the pass's schema, its
    plan, its read and its ``events_in``: each footer is parsed once
    (``pq.read_metadata``, or a ``pq.ParquetFile`` opened without a
    parsed footer), and no schema probe (``pq.read_schema``) reads it
    again."""
    log, lake = tmp_lake
    files = generate_change_log(log, n_events=2000, n_convs=12, n_files=3,
                                tool_epoch=1, seed=17)
    parses, probes = collections.Counter(), collections.Counter()
    real_file, real_metadata, real_schema = (pq.ParquetFile, pq.read_metadata,
                                             pq.read_schema)

    class Counting(real_file):
        def __init__(self, source, *args, metadata=None, **kwargs):
            if metadata is None:
                parses[str(source)] += 1
            super().__init__(source, *args, metadata=metadata, **kwargs)

    def read_metadata(f, *args, **kwargs):
        parses[str(f)] += 1
        return real_metadata(f, *args, **kwargs)

    def read_schema(f, *args, **kwargs):
        probes[str(f)] += 1
        return real_schema(f, *args, **kwargs)

    monkeypatch.setattr(pq, "ParquetFile", Counting)
    monkeypatch.setattr(pq, "read_metadata", read_metadata)
    monkeypatch.setattr(pq, "read_schema", read_schema)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=8)
    events_in = replay(cfg)["events_in"]
    monkeypatch.undo()
    assert events_in == sum(pq.read_metadata(f).num_rows for f in files)
    assert task_history(cfg)["passes"][0]["executor"] == "driver"
    assert {f: parses[f] for f in files} == {f: 1 for f in files}
    assert probes == {}


@pytest.mark.usefixtures("ray_session")
def test_pass_over_block_target_runs_on_ray_data(tmp_path):
    """The plan sums the footer bytes of the pass's change files and of
    the lake's pinned state files.  With the block target at exactly a
    second pass's planned bytes, that pass stays in the driver; one byte
    below, the same pass runs on Ray Data and writes the same bytes."""
    files = _row_log(tmp_path / "stage")
    one = _build(tmp_path, "one", files, [[0, 1]], {})
    pinned = sum(read_footer(str(p))[1]
                 for p in Path(one.lake_dir).glob("part=*/state-*.parquet"))
    (first,) = [p["planned_bytes"] for p in task_history(one)["passes"]]
    assert first == sum(read_footer(f)[1] for f in files[:2])
    second = read_footer(files[2])[1] + pinned
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    lakes = {}
    try:
        for name, target in (("edge", second), ("over", second - 1)):
            ctx.target_max_block_size = max(target, first)
            lake = _build(tmp_path, name, files, [[0, 1]], {})
            ctx.target_max_block_size = target
            os.link(files[2], Path(lake.changelog_dir) / Path(files[2]).name)
            replay(lake)
            lakes[name] = task_history(lake)["passes"][1], lake.lake_dir
    finally:
        ctx.target_max_block_size = saved
    assert lakes["edge"][0]["executor"] == "driver"
    assert lakes["over"][0]["executor"] == "ray_data"
    assert lakes["edge"][0]["planned_bytes"] == second
    assert lakes["over"][0]["planned_bytes"] == second
    assert (_tree_bytes(lakes["edge"][1], "part=*/state-*")
            == _tree_bytes(lakes["over"][1], "part=*/state-*"))


def _route_bytes(route: list[tuple]) -> int:
    return sum(md.row_group(rg).total_byte_size
               for _, md, rgs, _ in route for rg in rgs)


@pytest.mark.usefixtures("ray_session")
def test_route_inputs_cut_row_groups_and_pack_files(tmp_path):
    """The task executor's route inputs cover every row group of the pass
    once, in input order, each within the pass's bytes over the
    cluster's CPUs (``ray_session`` starts four), so every CPU gets a route
    task: a file of ten or more row groups is cut into ranges of several row
    groups, and twelve one-row-group files are packed several to a
    task."""
    from migration_pair_ray.pipelines.replay import _route_inputs
    (big,) = _row_log(tmp_path / "big", n_files=1, n_events=3000)
    pq.write_table(pq.read_table(big), big, row_group_size=300)
    small = _row_log(tmp_path / "small", n_files=12)
    for files in ([big], small):
        mds = [pq.read_metadata(f) for f in files]
        nbytes = sum(md.row_group(i).total_byte_size
                     for md in mds for i in range(md.num_row_groups))
        routes = _route_inputs([(f, md, ["fn"]) for f, md in zip(files, mds)],
                               nbytes)
        assert [(p, rg) for r in routes for p, _, rgs, _ in r
                for rg in rgs] == [(f, rg) for f, md in zip(files, mds)
                                   for rg in range(md.num_row_groups)]
        assert all(fns == ["fn"] for r in routes for _, _, _, fns in r)
        assert all(_route_bytes(r) <= -(-nbytes // 4) for r in routes)
        assert 4 <= len(routes) < sum(md.num_row_groups for md in mds)


@pytest.mark.usefixtures("ray_session")
def test_large_change_file_byte_identical_on_both_executors(tmp_path,
                                                             request):
    """One change file of ten or more row groups: the task executor reads
    it in row-group ranges, one route task each, and writes the driver's
    bytes."""
    (f,) = _row_log(tmp_path / "stage", n_files=1, n_events=3000,
                    tool_epoch=0)
    pq.write_table(pq.read_table(f), f, row_group_size=300)
    assert pq.read_metadata(f).num_row_groups >= 10
    driver, on_ray = _both(request, lambda name: _build(
        tmp_path, name, [f], [[0]], {}))
    _assert_same_lake(driver, on_ray)
    _assert_oracle(on_ray, [f])
