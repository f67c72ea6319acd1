"""The lake read's two executors (``replay.read_in_driver``): a lake whose
Parquet footers declare at most Ray Data's block target is read in the
driver into ONE block; a larger one runs on Ray Data.  Both must give the
DuckDB last-writer-wins answer.  The driver executor hands its block to
Ray Data with one ``ray.put`` and no remote task, and decodes state files
without Arrow's thread pool, as Ray Data's own read tasks do, on one
thread per CPU the driver may run on (``readers.map_in_driver``), each
file opened once."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.lookup import (fetch_conversations,
                                                 read_covering_row_groups)
from migration_pair_ray.pipelines.replay import (final_state, read_footer,
                                                 read_lake, read_partition,
                                                 replay)
from migration_pair_ray.schemas import unify_change_schemas
from migration_pair_ray.sources.readers import driver_dataset, map_in_driver
from migration_pair_ray.stages.applier import read_state_table, state_file_paths
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
def test_footers_over_block_target_read_distributed(tmp_path, monkeypatch):
    """The predicate is the footers' uncompressed bytes against Ray
    Data's ``target_max_block_size``: at the boundary the read stays in
    the driver, one byte below it the same read runs one Ray task per
    active partition (one block each) and no ``read_parquet``."""
    cfg, files = _bench_shaped_lake(tmp_path)
    want = _oracle(files)
    active = LakeMeta(cfg.lake_dir).active_partition_ids()

    def refuse(*args, **kwargs):
        raise AssertionError("a lake read planned read_parquet")

    monkeypatch.setattr(ray.data, "read_parquet", refuse)
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    planned = _planned_bytes(cfg)
    try:
        ctx.target_max_block_size = planned
        assert len(_blocks(final_state(cfg, sort=True))) == 1
        ctx.target_max_block_size = planned - 1
        tasks = _blocks(final_state(cfg, sort=False))
        got = final_state(cfg, sort=True).to_pandas()
    finally:
        ctx.target_max_block_size = saved
    assert len(active) == 16
    assert len(tasks) == len(active)
    assert all(b.num_rows for b in tasks)
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
    layout a warm turn-level lookup reads ``_lake_meta.json`` once, one
    manifest and one state file, opens no bloom sidecar (its parse is
    kept from the warm-up), and builds no
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
    assert sorted(kinds) == ["_lake_meta.json", "manifest", "state"]


@pytest.mark.usefixtures("ray_session")
def test_driver_reads_hand_over_with_one_put(tmp_path, monkeypatch):
    """A driver-built scan or fetch hands its one block to Ray Data with
    one ``ray.put`` and nothing more: no ``from_arrow`` or
    ``from_arrow_refs`` (a remote metadata task per block) and no
    ``materialize`` (two more Dataset constructions and a second plan
    execution)."""
    cfg, files = _bench_shaped_lake(tmp_path)
    want = _oracle(files)
    convs = sorted(want["conv_id"].unique())[:3]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a driver-built read called {name}")
        return call

    put = ray.put
    puts: list[int] = []

    def counting_put(*args, **kwargs):
        puts.append(1)
        return put(*args, **kwargs)

    monkeypatch.setattr(ray.data, "from_arrow", refuse("from_arrow"))
    monkeypatch.setattr(ray.data, "from_arrow_refs", refuse("from_arrow_refs"))
    monkeypatch.setattr(ray.data.Dataset, "materialize", refuse("materialize"))
    monkeypatch.setattr(ray, "put", counting_put)
    for read, rows in ((lambda: final_state(cfg, sort=False), len(want)),
                       (lambda: fetch_conversations(cfg, convs),
                        int(want["conv_id"].isin(convs).sum()))):
        puts.clear()
        assert _consume(read()) == rows
        assert len(puts) == 1


@pytest.mark.usefixtures("ray_session")
def test_driver_dataset_matches_materialized_from_arrow(tmp_path):
    """``driver_dataset`` builds the Dataset ``from_arrow(t).materialize()``
    builds, without its remote task and extra copies: the same schema,
    counts, block and rows, and the same answers when Ray Data stacks
    transforms on it or unions it with one of its own reads.  Its stats
    report names a ``FromBlocks`` source that ran no task and gives the
    same per-block rows and bytes.
    It relies on Ray 2.49's ``from_blocks`` and on ``_plan.execute()``
    taking a source operator's output without a task, so this is also
    the test that catches a Ray upgrade changing either."""
    t = pa.concat_tables([
        pa.table({"k": pa.array(range(i * 50, i * 50 + 50), pa.int64()),
                  "s": pa.array([f"v{j % 7}" for j in range(50)])})
        for i in range(4)])
    assert t.column("k").num_chunks == 4
    ours = driver_dataset([t])
    theirs = ray.data.from_arrow(t).materialize()
    assert type(ours) is type(theirs)
    assert ours.schema() == theirs.schema()
    assert ours.count() == theirs.count() == t.num_rows
    assert ours.num_blocks() == theirs.num_blocks() == 1
    head, *lines = ours.stats().splitlines()
    assert head == "Operator 0 FromBlocks: "
    assert lines and set(lines) <= set(theirs.stats().splitlines())
    assert any(line.startswith("* Output num rows per block") for line in lines)
    assert ours.take_all() == theirs.take_all()
    pd.testing.assert_frame_equal(ours.to_pandas(), theirs.to_pandas())

    def stacked(ds):
        return (ds.map_batches(lambda b: b.filter(pa.compute.greater(
                    b.column("k"), 20)), batch_format="pyarrow")
                .map_batches(lambda b: b.append_column(
                    "k2", pa.compute.multiply(b.column("k"), 2)),
                    batch_format="pyarrow"))

    assert stacked(ours).take_all() == stacked(theirs).take_all()
    path = tmp_path / "extra.parquet"
    pq.write_table(t.slice(0, 30), str(path))
    read = ray.data.read_parquet(str(path))

    def rows(ds):
        return sorted((r["k"], r["s"]) for r in ds.take_all())

    assert rows(ours.union(read)) == rows(theirs.union(read))
    assert len(rows(ours.union(read))) == t.num_rows + 30


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", ["plain", "chunked", "cell"])
def test_thread_free_decode_is_byte_neutral(tmp_path, monkeypatch, layout):
    """The driver executor decodes state files as Ray Data's Parquet
    read tasks do, without Arrow's thread pool.  For the largest
    partition of each state layout, ``read_partition``,
    ``read_state_table`` (the merge's and the pass's read) and
    ``read_covering_row_groups`` return tables equal to the threaded
    decode."""
    log = tmp_path / "log"
    generate_change_log(str(log), n_events=3000, n_convs=30, n_files=3,
                        tool_epoch=1, dup_frac=0.03, seed=8)
    kw = {"plain": {}, "chunked": {"state_chunk_rows": 40},
          "cell": {"merge_kernel": "cell"}}[layout]
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, **kw)
    replay(cfg)
    store = ManifestStore(cfg.manifest_dir)
    m = max((store.read(p) for p in range(cfg.num_partitions)),
            key=lambda m: m["row_count"])
    paths = state_file_paths(cfg.lake_dir, m)
    assert len(paths) > 1 if layout == "chunked" else len(paths) == 1
    schema = unify_change_schemas([read_footer(p)[0] for p in paths])
    kernel = LakeMeta(cfg.lake_dir).merge_kernel()
    convs = sorted({c for p in paths for c in pq.read_table(
        p, columns=["conv_id"]).column("conv_id").to_pylist()})[::2]

    def reads():
        return ([read_partition(cfg.lake_dir, m, kernel, schema),
                 read_partition(cfg.lake_dir, m, kernel, schema,
                                columns=["conv_id", "turn_idx", "text"]),
                 read_state_table(cfg.lake_dir, m, kernel=kernel)]
                + [read_covering_row_groups(p, convs) for p in paths])

    threads: list[bool] = []

    def spy(orig, force=None):
        def call(self, *args, **kwargs):
            if force is not None:
                kwargs["use_threads"] = force
            threads.append(kwargs.get("use_threads", True))
            return orig(self, *args, **kwargs)
        return call

    decode = pq.ParquetFile.read, pq.ParquetFile.read_row_groups
    monkeypatch.setattr(pq.ParquetFile, "read", spy(decode[0]))
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy(decode[1]))
    got = reads()
    assert threads and not any(threads)
    monkeypatch.setattr(pq.ParquetFile, "read", spy(decode[0], True))
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups",
                        spy(decode[1], True))
    want = reads()
    assert all(t.num_rows for t in want[:3])
    assert sum(t.num_rows for t in want[3:])
    for g, w in zip(got, want):
        assert g.equals(w)


@pytest.mark.usefixtures("ray_session")
def test_reads_of_a_missing_lake_create_nothing(tmp_path):
    """Readers write nothing: a scan and a point lookup of a lake path
    that does not exist return empty answers and leave the path absent
    (the manifest and checkpoint directories are made by their writers)."""
    from migration_pair_ray.pipelines.lookup import lookup_keys
    lake = tmp_path / "nolake"
    cfg = JobConfig(changelog_dir=str(tmp_path / "log"), lake_dir=str(lake),
                    num_partitions=4)
    assert final_state(cfg).count() == 0
    assert lookup_keys(cfg, ["c0"], [0]).num_rows == 0
    assert _consume(fetch_conversations(cfg, ["c0"])) == 0
    assert not lake.exists()


def _cpus(monkeypatch, n: int) -> None:
    """Make ``map_in_driver`` see an affinity mask of ``n`` CPUs."""
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_task_executor_read_streams(tmp_path):
    """Over the block target a lake read is a lazy Dataset, not a
    materialized one: Ray Data's read tasks run the per-partition reads
    as a consumer pulls them, so a streaming consumer (``write_parquet``)
    holds a bounded number of partitions at once.  What it writes is the
    oracle's answer."""
    from ray.data.dataset import MaterializedDataset
    cfg, files = _bench_shaped_lake(tmp_path)
    ds = final_state(cfg, sort=False)
    assert not isinstance(ds, MaterializedDataset)
    ds.write_parquet(str(tmp_path / "export"))
    got = (pq.read_table(str(tmp_path / "export")).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, _oracle(files), check_dtype=False)


def _pool_threads() -> int:
    """Live threads of ``map_in_driver``'s pools (its thread-name prefix):
    Ray's and Ray Data's own daemon threads come and go on their own."""
    import threading
    return sum(t.name.startswith("map_in_driver")
               for t in threading.enumerate())


def test_map_in_driver_keeps_order_on_one_thread_per_cpu(monkeypatch):
    """The pool has one thread per CPU of the affinity mask (four items
    meet at a four-party barrier, which only concurrent threads can
    pass), results come back in input order, no thread outlives the
    call, and one CPU runs every item on one thread, in order."""
    import threading
    _cpus(monkeypatch, 4)
    barrier = threading.Barrier(4, timeout=30)

    def meet(x):
        barrier.wait()
        return x * 10

    assert _pool_threads() == 0
    assert map_in_driver(meet, range(8)) == [x * 10 for x in range(8)]
    assert _pool_threads() == 0
    _cpus(monkeypatch, 1)
    assert len(set(map_in_driver(lambda x: threading.get_ident(),
                                 range(3)))) == 1
    assert map_in_driver(meet, []) == []
    assert _pool_threads() == 0


def test_map_in_driver_reraises_the_first_error(monkeypatch):
    """The exception of the first failing item is re-raised, as the
    plain loop raises it, and the pool is gone afterwards."""
    _cpus(monkeypatch, 4)

    def fail_on(x):
        if x in (2, 5):
            raise ValueError(f"item {x}")
        return x

    assert _pool_threads() == 0
    with pytest.raises(ValueError, match="item 2"):
        map_in_driver(fail_on, range(8))
    assert _pool_threads() == 0


def _staged_lake(tmp_path, **kw) -> tuple[JobConfig, str]:
    """A lake written by two passes (retaining the first), so reads can
    cover merge-on-read deltas and ``as_of``; returns the config and the
    first pass id."""
    import os
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=3000, n_convs=40,
                                n_files=4, tool_epoch=2, dup_frac=0.03,
                                shuffle_window=300, seed=13)
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=8, retain_passes=1, hash_state=False,
                    **kw)
    passes = []
    for group in (files[:2], files[2:]):
        for f in group:
            os.link(f, log / os.path.basename(f))
        passes.append(replay(cfg)["pass_id"])
    return cfg, passes[0]


def _table(ds) -> pa.Table:
    return pa.concat_tables(_blocks(ds))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", ["plain", "chunked", "mor", "cell"])
def test_threaded_driver_reads_equal_the_serial_loop(tmp_path, monkeypatch,
                                                     layout):
    """One thread and four give the same ``final_state`` (sorted,
    unsorted, column-pruned, ``as_of``) and ``read_lake`` tables, row
    order and schema included, on every state layout; and no call leaves
    a thread of its pool behind."""
    import threading

    def pool_threads() -> list[str]:
        return [t.name for t in threading.enumerate()
                if t.name.startswith("map_in_driver")]
    kw = {"plain": {}, "chunked": {"state_chunk_rows": 40},
          "mor": {"mor_max_deltas": 8}, "cell": {"merge_kernel": "cell"}}
    cfg, first = _staged_lake(tmp_path, **kw[layout])
    if layout == "mor":
        store = ManifestStore(cfg.manifest_dir)
        assert any(store.read(p).get("delta_files")
                   for p in range(cfg.num_partitions))
    reads = {
        "sorted": lambda: final_state(cfg),
        "unsorted": lambda: final_state(cfg, sort=False),
        "pruned": lambda: final_state(cfg, columns=["conv_id", "turn_idx",
                                                    "text"]),
        "as_of": lambda: final_state(cfg, as_of=first),
        "read_lake": lambda: read_lake(cfg),
    }
    got = {}
    for n in (1, 4):
        _cpus(monkeypatch, n)
        for name, read in reads.items():
            got[name, n] = _table(read())
            assert not pool_threads(), (name, n)
    for name in reads:
        serial, threaded = got[name, 1], got[name, 4]
        assert serial.num_rows, name
        assert threaded.schema.equals(serial.schema, check_metadata=True)
        assert threaded.equals(serial), name


@pytest.mark.usefixtures("ray_session")
def test_threaded_scan_of_a_deleted_state_file_raises_as_serial(
        tmp_path, monkeypatch):
    """A pinned state file that is gone fails the threaded scan with
    the serial loop's ``FileNotFoundError``."""
    import os
    cfg, _ = _bench_shaped_lake(tmp_path)
    store = ManifestStore(cfg.manifest_dir)
    os.remove(state_file_paths(cfg.lake_dir, store.read(5))[0])
    errors = []
    for n in (1, 4):
        _cpus(monkeypatch, n)
        with pytest.raises(FileNotFoundError) as e:
            final_state(cfg)
        errors.append(str(e.value))
    assert errors[0] == errors[1]


@pytest.mark.usefixtures("ray_session")
def test_driver_reads_parse_each_footer_once(tmp_path, monkeypatch):
    """A published footer is parsed once per process: on the benchmark's
    layout the first driver scan parses each state file's footer once
    (one ``pq.read_metadata`` and no ``ParquetFile`` opened without it),
    and a repeated scan and a fetch after it parse none."""
    from migration_pair_ray.pipelines.lookup import candidate_plan
    cfg, files = _bench_shaped_lake(tmp_path)
    store = ManifestStore(cfg.manifest_dir)
    n_files = sum(len(state_file_paths(cfg.lake_dir, store.read(p)))
                  for p in range(cfg.num_partitions))
    convs = sorted(_oracle(files)["conv_id"].unique())[:3]
    n_planned = sum(len(e["files"])
                    for e in candidate_plan(cfg, convs).values())
    parses: list[str] = []
    read_metadata, parquet_file = pq.read_metadata, pq.ParquetFile

    def counting_read_metadata(path, *args, **kwargs):
        parses.append(str(path))
        return read_metadata(path, *args, **kwargs)

    def counting_parquet_file(path, *args, **kwargs):
        if kwargs.get("metadata") is None:
            parses.append(str(path))
        return parquet_file(path, *args, **kwargs)

    monkeypatch.setattr(pq, "read_metadata", counting_read_metadata)
    monkeypatch.setattr(pq, "ParquetFile", counting_parquet_file)
    assert n_planned
    for read, n in ((lambda: final_state(cfg), n_files),
                    (lambda: final_state(cfg), 0),
                    (lambda: fetch_conversations(cfg, convs), 0)):
        parses.clear()
        assert _consume(read())
        assert len(parses) == len(set(parses)) == n
