"""Regression tests for the round-1 code-review findings."""

import os
import pathlib

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.lww import lww_reduce, merge_tables
from migration_pair_ray.pipelines.bulk_load import bulk_load
from migration_pair_ray.pipelines.replay import final_state, read_lake, replay
from migration_pair_ray.pipelines.snapshot import snapshot
from migration_pair_ray.schemas import CHANGE_SCHEMA
from migration_pair_ray.stages.join import hash_join
from migration_pair_ray.stages.partition import partition_ids
from migration_pair_ray.state.lineage import lineage_summary


def ev(conv, turn, ts_s, lsn, **kw):
    base = {"conv_id": conv, "turn_idx": turn, "role": "user",
            "text": f"t{lsn}", "tool": None, "ts": ts_s * 1_000_000,
            "op": "I", "lsn": lsn}
    base.update(kw)
    return base


def test_null_key_rows_are_lww_merged():
    """not_equal(null, null) must not read as a group boundary."""
    t = pa.Table.from_pylist([
        ev("c1", None, 10, 1, text="old"),
        ev("c1", None, 20, 2, text="new"),
        ev(None, 0, 10, 3, text="x-old"),
        ev(None, 0, 30, 4, text="x-new"),
    ], schema=CHANGE_SCHEMA)
    out = lww_reduce(t)
    assert out.num_rows == 2
    texts = set(out.column("text").to_pylist())
    assert texts == {"new", "x-new"}


def test_null_key_vs_value_is_a_boundary():
    t = pa.Table.from_pylist([
        ev("c1", None, 10, 1), ev("c1", 0, 10, 2),
    ], schema=CHANGE_SCHEMA)
    assert lww_reduce(t).num_rows == 2  # different keys — both survive


def test_partition_ids_null_turn_deterministic():
    t = pa.Table.from_pylist([ev("c1", None, 1, 1), ev(None, 3, 1, 2)],
                             schema=CHANGE_SCHEMA)
    a = partition_ids(t, 8, "key")
    b = partition_ids(t, 8, "key")
    assert (a == b).all() and (0 <= a).all() and (a < 8).all()


@pytest.mark.usefixtures("ray_session")
def test_hash_join_shared_column_names():
    l = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "v": ["a", "b"]}))
    r = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "v": [10, 20]}))
    out = hash_join(l, r, on="k").to_pandas().sort_values("k").reset_index(drop=True)
    assert sorted(out.columns) == ["k", "v", "v_r"]
    assert out["v"].tolist() == ["a", "b"] and out["v_r"].tolist() == [10, 20]


@pytest.mark.usefixtures("ray_session")
def test_bulk_load_reapplies_modified_input(tmp_lake, tmp_path):
    log, lake = tmp_lake
    generate_change_log(log, n_events=300, n_convs=5, n_files=2, tool_epoch=1, seed=52)
    src = JobConfig(changelog_dir=log, lake_dir=f"{lake}-src", num_partitions=4)
    replay(src)
    csv_dir = str(tmp_path / "csv")
    snapshot(src, csv_dir, fmt="csv", unix_ms_ts=True)

    cfg = JobConfig(changelog_dir=str(tmp_path / "nolog"), lake_dir=lake,
                    num_partitions=4)
    os.makedirs(cfg.changelog_dir, exist_ok=True)
    bulk_load(cfg, f"{csv_dir}/", fmt="csv")
    # same content → skip; modified content at the SAME path → re-apply
    assert bulk_load(cfg, f"{csv_dir}/", fmt="csv")["skipped_partitions"] > 0
    f = sorted(pathlib.Path(csv_dir).glob("*.csv"))[0]
    with open(f, "a") as fh:
        fh.write('"conv-zz",0,"user","appended","",1704067200000\n')
    s = bulk_load(cfg, f"{csv_dir}/", fmt="csv")
    assert s["skipped_partitions"] == 0
    got = final_state(cfg).to_pandas()
    assert (got["conv_id"] == "conv-zz").any()


@pytest.mark.usefixtures("ray_session")
def test_lineage_summary_no_double_count_across_passes(tmp_lake):
    log, lake = tmp_lake
    generate_change_log(log, n_events=400, n_convs=6, n_files=2, tool_epoch=1, seed=53)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    replay(cfg)
    extra = os.path.join(os.path.dirname(log), "x2")
    generate_change_log(extra, n_events=200, n_convs=6, n_files=1, tool_epoch=0, seed=54)
    for i, p in enumerate(sorted(pathlib.Path(extra).glob("*.parquet"))):
        os.rename(p, os.path.join(log, f"batch-{30+i:05d}-"
                                  + os.path.basename(p).split("-", 2)[2]))
    replay(cfg)
    summ = lineage_summary(cfg)
    assert summ["passes"] == 2
    assert summ["rows_state_last"] == read_lake(cfg).count()


@pytest.mark.usefixtures("ray_session")
def test_topk_empty_corpus():
    import numpy as np
    from migration_pair_ray.stages.similarity import brute_force_topk
    empty = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    out = brute_force_topk(empty, np.zeros((2, 4), np.float32), k=5)
    assert out.num_rows == 0
    assert out.schema.names == ["query_id", "vec_id", "cos"]


@pytest.mark.usefixtures("ray_session")
def test_template_hash_pass_exchange_is_slim():
    """Design-property guard for conv_template_turns' pass 1: the hot-hash
    exchange must carry (hash64, key) only — with 2 KB texts, a text
    payload creeping into the shuffle blows the per-row byte bound."""
    import re
    from migration_pair_ray.pipelines.queries import _hot_hash_ds

    long_text = "x" * 2048
    df = pd.DataFrame({
        "text": [long_text] * 6 + [f"{long_text}{i}" for i in range(60)],
        "conv_id": [f"c{i}" for i in range(6)] * 11,
    })
    ds = ray.data.from_pandas(df).repartition(4)
    hot = _hot_hash_ds(ds, min_convs=2, n_coarse=8).materialize()
    assert sorted(r["h"] for r in hot.take_all())  # the template IS found
    stats = hot.stats()
    m = re.search(r"Operator \d+ Sort:.*?(?:\n.*?)*?bytes per block:"
                  r".*?(\d+) total", stats)
    assert m, stats
    per_row = int(m.group(1)) / len(df)
    assert per_row < 120, (f"hash-pass exchange carries {per_row:.0f} B/row "
                           f"— text payload has crept into the shuffle")


@pytest.mark.usefixtures("ray_session")
def test_conv_transcripts_salted_fallback_builds_under_push_shuffle(
        tmp_lake, monkeypatch):
    """On a salted (``partition_mode="key"``) lake ``conv_transcripts``
    falls back to the ``grouped_string_agg`` exchange, which must be
    built inside the push-based shuffle context ``_push_heavy`` enters."""
    from ray.data.context import DataContext, ShuffleStrategy

    from migration_pair_ray.pipelines import queries
    from migration_pair_ray.stages import analytic
    log, lake = tmp_lake
    generate_change_log(log, n_events=300, n_convs=5, n_files=1, seed=3)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4,
                    partition_mode="key")
    replay(cfg)
    monkeypatch.setattr(queries, "_events_lake", lambda sf_dir: cfg)

    entered, strategies = [], []

    class Recording(queries._push_shuffle):
        def __enter__(self):
            entered.append(True)
            return super().__enter__()

    monkeypatch.setattr(queries, "_push_shuffle", Recording)
    agg = analytic.grouped_string_agg

    def recording_agg(*a, **kw):
        strategies.append(DataContext.get_current().shuffle_strategy)
        return agg(*a, **kw)

    monkeypatch.setattr(analytic, "grouped_string_agg", recording_agg)
    out = queries.conv_transcripts("unused").to_pandas()
    assert entered
    assert strategies == [ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED]
    want = final_state(cfg, sort=False).to_pandas()["conv_id"].nunique()
    assert len(out) == want
