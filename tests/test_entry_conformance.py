"""Driver-conformance rehearsal: run every ``queries()`` entry at sf0.001
and compare against its ``oracle_sql()`` in DuckDB the way the driver does
(row count + sorted-column value equality).  Rows-only entries are checked
for execution + non-empty schema."""

import shutil
from pathlib import Path

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entry_mod
from migration_pair_ray.pipelines import queries

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df


def clear_query_caches(sf: str = SF) -> None:
    """Remove every cache the queries keep for the tree ``sf``: lakes,
    logs, indexes and checkpoints all live under ``_cache_dir``'s
    per-tree directories, named ``<tree name>-<identity>``."""
    for d in queries._CACHE_ROOT.glob(f"{Path(sf).name}-*"):
        shutil.rmtree(d)


@pytest.fixture(scope="module", autouse=True)
def fresh_tmp(ray_session):
    """Every derived lake and index of the run is built cold."""
    clear_query_caches()
    yield


def test_clean_up_removes_every_cache_the_queries_build(
        ray_session, tmp_path, monkeypatch):
    """A derived-lake query and an index query build only under the cache
    root, and the fixture's clean-up leaves none of it behind."""
    monkeypatch.setattr(queries, "_CACHE_ROOT", tmp_path)
    queries.cdc_two_phase_replay(SF)
    queries.embed_knn_ivf(SF)
    built = sorted(p.relative_to(tmp_path) for p in tmp_path.glob("*/*"))
    assert built, "the queries cached nothing under the cache root"
    clear_query_caches()
    assert not list(tmp_path.iterdir()), built


ALL = sorted(entry_mod.queries().keys())


@pytest.mark.parametrize("name", ALL)
def test_query_vs_oracle(name, con, ray_session):
    q = entry_mod.queries()[name]
    raw = to_df(q(SF))
    oracle = entry_mod.oracle_sql().get(name)
    if oracle is None:
        assert len(raw) >= 0 and len(raw.columns) > 0  # rows-only contract
        return
    got = normalize(raw)
    want = normalize(con.sql(oracle).df())
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False,
                                  rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("name", [
    "doc_langid", "corpus_curation", "media_features", "media_frame_stats",
    "doc_decontaminate", "training_prep"])
def test_query_releases_its_cpus(name, ray_session, cpus_back):
    """A query with a per-batch stage gives back every CPU it took once
    its result is consumed, with the cyclic GC off: nothing may wait for
    a collection to free a stage's workers."""
    import gc
    import ray
    before = ray.available_resources().get("CPU", 0.0)
    gc.disable()
    try:
        to_df(entry_mod.queries()[name](SF))
        free = cpus_back(before)
    finally:
        gc.enable()
    assert free >= before, f"{name} kept {before - free:g} CPUs"


def test_entry_smoke(ray_session):
    ds = entry_mod.entry()
    df = to_df(ds)
    assert len(df) >= 0
    assert {"conv_id", "turn_idx", "text"} <= set(df.columns)
