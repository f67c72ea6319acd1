"""hash_join / broadcast_join, task registry, CLI, lineage, skew probe."""

import json
import pathlib
import subprocess
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.stages.join import broadcast_join, hash_join
from migration_pair_ray.stages.partition import detect_hot_keys
from migration_pair_ray.state.lineage import lineage_summary, read_lineage
from migration_pair_ray.tasks import run_task

REPO = pathlib.Path(__file__).resolve().parents[1]  # repository root

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_hash_join_matches_duckdb():
    orders = ray.data.read_parquet(f"{SF}/orders.parquet",
                                   columns=["o_orderkey", "o_orderpriority"])
    items = ray.data.read_parquet(f"{SF}/lineitem.parquet",
                                  columns=["l_orderkey", "l_quantity"])
    items = items.map_batches(
        lambda t: t.rename_columns(["o_orderkey", "l_quantity"]),
        batch_format="pyarrow")
    joined = hash_join(orders, items, on="o_orderkey").to_pandas()
    want = duckdb.sql(f"""
        SELECT COUNT(*) n, CAST(SUM(l_quantity) AS BIGINT) s
        FROM read_parquet('{SF}/orders.parquet') o
        JOIN read_parquet('{SF}/lineitem.parquet') l ON o_orderkey = l_orderkey
    """).fetchone()
    assert len(joined) == want[0]
    assert int(joined["l_quantity"].sum()) == want[1]


@pytest.mark.usefixtures("ray_session")
def test_hash_join_left_outer():
    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "a": ["x", "y", "z"]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [2, 3, 4], "b": [20, 30, 40]}))
    out = hash_join(left, right, on="k", how="left").to_pandas().sort_values("k")
    assert out["k"].tolist() == [1, 2, 3]
    assert out["b"].isna().tolist() == [True, False, False]


@pytest.mark.usefixtures("ray_session")
def test_hash_join_semi_anti():
    """semi == EXISTS, anti == NOT EXISTS; outputs carry left columns
    only, one row per surviving left row (no match fan-out)."""
    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 4], "a": ["w", "x", "y", "z"]}))
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [2, 2, 3], "b": [20, 21, 30]}))
    semi = hash_join(left, right, on="k", how="semi").to_pandas()
    anti = hash_join(left, right, on="k", how="anti").to_pandas()
    assert sorted(semi["k"].tolist()) == [2, 3]        # matched once each
    assert sorted(anti["k"].tolist()) == [1, 4]
    assert sorted(semi.columns) == ["a", "k"]
    assert sorted(anti.columns) == ["a", "k"]


@pytest.mark.usefixtures("ray_session")
def test_broadcast_join():
    big = ray.data.read_parquet(f"{SF}/orders.parquet",
                                columns=["o_orderkey", "o_custkey"])
    small = pq.read_table(f"{SF}/customer.parquet",
                          columns=["c_custkey", "c_mktsegment"]).rename_columns(
        ["o_custkey", "c_mktsegment"])
    out = broadcast_join(big, small, on="o_custkey").to_pandas()
    want = duckdb.sql(f"""
        SELECT COUNT(*) FROM read_parquet('{SF}/orders.parquet') o
        JOIN read_parquet('{SF}/customer.parquet') c ON o_custkey = c_custkey
    """).fetchone()[0]
    assert len(out) == want


@pytest.mark.usefixtures("ray_session")
def test_task_registry_and_lineage(tmp_lake):
    log, lake = tmp_lake
    generate_change_log(log, n_events=400, n_convs=6, n_files=2, tool_epoch=1, seed=9)
    cfg = JobConfig(changelog_dir=log, lake_dir=lake, num_partitions=4)
    rep = run_task("compliance", cfg)
    assert rep["compliant"]
    s = run_task("replay", cfg)
    assert s["events_in"] > 0
    lin = read_lineage(cfg)
    assert lin.num_rows == s["partitions"]
    summ = run_task("lineage", cfg)
    assert summ["rows_in"] > 0 and summ["passes"] == 1
    snap = run_task("snapshot", cfg, out_dir=f"{lake}/_snap")
    assert snap["rows"] > 0
    with pytest.raises(KeyError):
        run_task("nope", cfg)


def test_cli_end_to_end(tmp_path):
    """Drive the real CLI in a subprocess (owns its own Ray session)."""
    log = tmp_path / "log"
    generate_change_log(str(log), n_events=300, n_convs=5, n_files=2, seed=4)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4)
    cfg_path = tmp_path / "job.json"
    cfg.to_json(cfg_path)
    out = subprocess.run(
        [sys.executable, "-m", "migration_pair_ray", "replay",
         "--config", str(cfg_path), "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["events_in"] >= 300 and not summary["up_to_date"]


def test_cli_split_task(tmp_path):
    """The split task end-to-end through the CLI: replay, split the
    heaviest partition via `--base-pid`, then a size-guard sweep via
    `--max-rows`."""
    log = tmp_path / "log"
    generate_change_log(str(log), n_events=400, n_convs=6, n_files=2, seed=9)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False)
    cfg_path = tmp_path / "job.json"
    cfg.to_json(cfg_path)

    def cli(*args):
        out = subprocess.run(
            [sys.executable, "-m", "migration_pair_ray", *args,
             "--config", str(cfg_path), "--num-cpus", "4"],
            capture_output=True, text=True, cwd=REPO, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout.strip().splitlines()[-1])

    cli("replay")
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore
    store = ManifestStore(cfg.manifest_dir)
    hot = max((p for p in range(4) if store.read(p)),
              key=lambda p: store.read(p)["row_count"])
    s = cli("split", "--base-pid", str(hot), "--fanout", "2")
    assert s["fanout"] == 2 and not s["already_split"]
    assert LakeMeta(cfg.lake_dir).splits() == {hot: (2, 0)}
    s2 = cli("split", "--max-rows", "1")     # sweep: everything oversized
    assert isinstance(s2["splits"], list) and s2["splits"]


@pytest.mark.usefixtures("ray_session")
def test_detect_hot_keys(tmp_lake):
    log, _ = tmp_lake
    generate_change_log(log, n_events=2000, n_convs=30, hot_frac=0.4,
                        n_files=2, seed=13)
    from migration_pair_ray.sources.changelog import discover, read_changes, unified_schema
    files = discover(log)
    ds = read_changes(files, unified_schema(files))
    hot = detect_hot_keys(ds, hot_frac=0.2)
    assert hot.num_rows >= 1
    assert hot.column("conv_id")[0].as_py() == "conv-0"  # the planted hot conv
    assert hot.column("frac")[0].as_py() > 0.3


@pytest.mark.usefixtures("ray_session")
def test_hash_join_semi_anti():
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3, 4], "a": ["w", "x", "y", "z"]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [2, 3, 3], "b": [20, 30, 31]}))
    semi = hash_join(left, right, on="k", how="semi").to_pandas().sort_values("k")
    # semi keeps matching left rows ONCE (no right payload, no dup blowup)
    assert semi["k"].tolist() == [2, 3]
    assert list(semi.columns) == ["k", "a"]
    anti = hash_join(left, right, on="k", how="anti").to_pandas().sort_values("k")
    assert anti["k"].tolist() == [1, 4]
    assert list(anti.columns) == ["k", "a"]


@pytest.mark.usefixtures("ray_session")
def test_asof_join_backward_inclusive():
    from migration_pair_ray.stages.join import asof_join
    left = ray.data.from_arrow(pa.table(
        {"k": [1, 1, 1, 2, 2, 3], "ts": [5, 10, 20, 7, 3, 9],
         "lv": ["a", "b", "c", "d", "e", "f"]}))
    right = ray.data.from_arrow(pa.table(
        {"k": [1, 1, 2, 4], "ts": [4, 10, 6, 1], "rv": [100, 200, 300, 400]}))
    out = (asof_join(left, right, key="k", ts_col="ts", how="left")
           .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True))
    # equal ts matches (inclusive); later left rows reuse the last right row;
    # keys with no prior right row (or absent keys) null-fill
    assert out["lv"].tolist() == ["a", "b", "c", "e", "d", "f"]
    assert [None if pd.isna(v) else int(v) for v in out["rv"]] == \
        [100, 200, 200, None, 300, None]
    inner = (asof_join(left, right, key="k", ts_col="ts", how="inner")
             .to_pandas().sort_values(["k", "ts"]))
    assert inner["rv"].tolist() == [100, 200, 200, 300]


@pytest.mark.usefixtures("ray_session")
def test_asof_join_tolerance_and_collisions():
    from migration_pair_ray.stages.join import asof_join
    # integer ts are treated as microseconds for tolerance purposes
    left = ray.data.from_arrow(pa.table(
        {"k": [1, 1], "ts": [10_000_000, 30_000_000], "v": [1, 2]}))
    right = ray.data.from_arrow(pa.table(
        {"k": [1], "ts": [9_000_000], "v": [100]}))
    out = (asof_join(left, right, key="k", ts_col="ts", how="left",
                     tolerance_s=5.0)
           .to_pandas().sort_values("ts").reset_index(drop=True))
    # collision on non-key column "v" -> right side suffixed to v_r
    assert "v_r" in out.columns
    # lag 1s <= 5s matches; lag 21s > 5s nulled by the tolerance
    assert int(out.loc[0, "v_r"]) == 100
    assert pd.isna(out.loc[1, "v_r"])


@pytest.mark.usefixtures("ray_session")
def test_asof_join_matches_duckdb_asof():
    from migration_pair_ray.stages.join import asof_join
    events = ray.data.read_parquet(f"{SF}/events.parquet",
                                   columns=["user_id", "ts", "event_type"])
    orders = ray.data.read_parquet(f"{SF}/orders.parquet",
                                   columns=["o_custkey", "o_orderdate",
                                            "o_totalprice"])
    right = orders.map_batches(
        lambda t: (pa.table({"user_id": t.column("o_custkey"),
                             "ts": t.column("o_orderdate"),
                             "price": t.column("o_totalprice")})
                   .group_by(["user_id", "ts"]).aggregate([("price", "max")])
                   .rename_columns(["user_id", "ts", "price"])),
        batch_format="pyarrow")
    from ray.data.aggregate import Max
    right = right.groupby(["user_id", "ts"]).aggregate(
        Max("price", alias_name="price"))
    out = asof_join(events, right, key="user_id", ts_col="ts",
                    how="inner").to_pandas()
    want = duckdb.sql(f"""
        WITH r AS (SELECT o_custkey u, o_orderdate ts, MAX(o_totalprice) p
                   FROM read_parquet('{SF}/orders.parquet') GROUP BY 1, 2)
        SELECT COUNT(*) n, CAST(ROUND(SUM(r.p), 0) AS BIGINT) s
        FROM read_parquet('{SF}/events.parquet') e
        ASOF JOIN r ON e.user_id = r.u AND e.ts >= r.ts
    """).fetchone()
    assert len(out) == want[0]
    assert int(round(out["price"].sum())) == want[1]


def test_range_join_matches_duckdb():
    """range_join == DuckDB interval join, inner and left, randomized
    (duplicate keys/ts on both sides, keys present on only one side)."""
    import numpy as np
    from migration_pair_ray.stages.join import range_join
    rng = np.random.default_rng(3)
    nl, nr = 2000, 1500
    # unique frame names: test_analytic registers "lt" on duckdb's
    # default connection, which would shadow a local replacement scan
    range_lt = pa.table({"user_id": rng.integers(0, 40, nl),
                         "ts": pa.array(rng.integers(0, 10**9, nl) * 1000,
                                        pa.timestamp("us")),
                         "ev": rng.integers(0, 5, nl)})
    range_rt = pa.table({"user_id": rng.integers(0, 50, nr),
                         "ts": pa.array(rng.integers(0, 10**9, nr) * 1000,
                                        pa.timestamp("us")),
                         "price": rng.random(nr).round(3)})
    for how, jt in (("inner", "JOIN"), ("left", "LEFT JOIN")):
        out = range_join(ray.data.from_arrow(range_lt).repartition(7),
                         ray.data.from_arrow(range_rt).repartition(5),
                         key="user_id", ts_col="ts", lo_s=-5000.0,
                         hi_s=12000.0, how=how, n_coarse=16)
        key = ["user_id", "ts", "ev", "ts_r", "price"]
        got = out.to_pandas().sort_values(key).reset_index(drop=True)
        want = duckdb.sql(f"""
            SELECT l.user_id, l.ts, l.ev, r.ts AS ts_r, r.price
            FROM range_lt l {jt} range_rt r ON r.user_id = l.user_id
              AND epoch_us(r.ts) BETWEEN epoch_us(l.ts) - 5000000000
                                     AND epoch_us(l.ts) + 12000000000
        """).df().sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want,
                                      check_dtype=False)


def test_range_join_edges():
    """Inclusive bounds at both ends, right-payload name collision gets
    the _r suffix, empty right side null-fills under how='left'."""
    from migration_pair_ray.stages.join import range_join
    left = ray.data.from_arrow(pa.table(
        {"k": [1, 1, 2], "ts": [10_000_000, 50_000_000, 10_000_000],
         "v": ["a", "b", "c"]}))
    right = ray.data.from_arrow(pa.table(
        {"k": [1, 1, 1, 3], "ts": [5_000_000, 10_000_000, 15_000_000, 1],
         "v": [100, 200, 300, 400]}))
    out = (range_join(left, right, key="k", ts_col="ts",
                      lo_s=-5.0, hi_s=5.0, how="left", n_coarse=4)
           .to_pandas().sort_values(["k", "ts", "v_r"], na_position="last")
           .reset_index(drop=True))
    # left row (1, 10s) matches rights at 5s, 10s, 15s (ends inclusive);
    # (1, 50s) and key 2 are unmatched -> one null-filled row each
    assert [None if pd.isna(x) else int(x) for x in out["v_r"]] == \
        [100, 200, 300, None, None]
    empty = ray.data.from_arrow(pa.table(
        {"k": pa.array([], pa.int64()), "ts": pa.array([], pa.int64()),
         "v": pa.array([], pa.int64())}))
    out2 = range_join(left, empty, key="k", ts_col="ts", lo_s=0, hi_s=1,
                      how="left", n_coarse=4)
    assert out2.count() == 3
    assert range_join(left, empty, key="k", ts_col="ts", lo_s=0, hi_s=1,
                      how="inner", n_coarse=4).count() == 0


def test_bloom_prefilter_join_equivalence():
    """Bloom-prefiltered join == plain join (no false negatives), and the
    prefilter actually drops non-matching probe rows before the shuffle."""
    from migration_pair_ray.stages.join import (bloom_filter_keys,
                                                build_key_bloom, hash_join)
    left = ray.data.from_arrow(pa.table({
        "k": [1, 2, 3], "lv": ["a", "b", "c"]}))
    right = ray.data.from_arrow(pa.table({
        "k": list(range(1000)), "rv": list(range(1000))}))
    plain = hash_join(left, right, on="k", how="inner").to_pandas()
    bloomed = hash_join(left, right, on="k", how="inner",
                        bloom_from="left").to_pandas()
    key = ["k", "lv", "rv"]
    assert (plain.sort_values(key).reset_index(drop=True)[key]
            .equals(bloomed.sort_values(key).reset_index(drop=True)[key]))
    # the standalone prefilter keeps ~ the 3 matches (false-positive
    # tolerance: well under the unfiltered 1000)
    ref = build_key_bloom(left, ["k"])
    survived = bloom_filter_keys(right, ["k"], ref).count()
    assert 3 <= survived < 50


def test_bloom_prefilter_rejects_semantics_breaking_combos():
    from migration_pair_ray.stages.join import hash_join
    left = ray.data.from_arrow(pa.table({"k": [1], "lv": ["a"]}))
    right = ray.data.from_arrow(pa.table({"k": [1], "rv": ["b"]}))
    with pytest.raises(ValueError):
        hash_join(left, right, on="k", how="outer", bloom_from="left")
    with pytest.raises(ValueError):
        hash_join(left, right, on="k", how="anti", bloom_from="right")
    # left join keeps every left row: filtering RIGHT by left-bloom is
    # fine, filtering LEFT by right-bloom is not
    with pytest.raises(ValueError):
        hash_join(left, right, on="k", how="left", bloom_from="right")


def test_bloom_prefilter_semi_and_anti_safe_sides():
    import duckdb
    from migration_pair_ray.stages.join import hash_join
    left = ray.data.from_arrow(pa.table({"k": [1, 2, 5, 9]}))
    right = ray.data.from_arrow(pa.table({"k": [2, 9, 11]}))
    semi = (hash_join(left, right, on="k", how="semi", bloom_from="right")
            .to_pandas().sort_values("k")["k"].tolist())
    assert semi == [2, 9]
    anti = (hash_join(left, right, on="k", how="anti", bloom_from="left")
            .to_pandas().sort_values("k")["k"].tolist())
    assert anti == [1, 5]


def test_salted_join_equivalence_under_skew():
    """90%-of-rows-one-key skew: salted join == plain join == DuckDB."""
    import numpy as np
    from migration_pair_ray.stages.join import hash_join, salted_hash_join
    rng = np.random.default_rng(7)
    n = 20_000
    keys = np.where(rng.random(n) < 0.9, 1, rng.integers(2, 50, n))
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(np.arange(n, dtype=np.int64))}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(50, dtype=np.int64)),
        "name": pa.array([f"n{i}" for i in range(50)])}))
    plain = (hash_join(left, right, on="k", how="inner")
             .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    salted = (salted_hash_join(left, right, on="k", how="inner",
                               salt=8, hot_frac=0.05)
              .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    assert plain[["k", "v", "name"]].equals(salted[["k", "v", "name"]])
    assert len(plain) == n     # every left row matched exactly once


def test_salted_join_left_and_semi_and_guards():
    from migration_pair_ray.stages.join import salted_hash_join
    left = ray.data.from_arrow(pa.table({
        "k": [1] * 100 + [2, 3], "v": list(range(102))}))
    right = ray.data.from_arrow(pa.table({"k": [1, 2], "name": ["a", "b"]}))
    lj = (salted_hash_join(left, right, on="k", how="left", salt=4,
                           hot_keys=[1]).to_pandas())
    assert len(lj) == 102
    assert lj[lj["k"] == 3]["name"].isna().all()
    semi = (salted_hash_join(left, right, on="k", how="semi", salt=4,
                             hot_keys=[1]).to_pandas())
    assert len(semi) == 101          # key 3 has no match; no dup from salt
    anti = (salted_hash_join(left, right, on="k", how="anti", salt=4,
                             hot_keys=[1]).to_pandas())
    assert anti["k"].tolist() == [3]
    with pytest.raises(ValueError):
        salted_hash_join(left, right, on="k", how="outer", hot_keys=[1])


def test_salted_join_empty_hot_set_falls_back():
    from migration_pair_ray.stages.join import salted_hash_join
    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "v": [9, 8, 7]}))
    right = ray.data.from_arrow(pa.table({"k": [2, 3], "name": ["b", "c"]}))
    # uniform keys: auto-detect finds nothing hot; falls back to the
    # plain (unsalted) join and still returns the right matches
    out = (salted_hash_join(left, right, on="k", hot_frac=0.5)
           .to_pandas().sort_values("k"))
    assert out["k"].tolist() == [2, 3]


def test_cli_fsck_task(tmp_path):
    """fsck through the CLI: clean lake audits ok (deep included); after
    deleting a state file the audit fails with a named problem."""
    log = tmp_path / "log"
    generate_change_log(str(log), n_events=300, n_convs=5, n_files=2, seed=6)
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4)
    cfg_path = tmp_path / "job.json"
    cfg.to_json(cfg_path)

    def cli(*args):
        out = subprocess.run(
            [sys.executable, "-m", "migration_pair_ray", *args,
             "--config", str(cfg_path), "--num-cpus", "4"],
            capture_output=True, text=True, cwd=REPO, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout.strip().splitlines()[-1])

    cli("replay")
    rep = cli("fsck", "--deep")
    assert rep["ok"] and rep["partitions"] == 4 and not rep["problems"]
    victim = sorted(pathlib.Path(cfg.lake_dir).glob(
        "part=*/state-*.parquet"))[0]
    victim.unlink()
    rep = cli("fsck")
    assert not rep["ok"]
    assert rep["problems"][0]["kind"] == "missing_file"
