"""Point lookups against the DuckDB last-writer-wins oracle on every lake
layout, and the one-open row-group reader they share with
``fetch_conversations``.

Each lake is built by two replays (the second half of the log lands as
merge-on-read deltas on the ``mor`` lake and after a partition split on
the ``split`` lake).  Every lookup covers present, deleted and
never-written keys, turn-level and conv-level."""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.lookup import (candidate_plan, lookup_keys,
                                                 read_covering_row_groups)
from migration_pair_ray.pipelines.replay import replay

LAYOUTS = {
    "plain": {},
    "chunked": {"state_chunk_rows": 40},
    "mor": {"mor_max_deltas": 4},
    "cell": {"merge_kernel": "cell"},
    "key": {"partition_mode": "key"},
    "hot": {"partition_mode": "hot", "hot_convs": ["conv-0"]},
    "split": {},
}
VISIBLE = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def _lake(tmp_path, layout: str) -> tuple[JobConfig, list[str]]:
    log = str(tmp_path / "log")
    files = generate_change_log(log, n_events=1600, n_convs=12, n_files=4,
                                tool_epoch=2, hot_frac=0.3, delete_frac=0.15,
                                shuffle_window=200, seed=91)
    cfg = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False, **LAYOUTS[layout])
    for f in files[2:]:
        os.rename(f, f + ".hold")
    replay(cfg)
    if layout == "split":
        from migration_pair_ray.pipelines.compact import split_partition
        split_partition(cfg, 1, 2)
    for f in files[2:]:
        os.rename(f + ".hold", f)
    replay(cfg)
    return cfg, files


def _winners(files: list[str]) -> pa.Table:
    """Every key's last write by ``(ts, lsn)``, tombstones included, with
    ``second`` = whether the winner came from the second replay's files
    and ``in_first`` = whether the key was also written by the first."""
    lst = ", ".join(f"'{f}'" for f in files)
    late = ", ".join(f"'{f}'" for f in files[2:])
    return duckdb.sql(f"""
        WITH ch AS (SELECT *, filename IN ({late}) AS second
                    FROM read_parquet([{lst}], union_by_name=true,
                                      filename=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn,
              bool_or(NOT second) OVER (
                PARTITION BY conv_id, turn_idx) AS in_first
              FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts, op, lsn, second,
               in_first
        FROM w WHERE rn = 1 ORDER BY conv_id, turn_idx""").arrow()


def _rows(t: pa.Table, cols: list[str]) -> list[tuple]:
    return sorted(tuple(r[c] for c in cols) for r in t.select(cols).to_pylist())


def _pick_keys(win: pa.Table, layout: str) -> list[tuple[str, int]]:
    """Present and deleted keys (on the ``mor`` lake, present keys whose
    winner sits in a delta over an older base version) plus two
    never-written ones."""
    rows = win.to_pylist()
    live = [r for r in rows if r["op"] != "D"]
    if layout == "mor":
        live = [r for r in live if r["second"] and r["in_first"]]
    dead = [r for r in rows if r["op"] == "D"]
    assert len(live) >= 3 and len(dead) >= 2
    keys = [(r["conv_id"], r["turn_idx"]) for r in live[:3] + dead[:2]]
    return keys + [(live[0]["conv_id"], 10_000), ("conv-absent", 0)]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_lookup_matches_duckdb_lww_on_every_layout(tmp_path, layout):
    cfg, files = _lake(tmp_path, layout)
    win = _winners(files)
    keys = _pick_keys(win, layout)
    convs, turns = [c for c, _ in keys], [t for _, t in keys]
    want_keys = set(keys)
    by_key = [r for r in win.to_pylist()
              if (r["conv_id"], r["turn_idx"]) in want_keys]
    cell = layout == "cell"

    # turn-level, visible
    got = lookup_keys(cfg, convs, turns)
    want = [r for r in by_key if r["op"] != "D"]
    assert 3 <= len(want) < len(keys)
    assert _rows(got, VISIBLE) == _rows(pa.Table.from_pylist(want), VISIBLE)

    # turn-level, internal rows: one winner per key (row kernel) or the
    # determiner set (cell kernel: the tombstone watermark plus the live
    # winner after it — the log writes whole rows, no patches)
    internal = lookup_keys(cfg, convs, turns, visible_only=False)
    if cell:
        want_int = _determiners(files, want_keys)
    else:
        want_int = _rows(pa.Table.from_pylist(by_key), ["conv_id", "turn_idx",
                                                         "op", "lsn"])
    assert _rows(internal, ["conv_id", "turn_idx", "op", "lsn"]) == want_int

    # conv-level: every visible turn of two written convs and none of a
    # never-written conv
    pick = sorted({convs[0], convs[3]})
    got_c = lookup_keys(cfg, pick + ["conv-absent"])
    want_c = win.filter(pc.and_(
        pc.is_in(win.column("conv_id"), pa.array(pick)),
        pc.not_equal(win.column("op"), "D")))
    assert _rows(got_c, VISIBLE) == _rows(want_c, VISIBLE)

    if layout == "mor":
        # the plan for a delta-newer key really holds base + delta
        plan = candidate_plan(cfg, convs[:1], turns[:1])
        assert sum(len(e["files"]) for e in plan.values()) >= 2


def _determiners(files: list[str], keys: set) -> list[tuple]:
    lst = ", ".join(f"'{f}'" for f in files)
    t = duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet([{lst}], union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn,
              row_number() OVER (
                PARTITION BY conv_id, turn_idx, op = 'D'
                ORDER BY ts DESC, lsn DESC) rd
              FROM ch)
        SELECT conv_id, turn_idx, op, lsn FROM w
        WHERE (rn = 1 AND op <> 'D') OR (rd = 1 AND op = 'D')""").arrow()
    return [r for r in _rows(t, ["conv_id", "turn_idx", "op", "lsn"])
            if (r[0], r[1]) in keys]


def _multi_group_file(path: str, write_statistics: bool = True) -> None:
    convs = [f"c{i:02d}" for i in range(8) for _ in range(5)]
    pq.write_table(pa.table({"conv_id": convs,
                             "turn_idx": pa.array(range(40), pa.int32())}),
                   path, row_group_size=10,
                   write_statistics=write_statistics)


def _read_groups(monkeypatch) -> list[list[int]]:
    calls = []
    orig = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *a, **kw):
        calls.append(list(row_groups))
        return orig(self, row_groups, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    return calls


def test_row_group_reader_decodes_only_covering_groups(tmp_path, monkeypatch):
    """Four row groups of two convs each: a request for convs in groups 0
    and 2 decodes exactly those, and a conv past every group's range
    decodes none."""
    path = str(tmp_path / "f.parquet")
    _multi_group_file(path)
    calls = _read_groups(monkeypatch)
    t = read_covering_row_groups(path, ["c01", "c05"])
    assert calls == [[0, 2]]
    assert _rows(t, ["conv_id"]) == [("c01",)] * 5 + [("c05",)] * 5
    out = read_covering_row_groups(path, ["zz"])
    assert calls[1:] == [] and out.num_rows == 0
    assert out.schema.names == ["conv_id", "turn_idx"]


def test_row_group_reader_reads_every_group_without_statistics(
        tmp_path, monkeypatch):
    path = str(tmp_path / "f.parquet")
    _multi_group_file(path, write_statistics=False)
    calls = _read_groups(monkeypatch)
    t = read_covering_row_groups(path, ["c01"])
    assert calls == [[0, 1, 2, 3]]
    assert t.column("turn_idx").to_pylist() == [5, 6, 7, 8, 9]
