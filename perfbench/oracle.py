"""Independent correctness oracles.

The change-log oracle is plain DuckDB SQL over the change files: the
winner of each ``(conv_id, turn_idx)`` is the event with the greatest
``(ts, lsn)``, and a winning delete hides the key.  It shares no code with
the engine.  The operator oracle is ``__ray_entry__.oracle_sql()`` run by
DuckDB over the generated tables.
"""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

KEYS = ["conv_id", "turn_idx"]
VISIBLE = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
_SORT = [(k, "ascending") for k in KEYS]


def lww_winners(files: list[str]) -> pa.Table:
    """One row per key: the winning event's visible columns plus ``op``
    (tombstones included), sorted by key."""
    if not files:
        raise ValueError("lww_winners needs at least one change file")
    paths = "[" + ", ".join("'" + f.replace("'", "''") + "'" for f in files) + "]"
    con = duckdb.connect()
    try:
        t = con.sql(f"""
            SELECT conv_id, turn_idx, role, text, tool, ts, op FROM (
              SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                           ORDER BY ts DESC, lsn DESC) AS rn
              FROM read_parquet({paths}, union_by_name = true))
            WHERE rn = 1""").arrow()
    finally:
        con.close()
    return t.sort_by(_SORT)


def visible(winners: pa.Table) -> pa.Table:
    """The user-visible final state: tombstoned keys removed."""
    return winners.filter(pc.not_equal(winners.column("op"), "D")).select(VISIBLE)


def same_state(got: pa.Table, want: pa.Table) -> bool:
    """Whether ``got`` holds exactly the rows of ``want`` (any row order,
    column types conformed to ``want``)."""
    if got.num_rows != want.num_rows:
        return False
    got = got.select(VISIBLE).sort_by(_SORT)
    try:
        got = got.cast(want.schema)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return False
    return got.equals(want.sort_by(_SORT))


class StateIndex:
    """In-memory copy of the oracle's visible state for checking served
    reads: key -> visible row, conversation -> its visible rows."""

    def __init__(self, winners: pa.Table):
        self.table = visible(winners)
        rows = self.table.to_pylist()
        self.by_key = {(r["conv_id"], r["turn_idx"]): r for r in rows}
        self.by_conv: dict[str, list[dict]] = {}
        for r in rows:
            self.by_conv.setdefault(r["conv_id"], []).append(r)
        ops = winners.column("op").to_pylist()
        self.tombstones = [(c, t) for c, t, o in zip(
            winners.column("conv_id").to_pylist(),
            winners.column("turn_idx").to_pylist(), ops) if o == "D"]
        self.num_rows = self.table.num_rows

    def check_rows(self, got: pa.Table, want: list[dict]) -> bool:
        rows = sorted(got.select(VISIBLE).to_pylist(),
                      key=lambda r: (r["conv_id"], r["turn_idx"]))
        return rows == sorted(want, key=lambda r: (r["conv_id"], r["turn_idx"]))


def frame(res) -> pd.DataFrame:
    """A query result (Dataset, Arrow table or DataFrame) as a DataFrame in
    canonical column and row order, for order-insensitive comparison."""
    import ray.data
    if isinstance(res, ray.data.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    df = res[sorted(res.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def same_frame(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    if got.shape != want.shape or list(got.columns) != list(want.columns):
        return False
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    except AssertionError:
        return False
    return True


class SuiteOracle:
    """DuckDB views over the generated tables and the expected frame of
    each suite query, computed once."""

    def __init__(self, table_dir: str, tables: list[str]):
        import __ray_entry__
        self.sql = __ray_entry__.oracle_sql()
        self.con = duckdb.connect()
        for t in tables:
            self.con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                         f"read_parquet('{table_dir}/{t}.parquet')")
        self._want: dict[str, pd.DataFrame] = {}

    def expected(self, query: str) -> pd.DataFrame:
        if query not in self._want:
            self._want[query] = frame(self.con.sql(self.sql[query]).df())
        return self._want[query]

    def close(self) -> None:
        self.con.close()
