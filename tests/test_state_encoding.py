"""State files are written for the read path (stages/applier.
write_state_parquet): LZ4 pages, dictionary pages only on
``schemas.DICTIONARY_COLUMNS``.  Every state-file writer goes through
that one function, and the codec is per-file metadata, so a lake written
under the earlier zstd policy keeps serving next to the new files."""

import os
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.compact import compact_deltas, split_partition
from migration_pair_ray.pipelines.fsck import validate_lake
from migration_pair_ray.pipelines.lookup import fetch_conversations, lookup_keys
from migration_pair_ray.pipelines.replay import final_state, replay
from migration_pair_ray.schemas import DICTIONARY_COLUMNS
from migration_pair_ray.stages import applier
from migration_pair_ray.stages.applier import state_file_paths
from migration_pair_ray.state.bloom import write_sidecar
from migration_pair_ray.state.manifest import LakeMeta, ManifestStore

VISIBLE = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def _column_chunks(path: str) -> dict[str, set[tuple[str, bool]]]:
    """Per column: the (codec, has a dictionary page) pairs of its chunks."""
    md = pq.read_metadata(path)
    out: dict[str, set] = {}
    for rg in range(md.num_row_groups):
        for i in range(md.num_columns):
            c = md.row_group(rg).column(i)
            out.setdefault(c.path_in_schema, set()).add(
                (c.compression, c.has_dictionary_page))
    return out


def _assert_read_path_encoding(path: str) -> dict:
    chunks = _column_chunks(path)
    for col, seen in chunks.items():
        assert seen == {("LZ4", col in DICTIONARY_COLUMNS)}, (path, col, seen)
    return chunks


def _manifests(cfg: JobConfig) -> dict[int, dict]:
    store = ManifestStore(cfg.manifest_dir)
    return {pid: store.read(pid)
            for pid in LakeMeta(cfg.lake_dir).active_partition_ids()
            if store.read(pid)}


def _base_files(cfg: JobConfig) -> set[str]:
    return {p for m in _manifests(cfg).values()
            for p in state_file_paths(cfg.lake_dir, m)}


def _delta_files(cfg: JobConfig) -> set[str]:
    return {str(Path(cfg.lake_dir) / e["file"])
            for m in _manifests(cfg).values()
            for e in m.get("delta_files", [])}


def _arrive(log: Path, files) -> None:
    log.mkdir(exist_ok=True)
    for f in files:
        os.link(f, log / Path(f).name)


def _with_extra_column(src: str, dst: str) -> str:
    """``src`` plus ``lang``, a repeating string column no state file had:
    schema evolution adds it, and the writer must leave it plain."""
    t = pq.read_table(src)
    lang = pa.array((["en", "fr"] * t.num_rows)[:t.num_rows])
    pq.write_table(t.append_column("lang", lang), dst)
    return dst


@pytest.mark.usefixtures("ray_session")
def test_every_state_writer_writes_lz4_with_key_dictionaries(tmp_path):
    """One file from each writer: copy-on-write state, merge-on-read delta,
    key-range chunk, compaction output and split child.  Every column
    chunk is LZ4; dictionary pages sit exactly on DICTIONARY_COLUMNS, and
    a column schema evolution added gets none."""
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1500, n_convs=10,
                                n_files=3, tool_epoch=1, seed=29)
    files[2] = _with_extra_column(files[2],
                                  str(stage / "batch-99999.parquet"))

    def lake(name, **kw):
        return JobConfig(changelog_dir=str(tmp_path / f"log_{name}"),
                         lake_dir=str(tmp_path / name), num_partitions=4, **kw)

    def check(writer: str, paths: set[str]) -> None:
        assert paths, writer
        for path in paths:
            chunks = _assert_read_path_encoding(path)
            assert set(DICTIONARY_COLUMNS) <= set(chunks), (writer, path)
            assert "lang" in chunks, (writer, path)

    cow, mor, chunked = (lake("cow"), lake("mor", mor_max_deltas=8),
                         lake("chunked", state_chunk_rows=60))
    lakes = {"copy-on-write": (cow, _base_files), "delta": (mor, _delta_files),
             "chunk": (chunked, _base_files)}
    for cfg, _ in lakes.values():
        _arrive(Path(cfg.changelog_dir), files[:2])
        replay(cfg)
    # the pass that brings ``lang``: check the files it wrote
    before = {w: files_of(cfg) for w, (cfg, files_of) in lakes.items()}
    for w, (cfg, files_of) in lakes.items():
        _arrive(Path(cfg.changelog_dir), files[2:])
        replay(cfg)
        check(w, files_of(cfg) - before[w])
    assert all(len(m["data_files"]) > 1 for m in _manifests(chunked).values())

    bases = _base_files(mor)
    assert compact_deltas(mor)["partitions_compacted"] > 0
    assert not _delta_files(mor)
    check("compaction", _base_files(mor) - bases)

    split = split_partition(cow, 0, fanout=2)
    store = ManifestStore(cow.manifest_dir)
    check("split child", {p for c in split["children"]
                          for p in state_file_paths(cow.lake_dir,
                                                    store.read(c))})


def _zstd_writer(table: pa.Table, path: str) -> int:
    """The state-file writer before LZ4: zstd pages and pyarrow's default
    dictionary on every column."""
    nbytes = applier._publish(path, lambda tmp: pq.write_table(
        table, tmp, compression="zstd"))
    write_sidecar(path, table)
    return nbytes


def _oracle(files: list[str]) -> pd.DataFrame:
    paths = ", ".join(f"'{f}'" for f in files)
    return duckdb.sql(f"""
        WITH ch AS (SELECT * FROM read_parquet([{paths}], union_by_name=true)),
        w AS (SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) rn
              FROM ch)
        SELECT conv_id, turn_idx, role, text, tool, ts
        FROM w WHERE rn = 1 AND op <> 'D'
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)


def _frame(t) -> pd.DataFrame:
    df = t.to_pandas()[VISIBLE]
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _codecs(paths) -> set[str]:
    return {codec for p in paths for seen in _column_chunks(p).values()
            for codec, _ in seen}


@pytest.mark.usefixtures("ray_session")
def test_zstd_lake_takes_lz4_passes_without_migration(tmp_path, monkeypatch):
    """Passes 1-2 are written under the zstd policy, passes 3-4 under
    LZ4.  Deep fsck checks the old files' content hashes; the mixed lake
    then answers ``final_state``, ``lookup_keys``, ``fetch_conversations``
    and an as-of read of pass 2 as the DuckDB LWW oracle does, and
    ``compact_deltas`` folds both policies into LZ4 bases."""
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1600, n_convs=10,
                                n_files=4, tool_epoch=1, shuffle_window=200,
                                seed=31)
    log = tmp_path / "log"
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, mor_max_deltas=8, retain_passes=4,
                    hash_state=True)
    pass_ids = []
    with monkeypatch.context() as mp:
        mp.setattr(applier, "write_state_parquet", _zstd_writer)
        for f in files[:2]:
            _arrive(log, [f])
            pass_ids.append(replay(cfg)["pass_id"])
    old = _base_files(cfg) | _delta_files(cfg)
    assert _codecs(old) == {"ZSTD"}
    fsck = validate_lake(cfg, deep=True)
    assert fsck["ok"], fsck["problems"]

    for f in files[2:]:
        _arrive(log, [f])
        pass_ids.append(replay(cfg)["pass_id"])
    mixed = _base_files(cfg) | _delta_files(cfg)
    assert old <= mixed and _codecs(mixed - old) == {"LZ4"}

    want = _oracle(files)
    pd.testing.assert_frame_equal(_frame(final_state(cfg)), want,
                                  check_dtype=False)
    convs = sorted(want["conv_id"].unique())[::3]
    subset = want[want["conv_id"].isin(convs)].reset_index(drop=True)
    pd.testing.assert_frame_equal(_frame(lookup_keys(cfg, convs)), subset,
                                  check_dtype=False)
    pd.testing.assert_frame_equal(_frame(fetch_conversations(cfg, convs)),
                                  subset, check_dtype=False)
    pd.testing.assert_frame_equal(_frame(final_state(cfg, as_of=pass_ids[1])),
                                  _oracle(files[:2]), check_dtype=False)
    fsck = validate_lake(cfg, deep=True)
    assert fsck["ok"], fsck["problems"]

    assert compact_deltas(cfg)["partitions_compacted"] > 0
    assert not _delta_files(cfg) and _codecs(_base_files(cfg)) == {"LZ4"}
    pd.testing.assert_frame_equal(_frame(final_state(cfg)), want,
                                  check_dtype=False)
    fsck = validate_lake(cfg, deep=True)
    assert fsck["ok"], fsck["problems"]
