"""Column-pruned lake reads (read_lake/final_state ``columns=``): a
two-column consumer must not pull the text payload off storage, across
every layout (plain, chunked, MoR, schema-evolved, cell kernel) — and the
pruned result must equal the full read projected."""

import os
from pathlib import Path

import pandas as pd
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, read_lake, replay


def _lake(tmp_path, name, **cfg_kw):
    stage = tmp_path / f"stage_{name}"
    # tool_epoch=1 → the first file predates the tool column (evolution)
    files = generate_change_log(str(stage), n_events=1500, n_convs=10,
                                n_files=3, tool_epoch=1, seed=13)
    log = tmp_path / f"log_{name}"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log),
                    lake_dir=str(tmp_path / f"lake_{name}"),
                    num_partitions=4, hash_state=False, **cfg_kw)
    for f in files:
        os.link(f, log / Path(f).name)
    replay(cfg)
    return cfg


def _df(ds) -> pd.DataFrame:
    return (ds.to_pandas().sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True))


CASES = {
    "plain": {},                                      # plain single-file
    "chunked": {"state_chunk_rows": 64},              # chunked layout
    "mor": {"mor_max_deltas": 8},                     # merge-on-read
    "cell": {"merge_kernel": "cell"},                 # cell kernel
}
# every layout on both read executors: the driver one the planner picks
# for these small lakes, and the forced Ray Data one
EXECUTOR_CASES = (
    [pytest.param(kw, False, id=name) for name, kw in CASES.items()]
    + [pytest.param(kw, True, id=f"{name}-distributed")
       for name, kw in CASES.items()])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("cfg_kw, distributed", EXECUTOR_CASES)
def test_pruned_final_state_equals_projection(tmp_path, request, cfg_kw,
                                              distributed):
    if distributed:
        request.getfixturevalue("distributed_reads")
    cfg = _lake(tmp_path, "p", **cfg_kw)
    cols = ["conv_id", "turn_idx", "tool"]   # tool absent from file 0
    full = _df(final_state(cfg, sort=False))[cols]
    pruned = _df(final_state(cfg, sort=False, columns=cols))
    assert list(pruned.columns) == cols
    pd.testing.assert_frame_equal(pruned, full, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_pruned_read_lake_and_validation(tmp_path):
    cfg = _lake(tmp_path, "v")
    # read_lake keeps internal rows: op is requestable there
    t = read_lake(cfg, columns=["conv_id", "op"]).to_pandas()
    assert list(t.columns) == ["conv_id", "op"]
    assert set(t["op"].unique()) <= {"I", "U", "D"}
    full = read_lake(cfg).to_pandas()
    assert len(t) == len(full)               # tombstones included both ways

    with pytest.raises(ValueError, match="not in the lake schema"):
        read_lake(cfg, columns=["nope"]).to_pandas()
    with pytest.raises(ValueError, match="cannot request"):
        final_state(cfg, columns=["conv_id", "op"])
    with pytest.raises(ValueError, match="needs conv_id"):
        final_state(cfg, sort=True, columns=["role"])


@pytest.mark.usefixtures("ray_session", "distributed_reads")
def test_pruned_read_skips_text_bytes(tmp_path):
    """The pruned plan must actually read less: compare the bytes of the
    blocks the task executor's per-partition reads return, with and
    without pruning."""
    cfg = _lake(tmp_path, "b")

    def read_bytes(ds) -> int:
        return sum(b.nbytes for b in ds.iter_batches(
            batch_size=None, batch_format="pyarrow"))

    full = read_bytes(final_state(cfg, sort=False))
    slim = read_bytes(final_state(cfg, sort=False,
                                  columns=["conv_id", "turn_idx"]))
    assert slim < full * 0.7, (slim, full)


@pytest.mark.usefixtures("ray_session")
def test_pruned_driver_read_skips_text_bytes(tmp_path):
    """The driver executor prunes at its Parquet read too: its one block
    carries the pruned columns only."""
    cfg = _lake(tmp_path, "d")

    def block_bytes(ds) -> int:
        blocks = list(ds.iter_batches(batch_size=None,
                                      batch_format="pyarrow"))
        assert len(blocks) == 1
        return blocks[0].nbytes

    full = block_bytes(final_state(cfg, sort=False))
    slim = block_bytes(final_state(cfg, sort=False,
                                   columns=["conv_id", "turn_idx"]))
    assert slim < full * 0.7, (slim, full)
