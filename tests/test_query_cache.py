"""The query library's cache: ``_derived_lake`` builds each derived lake
once per set of inputs, and ``_cache_dir`` is the one place that knows
where caches live."""

import json
from pathlib import Path

import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.pipelines import queries


@pytest.fixture()
def sf_dir(tmp_path, monkeypatch):
    """A testdata tree whose derived log is a small generated 4-file log,
    cached under a temporary root."""
    monkeypatch.setattr(queries, "_CACHE_ROOT", tmp_path / "cache")

    def write_log(sf_dir, log_dir, flavor=None):
        if not list(Path(log_dir).glob("batch-*.parquet")):
            generate_change_log(log_dir, n_events=400, n_convs=8,
                                n_files=4, seed=11)

    monkeypatch.setattr(queries, "_write_derived_log", write_log)
    sf = tmp_path / "sf"
    sf.mkdir()
    return str(sf)


def committed(cfg) -> list[list[str]]:
    """The change files of each committed pass, in commit order."""
    recs = [json.loads(p.read_text())
            for p in Path(cfg.checkpoint_dir).glob("pass-*.json")]
    return [r["files"] for r in sorted(recs, key=lambda r: r["seq"])]


def log_files(sf_dir) -> list[str]:
    return sorted(p.name for p in
                  queries._cache_dir(sf_dir, "log").glob("batch-*.parquet"))


@pytest.mark.usefixtures("ray_session")
def test_same_phases_reuse_the_lake(sf_dir):
    cfg = queries._derived_lake(sf_dir, "t", ((0, 2), (2, None)))
    files = log_files(sf_dir)
    assert committed(cfg) == [files[:2], files[2:]]
    kept = Path(cfg.lake_dir).parent / "kept"
    kept.touch()
    assert queries._derived_lake(sf_dir, "t", ((0, 2), (2, None))) == cfg
    assert committed(cfg) == [files[:2], files[2:]]
    assert kept.exists()


@pytest.mark.usefixtures("ray_session")
def test_changed_inputs_rebuild_the_lake(sf_dir):
    cfg = queries._derived_lake(sf_dir, "t", ((0, 1),))
    files = log_files(sf_dir)
    assert committed(cfg) == [files[:1]]
    cfg = queries._derived_lake(sf_dir, "t", ((0, 3), (3, None)))
    assert committed(cfg) == [files[:3], files[3:]]
    stray = Path(cfg.lake_dir).parent / "stray"
    stray.touch()
    cfg = queries._derived_lake(sf_dir, "t", ((0, 3), (3, None)),
                                retain_passes=1)
    assert cfg.retain_passes == 1 and not stray.exists()
    assert committed(cfg) == [files[:3], files[3:]]


@pytest.mark.usefixtures("ray_session")
def test_a_build_without_its_marker_is_rebuilt(sf_dir):
    def crash(cfg, stats):
        raise RuntimeError("crash after the first pass")

    with pytest.raises(RuntimeError):
        queries._derived_lake(sf_dir, "t", ((0, 2), (2, None)), hook=crash)
    files = log_files(sf_dir)
    root = queries._cache_dir(sf_dir, "t")
    assert not (root / "_built.json").exists()
    (root / "stray").touch()
    cfg = queries._derived_lake(sf_dir, "t", ((0, 2), (2, None)))
    assert not (root / "stray").exists()
    assert committed(cfg) == [files[:2], files[2:]]


def test_cache_root_is_spelled_once():
    """Every cache path goes through ``_cache_dir``: the root literal
    appears once in the package, where ``_CACHE_ROOT`` is defined."""
    pkg = Path(queries.__file__).parents[1]
    hits = [(p.relative_to(pkg).as_posix(), line.strip())
            for p in sorted(pkg.rglob("*.py"))
            for line in p.read_text().splitlines()
            if "/tmp/mpr_queries" in line]
    assert hits == [("pipelines/queries.py",
                     '_CACHE_ROOT = Path("/tmp/mpr_queries")')]
