"""Parsed footers and Bloom sidecars of published lake files are kept per
process (``state.filecache.published``), validated by one ``os.stat``: a
file replaced at its path is parsed again, a missing one raises, and the
number of kept parses stays under a constant cap."""

import os
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from migration_pair_ray.sources.readers import read_footer
from migration_pair_ray.state import filecache
from migration_pair_ray.state.bloom import (load_sidecar, sidecar_path,
                                            write_sidecar)


def _keys(n: int, conv: str = "c") -> pa.Table:
    return pa.table({"conv_id": pa.array([f"{conv}{i}" for i in range(n)]),
                     "turn_idx": pa.array(list(range(n)), pa.int32()),
                     "op": pa.array(["U"] * n)})


def _publish(path: Path, write) -> None:
    """Write ``path`` as the lake publishes: a temporary file, then an
    atomic rename over the path."""
    tmp = path.with_name(path.name + ".tmp")
    write(str(tmp))
    os.replace(tmp, path)


def test_a_file_replaced_at_its_path_is_parsed_again(tmp_path):
    """Rewriting a state file and its sidecar at the same paths (temp +
    ``os.replace``, different bytes) returns the new footer and the new
    sidecar; an unchanged file returns the parse kept from the first
    call."""
    state = tmp_path / "state-0.parquet"
    _publish(state, lambda p: pq.write_table(_keys(3), p))
    write_sidecar(str(state), _keys(3))
    first, first_blm = read_footer(str(state)), load_sidecar(str(state))
    assert first[2].num_rows == 3 and first_blm.may_contain_conv(["c1"])
    assert read_footer(str(state)) is first
    assert load_sidecar(str(state)) is first_blm

    _publish(state, lambda p: pq.write_table(
        _keys(5, "d").append_column("tool", pa.array(["x"] * 5)), p))
    write_sidecar(str(state), _keys(5, "d"))
    schema, nbytes, md = read_footer(str(state))
    assert md.num_rows == 5 and "tool" in schema.names
    assert nbytes != first[1]
    blm = load_sidecar(str(state))
    assert blm is not first_blm
    assert blm.may_contain_conv(["d4"]) and not blm.may_contain_conv(["c1"])


def test_a_missing_file_raises_and_a_torn_sidecar_stops_pruning(tmp_path):
    """A published file that is gone raises ``FileNotFoundError`` even
    after its parse was kept; a sidecar truncated in place is parsed
    again (its size changed) and no longer prunes."""
    state = tmp_path / "state-0.parquet"
    pq.write_table(_keys(4), str(state))
    write_sidecar(str(state), _keys(4))
    read_footer(str(state))
    assert load_sidecar(str(state)) is not None
    side = Path(sidecar_path(str(state)))
    side.write_bytes(side.read_bytes()[:10])
    assert load_sidecar(str(state)) is None
    side.unlink()
    assert load_sidecar(str(state)) is None
    state.unlink()
    with pytest.raises(FileNotFoundError):
        read_footer(str(state))


def test_the_entry_cap_holds(tmp_path):
    """After more distinct files than the cap, the cache holds exactly
    the cap, the least recently used entries went first, and an evicted
    file is parsed again on its next read."""
    parsed: list[str] = []

    def parse(path):
        parsed.append(path)
        return Path(path).read_bytes()

    paths = []
    for i in range(filecache._CAP + 5):
        p = tmp_path / f"f{i}"
        p.write_bytes(str(i).encode())
        paths.append(str(p))
    for p in paths:
        assert filecache.published(p, parse) == Path(p).read_bytes()
    assert len(parsed) == len(paths)
    assert len(filecache._entries) == filecache._CAP
    kept = {path for fn, path in filecache._entries if fn is parse}
    assert kept == set(paths[5:])
    filecache.published(paths[-1], parse)
    assert len(parsed) == len(paths)            # kept: no parse
    filecache.published(paths[0], parse)
    assert parsed[-1] == paths[0]               # evicted: parsed again
    assert len(filecache._entries) == filecache._CAP


def test_threads_share_the_cache_under_eviction(tmp_path, monkeypatch):
    """Eight threads read 24 files through a cache of 8 entries with a
    shortened switch interval: every read returns its own file's parse,
    and the cache never holds more than its cap."""
    import sys
    import threading
    monkeypatch.setattr(filecache, "_CAP", 8)
    paths = []
    for i in range(24):
        p = tmp_path / f"f{i}"
        p.write_bytes(str(i).encode())
        paths.append(str(p))
    errors: list = []
    sizes: list[int] = []

    def parse(path):
        return Path(path).read_bytes()

    def work(k):
        try:
            for j in range(400):
                p = paths[(k * 7 + j) % len(paths)]
                if filecache.published(p, parse) != Path(p).read_bytes():
                    errors.append(p)
                with filecache._lock:
                    sizes.append(len(filecache._entries))
        except Exception as e:             # reported by the assert below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(sizes) == 8 * 400 and max(sizes) <= 8
