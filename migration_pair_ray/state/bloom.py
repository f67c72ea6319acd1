"""Per-state-file Bloom sidecars: skip files a point lookup cannot hit.

Chunk key-range pruning (manifest ``key_lo``/``key_hi``) answers "could this
range contain the key"; a Bloom filter over the file's ACTUAL keys answers
"is the key plausibly present at all".  The win is the absent-key lookup —
the most common case on a serving path (cache-miss checks, existence
probes): ranges almost always cover, so without a filter every miss costs a
Parquet read.  At 100 TB the sidecars ride next to their immutable state
files (~1.25 bytes/key at 1% false positives) and only the few
range-surviving sidecars are read per lookup, never the lake.

Safety model: a sidecar is an ACCELERATOR, never an authority —

* missing sidecar (pre-bloom lake, interrupted write) -> file stays a
  candidate;
* corrupt sidecar (torn write) -> CRC mismatch -> ignored, file stays a
  candidate;
* false positive -> harmless extra read (the lookup still decodes only
  the row groups whose ``conv_id`` statistics can hold a requested conv,
  ``lookup.read_covering_row_groups``).

False NEGATIVES are impossible absent code bugs because state files are
immutable copy-on-write (a retried task rewrites identical bytes, so a
sidecar can never describe a different table than its file); deep fsck
re-verifies that invariant (`bloom_mismatch`).

Two filters per sidecar: one over ``conv_id`` (conversation-level lookups)
and one over the full merge key ``conv_id || \\x00 || turn_idx`` (turn-level
lookups).  Hashing is the repo-wide process-stable SipHash
(`functions.hashing.stable_hash64`) with Kirsch-Mitzenmacher double hashing
(k indices from one 64-bit value) — deterministic across workers and runs.

Reference analog: none — Cassandra owned its per-SSTable bloom filters
(the reference leaned on them implicitly for point reads); an engine that
owns its lake files must own their filters explicitly.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from migration_pair_ray.state.filecache import published

_MAGIC = b"MPRB1\n"
_K = 7                    # hash functions
_BITS_PER_KEY = 10        # ~0.8% false positives at k=7
_PAIR_SEP = "\x00"
SIDECAR_SUFFIX = ".bloom"


def sidecar_path(parquet_path: str | Path) -> str:
    return str(parquet_path) + SIDECAR_SUFFIX


def _hash_keys(keys) -> np.ndarray:
    from migration_pair_ray.functions.hashing import stable_hash64
    return stable_hash64(np.asarray(keys, dtype=object))


def _indices(h: np.ndarray, m: int) -> np.ndarray:
    """(k, n) bit indices via double hashing: idx_i = (h1 + i*h2) mod m."""
    h = h.astype(np.uint64, copy=False)
    h1 = h % np.uint64(m)
    h2 = ((h >> np.uint64(33)) | np.uint64(1)) % np.uint64(m)
    i = np.arange(_K, dtype=np.uint64)[:, None]
    return (h1[None, :] + i * h2[None, :]) % np.uint64(m)


def _build_bits(keys) -> tuple[bytes, int]:
    """Bloom payload over distinct keys -> (bits, m)."""
    n = max(len(keys), 1)
    m = ((n * _BITS_PER_KEY + 63) // 64) * 64
    bits = np.zeros(m // 8, dtype=np.uint8)
    if len(keys):
        idx = _indices(_hash_keys(keys), m).ravel()
        np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                         np.left_shift(np.uint8(1),
                                       (idx & np.uint64(7)).astype(np.uint8)))
    return bits.tobytes(), m


def _test_any(bits: np.ndarray, m: int, keys) -> bool:
    """True iff ANY key has all k bits set (i.e. may be present)."""
    if not len(keys) or m == 0:
        return False
    idx = _indices(_hash_keys(keys), m)              # (k, n)
    got = (bits[(idx >> np.uint64(3)).astype(np.int64)]
           >> (idx & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
    return bool(got.all(axis=0).any())


def _merge_key_arrays(table) -> tuple[np.ndarray, np.ndarray]:
    """Distinct non-null conv ids and distinct merge-key strings.  The
    filter bits are a set union and their size follows the distinct
    count only, so Arrow's hash-based ``unique`` (first-seen order) gives
    the same sidecar bytes as a sort, without boxing every row's key as a
    Python string first."""
    import pyarrow as pa
    import pyarrow.compute as pc
    conv = table.column("conv_id")
    mask = pc.is_valid(conv)
    if table.column("turn_idx").null_count:
        mask = pc.and_(mask, pc.is_valid(table.column("turn_idx")))
    t = table.filter(mask)
    pairs = pc.binary_join_element_wise(
        t.column("conv_id"), pc.cast(t.column("turn_idx"), pa.string()),
        _PAIR_SEP)
    return (pc.unique(t.column("conv_id")).to_numpy(zero_copy_only=False),
            pc.unique(pairs).to_numpy(zero_copy_only=False))


def write_sidecar(parquet_path: str, table) -> None:
    """Build + fsync ``<file>.bloom`` next to a just-written state file.

    Call AFTER the parquet write and BEFORE the manifest commit (same
    discipline as the file itself); rows with null merge keys are excluded
    (a lookup never requests null keys, and null-key partitions fall back
    to un-bloomed single files anyway).
    """
    convs, pairs = _merge_key_arrays(table)
    conv_bits, m_conv = _build_bits(convs)
    pair_bits, m_pair = _build_bits(pairs)
    payload = conv_bits + pair_bits
    header = json.dumps({"m_conv": m_conv, "m_pair": m_pair, "k": _K,
                         "crc": zlib.crc32(payload)}).encode() + b"\n"
    path = sidecar_path(parquet_path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_MAGIC + header + payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


class BloomSidecar:
    """Loaded, validated sidecar; constructed via :func:`load_sidecar`."""

    def __init__(self, m_conv: int, m_pair: int, payload: bytes):
        self.m_conv, self.m_pair = m_conv, m_pair
        buf = np.frombuffer(payload, dtype=np.uint8)
        self._conv_bits = buf[: m_conv // 8]
        self._pair_bits = buf[m_conv // 8:]

    def may_contain_conv(self, conv_ids) -> bool:
        return _test_any(self._conv_bits, self.m_conv, list(conv_ids))

    def may_contain_pairs(self, pairs) -> bool:
        keys = [f"{c}{_PAIR_SEP}{int(t)}" for c, t in pairs]
        return _test_any(self._pair_bits, self.m_pair, keys)

    def contains_all(self, table) -> bool:
        """Deep-fsck invariant: every key in ``table`` must hit (a Bloom
        filter has no false negatives over its own build set)."""
        convs, pairs = _merge_key_arrays(table)
        if len(convs):
            idx = _indices(_hash_keys(convs), self.m_conv)
            got = (self._conv_bits[(idx >> np.uint64(3)).astype(np.int64)]
                   >> (idx & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
            if not got.all():
                return False
        if len(pairs):
            idx = _indices(_hash_keys(pairs), self.m_pair)
            got = (self._pair_bits[(idx >> np.uint64(3)).astype(np.int64)]
                   >> (idx & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
            if not got.all():
                return False
        return True


def load_sidecar(parquet_path: str | Path) -> BloomSidecar | None:
    """None on missing/torn/foreign sidecar — callers treat that as
    "cannot prune" (the file stays a lookup candidate).  A sidecar is
    published by temp + rename and never rewritten, so its parse is kept
    per process (``state.filecache.published``): a repeated lookup pays
    one ``os.stat``, and a sidecar replaced or truncated since is parsed
    again."""
    try:
        return published(sidecar_path(parquet_path), _parse_sidecar)
    except OSError:
        return None


def _parse_sidecar(path: str) -> BloomSidecar | None:
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        return None
    try:
        nl = raw.index(b"\n", len(_MAGIC))
        hdr = json.loads(raw[len(_MAGIC):nl])
        payload = raw[nl + 1:]
        if (hdr.get("k") != _K
                or len(payload) != (hdr["m_conv"] + hdr["m_pair"]) // 8
                or zlib.crc32(payload) != hdr["crc"]):
            return None
        return BloomSidecar(int(hdr["m_conv"]), int(hdr["m_pair"]), payload)
    except (ValueError, KeyError, TypeError):
        return None


def gc_partition_files(lake_dir: str, pid: int,
                       referenced: set[str]) -> tuple[int, int]:
    """The ONE partition-GC authority: delete state files the committed
    manifest no longer references, plus their (and any orphaned) bloom
    sidecars.  Returns (files_deleted, bytes_deleted) — sidecar deletions
    are counted in bytes but not in the file count (ops stats track state
    files; sidecars are their shadows)."""
    from migration_pair_ray.stages.applier import partition_dir
    d = partition_dir(lake_dir, pid)
    files = bytes_ = 0
    for old in d.glob("state-*.parquet"):
        if str(old.relative_to(lake_dir)) in referenced:
            continue
        try:
            size = old.stat().st_size
            old.unlink()
            files += 1
            bytes_ += size
        except OSError:
            continue
    for b in d.glob("state-*.parquet" + SIDECAR_SUFFIX):
        rel = str(b.relative_to(lake_dir))[: -len(SIDECAR_SUFFIX)]
        if rel not in referenced:
            try:
                size = b.stat().st_size
                b.unlink()
                bytes_ += size
            except OSError:
                pass
    return files, bytes_
