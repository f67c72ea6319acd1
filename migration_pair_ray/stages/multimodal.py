"""Multimodal column plumbing — image/audio/video as opaque ``binary``
columns with typed metadata.

The decode kernels themselves are STUBBED (PIL/ffmpeg/torchaudio are not in
this container): ``decode=`` accepts a callable so a real decoder drops in
unchanged; the default deterministic fake derives "features" from the raw
bytes so the Ray-side plumbing — schema, per-batch stage functions, batch
sizing for large payloads, output layout — is real and tested.

Each stage is a plain batch function for ``map_batches`` (Ray Data's
task strategy: nothing outlives the query).  Pass a SMALL ``batch_size``
(tens to a hundred rows): a batch holds that many binary payloads, and
their decoded or re-encoded copies, in memory at once.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    pa.field("media_id", pa.int64()),
    pa.field("payload", pa.binary()),       # the opaque blob
    pa.field("media_type", pa.string()),    # "image" | "audio" | "video"
    pa.field("meta", pa.string()),          # JSON sidecar (w/h, codec, ...)
])


def fake_payload_from_text(batch: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id", media_type: str = "image"
                           ) -> pa.Table:
    """Deterministic synthetic media table from a text table (test fixture:
    payload = utf-8 bytes; meta = byte length)."""
    texts = batch.column(text_col).to_pylist()
    payloads = [(t or "").encode("utf-8") for t in texts]
    metas = ['{"n_bytes": %d}' % len(p) for p in payloads]
    return pa.table({
        "media_id": batch.column(id_col),
        "payload": pa.array(payloads, pa.binary()),
        "media_type": pa.array([media_type] * len(payloads), pa.string()),
        "meta": pa.array(metas, pa.string()),
    })


def _default_fake_decode(payload: bytes, media_type: str) -> np.ndarray:
    """STUB decoder: a real implementation would be e.g.
    ``np.asarray(PIL.Image.open(io.BytesIO(payload)))``.  The fake is
    deterministic: 8 float32 features from the sha256 of the bytes."""
    h = hashlib.sha256(payload).digest()
    return (np.frombuffer(h[:32], dtype=np.uint32).astype(np.float32)
            / np.float32(2**32))


def extract_features(batch: pa.Table, decode=_default_fake_decode
                     ) -> pa.Table:
    """Decode + featurize binary payloads: one row per payload with its
    byte length and ``decode``'s feature vector.  ``decode(payload,
    media_type)`` is where a real decoder drops in; blocks of binary
    columns stay in Arrow end-to-end (no pandas object dtype round trip).
    """
    payloads = batch.column("payload").to_pylist()
    types = batch.column("media_type").to_pylist()
    feats = [decode(p or b"", t) for p, t in zip(payloads, types)]
    return pa.table({
        "media_id": batch.column("media_id"),
        "media_type": batch.column("media_type"),
        "n_bytes": pa.array([len(p or b"") for p in payloads], pa.int64()),
        "features": pa.array([f.tolist() for f in feats],
                             pa.list_(pa.float32())),
    })


def _default_fake_resize(payload: bytes, media_type: str,
                         width: int, height: int) -> bytes:
    """STUB resize kernel: a real implementation would decode, resize
    (``PIL.Image.resize((width, height))``), re-encode.  The fake is
    deterministic and size-bounded: the payload is hashed into exactly
    ``width * height // 64`` bytes so downstream size accounting is real."""
    n_out = max(1, width * height // 64)
    out = bytearray()
    counter = 0
    while len(out) < n_out:
        out += hashlib.sha256(payload + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:n_out])


def resize_media(batch: pa.Table, width: int = 256, height: int = 256,
                 resize=_default_fake_resize) -> pa.Table:
    """Re-encode payloads at a target size.  One row in, one row out;
    ``meta`` gains the target dimensions; payloads stay binary Arrow
    end-to-end."""
    payloads = batch.column("payload").to_pylist()
    types = batch.column("media_type").to_pylist()
    out = [resize(p or b"", t, width, height) for p, t in zip(payloads, types)]
    return pa.table({
        "media_id": batch.column("media_id"),
        "payload": pa.array(out, pa.binary()),
        "media_type": batch.column("media_type"),
        "meta": pa.array(['{"w": %d, "h": %d}' % (width, height)] * len(out),
                         pa.string()),
    })


def _default_fake_sample(payload: bytes, n_frames: int) -> list[bytes]:
    """STUB frame sampler: the payload is split into ``n_frames`` byte
    ranges standing in for decoded frames (a real one seeks/decodes with
    ffmpeg)."""
    if not payload:
        return [b""] * n_frames
    step = max(1, len(payload) // n_frames)
    return [payload[i * step:(i + 1) * step] or payload[-step:]
            for i in range(n_frames)]


def sample_frames(batch: pa.Table, n_frames: int = 4,
                  sample=_default_fake_sample) -> pa.Table:
    """Sample ``n_frames`` frames per video payload — one input row fans
    out to ``n_frames`` image rows (flat-map shape, so run it via
    ``map_batches``: Arrow tables may change row count).  Output rows are
    ordered (media_id, frame_idx) within each batch — deterministic
    regardless of input batching."""
    ids = batch.column("media_id").to_pylist()
    payloads = batch.column("payload").to_pylist()
    out_ids, out_idx, out_frames = [], [], []
    for mid, p in zip(ids, payloads):
        frames = sample(p or b"", n_frames)
        out_ids.extend([mid] * len(frames))
        out_idx.extend(range(len(frames)))
        out_frames.extend(frames)
    return pa.table({
        "media_id": pa.array(out_ids, pa.int64()),
        "frame_idx": pa.array(out_idx, pa.int32()),
        "payload": pa.array(out_frames, pa.binary()),
        "media_type": pa.array(["image"] * len(out_ids), pa.string()),
    })


def media_byte_stats(batch: pa.Table) -> pa.Table:
    """Pure-Arrow metadata extraction (no decode): payload byte length —
    SQL-mirrorable via octet_length(...)."""
    import pyarrow.compute as pc
    return pa.table({
        "media_id": batch.column("media_id"),
        "media_type": batch.column("media_type"),
        "n_bytes": pc.cast(pc.binary_length(batch.column("payload")), pa.int64()),
    })
