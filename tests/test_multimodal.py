"""Multimodal plumbing tests: binary payload schema, feature extraction
(stubbed decode), resize and frame sampling, byte stats."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from migration_pair_ray.stages.multimodal import (
    MEDIA_SCHEMA,
    extract_features,
    fake_payload_from_text,
    media_byte_stats,
)

SF = "/root/testdata/sf0.001"


def test_fake_payload_schema():
    docs = pq.read_table(f"{SF}/documents.parquet").slice(0, 20)
    media = fake_payload_from_text(docs)
    assert media.schema.equals(MEDIA_SCHEMA)
    assert media.column("payload")[0].as_py() == docs.column("text")[0].as_py().encode()


def test_extract_features_determinism():
    docs = pq.read_table(f"{SF}/documents.parquet").slice(0, 10)
    media = fake_payload_from_text(docs)
    out1, out2 = extract_features(media), extract_features(media)
    assert out1.equals(out2)
    f = np.asarray(out1.column("features")[0].as_py())
    assert f.shape == (8,) and ((0 <= f) & (f <= 1)).all()


@pytest.mark.usefixtures("ray_session")
def test_media_pipeline_end_to_end():
    ds = ray.data.read_parquet(f"{SF}/documents.parquet")
    media = ds.map_batches(fake_payload_from_text, batch_format="pyarrow")
    # small batches (large-binary sizing discipline)
    feats = media.map_batches(extract_features, batch_format="pyarrow",
                              batch_size=64)
    out = feats.to_pandas()
    assert len(out) == ds.count()
    assert set(out.columns) == {"media_id", "media_type", "n_bytes", "features"}

    stats = media.map_batches(media_byte_stats, batch_format="pyarrow").to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    want = docs["text"].str.encode("utf-8").str.len()
    got = stats.sort_values("media_id")["n_bytes"].to_numpy()
    np.testing.assert_array_equal(got, want.to_numpy())


@pytest.mark.usefixtures("ray_session")
def test_resize_and_frame_sample_stages():
    """Resize (1:1) and frame-sample (1:n fan-out) plumbing:
    deterministic output across batch layouts, sizes as promised."""
    import json
    import ray.data as rd
    from migration_pair_ray.stages.multimodal import (
        fake_payload_from_text, resize_media, sample_frames)

    docs = pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array([f"payload {i} " * (i + 1) for i in range(20)]),
    })
    media = rd.from_arrow(docs).map_batches(
        fake_payload_from_text, batch_format="pyarrow")

    resized = media.map_batches(resize_media, batch_format="pyarrow", batch_size=4,
                                fn_kwargs={"width": 64, "height": 64}).take_all()
    assert len(resized) == 20
    for r in resized:
        assert len(r["payload"]) == 64 * 64 // 64
        assert json.loads(r["meta"]) == {"w": 64, "h": 64}

    frames = media.map_batches(sample_frames, batch_format="pyarrow", batch_size=4,
                               fn_kwargs={"n_frames": 3}).take_all()
    assert len(frames) == 60      # 1:n fan-out
    per_id = {}
    for f in frames:
        per_id.setdefault(f["media_id"], []).append(f["frame_idx"])
    assert all(sorted(v) == [0, 1, 2] for v in per_id.values())

    # determinism across batch layouts
    frames2 = media.map_batches(sample_frames, batch_format="pyarrow", batch_size=20,
                                fn_kwargs={"n_frames": 3}).take_all()
    key = lambda r: (r["media_id"], r["frame_idx"])
    assert sorted(frames, key=key) == sorted(frames2, key=key)
