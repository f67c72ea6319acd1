"""Consumer-offset changefeed (pipelines/feed): pass-granular
at-least-once delivery with durable monotone cursors."""

import os
from pathlib import Path

import pandas as pd
import pytest

from migration_pair_ray.changegen import generate_change_log
from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.feed import (FeedRetentionError, ack_feed,
                                               consumer_cursor, list_consumers,
                                               pending_passes, read_feed)
from migration_pair_ray.pipelines.replay import replay
from migration_pair_ray.state.manifest import CheckpointStore


def _two_pass_lake(tmp_path):
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1200, n_convs=10,
                                n_files=4, tool_epoch=1, seed=31)
    log = tmp_path / "log"
    log.mkdir()
    cfg = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "lake"),
                    num_partitions=4, hash_state=False)
    seqs = []
    for group in (files[:2], files[2:]):
        for f in group:
            os.link(f, log / Path(f).name)
        replay(cfg)
        seqs.append(CheckpointStore(cfg.checkpoint_dir).last_seq())
    return cfg, files, seqs


@pytest.mark.usefixtures("ray_session")
def test_feed_delivers_resumes_and_acks(tmp_path):
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)

    # a new consumer sees BOTH passes, stamped with their seqs
    ds, frontier = read_feed(cfg, "worker-a")
    df = ds.to_pandas()
    assert frontier == seq2
    assert set(df["_pass_seq"].unique()) == {seq1, seq2}
    n_total = sum(pd.read_parquet(f).shape[0] for f in files)
    assert len(df) == n_total

    # ack pass 1 only → redelivery of exactly pass 2
    ack_feed(cfg, "worker-a", seq1)
    ds2, frontier2 = read_feed(cfg, "worker-a")
    df2 = ds2.to_pandas()
    assert frontier2 == seq2
    assert set(df2["_pass_seq"].unique()) == {seq2}
    n_pass2 = sum(pd.read_parquet(f).shape[0] for f in files[2:])
    assert len(df2) == n_pass2
    # delivered rows match the pass-2 files exactly (per-lsn)
    want = pd.concat([pd.read_parquet(f) for f in files[2:]])
    assert sorted(df2["lsn"]) == sorted(want["lsn"])

    # full ack → empty feed; duplicate/stale acks are monotone no-ops
    assert ack_feed(cfg, "worker-a", seq2)["advanced"]
    ds3, frontier3 = read_feed(cfg, "worker-a")
    assert ds3.count() == 0 and frontier3 == seq2
    assert not ack_feed(cfg, "worker-a", seq1)["advanced"]
    assert consumer_cursor(cfg, "worker-a") == seq2
    assert list_consumers(cfg) == {"worker-a": seq2}


@pytest.mark.usefixtures("ray_session")
def test_feed_independent_consumers_and_new_pass(tmp_path):
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    ack_feed(cfg, "a", seq2)
    assert read_feed(cfg, "a")[0].count() == 0
    # consumer "b" is independent and still sees everything
    assert len(pending_passes(cfg, "b")) == 2

    # a third pass arrives: only the lagging delta reaches "a"
    extra = generate_change_log(str(tmp_path / "stage2"), n_events=300,
                                n_convs=4, n_files=1, tool_epoch=0, seed=91)
    os.link(extra[0], Path(cfg.changelog_dir) / "batch-90000-zz.parquet")
    replay(cfg)
    ds, frontier = read_feed(cfg, "a")
    n_extra = pd.read_parquet(extra[0]).shape[0]
    assert ds.count() == n_extra and frontier > seq2


@pytest.mark.usefixtures("ray_session")
def test_feed_retention_violation_raises(tmp_path):
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    victim = Path(cfg.changelog_dir) / Path(files[0]).name
    victim.unlink()
    with pytest.raises(FeedRetentionError, match="fell behind"):
        read_feed(cfg, "slow")
    # explicit opt-in skips the lost file but still serves the rest
    ds, _ = read_feed(cfg, "slow", missing_ok=True)
    n_rest = sum(pd.read_parquet(f).shape[0] for f in files[1:])
    assert ds.count() == n_rest


def test_feed_rejects_bad_consumer_ids(tmp_path):
    cfg = JobConfig(changelog_dir=str(tmp_path), lake_dir=str(tmp_path))
    for bad in ("", "../x", ".hidden", "a/b"):
        with pytest.raises(ValueError):
            consumer_cursor(cfg, bad)


@pytest.mark.usefixtures("ray_session")
def test_feed_task_cli(tmp_path):
    from migration_pair_ray.tasks import run_task
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    out = run_task("feed", cfg, consumer="ops")
    assert out["pending_passes"] == 2 and out["frontier"] == seq2
    out = run_task("feed", cfg, consumer="ops", ack=seq1)
    assert out["ack"]["advanced"] and out["pending_passes"] == 1


@pytest.mark.usefixtures("ray_session")
def test_replicate_relayout_incremental_crash_resume(tmp_path):
    """The follower converges under a different layout, consumes new
    source passes incrementally, and survives a lost cursor (crash
    between replay and ack) idempotently."""
    from migration_pair_ray.pipelines.feed import replicate
    from migration_pair_ray.pipelines.replay import final_state
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1200, n_convs=10,
                                n_files=4, tool_epoch=1, seed=31)
    log = tmp_path / "log"
    log.mkdir()
    src = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "src"),
                    num_partitions=4, hash_state=False)
    for f in files[:2]:
        os.link(f, log / Path(f).name)
    replay(src)

    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dst"),
                    num_partitions=8, partition_mode="key",
                    state_chunk_rows=60, hash_state=False)
    s = replicate(src, dst)
    assert s["passes_replicated"] == 1 and s["passes_applied"] == 1

    def fs(cfg):
        return final_state(cfg).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(fs(dst), fs(src))

    # second source pass → one incremental replication step
    for f in files[2:]:
        os.link(f, log / Path(f).name)
    replay(src)
    s2 = replicate(src, dst)
    assert s2["passes_replicated"] == 1
    pd.testing.assert_frame_equal(fs(dst), fs(src))

    # crash between replay and ack: cursor lost → re-run redelivers the
    # last pass; replay skips it as committed, state unchanged
    (Path(dst.lake_dir) / "_replica.json").unlink()
    s3 = replicate(src, dst)
    assert s3["passes_replicated"] == 2 and s3["passes_applied"] == 0
    pd.testing.assert_frame_equal(fs(dst), fs(src))
    # quiescent: nothing pending
    assert replicate(src, dst)["passes_replicated"] == 0


@pytest.mark.usefixtures("ray_session")
def test_replicate_retention_error(tmp_path):
    from migration_pair_ray.pipelines.feed import replicate
    cfg, files, _ = _two_pass_lake(tmp_path)
    (Path(cfg.changelog_dir) / Path(files[3]).name).unlink()
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dst"), num_partitions=2,
                    hash_state=False)
    with pytest.raises(FeedRetentionError, match="replica fell behind"):
        replicate(cfg, dst)


@pytest.mark.usefixtures("ray_session")
def test_feed_refuses_bulk_and_unstamped_passes(tmp_path):
    """A bulk-load pass's input never lived in the changelog (and its
    bulk: namespace exists to prevent basename collisions): the feed and
    the replica must refuse rather than deliver wrong bytes; a pass with
    no seq stamp must refuse rather than be silently skipped."""
    import json
    from migration_pair_ray.pipelines.feed import (FeedUnstampedError,
                                                   replicate)
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    ck_dir = Path(cfg.checkpoint_dir)

    # forge a bulk-load checkpoint (input outside the changelog)
    rec = {"pass_id": "bulkpass", "seq": seq2 + 1,
           "files": ["bulk:input.csv"], "file_sizes": {}, "stats": {}}
    (ck_dir / "pass-bulkpass.json").write_text(json.dumps(rec))
    with pytest.raises(FeedRetentionError, match="bulk load"):
        read_feed(cfg, "c1")
    ds, frontier = read_feed(cfg, "c1", missing_ok=True)  # explicit opt-in
    assert frontier == seq2 + 1
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dst"), num_partitions=2,
                    hash_state=False)
    with pytest.raises(FeedRetentionError, match="bulk load"):
        replicate(cfg, dst)

    # a colliding changelog basename must NOT be served as the bulk pass
    (Path(cfg.changelog_dir) / "input.csv").write_text("not,change,data")
    with pytest.raises(FeedRetentionError, match="bulk load"):
        read_feed(cfg, "c1")

    # unstamped pass (older engine version) refuses loudly
    (ck_dir / "pass-bulkpass.json").unlink()
    rec = {"pass_id": "legacy", "files": [], "file_sizes": {}, "stats": {}}
    (ck_dir / "pass-legacy.json").write_text(json.dumps(rec))
    with pytest.raises(FeedUnstampedError, match="no seq stamp"):
        read_feed(cfg, "c1")
    with pytest.raises(FeedUnstampedError, match="no seq stamp"):
        replicate(cfg, dst)


@pytest.mark.usefixtures("ray_session")
def test_ack_rejects_future_seq(tmp_path):
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    with pytest.raises(ValueError, match="beyond the last committed"):
        ack_feed(cfg, "typo", 999_999)
    assert consumer_cursor(cfg, "typo") == -1


@pytest.mark.usefixtures("ray_session")
def test_replicate_task_cli(tmp_path):
    """CLI shape: dst is --config, src is --input (a JobConfig JSON)."""
    from migration_pair_ray.tasks import run_task
    cfg, files, _ = _two_pass_lake(tmp_path)
    src_json = tmp_path / "src.json"
    cfg.to_json(src_json)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dst"), num_partitions=8,
                    partition_mode="key", hash_state=False)
    out = run_task("replicate", dst, input_path=str(src_json))
    assert out["passes_replicated"] == 2
    from migration_pair_ray.pipelines.replay import final_state
    pd.testing.assert_frame_equal(
        final_state(dst).to_pandas().reset_index(drop=True),
        final_state(cfg).to_pandas().reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_feed_property_random_ack_suffix(tmp_path):
    """Property (bounded): for random pass splits and a random ack point
    k, the feed delivers exactly the suffix of passes after k."""
    import random
    rng = random.Random(7)
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=1200, n_convs=8,
                                n_files=6, tool_epoch=1, seed=17)
    for trial in range(3):
        log = tmp_path / f"log{trial}"
        log.mkdir()
        cfg = JobConfig(changelog_dir=str(log),
                        lake_dir=str(tmp_path / f"lake{trial}"),
                        num_partitions=4, hash_state=False)
        cuts = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        groups, prev = [], 0
        for c in cuts + [6]:
            if files[prev:c]:
                groups.append(files[prev:c])
            prev = c
        seqs = []
        for g in groups:
            for f in g:
                os.link(f, log / Path(f).name)
            replay(cfg)
            seqs.append(CheckpointStore(cfg.checkpoint_dir).last_seq())
        k = rng.randrange(len(groups) + 1)   # ack nothing .. everything
        if k > 0:
            ack_feed(cfg, "p", seqs[k - 1])
        ds, frontier = read_feed(cfg, "p")
        want_files = [f for g in groups[k:] for f in g]
        want_lsns = sorted(
            l for f in want_files for l in pd.read_parquet(f)["lsn"])
        got = ds.to_pandas()
        assert sorted(got["lsn"]) == want_lsns, (trial, k)
        assert frontier == seqs[-1]


@pytest.mark.usefixtures("ray_session")
def test_export_jsonl_roundtrip(tmp_path):
    """Export the feed as Debezium JSONL, re-ingest into a follower under
    a different layout: identical visible state (ts_us keeps microsecond
    fidelity — the change log has sub-ms timestamps and ts ties broken by
    lsn, both of which ms-only envelopes would corrupt)."""
    import json

    from migration_pair_ray.pipelines.feed import export_jsonl
    from migration_pair_ray.pipelines.replay import final_state
    from migration_pair_ray.sources.jsonl_log import ingest_jsonl_log

    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    out = tmp_path / "wire"
    s = export_jsonl(cfg, "mirror", str(out), ack=True)
    assert s["passes"] == 2 and s["frontier"] == seq2
    wire_files = sorted(out.glob("feed-*.jsonl"))
    assert len(wire_files) == 2
    env = json.loads(wire_files[0].read_text().splitlines()[0])
    assert set(env) == {"op", "before", "after", "ts_ms", "ts_us", "lsn"}
    assert env["op"] in ("c", "u", "d")

    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=3, partition_mode="key",
                    hash_state=False)
    ingest_jsonl_log(dst, str(out))
    pd.testing.assert_frame_equal(
        final_state(dst).to_pandas().reset_index(drop=True),
        final_state(cfg).to_pandas().reset_index(drop=True))

    # acked: a re-export moves nothing; re-ingest is a no-op
    s2 = export_jsonl(cfg, "mirror", str(out))
    assert s2["passes"] == 0 and s2["events"] == 0
    s3 = ingest_jsonl_log(dst, str(out))
    assert s3["converted"] == 0 and s3["pass"]["up_to_date"]


@pytest.mark.usefixtures("ray_session")
def test_export_jsonl_deterministic_rerun(tmp_path):
    """Crash-between-write-and-ack: an UNacked re-export rewrites the
    same bytes (lsn-sorted, deterministic), so redelivery is harmless."""
    from migration_pair_ray.pipelines.feed import export_jsonl

    cfg, _files, _seqs = _two_pass_lake(tmp_path)
    out = tmp_path / "wire"
    export_jsonl(cfg, "crashy", str(out))          # no ack
    before = {p.name: p.read_bytes() for p in out.glob("feed-*.jsonl")}
    s = export_jsonl(cfg, "crashy", str(out))      # redelivery
    assert s["passes"] == 2
    after = {p.name: p.read_bytes() for p in out.glob("feed-*.jsonl")}
    assert before == after


@pytest.mark.usefixtures("ray_session")
def test_verify_replica_positive_and_negative(tmp_path):
    """A caught-up follower audits clean (empty mismatch table) across a
    layout change; an injected divergence is caught with correct per-side
    row counts."""
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from migration_pair_ray.pipelines.feed import replicate, verify_replica
    src, _, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=3, partition_mode="key",
                    state_chunk_rows=64)
    replicate(src, dst)
    assert verify_replica(src, dst).num_rows == 0

    # divergence: one extra key applied only to the follower
    bad = pa.table({
        "conv_id": pa.array(["zz-div"], pa.string()),
        "turn_idx": pa.array([1], pa.int32()),
        "role": pa.array(["x"], pa.string()),
        "text": pa.array(["diverged"], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([9_999_999_999_000_000], pa.timestamp("us")),
        "op": pa.array(["I"], pa.string()),
        "lsn": pa.array([10**9], pa.int64()),
    })
    _pq.write_table(bad, str(Path(dst.changelog_dir) / "batch-99999.parquet"))
    replay(dst)
    m = verify_replica(src, dst)
    assert m.num_rows == 1
    assert (m.column("dst_rows")[0].as_py()
            == m.column("src_rows")[0].as_py() + 1)


@pytest.mark.usefixtures("ray_session")
def test_verify_replica_task_form(tmp_path):
    import json as _json

    from migration_pair_ray.pipelines.feed import replicate
    from migration_pair_ray.tasks import run_task
    src, _, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"), num_partitions=2)
    replicate(src, dst)
    src_json = tmp_path / "src.json"
    src_json.write_text(_json.dumps({
        "changelog_dir": src.changelog_dir, "lake_dir": src.lake_dir,
        "num_partitions": src.num_partitions}))
    s = run_task("verify_replica", dst, input_path=str(src_json))
    assert s["ok"] and s["mismatched_buckets"] == 0


@pytest.mark.usefixtures("ray_session")
def test_truncate_log_retention(tmp_path):
    """Log truncation respects consumer cursors, records its horizon
    BEFORE deleting, leaves replay/lake state intact, and turns later
    fell-behind errors into named retention errors."""
    from migration_pair_ray.pipelines.feed import truncate_log
    from migration_pair_ray.pipelines.replay import final_state
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    before = final_state(cfg).to_pandas()

    # no consumers, no through_seq → refuses to guess
    assert truncate_log(cfg)["truncated_through_seq"] is None

    # consumer acked only pass 1 → horizon = seq1 even with a higher cap
    ack_feed(cfg, "a", seq1)
    dry = truncate_log(cfg, through_seq=seq2, dry_run=True)
    assert dry["truncated_through_seq"] == seq1 and dry["files_deleted"] == 2
    assert all((Path(cfg.changelog_dir) / Path(f).name).exists()
               for f in files)                     # dry run deleted nothing

    s = truncate_log(cfg, through_seq=seq2)
    assert s["truncated_through_seq"] == seq1 and s["files_deleted"] == 2
    for f in files[:2]:
        assert not (Path(cfg.changelog_dir) / Path(f).name).exists()
    for f in files[2:]:
        assert (Path(cfg.changelog_dir) / Path(f).name).exists()

    # lake unaffected; replay is a clean no-op; re-truncate idempotent
    pd.testing.assert_frame_equal(final_state(cfg).to_pandas(), before)
    assert replay(cfg)["up_to_date"]
    assert truncate_log(cfg, through_seq=seq2)["files_deleted"] == 0

    # consumer "a" (acked through horizon) is unaffected
    ds, _ = read_feed(cfg, "a")
    assert ds.count() > 0
    # a NEW consumer fell behind the horizon — error names retention
    with pytest.raises(FeedRetentionError, match="retention policy"):
        read_feed(cfg, "fresh")

    # after everyone acks everything, the tail can go too
    ack_feed(cfg, "a", seq2)
    s2 = truncate_log(cfg, through_seq=seq2)
    assert s2["files_deleted"] == 2
    assert replay(cfg)["up_to_date"]


@pytest.mark.usefixtures("ray_session")
def test_bootstrap_replica_from_truncated_source(tmp_path):
    """A follower seeded from source STATE (not history) converges, keeps
    tailing, and preserves delete dominance: a late pre-tombstone event
    must not resurrect on the follower.  Works even after the source's
    log was fully truncated."""
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from migration_pair_ray.pipelines.feed import (bootstrap_replica,
                                                   replicate, truncate_log,
                                                   verify_replica)
    from migration_pair_ray.pipelines.replay import final_state
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    # pick a live key and tombstone it at a dominating ts
    st = final_state(cfg).to_pandas()
    k_conv, k_turn = st.iloc[0]["conv_id"], int(st.iloc[0]["turn_idx"])
    dead_ts = 9_999_000_000_000_000
    tomb = pa.table({
        "conv_id": pa.array([k_conv], pa.string()),
        "turn_idx": pa.array([k_turn], pa.int32()),
        "role": pa.array([None], pa.string()),
        "text": pa.array([None], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([dead_ts], pa.timestamp("us")),
        "op": pa.array(["D"], pa.string()),
        "lsn": pa.array([10**7], pa.int64()),
    })
    _pq.write_table(tomb, str(Path(cfg.changelog_dir) / "batch-70000.parquet"))
    replay(cfg)

    # source truncates its whole history (everyone acked = just us)
    ack_feed(cfg, "ops", CheckpointStore(cfg.checkpoint_dir).last_seq())
    truncate_log(cfg)
    assert not list(Path(cfg.changelog_dir).glob("batch-*.parquet"))

    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=8, partition_mode="key")
    b = bootstrap_replica(cfg, dst)
    assert b["bootstrapped"] and b["boot_files"] > 0
    assert verify_replica(cfg, dst).num_rows == 0
    # idempotent: second bootstrap is a no-op
    assert not bootstrap_replica(cfg, dst)["bootstrapped"]

    # a LATE event for the dead key (older ts than the tombstone) arrives;
    # both sides must keep the key dead
    late = pa.table({
        "conv_id": pa.array([k_conv], pa.string()),
        "turn_idx": pa.array([k_turn], pa.int32()),
        "role": pa.array(["late"], pa.string()),
        "text": pa.array(["resurrect?"], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([dead_ts - 1000], pa.timestamp("us")),
        "op": pa.array(["U"], pa.string()),
        "lsn": pa.array([10**7 + 1], pa.int64()),
    })
    _pq.write_table(late, str(Path(cfg.changelog_dir) / "batch-80000.parquet"))
    replay(cfg)
    r = replicate(cfg, dst, src_consumer="replica-1")
    assert r["passes_applied"] == 1
    assert verify_replica(cfg, dst).num_rows == 0
    got = final_state(dst).to_pandas()
    assert not ((got["conv_id"] == k_conv)
                & (got["turn_idx"] == k_turn)).any()

    # the src-side registered consumer now caps retention for the replica
    assert "replica-1" in list_consumers(cfg)


@pytest.mark.usefixtures("ray_session")
def test_retention_protects_new_and_bootstrap_replicas(tmp_path):
    """Review regressions: (1) a replica registered before ANY pass was
    replicated must still be visible to retention; (2) bootstrap registers
    on the source so the bootstrap-to-first-tail window is protected;
    (3) a typo'd huge through_seq cannot poison the retention marker;
    (4) a follower polling an unwritten source no-ops instead of raising
    a fabricated kernel mismatch."""
    import json as _json

    from migration_pair_ray.pipelines.feed import (bootstrap_replica,
                                                   replicate, truncate_log)
    # (4) unwritten source, cell follower: no meta yet -> no-op, no raise
    empty_src = JobConfig(changelog_dir=str(tmp_path / "eslog"),
                          lake_dir=str(tmp_path / "eslake"),
                          num_partitions=2)
    Path(empty_src.changelog_dir).mkdir(parents=True)
    cell_dst = JobConfig(changelog_dir=str(tmp_path / "cdlog"),
                         lake_dir=str(tmp_path / "cdlake"),
                         num_partitions=2, merge_kernel="cell")
    assert replicate(empty_src, cell_dst)["passes_replicated"] == 0

    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    # (1) register a follower that has not consumed anything: replicate
    # from a source whose passes it has all yet to see, with a cursor
    # that is still -1 on a FRESH dst pointing at an empty source — use
    # the real path: dst of cfg with src_consumer, before deleting files
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"), num_partitions=2)
    # simulate "registered but nothing consumed": register via an empty
    # source replicate is impossible here, so register through the first
    # tail call and then check the cursor protects the SECOND pass
    r = replicate(cfg, dst, src_consumer="replica-z")
    assert r["cursor"] == seq2
    # (3) typo'd horizon: capped at the last committed seq, and the
    # replica-z cursor (seq2) allows full truncation ONLY up to seq2
    s = truncate_log(cfg, through_seq=10**9)
    assert s["truncated_through_seq"] == seq2
    marker = _json.load(open(Path(cfg.lake_dir) / "_log_retention.json"))
    assert marker["truncated_through_seq"] == seq2   # not 10**9

    # (2) bootstrap registers on the source: a new follower seeded from
    # state is protected before its first tail call
    dst2 = JobConfig(changelog_dir=str(tmp_path / "d2log"),
                     lake_dir=str(tmp_path / "d2lake"), num_partitions=2)
    b = bootstrap_replica(cfg, dst2, src_consumer="replica-boot")
    assert b["bootstrapped"]
    from migration_pair_ray.pipelines.feed import list_consumers
    assert list_consumers(cfg)["replica-boot"] == seq2


@pytest.mark.usefixtures("ray_session")
def test_register_consumer_protects_before_first_ack(tmp_path):
    """A consumer registered at -1 (never acked) pins retention: nothing
    can be truncated until it acks."""
    from migration_pair_ray.pipelines.feed import (register_consumer,
                                                   truncate_log)
    cfg, files, (seq1, seq2) = _two_pass_lake(tmp_path)
    register_consumer(cfg, "slow-consumer")
    s = truncate_log(cfg, through_seq=seq2)
    assert s["files_deleted"] == 0
    assert all((Path(cfg.changelog_dir) / Path(f).name).exists()
               for f in files)
    ack_feed(cfg, "slow-consumer", seq1)
    s2 = truncate_log(cfg, through_seq=seq2)
    assert s2["truncated_through_seq"] == seq1 and s2["files_deleted"] == 2


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [101, 202])
def test_replication_lifecycle_property(tmp_path, seed):
    """Randomized lifecycle: interleave source passes, follower tails,
    retention truncations, and a late-joining bootstrapped follower —
    every follower must audit content-identical at the end, and
    retention must never delete a pass a registered follower still
    needs."""
    import numpy as np

    from migration_pair_ray.pipelines.feed import (bootstrap_replica,
                                                   replicate, truncate_log,
                                                   verify_replica)
    rng = np.random.default_rng(seed)
    stage = tmp_path / "stage"
    files = generate_change_log(str(stage), n_events=2400, n_convs=12,
                                n_files=6, tool_epoch=2,
                                shuffle_window=400, seed=seed)
    log = tmp_path / "log"
    log.mkdir()
    src = JobConfig(changelog_dir=str(log), lake_dir=str(tmp_path / "src"),
                    num_partitions=4, hash_state=False)
    d1 = JobConfig(changelog_dir=str(tmp_path / "d1log"),
                   lake_dir=str(tmp_path / "d1"), num_partitions=2,
                   partition_mode="key", hash_state=False)
    replicate(src, d1, src_consumer="d1")   # registers d1 before any pass
    d2 = None
    for i, f in enumerate(files):
        os.link(f, log / Path(f).name)
        replay(src)
        if rng.random() < 0.7:
            replicate(src, d1, src_consumer="d1")
        if rng.random() < 0.5:
            # retention runs at arbitrary points; d1's cursor caps it
            truncate_log(src)
        if d2 is None and i == 3:
            # a follower joins LATE: the prefix may already be truncated
            d2 = JobConfig(changelog_dir=str(tmp_path / "d2log"),
                           lake_dir=str(tmp_path / "d2"),
                           num_partitions=3, hash_state=False)
            bootstrap_replica(src, d2, src_consumer="d2")
    # drain both followers and audit
    replicate(src, d1, src_consumer="d1")
    replicate(src, d2, src_consumer="d2")
    assert verify_replica(src, d1).num_rows == 0
    assert verify_replica(src, d2).num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_verify_replica_incremental_matches_streaming(tmp_path):
    """The cached per-partition audit returns exactly what the streaming
    audit returns — clean, diverged, and after catching up — and the
    cache makes a quiescent re-audit O(changed partitions) (fingerprints
    unchanged on disk)."""
    import json as _json

    import pyarrow.parquet as _pq

    from migration_pair_ray.pipelines.feed import replicate, verify_replica
    src, files, _ = _two_pass_lake(tmp_path)
    dst = JobConfig(changelog_dir=str(tmp_path / "dlog"),
                    lake_dir=str(tmp_path / "dlake"),
                    num_partitions=3, partition_mode="key",
                    state_chunk_rows=64)
    replicate(src, dst)

    assert verify_replica(src, dst, incremental=True).num_rows == 0
    assert verify_replica(src, dst).num_rows == 0
    cache = _json.loads((Path(dst.lake_dir) / "_audit_cache.json")
                        .read_text())
    fps_before = {p: v["fingerprint"]
                  for p, v in cache["partitions"].items()}

    # quiescent re-audit: same verdict, fingerprints unchanged
    assert verify_replica(src, dst, incremental=True).num_rows == 0
    cache2 = _json.loads((Path(dst.lake_dir) / "_audit_cache.json")
                         .read_text())
    assert {p: v["fingerprint"]
            for p, v in cache2["partitions"].items()} == fps_before

    # diverge the follower: incremental and streaming agree on the damage
    import pyarrow as _pa
    ghost = _pa.table({
        "conv_id": _pa.array(["zz-div"], _pa.string()),
        "turn_idx": _pa.array([1], _pa.int32()),
        "role": _pa.array(["x"], _pa.string()),
        "text": _pa.array(["diverged"], _pa.string()),
        "tool": _pa.array([None], _pa.string()),
        "ts": _pa.array([9_999_999_999_000_000], _pa.timestamp("us")),
        "op": _pa.array(["I"], _pa.string()),
        "lsn": _pa.array([10**9], _pa.int64()),
    })
    _pq.write_table(ghost, str(Path(dst.changelog_dir)
                               / "batch-99999.parquet"))
    from migration_pair_ray.pipelines.replay import replay as _replay
    _replay(dst)
    m_inc = verify_replica(src, dst, incremental=True).to_pylist()
    m_str = verify_replica(src, dst).to_pylist()
    assert m_inc == m_str and len(m_inc) == 1

    # repair consumes the same audit; afterwards both paths audit clean
    from migration_pair_ray.pipelines.repair import repair_replica
    assert repair_replica(src, dst)["clean_after"]
    assert verify_replica(src, dst, incremental=True).num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_diff_lakes_copartitioned_equals_join_changefeed(tmp_path):
    """feed.diff_lakes (per-partition local outer join, zero exchange)
    must emit exactly the insert/update/delete rows the generic join
    path computes, and must REFUSE mismatched layouts rather than
    silently shuffling."""
    import duckdb
    import pandas as pd
    from migration_pair_ray.pipelines.feed import diff_lakes
    from migration_pair_ray.state.manifest import LakeLayoutError

    log = str(tmp_path / "log")
    files = generate_change_log(log, n_events=1200, n_convs=10, n_files=2,
                                tool_epoch=1, shuffle_window=200, seed=81)
    # before = first file only; after = full log
    log_pre = str(tmp_path / "log_pre")
    os.makedirs(log_pre)
    os.link(files[0], os.path.join(log_pre, os.path.basename(files[0])))
    a = JobConfig(changelog_dir=log_pre, lake_dir=str(tmp_path / "lake_a"),
                  num_partitions=6)
    b = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake_b"),
                  num_partitions=6)
    replay(a)
    replay(b)

    got = (diff_lakes(a, b).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    want = duckdb.sql(f"""
        WITH pre AS (SELECT conv_id, turn_idx, role, text,
                            CAST(NULL AS VARCHAR) AS tool, ts, op, lsn
                     FROM read_parquet('{log_pre}/*.parquet')),
        wa AS (SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
               ORDER BY ts DESC, lsn DESC) rn FROM pre),
        sa AS (SELECT conv_id, turn_idx, role, text, tool, ts FROM wa
               WHERE rn = 1 AND op <> 'D'),
        fl AS (SELECT * FROM read_parquet('{log}/*.parquet',
                 union_by_name=true)),
        wb AS (SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
               ORDER BY ts DESC, lsn DESC) rn FROM fl),
        sb AS (SELECT conv_id, turn_idx, role, text, tool, ts FROM wb
               WHERE rn = 1 AND op <> 'D'),
        j AS (SELECT COALESCE(sa.conv_id, sb.conv_id) conv_id,
                     COALESCE(sa.turn_idx, sb.turn_idx) turn_idx,
                     sa.conv_id IS NOT NULL a_in, sb.conv_id IS NOT NULL b_in,
                     sa.text b_text, sb.text a_text,
                     (sa.role IS NOT DISTINCT FROM sb.role AND
                      sa.text IS NOT DISTINCT FROM sb.text AND
                      sa.tool IS NOT DISTINCT FROM sb.tool AND
                      sa.ts IS NOT DISTINCT FROM sb.ts) same
              FROM sa FULL OUTER JOIN sb USING (conv_id, turn_idx))
        SELECT conv_id, turn_idx,
               CASE WHEN NOT a_in THEN 'insert'
                    WHEN NOT b_in THEN 'delete' ELSE 'update' END AS change
        FROM j WHERE NOT a_in OR NOT b_in OR NOT same
        ORDER BY conv_id, turn_idx""").df().reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["conv_id", "turn_idx", "change"]], want, check_dtype=False)
    assert set(got["change"]) <= {"insert", "update", "delete"}
    assert len(got) > 0

    # mismatched layout refuses (different partition count)
    c = JobConfig(changelog_dir=log, lake_dir=str(tmp_path / "lake_c"),
                  num_partitions=4)
    replay(c)
    with pytest.raises(LakeLayoutError,
                       match="identical layouts.*repartition_lake"):
        diff_lakes(a, c)
