"""Lake integrity check (fsck): verify that what the manifests claim
matches what is on disk, without trusting anything the replay path wrote.

The reference has no stored state to check (Cassandra owns placement and
durability; `Tasks/MigrationTask.cs:101-104` just re-upserts).  A lake on
shared storage needs an auditor: after an operator incident ('did that
node die mid-commit?', 'did someone rm a file?') the answer must come from
a read-only sweep, not from re-running the pipeline.

Two levels:

* **metadata sweep** (default): per active partition, every manifest-
  referenced state file must exist and its Parquet FOOTER row count must
  equal the manifest's recorded rows (no data read — cheap enough for
  10^5 partitions); chunked layouts must also have non-overlapping,
  ascending key ranges whose row sum equals the partition row count; and
  any `state-*.parquet` in the partition directory that no manifest
  references is flagged (GC leak — harmless for correctness, pure waste).
* **deep sweep** (``deep=True``): additionally re-reads every state file
  and verifies the recorded content hash (when `hash_state` recorded
  one), the tombstone count, one-winner-per-key (no duplicate
  ``(conv_id, turn_idx)``), and that every key actually ROUTES to the
  partition that holds it under the lake's recorded layout + splits —
  the check that catches a mis-configured `num_partitions` or a foreign
  file copied into the lake.

Scale shape: one Ray task per partition; each task touches only its own
partition's files, so the sweep parallelizes to the cluster and the
driver receives only that partition's problems plus its file and row
counts (bounded by the damage, not the lake size).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import remote_call
from migration_pair_ray.stages.applier import partition_dir
from migration_pair_ray.state.manifest import (LakeMeta, ManifestStore,
                                               base_entries)
from migration_pair_ray.state.manifest import sha256_file as _sha256


def _check_partition(lake_dir: str, pid: int, deep: bool,
                     num_partitions: int, mode: str,
                     splits: dict, kernel: str = "row",
                     hot_convs: tuple = (),
                     ever_committed: frozenset = frozenset()
                     ) -> tuple[list[dict], int, int]:
    """(problems found in one partition — empty = healthy, its audited
    file count, its audited row count incl. merge-on-read deltas)."""
    problems: list[dict] = []

    def bad(kind: str, detail: str) -> None:
        problems.append({"partition": pid, "kind": kind, "detail": detail})

    store = ManifestStore(os.path.join(lake_dir, "_manifest"))
    manifest = store.read(pid)
    part_dir = partition_dir(lake_dir, pid)
    on_disk = {str(p.relative_to(lake_dir))
               for p in part_dir.glob("state-*.parquet")}

    if manifest is None:
        # a never-written partition is legal; state files without a
        # manifest are not (a crash cannot produce this: the data file is
        # fsynced BEFORE the manifest commits, and GC runs after)
        for f in sorted(on_disk):
            bad("orphan_state", f"{f} exists but partition has no manifest")
        # ... but "no manifest AND no state files" is only legal for a
        # partition that never committed.  The lineage ledger (one record
        # per partition commit) is the independent witness: an active
        # partition named there with nothing on disk is TOTAL loss —
        # exactly what refill_damaged exists to rebuild, and exactly the
        # case a disk-only sweep would wave through as healthy.
        if pid in ever_committed:
            bad("lost_partition",
                "partition committed state in lineage history but has "
                "no manifest (and no state files)" if not on_disk else
                "partition committed state in lineage history but has "
                "no manifest")
        return problems, 0, 0

    entries = base_entries(manifest)
    # retained prev_records (time-travel window) legitimately pin files
    # beyond the current record's — they are referenced, not leaked
    from migration_pair_ray.state.manifest import referenced_files
    referenced = referenced_files(manifest)
    for f in sorted(on_disk - referenced):
        bad("unreferenced_file", f"{f} on disk but not in the manifest "
                                 f"(GC leak)")
    current_files = ({e["file"] for e in entries}
                     | {e["file"] for e in manifest.get("delta_files", [])})
    for f in sorted(referenced - on_disk - current_files):
        bad("missing_retained_file",
            f"{f} pinned by a retained prev_record but absent on disk "
            f"(time-travel reads of that pass will fail)")

    rows_sum = 0
    prev_hi: tuple | None = None
    for e in entries:
        path = os.path.join(lake_dir, e["file"])
        if not os.path.exists(path):
            bad("missing_file", e["file"])
            continue
        meta_rows = pq.ParquetFile(path).metadata.num_rows
        if meta_rows != e["rows"]:
            bad("row_count_mismatch",
                f"{e['file']}: footer {meta_rows} != manifest {e['rows']}")
        rows_sum += e["rows"]
        if "key_lo" in e:                      # chunked layout ordering
            lo = (str(e["key_lo"][0]), int(e["key_lo"][1]))
            hi = (str(e["key_hi"][0]), int(e["key_hi"][1]))
            if hi < lo:
                bad("chunk_key_range_inverted", e["file"])
            if prev_hi is not None and lo <= prev_hi:
                bad("chunk_overlap",
                    f"{e['file']}: key_lo {lo} <= previous key_hi {prev_hi}")
            prev_hi = hi
        if deep:
            _deep_check(lake_dir, pid, e, path, bad,
                        num_partitions, mode, splits, kernel, hot_convs)

    # merge-on-read delta files: same per-file checks (existence, footer
    # rows, hash/tombstones/uniqueness/routing when deep) but OUTSIDE the
    # base rows_sum reconciliation — row_count stays the base count, and
    # delta key ranges legitimately overlap the base chunks and each other
    delta_files = delta_rows = 0
    for e in manifest.get("delta_files", []):
        delta_files += 1
        delta_rows += int(e["rows"])
        path = os.path.join(lake_dir, e["file"])
        if not os.path.exists(path):
            bad("missing_file", e["file"])
            continue
        meta_rows = pq.ParquetFile(path).metadata.num_rows
        if meta_rows != e["rows"]:
            bad("row_count_mismatch",
                f"{e['file']}: footer {meta_rows} != manifest {e['rows']}")
        if deep:
            _deep_check(lake_dir, pid, e, path, bad,
                        num_partitions, mode, splits, kernel, hot_convs)

    if manifest.get("row_count", rows_sum) != rows_sum:
        bad("manifest_rows_mismatch",
            f"sum of file rows {rows_sum} != partition row_count "
            f"{manifest.get('row_count')}")
    # totals ride back with the problems so the driver never re-reads
    # every manifest just to sum files/rows — audited delta files/rows
    # count toward the ops-visible totals too
    return problems, len(entries) + delta_files, rows_sum + delta_rows


def _deep_check(lake_dir: str, pid: int, entry: dict, path: str, bad,
                num_partitions: int, mode: str, splits: dict,
                kernel: str = "row", hot_convs: tuple = ()) -> None:
    import numpy as np
    import pyarrow.compute as pc
    from migration_pair_ray.stages.partition import partition_ids

    recorded = entry.get("content_hash", "")
    if recorded and _sha256(path) != recorded:
        bad("hash_mismatch", entry["file"])
        return                                  # bytes differ: stop here
    t = pq.read_table(path)
    if t.num_rows == 0:
        return
    tombs = int(pc.sum(pc.cast(pc.equal(t.column("op"), "D"),
                               pa.int64())).as_py() or 0)
    if tombs != entry.get("tombstones", tombs):
        bad("tombstone_mismatch",
            f"{entry['file']}: counted {tombs} != manifest "
            f"{entry.get('tombstones')}")
    # null-safe key extraction: the engine legitimately commits null-key
    # rows (quarantine gate off by default; the applier has an explicit
    # null-merge-key fallback).  None breaks np.lexsort on object arrays
    # and NaN's self-inequality hides duplicate null-turn keys — fill
    # with sentinels and carry the validity bits in the comparison so a
    # filled null can never collide with a real ""/-1 key.
    cnull = pc.is_null(t.column("conv_id")).to_numpy(zero_copy_only=False)
    tnull = pc.is_null(t.column("turn_idx")).to_numpy(zero_copy_only=False)
    conv = np.asarray(
        pc.fill_null(t.column("conv_id"), "").to_pandas(), dtype=object)
    turn = (pc.fill_null(pc.cast(t.column("turn_idx"), pa.int64()), -1)
            .to_numpy(zero_copy_only=False))
    order = np.lexsort((turn, tnull, conv, cnull))
    sc, stn = conv[order], turn[order]
    scn, stn_n = cnull[order], tnull[order]
    # one-winner-per-key holds only for the row kernel; a cell-kernel
    # state file legitimately holds up to n_value_cols+2 determiner rows
    # per key (functions/cells.py)
    if kernel == "row" and np.any(
            (sc[1:] == sc[:-1]) & (stn[1:] == stn[:-1])
            & (scn[1:] == scn[:-1]) & (stn_n[1:] == stn_n[:-1])):
        bad("duplicate_keys", entry["file"])
    routed = partition_ids(t, num_partitions, mode, splits, hot_convs)
    if not np.all(routed == pid):
        wrong = int(np.sum(routed != pid))
        bad("misrouted_keys",
            f"{entry['file']}: {wrong} rows route to other partitions "
            f"under the recorded layout")
    # a Bloom sidecar has no false negatives over its own build set — any
    # key in the file missing from a VALID sidecar means the sidecar
    # describes different data (a bug, or tampering): point lookups would
    # silently skip this file.  Missing/corrupt sidecars are fine (lookups
    # treat them as "cannot prune"), so only a loaded one is checked.
    from migration_pair_ray.state.bloom import load_sidecar
    blm = load_sidecar(path)
    if blm is not None and not blm.contains_all(t):
        bad("bloom_mismatch",
            f"{entry['file']}: sidecar misses keys present in the file "
            f"(point lookups would skip live rows)")


def validate_lake(cfg: JobConfig, deep: bool = False) -> dict:
    """Audit the lake; returns ``{ok, partitions, files, rows, problems}``.

    Read-only.  Layout (partition count/mode/splits) comes from the lake's
    own ``_lake_meta.json`` — a misconfigured ``cfg`` cannot skew the
    audit (same authority rule as ``read_lake``)."""
    lm = LakeMeta(cfg.lake_dir)
    meta = lm.read()
    if meta is None:
        return {"ok": True, "partitions": 0, "files": 0, "rows": 0,
                "problems": [], "note": "no _lake_meta.json (empty lake)"}
    num_partitions = meta["num_partitions"]
    mode = meta["partition_mode"]
    kernel = lm.merge_kernel()
    splits = lm.splits()
    hot_convs = lm.hot_convs()
    pids = lm.active_partition_ids()
    lake_dir = cfg.lake_dir

    # deep sweeps cross-check HISTORY, not just disk: lineage records name
    # every partition that ever committed (column-pruned footer-level
    # read — one int32 column per pass file), so a partition whose
    # manifest AND state files are both gone cannot masquerade as
    # never-written (ADVICE round 4: total partition loss passed the
    # sweep silently)
    ever_committed: frozenset = frozenset()
    if deep:
        committed: set[int] = set()
        for f in sorted(Path(cfg.lineage_dir).glob("pass-*.parquet")):
            committed.update(
                pq.read_table(str(f), columns=["partition"])
                .column("partition").to_pylist())
        ever_committed = frozenset(committed)

    checked = ray.get([remote_call.remote(
        _check_partition, lake_dir, pid, deep, num_partitions, mode, splits,
        kernel, hot_convs, ever_committed) for pid in pids])
    problems = [p for found, _, _ in checked for p in found]

    store = ManifestStore(os.path.join(cfg.lake_dir, "_manifest"))
    # a manifest for a partition id the meta no longer enumerates is the
    # leftover of a relayout crash between flip and GC (split/merge/vacuum
    # sweep these; fsck names them so the leak is visible)
    active = set(pids)
    for p in sorted(Path(store.dir).glob("part-*.json")):
        try:
            mpid = int(p.stem.split("-", 1)[1])
        except ValueError:
            continue
        if mpid not in active:
            problems.append({"partition": mpid, "kind": "inactive_manifest",
                             "detail": f"{p.name} exists but partition "
                                       f"{mpid} is not enumerated by "
                                       f"_lake_meta (relayout GC leftover)"})
    return {"ok": not problems, "partitions": len(pids),
            "files": sum(nf for _, nf, _ in checked),
            "rows": sum(nr for _, _, nr in checked), "deep": deep,
            "problems": problems}


def lake_stats(cfg: JobConfig) -> dict:
    """Ops observability: per-lake layout statistics from manifests only
    (no data reads) — file/row/byte counts, chunked/MoR depth, and the
    small-file signal that drives compaction decisions.  Read-only; the
    numbers a 100-TB operator checks before choosing split/merge/compact/
    vacuum actions."""
    # stream-side observability first (no mkdir side effects — this is a
    # READ path, possibly against a read-only forensics mount): consumers
    # (and lag), the recorded log-retention horizon, last committed seq.
    # Computed before the meta gate: consumers can register BEFORE the
    # source's first pass, and retention decisions need to see them.
    from migration_pair_ray.pipelines.feed import (list_consumers,
                                                   retention_horizon)
    last_seq = -1
    ckdir = Path(cfg.checkpoint_dir)
    if ckdir.is_dir():
        for p in ckdir.glob("pass-*.json"):
            with open(p) as f:
                last_seq = max(last_seq, int(json.load(f).get("seq", -1)))
    from migration_pair_ray.tasks import tail_lag
    stream = {
        "last_pass_seq": last_seq,
        "consumers": {c: {"acked_seq": s, "lag": last_seq - s}
                      for c, s in list_consumers(cfg).items()},
        "log_truncated_through_seq": retention_horizon(cfg),
        # ingest-side lag: change files in the log no pass has committed
        # yet (the tailer's bounded-lag signal; consumers above are the
        # egress-side lag)
        "log_lag": tail_lag(cfg),
    }

    lm = LakeMeta(cfg.lake_dir)
    meta = lm.read()
    if meta is None:
        return {"partitions": 0, "note": "no _lake_meta.json (empty lake)",
                **stream}
    store = ManifestStore(os.path.join(cfg.lake_dir, "_manifest"))
    parts = files = rows = tombstones = deltas = retained = 0
    nbytes = 0
    chunked = mor = 0
    per_part_files: list[int] = []
    for pid in lm.active_partition_ids():
        m = store.read(pid)
        if not m:
            continue
        parts += 1
        entries = base_entries(m)
        dts = m.get("delta_files", [])
        per_part_files.append(len(entries) + len(dts))
        files += len(entries) + len(dts)
        rows += int(m.get("row_count", 0)) + sum(int(e["rows"]) for e in dts)
        tombstones += (int(m.get("tombstones", 0))
                       + sum(int(e.get("tombstones", 0)) for e in dts))
        deltas += len(dts)
        retained += len(m.get("prev_records", []))
        chunked += 1 if m.get("data_files") is not None else 0
        mor += 1 if dts else 0
        for e in entries + list(dts):
            p = os.path.join(cfg.lake_dir, e["file"])
            if os.path.exists(p):
                nbytes += os.path.getsize(p)
    return {
        "partitions": parts,
        "num_partitions": meta["num_partitions"],
        "partition_mode": meta["partition_mode"],
        "merge_kernel": lm.merge_kernel(),
        "splits": len(lm.splits()),
        "files": files,
        "rows_internal": rows,
        "tombstones": tombstones,
        "bytes": nbytes,
        "avg_file_bytes": (nbytes // files) if files else 0,
        "max_files_per_partition": max(per_part_files, default=0),
        "chunked_partitions": chunked,
        "mor_partitions": mor,
        "pending_deltas": deltas,
        "retained_records": retained,
        **stream,
    }


def lake_hotspots(cfg: JobConfig, k: int = 5):
    """Top-``k`` conversations by VISIBLE key count — the operational probe
    behind choosing a ``partition_mode="hot"`` whale set (or a split): the
    conversations whose state would bottleneck one partition under
    conv-disjoint placement.

    Distributed end to end: the read is pruned to ``conv_id`` only
    (``final_state(columns=...)`` — the text payload never leaves storage),
    per-block histogram partials collapse each block to its distinct convs
    (``stages/partition.key_histogram``), one tiny groupby sums them, and
    the sort+limit runs on (#distinct convs) rows, never the raw state.
    Total deterministic order: (n_rows DESC, conv_id ASC).

    Returns a Dataset with columns ``(conv_id, n_rows)``.  Key-COUNT skew
    is the signal that matters: event-count skew alone is absorbed by the
    per-batch LWW combiner before the exchange (bench.py --skew).
    """
    from ray.data.aggregate import Sum
    from migration_pair_ray.pipelines.replay import final_state
    from migration_pair_ray.stages.partition import key_histogram
    ds = final_state(cfg, sort=False, columns=["conv_id"])
    return (ds.map_batches(key_histogram, batch_format="pyarrow")
            .groupby("conv_id").aggregate(Sum("cnt", alias_name="n_rows"))
            .sort(["n_rows", "conv_id"], descending=[True, False])
            .limit(int(k)))
