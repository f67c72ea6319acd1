"""Driver-conformance query library: every entry has a Ray-Data
implementation here and (where SQL-expressible) a DuckDB oracle string in
``__ray_entry__.oracle_sql``.  Column names match the oracles exactly.

The CDC queries derive a deterministic change log from the driver's
``events`` table (pure arithmetic/CASE mapping, mirrored 1:1 in SQL), write
it as change-batch files into the query cache (``_cache_dir``), and replay
slices of it into derived lakes (``_derived_lake``) through the REAL replay
pipeline — manifests, partial reduce, hash partition, per-partition merge —
so the correctness gate exercises the engine, not a shortcut.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from migration_pair_ray.config import JobConfig
from migration_pair_ray.pipelines.replay import final_state, read_lake, replay

# --------------------------------------------------------------------------
# CDC: derived change log from the events table
# --------------------------------------------------------------------------

# SQL mirror of _derive_changes AS DELIVERED — keep in lockstep with
# _derive_changes + the file split in _write_derived_log: the first of 4 change
# files (event_id < ceil(n/4)) is written WITHOUT the `tool` column
# (schema evolution), so those events arrive with tool = null.
DERIVED_CHANGES_SQL = """
SELECT 'c' || CAST(user_id % 50 AS VARCHAR)             AS conv_id,
       CAST(event_id % 200 AS INTEGER)                  AS turn_idx,
       event_type                                       AS role,
       props                                            AS text,
       CASE WHEN event_type = 'click'
             AND event_id >= CAST(CEIL((SELECT COUNT(*) FROM events) / 4.0) AS BIGINT)
            THEN 'w' || CAST(event_id % 5 AS VARCHAR) END AS tool,
       ts                                               AS ts,
       CASE WHEN event_type = 'error' THEN 'D'
            WHEN event_type = 'purchase' THEN 'U'
            ELSE 'I' END                                AS op,
       event_id                                         AS lsn
FROM events
"""


def _derive_changes(batch: pa.Table) -> pa.Table:
    """Vectorized mirror of DERIVED_CHANGES_SQL over an events batch."""
    user = batch.column("user_id").to_numpy(zero_copy_only=False)
    eid = batch.column("event_id").to_numpy(zero_copy_only=False)
    etype = np.asarray(batch.column("event_type").to_pandas(), dtype=object)
    conv = np.char.add("c", (user % 50).astype("U8"))
    turn = (eid % 200).astype(np.int32)
    tool = np.where(etype == "click", np.char.add("w", (eid % 5).astype("U4")), None)
    op = np.where(etype == "error", "D", np.where(etype == "purchase", "U", "I"))
    return pa.table({
        "conv_id": pa.array(conv.tolist(), pa.string()),
        "turn_idx": pa.array(turn),
        "role": batch.column("event_type").cast(pa.string()),
        "text": batch.column("props").cast(pa.string()),
        "tool": pa.array(tool.tolist(), pa.string()),
        "ts": batch.column("ts").cast(pa.timestamp("us")),
        "op": pa.array(op.tolist(), pa.string()),
        "lsn": batch.column("event_id").cast(pa.int64()),
    })


def _write_derived_log(sf_dir: str, log_dir: str, flavor=None) -> None:
    """Write the 4-file change log derived from ``<sf_dir>/events.parquet``
    into ``log_dir`` — distributed, deterministic, crash-safe (stale
    partials wiped; ``_COMPLETE`` marker written last).  ``flavor``: an
    optional ``pa.Table -> pa.Table`` applied to each derived batch before
    the file split (must preserve ``lsn`` — the split key)."""
    os.makedirs(log_dir, exist_ok=True)
    done_marker = Path(log_dir) / "_COMPLETE"
    if done_marker.exists():
        return
    # a crash mid-generation must not leave a truncated log that later
    # runs silently reuse: write everything, then the marker
    for stale in Path(log_dir).glob("batch-*.parquet"):
        stale.unlink()
    # DISTRIBUTED derivation: the events table never reaches the
    # driver.  event_id is contiguous 0..n-1 (asserted below via the
    # footer row count == lsn range), so the 4-way file split is a
    # pure lsn-range partition: file i owns lsn in [i*per, (i+1)*per).
    # Each output file is produced by ONE Ray group (sorted by lsn
    # inside the group), so bytes are identical to a driver-side
    # slice-and-write — same content, same pass_id.
    n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    n_files = 4
    per = (n + n_files - 1) // n_files

    def derive(t: pa.Table) -> pa.Table:
        t = _derive_changes(t)
        return flavor(t) if flavor is not None else t

    def assign_file(t: pa.Table) -> pa.Table:
        f = pc.cast(pc.floor(pc.divide(
            pc.cast(t.column("lsn"), pa.float64()), float(per))), pa.int32())
        return t.append_column("__f", f)

    def write_file(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"file_idx": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64())})
        i = int(g.column("__f")[0].as_py())
        g = g.drop_columns(["__f"]).sort_by([("lsn", "ascending")])
        lo = int(g.column("lsn")[0].as_py())
        hi = int(g.column("lsn")[-1].as_py())
        if i == 0:
            g = g.drop_columns(["tool"])  # schema-evolution file
        path = f"{log_dir}/batch-{i:05d}-{lo:012d}-{hi:012d}.parquet"
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(g, tmp)
        os.replace(tmp, path)
        return pa.table({"file_idx": pa.array([i], pa.int32()),
                         "rows": pa.array([g.num_rows], pa.int64())})

    written = (rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "props", "ts"])
        .map_batches(derive, batch_format="pyarrow")
        .map_batches(assign_file, batch_format="pyarrow")
        .groupby("__f").map_groups(write_file, batch_format="pyarrow")
        .take_all())
    assert sum(r["rows"] for r in written) == n, "lsn range != row count"
    done_marker.touch()


_CACHE_ROOT = Path("/tmp/mpr_queries")


def _cache_dir(sf_dir: str, name: str) -> Path:
    """The cache directory ``name`` of the testdata tree ``sf_dir``:
    ``<_CACHE_ROOT>/<tree name>-<identity>/<name>``.  The identity hashes
    the name, size and mtime of every Parquet file in the tree, so a
    regenerated tree (same sizes included) never reuses a lake, log,
    index or checkpoint built from the old one; every cache of a tree
    shares the ``<tree name>-`` prefix."""
    ident = sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                   for p in Path(sf_dir).glob("*.parquet"))
    digest = hashlib.sha1(repr(ident).encode()).hexdigest()[:12]
    return _CACHE_ROOT / f"{Path(sf_dir).name}-{digest}" / name


def _build_once(path: Path, inputs: dict, build) -> Path:
    """Build the directory ``path`` with ``build(path)`` unless its marker
    records the same ``inputs`` (JSON).  The marker is written last: a
    build that crashed, or one made from other inputs, is wiped and
    rebuilt, never reused."""
    marker = path / "_built.json"
    want = json.dumps(inputs, sort_keys=True)
    if not (marker.exists() and marker.read_text() == want):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        build(path)
        marker.write_text(want)
    return path


def _derived_log(sf_dir: str, flavor=None) -> Path:
    """The change log derived from the tree's events table, with
    ``flavor`` applied (see ``_write_derived_log``), written once."""
    log = _cache_dir(sf_dir, f"log-{flavor.__name__}" if flavor else "log")
    _write_derived_log(sf_dir, str(log), flavor=flavor)
    return log


# phases of _derived_lake: (lo, hi) slices of the derived log's 4 files
_WHOLE_LOG = ((0, None),)
_TWO_PASSES = ((0, 2), (2, None))


def _derived_lake(sf_dir: str, name: str, phases, *, flavor=None,
                  hook=None, **cfg_kw) -> JobConfig:
    """The lake ``name``, replayed pass by pass from slices of the derived
    change log and built once.  Each ``(lo, hi)`` phase hard-links files
    ``[lo:hi]`` of the sorted (``flavor``-ed) log into the lake's own log
    and runs ``replay``; ``hook(cfg, stats)`` then runs with the replay
    stats of the passes so far (rollbacks, deletes, extra batches and
    asserts go there).  ``cfg_kw`` are JobConfig fields (16 partitions
    unless given).  The build is keyed on phases, ``cfg_kw``, source log
    and flavor, so changing any of them rebuilds the lake from scratch.
    The closing replay is a no-op on a lake that is up to date."""
    src = _derived_log(sf_dir, flavor)
    root = _cache_dir(sf_dir, name)
    cfg_kw = {"num_partitions": 16, **cfg_kw}
    cfg = JobConfig(changelog_dir=str(root / "log"),
                    lake_dir=str(root / "lake"), **cfg_kw)

    def build(_):
        os.makedirs(cfg.changelog_dir)
        files = sorted(src.glob("batch-*.parquet"))
        stats = []
        for lo, hi in phases:
            for f in files[lo:hi]:
                os.link(f, Path(cfg.changelog_dir) / f.name)
            stats.append(replay(cfg))
            assert not stats[-1]["up_to_date"], f"{name}: {lo}:{hi} is empty"
            if hook is not None:
                hook(cfg, stats)

    _build_once(root, {"phases": phases, "cfg": cfg_kw, "source": str(src),
                       "flavor": flavor and flavor.__name__}, build)
    replay(cfg)
    return cfg


def _events_lake(sf_dir: str) -> JobConfig:
    """The lake of the whole derived change log, replayed in one pass."""
    return _derived_lake(sf_dir, "events", _WHOLE_LOG)


class _push_shuffle:
    """Context manager selecting the push-based sort shuffle for every
    Dataset CREATED inside the block (Ray snapshots the DataContext into a
    Dataset's plan at creation — setting the strategy after building the
    pipeline is a silent no-op).  Measured ~5x on a groupby exchange
    (12.6s vs 61-88s, 20M events, 32 CPUs)."""

    def __enter__(self):
        from ray.data.context import DataContext, ShuffleStrategy
        self.ctx = DataContext.get_current()
        self.prev = self.ctx.shuffle_strategy
        self.ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    def __exit__(self, *exc):
        self.ctx.shuffle_strategy = self.prev
        return False


def _push_heavy(fn):
    """Decorator: build the query's Dataset graph under the push-based
    sort-shuffle context (``_push_shuffle``).  Applied ONLY to queries
    whose exchange moves full-table payloads (large-large joins, the
    changefeed outer join, transcript assembly) — push-based is measured
    ~25% faster there but SLOWER for the tiny partial-aggregate exchanges
    most other queries ship."""
    import functools

    @functools.wraps(fn)
    def wrapped(*a, **k):
        with _push_shuffle():
            return fn(*a, **k)
    return wrapped


def cdc_lww_merge(sf_dir: str):
    """Flagship: LWW-merged final state of the derived change log."""
    cfg = _events_lake(sf_dir)
    return final_state(cfg, sort=True)


def _twophase_lake(sf_dir: str) -> JobConfig:
    """Files 0-1, then files 2-3 of the derived log, as two passes."""
    def resumed(cfg, stats):
        assert stats[-1]["files"] == 2   # a pass applies only new files
    return _derived_lake(sf_dir, "twophase", _TWO_PASSES, hook=resumed)


def cdc_two_phase_replay(sf_dir: str):
    """Incremental consumption under the driver gate: the SAME derived
    change log applied in TWO separate replay passes (files 0-1, then
    files 2-3) into a dedicated lake — resume/checkpoint semantics, pass
    identity and cross-pass LWW merging all on the oracle path.  Final
    state must equal the one-pass lake's (same SQL winners oracle)."""
    return final_state(_twophase_lake(sf_dir), sort=True)


def cdc_time_travel(sf_dir: str):
    """Pass-level time travel: the derived change log applied in TWO
    retained passes (files 0-1, then 2-3) into a lake written with
    ``retain_passes=1``; the query then reads the lake AS OF the first
    pass — reconstruction purely from retained manifest records + their
    pinned state files (``read_lake(as_of=...)``), no re-derivation.
    Oracle: LWW winners over the lsn prefix files 0-1 own."""
    from migration_pair_ray.state.manifest import CheckpointStore
    cfg = _derived_lake(sf_dir, "timetravel", _TWO_PASSES, retain_passes=1)
    seqs = CheckpointStore(cfg.checkpoint_dir).pass_seqs()
    first_pass = min(seqs, key=seqs.get)
    return final_state(cfg, sort=True, as_of=first_pass)


def cdc_rollback(sf_dir: str):
    """Rollback — the WRITE half of time travel (``compact.rollback_to``):
    the derived change log applied as three passes (files 0-1, file 2,
    file 3), with a rollback to pass 1 in between.  Pass 2's effects are
    undone by a pure-metadata CoW manifest flip (no state file touched);
    pass 3 then applies on top of the RESTORED state — the log is never
    un-consumed, so file 2 stays committed and excluded.  Oracle: LWW
    winners over the lsn ranges files 0, 1 and 3 own (file 2's range
    carved out)."""
    from migration_pair_ray.pipelines.compact import rollback_to

    def roll_back(cfg, stats):
        if len(stats) == 2:
            rollback_to(cfg, stats[0]["pass_id"])

    cfg = _derived_lake(sf_dir, "rollback", ((0, 2), (2, 3), (3, None)),
                        hook=roll_back, retain_passes=2)
    return final_state(cfg, sort=True)


def cdc_wire_forms(sf_dir: str):
    """Schema evolution beyond added columns, ON the oracle path: the
    derived change log's FIRST file re-encoded in the reference's wire
    forms — ``ts`` as unix-epoch-ms int64 (``Tasks/Extraction.cs:67-68``),
    ``turn_idx`` narrowed to int16 — then replayed.  The schema unifier
    reconciles int-ms with timestamp files, normalize casts per batch,
    and the merge widens int16 → int32.  Oracle mirrors the ms truncation
    on the lsn prefix the wire file owns."""
    src = _derived_log(sf_dir)
    root = _cache_dir(sf_dir, "wire")
    cfg = JobConfig(changelog_dir=str(root / "log"),
                    lake_dir=str(root / "lake"), num_partitions=16)

    def write_log(_):
        os.makedirs(cfg.changelog_dir)
        files = sorted(src.glob("batch-*.parquet"))
        t = pq.read_table(str(files[0]))
        ms = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                       pa.scalar(1000, pa.int64()))
        t = t.set_column(t.schema.get_field_index("ts"), "ts", ms)
        t = t.set_column(t.schema.get_field_index("turn_idx"), "turn_idx",
                         pc.cast(t.column("turn_idx"), pa.int16()))
        pq.write_table(t, str(Path(cfg.changelog_dir) / files[0].name))
        for f in files[1:]:
            os.link(f, Path(cfg.changelog_dir) / f.name)

    _build_once(root, {"source": str(src)}, write_log)
    replay(cfg)   # one pass over the whole log; a no-op once applied
    return final_state(cfg, sort=True)


def _txn_flavor(t: pa.Table) -> pa.Table:
    """Txn overlay on the derived change log, mirrored in the
    cdc_txn_boundary oracle: lsn % 5 == 4 rows are autocommit (txn null),
    every other event belongs to txn ``t<lsn // 7>``."""
    lsn = t.column("lsn").to_numpy(zero_copy_only=False)
    tid = np.char.add("t", (lsn // 7).astype("U12"))
    txn = np.where(lsn % 5 == 4, None, tid)
    return t.append_column("txn_id", pa.array(txn.tolist(), pa.string()))


def cdc_txn_boundary(sf_dir: str):
    """Transactional consistency ON the oracle path: the derived change
    log with a txn overlay is replayed with ``txn_boundary=True`` in TWO
    phases — files 0-1 first (every transactional event is HELD: no
    commit markers have arrived), then files 2-3 plus the marker batch
    (commit markers for txns with ``t % 10 != 3``; the rest stay aborted
    in the pending store forever).  Final state must equal LWW winners
    over autocommit + committed-txn events only."""
    n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    ids = np.arange((n - 1) // 7 + 1, dtype=np.int64)
    ids = ids[ids % 10 != 3]          # t % 10 == 3 never commits

    def commit_markers(cfg, stats):
        s = stats[-1]
        if len(stats) == 2:
            assert s["txn_markers"] == len(ids) and s["txn_held"] > 0
            return
        assert s["txn_held"] > 0 and s["txn_markers"] == 0
        # the markers arrive with the second phase's files
        mk = pa.table({
            "op": pa.array(["C"] * len(ids), pa.string()),
            "lsn": pa.array(n + ids, pa.int64()),
            "txn_id": pa.array(np.char.add("t", ids.astype("U12")).tolist(),
                               pa.string()),
        })
        pq.write_table(mk, f"{cfg.changelog_dir}/batch-00009-markers.parquet")

    cfg = _derived_lake(sf_dir, "txn", _TWO_PASSES, flavor=_txn_flavor,
                        hook=commit_markers, txn_boundary=True)
    return final_state(cfg, sort=True)


def cdc_delete_where(sf_dir: str):
    """Targeted delete (GDPR/right-to-be-forgotten) ON the oracle path:
    a dedicated lake replays the derived change log, then
    ``delete_where`` tombstones every visible key whose winner has
    role = 'purchase' — the delete travels as a regular change batch
    through the same replay machinery.  Oracle: LWW winners minus the
    predicate matches."""
    from migration_pair_ray.pipelines.deletes import delete_where

    def purge(cfg, stats):
        s = delete_where(cfg, lambda t: pc.fill_null(
            pc.equal(t.column("role"), "purchase"), False),
            tag="purge-purchase")
        assert s["applied"] and s["tombstones"] > 0

    cfg = _derived_lake(sf_dir, "delete", _WHOLE_LOG, hook=purge)
    return final_state(cfg, sort=True)


_TTL_CUTOFF_US = 1705276800000000     # 2024-01-15 (the as-of cutoff)


def cdc_ttl_expiry(sf_dir: str):
    """Event-time retention (TTL) ON the oracle path: a dedicated lake
    replays the derived change log, then ``expire_before`` tombstones
    every visible key whose winning ``ts`` is before 2024-01-15 — the
    "expire older than N days" policy as an idempotent delete batch
    through the regular replay machinery.  Oracle: LWW winners at or
    after the cutoff."""
    from migration_pair_ray.pipelines.deletes import expire_before

    def expire(cfg, stats):
        s = expire_before(cfg, _TTL_CUTOFF_US)
        assert s["applied"] and s["tombstones"] > 0

    cfg = _derived_lake(sf_dir, "ttl", _WHOLE_LOG, hook=expire)
    return final_state(cfg, sort=True)


def cdc_jsonl_ingest(sf_dir: str):
    """Debezium-style JSONL source ON the oracle path: the derived change
    log re-encoded as one-envelope-per-line JSONL files (op c/u/d,
    before/after structs, epoch-ms event time; the pre-evolution file's
    structs lack ``tool``), ingested via sources/jsonl_log into a
    dedicated lake.  Oracle: LWW winners with the ms truncation every
    envelope's ``ts_ms`` implies."""
    import duckdb
    from migration_pair_ray.sources.jsonl_log import ingest_jsonl_log
    src = _derived_log(sf_dir)
    root = _cache_dir(sf_dir, "jsonl")
    env_dir = root / "envelopes"
    cfg = JobConfig(changelog_dir=str(root / "log"),
                    lake_dir=str(root / "lake"), num_partitions=16)

    def write_envelopes(_):
        env_dir.mkdir()
        for f in sorted(src.glob("batch-*.parquet")):
            has_tool = "tool" in pq.read_schema(str(f)).names
            tool_expr = ", tool := tool" if has_tool else ""
            pack = (f"struct_pack(conv_id := conv_id, turn_idx := turn_idx, "
                    f"role := role, text := text{tool_expr})")
            duckdb.sql(f"""
                COPY (SELECT CASE op WHEN 'I' THEN 'c' WHEN 'U' THEN 'u'
                                     ELSE 'd' END AS op,
                             CASE WHEN op = 'D' THEN {pack} END AS before,
                             CASE WHEN op <> 'D' THEN {pack} END AS after,
                             epoch_ms(ts) AS ts_ms, lsn
                      FROM read_parquet('{f}') ORDER BY lsn)
                TO '{env_dir}/{f.stem}.jsonl' (FORMAT JSON)""")

    _build_once(root, {"source": str(src)}, write_envelopes)
    ingest_jsonl_log(cfg, str(env_dir))   # a no-op once ingested
    return final_state(cfg, sort=True)


def cdc_point_lookup(sf_dir: str):
    """Point lookup on the lake: three fixed conversations served via
    partition routing + chunk key-range pruning (pipelines/lookup) —
    the O(#keys)-file serving path, no lake scan.  Oracle: LWW winners
    restricted to those conv_ids."""
    from migration_pair_ray.pipelines.lookup import lookup_keys
    cfg = _events_lake(sf_dir)
    return lookup_keys(cfg, ["c0", "c17", "c42"])


def cdc_conv_fetch(sf_dir: str):
    """Bulk conversation fetch: four fixed conversations served by the
    DISTRIBUTED pruned-read path (``pipelines/lookup.fetch_conversations``
    — one Ray task per routed partition, chunk/bloom pruning, per-pid
    kernel fold).  The middle ground between driver-side point lookups
    and a full ``read_lake`` scan.  Oracle: LWW winners restricted to
    those conv_ids."""
    from migration_pair_ray.pipelines.lookup import fetch_conversations
    cfg = _events_lake(sf_dir)
    return (fetch_conversations(cfg, ["c1", "c7", "c23", "c30"])
            .sort(["conv_id", "turn_idx"]))


def cdc_tombstone_keys(sf_dir: str):
    """Keys whose LWW winner is a delete (internal lake state, op == 'D')."""
    cfg = _events_lake(sf_dir)
    ds = read_lake(cfg).map_batches(
        lambda t: t.filter(pc.equal(t.column("op"), "D")).select(["conv_id", "turn_idx"]),
        batch_format="pyarrow")
    return ds.sort(["conv_id", "turn_idx"])


def _conv_local(cfg: JobConfig, table_fn):
    """Run a per-conversation table→table operator INSIDE each partition
    read (``read_lake(finalize=...)``: in the driver for a small lake, a
    read task per partition otherwise) when the lake layout is
    conv-disjoint — the co-partitioned fast path shared by the
    conversation-grain queries: a conv-mode
    partition (splits included — children stay conv-routed) holds every
    visible row of its conversations, so any per-conv grouped operator is
    complete per partition and needs no exchange.  ``table_fn`` receives
    the partition's VISIBLE table.  Returns None on salted layouts
    ("key"/"hot" spread a conv's rows) — callers fall back to their
    coarse-bucket exchange path."""
    from migration_pair_ray.state.manifest import LakeMeta
    meta = LakeMeta(cfg.lake_dir)
    if (meta.read() or {}).get("partition_mode") != "conv":
        return None
    from migration_pair_ray.functions.lww import finalize_visible
    from migration_pair_ray.pipelines.replay import read_lake
    kernel = meta.merge_kernel()
    return read_lake(cfg, finalize=lambda t: table_fn(
        finalize_visible(t, kernel)))


@_push_heavy
def conv_transcripts(sf_dir: str):
    """Transcript assembly: the LWW-merged final state rolled up to ONE
    row per conversation — every surviving turn rendered as ``role: text``
    and joined in turn order, plus the turn count.  The grouped-ordered-
    concat every transcript consumer (training-corpus export,
    conversation-level filtering) needs, with zero per-conversation
    dispatch.

    Exchange discipline: on a conv-disjoint layout (``partition_mode=
    "conv"``, splits included — children stay conv-routed) a partition
    holds every turn of its conversations, so the assembly runs INSIDE
    the per-partition read (``read_lake(finalize=...)`` →
    ``analytic.string_agg_table``) — **no shuffle**; the turn text never
    moves except into its own transcript.  Salted layouts ("key"/"hot"
    spread a conv's turns) fall back to the coarse-bucket
    ``grouped_string_agg`` exchange."""
    cfg = _events_lake(sf_dir)

    def mkline(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(t.column("role")),
                       pc.is_valid(t.column("text")))
        t = t.filter(keep)
        line = pc.binary_join_element_wise(
            pc.cast(t.column("role"), pa.string()), t.column("text"), ": ")
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "line": line})

    from migration_pair_ray.stages.analytic import string_agg_table
    local = _conv_local(cfg, lambda t: string_agg_table(
        mkline(t), "conv_id", ["turn_idx"], "line",
        sep="\n", out_col="transcript"))
    if local is not None:
        out = local
    else:
        from migration_pair_ray.stages.analytic import grouped_string_agg
        st = final_state(cfg, sort=False,
                         columns=["conv_id", "turn_idx", "role", "text"])
        out = grouped_string_agg(
            st.map_batches(mkline, batch_format="pyarrow"),
            "conv_id", ["turn_idx"], "line", sep="\n",
            out_col="transcript")
    return out.rename_columns(
        ["conv_id", "transcript", "n_turns"]).sort("conv_id")


def conv_near_dup(sf_dir: str, threshold: float = 0.5):
    """Near-duplicate CONVERSATION detection — the transcript-grain twin
    of doc_near_dedup_ngram, composed on the CDC path: replay → LWW state
    → transcript assembly (conv_transcripts) → EXACT 5-gram-Jaccard dedup
    over whole transcripts.  The LSH banding is re-tuned for the low
    threshold (rows-per-band = 1, i.e. n_bands = n_perm: a true pair at
    j ≥ 0.5 escapes every band with probability (1-j)^64 ≈ 5e-20, so
    candidate recall is effectively exact and the SQL oracle can demand
    exactness); precision is the true shingle-set Jaccard either way.
    Survivors keep the smallest numeric conv id per near-dup cluster;
    n_chars pins the assembled transcript bytes."""
    from migration_pair_ray.stages.dedup import ngram_jaccard_dedup
    tr = conv_transcripts(sf_dir)

    def to_doc(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(pc.utf8_slice_codeunits(
                t.column("conv_id"), 1, 32), pa.int64()),
            "text": t.column("transcript")})

    # the dedup skeleton executes its input several times (candidate
    # sketch, shingle, survivor passes); checkpoint the assembled
    # transcripts to Parquet so the replay+assembly upstream runs ONCE
    # without pinning the full set in the object store — the same
    # spill-not-pin stance as corpus_curation (at 10^9 conversations a
    # .materialize() here would pin every transcript byte)
    docs = checkpoint_parquet(
        tr.map_batches(to_doc, batch_format="pyarrow"),
        str(_cache_dir(sf_dir, "conv_near_dup_ckpt")))
    kept = ngram_jaccard_dedup(docs, threshold=threshold, n=5,
                               n_perm=64, n_bands=64)

    def back(t: pa.Table) -> pa.Table:
        cid = pc.binary_join_element_wise(
            pa.array(["c"] * t.num_rows, pa.string()),
            pc.cast(t.column("doc_id"), pa.string()), "")
        return pa.table({
            "conv_id": cid,
            "n_chars": pc.cast(pc.utf8_length(t.column("text")), pa.int64()),
        })

    return kept.map_batches(back, batch_format="pyarrow").sort("conv_id")


def conv_token_packing(sf_dir: str, budget: int = 4096):
    """Transcript → training-pack layout, composed END TO END on the CDC
    path: replay → LWW state → transcript assembly → BPE-ish tokenization
    (functions/text.bpe_token_count) → the distributed two-pass prefix
    scan (stages/packing.pack_bins) cutting the conversation token stream
    every ``budget`` tokens — per pack: token sum, conversation count,
    first conversation.  This is the packing step of a real
    conversation-corpus export, at conversation grain."""
    from ray.data.aggregate import Min, Sum
    from migration_pair_ray.functions.text import bpe_token_count
    from migration_pair_ray.stages.packing import pack_bins
    tr = conv_transcripts(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(pc.utf8_slice_codeunits(
                t.column("conv_id"), 1, 32), pa.int64()),
            "n_tokens": pc.cast(
                bpe_token_count(t.column("transcript")), pa.int64()),
        })

    # pack order is the NUMERIC conversation id; the transcript table is
    # string-ordered (c10 < c2), so re-sort to satisfy pack_bins' sorted/
    # block-disjoint contract
    packed = pack_bins(tr.map_batches(prep, batch_format="pyarrow")
                       .sort("doc_id"), budget=budget)

    def partial(t: pa.Table) -> pa.Table:
        return (t.select(["bin", "n_tokens", "doc_id"])
                .group_by("bin")
                .aggregate([("n_tokens", "sum"), ("n_tokens", "count"),
                            ("doc_id", "min")])
                .rename_columns(["bin", "sum_tokens", "n_convs",
                                 "first_conv"]))

    return (packed.map_batches(partial, batch_format="pyarrow")
            .groupby("bin")
            .aggregate(Sum("sum_tokens", alias_name="sum_tokens"),
                       Sum("n_convs", alias_name="n_convs"),
                       Min("first_conv", alias_name="first_conv"))
            .sort("bin"))


def conv_repeated_turns(sf_dir: str):
    """Within-conversation repetition signal: per conversation, how many
    turns are exact duplicates of an earlier turn's text (degenerate
    loops / copy-paste — a standard transcript-quality gate).  One coarse
    conv-bucket shuffle of (conv_id, text-hash, text); inside a bucket a
    single Arrow sort + keep-first boundary mask counts the non-first
    occurrences per conversation — text itself rides the sort key within
    equal-hash runs, so a hash collision cannot fake a repeat."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.functions.hashing import stable_hash64
    from migration_pair_ray.functions.lww import _group_first_mask
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(None)
    cfg = _events_lake(sf_dir)
    st = final_state(cfg, sort=False, columns=['conv_id', 'turn_idx', 'text'])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("text")))
        h = stable_hash64(t.column("text").to_pylist()).astype(np.int64)
        return pa.table({
            "conv_id": t.column("conv_id"),
            "__h": pa.array(h),
            "text": t.column("text"),
            "__b": pa.array(_coarse_key_bucket(t.column("conv_id"),
                                               n_coarse)),
        })

    def count_repeats(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "n_repeats": pa.array([], pa.int64()),
                             "n_turns": pa.array([], pa.int64())})
        g = g.sort_by([("conv_id", "ascending"), ("__h", "ascending"),
                       ("text", "ascending")])
        first = _group_first_mask(g, ["conv_id", "__h", "text"]).to_numpy(
            zero_copy_only=False)
        return (pa.table({"conv_id": g.column("conv_id"),
                          "rep": pa.array((~first).astype(np.int64)),
                          "one": pa.array(np.ones(g.num_rows, np.int64))})
                .group_by("conv_id")
                .aggregate([("rep", "sum"), ("one", "sum")])
                .rename_columns(["conv_id", "n_repeats", "n_turns"]))

    return (st.map_batches(prep, batch_format="pyarrow")
            .groupby("__b").map_groups(count_repeats, batch_format="pyarrow")
            .groupby("conv_id")
            .aggregate(Sum("n_repeats", alias_name="n_repeats"),
                       Sum("n_turns", alias_name="n_turns"))
            .sort("conv_id"))


def cdc_changelog_stats(sf_dir: str):
    """Per-op event counts + lsn range of the derived change stream
    (lineage/metrics-shaped aggregate; partial per-batch then tiny merge)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type", "props", "ts"])
    ds = ds.map_batches(_derive_changes, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by("op").aggregate(
            [("lsn", "count"), ("lsn", "min"), ("lsn", "max")]).rename_columns(
            ["op", "n", "lsn_lo", "lsn_hi"])

    part = ds.map_batches(partial, batch_format="pyarrow")
    out = (part.groupby("op")
           .aggregate(*_sum_min_max()))
    return out.sort("op")


def _sum_min_max():
    from ray.data.aggregate import Max, Min, Sum
    return [Sum("n", alias_name="n"), Min("lsn_lo", alias_name="lsn_lo"),
            Max("lsn_hi", alias_name="lsn_hi")]


def cdc_snapshot_unix_ms(sf_dir: str):
    """Snapshot wire form: final state with ts as unix epoch ms."""
    cfg = _events_lake(sf_dir)
    from migration_pair_ray.pipelines.snapshot import _ts_to_unix_ms
    return final_state(cfg, sort=True).map_batches(_ts_to_unix_ms,
                                                   batch_format="pyarrow")


# --------------------------------------------------------------------------
# Relational operator coverage (TPC-H-ish tables)
# --------------------------------------------------------------------------

def agg_pricing_summary(sf_dir: str):
    """Q1-style grouped aggregate with per-batch partial aggregation
    (combiner) before the shuffle."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        t = t.append_column("disc_price", disc)
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("disc_price", "sum"), ("l_quantity", "count")]).rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
             "sum_disc_price", "count_order"])

    part = ds.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum
    out = part.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_price", alias_name="sum_base_price"),
        Sum("sum_disc_price", alias_name="sum_disc_price"),
        Sum("count_order", alias_name="count_order"))
    def integerize(t: pa.Table) -> pa.Table:
        # whole-unit integers: float-sum error (~1e-6) is negligible vs the
        # 0.5 rounding boundary, so Ray and the SQL oracle agree exactly
        for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
            t = t.set_column(t.schema.get_field_index(c), c,
                             pc.cast(pc.round(t.column(c), ndigits=0, round_mode="half_towards_infinity"), pa.int64()))
        return t
    return out.sort(["l_returnflag", "l_linestatus"]).map_batches(
        integerize, batch_format="pyarrow")


def filter_highvalue_orders(sf_dir: str):
    """Filter + projection + computed column.  The predicate is pushed to
    the PARQUET SCAN (row-group statistics prune entire groups before any
    byte leaves storage) in addition to column pruning; the in-batch
    filter stays as the exact row-level residual."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice", "o_orderstatus"],
                         filter=(pc.field("o_totalprice") > 400_000.0))
    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("o_totalprice"), 400_000.0))
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "o_totalprice": t.column("o_totalprice"),
            "price_cents": pc.cast(pc.round(pc.multiply(t.column("o_totalprice"), 100.0), ndigits=0, round_mode="half_towards_infinity"), pa.int64()),
        })
    return ds.map_batches(fn, batch_format="pyarrow").sort("o_orderkey")


def join_orders_customer_segment(sf_dir: str):
    """Broadcast hash join: customer (small side) is ray.put once; each
    orders batch maps custkey → mktsegment with a numpy searchsorted —
    no shuffle of the big side (SURVEY.md §2.4)."""
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    keys = cust.column("c_custkey").to_numpy()
    order_idx = np.argsort(keys)
    ref = ray.put((keys[order_idx],
                   np.asarray(cust.column("c_mktsegment").to_pandas())[order_idx]))

    def join_batch(t: pa.Table) -> pa.Table:
        k, seg = ray.get(ref)
        ck = t.column("o_custkey").to_numpy()
        pos = np.searchsorted(k, ck)
        pos = np.clip(pos, 0, len(k) - 1)
        hit = k[pos] == ck
        t = t.filter(pa.array(hit))
        return pa.table({
            "c_mktsegment": pa.array(seg[pos[hit]].tolist(), pa.string()),
            "o_totalprice": t.column("o_totalprice"),
        })

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])
    joined = ds.map_batches(join_batch, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by("c_mktsegment").aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")]).rename_columns(
            ["c_mktsegment", "revenue", "n_orders"])

    from ray.data.aggregate import Sum
    out = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby("c_mktsegment")
           .aggregate(Sum("revenue", alias_name="revenue"),
                      Sum("n_orders", alias_name="n_orders")))
    return out.sort("c_mktsegment").map_batches(
        lambda t: t.set_column(t.schema.get_field_index("revenue"), "revenue",
                               pc.cast(pc.round(t.column("revenue"), ndigits=0, round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


def join_lineitem_part_type(sf_dir: str):
    """Second broadcast join: part → lineitem, aggregate qty by p_type."""
    part_tbl = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    keys = part_tbl.column("p_partkey").to_numpy()
    order_idx = np.argsort(keys)
    ref = ray.put((keys[order_idx],
                   np.asarray(part_tbl.column("p_type").to_pandas())[order_idx]))

    def join_batch(t: pa.Table) -> pa.Table:
        k, ptype = ray.get(ref)
        pk = t.column("l_partkey").to_numpy()
        pos = np.clip(np.searchsorted(k, pk), 0, len(k) - 1)
        hit = k[pos] == pk
        t = t.filter(pa.array(hit))
        return pa.table({
            "p_type": pa.array(ptype[pos[hit]].tolist(), pa.string()),
            "l_quantity": t.column("l_quantity"),
        })

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity"])
    joined = ds.map_batches(join_batch, batch_format="pyarrow")
    from ray.data.aggregate import Sum
    out = (joined.map_batches(
        lambda t: t.group_by("p_type").aggregate([("l_quantity", "sum")])
        .rename_columns(["p_type", "sum_qty"]), batch_format="pyarrow")
        .groupby("p_type").aggregate(Sum("sum_qty", alias_name="sum_qty")))
    return out.sort("p_type")


def topk_orders_by_price(sf_dir: str):
    """Top-k WITHOUT a global sort: each block keeps its local top-10
    (one vectorized sort_indices per block), the driver merges the tiny
    partials — the brute_force_topk pattern applied to a scalar key.
    Tie-break on o_orderkey keeps engine and oracle deterministic."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_custkey", "o_totalprice"])
    keys = [("o_totalprice", "descending"), ("o_orderkey", "ascending")]

    def local_topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=keys)
        return t.take(idx.slice(0, 10))

    parts = ds.map_batches(local_topk, batch_format="pyarrow").take_all()
    merged = pa.Table.from_pylist(parts, schema=pa.schema([
        pa.field("o_orderkey", pa.int64()),
        pa.field("o_custkey", pa.int64()),
        pa.field("o_totalprice", pa.float64())]))
    return merged.sort_by(keys).slice(0, 10)


def distinct_event_types(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    # distinct via per-batch shrink, then a tiny grouped count (the shuffle
    # moves at most n_distinct rows per block, not the raw column)
    part = ds.map_batches(
        lambda t: t.group_by("event_type").aggregate([("event_type", "count")])
        .select(["event_type"]), batch_format="pyarrow")
    return (part.groupby("event_type").count()
            .select_columns(["event_type"]).sort("event_type"))


def events_hourly_windows(sf_dir: str):
    """Tumbling 1h event-time windows: count + rounded value sum."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        t2 = pa.table({"hour": hour, "value": t.column("value")})
        return t2.group_by("hour").aggregate(
            [("value", "sum"), ("value", "count")]).rename_columns(
            ["hour", "value_sum", "n"])

    from ray.data.aggregate import Sum
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("hour").aggregate(Sum("value_sum", alias_name="value_sum"),
                                      Sum("n", alias_name="n")))
    return out.sort("hour").map_batches(
        lambda t: t.set_column(t.schema.get_field_index("value_sum"), "value_sum",
                               pc.cast(pc.round(pc.multiply(t.column("value_sum"), 100.0),
                                                ndigits=0, round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


def events_sessionize(sf_dir: str):
    """Per-user session counts (30-min inactivity gap) — the vectorized
    sessionize operator: ONE shuffle into ~64 coarse key-hash buckets,
    one Arrow sort + boundary masks per bucket (zero per-key dispatch,
    zero pandas — stages/windows.py sessionize_counts)."""
    from migration_pair_ray.stages.windows import sessionize_counts
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return sessionize_counts(ds, "user_id", "ts", gap_s=1800).sort("user_id")


def events_session_windows(sf_dir: str):
    """Full per-session rollup (user_id, session_idx, start, end,
    n_events) — exercises stages/windows.session_windows, the vectorized
    coarse-bucket sessionizer, end to end with a SQL gaps-and-islands
    oracle."""
    from migration_pair_ray.stages.windows import session_windows
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return session_windows(ds, "user_id", "ts", gap_s=1800)


@_push_heavy
def join_customer_orders_full(sf_dir: str):
    """FULL OUTER partitioned hash join — both sides partially unmatched:
    negative-balance customers (some never ordered big) against per-
    customer counts of high-value orders (some belong to non-negative-
    balance customers).  Unmatched rows surface from exactly one bucket;
    Acero coalesces the key.  Completes the §2.4 join matrix
    (inner/left/semi/anti/asof/range/broadcast/salted/full)."""
    from migration_pair_ray.stages.join import hash_join
    from ray.data.aggregate import Count
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_acctbal"])
    cust = cust.map_batches(
        lambda t: (lambda m: pa.table({
            "custkey": t.column("c_custkey").filter(m),
            "acctbal": pc.round(t.column("c_acctbal").filter(m), 2)}))(
            pc.less(t.column("c_acctbal"), 0.0)),
        batch_format="pyarrow")
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    big = (orders.map_batches(
        lambda t: pa.table({"custkey": t.column("o_custkey").filter(
            pc.greater(t.column("o_totalprice"), 150_000.0))}),
        batch_format="pyarrow")
        .groupby("custkey").aggregate(Count(alias_name="n_big")))
    joined = hash_join(cust, big, on="custkey", how="outer")
    return (joined.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("n_big"), "n_big",
            pc.fill_null(pc.cast(t.column("n_big"), pa.int64()), 0)),
        batch_format="pyarrow")
        .sort("custkey"))


def join_orders_customer_left(sf_dir: str):
    """LEFT OUTER partitioned hash join (stages/join.py): every customer
    row survives, order revenue null-filled to 0 — covers the non-inner
    join shapes of §2.4."""
    from migration_pair_ray.stages.join import hash_join
    customers = rd.read_parquet(f"{sf_dir}/customer.parquet",
                                columns=["c_custkey", "c_mktsegment"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    orders = orders.map_batches(
        lambda t: pa.table({"c_custkey": t.column("o_custkey"),
                            "o_totalprice": t.column("o_totalprice")}),
        batch_format="pyarrow")
    joined = hash_join(customers, orders, on="c_custkey", how="left")

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({
            "c_mktsegment": t.column("c_mktsegment"),
            "rev": pc.fill_null(t.column("o_totalprice"), 0.0),
            "has": pc.cast(pc.is_valid(t.column("o_totalprice")), pa.int64()),
        })
        return (t2.group_by("c_mktsegment")
                .aggregate([("rev", "sum"), ("has", "sum"), ("has", "count")])
                .rename_columns(["c_mktsegment", "revenue", "n_orders", "n_rows"]))

    from ray.data.aggregate import Sum
    out = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby("c_mktsegment")
           .aggregate(Sum("revenue", alias_name="revenue"),
                      Sum("n_orders", alias_name="n_orders"),
                      Sum("n_rows", alias_name="n_rows")))
    return out.sort("c_mktsegment").map_batches(
        lambda t: t.set_column(t.schema.get_field_index("revenue"), "revenue",
                               pc.cast(pc.round(t.column("revenue"), ndigits=0, round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


def _orders_keyed_price(sf_dir: str, min_price: float) -> "rd.Dataset":
    """Orders above ``min_price``, keyed as c_custkey (right side of the
    customer semi/anti joins) — the filter is pushed before the shuffle
    so only qualifying keys ever leave the read."""
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    return orders.map_batches(
        lambda t: pa.table(
            {"c_custkey": t.column("o_custkey").filter(
                pc.greater(t.column("o_totalprice"), min_price))}),
        batch_format="pyarrow")


@_push_heavy
def join_customer_orders_semi(sf_dir: str):
    """SEMI hash join (stages/join.py ``how="semi"``): customers with at
    least one order above 400k — the EXISTS shape.  Same one-shuffle
    bucketed Acero plan as the other joins, but the output carries only
    LEFT columns and never fans out on multi-order customers (an inner
    join + distinct would shuffle every matching order row)."""
    from migration_pair_ray.stages.join import hash_join
    customers = rd.read_parquet(f"{sf_dir}/customer.parquet",
                                columns=["c_custkey", "c_mktsegment"])
    joined = hash_join(customers, _orders_keyed_price(sf_dir, 400_000.0),
                       on="c_custkey", how="semi")
    out = (joined.map_batches(
        lambda t: pa.table({"c_mktsegment": t.column("c_mktsegment"),
                            "ck": t.column("c_custkey")})
        .group_by("c_mktsegment").aggregate([("ck", "count"), ("ck", "min")])
        .rename_columns(["c_mktsegment", "n_customers", "min_custkey"]),
        batch_format="pyarrow"))
    from ray.data.aggregate import Min, Sum
    return (out.groupby("c_mktsegment")
            .aggregate(Sum("n_customers", alias_name="n_customers"),
                       Min("min_custkey", alias_name="min_custkey"))
            .sort("c_mktsegment"))


@_push_heavy
def join_customer_orders_anti(sf_dir: str):
    """ANTI hash join (stages/join.py ``how="anti"``): customers with NO
    order above 400k — the NOT-EXISTS shape, the standard retention /
    gap-analysis query."""
    from migration_pair_ray.stages.join import hash_join
    customers = rd.read_parquet(f"{sf_dir}/customer.parquet",
                                columns=["c_custkey", "c_mktsegment"])
    joined = hash_join(customers, _orders_keyed_price(sf_dir, 400_000.0),
                       on="c_custkey", how="anti")
    out = (joined.map_batches(
        lambda t: pa.table({"c_mktsegment": t.column("c_mktsegment"),
                            "ck": t.column("c_custkey")})
        .group_by("c_mktsegment").aggregate([("ck", "count"), ("ck", "min")])
        .rename_columns(["c_mktsegment", "n_customers", "min_custkey"]),
        batch_format="pyarrow"))
    from ray.data.aggregate import Min, Sum
    return (out.groupby("c_mktsegment")
            .aggregate(Sum("n_customers", alias_name="n_customers"),
                       Min("min_custkey", alias_name="min_custkey"))
            .sort("c_mktsegment"))


@_push_heavy
def join_events_orders_asof(sf_dir: str, tolerance_s: int = 725_000_000):
    """Point-in-time (as-of) join: each event picks the LATEST prior order
    of the same user (backward-inclusive, bounded staleness) — the custom
    operator Ray Data lacks (stages/join.py:asof_join).  The right side is
    restricted to ``o_custkey % 3 == 0`` so the unmatched/left-null path is
    exercised, and the ~22-year event/order gap makes ``tolerance_s`` bite
    near the lag median.  Result: per event_type, event count, matched
    count, and matched revenue (rounded to whole units so the float sum
    agrees exactly with the SQL oracle)."""
    from migration_pair_ray.stages.join import asof_join

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderdate",
                                      "o_totalprice"])

    def right_prep(t: pa.Table) -> pa.Table:
        keys = t.column("o_custkey").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(keys % 3 == 0))
        t = pa.table({"user_id": t.column("o_custkey"),
                      "ts": t.column("o_orderdate"),
                      "last_price": t.column("o_totalprice")})
        # partial max per (user_id, ts) — dedups equal-ts orders in-batch
        return (t.group_by(["user_id", "ts"])
                .aggregate([("last_price", "max")])
                .rename_columns(["user_id", "ts", "last_price"]))

    from ray.data.aggregate import Max, Sum
    right = (orders.map_batches(right_prep, batch_format="pyarrow")
             .groupby(["user_id", "ts"])
             .aggregate(Max("last_price", alias_name="last_price")))

    events = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["user_id", "ts", "event_type"])
    joined = asof_join(events, right, key="user_id", ts_col="ts",
                       how="left", tolerance_s=tolerance_s)

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({
            "event_type": t.column("event_type"),
            "matched_rev": pc.fill_null(t.column("last_price"), 0.0),
            "matched": pc.cast(pc.is_valid(t.column("last_price")),
                               pa.int64()),
        })
        return (t2.group_by("event_type")
                .aggregate([("matched_rev", "sum"), ("matched", "sum"),
                            ("matched", "count")])
                .rename_columns(["event_type", "matched_rev", "n_matched",
                                 "n_events"]))

    out = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n_events", alias_name="n_events"),
                      Sum("n_matched", alias_name="n_matched"),
                      Sum("matched_rev", alias_name="matched_rev")))
    return out.sort("event_type").map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("matched_rev"), "matched_rev",
            pc.cast(pc.round(t.column("matched_rev"), ndigits=0,
                             round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


def join_events_orders_range(sf_dir: str,
                             lo_s: int = -725_000_000,
                             hi_s: int = -700_000_000):
    """Interval (range) join: every (event, order) pair of the same user
    with the order placed inside a fixed window RELATIVE to the event —
    the one-to-many temporal join (stages/join.py:range_join; asof is the
    one-to-one sibling).  The ~22-year event/order gap puts the
    [-725Ms, -700Ms] window in the data's mass so the join is selective
    but non-trivial.  Result per event_type: pair count, exact revenue of
    matched orders (per-pair whole-unit rounding so the int64 sum is
    bit-portable), and the matched orders' date span as epoch-µs ints."""
    from ray.data.aggregate import Max, Min, Sum
    from migration_pair_ray.stages.join import range_join

    events = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["user_id", "ts", "event_type"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderdate",
                                      "o_totalprice"])
    right = orders.map_batches(
        lambda t: pa.table({"user_id": t.column("o_custkey"),
                            "ts": t.column("o_orderdate"),
                            "price": t.column("o_totalprice")}),
        batch_format="pyarrow")
    pairs = range_join(events, right, key="user_id", ts_col="ts",
                       lo_s=lo_s, hi_s=hi_s, how="inner")

    def partial(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t.column("ts_r"), pa.timestamp("us")),
                        pa.int64())
        t2 = pa.table({
            "event_type": t.column("event_type"),
            "rev": pc.cast(pc.round(t.column("price"), ndigits=0,
                                    round_mode="half_towards_infinity"),
                           pa.int64()),
            "ts_us": ts_us,
        })
        return (t2.group_by("event_type")
                .aggregate([("rev", "count"), ("rev", "sum"),
                            ("ts_us", "min"), ("ts_us", "max")])
                .rename_columns(["event_type", "n_pairs", "rev",
                                 "ts_min_us", "ts_max_us"]))

    return (pairs.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n_pairs", alias_name="n_pairs"),
                       Sum("rev", alias_name="rev"),
                       Min("ts_min_us", alias_name="ts_min_us"),
                       Max("ts_max_us", alias_name="ts_max_us"))
            .sort("event_type"))


def topn_orders_per_customer(sf_dir: str, n: int = 3):
    """Per-key top-N (stages/analytic.py): every customer's 3 priciest
    orders with a 0-based rank — the ``row_number() OVER (PARTITION BY
    ...)`` shape Ray Data lacks.  No global sort: each coarse key-bucket
    sorts only its own rows."""
    from migration_pair_ray.stages.analytic import grouped_top_n
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderkey",
                                      "o_totalprice"])
    out = grouped_top_n(orders, key_col="o_custkey", order_col="o_totalprice",
                        n=n, descending=True, tie_breakers=["o_orderkey"])
    return out.sort(["o_custkey", "rank"])


def orders_running_revenue(sf_dir: str):
    """Per-key cumulative window frame (stages/analytic.py): running
    revenue per customer in order-date order.  Revenue is pre-scaled to
    integer cents (np.rint) so the segmented prefix scan is exact and the
    SQL window-SUM oracle agrees bit-for-bit (float prefix sums are
    summation-order-sensitive; integers aren't)."""
    from migration_pair_ray.stages.analytic import running_aggregate
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderkey",
                                      "o_orderdate", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = np.rint(t.column("o_totalprice").to_numpy(zero_copy_only=False)
                        * 100).astype(np.int64)
        return (t.drop_columns(["o_totalprice"])
                .append_column("rev_cents", pa.array(cents)))

    out = running_aggregate(orders.map_batches(to_cents, batch_format="pyarrow"),
                            key_col="o_custkey", order_col="o_orderdate",
                            value_col="rev_cents",
                            tie_breakers=["o_orderkey"])
    return (out.select_columns(["o_custkey", "o_orderkey", "row_idx",
                                "running_sum"])
            .sort(["o_custkey", "row_idx"]))


def events_value_quantiles(sf_dir: str):
    """Distributed EXACT quantiles (stages/analytic.py): per-block value
    histograms (domain-bounded, not row-bounded) merged once; quantiles
    read off cumulative counts.  Matches DuckDB ``quantile_disc`` over
    floor-scaled cents."""
    from migration_pair_ray.stages.analytic import exact_quantiles
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return exact_quantiles(ds, "value",
                           qs=[0.05, 0.25, 0.5, 0.75, 0.9, 0.99], scale=100)


def events_type_pivot(sf_dir: str):
    """Long→wide pivot (stages/analytic.py): per-user event counts, one
    column per event type.  The shuffle carries wide per-batch partials
    (|keys| × |types| cells), never raw events."""
    from migration_pair_ray.stages.analytic import pivot_counts
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    out = pivot_counts(ds, key_col="user_id", pivot_col="event_type",
                       pivot_values=["click", "error", "purchase",
                                     "signup", "view"])
    return out.sort("user_id")


def lineitem_price_bands(sf_dir: str):
    """Broadcast range (non-equi) join (stages/analytic.py): each lineitem
    resolves its price band via one np.searchsorted per batch against a
    ray.put range table — no shuffle of the big side.  Output: per-band
    row count and revenue (whole units, oracle-portable)."""
    from migration_pair_ray.stages.analytic import range_join_broadcast
    bands = pa.table({
        "band": ["low", "mid", "high"],
        "lo": [0.0, 20_000.0, 50_000.0],
        "hi": [20_000.0, 50_000.0, 1e12],
    })
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_extendedprice"])
    joined = range_join_broadcast(ds, bands, value_col="l_extendedprice")

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({"band": t.column("band"),
                          "rev": t.column("l_extendedprice")})
                .group_by("band").aggregate([("rev", "sum"), ("rev", "count")])
                .rename_columns(["band", "revenue", "n"]))

    from ray.data.aggregate import Sum
    out = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby("band")
           .aggregate(Sum("revenue", alias_name="revenue"),
                      Sum("n", alias_name="n")))
    return out.sort("band").map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("revenue"), "revenue",
            pc.cast(pc.round(t.column("revenue"), ndigits=0,
                             round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


def events_csv_roundtrip(sf_dir: str):
    """CSV sink + source parity (reference S3/S4): export events to CSV,
    read it back, aggregate — equals the same aggregate from Parquet."""
    out_dir = str(_cache_dir(sf_dir, "events_csv"))
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    ds.write_csv(out_dir)
    back = rd.read_csv(out_dir)
    from ray.data.aggregate import Count, Sum
    out = (back.map_batches(
        lambda t: t.group_by("event_type").aggregate(
            [("value", "sum"), ("value", "count")]).rename_columns(
            ["event_type", "value_sum", "n"]), batch_format="pyarrow")
        .groupby("event_type").aggregate(Sum("value_sum", alias_name="value_sum"),
                                         Sum("n", alias_name="n")))
    return out.sort("event_type").map_batches(
        lambda t: t.set_column(t.schema.get_field_index("value_sum"), "value_sum",
                               pc.cast(pc.round(pc.multiply(t.column("value_sum"), 100.0),
                                                ndigits=0, round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


# --------------------------------------------------------------------------
# Text / documents
# --------------------------------------------------------------------------

def doc_token_stats(sf_dir: str):
    from migration_pair_ray.functions.text import add_token_count
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "n_chars"])
    withtok = ds.map_batches(add_token_count, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"lang": t.column("lang"),
                       "n_tokens": pc.cast(t.column("n_tokens"), pa.int64()),
                       "n_chars": t.column("n_chars")})
        return t2.group_by("lang").aggregate(
            [("n_tokens", "sum"), ("n_chars", "sum"), ("n_chars", "count")]
        ).rename_columns(["lang", "sum_tokens", "sum_chars", "n_docs"])

    from ray.data.aggregate import Sum
    out = (withtok.map_batches(partial, batch_format="pyarrow")
           .groupby("lang").aggregate(Sum("sum_tokens", alias_name="sum_tokens"),
                                      Sum("sum_chars", alias_name="sum_chars"),
                                      Sum("n_docs", alias_name="n_docs")))
    return out.sort("lang")


def doc_token_stats_bpe(sf_dir: str):
    """BPE-ish regex tokenization (functions/text.py BPE_TOKEN_PATTERN —
    letter runs / digit runs / single punctuation-or-CJK runes) next to
    the whitespace count, rolled up per language."""
    from migration_pair_ray.functions.text import (
        add_bpe_token_count, add_token_count)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    ds = ds.map_batches(add_token_count, batch_format="pyarrow")
    ds = ds.map_batches(add_bpe_token_count, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"lang": t.column("lang"),
                       "n_tokens": pc.cast(t.column("n_tokens"), pa.int64()),
                       "n_bpe_tokens": t.column("n_bpe_tokens")})
        return (t2.group_by("lang")
                .aggregate([("n_tokens", "sum"), ("n_bpe_tokens", "sum"),
                            ("n_bpe_tokens", "count")])
                .rename_columns(["lang", "sum_ws_tokens", "sum_bpe_tokens",
                                 "n_docs"]))

    from ray.data.aggregate import Sum
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("sum_ws_tokens", alias_name="sum_ws_tokens"),
                      Sum("sum_bpe_tokens", alias_name="sum_bpe_tokens"),
                      Sum("n_docs", alias_name="n_docs")))
    return out.sort("lang")


def doc_fingerprints(sf_dir: str):
    from migration_pair_ray.functions.text import md5_fingerprint
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (ds.map_batches(md5_fingerprint, batch_format="pyarrow")
            .select_columns(["doc_id", "fp"]).sort("doc_id"))


def doc_fingerprints_rolling(sf_dir: str, k: int = 8):
    """Rolling-hash document fingerprint (winnowing-style anchor): the
    MINIMUM k-byte polynomial rolling hash over the doc — the
    shift-invariant fingerprint sketch (identical for any rotation/
    concatenation context containing the same minimal window), computed by
    the same vectorized `_batch_shingles` kernel the MinHash family uses.
    SQL-mirrorable because the polynomial rolling hash already has a
    bit-exact DuckDB form (see the simhash oracle)."""
    from migration_pair_ray.functions.hashing import _batch_shingles

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        h, starts = _batch_shingles(texts, k)
        if len(h):
            mins = np.minimum.reduceat(h, starts)
        else:
            mins = np.empty(0, np.uint64)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "rfp": pa.array(mins.astype(np.uint64), pa.uint64()),
        })

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fp, batch_format="pyarrow").sort("doc_id")


def doc_exact_dedup(sf_dir: str):
    from migration_pair_ray.stages.dedup import exact_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_dedup(ds).select_columns(["doc_id", "text"]).sort("doc_id")


def doc_langid(sf_dir: str):
    """Heuristic n-gram language ID (vectorized substring counts) —
    oracle-backed by a FROZEN SQL mirror of the scoring rule."""
    from migration_pair_ray.functions.text import lang_id
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    return (ds.map_batches(lang_id, batch_format="pyarrow")
            .select_columns(["doc_id", "lang", "lang_pred"]).sort("doc_id"))


def doc_near_dup_probe(sf_dir: str):
    """Incremental NEAR-dup detection: the first half of the corpus is a
    persisted MinHash-LSH index (band buckets + signature buckets —
    stages/dedup.build_minhash_index); the second half arrives as a new
    batch and probes ONLY the band buckets its own hashes land in,
    verifying candidates against the bucket-read index signatures.
    Returns the (index_doc, new_doc) near-dup pairs.  Oracle: exact
    5-gram-Jaccard pairs across the same cut (safe: the corpus's pair
    similarities are bimodal around the threshold, and at est ≥ 0.8 with
    64 perms / 16 bands the banding recall is pigeonhole-exact)."""
    from migration_pair_ray.stages.dedup import (build_minhash_index,
                                                 minhash_probe_incremental)
    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    half = n // 2

    def select(lo: int | None, hi: int | None):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id")
            m = pc.greater_equal(ids, lo) if lo is not None else \
                pc.less(ids, hi)
            return t.filter(m)
        return (rd.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])
                .map_batches(f, batch_format="pyarrow"))

    idx_dir = str(_build_once(
        _cache_dir(sf_dir, "mh_idx"), {"half": half},
        lambda d: build_minhash_index(select(None, half), str(d))))
    pairs = minhash_probe_incremental(select(half, None), idx_dir,
                                      threshold=0.8)
    return pairs.select(["a", "b"])


def doc_bigram_typicality(sf_dir: str):
    """Corpus-typicality (n-gram-LM-style) score per document in exact
    integer arithmetic: familiarity = Σ corpus-count of each of the doc's
    byte bigrams (stages/curation.bigram_typicality) — the verifiable
    core of perplexity-based quality filtering."""
    from migration_pair_ray.stages.curation import bigram_typicality
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return bigram_typicality(ds).sort("doc_id")


def doc_dedup_incremental(sf_dir: str):
    """Continuous-ingestion dedup: the first half of the corpus is
    COMMITTED (persisted 128-bit fingerprint index, ~16 B/doc — the whole
    point: the corpus is never re-read or re-deduped per batch); the
    second half arrives as a new batch, probes ONLY its own index bucket,
    keeps the min-id row per unseen text, and commits its own prints as
    an append segment (idempotent by tag — re-running this query probes
    the pre-append state).  stages/dedup.exact_dedup_incremental."""
    from migration_pair_ray.stages.dedup import (build_fingerprint_index,
                                                 exact_dedup_incremental)
    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    half = n // 2

    def select(lo: int | None, hi: int | None):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id")
            m = pc.greater_equal(ids, lo) if lo is not None else \
                pc.less(ids, hi)
            return t.filter(m)
        return (rd.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])
                .map_batches(f, batch_format="pyarrow"))

    idx_dir = str(_build_once(
        _cache_dir(sf_dir, "fp_idx"), {"half": half},
        lambda d: build_fingerprint_index(select(None, half), str(d))))
    kept = exact_dedup_incremental(select(half, None), idx_dir, tag="b1")
    return kept.select_columns(["doc_id"]).sort("doc_id")


def doc_split_leakage(sf_dir: str, threshold: float = 0.8):
    """Split-leakage audit: near-duplicate document pairs (exact 5-gram
    Jaccard ≥ threshold via the verified pair stage,
    stages/dedup.ngram_jaccard_pairs) crossed with a deterministic
    md5-hash train/val/test assignment (80/10/10) — the full
    (split_lo, split_hi) → pair-count matrix.  Off-diagonal rows ARE the
    leaks: a near-dup of a test document sitting in train silently
    inflates eval.  The split is computed per pair endpoint directly from
    the doc id (pure function, no join); pair extraction reuses the
    standard LSH-recall / exact-precision skeleton."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.functions.sketch import md5_hash64
    from migration_pair_ray.stages.dedup import ngram_jaccard_pairs
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(ds, threshold=threshold)
    names = np.array(["train"] * 8 + ["val", "test"], dtype=object)

    def split_of(ids: np.ndarray) -> np.ndarray:
        return names[md5_hash64(ids.tolist()) % 10]

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"split_lo": pa.array([], pa.string()),
                             "split_hi": pa.array([], pa.string()),
                             "n_pairs": pa.array([], pa.int64())})
        sa = split_of(t.column("a").to_numpy(zero_copy_only=False))
        sb = split_of(t.column("b").to_numpy(zero_copy_only=False))
        lo, hi = np.minimum(sa, sb), np.maximum(sa, sb)
        return (pa.table({"split_lo": pa.array(lo.tolist(), pa.string()),
                          "split_hi": pa.array(hi.tolist(), pa.string()),
                          "n": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by(["split_lo", "split_hi"]).aggregate([("n", "sum")])
                .rename_columns(["split_lo", "split_hi", "n_pairs"]))

    return (pairs.map_batches(partial, batch_format="pyarrow")
            .groupby(["split_lo", "split_hi"])
            .aggregate(Sum("n_pairs", alias_name="n_pairs"))
            .sort(["split_lo", "split_hi"]))


def doc_dup_clusters(sf_dir: str, threshold: float = 0.8):
    """The cluster assignment itself — (doc_id, cluster-root) for every
    document belonging to a near-dup component — rather than the deduped
    survivors: the output shape curation pipelines need when they keep
    one-per-cluster BY QUALITY (not by id) or audit cluster sizes.
    Exact-Jaccard pairs (ngram_jaccard_pairs) → auto-routed connected
    components; cluster label = component's min doc id."""
    from migration_pair_ray.stages.dedup import (connected_components,
                                                 ngram_jaccard_pairs)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(ds, threshold=threshold)
    return (connected_components(pairs)
            .sort(["doc_id"]))


def doc_dedup_by_quality(sf_dir: str, threshold: float = 0.8):
    """Quality-ranked near-dedup: each cluster keeps its HIGHEST-scoring
    member (the integer-weight model score from doc_model_gate; tie →
    min doc_id) instead of the min-id convention — what production
    curation actually wants: when near-dups exist, keep the best copy.
    Cluster labels and member scores are bounded by the near-dup member
    count (the drop_cluster_losers stance), so the winner argmax runs on
    the driver; the corpus itself is touched only by streaming filters."""
    import ray
    from migration_pair_ray.functions.text import quality_features
    from migration_pair_ray.stages.dedup import (connected_components,
                                                 ngram_jaccard_pairs)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    clusters = connected_components(ngram_jaccard_pairs(ds, threshold))
    memb = {r["doc_id"]: r["cluster"] for r in clusters.take_all()}
    mref = ray.put(np.sort(np.fromiter(memb, np.int64, len(memb))))

    def member_scores(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        sub = t.filter(pa.array(np.isin(ids, ray.get(mref))))
        f = quality_features(sub)
        score = (-f.column("n_chars_m").to_numpy(zero_copy_only=False)
                 + 6 * f.column("n_tokens").to_numpy(zero_copy_only=False)
                 + 10 * f.column("stop_hits").to_numpy(zero_copy_only=False)
                 - 30)
        return pa.table({"doc_id": sub.column("doc_id"),
                         "score": pa.array(score.astype(np.int64))})

    best: dict[int, tuple[tuple[int, int], int]] = {}
    for r in ds.map_batches(member_scores,
                            batch_format="pyarrow").take_all():
        c = memb[r["doc_id"]]
        key = (r["score"], -r["doc_id"])
        if c not in best or key > best[c][0]:
            best[c] = (key, r["doc_id"])
    winners = {d for _, d in best.values()}
    losers = np.sort(np.fromiter(set(memb) - winners, np.int64))
    lref = ray.put(losers)

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(~np.isin(ids, ray.get(lref))))

    return (ds.map_batches(keep, batch_format="pyarrow")
            .select_columns(["doc_id"]).sort("doc_id"))


def doc_near_dedup_minhash(sf_dir: str):
    """Rows-only check (probabilistic sketch)."""
    from migration_pair_ray.stages.dedup import minhash_lsh_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_lsh_dedup(ds, threshold=0.8).select_columns(["doc_id"]).sort("doc_id")


def doc_near_dedup_simhash(sf_dir: str):
    """Rows-only check (probabilistic sketch)."""
    from migration_pair_ray.stages.dedup import simhash_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_dedup(ds, max_hamming=3).select_columns(["doc_id"]).sort("doc_id")


# --------------------------------------------------------------------------
# Embeddings / multimodal
# --------------------------------------------------------------------------

def embed_topk_bruteforce(sf_dir: str):
    """Exact cosine top-10 of corpus vectors 0 and 1 against the corpus,
    rounded to 4 decimals (float-portable vs the SQL oracle)."""
    from migration_pair_ray.stages.similarity import brute_force_topk
    q = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 2)
    queries = np.array(q.column("embedding").to_pylist(), dtype=np.float32)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    t = brute_force_topk(ds, queries, k=10, round_to=4)
    return t


def _embeddings(sf_dir: str) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])


def embed_knn_ivf(sf_dir: str):
    """HARD-oracle check of the persisted IVF layout: the corpus is
    written bucket-partitioned once (cached per tree by ``_cache_dir``),
    then probed with ``n_probe = n_clusters`` — an exhaustive
    probe reads every bucket's files, so the result EQUALS the brute-force
    top-k and the SQL oracle checks the whole build→partition→probe→merge
    machinery exactly.  The approximate setting (n_probe < n_clusters,
    the real 10^10-row scale path: a query touches ~n_probe/n_clusters of
    the data) is covered by a recall assertion in tests/test_similarity.py."""
    from migration_pair_ray.stages.similarity import ivf_build, ivf_probe
    q = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 2)
    queries = np.array(q.column("embedding").to_pylist(), dtype=np.float32)
    index_dir = str(_build_once(
        _cache_dir(sf_dir, "ivf"), {"n_clusters": 16},
        lambda d: ivf_build(_embeddings(sf_dir), str(d), n_clusters=16)))
    return ivf_probe(index_dir, queries, k=10, n_probe=16, round_to=4)


def embed_knn_hnsw(sf_dir: str):
    """HARD-oracle check of the bucketed-HNSW layout (the recall-
    sensitive ANN option, Malkov & Yashunin 2016): the corpus is
    partitioned into per-centroid graph files once, probed with every
    bucket and a beam at least as wide as any bucket — the search()
    full-width shortcut makes that PROVABLY equal to the brute-force
    top-k, so the SQL oracle checks the whole build→graph→probe→merge
    machinery exactly.  The approximate regime (narrow beam / partial
    probe — the 10^10-row scale path) is recall-tested in
    tests/test_similarity.py, same split of duties as embed_knn_ivf."""
    from migration_pair_ray.stages.similarity import hnsw_build, hnsw_probe
    q = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 2)
    queries = np.array(q.column("embedding").to_pylist(), dtype=np.float32)
    index_dir = str(_build_once(
        _cache_dir(sf_dir, "hnsw"), {"n_clusters": 8},
        lambda d: hnsw_build(_embeddings(sf_dir), str(d), n_clusters=8)))
    return hnsw_probe(index_dir, queries, k=10, n_probe=8,
                      ef_search=1 << 20, round_to=4)


def media_byte_stats_q(sf_dir: str):
    from migration_pair_ray.stages.multimodal import fake_payload_from_text, media_byte_stats
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (ds.map_batches(fake_payload_from_text, batch_format="pyarrow")
            .map_batches(media_byte_stats, batch_format="pyarrow")
            .sort("media_id"))


def media_frame_stats(sf_dir: str):
    """sample_frames plumbing under the gate: each payload fans out to 4
    frame rows (flat-map shape); the stub sampler's byte accounting is
    exactly mirrorable in SQL (frames 0-2 are len//4 bytes, frame 3 the
    remainder slice), so the fan-out, ordering and slicing are
    value-checked, not just executed."""
    from migration_pair_ray.stages.multimodal import (
        fake_payload_from_text, sample_frames)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    media = ds.map_batches(fake_payload_from_text, batch_format="pyarrow")
    frames = media.map_batches(sample_frames, batch_format="pyarrow",
                               batch_size=128)
    out = frames.map_batches(
        lambda t: pa.table({
            "media_id": t.column("media_id"),
            "frame_idx": t.column("frame_idx"),
            "n_bytes": pc.cast(pc.binary_length(t.column("payload")), pa.int64()),
        }), batch_format="pyarrow")
    return out.sort(["media_id", "frame_idx"])


@_push_heavy
def join_orders_lineitem_priority(sf_dir: str):
    """Large-large partitioned hash join (stages/join.py): orders x
    lineitem on orderkey, revenue by order priority — both sides shuffle
    once into key-hash buckets, pandas merge inside each bucket."""
    from migration_pair_ray.stages.join import hash_join
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    items = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"])
    items = items.map_batches(
        lambda t: pa.table({
            "o_orderkey": t.column("l_orderkey"),
            "rev": pc.multiply(t.column("l_extendedprice"),
                               pc.subtract(pa.scalar(1.0), t.column("l_discount"))),
        }), batch_format="pyarrow")
    joined = hash_join(orders, items, on="o_orderkey", num_buckets=32)

    def partial(t: pa.Table) -> pa.Table:
        return (t.group_by("o_orderpriority")
                .aggregate([("rev", "sum"), ("rev", "count")])
                .rename_columns(["o_orderpriority", "revenue", "n_items"]))

    from ray.data.aggregate import Sum
    out = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby("o_orderpriority")
           .aggregate(Sum("revenue", alias_name="revenue"),
                      Sum("n_items", alias_name="n_items")))
    return out.sort("o_orderpriority").map_batches(
        lambda t: t.set_column(t.schema.get_field_index("revenue"), "revenue",
                               pc.cast(pc.round(t.column("revenue"), ndigits=0, round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


def events_hot_users(sf_dir: str):
    """Skew probe as a query: users holding > 1/130 of all events (the
    hot-key histogram of stages/partition.py, user_id standing in for
    conv_id), computed from per-batch partial counts — raw events never
    shuffle."""
    from ray.data.aggregate import Sum
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        return (t.group_by("user_id").aggregate([("user_id", "count")])
                .rename_columns(["user_id", "cnt"]))

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("user_id").aggregate(Sum("cnt", alias_name="cnt"))
            ).materialize()  # tiny: one row per distinct user
    # threshold filter runs DISTRIBUTED, so the driver only ever receives
    # the hot keys — at 10^9 distinct users a take_all() of the full
    # histogram would be the bottleneck
    total = int(hist.sum("cnt"))
    hot = hist.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(pc.cast(t.column("cnt"), pa.float64()), 130.0),
            float(total))),
        batch_format="pyarrow")
    t = pa.Table.from_pylist(hot.take_all(),
                             schema=pa.schema([pa.field("user_id", pa.int64()),
                                               pa.field("cnt", pa.int64())]))
    return t.sort_by([("cnt", "descending"), ("user_id", "ascending")])


def doc_quality(sf_dir: str):
    """Quality features with exact integer outputs (no float division in
    the comparison surface): chars, chars-without-spaces, tokens — the
    mean-token-length is the exact ratio chars_nospace/n_tokens."""
    from migration_pair_ray.functions.text import quality_features
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(lambda t: quality_features(t), batch_format="pyarrow")

    def project(t: pa.Table) -> pa.Table:
        spaces = pc.cast(pc.count_substring(
            pc.fill_null(t.column("text"), ""), " "), pa.int64())
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_chars_m": t.column("n_chars_m"),
            "chars_nospace": pc.subtract(t.column("n_chars_m"), spaces),
            "n_tokens": t.column("n_tokens"),
            "stop_hits": t.column("stop_hits"),
        })

    return out.map_batches(project, batch_format="pyarrow").sort("doc_id")


def events_value_stats(sf_dir: str):
    """Mean/“Std”-family aggregate coverage: per event_type count, total
    and average value in integer cents."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        return (t.group_by("event_type").aggregate(
            [("value", "sum"), ("value", "count")])
            .rename_columns(["event_type", "vsum", "n"]))

    from ray.data.aggregate import Sum
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type").aggregate(Sum("vsum", alias_name="vsum"),
                                            Sum("n", alias_name="n")))

    def finalize(t: pa.Table) -> pa.Table:
        avg = pc.divide(t.column("vsum"), pc.cast(t.column("n"), pa.float64()))
        return pa.table({
            "event_type": t.column("event_type"),
            "n": t.column("n"),
            "value_sum_cents": pc.cast(pc.round(pc.multiply(t.column("vsum"), 100.0),
                                                ndigits=0, round_mode="half_towards_infinity"), pa.int64()),
            "avg_value_cents": pc.cast(pc.round(pc.multiply(avg, 100.0),
                                                ndigits=0, round_mode="half_towards_infinity"), pa.int64()),
        })

    return out.sort("event_type").map_batches(finalize, batch_format="pyarrow")


def media_features(sf_dir: str):
    """The multimodal feature extraction pipeline (stubbed
    deterministic decode) — text → binary payload → per-payload feature
    vector; small batch_size per the large-binary discipline.  HARD
    oracle: the stub decode is sha256-derived, which DuckDB can mirror
    bit-exactly (sha256() + hex-digit arithmetic), so the digest below is
    value-checked, not rows-only."""
    from migration_pair_ray.stages.multimodal import (
        extract_features, fake_payload_from_text)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    media = ds.map_batches(fake_payload_from_text, batch_format="pyarrow")
    feats = media.map_batches(extract_features, batch_format="pyarrow",
                              batch_size=128)

    def digest(t: pa.Table) -> pa.Table:
        # scalar digest of the feature vector (list columns don't survive
        # every downstream hasher): sum of floor(f * 1000) per feature.
        # Exact-portable: each f is an exact float32 (word/2^32), f*1000
        # is one correctly-rounded float64 multiply on both sides, and a
        # floor boundary can only be hit when the product is exactly
        # integral — which float64 then represents exactly on both sides.
        import numpy as np
        f = np.array(t.column("features").to_pylist(), dtype=np.float64)
        d = (np.floor(f * 1000.0).sum(axis=1).astype(np.int64)
             if len(f) else np.array([], np.int64))
        return pa.table({"media_id": t.column("media_id"),
                         "media_type": t.column("media_type"),
                         "n_bytes": t.column("n_bytes"),
                         "feature_digest": pa.array(d)})

    return feats.map_batches(digest, batch_format="pyarrow").sort("media_id")


def embed_near_dedup(sf_dir: str):
    """Cosine near-dup removal, oracle-checked against exact pairwise
    ``list_cosine_similarity``.  The natural corpus has NO pairs at
    cosine ≥ 0.995 (max off-diagonal ~0.51), so exact duplicates are
    PLANTED deterministically (vec_id+100000 for every vec_id % 10 == 0,
    mirrored in the SQL) — the check therefore exercises real LSH recall
    (50 planted dups must be caught) and precision (no natural pair may
    cross the threshold)."""
    from migration_pair_ray.stages.similarity import embedding_dedup
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        dup = t.filter(pa.array(ids % 10 == 0))
        dup = dup.set_column(
            dup.schema.get_field_index("vec_id"), "vec_id",
            pc.add(dup.column("vec_id"), pa.scalar(100000, pa.int64())))
        return pa.concat_tables([t, dup])

    planted = ds.map_batches(plant, batch_format="pyarrow")
    return (embedding_dedup(planted, threshold=0.995)
            .select_columns(["vec_id"]).sort("vec_id"))


def doc_near_dedup_ngram(sf_dir: str):
    """Near-dedup where the merge decision is the EXACT 5-gram Jaccard
    (MinHash-LSH only supplies candidates) — SQL-expressible, so this one
    is a hard oracle row unlike the probabilistic minhash/simhash sketches.
    The corpus's pair-similarity distribution is bimodal (nothing between
    0.36 and 0.92), so threshold 0.8 has a wide safety margin on both
    sides of every real pair."""
    from migration_pair_ray.stages.dedup import ngram_jaccard_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (ngram_jaccard_dedup(ds, threshold=0.8, n=5)
            .select_columns(["doc_id"]).sort("doc_id"))


def checkpoint_parquet(ds: "rd.Dataset", ckpt_dir: str) -> "rd.Dataset":
    """Spill an intermediate Dataset to a Parquet checkpoint and stream it
    back — the 100-TB alternative to ``materialize()`` for pipelines that
    consume an intermediate more than once: the object store never pins
    the full set (blocks spill to Parquet and re-enter as a fresh scan),
    and a crashed downstream can resume from the checkpoint files."""
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    os.makedirs(ckpt_dir, exist_ok=True)
    ds.write_parquet(ckpt_dir)
    return rd.read_parquet(ckpt_dir)


def doc_pack_bins(sf_dir: str, budget: int = 2048):
    """Sequence packing (stages/packing.py): global token-offset prefix
    scan over doc_id order, docs assigned to the 2048-token pack their
    first token lands in; per-pack rollup.  The distributed two-pass scan
    is the operator under test — the SQL oracle is a window cumsum."""
    from migration_pair_ray.functions.text import add_token_count
    from migration_pair_ray.stages.packing import pack_bins
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ds.map_batches(add_token_count, batch_format="pyarrow")
    packed = pack_bins(ds, budget=budget)

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"bin": t.column("bin"),
                       "n_tokens": pc.cast(t.column("n_tokens"), pa.int64()),
                       "doc_id": t.column("doc_id")})
        return (t2.group_by("bin")
                .aggregate([("n_tokens", "sum"), ("n_tokens", "count"),
                            ("doc_id", "min")])
                .rename_columns(["bin", "sum_tokens", "n_docs", "first_doc"]))

    from ray.data.aggregate import Min, Sum
    out = (packed.map_batches(partial, batch_format="pyarrow")
           .groupby("bin")
           .aggregate(Sum("sum_tokens", alias_name="sum_tokens"),
                      Sum("n_docs", alias_name="n_docs"),
                      Min("first_doc", alias_name="first_doc")))
    return out.sort("bin")


def corpus_curation(sf_dir: str, checkpoint: str = "disk"):
    """Training-corpus curation as ONE composed streaming pipeline —
    language-ID → quality gate (n_tokens ≥ 25) → exact
    dedup → MinHash-LSH near-dedup → per-language corpus stats.  Every
    stage is the library operator; nothing is re-implemented for the
    query, so the oracle checks the operators *composed*, not just in
    isolation."""
    from migration_pair_ray.functions.text import add_token_count, lang_id
    from migration_pair_ray.stages.dedup import exact_dedup, minhash_lsh_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ds.map_batches(lang_id, batch_format="pyarrow")
    ds = ds.map_batches(add_token_count, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n_tokens"), 25)),
        batch_format="pyarrow")
    # the near-dedup consumes its input more than once (band pass +
    # signature pass + final keep-filter); checkpoint the curated set once
    # so the upstream langid/filter/exact-dedup stages don't re-execute.
    # checkpoint="disk" (default) streams through a Parquet checkpoint —
    # no full-dataset object-store pin; "memory" is the materialize()
    # variant for small corpora.
    ds = exact_dedup(ds)
    if checkpoint == "disk":
        ds = checkpoint_parquet(ds, str(_cache_dir(sf_dir, "curation")))
    else:
        ds = ds.materialize()
    ds = minhash_lsh_dedup(ds, threshold=0.8)

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"lang_pred": t.column("lang_pred"),
                       "n_tokens": pc.cast(t.column("n_tokens"), pa.int64())})
        return (t2.group_by("lang_pred")
                .aggregate([("n_tokens", "sum"), ("n_tokens", "count")])
                .rename_columns(["lang_pred", "sum_tokens", "n_docs"]))

    from ray.data.aggregate import Sum
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("lang_pred")
           .aggregate(Sum("sum_tokens", alias_name="sum_tokens"),
                      Sum("n_docs", alias_name="n_docs")))
    return out.sort("lang_pred")


def events_sliding_windows(sf_dir: str):
    """1h windows sliding by 30min over event time (stages/windows.py):
    with length = 2*step every event lands in exactly two windows, which
    the SQL oracle mirrors as a union of two shifted tumbling groupbys."""
    from migration_pair_ray.stages.windows import sliding_window
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    out = sliding_window(ds, "ts", "value", length_s=3600, step_s=1800)
    return out.map_batches(
        lambda t: t.set_column(t.schema.get_field_index("value_sum"), "value_sum",
                               pc.cast(pc.round(pc.multiply(t.column("value_sum"), 100.0),
                                                ndigits=0, round_mode="half_towards_infinity"), pa.int64())),
        batch_format="pyarrow")


def events_sample_hash(sf_dir: str, rate_pct: int = 5):
    """Deterministic ~5% Bernoulli sample (stages/sampling.py) in the
    SQL-mirrorable md5 mode, aggregated per event type — same rows picked
    on every run / cluster shape, pure per-block filter (no shuffle, no
    RNG state)."""
    from migration_pair_ray.functions.sketch import md5_hash64
    from migration_pair_ray.stages.sampling import hash_sample
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    s = hash_sample(ds, "event_id", rate_pct, hash64=md5_hash64)

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({"event_type": t.column("event_type"),
                          "value": t.column("value")})
                .group_by("event_type")
                .aggregate([("value", "sum"), ("value", "count")])
                .rename_columns(["event_type", "value_sum", "n"]))

    from ray.data.aggregate import Sum
    out = (s.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("value_sum", alias_name="value_sum"),
                      Sum("n", alias_name="n")))
    return out.sort("event_type").map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("value_sum"), "value_sum",
            pc.cast(pc.round(pc.multiply(t.column("value_sum"), 100.0),
                             ndigits=0, round_mode="half_towards_infinity"),
                    pa.int64())),
        batch_format="pyarrow")


def events_stratified_sample(sf_dir: str, n: int = 20):
    """Per-stratum quota sample (stages/sampling.py): the 20
    smallest-md5-hash events of every event type, with rank — the
    deterministic "random n per group" every curation pipeline needs
    (per-language caps, per-source caps).  Per-block combiner keeps the
    exchange at ≤ n·|strata| rows per block."""
    from migration_pair_ray.functions.sketch import md5_hash64
    from migration_pair_ray.stages.sampling import stratified_sample
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type"])
    out = stratified_sample(ds, "event_type", "event_id", n,
                            hash64=md5_hash64)
    return out.sort(["event_type", "rank"])


_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"


def events_redact_pii(sf_dir: str):
    """PII redaction (functions/text.redact_patterns): scrub emails then
    digit runs from a synthetic contact line built from real event columns
    (``'u'||user_id||'@example.com '||props`` — the fixture tables carry
    no raw PII, so the line is constructed identically on both sides to
    make the scrub actually fire).  Pure per-block map, RE2 on both
    engines — bit-exact vs nested ``regexp_replace``."""
    from migration_pair_ray.functions.text import redact_patterns
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "props"])

    def scrub(t: pa.Table) -> pa.Table:
        line = pc.binary_join_element_wise(
            "u", pc.cast(t.column("user_id"), pa.string()),
            "@example.com ", t.column("props"), "")
        red, (n_email, n_num) = redact_patterns(
            line, [(_EMAIL_RE, "<EMAIL>"), (r"[0-9]+", "<NUM>")])
        return pa.table({"event_id": t.column("event_id"),
                         "redacted": red,
                         "n_email": n_email, "n_num": n_num})

    return ds.map_batches(scrub, batch_format="pyarrow").sort("event_id")


def events_props_extract(sf_dir: str):
    """Semi-structured field extraction: pull the integer ``k`` out of the
    JSON-ish ``props`` blob (functions/text.extract_int_field, vectorized
    RE2 ``extract_regex``) and aggregate per event type — the
    parse-a-payload-column step every event pipeline has.  Per-block
    partial aggregate before the small groupby shuffle."""
    from migration_pair_ray.functions.text import extract_int_field
    from ray.data.aggregate import Max, Min, Sum
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        k = extract_int_field(t.column("props"), r'"k": ([0-9]+)')
        g = (pa.table({"event_type": t.column("event_type"), "k": k})
             .group_by("event_type")
             .aggregate([("k", "count"), ("k", "sum"),
                         ("k", "min"), ("k", "max")]))
        return g.rename_columns(["event_type", "n", "k_sum",
                                 "k_min", "k_max"])

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("k_sum", alias_name="k_sum"),
                      Min("k_min", alias_name="k_min"),
                      Max("k_max", alias_name="k_max")))
    return out.sort("event_type")


def events_approx_distinct(sf_dir: str):
    """HyperLogLog approximate distinct event_ids (functions/sketch.py)
    in the SQL-portable configuration (md5 hash + exact-integer register
    sum + floor), so DuckDB reproduces the ESTIMATE bit-for-bit — a hard
    oracle for a probabilistic sketch.  Scale shape: per-block 1 KiB
    register partials, one max-merge; no distinct-value exchange (the
    exact alternative shuffles every unique value through a groupby)."""
    from migration_pair_ray.functions.sketch import approx_distinct_portable
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    est, n_rows = approx_distinct_portable(ds, "event_id", p=10)
    return pa.table({"approx_distinct": pa.array([est], pa.int64()),
                     "n_rows": pa.array([n_rows], pa.int64())})


# --------------------------------------------------------------------------
# corpus curation II: decontamination, chunking, vocabulary, normalization
# --------------------------------------------------------------------------

def doc_decontaminate(sf_dir: str, n: int = 8, bench_mod: int = 97):
    """Benchmark decontamination (stages/curation.py): docs whose
    ``doc_id % bench_mod == 0`` act as the held-out eval set; every other
    doc is scored by how many of its distinct word 8-grams appear in that
    set (n_hit > 0 ⇒ contaminated, the standard pretraining-data hygiene
    gate).  Broadcast semi-join: eval grams ride the object store once,
    the corpus streams; hash prefilter + exact string verify of the few
    candidates makes the result collision-proof (bit-exact vs SQL)."""
    from migration_pair_ray.stages.curation import decontaminate
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def split(t: pa.Table, want_bench: bool) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        mask = (ids % bench_mod == 0) == want_bench
        return t.filter(pa.array(mask))

    bench = ds.map_batches(lambda t: split(t, True), batch_format="pyarrow")
    corpus = ds.map_batches(lambda t: split(t, False), batch_format="pyarrow")
    return decontaminate(corpus, bench, n=n).sort("doc_id")


def doc_chunk_windows(sf_dir: str, size: int = 32, stride: int = 24):
    """Training-window chunker (stages/curation.py chunk_batch): each doc's
    token list → overlapping windows of `size` tokens advancing by
    `stride` — the context-window prep step before packing/tokenization.
    A pure vectorized flat-map (gather + binary_join), no shuffle; output
    rows ≈ input tokens / stride."""
    from migration_pair_ray.stages.curation import chunk_windows
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return chunk_windows(ds, size=size, stride=stride).sort(
        ["doc_id", "chunk_idx"])


def doc_term_freq(sf_dir: str, k: int = 50):
    """Corpus vocabulary top-k (stages/curation.py term_counts/top_terms):
    the canonical distributed word count — per-block tokenize + local
    grouped count (combiner), grouped sum, local top-k per block + tiny
    driver merge.  Ties broken lexicographically for determinism."""
    from migration_pair_ray.stages.curation import top_terms
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_terms(ds, k=k)


def doc_normalize(sf_dir: str):
    """Text canonicalization: NFC unicode normalize → lowercase → collapse
    whitespace runs → trim (functions/text kernels are all RE2/utf8 Arrow
    kernels, so DuckDB's nfc_normalize/lower/regexp_replace/trim chain is
    bit-exact).  Pure per-block map — the cheap first stage of every
    curation pipeline."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        x = pc.utf8_normalize(t.column("text"), form="NFC")
        x = pc.utf8_lower(x)
        x = pc.replace_substring_regex(x, r"\s+", " ")
        x = pc.utf8_trim(x, " ")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "norm_text": x,
            "n_chars_norm": pc.cast(pc.utf8_length(x), pa.int64()),
            "changed": pc.not_equal(x, t.column("text"))})

    return ds.map_batches(norm, batch_format="pyarrow").sort("doc_id")


def embed_label_centroids(sf_dir: str, dim: int = 64):
    """Per-label embedding centroids in long form (label, dim, mean_val) —
    the vector aggregation every embedding pipeline needs (cluster
    centers, class prototypes).  Per-block partial sums via one reshape +
    np.add.at scatter (no per-row loop), exploded to (label, dim) rows
    BEFORE the shuffle so the exchange carries tiny partials (labels ×
    dim × blocks rows), then a grouped sum and one final divide."""
    from ray.data.aggregate import Sum
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        col = t.column("embedding").combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        mat = flat.reshape(-1, dim)
        labels = t.column("label").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, inv, mat)
        cnts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq.astype(np.int64), dim)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq))),
            "s": pa.array(sums.ravel(), pa.float64()),
            "c": pa.array(np.repeat(cnts, dim), pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["label", "dim"])
           .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c")))

    def finish(t: pa.Table) -> pa.Table:
        mean = np.round(t.column("s").to_numpy(zero_copy_only=False)
                        / t.column("c").to_numpy(zero_copy_only=False), 6)
        return pa.table({"label": t.column("label"),
                         "dim": t.column("dim"),
                         "mean_val": pa.array(mean, pa.float64())})

    return (agg.map_batches(finish, batch_format="pyarrow")
            .sort(["label", "dim"]))


def doc_quality_gate(sf_dir: str, q: float = 0.25):
    """Percentile quality gate — the composed filter every curation
    pipeline runs: score docs (functions/text.quality_features), find the
    exact q-quantile of the score corpus-wide (stages/analytic
    exact_quantiles: per-block histograms, exchange = value domain), then
    keep docs at/above it and aggregate per language.  Scores are scaled
    to integers (floor(score*1e6), bit-portable — both engines do the
    identical IEEE double arithmetic) so the gate membership test is an
    INTEGER compare with no float-boundary flakiness.  The scored pass
    runs twice (quantile, then gate) — recomputation over streaming
    blocks, not a driver pin; at 100 TB the scored set would be a Parquet
    checkpoint (see checkpoint_parquet)."""
    from ray.data.aggregate import Min, Sum
    from migration_pair_ray.functions.text import quality_features
    from migration_pair_ray.stages.analytic import exact_quantiles
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "text"])

    def score(t: pa.Table) -> pa.Table:
        f = quality_features(t)
        cs = np.floor(
            f.column("quality_score").to_numpy(zero_copy_only=False)
            * 1_000_000).astype(np.int64)
        return pa.table({"lang": t.column("lang"), "cs": pa.array(cs)})

    scored = ds.map_batches(score, batch_format="pyarrow")
    th = int(exact_quantiles(scored, "cs", [q], scale=1)
             .column("value")[0].as_py())

    def gate_partial(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.greater_equal(t.column("cs"), th))
        g = (kept.group_by("lang")
             .aggregate([("cs", "count"), ("cs", "sum"), ("cs", "min")]))
        return g.rename_columns(["lang", "n_kept", "sum_cs", "min_cs"])

    out = (scored.map_batches(gate_partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("n_kept", alias_name="n_kept"),
                      Sum("sum_cs", alias_name="sum_cs"),
                      Min("min_cs", alias_name="min_cs")))

    def add_thresh(t: pa.Table) -> pa.Table:
        return t.append_column(
            "thresh_cs", pa.array(np.full(t.num_rows, th), pa.int64()))

    return out.map_batches(add_thresh, batch_format="pyarrow").sort("lang")


def training_prep(sf_dir: str, n: int = 8, bench_mod: int = 97,
                  size: int = 32, stride: int = 24, budget: int = 512):
    """End-to-end training-set preparation — the new curation operators
    COMPOSED: canonicalize text → benchmark-decontaminate (drop any doc
    sharing a word-8-gram with the eval split) → cut into overlapping
    32-token windows → pack windows into 512-token training bins
    (stages/packing.py distributed prefix scan) → per-bin stats.  Every
    stage is the operator the standalone query checks; the oracle checks
    them chained.  A scalar pack order key (doc_id*10000 + chunk_idx)
    keeps the prefix scan's block-disjointness contract."""
    from ray.data.aggregate import Min, Sum
    from migration_pair_ray.stages.curation import chunk_windows, decontaminate
    from migration_pair_ray.stages.packing import pack_bins
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        x = pc.utf8_normalize(t.column("text"), form="NFC")
        x = pc.utf8_lower(x)
        x = pc.replace_substring_regex(x, r"\s+", " ")
        return pa.table({"doc_id": t.column("doc_id"),
                         "text": pc.utf8_trim(x, " ")})

    ds = ds.map_batches(norm, batch_format="pyarrow")

    def split(t: pa.Table, want_bench: bool) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array((ids % bench_mod == 0) == want_bench))

    bench = ds.map_batches(lambda t: split(t, True), batch_format="pyarrow")
    corpus = ds.map_batches(lambda t: split(t, False), batch_format="pyarrow")
    flagged = decontaminate(corpus, bench, n=n, passthrough=True)
    clean = flagged.map_batches(
        lambda t: t.filter(pc.equal(t.column("n_hit"), 0))
        .select(["doc_id", "text"]), batch_format="pyarrow")

    chunks = chunk_windows(clean, size=size, stride=stride)

    def ordify(t: pa.Table) -> pa.Table:
        o = (t.column("doc_id").to_numpy(zero_copy_only=False) * 10_000
             + t.column("chunk_idx").to_numpy(zero_copy_only=False))
        return pa.table({"ord": pa.array(o, pa.int64()),
                         "n_tokens": t.column("n_tokens")})

    packed = pack_bins(chunks.map_batches(ordify, batch_format="pyarrow"),
                       budget=budget, count_col="n_tokens", order_col="ord")

    def per_bin(t: pa.Table) -> pa.Table:
        g = (t.group_by("bin")
             .aggregate([("ord", "count"), ("n_tokens", "sum"),
                         ("ord", "min")]))
        return g.rename_columns(["bin", "n_chunks", "sum_tokens", "first_ord"])

    return (packed.map_batches(per_bin, batch_format="pyarrow")
            .groupby("bin")
            .aggregate(Sum("n_chunks", alias_name="n_chunks"),
                       Sum("sum_tokens", alias_name="sum_tokens"),
                       Min("first_ord", alias_name="first_ord"))
            .sort("bin"))


def doc_repetition(sf_dir: str, n: int = 2):
    """Repetition quality signals (the Gopher/MassiveText rules): per
    document, word count, distinct-word count, word-n-gram count,
    duplicate-gram instance count, and the hottest gram's count — the
    integer numerators/denominators of "duplicate 2-gram fraction" and
    "top 2-gram fraction".  Exact string-identity grams (no hashes in the
    dup decision), pure per-batch map, no shuffle."""
    from migration_pair_ray.stages.curation import repetition_stats
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return repetition_stats(ds, n=n).sort("doc_id")


def events_type_quantiles(sf_dir: str):
    """Per-key exact quantiles (stages/analytic.grouped_quantiles):
    median/p25/p90 of ``value`` per event type — ``quantile_disc``
    GROUP BY in one coarse shuffle of domain-bounded histogram
    partials."""
    from migration_pair_ray.stages.analytic import grouped_quantiles
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return (grouped_quantiles(ds, "event_type", "value",
                              qs=[0.25, 0.5, 0.9], scale=100)
            .sort(["event_type", "q"]))


def doc_shuffle_shards(sf_dir: str, n_shards: int = 8):
    """Deterministic training-order shuffle (stages/sampling.py
    shuffle_assign): md5-rank every document, deal round-robin into
    shards.  One hash sort + a block prefix scan; reproducible across
    runs and cluster shapes, bit-mirrored by the SQL row_number."""
    from migration_pair_ray.functions.sketch import md5_hash64
    from migration_pair_ray.stages.sampling import shuffle_assign
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])
    return (shuffle_assign(ds, "doc_id", n_shards, hash64=md5_hash64)
            .sort("doc_id"))


def doc_tfidf_top(sf_dir: str):
    """Per-document top tf-idf term (stages/curation.tfidf_top_term):
    distributed document-frequency combiner, term runs hash-joined with
    the df table, per-doc argmax in coarse doc-hash groups; int-scaled
    scores make the ranking bit-portable."""
    from migration_pair_ray.stages.curation import tfidf_top_term
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    n_docs = ds.count()
    return tfidf_top_term(ds, n_docs).sort("doc_id")


def _feed_lake(sf_dir: str) -> JobConfig:
    """The changefeed's checkpoint state: files 0-1 of the derived log."""
    return _derived_lake(sf_dir, "feed", ((0, 2),))


@_push_heavy
def cdc_changefeed(sf_dir: str):
    """Changefeed emission — the downstream-consumer surface of a CDC
    engine: the NET per-key effect (insert / update / delete with
    before/after text) of advancing the lake from a checkpoint state
    (files 0-1 of the derived log) to the current state (the full log).
    Both states come from REAL replay passes into lakes of the same
    layout, so the diff runs as ``feed.diff_lakes`` — one LOCAL outer
    join per partition, **zero exchange** (nothing moves but the changed
    rows).  Keys whose winner is unchanged emit nothing."""
    from migration_pair_ray.pipelines.feed import diff_lakes
    return (diff_lakes(_feed_lake(sf_dir), _events_lake(sf_dir))
            .map_batches(lambda t: t.select(
                ["conv_id", "turn_idx", "change",
                 "before_text", "after_text"]),
                batch_format="pyarrow")
            .sort(["conv_id", "turn_idx"]))


@_push_heavy
def join_urgent_lineitems(sf_dir: str):
    """Selective join with a bloom-prefiltered exchange
    (stages/join.hash_join bloom_from='left'): only ~20% of orders are
    1-URGENT, so the build side's bloom drops ~80% of lineitem rows
    BEFORE their shuffle — the classic probe-side exchange cut.  Result:
    per-returnflag lineitem count + floor-scaled revenue of urgent
    orders' items."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.join import hash_join
    orders = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderpriority"])
              .map_batches(lambda t: t.filter(
                  pc.equal(t.column("o_orderpriority"), "1-URGENT"))
                  .select(["o_orderkey"]), batch_format="pyarrow")
              .map_batches(lambda t: t.rename_columns(["l_orderkey"]),
                           batch_format="pyarrow"))
    items = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_returnflag",
                                     "l_extendedprice"])
    j = hash_join(orders, items, on="l_orderkey", how="inner",
                  bloom_from="left")

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100).astype(np.int64)
        t = pa.table({"l_returnflag": t.column("l_returnflag"),
                      "cents": pa.array(cents)})
        g = (t.group_by("l_returnflag")
             .aggregate([("cents", "count"), ("cents", "sum")]))
        return g.rename_columns(["l_returnflag", "n_items", "rev_cents"])

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("rev_cents", alias_name="rev_cents"))
            .sort("l_returnflag"))


@_push_heavy
def join_events_orders_salted(sf_dir: str):
    """Skew-defeating salted join (stages/join.salted_hash_join): events
    join each user's orders; hot users (auto-detected above 3% of event
    rows) are sprayed across 8 salt sub-keys so no join bucket owns a hot
    user, the build side replicating only those users' rows.  Result:
    per-event-type pair count + floor-scaled matched order value."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.join import salted_hash_join
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    orders = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey", "o_totalprice"])
              .map_batches(lambda t: pa.table({
                  "user_id": t.column("o_custkey"),
                  "cents": pa.array(np.floor(
                      t.column("o_totalprice").to_numpy(zero_copy_only=False)
                      * 100).astype(np.int64))}), batch_format="pyarrow"))
    j = salted_hash_join(ev, orders, on="user_id", how="inner",
                         salt=8, hot_frac=0.03)

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["event_type", "cents"]).group_by("event_type")
             .aggregate([("cents", "count"), ("cents", "sum")]))
        return g.rename_columns(["event_type", "n_pairs", "price_cents"])

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n_pairs", alias_name="n_pairs"),
                       Sum("price_cents", alias_name="price_cents"))
            .sort("event_type"))


def embed_knn_ivf_incremental(sf_dir: str):
    """Index MAINTENANCE under the hard oracle: the IVF layout is built
    from only the even vec_ids, the odd half arrives later via
    stages/similarity.ivf_append (saved-centroid assignment, atomic
    append segments) — and the exhaustive probe over the grown index must
    still EQUAL the brute-force top-k over the whole corpus.  The CDC
    story applied to ANN: the index absorbs new data without a rebuild
    and without approximation drift at full probe width."""
    from migration_pair_ray.stages.similarity import (ivf_append, ivf_build,
                                                      ivf_probe)
    q = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 2)
    queries = np.array(q.column("embedding").to_pylist(), dtype=np.float32)
    def half(t: pa.Table, even: bool) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array((ids % 2 == 0) == even))

    def build(d):
        ds = _embeddings(sf_dir)
        ivf_build(ds.map_batches(lambda t: half(t, True),
                                 batch_format="pyarrow"),
                  str(d), n_clusters=16)
        ivf_append(ds.map_batches(lambda t: half(t, False),
                                  batch_format="pyarrow"),
                   str(d), tag="odd-half")

    index_dir = str(_build_once(_cache_dir(sf_dir, "ivfinc"),
                                {"n_clusters": 16}, build))
    return ivf_probe(index_dir, queries, k=10, n_probe=16, round_to=4)


def events_type_approx_users(sf_dir: str):
    """Per-event-type approximate distinct users — the grouped HLL
    (functions/sketch.grouped_approx_distinct_portable): per-block
    register partials per group, one per-group max-merge, and the
    SQL-portable estimator makes even the probabilistic answer
    oracle-exact."""
    from migration_pair_ray.functions.sketch import (
        grouped_approx_distinct_portable)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    return (grouped_approx_distinct_portable(ds, "event_type", "user_id",
                                             p=10)
            .sort("event_type"))


def events_heavy_users(sf_dir: str):
    """Exact φ-heavy hitters (functions/sketch.heavy_hitters): user
    cohorts (user_id % 20) holding ≥ 5% of all events — two streaming
    passes (pigeonhole candidate superset, then an exact broadcast
    recount); the value domain never shuffles and the φ bar is an
    integer compare, so the frequent-items answer has a plain GROUP
    BY/HAVING oracle.  Cohorts sit ~5% each, so the 5% bar is
    discriminative at every scale factor."""
    from migration_pair_ray.functions.sketch import heavy_hitters
    ds = (rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
          .map_batches(lambda t: pa.table({
              "cohort": pa.array(
                  t.column("user_id").to_numpy(zero_copy_only=False) % 20,
                  pa.int64())}), batch_format="pyarrow"))
    return heavy_hitters(ds, "cohort", num=1, den=20).sort("cohort")


def events_late_data(sf_dir: str, delay_s: int = 86400):
    """Watermark late-data routing (SURVEY.md §2.9): classify each event
    as on-time or late against a moving watermark, then count both per
    hourly window — the side-output accounting a streaming ingest keeps.

    The events table is time-ordered by event_id, so a simulated arrival
    order models the interleave of 10 source shards, each shifted by a
    shard-proportional lag: ``arrival = (event_id + (props.k % 10) * 40)
    * 10^6 + event_id`` (unique, deterministic, SQL-mirrorable).  The
    watermark seen by a row is max(event time of earlier arrivals) -
    ``delay_s``; classification is the two-pass distributed prefix-max
    scan (stages/windows.watermark_lateness) — per-block partials +
    broadcast prefix, raw rows shuffle only for the arrival sort."""
    from migration_pair_ray.functions.text import extract_int_field
    from migration_pair_ray.stages.windows import watermark_lateness
    from ray.data.aggregate import Sum
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "props"])

    def add_arrival(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        k = extract_int_field(t.column("props"), r'"k": ([0-9]+)')
        k = k.to_numpy(zero_copy_only=False)
        arrival = (eid + (k % 10) * 40) * 1_000_000 + eid
        return pa.table({"arrival": pa.array(arrival, pa.int64()),
                         "ts": t.column("ts")})

    ds = ds.map_batches(add_arrival, batch_format="pyarrow").sort("arrival")
    ds = watermark_lateness(ds, "ts", "arrival", delay_s=delay_s)

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        late = pc.cast(t.column("late"), pa.int64())
        return (pa.table({"hour": hour, "n_late": late,
                          "one": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by("hour")
                .aggregate([("one", "sum"), ("n_late", "sum")])
                .rename_columns(["hour", "n_total", "n_late"]))

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("hour")
            .aggregate(Sum("n_total", alias_name="n_total"),
                       Sum("n_late", alias_name="n_late"))
            .sort("hour"))


@_push_heavy
def conv_context_windows(sf_dir: str, k: int = 8):
    """Context-window assembly: the last ``k`` surviving turns of every
    conversation rendered as a single ``role: text`` context block in
    ascending turn order — the prompt-construction step an agent/training
    pipeline runs per conversation.  Composition of two vectorized
    grouped kernels over the LWW-merged state: per-key top-k by turn_idx
    feeding the ordered concat — fused INSIDE each partition read task
    on conv-disjoint layouts (``_conv_local``: top_n_table →
    string_agg_table, zero exchange), or as the coarse-bucketed
    ``grouped_top_n`` → ``grouped_string_agg`` pipeline on salted
    layouts."""
    from migration_pair_ray.stages.analytic import (grouped_string_agg,
                                                    grouped_top_n,
                                                    string_agg_table,
                                                    top_n_table)
    cfg = _events_lake(sf_dir)

    def mkline(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(t.column("role")),
                       pc.is_valid(t.column("text")))
        t = t.filter(keep)
        line = pc.binary_join_element_wise(
            pc.cast(t.column("role"), pa.string()), t.column("text"), ": ")
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "line": line})

    def window_local(t: pa.Table) -> pa.Table:
        last_k = top_n_table(mkline(t), "conv_id", "turn_idx", n=k,
                             descending=True)
        return string_agg_table(last_k, "conv_id", ["turn_idx"], "line",
                                sep="\n", out_col="context")

    out = _conv_local(cfg, window_local)
    if out is None:
        st = final_state(cfg, sort=False,
                         columns=["conv_id", "turn_idx", "role", "text"])
        last_k = grouped_top_n(
            st.map_batches(mkline, batch_format="pyarrow"),
            "conv_id", "turn_idx", n=k, descending=True)
        out = grouped_string_agg(last_k, "conv_id", ["turn_idx"], "line",
                                 sep="\n", out_col="context")
    return out.rename_columns(
        ["conv_id", "context", "n_context"]).sort("conv_id")


@_push_heavy
def conv_tool_stats(sf_dir: str):
    """Per-conversation rollup over the merged state: turn count,
    tool-call count, distinct tools used, total text chars, last
    event time — the conversation-level metadata table a transcript
    curation pass filters on.  One shuffle into coarse conv-hash buckets,
    then exact Arrow group_by aggregates in-bucket (count_distinct needs
    all of a key's rows together, so partial+merge cannot express the
    distinct-tool count without a second exchange)."""
    from migration_pair_ray.stages.analytic import _with_bucket
    cfg = _events_lake(sf_dir)
    st = final_state(cfg, sort=False, columns=['conv_id', 'tool', 'text', 'ts'])

    def stats_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        chars = pc.cast(pc.utf8_length(
            pc.coalesce(g.column("text"), pa.scalar("", pa.string()))),
            pa.int64())
        t2 = pa.table({"conv_id": g.column("conv_id"),
                       "tool": g.column("tool"),
                       "chars": chars,
                       "ts": g.column("ts")})
        out = (t2.group_by("conv_id")
               .aggregate([("conv_id", "count"), ("tool", "count"),
                           ("tool", "count_distinct"), ("chars", "sum"),
                           ("ts", "max")]))
        return out.rename_columns(["conv_id", "n_turns", "n_tool_calls",
                                   "n_tools", "n_chars", "last_ts"])

    return (_with_bucket(st, "conv_id", 64)
            .groupby("__b").map_groups(stats_bucket, batch_format="pyarrow")
            .sort("conv_id"))


def agg_rollup_pricing(sf_dir: str):
    """ROLLUP grouping sets over (l_returnflag, l_linestatus): quantity
    sum + row count at the finest level, per-flag subtotals, and the
    grand total, with 'ALL' markers in rolled-up key columns.  Raw rows
    are scanned once (stages/analytic.rollup_aggregate derives every
    coarser level from the finest aggregate, never rescanning)."""
    from migration_pair_ray.stages.analytic import rollup_aggregate
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_linestatus",
                                  "l_quantity"])
    out = rollup_aggregate(ds, ["l_returnflag", "l_linestatus"],
                           "l_quantity")

    def finish(t: pa.Table) -> pa.Table:
        # whole-unit quantities: the double sum is exact below 2^53
        sq = pc.cast(pc.round(t.column("value_sum"), ndigits=0,
                              round_mode="half_towards_infinity"), pa.int64())
        return pa.table({"l_returnflag": t.column("l_returnflag"),
                         "l_linestatus": t.column("l_linestatus"),
                         "sum_qty": sq,
                         "count_order": t.column("n")})

    return (out.map_batches(finish, batch_format="pyarrow")
            .sort(["l_returnflag", "l_linestatus"]))


def doc_span_dedup(sf_dir: str, span_words: int = 16):
    """Paragraph-grain exact dedup over the documents corpus: 16-word
    spans deduplicated corpus-wide (first (doc_id, span_idx) occurrence
    wins), docs reassembled from surviving spans
    (stages/dedup.span_exact_dedup)."""
    from migration_pair_ray.stages.dedup import span_exact_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = span_exact_dedup(ds, "text", "doc_id", span_words=span_words)
    return out.rename_columns(
        ["doc_id", "text_dedup", "n_spans"]).sort("doc_id")


def events_user_cm_counts(sf_dir: str, w_p: int = 8, d: int = 4):
    """Count-Min sketch point counts for the first 20 user ids — the
    mergeable approximate-counting sketch (additive registers, min-over-
    rows estimate) in its SQL-portable md5 configuration, so the inflated
    estimates themselves have a bit-exact oracle.  Probes are derived
    distributed (distinct user_id < 20); the sketch pass ships only
    (d × 2^w_p) int64 registers per block."""
    from migration_pair_ray.functions.sketch import cm_count_portable
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    probe_ds = ds.map_batches(
        lambda t: (pa.table({"user_id": t.column("user_id")})
                   .filter(pc.less(t.column("user_id"), 20))
                   .group_by("user_id").aggregate([])),
        batch_format="pyarrow").groupby("user_id").count()
    probes = sorted(r["user_id"] for r in probe_ds.take_all())
    est = cm_count_portable(ds, "user_id", probes, w_p=w_p, d=d)
    return pa.table({
        "user_id": pa.array([u for u, _ in est], pa.int64()),
        "cm_count": pa.array([c for _, c in est], pa.int64()),
    })


def corpus_mixture(sf_dir: str):
    """Training-mix assembly: weighted per-source Bernoulli sampling
    (even-numbered sources at 80%, odd at 30%) in one deterministic
    md5-keyed pass (stages/sampling.mixture_sample — no shuffle, no RNG
    state, same rows on any cluster shape)."""
    from migration_pair_ray.functions.sketch import md5_hash64
    from migration_pair_ray.stages.sampling import mixture_sample
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    rates = {f"src{i}": (80 if i % 2 == 0 else 30) for i in range(20)}
    return (mixture_sample(ds, "source", "doc_id", rates,
                           hash64=md5_hash64)
            .sort("doc_id"))


def orders_range_shards(sf_dir: str, n_shards: int = 16):
    """Deterministic range-sharded export layout: each order's global
    rank by key (stages/packing.global_ranks — two-pass prefix scan, no
    all-gather) and its shard = rank * n_shards // total.  The layout a
    sorted multi-file training export writes, computed without ever
    holding the ranked table in one place."""
    from migration_pair_ray.stages.packing import global_ranks
    total = pq.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    ds = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                          columns=["o_orderkey"])
          .sort("o_orderkey"))
    ds = global_ranks(ds, "o_orderkey", rank_col="rank")

    def shard(t: pa.Table) -> pa.Table:
        r = t.column("rank").to_numpy(zero_copy_only=False)
        return t.append_column(
            "shard", pa.array(r * n_shards // total, pa.int64()))

    return ds.map_batches(shard, batch_format="pyarrow").sort("o_orderkey")


@_push_heavy
def conv_split_assign(sf_dir: str):
    """Leakage-safe train/test split over the merged transcript state:
    the unit of assignment is the CONVERSATION (md5(conv_id) % 100 < 80
    → train), never the turn, so no conversation straddles the split.
    One per-block partial count + tiny conv_id groupby; the split label
    is recomputed from the key (no join needed)."""
    from migration_pair_ray.functions.sketch import md5_hash64
    from ray.data.aggregate import Sum
    cfg = _events_lake(sf_dir)
    st = final_state(cfg, sort=False, columns=['conv_id'])

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({"conv_id": t.column("conv_id"),
                          "one": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by("conv_id").aggregate([("one", "sum")])
                .rename_columns(["conv_id", "n_turns"]))

    out = (st.map_batches(partial, batch_format="pyarrow")
           .groupby("conv_id").aggregate(Sum("n_turns", alias_name="n_turns")))

    def label(t: pa.Table) -> pa.Table:
        h = md5_hash64(t.column("conv_id").to_pylist()) % np.uint64(100)
        split = np.where(h < 80, "train", "test")
        return pa.table({"conv_id": t.column("conv_id"),
                         "split": pa.array(split.tolist(), pa.string()),
                         "n_turns": t.column("n_turns")})

    return out.map_batches(label, batch_format="pyarrow").sort("conv_id")


def doc_model_gate(sf_dir: str):
    """Classifier-gated filtering: an integer-weight linear model over
    the quality features (stages/curation.linear_gate — weights
    broadcast once via ray.put, one int64 matmul per batch) scores every
    doc and labels keep/drop.  Integer weights keep the score exact, so
    the model's verdicts themselves are SQL-checkable."""
    from migration_pair_ray.functions.text import quality_features
    from migration_pair_ray.stages.curation import linear_gate
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def features(t: pa.Table) -> np.ndarray:
        f = quality_features(t)
        return np.stack([
            f.column("n_chars_m").to_numpy(zero_copy_only=False),
            f.column("n_tokens").to_numpy(zero_copy_only=False),
            f.column("stop_hits").to_numpy(zero_copy_only=False),
            np.ones(t.num_rows, np.int64),
        ], axis=1).astype(np.int64)

    return (linear_gate(ds, features, np.array([-1, 6, 10, -30]))
            .sort("doc_id"))


def embed_quantize(sf_dir: str):
    """Int8 embedding quantization (the storage/serving compression step
    of an embedding pipeline): per-vector symmetric scale q =
    floor(127·x/max|x| + 0.5), summarized as exact integer aggregates
    (sum/min/max of the quantized vector) plus the scale in micro-units.
    All arithmetic is float64 IEEE in the same operation order DuckDB
    uses, so even the rounded values compare bit-exact.  Pure per-block
    map — no shuffle."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])

    def quantize(t: pa.Table) -> pa.Table:
        emb = t.column("embedding").combine_chunks()
        offs = emb.offsets.to_numpy()
        d = int(offs[1] - offs[0]) if len(offs) > 1 else 0
        x = emb.values.to_numpy(zero_copy_only=False).astype(
            np.float64).reshape(t.num_rows, d)
        ma = np.abs(x).max(axis=1)
        safe = np.where(ma == 0.0, 1.0, ma)
        q = np.floor((127.0 * x) / safe[:, None] + 0.5).astype(np.int64)
        q[ma == 0.0] = 0
        return pa.table({
            "vec_id": t.column("vec_id"),
            "scale_u": pa.array(np.floor(ma * 1e6).astype(np.int64)),
            "q_sum": pa.array(q.sum(axis=1)),
            "q_min": pa.array(q.min(axis=1)),
            "q_max": pa.array(q.max(axis=1)),
        })

    return ds.map_batches(quantize, batch_format="pyarrow").sort("vec_id")


@_push_heavy
def cdc_incremental_agg(sf_dir: str):
    """Incremental view maintenance — the CDC-native aggregate path: the
    per-conversation turn-count view is MAINTAINED, not recomputed —
    base counts from the checkpoint state (files 0-1 replay) plus ±1
    deltas from the changefeed (insert +1, delete -1, update 0), merged
    in one tiny groupby.  The full current state is never re-aggregated;
    the oracle recomputes from scratch, so the check is exactly
    'maintained view == recomputed view'.  Counts that reach zero drop
    out (their conversation was fully tombstoned)."""
    from ray.data.aggregate import Sum
    pre_cfg, src = _feed_lake(sf_dir), _events_lake(sf_dir)

    def base_partial(t: pa.Table) -> pa.Table:
        return (pa.table({"conv_id": t.column("conv_id"),
                          "d": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by("conv_id").aggregate([("d", "sum")])
                .rename_columns(["conv_id", "delta"]))

    # delta projection pushdown, now with ZERO exchange: a COUNT view's
    # deltas depend only on key PRESENCE flipping between the checkpoint
    # and current states (insert +1 / delete -1; updates are 0), and the
    # two states are same-layout lakes — so the deltas come from the
    # co-partitioned presence-only diff (feed.diff_lakes(payload_cols=()):
    # one local outer join per partition, nothing shuffled, no payload
    # read into the comparison).  At 10^10 scale only the ±1 partials
    # move.
    from migration_pair_ray.pipelines.feed import diff_lakes

    def feed_partial(t: pa.Table) -> pa.Table:
        ch = np.asarray(t.column("change").to_pandas(), dtype=object)
        d = np.where(ch == "insert", 1, -1).astype(np.int64)
        return (pa.table({"conv_id": t.column("conv_id"),
                          "d": pa.array(d)})
                .group_by("conv_id").aggregate([("d", "sum")])
                .rename_columns(["conv_id", "delta"]))

    base = final_state(pre_cfg, sort=False).map_batches(
        base_partial, batch_format="pyarrow")
    deltas = (diff_lakes(pre_cfg, src, payload_cols=())
              .map_batches(feed_partial, batch_format="pyarrow"))
    out = (base.union(deltas)
           .groupby("conv_id").aggregate(Sum("delta", alias_name="n_turns")))
    return (out.map_batches(
        lambda t: t.filter(pc.greater(t.column("n_turns"), 0)),
        batch_format="pyarrow").sort("conv_id"))


def cdc_lineage_totals(sf_dir: str):
    """Lineage/metrics cross-check: the engine's OWN recorded artifacts —
    per-partition manifests (current state rows, tombstones) and lineage
    records (applied lsn coverage) — rolled up job-wide and compared to
    ground truth recomputed by the oracle from the change stream.  Reads
    only manifests + lineage parquet (split-aware via LakeMeta), never
    the data files."""
    from migration_pair_ray.state.lineage import lineage_summary
    cfg = _events_lake(sf_dir)
    s = lineage_summary(cfg)
    return pa.table({
        "rows_state": pa.array([s["rows_state_last"]], pa.int64()),
        "tombstones": pa.array([s["tombstones"]], pa.int64()),
        "lsn_lo": pa.array([s["lsn_lo"]], pa.int64()),
        "lsn_hi": pa.array([s["lsn_hi"]], pa.int64()),
    })


def events_type_transitions(sf_dir: str):
    """Event-sequence transition counts (the Markov/bigram table a
    behavioral or next-event model trains on): per user, each event's
    predecessor type via stages/analytic.grouped_lag (coarse-bucket
    shifted take, zero per-key dispatch), then a (prev, next) count with
    per-block partials before the tiny pair groupby."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.analytic import grouped_lag
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id",
                                  "event_type"])
    lagged = grouped_lag(ds, "user_id", ["ts", "event_id"], "event_type",
                         lag_col="prev_type")

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("prev_type")))
        return (pa.table({"prev_type": t.column("prev_type"),
                          "next_type": t.column("event_type"),
                          "one": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by(["prev_type", "next_type"])
                .aggregate([("one", "sum")])
                .rename_columns(["prev_type", "next_type", "n"]))

    return (lagged.map_batches(partial, batch_format="pyarrow")
            .groupby(["prev_type", "next_type"])
            .aggregate(Sum("n", alias_name="n"))
            .sort(["prev_type", "next_type"]))


@_push_heavy
def conv_turn_gaps(sf_dir: str):
    """Dialogue-latency rollup over the merged transcript state: per
    conversation, the count / max / sum of inter-turn timestamp gaps in
    exact microseconds (grouped_lag on ts ordered by turn_idx, then one
    in-bucket Arrow group_by — turns of a conversation never span
    buckets)."""
    from migration_pair_ray.stages.analytic import grouped_lag
    cfg = _events_lake(sf_dir)
    st = final_state(cfg, sort=False, columns=['conv_id', 'turn_idx', 'ts'])
    lagged = grouped_lag(st, "conv_id", ["turn_idx"], "ts",
                         lag_col="prev_ts", n_coarse=64)

    def gaps(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("prev_ts")))
        cur = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")), pa.int64())
        prev = pc.cast(pc.cast(t.column("prev_ts"), pa.timestamp("us")),
                       pa.int64())
        gap = pc.subtract(cur, prev)
        return (pa.table({"conv_id": t.column("conv_id"), "gap_us": gap})
                .group_by("conv_id")
                .aggregate([("gap_us", "count"), ("gap_us", "max"),
                            ("gap_us", "sum")])
                .rename_columns(["conv_id", "n_gaps", "max_gap_us",
                                 "sum_gap_us"]))

    from ray.data.aggregate import Max, Sum
    return (lagged.map_batches(gaps, batch_format="pyarrow")
            .groupby("conv_id")
            .aggregate(Sum("n_gaps", alias_name="n_gaps"),
                       Max("max_gap_us", alias_name="max_gap_us"),
                       Sum("sum_gap_us", alias_name="sum_gap_us"))
            .sort("conv_id"))


@_push_heavy
def corpus_union_dedup(sf_dir: str):
    """Cross-corpus exact dedup: the documents table and the merged
    transcript turns unioned into ONE corpus (schemas aligned to
    (uid, origin, text); turn uid = 10^12 + conv*200 + turn_idx so the
    keeper preference is deterministic and SQL-mirrorable), deduped with
    the standard coarse content-hash skeleton, reported as per-origin
    survivor counts.  Turn texts draw from ~100 distinct payloads, so
    the cross-table dedup does real work."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.dedup import exact_dedup
    docs = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(lambda t: pa.table({
                "uid": pc.cast(t.column("doc_id"), pa.int64()),
                "origin": pa.array(["doc"] * t.num_rows, pa.string()),
                "text": t.column("text"),
            }).filter(pc.is_valid(t.column("text"))),
                batch_format="pyarrow"))
    cfg = _events_lake(sf_dir)

    def turn_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("text")))
        conv_n = pc.cast(pc.utf8_slice_codeunits(
            t.column("conv_id"), 1, 32), pa.int64())
        uid = pc.add(pa.scalar(1_000_000_000_000, pa.int64()),
                     pc.add(pc.multiply(conv_n, pa.scalar(200, pa.int64())),
                            pc.cast(t.column("turn_idx"), pa.int64())))
        return pa.table({"uid": uid,
                         "origin": pa.array(["turn"] * t.num_rows,
                                            pa.string()),
                         "text": t.column("text")})

    turns = final_state(cfg, sort=False).map_batches(
        turn_rows, batch_format="pyarrow")
    kept = exact_dedup(docs.union(turns), text_col="text", id_col="uid")

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({"origin": t.column("origin"),
                          "one": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by("origin").aggregate([("one", "sum")])
                .rename_columns(["origin", "n_kept"]))

    return (kept.map_batches(partial, batch_format="pyarrow")
            .groupby("origin").aggregate(Sum("n_kept", alias_name="n_kept"))
            .sort("origin"))


@_push_heavy
def cdc_log_compaction(sf_dir: str):
    """Changelog compaction (the Kafka-compacted-topic / WAL-truncation
    feature): the log PREFIX (files 0-1) is replaced by its per-key LWW
    winners — tombstones preserved, original (ts, lsn) metadata kept, so
    replaying [compacted prefix + tail] is LWW-equivalent to replaying
    the full log (file order is irrelevant inside a pass; winners are
    decided by (ts, lsn) alone).  The compacted segment is written
    DISTRIBUTED (read_lake -> write_parquet, renamed into the append-only
    batch-* contract); the oracle recomputes from the uncompacted stream,
    so the check is compaction-lossless-ness end to end."""
    src = _derived_log(sf_dir)
    root = _cache_dir(sf_dir, "compacted")
    cfg = JobConfig(changelog_dir=str(root / "log"),
                    lake_dir=str(root / "lake"), num_partitions=16)

    def write_log(_):
        # the prefix's winners are the state of the changefeed checkpoint
        tmp = root / "tmp"
        read_lake(_feed_lake(sf_dir)).write_parquet(str(tmp))
        os.makedirs(cfg.changelog_dir)
        for i, f in enumerate(sorted(tmp.glob("*.parquet"))):
            os.replace(f, Path(cfg.changelog_dir)
                       / f"batch-00000-c{i:04d}.parquet")
        shutil.rmtree(tmp)
        for f in sorted(src.glob("batch-*.parquet"))[2:]:
            os.link(f, Path(cfg.changelog_dir) / f.name)

    _build_once(root, {"source": str(src), "prefix": 2}, write_log)
    replay(cfg)   # one pass over the whole log; a no-op once applied
    return final_state(cfg, sort=True)


@_push_heavy
def cdc_snapshot_jsonl(sf_dir: str):
    """JSONL sink + source parity — the training-data interchange format:
    the merged state exported to JSON-lines (snapshot fmt='jsonl',
    partition-parallel write, unix-ms timestamps so values survive JSON
    as exact integers), read back via sources/readers.read_jsonl with
    schema normalization (all-null tool files infer as null type and must
    conform by name), and compared to the LWW oracle."""
    from migration_pair_ray.pipelines.snapshot import snapshot
    from migration_pair_ray.sources.readers import read_jsonl
    cfg = _events_lake(sf_dir)
    out_dir = str(_cache_dir(sf_dir, "state_jsonl"))
    shutil.rmtree(out_dir, ignore_errors=True)
    snapshot(cfg, out_dir, fmt="jsonl", unix_ms_ts=True, sort=False)
    schema = pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
        ("role", pa.string()), ("text", pa.string()),
        ("tool", pa.string()), ("ts", pa.int64()),
    ])
    return (read_jsonl(f"{out_dir}/", schema=schema)
            .sort(["conv_id", "turn_idx"]))


def cdc_quarantine_stats(sf_dir: str):
    """Dead-letter routing, end to end: the derived change log with a
    DETERMINISTIC malformation pattern (lsn % 97 == 13 → null conv_id;
    else lsn % 101 == 7 → op 'X') replayed through the quarantine gate
    (stages/quarantine): bad rows land in the side sink with per-row
    reasons, good rows merge normally.  Result: per-reason quarantine
    counts plus the surviving state's row count ('_state_rows'), so the
    oracle pins BOTH what was rejected and that rejects never reached the
    merged state."""
    from migration_pair_ray.stages.quarantine import quarantine_counts

    def corrupt(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn").to_numpy(zero_copy_only=False)
        nk = lsn % 97 == 13
        bo = ~nk & (lsn % 101 == 7)
        conv = pc.if_else(pa.array(nk), pa.scalar(None, pa.string()),
                          t.column("conv_id"))
        op = pc.if_else(pa.array(bo), pa.scalar("X", pa.string()),
                        t.column("op"))
        t = t.set_column(t.schema.get_field_index("conv_id"),
                         "conv_id", conv)
        return t.set_column(t.schema.get_field_index("op"), "op", op)

    q_dir = str(_cache_dir(sf_dir, "quar") / "q")
    cfg = _derived_lake(sf_dir, "quar", _WHOLE_LOG, flavor=corrupt,
                        quarantine_dir=q_dir)
    counts = quarantine_counts(q_dir)
    state_rows = final_state(cfg, sort=False).count()
    out = pa.table({
        "reason": pa.concat_arrays(
            [counts.column("reason").combine_chunks(),
             pa.array(["_state_rows"], pa.string())]),
        "n": pa.concat_arrays(
            [pc.cast(counts.column("n"), pa.int64()).combine_chunks(),
             pa.array([state_rows], pa.int64())]),
    })
    return out.sort_by([("reason", "ascending")])


def cdc_schema_gate(sf_dir: str):
    """Schema compliance gate, exercised as data — the M5/A3 driver query
    (``Tasks/EndToEnd.cs:51-85``'s name+type match, generalized to the
    strict/evolve policy matrix of ``pipelines/compliance``).  Two case
    families:

    * ``file{i}``: the REAL schemas of the derived change-log's four
      batch files, read from their Parquet footers (file 0 predates the
      ``tool`` column — the mandated schema-evolution epoch), each gated
      against CHANGE_SCHEMA in both modes with the footer row count
      attached (``source_rows`` ties the oracle to the data: the 4-way
      lsn split per = ceil(n/4) is recomputed by the oracle from the
      events table).
    * synthetic decision-matrix rows pinning the gate's conversion
      surface: ``wire_unix_ms`` (ts arrives as epoch-ms int64 — the
      reference's wire form, convertible, so evolve accepts and strict
      refuses), ``extra_col`` (a new ``model`` column — evolves the lake,
      strict refuses, and counts toward the reference's mismatch counter
      ``Tasks/EndToEnd.cs:82``), ``incompatible`` (turn_idx as
      list<int64> — no cast exists, BOTH modes abort).

    List fields are comma-joined so the report is a flat SQL-comparable
    table.  ``source_rows = -1`` marks schema-only synthetic cases."""
    from migration_pair_ray.pipelines.compliance import check_compliance
    from migration_pair_ray.schemas import CHANGE_SCHEMA

    cfg = _events_lake(sf_dir)   # ensures the derived change log exists
    cases: list[tuple[str, pa.Schema, int]] = []
    for f in sorted(Path(cfg.changelog_dir).glob("batch-*.parquet")):
        pf = pq.ParquetFile(f)
        i = int(f.name.split("-")[1])
        cases.append((f"file{i}", pf.schema_arrow, pf.metadata.num_rows))

    def _with_type(schema: pa.Schema, name: str, typ: pa.DataType) -> pa.Schema:
        idx = schema.get_field_index(name)
        return schema.set(idx, pa.field(name, typ))

    cases.append(("wire_unix_ms",
                  _with_type(CHANGE_SCHEMA, "ts", pa.int64()), -1))
    cases.append(("extra_col",
                  CHANGE_SCHEMA.append(pa.field("model", pa.string())), -1))
    cases.append(("incompatible",
                  _with_type(CHANGE_SCHEMA, "turn_idx", pa.list_(pa.int64())),
                  -1))

    rows = []
    for case_id, src, n_rows in cases:
        for mode in ("strict", "evolve"):
            r = check_compliance(src, CHANGE_SCHEMA, mode=mode)
            rows.append({
                "case_id": case_id, "mode": mode, "compliant": r.compliant,
                "added": ",".join(r.added), "missing": ",".join(r.missing),
                "mismatched": ",".join(r.mismatched),
                "mismatch_count": r.mismatch_count, "source_rows": n_rows,
            })
    out = pa.Table.from_pylist(rows, schema=pa.schema([
        ("case_id", pa.string()), ("mode", pa.string()),
        ("compliant", pa.bool_()), ("added", pa.string()),
        ("missing", pa.string()), ("mismatched", pa.string()),
        ("mismatch_count", pa.int64()), ("source_rows", pa.int64()),
    ]))
    return out.sort_by([("case_id", "ascending"), ("mode", "ascending")])


def cdc_state_asof(sf_dir: str, cutoff_us: int = 1705276800000000):
    """Point-in-time (time-travel) state: the LWW-merged table AS OF a
    cutoff timestamp (2024-01-15, mid-stream — the reconstruction differs
    from the final state).  Pure streaming composition of the replay
    kernels, no lake needed: derive → filter + per-batch partial
    ``lww_reduce`` (monotone combiner, so the shuffle carries winners
    only) → coarse key-bucket groupby → per-bucket ``lww_reduce`` +
    ``visible_state``.  This is the ad-hoc audit/repro read every CDC
    consumer wants ('what did the table look like at T?') without
    maintaining per-T lakes."""
    from migration_pair_ray.functions.lww import lww_reduce, visible_state
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(None)
    # the delivered form has no `tool` on the first quarter of the log
    # (schema evolution); footer-only row count, no data read
    n_events = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    tool_from = -(-n_events // 4)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "props", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        t = _derive_changes(t)
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64())
        t = t.filter(pc.less_equal(ts_us, cutoff_us))
        pre = pc.less(t.column("lsn"), tool_from)
        t = t.set_column(t.schema.get_field_index("tool"), "tool",
                         pc.if_else(pre, pa.scalar(None, pa.string()),
                                    t.column("tool")))
        t = lww_reduce(t)
        return t.append_column("__b", pa.array(
            _coarse_key_bucket(t.column("conv_id"), n_coarse)))

    def merge_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        return visible_state(lww_reduce(g))

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("__b").map_groups(merge_bucket, batch_format="pyarrow")
            .sort(["conv_id", "turn_idx"]))


_SCD2_MAX_US = 253402300800000000        # 9999-01-01, the open-interval end


def cdc_snapshot_diff(sf_dir: str, t1_us: int = 1705276800000000):
    """Snapshot-diff CDC bootstrap (pipelines/snapshot_diff): the change
    batch that turns the t1 point-in-time snapshot into the final state —
    one ``I``/``U``/``D`` row per added/changed/deleted merge key, new-side
    payload on I/U, old winning ts + null payload on D.  Both snapshots
    come off the streaming as-of path (same derive + tool-evolution rule),
    so this exercises the operator exactly as a bootstrap-from-dumps user
    would.  ``lsn`` is engine-assigned (deterministic bucket-dense) and
    dropped here; the replay roundtrip contract is pytest-verified
    (tests/test_snapshot_diff.py)."""
    from migration_pair_ray.pipelines.snapshot_diff import snapshot_diff
    old = cdc_state_asof(sf_dir, t1_us)
    new = cdc_state_asof(sf_dir, _SCD2_MAX_US)
    return (snapshot_diff(old, new).drop_columns(["lsn"])
            .sort(["conv_id", "turn_idx"]))


def _patch_flavor(tool_from: int):
    """The deterministic PATCH flavoring shared by ``cdc_patch_merge`` and
    ``cdc_cell_replay`` (keep in lockstep with their common SQL oracle):
    non-delete events with ``lsn % 7 == 2`` become text-only patches,
    ``lsn % 7 == 4`` tool-only patches; ``tool`` is nulled below
    ``tool_from`` (the schema-evolution epoch DERIVED_CHANGES_SQL models)."""
    def flavor(t: pa.Table) -> pa.Table:
        # single-chunk guard: pyarrow 16's if_else writes invalid offsets
        # when the mask is a plain Array and the values a multi-chunk
        # ChunkedArray ("First or last binary offset out of bounds");
        # _derive_changes output is fresh single-chunk, raw file reads are
        # not — a no-op copy-free call in the former case
        t = t.combine_chunks()
        pre = pc.less(t.column("lsn"), tool_from)
        tool = pc.if_else(pre, pa.scalar(None, pa.string()),
                          t.column("tool"))
        lsn = t.column("lsn").to_numpy(zero_copy_only=False)
        opn = np.asarray(t.column("op").to_pandas(), dtype=object)
        m7 = lsn % 7
        p_text = (m7 == 2) & (opn != "D")   # patch sets text only
        p_tool = (m7 == 4) & (opn != "D")   # patch sets tool only
        any_p = pa.array(p_text | p_tool)
        null_s = pa.scalar(None, pa.string())
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "role": pc.if_else(any_p, null_s, t.column("role")),
            "text": pc.if_else(pa.array(p_tool), null_s, t.column("text")),
            "tool": pc.if_else(pa.array(p_text), null_s, tool),
            "ts": t.column("ts"),
            "op": pc.if_else(any_p, "P", t.column("op")),
            "lsn": t.column("lsn"),
        })
    flavor.__name__ = f"patch_from_{tool_from}"
    return flavor


def _write_parity_logs(sf_dir: str, dir0: str, dir1: str) -> None:
    """Split the derived change stream into TWO independent source logs by
    lsn parity — source k gets the events with ``lsn % 2 == k``, re-keyed
    to that source's own dense monotone sequence ``lsn // 2`` (each shard
    of a real sharded upstream numbers its own binlog).  Distributed,
    deterministic (one Ray group per output file, sorted by lsn inside),
    crash-safe (stale partials wiped, ``_COMPLETE`` markers last).  Each
    source's FIRST file carries exactly its pre-evolution events (original
    ``lsn < tool_from``) and is written without ``tool`` — the same
    delivered form the single-log fixture produces (its file 0 lacks the
    column), so the merged lake must equal the single-log winners bit for
    bit, while the merge still has to widen schemas ACROSS sources."""
    done0, done1 = Path(dir0) / "_COMPLETE", Path(dir1) / "_COMPLETE"
    if done0.exists() and done1.exists():
        return
    for d in (dir0, dir1):
        os.makedirs(d, exist_ok=True)
        for stale in Path(d).glob("batch-*.parquet"):
            stale.unlink()
    n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    tool_from = (n + 3) // 4  # ceil(n/4), the oracle's evolution point

    def derive_split(t: pa.Table) -> pa.Table:
        t = _derive_changes(t)
        lsn = t.column("lsn")
        src = pc.cast(pc.bit_wise_and(lsn, 1), pa.int32())
        # file split on the ORIGINAL offset so each source's file 0 is
        # exactly the pre-evolution slice of that parity
        f = pc.cast(pc.greater_equal(lsn, tool_from), pa.int32())
        i = t.schema.get_field_index("lsn")
        t = t.set_column(i, "lsn", pc.shift_right(lsn, 1))
        return (t.append_column("__src", src)
                 .append_column("__f", f))

    def write_file(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"rows": pa.array([], pa.int64())})
        k = int(g.column("__src")[0].as_py())
        i = int(g.column("__f")[0].as_py())
        g = (g.drop_columns(["__src", "__f", "__g"])
              .sort_by([("lsn", "ascending")]))
        lo = int(g.column("lsn")[0].as_py())
        hi = int(g.column("lsn")[-1].as_py())
        if i == 0:
            g = g.drop_columns(["tool"])  # pre-evolution delivered form
        d = dir0 if k == 0 else dir1
        path = f"{d}/batch-{i:05d}-{lo:012d}-{hi:012d}.parquet"
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(g, tmp)
        os.replace(tmp, path)
        return pa.table({"rows": pa.array([g.num_rows], pa.int64())})

    def assign_group(t: pa.Table) -> pa.Table:
        gid = pc.add(pc.multiply(t.column("__src"), 2), t.column("__f"))
        return t.append_column("__g", gid)

    written = (rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "props", "ts"])
        .map_batches(derive_split, batch_format="pyarrow")
        .map_batches(assign_group, batch_format="pyarrow")
        .groupby("__g").map_groups(write_file, batch_format="pyarrow")
        .take_all())
    assert sum(r["rows"] for r in written) == n
    done0.touch()
    done1.touch()


def cdc_multi_source(sf_dir: str):
    """Sharded ingest: the change stream split by lsn parity into two
    independent source logs (each with its own dense monotone lsn) and
    merged into ONE lake by ``pipelines/multi.replay_multi``, which
    namespaces event ``(k, lsn)`` to ``global_lsn = lsn*2 + k``.  The
    parity split makes the oracle EXACT: reconstruction gives
    ``(L//2)*2 + L%2 = L``, the original offset — so the merged lake's
    final state must equal the single-log LWW winners bit for bit, cross-
    source ties and all.  Each source's first file is pre-evolution (no
    ``tool`` column, the single-log delivered form), so the merge must
    widen schemas across files AND sources."""
    from migration_pair_ray.pipelines.multi import replay_multi
    root = _cache_dir(sf_dir, "multi")
    dir0, dir1 = str(root / "log0"), str(root / "log1")
    _write_parity_logs(sf_dir, dir0, dir1)
    cfg = JobConfig(lake_dir=str(root / "lake"), num_partitions=16)
    replay_multi(cfg, [dir0, dir1])
    return final_state(cfg)


def cdc_cell_replay(sf_dir: str):
    """Cell-kernel LAKE on the oracle path: the patch-flavored change
    stream (same flavor as ``cdc_patch_merge``) written as a 4-file change
    log and replayed into a ``merge_kernel="cell"`` lake — partial-row-
    image CDC as a lake-lifetime property rather than a one-shot fold.
    State files hold per-key determiner rows; ``final_state`` folds them
    once per partition (``read_lake(finalize=...)``).  Same cell-semantics
    SQL oracle as ``cdc_patch_merge``: the lake path and the derive path
    must agree.  The file split boundary equals ``tool_from`` (both are
    ceil(n/4)), so file 0's dropped ``tool`` column reproduces the
    oracle's schema-evolution epoch exactly."""
    n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    cfg = _derived_lake(sf_dir, "cell", _WHOLE_LOG,
                        flavor=_patch_flavor(-(-n // 4)), merge_kernel="cell")
    return final_state(cfg, sort=True)


def cdc_patch_merge(sf_dir: str):
    """Cell-level LWW merge of a change stream carrying PATCH events
    (``op == "P"``: null column = keep current value — the Debezium
    partial-row-image / Cassandra per-cell-write shape row-level LWW
    cannot express).  Semantics and the monotone combiner live in
    ``functions/cells.py``; this composes them exactly like
    ``cdc_state_asof``: derive → per-batch ``cell_reduce`` (the exchange
    carries ≤ n_cols+2 rows per key per batch) → coarse key-bucket
    groupby → per-bucket ``cell_finalize``.  The patch flavor is derived
    deterministically from the log: non-delete events with ``lsn % 7 == 2``
    become text-only patches, ``lsn % 7 == 4`` tool-only patches (the
    latter may patch nothing — the existence-asserting degenerate case)."""
    from migration_pair_ray.functions.cells import cell_finalize, cell_reduce
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(None)
    n_events = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    flavor = _patch_flavor(tool_from=-(-n_events // 4))
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "props", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        t = cell_reduce(flavor(_derive_changes(t)))
        return t.append_column("__b", pa.array(
            _coarse_key_bucket(t.column("conv_id"), n_coarse)))

    def merge_bucket(g: pa.Table) -> pa.Table:
        return cell_finalize(g.drop_columns(["__b"]))

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("__b").map_groups(merge_bucket, batch_format="pyarrow")
            .sort(["conv_id", "turn_idx"]))


_BRANCH_TS_US = 1735689600000000      # 2025-01-01, above every event ts


def _branch_batch(conv: str, text: str, lsn0: int, n: int) -> pa.Table:
    """``n`` branch-only upserts of turns 0..n-1 of ``conv`` at a ts that
    dominates every event, with lsns from ``lsn0``."""
    return pa.table({
        "conv_id": pa.array([conv] * n, pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": pa.array(["branch"] * n, pa.string()),
        "text": pa.array([text] * n, pa.string()),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([_BRANCH_TS_US] * n, pa.timestamp("us")),
        "op": pa.array(["U"] * n, pa.string()),
        "lsn": pa.array(range(lsn0, lsn0 + n), pa.int64()),
    })


def cdc_clone_branch(sf_dir: str):
    """Zero-copy lake branching (pipelines/clone): hardlink-clone the
    events lake, then replay a branch-only change batch (10 'branched'
    upserts on conv c3 at a dominating ts) into the CLONE.  The source
    lake shares every data file by inode yet never sees the branch —
    divergence isolation is pytest-verified both ways
    (tests/test_clone.py); here the driver checks the branched state
    against LWW winners over original ∪ branch changes."""
    from dataclasses import replace as dc_replace

    from migration_pair_ray.pipelines.clone import clone_lake
    cfg = _events_lake(sf_dir)
    root = _cache_dir(sf_dir, "branch")
    bcfg = dc_replace(cfg, changelog_dir=str(root / "log"),
                      lake_dir=str(root / "lake"))

    def branch(_):
        n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
        os.makedirs(bcfg.changelog_dir)
        pq.write_table(_branch_batch("c3", "branched", n, 10),
                       f"{bcfg.changelog_dir}/batch-90000.parquet")
        clone_lake(cfg.lake_dir, bcfg.lake_dir)

    _build_once(root, {"conv": "c3", "rows": 10}, branch)
    replay(bcfg)          # applies the branch batch once; a no-op after
    return final_state(bcfg)


def cdc_branch_merge(sf_dir: str):
    """Branch merge (pipelines/branch): clone the events lake TWICE, let
    the branches diverge with different change batches (branch A upserts
    conv 'c7', branch B upserts conv 'c9'), then ``merge_branch`` each
    into the other.  The LWW semilattice makes the merge direction-free:
    both branches converge to LWW winners over original ∪ A ∪ B — the
    oracle — and the query asserts A == B before returning A."""
    from dataclasses import replace as dc_replace

    from migration_pair_ray.pipelines.branch import merge_branch
    from migration_pair_ray.pipelines.clone import clone_lake
    cfg = _events_lake(sf_dir)
    root = _cache_dir(sf_dir, "branch_merge")
    sides = {"a": ("c7", "merged-a", 100), "b": ("c9", "merged-b", 200)}
    cfgs = {side: dc_replace(cfg, changelog_dir=str(root / f"log-{side}"),
                             lake_dir=str(root / f"lake-{side}"))
            for side in sides}

    def diverge_and_merge(_):
        n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
        for side, (conv, text, off) in sides.items():
            bcfg = cfgs[side]
            os.makedirs(bcfg.changelog_dir)
            pq.write_table(_branch_batch(conv, text, n + off, 8),
                           f"{bcfg.changelog_dir}/batch-91{off}.parquet")
            clone_lake(cfg.lake_dir, bcfg.lake_dir)
            replay(bcfg)
        merge_branch(cfgs["a"], cfgs["b"])
        merge_branch(cfgs["b"], cfgs["a"])

    _build_once(root, sides, diverge_and_merge)
    a = pa.Table.from_pandas(
        final_state(cfgs["a"], sort=True).to_pandas(), preserve_index=False)
    b = pa.Table.from_pandas(
        final_state(cfgs["b"], sort=True).to_pandas(), preserve_index=False)
    assert a.equals(b), "branch merge did not converge"
    return a


def cdc_view_maintain(sf_dir: str):
    """Maintained materialized view (pipelines/view): a click-only,
    text-uppercased view lake pumped from the two-pass source lake's
    changefeed — each committed source pass is delta-rewritten (keep ⇒
    reshaped event, predicate-false ⇒ tombstone with the same ts/lsn) and
    applied through the normal replay, exactly-once via a registered
    feed consumer.  Because the view applies the same (ts, lsn) LWW
    order, view winners == transform(source winners) — the oracle."""
    from migration_pair_ray.pipelines.view import (maintain_view,
                                                   make_filter_project)
    root = _cache_dir(sf_dir, "view")
    view = JobConfig(changelog_dir=str(root / "log"),
                     lake_dir=str(root / "lake"), num_partitions=16)
    transform = make_filter_project(
        where=lambda t: pc.equal(pc.fill_null(t.column("role"), ""),
                                 "click"),
        derive=lambda t: {"text": pc.utf8_upper(t.column("text"))})
    maintain_view(_twophase_lake(sf_dir), view, transform)  # idempotent
    return final_state(view, sort=True)


def cdc_turn_versions(sf_dir: str):
    """SCD2 version history from the change stream: every change to a
    (conv_id, turn_idx) key becomes a versioned row with a validity
    interval — ``valid_to`` is the NEXT version's ``valid_from`` (open
    intervals get the year-9999 sentinel so the column stays a plain
    int64), ``is_current`` marks the live non-tombstone tip.  The lead()
    is ``stages/analytic.grouped_lead`` over a composite key (coarse
    buckets, one shuffle, one Arrow sort + shifted take per bucket —
    zero per-key dispatch), exactly the temporal-table/versioned-lake
    shape a CDC consumer materializes."""
    from migration_pair_ray.stages.analytic import grouped_lead
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "props", "ts"])
    ds = ds.map_batches(_derive_changes, batch_format="pyarrow")

    def prep(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            t.column("conv_id").cast(pa.string()),
            pc.cast(t.column("turn_idx"), pa.string()), "#")
        return pa.table({
            "__k": k,
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "lsn": t.column("lsn"),
            "op": t.column("op"),
            "ts_us": pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                             pa.int64()),
        })

    led = grouped_lead(ds.map_batches(prep, batch_format="pyarrow"),
                       key_col="__k", order_cols=["ts_us", "lsn"],
                       value_col="ts_us", lead_col="valid_to_us")

    def finish(t: pa.Table) -> pa.Table:
        vt = pc.fill_null(t.column("valid_to_us"), _SCD2_MAX_US)
        cur = pc.and_(pc.is_null(t.column("valid_to_us")),
                      pc.not_equal(t.column("op"), "D"))
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "lsn": t.column("lsn"),
            "op": t.column("op"),
            "valid_from_us": t.column("ts_us"),
            "valid_to_us": vt,
            "is_current": pc.cast(cur, pa.int64()),
        })

    return (led.map_batches(finish, batch_format="pyarrow")
            .sort(["conv_id", "turn_idx", "lsn"]))


def events_value_moments(sf_dir: str):
    """Grouped second moments (population variance / stddev) from EXACT
    integer sums: values enter the fixed-precision floor(v·100) domain,
    each batch ships only (n, Σc, Σc²) partials (c² bounded: |c| < 2³¹ ⇒
    Σc² < 2⁶²·rows, int64-safe at this fixture; production would widen to
    float128/two-part sums), and the final variance is ONE float
    expression over the three exact integers — bit-identical on any
    engine that evaluates the same expression, so the oracle needs no
    tolerance.  The moments every feature-normalization pass needs."""
    from ray.data.aggregate import Sum
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        c = np.floor(t.column("value").to_numpy(zero_copy_only=False)
                     * 100).astype(np.int64)
        return (pa.table({"event_type": t.column("event_type"),
                          "s": pa.array(c), "s2": pa.array(c * c),
                          "n": pa.array(np.ones(len(c), np.int64))})
                .group_by("event_type")
                .aggregate([("s", "sum"), ("s2", "sum"), ("n", "sum")])
                .rename_columns(["event_type", "s", "s2", "n"]))

    def finish(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False).astype(np.float64)
        s2 = t.column("s2").to_numpy(zero_copy_only=False).astype(np.float64)
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        var = (s2 - (s * s) / n) / n
        return pa.table({
            "event_type": t.column("event_type"),
            "n": t.column("n"),
            "mean_c": pa.array(s / n),
            "var_c": pa.array(var),
            "stddev_c": pa.array(np.sqrt(var)),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("s", alias_name="s"), Sum("s2", alias_name="s2"),
                       Sum("n", alias_name="n"))
            .map_batches(finish, batch_format="pyarrow")
            .sort("event_type"))


_WEEK_US = 604800000000     # 7 * 86400 * 1e6


def events_retention_cohorts(sf_dir: str):
    """Retention cohort matrix: users grouped by their FIRST active week
    (the cohort), counted in every week they return — the (cohort, week,
    n_users) table behind every retention curve.  Scale shape: per-batch
    distinct-(user, week) partial (the only thing that shuffles — at most
    users × weeks rows, not events), coarse user-hash buckets, then one
    Arrow sort per bucket derives distinct user-weeks, per-user cohort
    (first week) and the emitted (cohort, week) pairs with boundary
    masks — zero per-user dispatch."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    from migration_pair_ray.functions.lww import _group_first_mask
    n_coarse = _default_coarse(None)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        week = pc.divide(pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                                 pa.int64()), _WEEK_US)
        uw = (pa.table({"user_id": t.column("user_id"), "week": week})
              .group_by(["user_id", "week"]).aggregate([])
              .select(["user_id", "week"]))
        return uw.append_column("__b", pa.array(
            _coarse_key_bucket(uw.column("user_id"), n_coarse)))

    def cohort_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"cohort": pa.array([], pa.int64()),
                             "week": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        g = g.sort_by([("user_id", "ascending"), ("week", "ascending")])
        uw_first = _group_first_mask(g, ["user_id", "week"]).to_numpy(
            zero_copy_only=False)
        g = g.filter(pa.array(uw_first))          # distinct (user, week)
        week = g.column("week").to_numpy(zero_copy_only=False)
        u_first = _group_first_mask(g, ["user_id"]).to_numpy(
            zero_copy_only=False)
        seg_id = np.cumsum(u_first) - 1
        cohort = week[np.flatnonzero(u_first)][seg_id]
        return (pa.table({"cohort": pa.array(cohort),
                          "week": pa.array(week),
                          "n": pa.array(np.ones(len(week), np.int64))})
                .group_by(["cohort", "week"]).aggregate([("n", "sum")])
                .rename_columns(["cohort", "week", "n"]))

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("__b").map_groups(cohort_bucket, batch_format="pyarrow")
            .groupby(["cohort", "week"])
            .aggregate(Sum("n", alias_name="n_users"))
            .sort(["cohort", "week"]))


def events_type_drift(sf_dir: str):
    """Data-quality drift monitor: week-over-week shift of the event-type
    distribution as an EXACT integer — the L1 distance between
    consecutive weeks' type mixes, cross-multiplied to avoid any float
    ratio (Σ_t |c_w[t]·n_{w-1} − c_{w-1}[t]·n_w|, plus both week totals
    so the consumer can normalize).  Raw events reduce to per-(week,
    type) count partials immediately; the drift itself runs over the
    tiny weeks×types table with the grouped_lag kernel (per-type
    previous-week count, then one groupby)."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.analytic import grouped_lag
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        week = pc.divide(pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                                 pa.int64()), _WEEK_US)
        return (pa.table({"event_type": t.column("event_type"),
                          "week": week,
                          "c": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by(["event_type", "week"]).aggregate([("c", "sum")])
                .rename_columns(["event_type", "week", "c"]))

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["event_type", "week"])
              .aggregate(Sum("c", alias_name="c")))
    # per-type previous-week count.  Semantics: drift over types present
    # in BOTH weeks (inner-join; the SQL oracle mirrors this) — a type
    # appearing/vanishing outright would need a densified type×week grid
    # first, as would gapped weeks; this fixture has neither
    led = grouped_lag(counts, key_col="event_type", order_cols=["week"],
                      value_col="c", lag_col="c_prev", n_coarse=8)
    # week totals ride as a broadcast map — weeks is a tiny domain
    tot = {r["week"]: r["c"] for r in
           (counts.groupby("week").aggregate(Sum("c", alias_name="c"))
            .take_all())}
    import ray
    tref = ray.put(tot)

    def drift(t: pa.Table) -> pa.Table:
        tm = ray.get(tref)
        t = t.filter(pc.is_valid(t.column("c_prev")))
        if t.num_rows == 0:
            return pa.table({"week": pa.array([], pa.int64()),
                             "l1_num": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "n_prev": pa.array([], pa.int64())})
        wk = t.column("week").to_numpy(zero_copy_only=False)
        c = t.column("c").to_numpy(zero_copy_only=False)
        cp = t.column("c_prev").to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.array([tm[w] for w in wk], np.int64)
        npv = np.array([tm[w - 1] for w in wk], np.int64)
        num = np.abs(c * npv - cp * n)
        return (pa.table({"week": pa.array(wk), "l1_num": pa.array(num),
                          "n": pa.array(n), "n_prev": pa.array(npv)})
                .group_by(["week", "n", "n_prev"])
                .aggregate([("l1_num", "sum")])
                .rename_columns(["week", "n", "n_prev", "l1_num"]))

    return (led.map_batches(drift, batch_format="pyarrow")
            .groupby(["week", "n", "n_prev"])
            .aggregate(Sum("l1_num", alias_name="l1_num"))
            .select_columns(["week", "l1_num", "n", "n_prev"])
            .sort("week"))


def events_funnel(sf_dir: str):
    """Ordered funnel (view → click → purchase): per stage, how many
    users reached it with STRICTLY increasing timestamps.  Greedy-earliest
    chaining (t₁ = first view, t₂ = first click after t₁, …) is exact for
    existence funnels.  Scale shape: coarse user-hash buckets (ONE
    shuffle), one Arrow sort per bucket, then each stage is one masked
    segmented-min (`np.minimum.reduceat`) over the whole bucket — zero
    per-user dispatch, 3 vector passes regardless of user count."""
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    from migration_pair_ray.functions.lww import _group_first_mask
    from ray.data.aggregate import Sum
    steps = ["view", "click", "purchase"]
    n_coarse = _default_coarse(None)
    INF = np.iinfo(np.int64).max
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__b", pa.array(
            _coarse_key_bucket(t.column("user_id"), n_coarse)))

    def funnel_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"stage": pa.array([], pa.string()),
                             "n_users": pa.array([], pa.int64())})
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        ts = pc.cast(pc.cast(g.column("ts"), pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        et = np.asarray(g.column("event_type").to_pandas(), dtype=object)
        first = _group_first_mask(g, ["user_id"]).to_numpy(
            zero_copy_only=False)
        seg_starts = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        t_prev = np.full(len(seg_starts), -1, np.int64)
        names, counts = [], []
        for i, step in enumerate(steps):
            ok = (et == step) & (ts > t_prev[seg_id])
            vals = np.where(ok, ts, INF)
            t_prev = np.minimum.reduceat(vals, seg_starts)
            names.append(f"{i + 1}_{step}")
            counts.append(int((t_prev < INF).sum()))
        return pa.table({"stage": pa.array(names, pa.string()),
                         "n_users": pa.array(counts, pa.int64())})

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("__b").map_groups(funnel_bucket, batch_format="pyarrow")
            .groupby("stage").aggregate(Sum("n_users", alias_name="n_users"))
            .sort("stage"))


def events_value_outliers(sf_dir: str):
    """Per-type IQR anomaly counts: events whose value exceeds
    q3 + 1.5·IQR of their type.  The quartiles are EXACT
    (stages/analytic.grouped_quantiles, quantile_disc semantics — real
    data values, so the float threshold arithmetic is identical on both
    engines); thresholds are a tiny per-type table broadcast into a
    per-block filter — raw events shuffle only as quantile histogram
    partials."""
    import ray
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.analytic import grouped_quantiles
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    # work in the floor(v*100) integer domain end to end (the quantile
    # operator's own fixed-precision scaling), so the quartiles are exact
    # integers and the 1.5*IQR threshold arithmetic is identical in SQL
    qt = (grouped_quantiles(ds, "event_type", "value",
                            qs=[0.25, 0.75], scale=100).take_all())
    q1 = {r["event_type"]: int(round(r["value"] * 100))
          for r in qt if r["q"] == 0.25}
    q3 = {r["event_type"]: int(round(r["value"] * 100))
          for r in qt if r["q"] == 0.75}
    thr = {k: q3[k] + 1.5 * (q3[k] - q1[k]) for k in q3}
    tref = ray.put(thr)

    def partial(t: pa.Table) -> pa.Table:
        th = ray.get(tref)
        enc = pc.dictionary_encode(t.column("event_type")).combine_chunks()
        bar = np.array([th[s] for s in enc.dictionary.to_pylist()])
        v = np.floor(t.column("value").to_numpy(zero_copy_only=False)
                     * 100).astype(np.int64)
        out = v > bar[enc.indices.to_numpy(zero_copy_only=False)]
        return (pa.table({"event_type": t.column("event_type"),
                          "o": pa.array(out.astype(np.int64))})
                .group_by("event_type").aggregate([("o", "sum"),
                                                   ("o", "count")])
                .rename_columns(["event_type", "n_outliers", "n"]))

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n_outliers", alias_name="n_outliers"),
                       Sum("n", alias_name="n"))
            .sort("event_type"))


def conv_role_violations(sf_dir: str):
    """Role-alternation audit over the merged transcripts: per
    conversation, how many ADJACENT turn pairs (turn_idx order) repeat the
    same role — the chat-data quality gate that catches doubled
    user/assistant turns from retries or botched merges.  The lookahead is
    ``stages/analytic.grouped_lead`` (coarse key-hash buckets, ONE shuffle,
    one Arrow sort + shifted take per bucket — zero per-key dispatch);
    the counting is a per-batch partial + tiny conv groupby."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.analytic import grouped_lead
    cfg = _events_lake(sf_dir)
    st = final_state(cfg, sort=False, columns=['conv_id', 'turn_idx', 'role'])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("role")))
        return t.select(["conv_id", "turn_idx", "role"])

    led = grouped_lead(st.map_batches(prep, batch_format="pyarrow"),
                       key_col="conv_id", order_cols=["turn_idx"],
                       value_col="role", lead_col="next_role")

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("next_role")))
        same = pc.cast(pc.equal(t.column("role"), t.column("next_role")),
                       pa.int64())
        return (pa.table({"conv_id": t.column("conv_id"),
                          "pair": pa.array(np.ones(t.num_rows, np.int64)),
                          "same": same})
                .group_by("conv_id")
                .aggregate([("pair", "sum"), ("same", "sum")])
                .rename_columns(["conv_id", "n_pairs", "n_same_role"]))

    return (led.map_batches(partial, batch_format="pyarrow")
            .groupby("conv_id")
            .aggregate(Sum("n_pairs", alias_name="n_pairs"),
                       Sum("n_same_role", alias_name="n_same_role"))
            .sort("conv_id"))


def _hot_hash_ds(st, *, min_convs: int, n_coarse: int,
                 text_col: str = "text",
                 key_col: str = "conv_id"):
    """Pass 1 of template detection: hashes of ``text_col`` values seen in
    >= ``min_convs`` distinct ``key_col`` values.  The exchange carries
    (hash64, key) only — never the text — so the shuffle is ~16 B/row at
    any text length; the result is bounded by the template count, safe to
    collect + broadcast (``_hot_text_hashes``)."""
    from migration_pair_ray.functions.hashing import stable_hash64
    from migration_pair_ray.functions.lww import _group_first_mask

    def hash_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(text_col)))
        h = stable_hash64(t.column(text_col).to_pylist()).astype(np.int64)
        p = (pa.table({"h": pa.array(h), "k": t.column(key_col)})
             .group_by(["h", "k"]).aggregate([]))
        return p.append_column("__b", pa.array(
            (p.column("h").to_numpy(zero_copy_only=False)
             % np.int64(n_coarse)).astype(np.int32)))

    def hot_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"h": pa.array([], pa.int64())})
        g = g.sort_by([("h", "ascending"), ("k", "ascending")])
        new_key = _group_first_mask(g, ["h", "k"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        out = (pa.table({"h": g.column("h"), "c": pa.array(new_key)})
               .group_by("h").aggregate([("c", "sum")])
               .rename_columns(["h", "c"]))
        return out.filter(pc.greater_equal(
            out.column("c"), min_convs)).select(["h"])

    return (st.map_batches(hash_partial, batch_format="pyarrow")
            .groupby("__b").map_groups(hot_bucket, batch_format="pyarrow"))


def _hot_text_hashes(st, *, min_convs: int, n_coarse: int,
                     text_col: str = "text",
                     key_col: str = "conv_id") -> np.ndarray:
    hot = _hot_hash_ds(st, min_convs=min_convs, n_coarse=n_coarse,
                       text_col=text_col, key_col=key_col
                       ).take_all()          # bounded by template count
    return np.sort(np.array([r["h"] for r in hot], dtype=np.int64))


def conv_template_turns(sf_dir: str, min_convs: int = 2):
    """Template/canned-turn detection across the corpus: visible turn
    texts that appear in >= ``min_convs`` DISTINCT conversations (boiler-
    plate responses a curation pass usually down-weights).

    Two-pass slim-exchange shape (same discipline as the MinHash LSH
    rework — full payloads never ride a corpus-wide shuffle):

    1. Hash pass: per batch, distinct (hash64(text), conv_id) pairs —
       16 B/row — ONE coarse shuffle on the hash, per-bucket sort +
       boundary masks count distinct convs per hash; hashes meeting the
       threshold are the HOT set, bounded by the template count, so
       collecting + broadcasting it is safe at any corpus size.
    2. Text pass: re-scan, keep only rows whose hash is hot (np.isin),
       and do the exact (text, conv) count — grouped by the TEXT itself,
       so a hash collision can only add a few spurious rows to this
       bounded pass, never a wrong count — then filter >= min_convs
       again on the exact numbers."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.functions.hashing import stable_hash64
    from migration_pair_ray.functions.lww import _group_first_mask
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(None)
    cfg = _events_lake(sf_dir)
    st = final_state(cfg, sort=False, columns=['conv_id', 'turn_idx', 'text'])

    hot_arr = _hot_text_hashes(st, min_convs=min_convs, n_coarse=n_coarse)
    hot_ref = ray.put(hot_arr)

    def text_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("text")))
        h = stable_hash64(t.column("text").to_pylist()).astype(np.int64)
        keep = np.isin(h, ray.get(hot_ref))
        t = t.filter(pa.array(keep))
        p = (t.select(["text", "conv_id"])
             .append_column("n", pa.array(np.ones(t.num_rows, np.int64)))
             .group_by(["text", "conv_id"]).aggregate([("n", "sum")])
             .rename_columns(["text", "conv_id", "n"]))
        return p.append_column("__b", pa.array(
            _coarse_key_bucket(p.column("text"), n_coarse)))

    def count_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table({"text": pa.array([], pa.string()),
                          "n_convs": pa.array([], pa.int64()),
                          "n_uses": pa.array([], pa.int64())})
        if g.num_rows == 0:
            return empty
        g = g.sort_by([("text", "ascending"), ("conv_id", "ascending")])
        new_conv = _group_first_mask(g, ["text", "conv_id"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        out = (pa.table({"text": g.column("text"),
                         "c": pa.array(new_conv),
                         "n": g.column("n")})
               .group_by("text").aggregate([("c", "sum"), ("n", "sum")])
               .rename_columns(["text", "n_convs", "n_uses"]))
        return out.filter(pc.greater_equal(out.column("n_convs"),
                                           min_convs)) if out.num_rows else empty

    return (st.map_batches(text_partial, batch_format="pyarrow")
            .groupby("__b").map_groups(count_bucket, batch_format="pyarrow")
            .sort("text"))


def cdc_state_diff(sf_dir: str, t1_us: int = 1705276800000000,
                   t2_us: int = _SCD2_MAX_US):
    """Point-in-time state DIFF: classify every (conv_id, turn_idx) key by
    how the LWW state changed between two cutoffs — ``added`` (visible at
    t2 only), ``deleted`` (t1 only), ``changed`` (both, any payload column
    differs), ``unchanged`` — and count keys per class.  The audit read
    behind every CDC reconciliation report ('what moved between Monday's
    snapshot and today?').

    One pass, one shuffle: each batch derives changes, applies the
    delivered-form tool-evolution rule, and emits BOTH cutoffs' per-batch
    LWW partials tagged with a side column (the combiner is monotone, so
    the exchange carries at most two winners per key per batch); each
    coarse key bucket then finishes the per-side reduce and classifies all
    its keys with one Arrow sort + boundary/pair masks — no join, no
    per-key dispatch.  Null-safe column compares mirror SQL's
    IS DISTINCT FROM."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.functions.lww import (_group_first_mask,
                                                  lww_reduce, visible_state)
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(None)
    n_events = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    tool_from = -(-n_events // 4)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "props", "ts"])
    payload = ["role", "text", "tool", "ts"]

    def partial(t: pa.Table) -> pa.Table:
        t = _derive_changes(t)
        pre = pc.less(t.column("lsn"), tool_from)
        t = t.set_column(t.schema.get_field_index("tool"), "tool",
                         pc.if_else(pre, pa.scalar(None, pa.string()),
                                    t.column("tool")))
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64())
        sides = []
        for side, cut in ((1, t1_us), (2, t2_us)):
            s = lww_reduce(t.filter(pc.less_equal(ts_us, cut)))
            sides.append(s.append_column(
                "__side", pa.array(np.full(s.num_rows, side, np.int8))))
        both = pa.concat_tables(sides)
        return both.append_column("__b", pa.array(
            _coarse_key_bucket(both.column("conv_id"), n_coarse)))

    def classify_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"diff_class": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        g = g.drop_columns(["__b"])
        states = []
        for side in (1, 2):
            s = g.filter(pc.equal(g.column("__side"), side))
            s = visible_state(lww_reduce(s.drop_columns(["__side"])))
            states.append(s.append_column(
                "__side", pa.array(np.full(s.num_rows, side, np.int8))))
        t = pa.concat_tables(states).sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"),
             ("__side", "ascending")])
        n = t.num_rows
        if n == 0:
            return pa.table({"diff_class": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        first = _group_first_mask(t, ["conv_id", "turn_idx"]).to_numpy(
            zero_copy_only=False)
        starts = np.flatnonzero(first)
        sizes = np.diff(np.concatenate([starts, [n]]))
        side = t.column("__side").to_numpy(zero_copy_only=False)
        # singleton keys: present on one side only
        single = starts[sizes == 1]
        classes = []
        if single.size:
            classes.append(np.where(side[single] == 1, "deleted", "added"))
        # pair keys: compare payload columns null-safely (IS DISTINCT FROM)
        pairs = starts[sizes == 2]
        if pairs.size:
            a_idx, b_idx = pa.array(pairs), pa.array(pairs + 1)
            differs = np.zeros(pairs.size, dtype=bool)
            for col in payload:
                av, bv = pc.take(t.column(col), a_idx), pc.take(
                    t.column(col), b_idx)
                neq = pc.fill_null(pc.not_equal(av, bv), False)
                null_mismatch = pc.xor(pc.is_null(av), pc.is_null(bv))
                differs |= pc.or_(neq, null_mismatch).to_numpy(
                    zero_copy_only=False)
            classes.append(np.where(differs, "changed", "unchanged"))
        allc = np.concatenate(classes) if classes else np.array([], "U9")
        vals, counts = np.unique(allc, return_counts=True)
        return pa.table({"diff_class": pa.array(vals.tolist(), pa.string()),
                         "n": pa.array(counts.astype(np.int64))})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("__b").map_groups(classify_bucket,
                                       batch_format="pyarrow")
            .groupby("diff_class")
            .aggregate(Sum("n", alias_name="n_keys"))
            .sort("diff_class"))


def cdc_stale_updates(sf_dir: str):
    """Out-of-order-arrival audit over the raw change stream: per op, how
    many events arrived LATER in the log than their key's LWW winner
    (lsn > winner.lsn) yet still lost the merge (older event-time) — the
    'stale update rate' a CDC operator watches to size reorder buffers and
    judge source-clock health.  Generalizes the reference's silent reliance
    on Cassandra timestamp conflict resolution (Tasks/MigrationTask.cs:
    101-104) into an observable metric.

    One shuffle: each batch derives changes and ships only the five slim
    audit columns (conv_id, turn_idx, ts, lsn, op); each coarse
    conv-hash bucket finds winners with one Arrow sort + boundary mask and
    counts losers-with-higher-lsn via a segment-broadcast compare — no
    join, no per-key dispatch.  (The count is winner-relative, so no
    per-batch combiner exists; the exchange is the slim columns only.)"""
    from ray.data.aggregate import Sum
    from migration_pair_ray.functions.lww import _group_first_mask
    from migration_pair_ray.stages.windows import (_coarse_key_bucket,
                                                   _default_coarse)
    n_coarse = _default_coarse(None)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "props", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        t = _derive_changes(t).select(
            ["conv_id", "turn_idx", "ts", "lsn", "op"])
        return t.append_column(
            "__b", pa.array(_coarse_key_bucket(t.column("conv_id"),
                                               n_coarse)))

    def classify_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        if g.num_rows == 0:
            return pa.table({"op": pa.array([], pa.string()),
                             "n_events": pa.array([], pa.int64()),
                             "n_stale": pa.array([], pa.int64())})
        g = g.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending"),
                       ("ts", "ascending"), ("lsn", "ascending")],
                      null_placement="at_start")
        first = np.asarray(_group_first_mask(g, ["conv_id", "turn_idx"]))
        last = np.concatenate([first[1:], [True]])     # winner rows
        seg = np.cumsum(first) - 1                     # segment id per row
        lsn = g.column("lsn").to_numpy(zero_copy_only=False)
        wlsn = lsn[np.flatnonzero(last)][seg]          # winner lsn per row
        stale = (~last) & (lsn > wlsn)
        return (pa.table({"op": g.column("op"),
                          "one": pa.array(np.ones(g.num_rows, np.int64)),
                          "st": pa.array(stale.astype(np.int64))})
                .group_by("op").aggregate([("one", "sum"), ("st", "sum")])
                .rename_columns(["op", "n_events", "n_stale"]))

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("__b").map_groups(classify_bucket,
                                       batch_format="pyarrow")
            .groupby("op")
            .aggregate(Sum("n_events", alias_name="n_events"),
                       Sum("n_stale", alias_name="n_stale"))
            .sort("op"))


def conv_role_transitions(sf_dir: str):
    """Role-transition matrix over the merged transcripts: global counts of
    (role -> next role) adjacencies in turn_idx order — the turn-taking
    structure profile (user->assistant vs assistant->tool etc.) a dialogue
    dataset is audited by before training.  Lookahead via
    stages/analytic.grouped_lead (coarse conv-hash buckets, ONE shuffle,
    one Arrow sort + shifted take per bucket); the matrix itself is a
    per-batch pair-count partial + a tiny final groupby."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.analytic import grouped_lead
    cfg = _events_lake(sf_dir)
    st = final_state(cfg, sort=False, columns=['conv_id', 'turn_idx', 'role'])

    led = grouped_lead(
        st.map_batches(lambda t: t.select(["conv_id", "turn_idx", "role"]),
                       batch_format="pyarrow"),
        key_col="conv_id", order_cols=["turn_idx"],
        value_col="role", lead_col="next_role")

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("next_role")))
        return (pa.table({"role": t.column("role"),
                          "next_role": t.column("next_role"),
                          "one": pa.array(np.ones(t.num_rows, np.int64))})
                .group_by(["role", "next_role"]).aggregate([("one", "sum")])
                .rename_columns(["role", "next_role", "n"]))

    return (led.map_batches(partial, batch_format="pyarrow")
            .groupby(["role", "next_role"])
            .aggregate(Sum("n", alias_name="n"))
            .sort(["role", "next_role"]))


def cdc_find_by_tool(sf_dir: str, values: tuple = ("w1", "w3")):
    """Secondary-index probe: visible turns whose ``tool`` is one of the
    requested values, served through pipelines/index postings (build is
    incremental; probe reads only posting files + matching state chunks,
    with Parquet filters bounding even those) — never a lake scan.  The
    non-key-predicate serving path the reference delegated to Cassandra
    secondary indexes."""
    from migration_pair_ray.pipelines.index import (build_value_index,
                                                    lookup_by_value)
    cfg = _events_lake(sf_dir)
    build_value_index(cfg, "tool")
    return lookup_by_value(cfg, "tool", list(values))


def cdc_mor_replay(sf_dir: str):
    """Merge-on-read ingest on the oracle path: the derived change log
    applied in TWO passes with ``mor_max_deltas=8`` — pass 2 lands as
    per-partition DELTA files (write cost O(changes), base untouched) and
    the read folds base + deltas with the LWW kernel.  Final state must
    equal the copy-on-write winners (same SQL oracle as cdc_lww_merge);
    the fixture asserts deltas actually exist so the fold is exercised,
    not skipped."""
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore

    def has_deltas(cfg, stats):
        if len(stats) == 2:
            store = ManifestStore(cfg.manifest_dir)
            n_deltas = sum(
                len((store.read(pid) or {}).get("delta_files", []))
                for pid in LakeMeta(cfg.lake_dir).active_partition_ids(16))
            assert n_deltas > 0, "MoR fixture produced no delta files"

    cfg = _derived_lake(sf_dir, "mor", _TWO_PASSES, hook=has_deltas,
                        mor_max_deltas=8)
    return final_state(cfg, sort=True)


def cdc_feed_resume(sf_dir: str):
    """Consumer-offset changefeed (pipelines/feed): a downstream consumer
    that has acknowledged pass 1 of the two-phase lake reads EXACTLY the
    pass-2 change events on resume — pass-granular at-least-once delivery
    from the engine's own checkpoint records, cursor durably stored under
    the lake.  Oracle: the derived change rows with lsn >= the two-phase
    cut."""
    from migration_pair_ray.pipelines.feed import ack_feed, read_feed
    from migration_pair_ray.state.manifest import CheckpointStore
    cfg = _derived_lake(sf_dir, "feedresume", _TWO_PASSES)
    seq1 = min(CheckpointStore(cfg.checkpoint_dir).pass_seqs().values())
    ack_feed(cfg, "driver-demo", seq1)  # monotone: rerun is a no-op
    ds, _ = read_feed(cfg, "driver-demo")
    return ds.map_batches(
        lambda t: t.drop_columns(["_pass_seq"]),
        batch_format="pyarrow").sort("lsn")


def _follower(sf_dir: str, name: str) -> JobConfig:
    """A follower lake of the events lake under a different layout: 8
    salted-key partitions against the source's 16 conv-hash ones."""
    root = _cache_dir(sf_dir, name)
    return JobConfig(changelog_dir=str(root / "log"),
                     lake_dir=str(root / "lake"),
                     num_partitions=8, partition_mode="key")


def cdc_replica(sf_dir: str):
    """Streaming lake replication (pipelines/feed.replicate): a follower
    lake consumes the source's committed passes in order — under a
    DIFFERENT layout (8 salted-key partitions vs the source's 16
    conv-hash) — and must converge to the same visible state.  Resumable:
    the replica cursor makes the query a no-op re-run.  Oracle: the same
    LWW winners as the source (cdc_lww_merge)."""
    from migration_pair_ray.pipelines.feed import replicate
    dst = _follower(sf_dir, "replica")
    replicate(_events_lake(sf_dir), dst)
    return final_state(dst, sort=True)


def cdc_replica_repair(sf_dir: str):
    """Targeted replica repair (pipelines/repair.repair_replica): a
    follower lake is diverged by a rogue local write (two ghost keys the
    source never saw), the audit localizes the damage to key-space
    buckets, and the repair transplants ONLY the diverged keys' source
    state — O(diverged), never a re-bootstrap.  The repaired follower
    must equal the source's visible winners, which is exactly what the
    SQL oracle checks (the ghost keys must be GONE).  Negative paths
    (skipped-pass divergence, cell kernel, chunked layout, idempotence)
    are pytest-verified (tests/test_repair.py)."""
    from migration_pair_ray.pipelines.feed import replicate
    from migration_pair_ray.pipelines.repair import repair_replica
    src = _events_lake(sf_dir)
    dst = _follower(sf_dir, "repairq")

    def diverge(_):
        replicate(src, dst)
        ghost = pa.table({
            "conv_id": pa.array(["zz-rogue", "zz-rogue"], pa.string()),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": pa.array(["user", "assistant"], pa.string()),
            "text": pa.array(["not in source", "also not"], pa.string()),
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([9_999_999_999_000_000] * 2,
                           pa.timestamp("us")),
            "op": pa.array(["I", "I"], pa.string()),
            "lsn": pa.array([10**12, 10**12 + 1], pa.int64()),
        })
        pq.write_table(ghost,
                       f"{dst.changelog_dir}/batch-99999-rogue.parquet")
        replay(dst)

    _build_once(_cache_dir(sf_dir, "repairq"), {"ghost_keys": 2}, diverge)
    s = repair_replica(src, dst)
    # first run repairs; re-runs audit clean and no-op (idempotent)
    assert s["repaired"] or s["bad_buckets"] == 0
    return final_state(dst, sort=True)


def cdc_replica_verify(sf_dir: str):
    """Replication audit (feed.verify_replica): layout-independent
    content-equality between the source lake (16 conv-hash partitions)
    and the ``cdc_replica`` follower (8 salted-key partitions) — per-
    key-space-bucket (count, hash-sum, hash-sum²) partials folded on each
    side, driver sees 2 × n_buckets rows.  Returns the MISMATCHED
    buckets; a healthy replica returns the empty table, which is exactly
    what the SQL oracle asserts (empty result, same schema).  The
    negative path (an injected divergence is caught) is pytest-verified
    (tests/test_feed.py)."""
    from migration_pair_ray.pipelines.feed import replicate, verify_replica
    src, dst = _events_lake(sf_dir), _follower(sf_dir, "replica")
    replicate(dst=dst, src=src)   # no-op when the replica is caught up
    return verify_replica(src, dst)


def cdc_replica_bootstrap(sf_dir: str):
    """Snapshot-seeded follower (feed.bootstrap_replica): a NEW follower
    is seeded from the source lake's internal STATE (tombstone winners
    included, original ts/lsn/op intact — delete dominance survives) and
    the replica cursor set to the pre-read seq, so tailing via
    ``replicate`` continues exactly — the compacted-log bootstrap path a
    100-TB source requires (shipping the full history is not an option).
    Oracle: the same LWW winners as the source (cdc_lww_merge); the
    truncated-source and late-pre-tombstone-event paths are
    pytest-verified (tests/test_feed.py)."""
    from migration_pair_ray.pipelines.feed import bootstrap_replica
    dst = _follower(sf_dir, "bootstrap")
    bootstrap_replica(_events_lake(sf_dir), dst)   # no-op once live
    return final_state(dst, sort=True)


def cdc_jsonl_roundtrip(sf_dir: str):
    """Outbound JSONL changefeed → inbound JSONL ingest, end to end: the
    events lake's committed passes are exported as Debezium-style JSONL
    (``feed.export_jsonl``, with ``ts_us`` microsecond fidelity) and
    re-ingested (``sources/jsonl_log``) into a follower lake under a
    different layout (8 salted-key partitions vs 16 conv-hash).  The
    follower must converge to the SAME LWW winners — full wire-format
    round-trip with no ms truncation.  Rerun is a no-op on every leg
    (cursor acked, outputs skipped, replay up to date)."""
    from migration_pair_ray.pipelines.feed import export_jsonl
    from migration_pair_ray.sources.jsonl_log import ingest_jsonl_log
    dst = _follower(sf_dir, "jsonlmirror")
    exp = _cache_dir(sf_dir, "jsonlmirror") / "wire"
    export_jsonl(_events_lake(sf_dir), "jsonl-mirror", str(exp), ack=True)
    ingest_jsonl_log(dst, str(exp))
    return final_state(dst, sort=True)


def cdc_hot_layout(sf_dir: str):
    """Hot-conversation salting on the oracle path: the derived change log
    replayed into a ``partition_mode="hot"`` lake — conv-disjoint placement
    for everything except a recorded whale set, whose keys salt across all
    partitions like mode "key" (stages/partition.py; the north-star's
    "explicit salting of hot conversations to defeat skew").  The whale set
    is picked DETERMINISTICALLY from the stream itself: the top-2
    conversations by event count (distributed histogram partials → one tiny
    groupby → sort desc + limit, ties broken by conv_id), then stamped into
    ``_lake_meta`` as a lake-lifetime layout property.  Layout must never
    change semantics: final state equals the plain LWW winners (same SQL
    oracle as ``cdc_lww_merge``); the whale-spread / cold-disjoint placement
    invariants themselves are asserted in tests/test_hot_mode.py."""
    from ray.data.aggregate import Sum
    from migration_pair_ray.stages.partition import key_histogram
    log = rd.read_parquet(
        sorted(str(p) for p in _derived_log(sf_dir).glob("batch-*.parquet")),
        columns=["conv_id"], file_extensions=None)
    hot = (log.map_batches(key_histogram, batch_format="pyarrow")
           .groupby("conv_id").aggregate(Sum("cnt", alias_name="cnt"))
           .sort(["cnt", "conv_id"], descending=[True, False])
           .limit(2).take_all())
    cfg = _derived_lake(sf_dir, "hot", _WHOLE_LOG, partition_mode="hot",
                        hot_convs=[r["conv_id"] for r in hot])
    return final_state(cfg, sort=True)


def cdc_hotspots(sf_dir: str):
    """Whale probe over the events lake: top-5 conversations by VISIBLE
    key count (``pipelines/fsck.lake_hotspots``) — the operational input
    to choosing a ``partition_mode="hot"`` whale set or a split target.
    conv_id-pruned distributed read, per-block histogram partials, tiny
    groupby, deterministic (n_rows DESC, conv_id ASC) order.  Oracle: the
    same top-5 over the LWW winners in SQL."""
    from migration_pair_ray.pipelines.fsck import lake_hotspots
    cfg = _events_lake(sf_dir)
    return lake_hotspots(cfg, k=5)


def cdc_refill(sf_dir: str):
    """Partition disaster recovery on the oracle path: the derived change
    log replayed into a dedicated lake, then one non-empty partition's
    manifest + state files are DROPPED and rebuilt from the retained log
    (``pipelines/repair.refill_partition`` — O(log read) + one partition's
    merge, sound because the LWW kernels are join-semilattices).  The
    recovered lake must equal the plain winners.  The drop+refill runs on
    every call (idempotent, deterministic pass id) so the recovery path is
    exercised, not cached."""
    from migration_pair_ray.pipelines.repair import refill_partition
    cfg = _derived_lake(sf_dir, "refill", _WHOLE_LOG)
    # deterministic victim: the largest partition
    from migration_pair_ray.state.manifest import ManifestStore
    store = ManifestStore(cfg.manifest_dir)
    pid = max(range(16), key=lambda p: ((store.read(p) or {}).get("row_count", 0), -p))
    from migration_pair_ray.stages.applier import partition_dir
    for sf in partition_dir(cfg.lake_dir, pid).glob("state-*.parquet"):
        sf.unlink()
    store.delete(pid)
    refill_partition(cfg, pid)
    return final_state(cfg, sort=True)


def cdc_snapshot_incremental(sf_dir: str):
    """Incremental snapshot export roundtrip: per-partition visible-state
    files written by pipelines/snapshot.snapshot_incremental (fingerprint-
    keyed — a re-run rewrites nothing on an unchanged lake, asserted
    here), read back and compared to the LWW winners oracle."""
    from migration_pair_ray.pipelines.snapshot import snapshot_incremental
    cfg = _events_lake(sf_dir)
    out = str(_cache_dir(sf_dir, "export_incr"))
    snapshot_incremental(cfg, out)
    again = snapshot_incremental(cfg, out)
    assert again["exported"] == 0, "unchanged lake must fully reuse"
    return (rd.read_parquet(out, file_extensions=["parquet"])
            .sort(["conv_id", "turn_idx"]))
