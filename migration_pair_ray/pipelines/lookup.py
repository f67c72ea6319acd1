"""Point lookup: serve a handful of keys from the lake without a scan.

The read-side counterpart of the write path's placement discipline: a key
``(conv_id, turn_idx)`` lives in exactly ONE partition (stages/partition),
and within a chunked partition in exactly ONE key-range chunk file
(manifest ``key_lo``/``key_hi``).  A lookup therefore touches

    O(#keys) manifest reads  +  the few chunk files whose range matches,

never the lake — at 100 TB this is the serving path.  Each touched file is
opened once, to decode, and only its row groups whose ``conv_id``
statistics can hold a requested conv are decoded
(``read_covering_row_groups``), so even the touched file's I/O is bounded.
State-file footers and Bloom sidecars are published once and never
rewritten, so this process parses each once (``readers.read_footer``,
``bloom.load_sidecar``; an ``os.stat`` validates the kept parse): a warm
lookup reads ``_lake_meta.json``, its manifests and the data it decodes,
and no footer or sidecar.  The reference had this for free
(Cassandra point reads); an engine that owns its lake must own it
explicitly.

A request costs about its data: it reads ``_lake_meta.json`` once and
derives kernel, routing and partition enumeration from that snapshot, and
it folds versions with the kernel only in a partition where two files
contributed rows (a single state file already holds the reduced form).

Driver-side by design: a point lookup is a latency path, not a throughput
job — shipping it through a Dataset would add scheduling overhead to read
three files.  ``fetch_conversations`` returns a Dataset of whole
conversations from the same plan and picks its executor like
``read_lake`` does (``replay.read_in_driver`` over the planned footer
bytes): a plan within Ray Data's block target is read in the driver into
one block, a larger one runs one Ray task per planned partition.  Bulk
key-set extraction (10^6+ keys) is a different op: use ``read_lake`` + a
broadcast-set filter.
"""

from __future__ import annotations

import bisect
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from migration_pair_ray.config import JobConfig
from migration_pair_ray.functions.lww import finalize_visible, reduce_events
from migration_pair_ray.state.bloom import load_sidecar
from migration_pair_ray.state.manifest import (LakeMeta, ManifestStore,
                                               base_entries)


def _route(conv_ids: list[str], turn_idx: list[int] | None,
           num_partitions: int, mode: str,
           splits: dict[int, tuple[int, int]] | None,
           hot_convs: tuple = ()) -> np.ndarray | None:
    """Partition id per key, or None when routing is impossible (mode
    "key" without turn_idx — the conversation's turns are salted across
    all partitions by design).  Mode "hot" without turn_idx SPLITS a
    mixed request instead of giving up: cold conversations route by conv
    hash as usual and only the whale entries come back as ``-1`` ("fans
    out to every partition") — one whale in a 10^6-conv fetch must not
    cost the cold majority its routing."""
    from migration_pair_ray.stages.partition import key_partition_ids
    if turn_idx is None and mode == "key":
        return None
    ids = key_partition_ids(conv_ids, turn_idx, num_partitions, mode, splits,
                            hot_convs).astype(np.int64)
    if turn_idx is None and mode == "hot":
        whales = set(conv_ids) & set(hot_convs)
        if whales:
            # a whale's turns are salted across all partitions; its
            # sentinel-turn id above is meaningless — mark for fan-out
            mask = np.fromiter((c in whales for c in conv_ids),
                               dtype=bool, count=len(conv_ids))
            ids[mask] = -1
    return ids


def candidate_files(cfg: JobConfig, conv_ids: list[str],
                    turn_idx: list[int] | None = None) -> list[str]:
    """The lake-relative state files a lookup of these keys must read —
    the pruning plan (exposed for tests/ops visibility).  Partition
    routing first, then chunk key-range pruning: a chunk whose
    ``[key_lo, key_hi]`` tuple range cannot contain any requested conv_id
    is skipped."""
    return [f for files in
            candidate_files_by_pid(cfg, conv_ids, turn_idx).values()
            for f in files]


def candidate_files_by_pid(cfg: JobConfig, conv_ids: list[str],
                           turn_idx: list[int] | None = None
                           ) -> dict[int, list[str]]:
    """``candidate_files`` grouped by partition — the per-partition plan
    ``fetch_conversations`` fans out over (one read per pid).  Within a
    pid the list holds EVERY file whose range/bloom covers a requested
    conv (base, chunks AND MoR deltas), so a per-pid kernel fold sees each
    key's complete row set — the ``finalize_visible`` precondition."""
    return {pid: e["files"]
            for pid, e in candidate_plan(cfg, conv_ids, turn_idx).items()}


def candidate_plan(cfg: JobConfig, conv_ids: list[str],
                   turn_idx: list[int] | None = None,
                   layout: dict | None = None) -> dict[int, dict]:
    """Per-partition lookup plan: ``{pid: {"files": [...], "convs":
    [...]}}``.  Each partition is pruned against only ITS OWN requested
    conversations (under a routed layout a partition can never hold
    another partition's convs — pruning with the full request would keep
    chunks that cannot match).  A mixed hot-mode request splits: cold
    convs go to their routed partition only, whale convs (``_route``
    id -1) join every active partition's subset.

    ``layout``: the ``LakeMeta.read()`` snapshot the caller took (``{}``
    for a lake without one); routing and enumeration both come from it,
    so a split published mid-request cannot mix two layouts.  None reads
    it here."""
    meta = LakeMeta(cfg.lake_dir)
    cur = meta.read() if layout is None else layout
    if not cur:
        return {}
    p, mode = int(cur["num_partitions"]), cur["partition_mode"]
    route = _route(conv_ids, turn_idx, p, mode, meta.splits(cur),
                   meta.hot_convs(cur))
    active = meta.active_partition_ids(cfg.num_partitions, cur)
    per_conv: dict[int, set] = {}
    per_pairs: dict[int, set] = {}
    if route is None:                      # salted layout: full fan-out
        for pid in active:
            per_conv[pid] = set(conv_ids)
    else:
        for i, r in enumerate(route.tolist()):
            for pid in (active if r == -1 else (int(r),)):
                per_conv.setdefault(pid, set()).add(conv_ids[i])
                if turn_idx is not None:
                    per_pairs.setdefault(pid, set()).add(
                        (conv_ids[i], turn_idx[i]))
    store = ManifestStore(cfg.manifest_dir)
    out: dict[int, dict] = {}
    for pid in sorted(per_conv):
        m = store.read(pid)
        if not m:
            continue
        want = sorted(per_conv[pid])
        pairs = (sorted(per_pairs[pid]) if turn_idx is not None else None)

        def bloom_hits(rel: str) -> bool:
            # second pruning stage after the key range: the file's Bloom
            # sidecar (state/bloom.py).  Missing/corrupt sidecar ->
            # candidate (an accelerator, never an authority).
            blm = load_sidecar(Path(cfg.lake_dir) / rel)
            if blm is None:
                return True
            return (blm.may_contain_pairs(pairs) if pairs is not None
                    else blm.may_contain_conv(want))

        def range_hits(lo: str, hi: str) -> bool:
            # chunk covers some requested conv c iff lo <= c <= hi:
            # binary search on the sorted conv set — O(log |want|) per
            # entry, so a 10^6-conversation fetch plans in ~20
            # comparisons per chunk
            i = bisect.bisect_left(want, lo)
            return i < len(want) and want[i] <= hi

        # base entries (a single data_file has no key range: its sidecar
        # alone prunes it), then merge-on-read deltas: a delta whose
        # range covers a requested conv may hold a NEWER version of the
        # key, so it must join the plan (lookup_keys reduces winners
        # after read)
        files = [e["file"]
                 for e in base_entries(m) + m.get("delta_files", [])
                 if ("key_lo" not in e
                     # tuple range projected onto the conv component
                     or range_hits(str(e["key_lo"][0]), str(e["key_hi"][0])))
                 and bloom_hits(e["file"])]
        if files:
            out[pid] = {"files": files, "convs": want}
    return out


def read_covering_row_groups(path: str, convs: list[str]) -> pa.Table:
    """One state file's rows whose ``conv_id`` is in ``convs`` (sorted):
    a row group is decoded only if its ``conv_id`` min/max statistics can
    hold a requested conv (every row group when the file has no such
    statistics), then the rows are filtered exactly.  The footer comes
    from ``read_footer`` (parsed once per process), so the file is opened
    once, to decode, and not at all when no row group can hold a
    requested conv."""
    from migration_pair_ray.sources.readers import read_footer
    arrow, _, md = read_footer(path)
    col = md.schema.names.index("conv_id")
    keep = []
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(col).statistics
        if st is None or not st.has_min_max:
            keep.append(i)
            continue
        k = bisect.bisect_left(convs, st.min)
        if k < len(convs) and convs[k] <= st.max:
            keep.append(i)
    if not keep:
        return arrow.empty_table()
    with pq.ParquetFile(path, metadata=md) as f:
        t = f.read_row_groups(keep, use_threads=False)
    conv = t.column("conv_id")
    return t.filter(pc.is_in(conv, value_set=pa.array(convs, conv.type)))


def _pid_rows(lake_dir: str, rels: list[str], convs: list[str], kernel: str,
              schema: pa.Schema | None = None) -> pa.Table | None:
    """One planned partition's rows for ``convs`` (None when no file
    holds any): each file read once by ``read_covering_row_groups`` and
    conformed to ``schema`` when given.  The kernel fold runs only when
    two or more files contributed rows — the only case where a key can
    have two versions (base + merge-on-read deltas, or chunks); one state
    file already holds the reduced form.  Valid per partition: a key
    lives in exactly one partition and the plan lists every file covering
    it, so the fold sees each key's complete row set."""
    from migration_pair_ray.schemas import conform_batch
    tables = []
    for rel in rels:
        t = read_covering_row_groups(str(Path(lake_dir) / rel), convs)
        if t.num_rows:
            tables.append(t if schema is None else conform_batch(t, schema))
    if len(tables) <= 1:
        return tables[0] if tables else None
    return reduce_events(pa.concat_tables(tables, promote_options="permissive"),
                         kernel)


def lookup_keys(cfg: JobConfig, conv_ids: list[str],
                turn_idx: list[int] | None = None,
                visible_only: bool = True) -> pa.Table:
    """Rows for the requested keys, (conv_id, turn_idx)-sorted.

    ``turn_idx=None``: every turn of each conversation (conv-level).
    ``turn_idx`` given (parallel to ``conv_ids``): exactly those turns —
    and the only form that routes to single partitions under the salted
    ``partition_mode="key"`` layout.
    ``visible_only``: the user-facing shape — LWW winners minus tombstones
    (row kernel) or the per-key cell fold (cell kernel: the plan fetched
    every file whose range/bloom covers a key, so the candidate set holds
    the key's COMPLETE determiner rows — the precondition
    ``finalize_visible`` documents).  False returns internal state rows
    (one winner per key, or the determiner set under the cell kernel).

    One ``_lake_meta.json`` read gives the kernel and the plan; each
    planned partition is read by ``_pid_rows`` (one open per file,
    covering row groups only, a kernel fold only where two files hold
    rows).
    """
    if turn_idx is not None and len(turn_idx) != len(conv_ids):
        raise ValueError("turn_idx must parallel conv_ids")
    meta = LakeMeta(cfg.lake_dir)
    layout = meta.read() or {}
    kernel = meta.merge_kernel(layout)
    plan = candidate_plan(cfg, conv_ids, turn_idx, layout)
    tables = [t for _, e in sorted(plan.items())
              if (t := _pid_rows(cfg.lake_dir, e["files"], e["convs"],
                                 kernel)) is not None]
    if not tables:
        from migration_pair_ray.schemas import CHANGE_SCHEMA
        out = CHANGE_SCHEMA.empty_table()
    else:
        out = pa.concat_tables(tables, promote_options="permissive")
    if turn_idx is not None and out.num_rows:
        key = pc.binary_join_element_wise(
            out.column("conv_id"),
            pc.cast(out.column("turn_idx"), pa.string()), "\x00")
        want_keys = pa.array([f"{c}\x00{t}" for c, t in zip(conv_ids, turn_idx)])
        out = out.filter(pc.is_in(key, value_set=want_keys))
    if visible_only:
        out = finalize_visible(out, kernel)
    return out.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _fetch_pid_table(lake_dir: str, rels: list[str], want: list[str],
                     kernel: str, visible_only: bool,
                     schema: pa.Schema) -> pa.Table:
    """One partition's rows for the requested conversations (sorted
    ``want``): ``_pid_rows`` (one open per file, covering row groups
    only, a kernel fold where base + MoR deltas or chunks both hold rows),
    then the optional visibility finalize.

    ``schema`` is the footer-unified schema of EVERY planned file (driver-
    computed): each task conforms to it before the fold, so every block
    of the Dataset union carries the same columns in the same order —
    schema evolution can otherwise leave one partition's state without a
    later column (or with a different field order), and the empty branch
    goes through the same conform+finalize so a bloom false positive
    cannot emit a differently-shaped block."""
    out = _pid_rows(lake_dir, rels, want, kernel, schema)
    if out is None:
        out = schema.empty_table()
    if visible_only:
        out = finalize_visible(out, kernel)
    return out


def fetch_conversations(cfg: JobConfig, conv_ids: list[str],
                        visible_only: bool = True) -> "object":
    """Bulk conversation fetch: the Dataset sibling of ``lookup_keys`` —
    returns a ``ray.data.Dataset`` of the requested conversations'
    visible rows, reading only the partitions/chunks the routing plan
    names (``candidate_plan``).

    The middle ground the module docstring promises: point lookups stay
    driver-side (latency path), full extractions use ``read_lake`` — a
    10^3–10^6-conversation fetch wants BOTH pruning and parallelism.  Each
    planned partition is one ``_fetch_pid_table`` call that reads its
    pruned files, folds winners per kernel, and filters to the conv set.
    Under mode "conv"/"hot" (cold convs) the plan touches only the routed
    partitions — and each call receives only ITS convs, not the full
    request; salted layouts fan out to all partitions but still prune
    chunks by key range + bloom.

    Two executors, chosen like ``read_lake``'s by
    ``replay.read_in_driver`` over the planned files' footer bytes: a
    plan within Ray Data's block target runs every partition in the
    driver (footers from ``read_footer``, parsed once per process, so
    each file is opened once, to decode) and returns one block through
    ``readers.driver_dataset``; a larger plan runs one Ray task per
    partition (``from_arrow_refs``).  The driver loop stays serial: a
    fetch plans a few files, and a thread pool's start-up costs more than
    their decode overlaps."""
    import ray.data as rd
    from migration_pair_ray.pipelines.replay import read_in_driver, remote_call
    from migration_pair_ray.sources.readers import driver_dataset, read_footer
    from migration_pair_ray.schemas import unify_change_schemas

    meta = LakeMeta(cfg.lake_dir)
    layout = meta.read() or {}
    kernel = meta.merge_kernel(layout)
    plan = candidate_plan(cfg, conv_ids, layout=layout)
    if not plan:
        from migration_pair_ray.schemas import CHANGE_SCHEMA
        empty = CHANGE_SCHEMA.empty_table()
        if visible_only:
            empty = finalize_visible(empty, kernel)
        return driver_dataset([empty])
    # one footer-read pass unifies the planned files' schemas (evolution:
    # a partition untouched since before a column appeared must still emit
    # union-compatible blocks) and sizes the plan for the executor choice
    paths = [str(Path(cfg.lake_dir) / r)
             for e in plan.values() for r in e["files"]]
    footers = [read_footer(p) for p in paths]
    schema = unify_change_schemas([s for s, _, _ in footers])
    # per-pid conv subsets come from the plan: under routed layouts each
    # partition holds only its own convs — shipping the full request to
    # every task is O(P·|want|); a mixed hot-mode request ships the cold
    # convs only to their routed partition (whales to all)
    if read_in_driver(sum(n for _, n, _ in footers)):
        return driver_dataset(
            [_fetch_pid_table(cfg.lake_dir, e["files"], e["convs"], kernel,
                              visible_only, schema)
             for pid, e in sorted(plan.items())])
    return rd.from_arrow_refs(
        [remote_call.remote(_fetch_pid_table, cfg.lake_dir, e["files"],
                            e["convs"], kernel, visible_only, schema)
         for pid, e in sorted(plan.items())])
