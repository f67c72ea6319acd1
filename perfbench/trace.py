"""Tracing for the per-layer numbers.

Spans are taken from the benchmark's side of each layer boundary: the
tracer replaces a module attribute or class method of the engine with a
wrapper that records ``(name, start, end, parent, op)`` around every call,
and restores the original afterwards.  Spans stay in memory and are
written out when the run ends.  Nothing here runs in an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None          # id of the operation the spans belong to
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "t0": time.perf_counter(), "t1": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str, note=None) -> None:
        """Record a span around every call of ``owner.attr``.  ``note``
        maps the call's result to extra span fields (counts)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = original(*args, **kwargs)
                if note is not None:
                    rec.update(note(out))
                return out

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install_engine_spans(self) -> None:
        """Spans around the driver-side calls of the engine's layers."""
        from migration_pair_ray.pipelines import lookup, replay
        from migration_pair_ray.state import manifest
        self.wrap(replay, "replay", "replay.pass")
        self.wrap(replay, "discover", "changelog.discover")
        self.wrap(replay, "unified_schema", "changelog.schema")
        self.wrap(replay, "apply_changes_ds", "replay.apply")
        for method in ("committed_files", "committed_sizes", "pass_seqs"):
            self.wrap(manifest.CheckpointStore, method, "checkpoint.scan")
        self.wrap(manifest.CheckpointStore, "commit_pass", "checkpoint.commit")
        self.wrap(manifest.ManifestStore, "read", "manifest.read")
        self.wrap(lookup, "candidate_plan", "lookup.plan",
                  note=lambda plan: {
                      "partitions": len(plan),
                      "files": sum(len(e["files"]) for e in plan.values())})

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------
    def named(self, name: str, op_kind: str | None = None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and s["t1"] is not None
                and (op_kind is None or (s["op"] or "").startswith(op_kind))]

    def durations(self, name: str, op_kind: str | None = None) -> list[float]:
        return [s["t1"] - s["t0"] for s in self.named(name, op_kind)]

    def per_op_total(self, name: str, op_kind: str | None = None) -> list[float]:
        """Summed duration of ``name`` spans within each operation."""
        tot: dict = {}
        for s in self.named(name, op_kind):
            tot[s["op"]] = tot.get(s["op"], 0.0) + s["t1"] - s["t0"]
        return list(tot.values())

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the part covered by child spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["t1"] is not None:
                child[s["parent"]] += s["t1"] - s["t0"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if s["t1"] is None:
                continue
            d = s["t1"] - s["t0"]
            e = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            e["calls"] += 1
            e["total_s"] += d
            e["self_s"] += d - child[s["id"]]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"self_times": self.self_times(),
                                    "spans": self.spans}))


def median(xs: list[float], default: float = 0.0) -> float:
    return statistics.median(xs) if xs else default


def lineage_stats(lineages: list[list[dict]],
                  change_bytes: list[int]) -> dict[str, float]:
    """Applier numbers from the engine's own per-pass lineage records (one
    row per partition; ``change_bytes``: change-file bytes each pass
    consumed): medians over passes, write amplification over all."""
    per = {"busy_s": [], "rows_in": [], "rows_state": [], "bytes": [],
           "touched": [], "skew": []}
    for t in lineages:
        live = [r for r in t if not r["skipped"]]
        rows_in = [r["rows_in"] for r in live]
        per["busy_s"].append(sum(r["seconds"] for r in live))
        per["rows_in"].append(sum(rows_in))
        per["rows_state"].append(sum(r["rows_state"] for r in live))
        per["bytes"].append(sum(r["bytes"] for r in live))
        per["touched"].append(len(live))
        mean_in = sum(rows_in) / len(rows_in) if rows_in else 0.0
        per["skew"].append(max(rows_in) / mean_in if mean_in else 0.0)
    consumed = sum(change_bytes)
    return {
        "applier.busy_s": median(per["busy_s"]),
        "applier.rows_in": median(per["rows_in"]),
        "applier.rows_state": median(per["rows_state"]),
        "applier.bytes_written": median(per["bytes"]),
        "applier.partitions_touched": median(per["touched"]),
        "applier.write_amp": sum(per["bytes"]) / consumed if consumed else 0.0,
        "partition.skew": median(per["skew"]),
    }


def kernel_probe(files: list[str], work_dir: Path) -> dict[str, float]:
    """Standalone timings of the per-event layers on change files, in the
    order the pipeline applies them, outside any timed loop.  The read
    layer is the engine's ``read_changes`` Dataset (parquet read plus the
    normalize map) consumed to the end; the kernels run in this process
    on batches read with pyarrow.  Call it with every logical CPU free."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from migration_pair_ray.config import JobConfig
    from migration_pair_ray.functions.lww import merge_tables, reduce_events
    from migration_pair_ray.functions.normalize import normalize_batch
    from migration_pair_ray.sources.changelog import read_changes, unified_schema
    from migration_pair_ray.stages.applier import write_state_parquet
    from migration_pair_ray.stages.partition import add_partition_column
    from perfbench.config import JOB

    clock = time.perf_counter
    schema = unified_schema(files)
    t = clock()
    n = sum(b.num_rows for b in read_changes(files, schema).iter_batches(
        batch_size=None, batch_format="pyarrow"))
    t_read = clock() - t
    raw = [pq.read_table(f) for f in files]
    t = clock()
    norm = [normalize_batch(b, schema) for b in raw]
    t_norm = clock() - t
    t = clock()
    reduced = [reduce_events(b) for b in norm]
    t_reduce = clock() - t
    n_out = sum(b.num_rows for b in reduced)
    cfg = JobConfig(**JOB)
    t = clock()
    for b in reduced:
        add_partition_column(b, cfg.num_partitions, cfg.partition_mode)
    t_part = clock() - t
    # merge: state folded from all but the last file, then the last file's
    # reduced changes merged into it (a pass over one partition's worth)
    existing = reduce_events(pa.concat_tables(reduced[:-1])) if len(reduced) > 1 else None
    t = clock()
    merged = merge_tables(existing, reduced[-1])
    t_merge = clock() - t
    work_dir.mkdir(parents=True, exist_ok=True)
    t = clock()
    write_state_parquet(merged, str(work_dir / "probe-state.parquet"))
    t_write = clock() - t
    mev = n / 1e6
    return {
        "changelog.read_mevents_per_s": mev / t_read,
        "normalize.ms_per_mevent": 1e3 * t_norm / mev,
        "lww.reduce_ms_per_mevent": 1e3 * t_reduce / mev,
        "lww.combiner_ratio": n_out / n,
        "partition.ms_per_mevent": 1e3 * t_part / mev,
        "lww.merge_ms": 1e3 * t_merge,
        "applier.write_ms": 1e3 * t_write,
    }
