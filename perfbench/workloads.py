"""The workloads and the layer sweep of a traced run.  Each workload runs
one closed-loop client in the driver process: the next operation starts
only after the previous one returned and its output was checked (checks
sit outside the timed interval).

An operation is one read request on a quiescent lake.  The first
``config.WARMUP_OPS`` request cycles are checked but not timed.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from perfbench import config, oracle
from perfbench.trace import Tracer, kernel_probe, lineage_stats, median

clock = time.perf_counter


@dataclass
class Ctx:
    seed: int
    seconds: float
    scale: float          # multiplies every generated size (self-test: tiny)
    work: Path            # scratch directory inside the checkout
    tracer: Tracer | None  # None in an untraced run

    def size(self, n: int, floor: int = 1) -> int:
        return max(floor, int(n * self.scale))

    def more(self, deadline: float | None, measured: int) -> bool:
        """Whether a timed loop goes on: until the deadline set after the
        warm-up, and in a traced run for at least two measured operations
        (one traced, one not, for the tracing overhead)."""
        return (deadline is None or clock() < deadline
                or (self.tracer is not None and measured < 2))


@dataclass
class Result:
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # measured in every run: op_ms_p50, rows_per_s; traced runs add the
    # layer metrics
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    # (JobConfig, change files) of the workload's lake: the read layers of
    # a traced run are measured on it when the workload makes no point
    # lookups
    lake: tuple | None = None

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a mismatch is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: MISMATCH {what}", file=sys.stderr)


def _attempt(fn, *args):
    """Run one operation; an exception is reported and counts as failed."""
    try:
        return fn(*args)
    except Exception:  # a failed operation must not end the run
        traceback.print_exc()
        return None


@contextlib.contextmanager
def _traced(ctx: Ctx, op: str, on: bool = True):
    """Engine spans installed for one operation (traced runs only)."""
    if ctx.tracer is None or not on:
        yield
        return
    ctx.tracer.op = op
    ctx.tracer.install_engine_spans()
    try:
        yield
    finally:
        ctx.tracer.restore()
        ctx.tracer.op = None


def mix_rate(rows: dict[str, list[float]], secs: dict[str, list[float]],
             weights: dict[str, float]) -> float:
    """Rows per second of a request mix at the given weights, from the
    per-kind medians (robust to a stalled operation)."""
    num = sum(w * median(rows[k]) for k, w in weights.items() if secs[k])
    den = sum(w * median(secs[k]) for k, w in weights.items() if secs[k])
    return num / den if den else 0.0


def stall_layers(lat: list[float]) -> dict[str, float]:
    mid = median(lat)
    return {"loop.ops": len(lat),
            "loop.op_ms_max": 1e3 * max(lat, default=0.0),
            "loop.stall_ops": sum(x > config.STALL_FACTOR * mid for x in lat)}


def overhead_layer(lat: list[float], traced: list[bool]) -> dict[str, float]:
    """Tracing overhead: traced minus untraced median operation latency
    (a traced run alternates the two)."""
    on = [x for x, t in zip(lat, traced) if t]
    off = [x for x, t in zip(lat, traced) if not t]
    if not on or not off:
        return {}
    return {"trace.overhead_ms": 1e3 * (median(on) - median(off))}


# -- change logs and lakes ---------------------------------------------------

def job(log_dir: Path, lake_dir: Path):
    from migration_pair_ray.config import JobConfig
    return JobConfig(changelog_dir=str(log_dir), lake_dir=str(lake_dir),
                     **config.JOB)


def make_log(out: Path, seed: int, n_events: int, n_files: int,
             tool_epoch: int) -> list[str]:
    from migration_pair_ray.changegen import generate_change_log
    shutil.rmtree(out, ignore_errors=True)
    return generate_change_log(str(out), n_events=n_events, n_files=n_files,
                               tool_epoch=tool_epoch, seed=seed,
                               **config.CHANGES)


def replay_op(cfg, held: list[float] | None = None) -> tuple[dict | None, float]:
    """One ingest operation, timed: ``replay()``, called the way the
    engine's own tailer (``tasks.task_tail``) calls it.  ``held`` (traced
    runs) receives the logical CPUs still held once replay() returned,
    measured outside the timed interval.  Returns the pass result and its
    wall seconds."""
    from migration_pair_ray.pipelines.replay import replay
    t = clock()
    r = _attempt(replay, cfg)
    dt = clock() - t
    if held is not None:
        held.append(held_cpus())
    return r, dt


def held_cpus() -> float:
    """Logical CPUs held by live actors and tasks, after Ray's resource
    view had time to settle."""
    time.sleep(0.5)
    return config.RAY_NUM_CPUS - ray.available_resources().get("CPU", 0.0)


def end_ingest() -> None:
    """End the ingest job in this driver: a finished replay() pass keeps
    its merge actors (and their logical CPUs) until the driver's garbage
    collector frees the Dataset that owns them, as they would be freed
    when a separate ingest process exits.  Called where ingest ends and
    something else starts (serve_reads' lake build, the standalone layer
    probes); never inside or between replay() passes, whose stalls are
    part of what a traced run's tail passes measure."""
    gc.collect()
    deadline = clock() + 10
    while (ray.available_resources().get("CPU", 0.0) < config.RAY_NUM_CPUS
           and clock() < deadline):
        time.sleep(0.05)


def rows_of(files: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def materialize(ds) -> pa.Table:
    """A Dataset's rows in the driver, streamed block by block.  Not
    ``to_arrow_refs()``: it fetches the schema with an extra ``limit(1)``
    execution, whose task cancellation can abort the driver in Ray 2.49
    ("Tried to complete task that was not pending")."""
    tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")


def read_lineage(lake: Path, pass_id: str) -> list[dict]:
    return pq.read_table(lake / "_lineage" / f"pass-{pass_id}.parquet").to_pylist()


def check_final_state(res: Result, cfg, files: list[str], what: str) -> None:
    from migration_pair_ray.pipelines.replay import final_state
    got = _attempt(lambda: materialize(final_state(cfg, sort=False)))
    want = oracle.visible(oracle.lww_winners(files))
    res.check(got is not None and oracle.same_state(got, want),
              f"{what}: final state differs from the oracle")


def ingest_layers(tracer: Tracer, kind: str, passes: list[dict],
                  lake: Path) -> dict[str, float]:
    """Per-layer numbers of replay passes: driver spans of the traced
    passes, applier numbers from the lineage of every pass."""
    apply_s = tracer.durations("replay.apply", kind)
    wall = tracer.durations("replay.pass", kind)
    layers = {
        "changelog.discover_ms": 1e3 * median(tracer.durations("changelog.discover", kind)),
        "changelog.schema_ms": 1e3 * median(tracer.durations("changelog.schema", kind)),
        "checkpoint.scan_ms": 1e3 * median(tracer.per_op_total("checkpoint.scan", kind)),
        "checkpoint.commit_ms": 1e3 * median(tracer.durations("checkpoint.commit", kind)),
        "checkpoint.passes": len(list((lake / "_checkpoint").glob("pass-*.json"))),
        "replay.apply_s": median(apply_s),
        "replay.overhead_s": median([w - a for w, a in zip(wall, apply_s)]),
    }
    layers.update(lineage_stats([p["lineage"] for p in passes],
                                [p["change_bytes"] for p in passes]))
    return layers


# -- tail passes (traced runs: the layer sweep) -------------------------------

def build_tail_base(ctx: Ctx, root: Path, p: dict) -> tuple:
    """Generate the base log plus the tail backlog, and replay the base
    into a fresh lake.  Returns (cfg, log dir, staged tail files)."""
    shutil.rmtree(root, ignore_errors=True)
    stage, log = root / "stage", root / "log"
    per = ctx.size(p["file_events"], 100)
    nb, nt = p["base_files"], p["tail_files"]
    files = make_log(stage, ctx.seed, per * (nb + nt), nb + nt, p["tool_epoch"])
    log.mkdir(parents=True)
    for f in files[:nb]:
        os.replace(f, log / Path(f).name)
    cfg = job(log, root / "lake")
    r, _ = replay_op(cfg)
    if r is None:
        raise RuntimeError("tail base lake: replay failed")
    return cfg, log, files[nb:]


def run_tail(ctx: Ctx, res: Result, cfg, log: Path, backlog: list[str]) -> list[dict]:
    """Land one staged file, replay, repeat until the backlog is
    consumed; every pass traced and checked.  Returns each pass's lineage
    and the change bytes it consumed."""
    lake = Path(cfg.lake_dir)
    passes, held = [], []
    for i, src in enumerate(backlog):
        f = str(log / Path(src).name)
        os.replace(src, f)
        n = rows_of([f])
        with _traced(ctx, f"tail-{i}"):
            r, _ = replay_op(cfg, held)
        res.check(r is not None and r["files"] == 1 and r["events_in"] == n,
                  f"tail pass {i}: {r and {k: r[k] for k in ('files', 'events_in')}}")
        if r is not None:
            passes.append({"lineage": read_lineage(lake, r["pass_id"]),
                           "change_bytes": os.path.getsize(f)})
    res.layers["replay.held_cpus"] = median(held)
    return passes


# -- serve_reads -------------------------------------------------------------

class Requests:
    """Seeded request stream over a quiescent lake's oracle state."""

    def __init__(self, seed: int, idx: oracle.StateIndex, mix: dict[str, int]):
        p = config.SERVE
        self.rng = np.random.default_rng(seed + 1)
        self.idx, self.mix, self.p = idx, mix, p
        self.keys = sorted(idx.by_key)
        self.convs = sorted(idx.by_conv)
        self.hot = [k for k in self.keys if k[0] == config.HOT_CONV]
        self.absent_turn = config.CHANGES["turns_per_conv"] * 1000
        self.cycle: list[str] = []

    def next(self) -> tuple[str, object]:
        if not self.cycle:
            self.cycle = [k for k, n in self.mix.items() for _ in range(n)]
            self.rng.shuffle(self.cycle)
        kind = self.cycle.pop()
        rng, p = self.rng, self.p
        if kind == "lookup":
            r = rng.random()
            if r < p["hot_key_frac"] and self.hot:
                key = self.hot[rng.integers(len(self.hot))]
            elif r < p["hot_key_frac"] + p["absent_frac"]:
                key = (self.convs[rng.integers(len(self.convs))],
                       self.absent_turn + int(rng.integers(1000)))
            elif (r < p["hot_key_frac"] + p["absent_frac"] + p["tombstone_frac"]
                  and self.idx.tombstones):
                key = self.idx.tombstones[rng.integers(len(self.idx.tombstones))]
            else:
                key = self.keys[rng.integers(len(self.keys))]
            return kind, key
        if kind == "fetch":
            n = min(p["fetch_convs"], len(self.convs))
            convs = [self.convs[j] for j in
                     rng.choice(len(self.convs), n, replace=False)]
            return kind, sorted(convs)
        return kind, None


def serve_loop(ctx: Ctx, res: Result, cfg, idx: oracle.StateIndex,
               mix: dict[str, int], timed: bool) -> dict:
    """Closed loop of read requests, each checked against the oracle:
    for ``ctx.seconds`` after the warm-up cycle when ``timed``, else
    through one request cycle of ``mix``, all measured."""
    from migration_pair_ray.pipelines.lookup import fetch_conversations, lookup_keys
    from migration_pair_ray.pipelines.replay import final_state
    reqs = Requests(ctx.seed, idx, mix)
    secs = {k: [] for k in mix}
    rows = {k: [] for k in mix}
    lat, traced = [], []
    warmup = config.WARMUP_OPS * sum(mix.values())   # whole request cycles
    i, deadline = 0, None
    while timed or i < sum(mix.values()):
        if timed and not ctx.more(deadline, len(lat)):
            break
        kind, arg = reqs.next()
        on = i % 2 == 0
        with _traced(ctx, f"{kind}-{i}", on):
            t = clock()
            if kind == "lookup":
                out = _attempt(lookup_keys, cfg, [arg[0]], [arg[1]])
            elif kind == "fetch":
                out = _attempt(lambda: materialize(fetch_conversations(cfg, arg)))
            else:
                out = _attempt(lambda: materialize(final_state(cfg, sort=False)))
            dt = clock() - t
        if out is None:
            ok = False
        elif kind == "lookup":
            want = [idx.by_key[arg]] if arg in idx.by_key else []
            ok = idx.check_rows(out, want)
        elif kind == "fetch":
            ok = idx.check_rows(out, [r for c in arg for r in idx.by_conv.get(c, [])])
        else:
            ok = oracle.same_state(out, idx.table)
        res.check(ok, f"{kind} request {i} ({arg})")
        if i >= warmup or not timed:
            secs[kind].append(dt)
            rows[kind].append(out.num_rows if out is not None else 0)
            lat.append(dt)
            traced.append(on)
        i += 1
        if timed and i == warmup:
            deadline = clock() + ctx.seconds
    return {"secs": secs, "rows": rows, "lat": lat, "traced": traced}


def read_layers(ctx: Ctx, cfg, loop: dict) -> dict[str, float]:
    from migration_pair_ray.stages.applier import state_file_paths
    from migration_pair_ray.state.manifest import LakeMeta, ManifestStore
    tr, secs, rows = ctx.tracer, loop["secs"], loop["rows"]
    plans = tr.named("lookup.plan", "lookup")
    fetch_plans = tr.named("lookup.plan", "fetch")
    store = ManifestStore(cfg.manifest_dir)
    pids = LakeMeta(cfg.lake_dir).active_partition_ids(cfg.num_partitions)
    n_files = sum(len(state_file_paths(cfg.lake_dir, store.read(pid)))
                  for pid in pids)
    look = sorted(secs["lookup"])
    return {
        "manifest.read_ms": 1e3 * median(tr.durations("manifest.read", "lookup")),
        "lookup.plan_ms": 1e3 * median(tr.durations("lookup.plan", "lookup")),
        "lookup.files_per_key": (sum(s["files"] for s in plans) / len(plans)
                                 if plans else 0.0),
        "fetch.partitions_per_fetch": (
            sum(s["partitions"] for s in fetch_plans) / len(fetch_plans)
            if fetch_plans else 0.0),
        "scan.files": n_files,
        "scan.s": median(secs["scan"]),
        "serve.lookup_ms_p50": 1e3 * median(look),
        "serve.lookup_ms_p90": 1e3 * (look[int(0.9 * (len(look) - 1))] if look else 0.0),
        "serve.fetch_ms_p50": 1e3 * median(secs["fetch"]),
        "serve.scan_rows_per_s": median(
            [r / s for r, s in zip(rows["scan"], secs["scan"])]),
    }


def serve_reads(ctx: Ctx, res: Result, mix: dict[str, int] | None = None) -> None:
    """Build a quiescent lake, then serve the requests of ``mix``
    (default: the serve_reads mix) on it."""
    p = config.SERVE
    mix = mix or p["mix"]
    for _ in range(config.SETUP_REPS):
        t = clock()
        log, lake = ctx.work / "log", ctx.work / "lake"
        shutil.rmtree(lake, ignore_errors=True)
        files = make_log(log, ctx.seed, ctx.size(p["n_events"], 1000),
                         p["n_files"], p["tool_epoch"])
        cfg = job(log, lake)
        r, _ = replay_op(cfg)
        if r is None:
            raise RuntimeError("serve lake: replay failed")
        end_ingest()
        res.setup_s.append(clock() - t)
    winners = oracle.lww_winners(files)
    idx = oracle.StateIndex(winners)
    res.check(r["rows_state"] == winners.num_rows, "serve lake: state row count")
    loop = serve_loop(ctx, res, cfg, idx, mix, timed=True)
    res.layers.update({
        "op_ms_p50": 1e3 * median(loop["lat"]),
        "rows_per_s": mix_rate(loop["rows"], loop["secs"], mix)})
    res.detail.update({f"{k}_s": v for k, v in loop["secs"].items()},
                      state_rows=idx.num_rows)
    if ctx.tracer is not None:
        if "lookup" in mix:
            res.layers.update(read_layers(ctx, cfg, loop))
        # stalls among the most frequent kind: the others are slower by design
        res.layers.update(stall_layers(loop["secs"][max(mix, key=mix.get)]))
        res.layers["loop.ops"] = len(loop["lat"])
        res.layers.update(overhead_layer(loop["lat"], loop["traced"]))
    res.lake = (cfg, files)


def scan_reads(ctx: Ctx, res: Result) -> None:
    serve_reads(ctx, res, config.SCAN_MIX)


# -- operator suite (traced runs: the layer sweep) ----------------------------

def make_tables(ctx: Ctx) -> dict[str, int]:
    from perfbench.tables import generate_tables
    sizes = {k: ctx.size(v, 10) for k, v in config.SUITE["tables"].items()}
    sizes["dim"] = config.SUITE["tables"]["dim"]
    return generate_tables(str(ctx.work / "tables"), ctx.seed, sizes)


def _result_table(out):
    """Consume a query result inside the timed interval."""
    import ray.data
    return materialize(out) if isinstance(out, ray.data.Dataset) else out


def suite_round(ctx: Ctx, res: Result, counts: dict[str, int]) -> dict[str, float]:
    """Run every suite query once, in a span, its result checked against
    the oracle.  Returns each query's wall seconds."""
    import __ray_entry__
    fns = __ray_entry__.queries()
    table_dir = str(ctx.work / "tables")
    oq = oracle.SuiteOracle(table_dir, sorted(counts))
    times: dict[str, float] = {}
    try:
        for q in config.SUITE["queries"]:
            with ctx.tracer.span(f"op.{q}"):
                t = clock()
                out = _attempt(lambda: _result_table(fns[q](table_dir)))
                times[q] = clock() - t
            res.check(out is not None
                      and oracle.same_frame(oracle.frame(out), oq.expected(q)),
                      f"query {q}")
    finally:
        oq.close()
    return times


# -- the layer sweep of a traced run -----------------------------------------

def layer_sweep(ctx: Ctx, res: Result) -> list[str]:
    """Measure the layers the read workloads do not call, so a traced run
    reports every per-layer metric: tail passes (ingest), point reads on
    the workload's lake when it made none, one round of the operator
    suite.  Returns the names of the parts swept."""
    swept = ["ingest"]
    p = config.TAIL
    cfg, log, backlog = build_tail_base(ctx, ctx.work / "sweep", p)
    passes = run_tail(ctx, res, cfg, log, backlog)
    files = sorted(str(f) for f in log.glob("batch-*.parquet"))
    check_final_state(res, cfg, files, "tail passes")
    res.layers.update(ingest_layers(ctx.tracer, "tail", passes, Path(cfg.lake_dir)))
    end_ingest()
    res.layers.update(kernel_probe(files[p["base_files"]:], ctx.work / "probe"))
    if "lookup.plan_ms" not in res.layers:
        cfg, files = res.lake
        idx = oracle.StateIndex(oracle.lww_winners(files))
        loop = serve_loop(ctx, res, cfg, idx, config.SWEEP_MIX, timed=False)
        res.layers.update(read_layers(ctx, cfg, loop))
        swept.append("reads")
    times = suite_round(ctx, res, make_tables(ctx))
    res.layers.update({f"op.{q}_s": v for q, v in times.items()})
    swept.append("operators")
    return swept


WORKLOADS = {
    "serve_reads": serve_reads,
    "scan_reads": scan_reads,
}
