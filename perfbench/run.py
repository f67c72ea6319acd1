"""Benchmark of the CDC engine: one command, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The run starts a local Ray instance with
the pinned settings of perfbench/config.py, sets up the workload's inputs
from the seed, measures for ``--seconds`` seconds, checks every output
against an independent oracle, and prints as the last line of standard
output one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics).  The line before it holds the run's
raw samples.  A traced run also writes its spans to
``.bench_work/out/``.  Without the engine's sources next to it the run
fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import procs  # noqa: E402


class RssSampler(threading.Thread):
    """Peak resident memory of this process plus every process it
    started (Ray's workers, raylet, GCS), sampled once a second."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.peak = 0.0
        self._stop_evt = threading.Event()

    def run(self) -> None:
        while not self._stop_evt.wait(1.0):
            self.peak = max(self.peak, procs.tree_rss_mb())

    def stop(self) -> None:
        self._stop_evt.set()
        self.join(timeout=10)


def _reap(timeout: float = 20.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    me = os.getpid()
    deadline = time.monotonic() + timeout
    sig = signal.SIGTERM
    while True:
        procs.reap_zombies()
        kids = procs.descendants(me)
        if not kids:
            return
        if time.monotonic() > deadline:
            if sig == signal.SIGKILL:
                return
            sig, deadline = signal.SIGKILL, time.monotonic() + 5
        for k in kids:
            try:
                os.kill(k, sig)
            except OSError:
                pass
        time.sleep(0.2)


def _start_ray(ray_tmp: Path) -> None:
    import ray
    from perfbench import config
    # the process tree (Ray's processes inherit it) runs on the first
    # config.HOST_CPUS CPUs of this process's affinity mask
    cpus = sorted(os.sched_getaffinity(0))[:config.HOST_CPUS]
    os.sched_setaffinity(0, cpus)
    # workers import the engine from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    kwargs = {}
    # Ray's socket paths (about 70 bytes below its temp dir) must fit in
    # 107 bytes; a deep checkout keeps Ray's default session directory
    if len(str(ray_tmp)) <= 36:
        ray_tmp.mkdir(parents=True, exist_ok=True)
        kwargs["_temp_dir"] = str(ray_tmp)
    ray.init(address="local", num_cpus=config.RAY_NUM_CPUS,
             object_store_memory=config.RAY_OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, **kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every generated size (self-test only)")
    args = ap.parse_args(argv)
    # a terminated run still stops Ray (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import migration_pair_ray  # noqa: F401  (fail here when the engine is absent)
    from perfbench import workloads
    from perfbench.trace import Tracer, median

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ray_tmp = ROOT / ".bench_work" / f"r{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Ctx(seed=args.seed, seconds=args.seconds, scale=args.scale,
                        work=work, tracer=Tracer() if args.trace else None)
    res = workloads.Result()
    rss = RssSampler()
    rss.start()
    try:
        t = time.perf_counter()
        _start_ray(ray_tmp)
        ray_init_s = time.perf_counter() - t
        workloads.WORKLOADS[args.workload](ctx, res)
        if ctx.tracer is not None:
            res.detail["swept"] = workloads.layer_sweep(ctx, res)
    finally:
        import ray
        ray.shutdown()
        rss.stop()
        _reap()
        if ctx.tracer is not None:
            ctx.tracer.dump(ROOT / ".bench_work" / "out" /
                            f"{args.workload}-{args.seed}-spans.json")
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    values = {
        "setup_s": ray_init_s + median(res.setup_s),
        "peak_rss_mb": rss.peak,
        **res.layers,
    }
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    res.detail.update(ray_init_s=ray_init_s, setup_reps_s=res.setup_s)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": res.detail}))
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
