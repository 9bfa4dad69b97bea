"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload soc100k --seed 1 --seconds 9 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 9

Workloads: soc100k, cold_solve, eco100k, serve_2k (see README.md); ``all``
runs each in its own process.  Run from any directory; the package is
imported from ``src/`` next to this directory.

``--trace 0`` runs the workload in ``SETUPS`` fresh processes; each sets it
up once and runs closed-loop operations for an equal share of ``--seconds``.
It reports the end-to-end metrics: the median set-up, and times normalized to
reference machine speed (:class:`MachineSpeed`).  ``--trace 1`` runs a fixed
number of operations twice in one process, first untraced and then with span
wrappers installed, and reports per-layer metrics from the traced half.
Either way the output checks and their canaries run after the timed
operations, and the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Processes (each with one set-up) per measured run; ``setup_s`` is the
#: median set-up.
SETUPS = 3
#: Operations in each half of a traced run (fixed, so counters repeat exactly).
TRACE_STEPS = {"soc100k": 20, "cold_solve": 5, "eco100k": 100, "serve_2k": 3000}
#: A seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 9001

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("delay_err_max_pct", "%"),
    ("slew_err_max_pct", "%"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    from spans import SERVE_ROUTES, SETUP_SPANS, SPAN_NAMES

    names = []
    for span in SPAN_NAMES:
        unit = "s" if span in SETUP_SPANS else "s/op"
        names += [(f"{span}.s", unit), (f"{span}.self_s", unit)]
    names += [(f"serve.route.{route}.p50_ms", "ms") for route in SERVE_ROUTES]
    names += [
        ("sta.compiled.key_dedupe_ratio", "ratio"),
        ("sta.compiled.patched_nets", "count/op"),
        ("sta.incremental.cone_nets", "count/op"),
        ("sta.incremental.converged_early_ratio", "ratio"),
        ("core.stage_solver.requests", "count/op"),
        ("core.stage_solver.computed", "count/op"),
        ("core.stage_solver.hit_rate", "ratio"),
        ("interconnect.moments.calls", "count/op"),
        ("circuit.transient.kernel.calls", "count/op"),
        ("core.far_end.kernel_reuse_ratio", "ratio"),
        ("api.report.events_rebuilt", "count/op"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q < 1)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail(values: List[float]):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if len(values) * (1 - q) >= 10:
            return label, percentile(values, q)
    return None


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Seconds the calibration kernel takes at reference machine speed (its
#: median on the 2-vCPU Xeon container the benchmark was tuned on).
REFERENCE_KERNEL_S = 0.016
#: Wall time between calibration samples in a timed window.
CALIBRATION_INTERVAL_S = 0.25
#: Calibration samples this close to an operation set its speed factor.
SMOOTHING_S = 1.0


class MachineSpeed:
    """Interleaved samples of a fixed kernel, to normalize times to one speed.

    On a shared host the same code runs up to ~1.8x slower for seconds at a
    time, in user CPU time as much as in wall time.  The benchmark times a
    fixed mix of interpreter and numpy work between operations, and reports
    every time multiplied by ``REFERENCE_KERNEL_S / kernel time``: the time
    the operation would have taken at reference speed.  Calibration runs
    between operations, never inside one.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._values = np.random.default_rng(0).random(200_000)
        self._planes = np.ones(2_000_000), np.empty(2_000_000)
        self.times: List[float] = []
        self.kernel: List[float] = []

    def sample(self) -> None:
        """Time the kernel once: interpreter, in-cache sort, 16 MB copies."""
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        self._np.argsort(self._values)
        for _ in range(2):
            self._np.copyto(self._planes[1], self._planes[0])
        self.times.append(time.perf_counter())
        self.kernel.append(self.times[-1] - started)

    def due(self) -> bool:
        return (not self.times
                or time.perf_counter() - self.times[-1] >= CALIBRATION_INTERVAL_S)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the median speed measured around ``[start, end]``.

        The median covers the samples within ``SMOOTHING_S`` of the interval
        plus the nearest one on each side.
        """
        lo = min(bisect.bisect_left(self.times, start - SMOOTHING_S),
                 max(bisect.bisect_right(self.times, start) - 1, 0))
        hi = max(bisect.bisect_right(self.times, end + SMOOTHING_S),
                 bisect.bisect_left(self.times, end) + 1)
        return REFERENCE_KERNEL_S / statistics.median(self.kernel[lo:hi])

    def normalize(self, start: float, seconds: float) -> float:
        return seconds * self.factor(start, start + seconds)


class Run:
    """Failure bookkeeping of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def guarded(self, what: str, func, *args):
        """Call ``func``; an exception counts as one failed operation."""
        self.attempted += 1
        try:
            return func(*args)
        except Exception:  # the run must report the failure and keep going
            self.failed += 1
            print(f"[perfbench] {what} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def steps(self, workload, speed: MachineSpeed, *, seconds: float = None,
              count: int = None) -> float:
        """Run ``count`` operations, or operations for ``seconds``; returns the wall.

        ``speed`` is sampled before the first operation, between operations
        at most every ``CALIBRATION_INTERVAL_S``, and after the last.
        """
        speed.sample()
        started = time.perf_counter()
        done = 0
        while (done < count) if count is not None else (
                time.perf_counter() - started < seconds):
            if speed.due():
                speed.sample()
            self.guarded("operation", workload.step)
            done += 1
        wall = time.perf_counter() - started
        speed.sample()
        return wall

    def settle(self, workload) -> None:
        """Fold the workload's checks and canaries into the counts."""
        self.attempted += workload.checks_run + len(workload.canaries)
        self.failed += workload.checks_failed
        for name, tripped in sorted(workload.canaries.items()):
            if not tripped:
                self.failed += 1
                print(f"[perfbench] canary {name} did not trip", file=sys.stderr)


def part(cls, seed: int, index: int, seconds: float) -> dict:
    """One fresh process's share of a measured run: set-up, window, checks.

    Part ``index`` draws its inputs from the seed string ``"<seed>.<index>"``,
    so the parts of one run replay different streams of the same workload.
    """
    import repro.api  # noqa: F401  (import time is not set-up time)
    import repro.experiments  # noqa: F401
    from checks import load_pinned, model_accuracy

    run, speed = Run(), MachineSpeed()
    speed.sample()
    started = time.perf_counter()
    workload = cls(f"{seed}.{index}")
    workload.setup()
    setup = time.perf_counter() - started
    speed.sample()
    gc.collect()
    run.steps(workload, speed, seconds=seconds)
    run.guarded("output check", workload.finish)
    accuracy = None
    if index == SETUPS - 1:
        accuracy = run.guarded("accuracy", model_accuracy, workload.library,
                               load_pinned())
    run.settle(workload)
    workload.close()
    return {
        "setup": speed.normalize(started, setup),
        "raw_setup": setup,
        "timed": [(speed.normalize(start, seconds), seconds, work, sample, label)
                  for start, seconds, work, sample, label in workload.timed],
        "kernel": speed.kernel,
        "rss": workload.peak_rss_mb(),
        "attempted": run.attempted,
        "failed": run.failed,
        "accuracy": accuracy,
    }


def measure(cls, seed: int, seconds: float, run: Run) -> Dict[str, float]:
    """``SETUPS`` parts, each in its own process, pooled into one result.

    Every part sets the workload up in a fresh interpreter and runs an equal
    share of the ``seconds`` window, so per-process state (allocator and
    address-space layout, which move the 100k workloads by up to ~20%) is
    averaged over the run instead of deciding it.
    """
    parts = []
    for index in range(SETUPS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", cls.name,
             "--seed", str(seed), "--seconds", str(seconds / SETUPS),
             "--part", str(index)],
            stdout=subprocess.PIPE, text=True, timeout=170)
        if child.returncode != 0:
            raise RuntimeError(f"part {index} of {cls.name} exited {child.returncode}")
        parts.append(json.loads(child.stdout.splitlines()[-1]))
    for result in parts:
        run.attempted += result["attempted"]
        run.failed += result["failed"]
    delay_err, slew_err = parts[-1]["accuracy"] or (math.nan, math.nan)
    setups = [result["setup"] for result in parts]
    timed = [entry for result in parts for entry in result["timed"]]
    samples = [entry[0] for entry in timed if entry[3]]
    raw = [entry[1] for entry in timed if entry[3]]
    throughput = sum(entry[2] for entry in timed) / sum(entry[0] for entry in timed)
    kernel = [value for result in parts for value in result["kernel"]]
    rss = max(result["rss"] for result in parts)

    name = cls.latency_name
    print(f"{cls.name}: seed {seed}, {len(timed)} operations in {SETUPS} processes "
          f"(held-out seed for claims: {HELD_OUT_SEED})")
    print(f"  times are at reference machine speed; the machine ran the calibration "
          f"kernel at {statistics.median(kernel) / REFERENCE_KERNEL_S:.2f}x its "
          f"reference time (n={len(kernel)})")
    print(f"  setup_s            {statistics.median(setups):10.4f} s    median of "
          f"{len(setups)}, raw {[round(r['raw_setup'], 3) for r in parts]}")
    print(f"  peak_rss_mb        {rss:10.1f} MB   largest VmHWM of the {SETUPS} processes")
    print(f"  error_rate         {ratio(run.failed, run.attempted):10.4f}      "
          f"{run.failed} failed of {run.attempted} attempted")
    print(f"  {cls.throughput_name:<18} {throughput:10.2f} /s")
    print(f"  {name + '_p50_ms':<18} {1e3 * statistics.median(samples):10.3f} ms   "
          f"n={len(samples)}, raw {1e3 * statistics.median(raw):.3f} ms")
    high = tail(samples)
    if high is not None:
        print(f"  {name + '_' + high[0] + '_ms':<18} {1e3 * high[1]:10.3f} ms   "
              f"n={len(samples)}")
    for label in sorted({entry[4] for entry in timed if entry[4]}):
        values = [entry[0] for entry in timed if entry[4] == label]
        print(f"  {'serve_' + label + '_p50_ms':<18} "
              f"{1e3 * statistics.median(values):10.3f} ms   n={len(values)}")
    print(f"  delay_err_max_pct  {delay_err:10.4f} %    worst of the pinned "
          f"reference stages")
    print(f"  slew_err_max_pct   {slew_err:10.4f} %")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": throughput,
        "op_p50_ms": 1e3 * statistics.median(samples),
        "delay_err_max_pct": delay_err,
        "slew_err_max_pct": slew_err,
    }


def trace(cls, seed: int, run: Run) -> Dict[str, float]:
    from spans import SERVE_ROUTES, SETUP_SPANS, SPAN_NAMES, Tracer, summarize

    steps = TRACE_STEPS[cls.name]
    speed = MachineSpeed()
    plain = cls(seed)
    plain.setup()
    gc.collect()
    run.steps(plain, speed, count=steps)
    plain_cost = sum(speed.normalize(entry[0], entry[1]) for entry in plain.timed)
    plain.close()
    del plain
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        setup_start = time.perf_counter()
        workload = cls(seed, tracer)
        workload.setup()
        gc.collect()
        window_start = time.perf_counter()
        run.steps(workload, speed, count=steps)
        window_end = time.perf_counter()
        run.guarded("output check", workload.finish)
    finally:
        tracer.uninstall()
    run.settle(workload)
    workload.close()
    (HERE.parent / ".perfbench-out").mkdir(exist_ok=True)
    (HERE.parent / ".perfbench-out" / f"trace-{cls.name}-{seed}.json").write_text(
        tracer.dump())

    span_lists = [tracer.spans] + workload.remote_spans
    count_lists = [tracer.counts] + workload.remote_counts
    total, self_time, _, counts = summarize(span_lists, count_lists,
                                            window_start, window_end)
    setup_total, setup_self, _, _ = summarize(span_lists, [], setup_start,
                                              window_start)
    _, _, roots, _ = summarize([tracer.spans], [], window_start, window_end)

    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        if name in SETUP_SPANS:
            metrics[f"{name}.s"] = setup_total.get(name, 0.0)
            metrics[f"{name}.self_s"] = setup_self.get(name, 0.0)
        else:
            metrics[f"{name}.s"] = total.get(name, 0.0) / steps
            metrics[f"{name}.self_s"] = self_time.get(name, 0.0) / steps
    for route in SERVE_ROUTES:
        values = [entry[1] for entry in workload.timed if entry[4] == route]
        metrics[f"serve.route.{route}.p50_ms"] = (
            1e3 * statistics.median(values) if values else 0.0)
    for counter in ("sta.compiled.patched_nets", "sta.incremental.cone_nets",
                    "core.stage_solver.requests", "core.stage_solver.computed",
                    "interconnect.moments.calls", "circuit.transient.kernel.calls",
                    "api.report.events_rebuilt"):
        metrics[counter] = counts.get(counter, 0.0) / steps
    metrics["sta.compiled.key_dedupe_ratio"] = ratio(
        counts.get("sta.compiled.key_unique", 0.0),
        counts.get("sta.compiled.key_events", 0.0))
    metrics["sta.incremental.converged_early_ratio"] = ratio(
        counts.get("sta.incremental.converged_early", 0.0),
        counts.get("sta.incremental.cone_nets", 0.0))
    metrics["core.stage_solver.hit_rate"] = ratio(
        counts.get("core.stage_solver.hits", 0.0),
        counts.get("core.stage_solver.requests", 0.0))
    metrics["core.far_end.kernel_reuse_ratio"] = ratio(
        counts.get("core.far_end.lanes", 0.0),
        counts.get("circuit.transient.kernel.calls", 0.0))
    calibrating = sum(kernel for moment, kernel in zip(speed.times, speed.kernel)
                      if window_start < moment <= window_end)
    metrics["trace.coverage"] = ratio(roots, window_end - window_start - calibrating)
    traced_cost = sum(speed.normalize(entry[0], entry[1]) for entry in workload.timed)
    metrics["trace.overhead_ratio"] = traced_cost / plain_cost - 1.0

    print(f"{cls.name}: seed {seed}, traced {steps} operations (operation time "
          f"at reference speed: untraced {plain_cost:.2f} s, traced {traced_cost:.2f} s)")
    shown = sorted((value, name) for name, value in metrics.items()
                   if value and not name.endswith(".self_s"))
    for value, name in reversed(shown):
        print(f"  {name:<42} {value:14.6g}")
    return metrics


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"[perfbench] no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench-cache")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.part is not None:
        print(json.dumps(part(cls, args.seed, args.part, args.seconds)))
        return 0
    run = Run()
    if args.trace:
        metrics = trace(cls, args.seed, run)
        units = dict(per_layer_names())
    else:
        metrics = measure(cls, args.seed, args.seconds, run)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("soc100k", "cold_solve", "eco100k", "serve_2k", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=9.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
