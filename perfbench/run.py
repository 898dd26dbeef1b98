#!/usr/bin/env python3
"""hrfna benchmark: one workload per process, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload chained_mac --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

--trace 0 measures the end-to-end metrics with no instrumentation. --trace 1
measures untraced throughput for a reference, then runs a fixed traced pass
with every layer wrapped and prints the per-layer metrics; its spans and
metrics go to perfbench/out/. `--workload all` runs each workload in a
process of its own, one after another. The last line of output for a single
workload is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import cases
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
TRACED_ITEMS = 8
REFERENCE_SHARE = 0.5  # share of --seconds spent on the untraced reference in --trace 1

# On a shared 2-core virtual machine, CPU speed was seen to drift by 20 to 40%
# within seconds, for any Python code alike. A fixed kernel, independent of
# hrfna, is timed just before and just after every item and every set-up, and
# each reported host time is scaled by CAL_REF_S / (mean of those two kernel
# times): it reads as seconds on a CPU that runs the kernel in CAL_REF_S. Raw
# wall times are printed beside the scaled ones. The process is pinned to one
# CPU, so the kernel and the item it brackets run on the same core.
CAL_REF_S = 0.0025


@dataclass(frozen=True)
class _Cell:
    residues: tuple
    exponent: int


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = time.perf_counter()
    moduli, weights = (4093, 4095, 4091), (1_000_003, 999_983, 998_001)
    cell, total = _Cell((1, 1, 1), 0), 0
    for i in range(500):
        residues = tuple((r * (i | 1) + 7) % m for r, m in zip(cell.residues, moduli))
        cell = _Cell(residues, max(cell.exponent, i & 15) + 1)
        total += sum(r * w for r, w in zip(residues, weights)) % 68_568_575_985
    return time.perf_counter() - t0


def bracketed(call):
    """Run call() between two kernel timings.

    Returns (result, raw seconds, seconds scaled to the reference CPU).
    """
    before = calibrate()
    t0 = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - t0
    speed = CAL_REF_S / ((before + calibrate()) / 2)
    return result, seconds, seconds * speed


def fresh_import():
    """Import hrfna from source as a first-time import would, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "hrfna" or n.startswith("hrfna.")]:
        del sys.modules[name]
    h = importlib.import_module("hrfna")
    importlib.import_module("hrfna.formats")
    return h


def set_up(case):
    """Import hrfna, build the configs and generate the pool."""
    env = cases.make_env(fresh_import())
    return env, case.make_inputs(env)


def tail(times: list) -> tuple[float, int, int]:
    """Highest whole percentile (nearest rank) with at least 10 items beyond it.

    Returns (value, percentile, items beyond); falls back to the maximum when
    fewer than 11 items ran.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


class Loop:
    """Runs and checks items; only the case's run call is inside the item timer."""

    def __init__(self, case, env, inputs, pinned, order):
        self.case, self.env, self.inputs = case, env, inputs
        self.pinned, self.order = pinned, order
        self.samples: list[tuple[float, float]] = []  # (raw, scaled) item seconds
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.rel_error_max = Fraction(0)

    def judge(self, j: int, output) -> None:
        checked = self.case.check(self.env, self.inputs[j], output)
        problems = cases.verdict(checked, self.pinned[j])
        self.rel_error_max = max(self.rel_error_max, checked.rel_error)
        if problems:
            self.failed += 1
            print(f"item {j} failed: {'; '.join(problems)}", file=sys.stderr)

    def run_one(self, j: int, log: list | None = None):
        """Run item j, appending its (raw, scaled) seconds to log when given.

        Returns the output, or None after counting a failure.
        """
        self.attempted += 1
        try:
            output, raw, scaled = bracketed(lambda: self.case.run(self.env, self.inputs[j]))
        except Exception:  # an item that raises is a failed item, not a failed run
            self.failed += 1
            print(f"item {j} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if log is not None:
            log.append((raw, scaled))
        return output

    def passes(self, deadline: float) -> None:
        """Walk the seed's order in whole passes over the pool until the deadline.

        Whole passes give every run the same items, whatever its seed and its
        speed, so rel_error_max covers the pool and the item-time
        percentiles are taken over the same mix.
        """
        gc.collect()
        while True:
            for j in self.order:
                output = self.run_one(j, self.samples)
                if output is not None:
                    self.ops += self.case.ops(self.inputs[j])
                    self.judge(j, output)
            if time.perf_counter() >= deadline:
                return


def end_to_end(loop: Loop, setup_samples: list) -> dict:
    raw = [r for r, _ in loop.samples]
    items = [s for _, s in loop.samples]
    setups = [s for _, s in setup_samples]
    value, pct, beyond = tail(items)
    speed = sum(items) / sum(raw)
    print(
        f"# item_ms_tail is p{pct} of {len(items)} timed items, {beyond} beyond it; "
        f"failed_frac {loop.failed}/{loop.attempted}; setup_s is the median of {len(setups)}\n"
        f"# raw wall times, CPU at {speed:.3f} of the reference speed: "
        f"ops_per_s {loop.ops / sum(raw):.6g}, item_ms_p50 {statistics.median(raw) * 1e3:.6g}, "
        f"item_ms_tail {tail(raw)[0] * 1e3:.6g}, "
        f"setup_s {statistics.median(r for r, _ in setup_samples):.6g}"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (loop.ops / sum(items), "ops/s"),
        "item_ms_p50": (statistics.median(items) * 1e3, "ms"),
        "item_ms_tail": (value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rel_error_max": (float(loop.rel_error_max), "ratio"),
    }


def traced(loop: Loop, reference_deadline: float, seed: int) -> dict:
    loop.passes(reference_deadline)
    reference_ops_per_s = loop.ops / sum(s for _, s in loop.samples)

    items = loop.order[:TRACED_ITEMS]
    log: list[tuple[float, float]] = []
    gc.collect()
    tracer = Tracer(loop.env.h.HrfnaError)
    with tracer:
        outputs = [(j, loop.run_one(j, log)) for j in items]
    for j, output in outputs:
        if output is not None:
            loop.judge(j, output)

    # One speed factor for the whole traced pass scales every host time in it.
    factor = sum(s for _, s in log) / sum(r for r, _ in log)
    metrics = {
        name: (value * factor if unit in ("s", "us", "us/cycle") else value, unit)
        for name, (value, unit) in tracer.metrics().items()
    }
    traced_ops_per_s = sum(loop.case.ops(loop.inputs[j]) for j in items) / sum(
        s for _, s in log
    )
    metrics["trace.ops_per_s"] = (traced_ops_per_s, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (reference_ops_per_s, "ops/s")
    metrics["trace.overhead_x"] = (reference_ops_per_s / traced_ops_per_s, "ratio")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{loop.case.name}-seed{seed}")
    tracer.write_spans(stem + ".spans.csv.gz")
    with open(stem + ".layers.json", "w") as fh:
        json.dump({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, fh, indent=1)
    print(f"# traced {len(items)} items, CPU at {factor:.3f} of the reference speed; "
          f"raw spans in {stem}.spans.csv.gz")
    return metrics


def run_workload(args) -> int:
    case = cases.CASES[args.workload]
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        pinned = cases.load_digests(case)
        if not os.path.isfile(os.path.join(SRC, "hrfna", "__init__.py")):
            raise ImportError(f"no hrfna source under {SRC}")
        importlib.import_module("hrfna")
    except (OSError, ImportError, KeyError, ValueError) as exc:
        print(f"error: cannot set up {case.name}: {exc!r}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        (env, inputs), raw, scaled = bracketed(lambda: set_up(case))
        setup_samples.append((raw, scaled))

    order = list(range(cases.POOL_SIZE))
    random.Random(args.seed).shuffle(order)
    loop = Loop(case, env, inputs, pinned, order)
    warm = loop.run_one(order[0])  # warm-up: checked, never timed or counted
    if warm is not None:
        loop.judge(order[0], warm)
    warm_failed = loop.failed > 0
    loop.attempted = loop.failed = 0

    measure_start = time.perf_counter()
    if args.trace:
        deadline = measure_start + REFERENCE_SHARE * args.seconds
        metrics = traced(loop, deadline, args.seed)
    else:
        loop.passes(measure_start + args.seconds)
        metrics = end_to_end(loop, setup_samples)

    print(f"# {case.name} seed {args.seed}: {loop.attempted} items checked, "
          f"{loop.failed} failed, {time.perf_counter() - start:.1f} s in all")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    result = {
        "correct": loop.failed == 0 and not warm_failed,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*cases.CASES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload != "all":
        return run_workload(args)

    status = 0
    for name in cases.CASES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
