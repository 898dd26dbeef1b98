"""The three benchmark workloads: inputs, the timed call, and the output checks.

Each workload owns a fixed pool of POOL_SIZE items whose outputs are pinned
in digests.json. The run seed only chooses the order in which the pool is
walked, so every item a run attempts has a pinned digest, and a run that
walks the whole pool sees the same worst-case error whatever its seed.

Every case reaches the library only through module attributes of the `h`
namespace at call time, never through names bound at import, so the tracer's
wrappers see every call the case makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

POOL_SIZE = 32
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Env:
    """The imported package and the default configs every case runs under."""

    h: object
    ms: object
    hcfg: object
    pcfg: object


@dataclass
class Checked:
    """Outcome of checking one item: pinned digest, error against the oracle, verdict."""

    digest: str
    rel_error: Fraction
    problems: list


def make_env(h) -> Env:
    ms, hcfg, pcfg = h.formats.default_configs()
    return Env(h, ms, hcfg, pcfg)


def _digest(*parts) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:32]


def _exact(q: Fraction) -> str:
    """q as a hex fraction string; decimal would exceed int_max_str_digits on long chains."""
    return f"{q.numerator:x}/{q.denominator:x}"


def _strategies(counts: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(counts.items()))


def _value(x) -> tuple:
    return x.mantissa.residues, x.exponent


def _report_problems(report) -> list:
    if report.rel_error > report.bound:
        return [f"rel_error {float(report.rel_error):.3e} exceeds bound {float(report.bound):.3e}"]
    return []


class ChainedMac:
    """Seeded multiply-accumulate chains through workloads.run_mac_chain."""

    name = "chained_mac"
    size = 2000  # steps per chain

    def make_inputs(self, env: Env) -> list:
        return [env.h.workloads.mac_sequences(j, self.size) for j in range(POOL_SIZE)]

    def ops(self, item) -> int:
        return 2 * len(item[0])

    def run(self, env: Env, item):
        mults, addends = item
        return env.h.workloads.run_mac_chain(mults, addends, env.ms, env.hcfg)

    def check(self, env: Env, item, report) -> Checked:
        # run_mac_chain returns no accumulator; the exact rel_error fixes its value
        # against the oracle, and the simulate workload pins the residues of the
        # same chain code op by op.
        digest = _digest(
            report.steps,
            report.norm_events,
            _strategies(report.strategy_counts),
            _exact(report.rel_error),
        )
        return Checked(digest, report.rel_error, _report_problems(report))


class DotProduct:
    """workloads.dot_product over seeded vectors drawn uniformly from [-1, 1)."""

    name = "dot_product"
    size = 2000  # vector length

    def make_inputs(self, env: Env) -> list:
        inputs = []
        for j in range(POOL_SIZE):
            rng = random.Random(j)
            xs = [2.0 * rng.random() - 1.0 for _ in range(self.size)]
            ys = [2.0 * rng.random() - 1.0 for _ in range(self.size)]
            inputs.append((xs, ys))
        return inputs

    def ops(self, item) -> int:
        return 2 * len(item[0]) - 1

    def run(self, env: Env, item):
        xs, ys = item
        return env.h.workloads.dot_product(xs, ys, env.ms, env.hcfg)

    def check(self, env: Env, item, output) -> Checked:
        acc, report = output
        digest = _digest(
            _value(acc),
            report.norm_events,
            _strategies(report.strategy_counts),
            _exact(report.rel_error),
        )
        return Checked(digest, report.rel_error, _report_problems(report))


class Simulate:
    """The CLI's simulate path on chained_mac_program text, without process start-up."""

    name = "simulate"
    size = 300  # chain steps per program, two ops each

    def make_inputs(self, env: Env) -> list:
        fmt, wl = env.h.formats, env.h.workloads
        return [fmt.program_text(wl.chained_mac_program(j, self.size)) for j in range(POOL_SIZE)]

    def ops(self, item) -> int:
        return 2 * self.size

    def run(self, env: Env, text):
        fmt = env.h.formats
        program = fmt.parse_program(text)
        sim = env.h.pipeline.simulate(program, env.pcfg, env.hcfg, env.ms)
        return program, sim, fmt.trace_csv(sim.trace), fmt.metrics_json(sim.metrics)

    def check(self, env: Env, text, output) -> Checked:
        h, ms, hcfg = env.h, env.ms, env.hcfg
        program, sim, csv, metrics = output
        problems = []
        names, results, norms = h.pipeline.evaluate_program(program, ms, hcfg)
        if names != sim.names or results != sim.results:
            problems.append("simulate results differ from evaluate_program")
        if len(sim.results) != self.ops(text):
            problems.append(f"{len(sim.results)} results for {self.ops(text)} ops")

        # Exact rational fold of the encoded literals, independent of the
        # library's own (numerator, shift) oracle.
        exact = {}
        issued = iter(sim.names)
        for op in program:
            if op.kind == "lit":
                exact[op.name] = h.hybrid.exact_value(h.hybrid.from_real(op.value, ms, hcfg))
            else:
                a, b = (exact[arg] for arg in op.args)
                exact[next(issued)] = a * b if op.kind == "mul" else a + b
        want = exact[sim.names[-1]]
        rel = abs(h.hybrid.exact_value(sim.results[-1]) - want) / abs(want)
        bound = Fraction(sum(norms) * 2 ** (hcfg.scale_shift_k - 1), h.hybrid.tau_int(ms, hcfg))
        if rel > bound:
            problems.append(f"rel_error {float(rel):.3e} exceeds bound {float(bound):.3e}")

        digest = _digest(
            [_value(r) for r in sim.results],
            hashlib.sha256(csv.encode()).hexdigest(),
            hashlib.sha256(metrics.encode()).hexdigest(),
        )
        return Checked(digest, rel, problems)


CASES = {case.name: case for case in (ChainedMac(), DotProduct(), Simulate())}


def load_digests(case) -> list:
    """The pinned digests of case's pool; raises ValueError if they do not fit the case."""
    with open(DIGESTS_PATH) as fh:
        pinned = json.load(fh)[case.name]
    if pinned["size"] != case.size or len(pinned["digests"]) != POOL_SIZE:
        raise ValueError(f"{DIGESTS_PATH} was captured for another {case.name} pool")
    return pinned["digests"]


def verdict(checked: Checked, pinned: str) -> list:
    """Every reason the item fails: oracle problems plus a digest mismatch."""
    if checked.digest != pinned:
        return checked.problems + [f"digest {checked.digest} != pinned {pinned}"]
    return checked.problems
