"""Checks of the benchmark itself: pinned outputs, and traced counts against the program's own.

    python3 -m pytest perfbench      (or: cd perfbench && python3 -m unittest test_perfbench)
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import cases  # noqa: E402
import hrfna  # noqa: E402
import hrfna.formats  # noqa: E402,F401
from run import tail  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ENV = cases.make_env(hrfna)


def traced(call):
    """Run call() with the tracer installed; call must look functions up when it runs."""
    tracer = Tracer(hrfna.HrfnaError)
    with tracer:
        result = call()
    return result, {name: value for name, (value, _) in tracer.metrics().items()}


def assert_add_shares(test, m, strategy_counts):
    adds = m["arithmetic.hrfna_add.calls"]
    test.assertEqual(adds, sum(strategy_counts.values()))
    for strategy, key in (("scale-up", "scale_up"), ("shift-down", "shift_down")):
        test.assertAlmostEqual(
            m[f"arithmetic.add.{key}_frac"] * adds, strategy_counts.get(strategy, 0), places=6
        )


class PinnedOutputs(unittest.TestCase):
    def test_every_pool_item_reproduces_its_digest(self):
        for case in cases.CASES.values():
            pinned = cases.load_digests(case)
            for j, item in enumerate(case.make_inputs(ENV)):
                checked = case.check(ENV, item, case.run(ENV, item))
                self.assertEqual(cases.verdict(checked, pinned[j]), [], f"{case.name} item {j}")

    def test_a_changed_output_fails_its_check(self):
        case = cases.CASES["dot_product"]
        item = case.make_inputs(ENV)[0]
        checked = case.check(ENV, item, case.run(ENV, item))
        self.assertNotEqual(cases.verdict(checked, cases.load_digests(case)[1]), [])


class CounterReconciliation(unittest.TestCase):
    def test_chained_mac_reference_chain(self):
        mults, addends = hrfna.workloads.mac_sequences(0, 10_000)
        report, m = traced(
            lambda: hrfna.workloads.run_mac_chain(mults, addends, ENV.ms, ENV.hcfg)
        )
        self.assertEqual(report.norm_events, 9594)
        self.assertEqual(m["normalization.normalize.calls"], report.norm_events)
        self.assertEqual(m["arithmetic.hrfna_mul.calls"], 10_000)
        self.assertEqual(m["hybrid.from_real.calls"], 2 * 10_000 + 1)
        assert_add_shares(self, m, report.strategy_counts)
        self.assertGreater(m["workloads.fold_s"], m["workloads.oracle_s"])

    def test_dot_product_pool_items(self):
        case = cases.CASES["dot_product"]
        for xs, ys in case.make_inputs(ENV)[:2]:
            (_, report), m = traced(
                lambda: hrfna.workloads.dot_product(xs, ys, ENV.ms, ENV.hcfg)
            )
            self.assertEqual(m["normalization.normalize.calls"], report.norm_events)
            self.assertEqual(m["arithmetic.mul.norm_frac"], 0.0)
            assert_add_shares(self, m, report.strategy_counts)

    def test_simulate_reference_program(self):
        program = hrfna.workloads.chained_mac_program(3, 2000)
        sim, m = traced(lambda: hrfna.pipeline.simulate(program, ENV.pcfg, ENV.hcfg, ENV.ms))
        self.assertEqual(len(sim.trace), 43_378)
        self.assertEqual(sim.metrics.stall_cycles, 11_526)
        self.assertEqual(sim.metrics.achieved_ii, 3.8755)
        self.assertEqual(m["pipeline.trace_events"], len(sim.trace))
        self.assertEqual(m["pipeline.stall_cycles"], sim.metrics.stall_cycles)
        self.assertEqual(m["pipeline.achieved_ii"], sim.metrics.achieved_ii)
        self.assertEqual(m["pipeline.sim_cycles"], sim.trace[-1].cycle + 1)
        self.assertEqual(m["normalization.normalize.calls"], sim.metrics.norm_events)


class Wrappers(unittest.TestCase):
    def test_uninstall_restores_every_namespace(self):
        before = {
            (name, attr): obj
            for name, mod in sys.modules.items()
            if name.startswith("hrfna")
            for attr, obj in vars(mod).items()
            if callable(obj)
        }
        with Tracer(hrfna.HrfnaError):
            self.assertTrue(hasattr(hrfna.normalization.signed_value, "__wrapped__"))
            self.assertTrue(hasattr(hrfna.arithmetic.normalize, "__wrapped__"))
        for (name, attr), obj in before.items():
            self.assertIs(getattr(sys.modules[name], attr), obj)

    def test_error_counts_once_in_the_raising_layer(self):
        tracer = Tracer(hrfna.HrfnaError)
        with tracer:
            with self.assertRaises(hrfna.OutOfRange):
                hrfna.hybrid.make_hybrid(ENV.ms.composite, 0, ENV.ms)
        m = tracer.metrics()
        errors = {layer: m[f"{layer}.errors"][0] for layer in LAYERS}
        self.assertEqual(errors, {layer: int(layer == "rns") for layer in LAYERS})


class Tail(unittest.TestCase):
    def test_percentile_keeps_ten_items_beyond(self):
        self.assertEqual(tail(list(range(100))), (89, 90, 10))
        self.assertEqual(tail(list(range(260))), (249, 96, 10))
        self.assertEqual(tail([1.0, 2.0]), (2.0, 100, 0))


if __name__ == "__main__":
    unittest.main()
