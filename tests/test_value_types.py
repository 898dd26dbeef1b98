"""Value types: every field is read-only, and hybrid equality ignores provenance."""

import pytest

from hrfna import (
    ALIGN_IDENTITY,
    DEFAULT_MODULI,
    MetricsSummary,
    Op,
    ResidueVector,
    SimResult,
    TraceEvent,
    chained_mac,
    encode_residues,
    from_real,
    hrfna_add,
    make_hybrid,
    make_modulus_set,
    normalize,
    simulate,
)
from hrfna.workloads import DriftReport

RESIDUE_FIELDS = ("residues", "set_ref")
HYBRID_FIELDS = ("mantissa", "exponent", "sign", "align_strategy", "norm_events")
EVENT_FIELDS = ("value_in", "value_out", "shift", "exponent_before", "exponent_after")
TRACE_FIELDS = ("cycle", "unit", "action", "op", "value")
OP_FIELDS = ("kind", "args", "name", "value")
METRICS_FIELDS = ("latency_p50", "latency_max", "achieved_ii", "stall_cycles", "norm_events")
SIM_FIELDS = ("results", "trace", "metrics", "names")
REPORT_FIELDS = (
    "workload",
    "seed",
    "steps",
    "generator",
    "config",
    "norm_events",
    "strategy_counts",
    "rel_error",
    "bound",
)


def assert_read_only(value, fields):
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name, None))


class TestImmutable:
    def test_residue_vector(self, default_ms):
        assert_read_only(encode_residues(5, default_ms), RESIDUE_FIELDS)

    def test_hybrid_num(self, default_ms, hcfg):
        assert_read_only(from_real(1.5, default_ms, hcfg), HYBRID_FIELDS)

    def test_normalization_event(self, default_ms, hcfg):
        (event,) = normalize(make_hybrid(2**20, -4, default_ms), default_ms, hcfg).norm_events
        assert_read_only(event, EVENT_FIELDS)

    def test_trace_event(self):
        assert_read_only(TraceEvent(3, "lane0", "retire", "t1"), TRACE_FIELDS)


class TestTraceEvent:
    def test_field_order_and_defaults(self):
        assert TraceEvent._fields == TRACE_FIELDS
        assert TraceEvent._field_defaults == {"op": None, "value": None}

    def test_positional_construction(self):
        ev = TraceEvent(0, "scheduler", "issue", "t0")
        assert (ev.cycle, ev.unit, ev.action, ev.op, ev.value) == (0, "scheduler", "issue", "t0", None)
        assert ev == (0, "scheduler", "issue", "t0", None)


class TestHybridEquality:
    def test_ignores_align_strategy(self, default_ms, hcfg):
        x = from_real(1.5, default_ms, hcfg)
        z = hrfna_add(x, from_real(0.0, default_ms, hcfg), default_ms, hcfg)
        assert (z.align_strategy, x.align_strategy) == (ALIGN_IDENTITY, None)
        assert z == x and not z != x
        assert hash(z) == hash(x)

    def test_ignores_norm_events(self, default_ms, hcfg):
        k = hcfg.scale_shift_k
        out = normalize(make_hybrid(2**20, -4, default_ms), default_ms, hcfg)
        plain = make_hybrid(2 ** (20 - k), -4 + k, default_ms)
        assert out.norm_events and not plain.norm_events
        assert out == plain and not out != plain
        assert hash(out) == hash(plain)

    def test_residues_and_exponent_decide(self, default_ms):
        h = make_hybrid(3, 0, default_ms)
        assert h != make_hybrid(3, 1, default_ms)
        assert h != make_hybrid(-3, 0, default_ms)
        assert h != (h.mantissa, h.exponent)


def mac_program():
    return [
        Op("lit", name="a", value=1.9),
        Op("mul", args=("a", "a")),
        Op("add", args=("t0", "a")),
    ]


class TestRecords:
    """Op, MetricsSummary, SimResult and DriftReport: read-only; fields, order, defaults kept."""

    def test_read_only(self, default_ms, hcfg, pcfg):
        sim = simulate(mac_program(), pcfg, hcfg, default_ms)
        assert_read_only(Op("mul", args=("a", "b")), OP_FIELDS)
        assert_read_only(sim.metrics, METRICS_FIELDS)
        assert_read_only(sim, SIM_FIELDS)
        assert_read_only(chained_mac(1, 20, default_ms, hcfg), REPORT_FIELDS)

    def test_field_order_and_defaults(self):
        assert Op._fields == OP_FIELDS
        assert Op._field_defaults == {"args": (), "name": "", "value": None}
        assert MetricsSummary._fields == METRICS_FIELDS
        assert MetricsSummary._field_defaults == {}
        assert SimResult._fields == SIM_FIELDS
        assert SimResult._field_defaults == {"names": ()}
        assert DriftReport._fields == REPORT_FIELDS
        assert DriftReport._field_defaults == {}

    def test_op_construction(self):
        lit = Op("lit", name="x", value=0.5)
        assert (lit.kind, lit.args, lit.name, lit.value) == ("lit", (), "x", 0.5)
        assert Op("mul", ("a", "b")) == Op(kind="mul", args=("a", "b"), name="", value=None)

    def test_as_dict(self, default_ms, hcfg, pcfg):
        metrics = simulate(mac_program(), pcfg, hcfg, default_ms).metrics
        assert metrics.as_dict() == dict(zip(METRICS_FIELDS, metrics))
        report = chained_mac(1, 20, default_ms, hcfg)
        as_dict = report.as_dict()
        assert list(as_dict) == list(REPORT_FIELDS)
        assert as_dict["rel_error"] == float(report.rel_error)
        assert as_dict["bound"] == float(report.bound)
        assert as_dict["strategy_counts"] == dict(sorted(report.strategy_counts.items()))

    def test_sim_result_positional(self, default_ms, hcfg, pcfg):
        sim = simulate(mac_program(), pcfg, hcfg, default_ms)
        results, trace, metrics, names = sim
        assert SimResult(results, trace, metrics) == (results, trace, metrics, ())
        assert names == ("t0", "t1")

    @pytest.mark.parametrize(
        "moduli", [DEFAULT_MODULI, (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)], ids=len
    )
    def test_residue_vector_replace_and_make(self, moduli):
        # A ResidueVector is a two-field tuple whatever its channel count.
        ms = make_modulus_set(moduli)
        five, seven = encode_residues(5, ms), encode_residues(7, ms)
        assert five._replace(residues=seven.residues) == seven
        assert ResidueVector._make([five.residues, ms]) == five
        assert len(five) == 2
