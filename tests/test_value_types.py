"""Value types: every field is read-only, and hybrid equality ignores provenance."""

import pytest

from hrfna import (
    ALIGN_IDENTITY,
    TraceEvent,
    encode_residues,
    from_real,
    hrfna_add,
    make_hybrid,
    normalize,
)

RESIDUE_FIELDS = ("residues", "set_ref")
HYBRID_FIELDS = ("mantissa", "exponent", "mag_log2", "sign", "align_strategy", "norm_events")
EVENT_FIELDS = ("value_in", "value_out", "shift", "exponent_before", "exponent_after")
TRACE_FIELDS = ("cycle", "unit", "action", "op", "value")


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
