"""Hybrid type: real encode/decode and signed interpretation.

Oracles: exact Fraction arithmetic for values.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrfna import (
    HybridConfig,
    ModulusSet,
    exact_value,
    from_real,
    hrfna_add,
    hrfna_mul,
    make_hybrid,
    needs_normalization,
    signed_value,
    to_real,
    validate_config,
)
from hrfna.errors import InvariantViolation
from hrfna.rns import OutOfRange

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def wide_ms():
    # 16-bit prime channels: composite near 2^48, roomy enough for b = 18.
    return ModulusSet([65521, 65519, 65497])


@pytest.fixture(scope="module")
def wide_cfg():
    return HybridConfig(alpha=Fraction(1, 2), scale_shift_k=9, operand_bound_bits=18)


class TestConfig:
    def test_default_invariants_hold(self, default_ms, hcfg):
        validate_config(default_ms, hcfg)
        assert 2 ** (2 * hcfg.operand_bound_bits) < hcfg.alpha * default_ms.composite
        assert hcfg.scale_shift_k < hcfg.operand_bound_bits

    def test_operand_bound_violation(self, default_ms, hcfg):
        # b = 19 overwhelms alpha*M for the default moduli.
        bad = HybridConfig(alpha=hcfg.alpha, scale_shift_k=11, operand_bound_bits=19)
        with pytest.raises(ValueError, match="operand-bound"):
            validate_config(default_ms, bad)

    def test_shift_bound_violation(self, wide_ms):
        bad = HybridConfig(alpha=Fraction(1, 2), scale_shift_k=18, operand_bound_bits=18)
        with pytest.raises(ValueError, match="shift-bound"):
            validate_config(wide_ms, bad)

    def test_zero_threshold_typed_error(self, small_ms):
        # alpha*M = 105/8192 < 1, so tau = 0, and 2^(2b) = 64 is far above it.
        bad = HybridConfig(alpha=Fraction(1, 8192), scale_shift_k=2, operand_bound_bits=3)
        x = make_hybrid(2, 0, small_ms)
        with pytest.raises(InvariantViolation, match="^operand-bound: ") as exc:
            hrfna_mul(x, x, small_ms, bad)
        assert exc.value.name == "operand-bound"

    @pytest.mark.parametrize(
        "alpha, k, b, invariant",
        [(Fraction(1, 2), 9, 18, "operand-bound"), (Fraction(3, 8192), 12, 12, "shift-bound")],
    )
    @pytest.mark.parametrize("use", ["mul", "add", "add-zero-left", "add-zero-right", "detect"])
    def test_every_op_gates_its_config(self, default_ms, alpha, k, b, invariant, use):
        # A config built in code passes validate_config on its first use, as a loaded one does.
        bad = HybridConfig(alpha=alpha, scale_shift_k=k, operand_bound_bits=b)
        x, y = make_hybrid(3, 0, default_ms), make_hybrid(5, 2, default_ms)
        zero = make_hybrid(0, 0, default_ms)
        ops = {
            "mul": lambda: hrfna_mul(x, y, default_ms, bad),
            "add": lambda: hrfna_add(x, y, default_ms, bad),
            # A zero operand takes the identity path, after the same gate.
            "add-zero-left": lambda: hrfna_add(zero, y, default_ms, bad),
            "add-zero-right": lambda: hrfna_add(x, zero, default_ms, bad),
            "detect": lambda: needs_normalization(x, default_ms, bad),
        }
        with pytest.raises(InvariantViolation) as exc:
            ops[use]()
        assert exc.value.name == invariant

    def test_thresholds_kept_per_composite(self):
        # The triple validate_config returns is what the ops read, with no call.
        cfg = HybridConfig(alpha=Fraction(1, 2), scale_shift_k=2, operand_bound_bits=3)
        ms = ModulusSet([5, 7, 11])  # M = 385: tau = 192
        assert cfg._thresholds == {}
        x = make_hybrid(3, 0, ms)
        hrfna_add(x, make_hybrid(5, 20, ms), ms, cfg)
        assert cfg._thresholds == {385: (192, 96, 9)}  # 2|n| >= 192 from |n| = 96
        assert validate_config(ms, cfg) is cfg._thresholds[385]

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            HybridConfig(alpha=Fraction(1), scale_shift_k=2, operand_bound_bits=4)
        with pytest.raises(ValueError):
            HybridConfig(alpha=Fraction(-1, 2), scale_shift_k=2, operand_bound_bits=4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 0.0003),
            ("alpha", 3),  # out of range too: the type is checked first
            ("scale_shift_k", 11.0),
            ("scale_shift_k", True),
            ("operand_bound_bits", 12.0),
            ("operand_bound_bits", "12"),
            ("operand_bound_bits", 2.0),
        ],
    )
    def test_field_types(self, field, value):
        fields = dict(alpha=Fraction(3, 8192), scale_shift_k=11, operand_bound_bits=12)
        with pytest.raises(InvariantViolation, match="is not an? ") as exc:
            HybridConfig(**{**fields, field: value})
        assert exc.value.name == "hybrid-config"


class TestFromReal:
    def test_zero(self, default_ms, hcfg):
        h = from_real(0.0, default_ms, hcfg)
        assert all(r == 0 for r in h.mantissa.residues)
        assert h.exponent == 0
        assert h.n == 0
        assert to_real(h) == 0.0

    def test_one_wide_config(self, wide_ms, wide_cfg):
        # b = 18: window [2^16, 2^17); 1.0 encodes exactly.
        h = from_real(1.0, wide_ms, wide_cfg)
        n = signed_value(h.mantissa, wide_ms)
        assert 2**16 <= n < 2**17
        assert n * Fraction(2) ** h.exponent == 1
        assert to_real(h) == 1.0

    def test_minus_three_wide_config(self, wide_ms, wide_cfg):
        h = from_real(-3.0, wide_ms, wide_cfg)
        n = signed_value(h.mantissa, wide_ms)
        assert n == -3 * 2**15
        assert h.exponent == -15
        assert to_real(h) == -3.0

    def test_window_default(self, default_ms, hcfg):
        b = hcfg.operand_bound_bits
        for x in (1.0, -1.0, 0.3, 1234.5, 1e-9, -7.25e11):
            n = abs(signed_value(from_real(x, default_ms, hcfg).mantissa, default_ms))
            assert 2 ** (b - 2) <= n < 2 ** (b - 1)

    def test_non_finite_rejected(self, default_ms, hcfg):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                from_real(x, default_ms, hcfg)

    @pytest.mark.parametrize("b", [54, 1025, 1026, 1100])
    def test_every_double_exact_from_b_54(self, huge_ms, b):
        # 53 bits fit the window from b = 54 on; past b = 1025 the window
        # mantissa is past binary64's range, and must not go through a float.
        cfg = HybridConfig(alpha=Fraction(1, 4), scale_shift_k=3, operand_bound_bits=b)
        validate_config(huge_ms, cfg)
        for x in (1.5, -1.5, 0.1, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308):
            h = from_real(x, huge_ms, cfg)
            assert 2 ** (b - 2) <= abs(signed_value(h.mantissa, huge_ms)) < 2 ** (b - 1)
            assert exact_value(h) == Fraction(x)
            assert to_real(h) == x
        assert from_real(0.0, huge_ms, cfg) == make_hybrid(0, 0, huge_ms)
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(OutOfRange, match="non-finite"):
                from_real(x, huge_ms, cfg)

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exact_past_binary64(self, huge_ms, x):
        cfg = HybridConfig(alpha=Fraction(1, 4), scale_shift_k=3, operand_bound_bits=1100)
        h = from_real(x, huge_ms, cfg)
        assert exact_value(h) == Fraction(x)
        assert to_real(h) == x

    @given(finite_floats)
    @settings(max_examples=500, deadline=None)
    def test_round_trip_error_bound(self, default_ms, hcfg, x):
        h = from_real(x, default_ms, hcfg)
        err = abs(exact_value(h) - Fraction(x)) if x else Fraction(0)
        assert err <= Fraction(2) ** (h.exponent - 1)
        if 1e-300 < abs(x) < 1e300:
            # Within comfortable binary64 range the float projection agrees.
            assert abs(Fraction(to_real(h)) - Fraction(x)) <= Fraction(2) ** (h.exponent - 1)


class TestToReal:
    def test_zero_any_exponent(self, default_ms):
        h = make_hybrid(0, 37, default_ms)
        assert to_real(h) == 0.0

    def test_24_times_two(self, small_ms):
        h = make_hybrid(24, 1, small_ms)
        assert to_real(h) == 48.0

    def test_signed_decode(self, small_ms):
        h = make_hybrid(-1, 0, small_ms)
        assert h.mantissa.residues == (2, 4, 6)
        assert to_real(h) == -1.0

    def test_mantissa_past_binary64_rounds_once(self, huge_ms):
        # 1 + 2^-53 is a tie between 1 and 1 + 2^-52: half to even gives 1;
        # a bit beyond it, 1099 - 53 bits below, rounds up.
        one, half_ulp = 1 << 1099, 1 << (1099 - 53)
        for n, want in ((one + half_ulp, 1.0), (one + half_ulp + 1, 1 + 2**-52), (one + 1, 1.0)):
            assert to_real(make_hybrid(n, -1099, huge_ms)) == want
            assert to_real(make_hybrid(-n, -1099, huge_ms)) == -want
        assert to_real(make_hybrid(one, -1099 - 1074, huge_ms)) == 5e-324
        assert to_real(make_hybrid(one, 0, huge_ms)) == math.inf
        assert to_real(make_hybrid(-one, 0, huge_ms)) == -math.inf

    def test_overflow_saturates(self, default_ms):
        h = make_hybrid(3, 3000, default_ms)
        assert to_real(h) == math.inf
        assert to_real(make_hybrid(-3, 3000, default_ms)) == -math.inf
