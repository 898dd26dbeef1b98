"""Hybrid multiplication and addition against big-int / Fraction oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrfna import (
    ALIGN_IDENTITY,
    ALIGN_SCALE_UP,
    ALIGN_SHIFT_DOWN,
    DEFAULT_MODULI,
    HrfnaError,
    HybridConfig,
    ModulusSet,
    WrapDetected,
    encode_signed,
    from_real,
    hrfna_add,
    hrfna_mul,
    make_hybrid,
    signed_value,
    tau_int,
    to_real,
    validate_config,
)
from hrfna.hybrid import exact_value
from support import REFUSALS, drain, outcome, shift_round_half_even


@pytest.fixture(scope="module")
def small_cfg(small_ms):
    # Proportions scaled down to M = 105: tau_int = 78, window [2, 4).
    cfg = HybridConfig(alpha=Fraction(3, 4), scale_shift_k=2, operand_bound_bits=3)
    validate_config(small_ms, cfg)
    return cfg


class TestMul:
    def test_worked_example_small(self, small_ms, small_cfg):
        # 12 * 4 = 48 as (N=6, f=1) x (N=4, f=0)
        x = make_hybrid(6, 1, small_ms)
        y = make_hybrid(4, 0, small_ms)
        z = hrfna_mul(x, y, small_ms, small_cfg)
        assert z.mantissa.residues == (0, 4, 3)
        assert signed_value(z.mantissa, small_ms) == 24
        assert z.exponent == 1
        assert to_real(z) == 48.0

    def test_multiplicative_identity(self, default_ms, hcfg):
        x = from_real(0.8375, default_ms, hcfg)
        one = make_hybrid(1, 0, default_ms)
        z = hrfna_mul(x, one, default_ms, hcfg)
        assert z.mantissa.residues == x.mantissa.residues
        assert z.exponent == x.exponent

    def test_one_squared_round_trips(self, default_ms, hcfg):
        one = from_real(1.0, default_ms, hcfg)
        z = hrfna_mul(one, one, default_ms, hcfg)
        assert exact_value(z) == 1
        assert to_real(z) == 1.0

    def test_wrapping_product_raises(self, default_ms, hcfg):
        # 2^18 squared is 2^36 > M/2: the residue product would wrap modulo M.
        x = make_hybrid(2**18, 0, default_ms)
        assert outcome(hrfna_mul, x, x, default_ms, hcfg) == REFUSALS["mul"].format(37)
        assert issubclass(WrapDetected, HrfnaError)

    def test_product_at_half_tau_normalizes(self):
        # (7, 9, 11), alpha 23/32: tau = 498, and 83 * 3 = 249 = tau/2 fires.
        # log2(83) + log2(3) falls one ulp short of log2(498) - 1.0.
        ms = ModulusSet((7, 9, 11))
        cfg = HybridConfig(alpha=Fraction(23, 32), scale_shift_k=1, operand_bound_bits=3)
        z = hrfna_mul(make_hybrid(83, 0, ms), make_hybrid(3, 0, ms), ms, cfg)
        assert (z.norm_events, z.n, z.exponent) == (1, shift_round_half_even(249, 1), 1)
        assert z.n == 124  # 124.5 rounds to even

    def test_two_pass_drain_keeps_both_events(self, default_ms, hcfg):
        # 180000^2 is about 2^34.9: one k-bit shift leaves it above the
        # detector limit (about 2^23.6), so the product normalizes twice.
        k = hcfg.scale_shift_k
        x = make_hybrid(180_000, 0, default_ms)
        z = hrfna_mul(x, x, default_ms, hcfg)
        limit = validate_config(default_ms, hcfg)[1]
        first = shift_round_half_even(180_000**2, k)
        assert abs(first) >= limit > abs(shift_round_half_even(first, k))
        assert drain(180_000**2, limit, k) == (z.n, z.norm_events) == (z.n, 2)
        assert z.n == signed_value(z.mantissa, default_ms)
        assert z.exponent == 2 * k

    def test_exponents_add(self, default_ms, hcfg):
        rng = random.Random(2)
        for _ in range(200):
            nx, ny = rng.randrange(1024, 2048), rng.randrange(1024, 2048)
            fx, fy = rng.randrange(-40, 40), rng.randrange(-40, 40)
            x, y = make_hybrid(nx, fx, default_ms), make_hybrid(ny, fy, default_ms)
            z = hrfna_mul(x, y, default_ms, hcfg)
            assert z.exponent == fx + fy + hcfg.scale_shift_k * z.norm_events

    def test_product_exact_when_no_normalization(self, default_ms, hcfg):
        rng = random.Random(3)
        bound = 2**hcfg.operand_bound_bits
        checked = 0
        for _ in range(2000):
            nx = rng.randrange(1, bound) * rng.choice((1, -1))
            ny = rng.randrange(1, bound) * rng.choice((1, -1))
            x = make_hybrid(nx, rng.randrange(-20, 20), default_ms)
            y = make_hybrid(ny, rng.randrange(-20, 20), default_ms)
            z = hrfna_mul(x, y, default_ms, hcfg)
            if not z.norm_events:
                assert signed_value(z.mantissa, default_ms) == nx * ny
                assert z.exponent == x.exponent + y.exponent
                checked += 1
        assert checked > 1500

    def test_normalization_fires_above_threshold(self, default_ms, hcfg):
        tau = tau_int(default_ms, hcfg)
        # Both operands wide: product lands in [tau, M/2).
        x = make_hybrid(5792, 0, default_ms)
        z = hrfna_mul(x, x, default_ms, hcfg)
        assert 5792 * 5792 >= tau
        assert z.norm_events == 1
        assert z.exponent == hcfg.scale_shift_k
        # Value preserved within the normalization rounding bound.
        err = abs(exact_value(z) - Fraction(5792 * 5792))
        assert err <= Fraction(2) ** (hcfg.scale_shift_k - 1)

    def test_value_homomorphism_with_normalization(self, default_ms, hcfg):
        # Relative error within 2^(k-1)/tau per normalization event.
        tau = tau_int(default_ms, hcfg)
        k = hcfg.scale_shift_k
        rng = random.Random(8)
        for _ in range(300):
            nx = rng.randrange(4000, 7000)
            ny = rng.randrange(4000, 7000)
            x, y = make_hybrid(nx, 0, default_ms), make_hybrid(ny, 0, default_ms)
            z = hrfna_mul(x, y, default_ms, hcfg)
            rel = abs(exact_value(z) - nx * ny) / Fraction(nx * ny)
            assert rel <= z.norm_events * Fraction(2 ** (k - 1), tau // 2)

    def test_zero_short_circuit(self, default_ms, hcfg):
        zero = from_real(0.0, default_ms, hcfg)
        x = from_real(123.0, default_ms, hcfg)
        z = hrfna_mul(zero, x, default_ms, hcfg)
        assert z.n == 0
        assert to_real(z) == 0.0


class TestAdd:
    def test_additive_identity(self, default_ms, hcfg):
        x = from_real(2.62, default_ms, hcfg)
        zero = from_real(0.0, default_ms, hcfg)
        z = hrfna_add(x, zero, default_ms, hcfg)
        assert to_real(z) == to_real(x)
        assert z.align_strategy == ALIGN_IDENTITY

    def test_worked_example_small(self, small_ms, small_cfg):
        # (N=6, f=1) + (N=4, f=0): scale 6 up to 12, add -> 16 at f=0.
        x = make_hybrid(6, 1, small_ms)
        y = make_hybrid(4, 0, small_ms)
        z = hrfna_add(x, y, small_ms, small_cfg)
        assert to_real(z) == 16.0
        assert z.align_strategy == ALIGN_SCALE_UP
        assert z.exponent == 0

    def test_additive_inverse_cancels(self, default_ms, hcfg):
        x = from_real(1.7, default_ms, hcfg)
        nx = from_real(-1.7, default_ms, hcfg)
        z = hrfna_add(x, nx, default_ms, hcfg)
        assert z.n == 0
        assert all(r == 0 for r in z.mantissa.residues)

    def test_scale_up_is_exact(self, default_ms, hcfg):
        rng = random.Random(13)
        for _ in range(300):
            x = make_hybrid(rng.randrange(1024, 2048), rng.randrange(-4, 4), default_ms)
            y = make_hybrid(rng.randrange(1024, 2048), rng.randrange(-4, 4), default_ms)
            z = hrfna_add(x, y, default_ms, hcfg)
            if z.align_strategy == ALIGN_SCALE_UP and not z.norm_events:
                assert exact_value(z) == exact_value(x) + exact_value(y)

    def test_shift_down_bounded_error(self, default_ms, hcfg):
        # Exponent gap too wide for exact scaling: lossy alignment at the
        # larger exponent, error at most half a unit at that exponent.
        x = make_hybrid(12_000_000, -40, default_ms)  # wide mantissa, low exponent
        y = make_hybrid(1500, 0, default_ms)
        z = hrfna_add(x, y, default_ms, hcfg)
        assert z.align_strategy == ALIGN_SHIFT_DOWN
        err = abs(exact_value(z) - (exact_value(x) + exact_value(y)))
        assert err <= Fraction(2) ** (max(x.exponent, y.exponent) - 1)

    def test_commutative_same_strategy(self, default_ms, hcfg):
        rng = random.Random(17)
        for _ in range(300):
            x = make_hybrid(rng.randrange(1024, 12_000_000), rng.randrange(-30, 30), default_ms)
            y = make_hybrid(rng.randrange(1024, 12_000_000), rng.randrange(-30, 30), default_ms)
            a = hrfna_add(x, y, default_ms, hcfg)
            b = hrfna_add(y, x, default_ms, hcfg)
            assert a.align_strategy == b.align_strategy
            assert a == b
            assert to_real(a) == to_real(b)

    def test_wrapping_sum_raises(self, default_ms, hcfg):
        # floor(M/2) - 5 doubled is past M/2: the residue sum would wrap to -11.
        x = make_hybrid(default_ms.composite // 2 - 5, 0, default_ms)
        assert outcome(hrfna_add, x, x, default_ms, hcfg) == REFUSALS["add"].format(36)

    def test_in_range_sums_are_returned(self, default_ms, hcfg):
        # Sums of encoded reals, on both paths, stay inside (-M/2, M/2) and are returned.
        pairs = [(1.5, 0.75), (3.0, -2.9), (1.5, 1e-6), (-2.0, 3e-7), (0.1, 0.1)]
        strategies = set()
        for a, b in pairs:
            x, y = from_real(a, default_ms, hcfg), from_real(b, default_ms, hcfg)
            z = hrfna_add(x, y, default_ms, hcfg)
            assert 2 * abs(z.n) < default_ms.composite
            assert z.mantissa == encode_signed(z.n, default_ms)
            strategies.add(z.align_strategy)
        assert strategies == {ALIGN_SCALE_UP, ALIGN_SHIFT_DOWN}

    def test_sum_normalizes_at_threshold(self, default_ms, hcfg):
        tau = tau_int(default_ms, hcfg)
        x = make_hybrid(tau - 5, 0, default_ms)
        y = make_hybrid(1000, 0, default_ms)
        z = hrfna_add(x, y, default_ms, hcfg)
        assert z.norm_events == 1
        assert abs(signed_value(z.mantissa, default_ms)) < tau

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=400, deadline=None)
    def test_sum_against_rational_oracle(self, default_ms, hcfg, a, b):
        ha = from_real(a, default_ms, hcfg)
        hb = from_real(b, default_ms, hcfg)
        z = hrfna_add(ha, hb, default_ms, hcfg)
        exact = exact_value(ha) + exact_value(hb)
        if exact == 0:
            assert exact_value(z) == 0
        else:
            ulp = Fraction(2) ** (max(ha.exponent, hb.exponent) - 1)
            norm_err = z.norm_events * Fraction(2) ** (z.exponent - 1)
            assert abs(exact_value(z) - exact) <= ulp + norm_err


class TestWrapAudit:
    """Each op checks the exact integer it forms, on every path, and refuses one past M/2.

    On the default set, with H = (M - 1) // 2 the largest mantissa: each
    case's operands as (n, exponent) and either the exact WrapDetected text
    or, for an op that never wraps, its result as (n, exponent,
    align_strategy, normalization count).
    """

    H = (math.prod(DEFAULT_MODULI) - 1) // 2
    PRODUCT, SUM = REFUSALS["mul"], REFUSALS["add"]
    CASES = {
        "mul": (hrfna_mul, (2**18, 0), (2**18, 0), PRODUCT.format(37)),
        "scale-up at gap 0": (hrfna_add, (H - 5, 0), (H - 5, 0), SUM.format(36)),
        "scale-up at gap 2": (hrfna_add, (3, 2), (H - 5, 0), SUM.format(35)),
        "shift-down at gap 1": (hrfna_add, (H - 5, 1), (H - 5, 0), SUM.format(36)),
        "absorbed at gap 40": (hrfna_add, (H - 5, 40), (H - 5, 0),
                               (8174, 62, ALIGN_SHIFT_DOWN, 2)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_message_and_result(self, case, default_ms, hcfg):
        op, x, y, expected = self.CASES[case]
        x, y = make_hybrid(*x, default_ms), make_hybrid(*y, default_ms)
        z = outcome(op, x, y, default_ms, hcfg)
        if isinstance(expected, str):
            assert z == expected
        else:
            assert (z.n, z.exponent, z.align_strategy, z.norm_events) == expected
