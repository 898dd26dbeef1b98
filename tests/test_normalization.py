"""Normalization engine: rounding rule, error bound, exact detection.

The rounding oracle is Python's round() on exact Fractions, which
implements round half to even independently of the bit-level shift.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrfna import (
    DegenerateResult,
    HybridConfig,
    make_hybrid,
    make_modulus_set,
    needs_normalization,
    normalize,
    shift_round_half_even,
    signed_value,
    tau_int,
    to_real,
)
from hrfna.hybrid import exact_value


class TestShiftRoundHalfEven:
    @given(st.integers(min_value=-(2**60), max_value=2**60), st.integers(min_value=0, max_value=40))
    @settings(max_examples=500, deadline=None)
    def test_matches_fraction_round(self, n, s):
        assert shift_round_half_even(n, s) == round(Fraction(n, 2**s))

    def test_tie_rounds_to_even(self):
        assert shift_round_half_even(5, 1) == 2  # 2.5 -> 2
        assert shift_round_half_even(3, 1) == 2  # 1.5 -> 2
        assert shift_round_half_even(-5, 1) == -2  # -2.5 -> -2

    @pytest.mark.parametrize("n", [-5, 0, 5, 2**40 + 1])
    def test_huge_shift_rounds_to_zero_at_once(self, n):
        # 2^(s-1) alone would be a 10^12-bit integer.
        assert shift_round_half_even(n, 10**12) == 0


class TestNormalize:
    def test_exact_power_of_two(self, default_ms, hcfg):
        k = hcfg.scale_shift_k
        h = make_hybrid(2**20, -4, default_ms)
        out = normalize(h, default_ms, hcfg)
        assert signed_value(out.mantissa, default_ms) == 2 ** (20 - k)
        assert out.exponent == -4 + k
        assert exact_value(out) == exact_value(h)
        (event,) = out.norm_events
        assert (event.value_in, event.value_out, event.shift) == (2**20, 2 ** (20 - k), k)
        assert (event.exponent_before, event.exponent_after) == (-4, -4 + k)

    def test_tie_to_even_k1(self, default_ms):
        cfg = HybridConfig(alpha=Fraction(3, 8192), scale_shift_k=1, operand_bound_bits=12)
        h = make_hybrid(5, 0, default_ms)
        out = normalize(h, default_ms, cfg)
        assert signed_value(out.mantissa, default_ms) == 2  # 2.5 rounds to even

    def test_negative_tie_example(self, default_ms):
        cfg = HybridConfig(alpha=Fraction(3, 8192), scale_shift_k=9, operand_bound_bits=12)
        n = -(2**20) - 256
        out = normalize(make_hybrid(n, 0, default_ms), default_ms, cfg)
        n_out = signed_value(out.mantissa, default_ms)
        assert n_out == -2048  # -2048.5 rounds to the even -2048
        assert abs(n_out * 2**9 - n) == 256 <= 2**8
        assert round(Fraction(n, 2**9)) == -2048

    def test_degenerate_result(self, default_ms, hcfg):
        with pytest.raises(DegenerateResult):
            normalize(make_hybrid(1, 0, default_ms), default_ms, hcfg)

    def test_shift_past_m_vanishes_unvalidated(self, default_ms):
        # k >= b fails validate_config, but normalize never reads the thresholds,
        # so the shift reaches it; every nonzero mantissa rounds to 0, and a
        # 2^k-sized number is never built.
        cfg = HybridConfig(Fraction(3, 8192), 10**6, 12)
        half = (default_ms.composite - 1) // 2
        for n in (1, -1, half, -half):
            with pytest.raises(DegenerateResult, match=f"mantissa {n} vanished under shift {10**6}"):
                normalize(make_hybrid(n, 0, default_ms), default_ms, cfg)
        assert normalize(make_hybrid(0, 0, default_ms), default_ms, cfg).exponent == 10**6

    def test_zero_passes_through(self, default_ms, hcfg):
        out = normalize(make_hybrid(0, 3, default_ms), default_ms, hcfg)
        assert signed_value(out.mantissa, default_ms) == 0
        assert out.exponent == 3 + hcfg.scale_shift_k

    @given(st.integers(min_value=2**11, max_value=25_110_561), st.integers(min_value=-40, max_value=40))
    @settings(max_examples=400, deadline=None)
    def test_error_bound_property(self, default_ms, hcfg, n, f):
        k = hcfg.scale_shift_k
        for signed_n in (n, -n):
            h = make_hybrid(signed_n, f, default_ms)
            out = normalize(h, default_ms, hcfg)
            n_out = signed_value(out.mantissa, default_ms)
            assert abs(n_out * 2**k - signed_n) <= 2 ** (k - 1)
            assert abs(exact_value(out) - exact_value(h)) <= Fraction(2) ** (f + k - 1)
            assert out.exponent == f + k

    def test_mantissa_shrinks_for_large_values(self, default_ms, hcfg):
        k = hcfg.scale_shift_k
        for n in (2**k + 1, 3 * 2**k, 25_000_000):
            out = normalize(make_hybrid(n, 0, default_ms), default_ms, hcfg)
            assert abs(signed_value(out.mantissa, default_ms)) < n


class TestDetection:
    """The detector fires exactly where 2|n| >= tau, on n alone."""

    def test_zero_mantissa(self, default_ms, hcfg):
        h = make_hybrid(0, 0, default_ms)
        assert not needs_normalization(h, default_ms, hcfg)

    def test_exact_boundary(self, default_ms, hcfg):
        tau = tau_int(default_ms, hcfg)
        at = (tau + 1) // 2  # the least n with 2n >= tau
        assert needs_normalization(make_hybrid(at, 0, default_ms), default_ms, hcfg)
        assert needs_normalization(make_hybrid(-at, 0, default_ms), default_ms, hcfg)
        assert not needs_normalization(make_hybrid(at - 1, 0, default_ms), default_ms, hcfg)
        assert not needs_normalization(make_hybrid(1 - at, 0, default_ms), default_ms, hcfg)

    def test_boundary_at_half_an_even_tau(self):
        # (7, 9, 11, 13), alpha 3/64: tau = 422, inside tau * 2^(b-1) < M. 211 is
        # tau/2, where the float test log2(n) >= log2(tau) - 1.0 stayed silent.
        ms = make_modulus_set([7, 9, 11, 13])
        cfg = HybridConfig(alpha=Fraction(3, 64), scale_shift_k=1, operand_bound_bits=3)
        assert tau_int(ms, cfg) == 422 and 422 << 2 < ms.composite
        assert needs_normalization(make_hybrid(211, 0, ms), ms, cfg)
        assert not needs_normalization(make_hybrid(210, 0, ms), ms, cfg)

    def test_fast_mode_never_misses(self, default_ms, hcfg):
        # Sweep across [tau/4, 4*tau]: the detector fires exactly where 2|n| >= tau.
        tau = tau_int(default_ms, hcfg)
        rng = random.Random(99)
        for _ in range(2000):
            n = rng.randrange(tau // 4, 4 * tau)
            if rng.random() < 0.5:
                n = -n
            h = make_hybrid(n, 0, default_ms)
            assert needs_normalization(h, default_ms, hcfg) == (2 * abs(n) >= tau)

    def test_fast_mode_never_misses_exhaustive_small(self):
        # Small-scale exhaustive sweep: every representable signed mantissa,
        # with tau = 288 inside the +-577 range, so the detector fires from 144.
        ms = make_modulus_set([3, 5, 7, 11])
        cfg = HybridConfig(alpha=Fraction(1, 4), scale_shift_k=2, operand_bound_bits=3)
        tau = tau_int(ms, cfg)
        assert tau == 288
        fired = 0
        for n in range(-577, 578):
            h = make_hybrid(n, 0, ms)
            assert needs_normalization(h, ms, cfg) == (2 * abs(n) >= tau)
            fired += needs_normalization(h, ms, cfg)
        assert fired == 2 * (577 - 144 + 1) == 868

    def test_drift_chain_error_linear_in_events(self, default_ms, hcfg):
        # Multiply-then-normalize chain: accumulated drift stays within the
        # per-event bound times the event count, against a Fraction oracle.
        k = hcfg.scale_shift_k
        tau = tau_int(default_ms, hcfg)
        rng = random.Random(4)
        h = make_hybrid(1500, 0, default_ms)
        oracle = Fraction(1500)
        events = 0
        from hrfna import hrfna_mul, make_hybrid as mk

        for _ in range(10_000):
            m = mk(rng.randrange(1024, 2048), -10, default_ms)
            oracle *= exact_value(m)
            h = hrfna_mul(h, m, default_ms, hcfg)
            events += len(h.norm_events)
        measured = abs(exact_value(h) - oracle) / abs(oracle)
        assert measured <= Fraction(events * 2 ** (k - 1), tau)
        assert events > 0
