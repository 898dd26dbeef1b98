"""workloads.relative_error pinned to the plain Fraction reduction.

relative_error reduces |d| / (|e| * 2^q) through the gcd of the odd parts
of the approximate and the exact mantissa, and writes the result into a
Fraction's fields without a second reduction. The reference here builds
the same quotient with the Fraction constructor, whose gcd runs over the
two big integers, and the pin compares numerator and denominator.
CI runs this file harder with --hypothesis-profile=ci.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrfna import (
    ExactZero,
    from_real,
    hrfna_add,
    hrfna_mul,
    run_mac_chain,
    signed_value,
)
from hrfna.workloads import _chain_exact, mac_sequences, relative_error
from support import examples


def plain(approx, exact):
    """|approx - exact| / |exact| as the Fraction constructor reduces it."""
    (a, x), (e, t) = approx, exact
    q = min(x, t)
    d = (a << (x - q)) - (e << (t - q))
    return Fraction(abs(d), abs(e) << (t - q))


def assert_pinned(approx, exact):
    got, want = relative_error(approx, exact), plain(approx, exact)
    assert type(got) is Fraction
    assert type(got.numerator) is int and type(got.denominator) is int
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)


def odd_times_power_of_two(odd_bits):
    """Signed n = odd * 2^z: odd mantissas (z = 0) and even ones."""
    return st.builds(
        lambda odd, z, sign: sign * (2 * odd + 1) << z,
        st.integers(0, 2**odd_bits),
        st.integers(0, 3) | st.integers(0, 90),
        st.sampled_from((1, -1)),
    )


shifts = st.integers(-120, 120)
# A hybrid mantissa stays below M/2: 40 bits here, past the default set's 35.
approx_pairs = st.tuples(odd_times_power_of_two(40) | st.just(0), shifts)


@st.composite
def exact_for(draw, approx):
    """An exact value against approx: apart, equal, or nearly cancelling it."""
    a, x = approx
    kind = draw(st.sampled_from(("apart", "equal", "cancel")))
    if kind == "apart" or a == 0:
        return draw(odd_times_power_of_two(draw(st.sampled_from((8, 60, 700))))), draw(shifts)
    j = draw(st.integers(0, 60))  # the exact side carries j more low bits
    if kind == "equal":
        return a << j, x - j
    # No offset cancels it to an exact zero: test_exact_zero covers that case.
    return (a << j) + draw(st.integers(-(2**8), 2**8).filter(lambda c: c != -(a << j))), x - j


pairs = approx_pairs.flatmap(lambda approx: st.tuples(st.just(approx), exact_for(approx)))


class TestPinnedToPlainFraction:
    @given(pairs)
    @settings(max_examples=examples(500), deadline=None)
    @example(((0, 5), (7, -3)))  # a zero approx: the error is 1
    @example(((-3, 2), (3, 2)))  # opposite signs
    @example(((6, -1), (3, 0)))  # equal values, both shift orders below
    @example(((3, 0), (6, -1)))
    @example(((12, 4), (3, 6)))  # even mantissas
    @example(((2047, -11), ((2047 << 200) + 1, -211)))  # cancellation down to one unit
    def test_numerator_and_denominator(self, pair):
        approx, exact = pair
        assert_pinned(approx, exact)

    @given(approx_pairs, shifts)
    @settings(max_examples=examples(500), deadline=None)
    def test_exact_zero(self, approx, t):
        (a, x) = approx
        if a == 0:
            assert relative_error(approx, (0, t)) == Fraction(0)
            return
        q = min(x, t)
        with pytest.raises(ExactZero, match=rf"absolute error {abs(a) << (x - q)} \* 2\^{q}$"):
            relative_error(approx, (0, t))


def test_ten_thousand_step_chain_pair(default_ms, hcfg):
    # The chain's own (approx, exact) pair: an exact value of about 10^5 bits.
    mults, addends = mac_sequences(0, 10_000)
    acc = from_real(1.0, default_ms, hcfg)
    start, steps = (signed_value(acc.mantissa, default_ms), acc.exponent), []
    for m, a in zip(mults, addends):
        hm, ha = from_real(m, default_ms, hcfg), from_real(a, default_ms, hcfg)
        acc = hrfna_add(hrfna_mul(acc, hm, default_ms, hcfg), ha, default_ms, hcfg)
        for h in (hm, ha):
            steps += signed_value(h.mantissa, default_ms), h.exponent
    approx = signed_value(acc.mantissa, default_ms), acc.exponent
    exact = _chain_exact(start, steps)
    assert exact[0].bit_length() > 100_000
    assert_pinned(approx, exact)
    assert run_mac_chain(mults, addends, default_ms, hcfg).rel_error == plain(approx, exact)
