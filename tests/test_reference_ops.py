"""from_real, normalize, hrfna_mul and hrfna_add pinned to compositions of public helpers.

The reference below rebuilds every field of a result (residues, exponent,
mantissa n, alignment strategy and normalization count) from mod_mul,
mod_add, encode_signed, crt_reconstruct and the reference
shift_round_half_even (tests/support.py) alone, with tau derived from the
config's alpha. It takes each decision on the n that crt_reconstruct gives:
normalize while 2|n| >= tau, and scale hi up while 2|n_hi| * 2^delta < tau.
from_real is pinned to make_hybrid of an exact Fraction rounding. Each op
computes after rns has checked any operand under another set object, so
every pin is also run with operands rebuilt under an equal set made apart:
the check must let them through unchanged.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hrfna import (
    ALIGN_IDENTITY,
    ALIGN_SCALE_UP,
    ALIGN_SHIFT_DOWN,
    DEFAULT_CONFIG,
    DEFAULT_MODULI,
    DegenerateResult,
    HybridConfig,
    MismatchedSet,
    ModulusSet,
    OutOfRange,
    crt_reconstruct,
    encode_signed,
    from_real,
    hrfna_add,
    hrfna_mul,
    make_hybrid,
    mod_add,
    mod_mul,
    normalize,
    run_mac_chain,
    signed_value,
    validate_config,
)
from hrfna.workloads import mac_sequences
from support import ELEVEN_PRIMES, TWO_CHANNEL, examples, shift_round_half_even

SETS = {
    "two": TWO_CHANNEL,
    "default": (DEFAULT_MODULI, DEFAULT_CONFIG),
    "eleven": (ELEVEN_PRIMES, DEFAULT_CONFIG),
}
BUILT = {}
TWINS = {}


def built(name):
    if name not in BUILT:
        moduli, cfg = SETS[name]
        ms = ModulusSet(moduli)
        validate_config(ms, cfg)
        BUILT[name] = ms, cfg
    return BUILT[name]


def tau_of(ms, cfg):
    return cfg.alpha.numerator * ms.composite // cfg.alpha.denominator


def ref_signed(rv, ms):
    n = crt_reconstruct(rv, ms)
    return n - ms.composite if 2 * n >= ms.composite else n


def ref_value(mant, exponent, strategy, events, ms):
    """Every field of a value, its n reconstructed from the residues."""
    return mant.residues, exponent, ref_signed(mant, ms), strategy, events


def ref_pass(mant, exponent, ms, cfg):
    """One normalization: (mantissa, exponent) after it."""
    k = cfg.scale_shift_k
    n = ref_signed(mant, ms)
    out = shift_round_half_even(n, k)
    if out == 0 and n != 0:
        raise DegenerateResult(f"mantissa {n} vanished under shift {k}")
    return encode_signed(out, ms), exponent + k


def ref_fields(mant, exponent, strategy, ms, cfg):
    """Drain while 2|n| >= tau, counting the passes; every field of the final value."""
    events = 0
    while 2 * abs(ref_signed(mant, ms)) >= tau_of(ms, cfg):
        mant, exponent = ref_pass(mant, exponent, ms, cfg)
        events += 1
    return ref_value(mant, exponent, strategy, events, ms)


def ref_normalize(h, ms, cfg):
    mant, exponent = ref_pass(h.mantissa, h.exponent, ms, cfg)
    return ref_value(mant, exponent, h.align_strategy, h.norm_events + 1, ms)


def ref_rounding(x, b):
    """(n, f) with n = round(x / 2^f), half to even, in the b-bit window; exact, as Fractions."""
    q = Fraction(x)
    e = abs(q).numerator.bit_length() - abs(q).denominator.bit_length()
    if abs(q) < Fraction(2) ** e:
        e -= 1  # now 2^e <= |x| < 2^(e+1)
    f = e - b + 2
    n = round(q / Fraction(2) ** f)
    if abs(n) == 1 << (b - 1):
        f += 1
        n = round(q / Fraction(2) ** f)
    return n, f


def ref_from_real(x, ms, cfg):
    if x == 0:
        return make_hybrid(0, 0, ms)
    return make_hybrid(*ref_rounding(x, cfg.operand_bound_bits), ms)


def ref_mul(x, y, ms, cfg):
    mant = mod_mul(x.mantissa, y.mantissa, ms)
    return ref_fields(mant, x.exponent + y.exponent, None, ms, cfg)


def ref_add(x, y, ms, cfg):
    nx, ny = ref_signed(x.mantissa, ms), ref_signed(y.mantissa, ms)
    if nx == 0 or ny == 0:
        h = y if nx == 0 else x
        return ref_value(h.mantissa, h.exponent, ALIGN_IDENTITY, 0, ms)
    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    delta = hi.exponent - lo.exponent
    exponent, strategy = hi.exponent, ALIGN_SCALE_UP
    if delta == 0:
        mant = mod_add(hi.mantissa, lo.mantissa, ms)
    elif 2 * abs(ref_signed(hi.mantissa, ms)) << delta < tau_of(ms, cfg):
        scaled = mod_mul(hi.mantissa, encode_signed(1 << delta, ms), ms)
        mant, exponent = mod_add(scaled, lo.mantissa, ms), lo.exponent
    else:
        shifted = encode_signed(shift_round_half_even(ref_signed(lo.mantissa, ms), delta), ms)
        mant, strategy = mod_add(hi.mantissa, shifted, ms), ALIGN_SHIFT_DOWN
    return ref_fields(mant, exponent, strategy, ms, cfg)


def fields(z):
    return z.mantissa.residues, z.exponent, z.n, z.align_strategy, z.norm_events


def apart(h):
    """h under an equal modulus set made apart from its own."""
    moduli = h.set_ref.moduli
    if moduli not in TWINS:
        TWINS[moduli] = ModulusSet(moduli)
    return h._replace(set_ref=TWINS[moduli])


def assert_apart_agrees(op, x, y, ms, cfg):
    """op on either or both operands made apart gives the same-set result, field by field."""
    assert apart(x).mantissa.set_ref is not ms
    expected = fields(op(x, y, ms, cfg))
    for pair in ((apart(x), y), (x, apart(y)), (apart(x), apart(y))):
        assert fields(op(*pair, ms, cfg)) == expected


@st.composite
def operands(draw, wide_both):
    """A post-drain-sized operand and a fresh one (or two post-drain ones), under one set.

    Half the operands carry provenance of their own, which no result inherits.
    """
    name = draw(st.sampled_from(sorted(SETS)))
    ms, cfg = built(name)
    tau = tau_of(ms, cfg)
    fresh = (1 << (cfg.operand_bound_bits - 1)) - 1
    wide = st.integers(-(tau // 2), tau // 2)
    n_x = draw(wide)
    n_y = draw(wide if wide_both else st.integers(-fresh, fresh))
    assume(2 * abs(n_x * n_y) < ms.composite or wide_both)
    provenance = dict(align_strategy=ALIGN_SHIFT_DOWN, norm_events=3)
    values = []
    for n in (n_x, n_y):
        extra = provenance if draw(st.booleans()) else {}
        values.append(make_hybrid(n, draw(st.integers(-40, 40)), ms)._replace(**extra))
    if draw(st.booleans()):
        values.reverse()
    return (*values, ms, cfg)


@st.composite
def wide_operand(draw):
    """Any signed mantissa of a set (small ones too, down to zero), with or without provenance."""
    name = draw(st.sampled_from(sorted(SETS)))
    ms, cfg = built(name)
    half = (ms.composite - 1) // 2
    small = 1 << cfg.scale_shift_k
    n = draw(st.integers(-half, half) | st.integers(-small, small))
    provenance = {}
    if draw(st.booleans()):
        provenance = dict(align_strategy=ALIGN_SCALE_UP, norm_events=3)
    return make_hybrid(n, draw(st.integers(-40, 40)), ms)._replace(**provenance), ms, cfg


class TestAgainstChannelOps:
    @given(operands(wide_both=False))
    @settings(max_examples=examples(400), deadline=None)
    def test_mul(self, case):
        x, y, ms, cfg = case
        assert fields(hrfna_mul(x, y, ms, cfg)) == ref_mul(x, y, ms, cfg)
        assert_apart_agrees(hrfna_mul, x, y, ms, cfg)

    @given(st.one_of(operands(wide_both=False), operands(wide_both=True)))
    @settings(max_examples=examples(400), deadline=None)
    def test_add(self, case):
        x, y, ms, cfg = case
        assert fields(hrfna_add(x, y, ms, cfg)) == ref_add(x, y, ms, cfg)
        assert_apart_agrees(hrfna_add, x, y, ms, cfg)

    @given(wide_operand())
    @settings(max_examples=examples(400), deadline=None)
    def test_normalize(self, case):
        h, ms, cfg = case
        try:
            expected = ref_normalize(h, ms, cfg)
        except DegenerateResult as exc:
            for operand in (h, apart(h)):
                with pytest.raises(DegenerateResult) as got:
                    normalize(operand, ms, cfg)
                assert str(got.value) == str(exc)
            return
        assert fields(normalize(h, ms, cfg)) == expected
        assert fields(normalize(apart(h), ms, cfg)) == expected

    @given(st.sampled_from(sorted(SETS)), st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=examples(400), deadline=None)
    @example("default", 2.0**-1074)
    @example("default", -1.7976931348623157e308)
    @example("two", 0.99951171875)  # rounds up to 2^(b-1) = 512 and moves to the next exponent
    @example("eleven", -0.0)
    def test_from_real(self, name, x):
        ms, cfg = built(name)
        assert fields(from_real(x, ms, cfg)) == fields(ref_from_real(x, ms, cfg))

    def test_from_real_out_of_range(self):
        for name in sorted(SETS):
            ms, cfg = built(name)
            for x in (math.inf, -math.inf, math.nan):
                with pytest.raises(OutOfRange, match="^cannot encode non-finite value"):
                    from_real(x, ms, cfg)
        # Unvalidated: b = 8 puts |N| in [64, 128), and 2 * 64 >= M = 105.
        ms, cfg = ModulusSet((3, 5, 7)), HybridConfig(Fraction(3, 8192), 5, 8)
        for x in (1.0, -1.5, 0.75, 3e-300):
            with pytest.raises(OutOfRange) as got:
                from_real(x, ms, cfg)
            with pytest.raises(OutOfRange) as want:
                make_hybrid(*ref_rounding(x, cfg.operand_bound_bits), ms)
            assert str(got.value) == str(want.value)
        assert fields(from_real(0.0, ms, cfg)) == fields(make_hybrid(0, 0, ms))
        # An even M: N = M/2 = 105 lies in the window and has no signed encoding.
        even = ModulusSet((2, 3, 5, 7))
        for x in (105.0, -105.0):
            with pytest.raises(OutOfRange) as got:
                from_real(x, even, cfg)
            with pytest.raises(OutOfRange) as want:
                make_hybrid(*ref_rounding(x, cfg.operand_bound_bits), even)
            assert str(got.value) == str(want.value)

    def test_ties_round_half_even(self):
        """Mantissas halfway between two results, where half-even and half-up differ."""
        for name in sorted(SETS):
            ms, cfg = built(name)
            k, tau = cfg.scale_shift_k, tau_of(ms, cfg)
            hi = make_hybrid(tau // 2 - 9, 0, ms)  # any delta >= 1 takes the shift-down path
            for q in (1, 2, 5, 6):  # q = 0 would round a nonzero mantissa to 0
                for sign in (1, -1):
                    h = make_hybrid(sign * (2 * q + 1) << (k - 1), 3, ms)
                    assert fields(normalize(h, ms, cfg)) == ref_normalize(h, ms, cfg)
                    assert fields(normalize(apart(h), ms, cfg)) == ref_normalize(h, ms, cfg)
                    for delta in (1, 3, 7):
                        lo = make_hybrid(sign * (2 * q + 1) << (delta - 1), -delta, ms)
                        assert hrfna_add(hi, lo, ms, cfg).align_strategy == ALIGN_SHIFT_DOWN
                        assert fields(hrfna_add(hi, lo, ms, cfg)) == ref_add(hi, lo, ms, cfg)
                        assert_apart_agrees(hrfna_add, hi, lo, ms, cfg)

    def test_absorption_boundary(self):
        """Shift-down gaps around L = M.bit_length(): from L on, lo is absorbed.

        |n_lo| < M/2 < 2^(L-1) rounds to 0 under any shift >= L, so the sum is
        hi's mantissa; below L, lo is rounded and may still count.
        """
        for name in sorted(SETS):
            ms, cfg = built(name)
            top, tau = ms.composite.bit_length(), tau_of(ms, cfg)
            half, quarter = (ms.composite - 1) // 2, 1 << (top - 2)
            for hi in (make_hybrid(tau // 2 - 9, 0, ms), make_hybrid(-2047, 5, ms)):
                for delta in (top - 2, top - 1, top, top + 1):
                    for n_lo in (half, -half, quarter, -quarter, 3, -3):
                        lo = make_hybrid(n_lo, hi.exponent - delta, ms)
                        for x, y in ((hi, lo), (lo, hi)):
                            z = hrfna_add(x, y, ms, cfg)
                            assert z.align_strategy == ALIGN_SHIFT_DOWN
                            assert fields(z) == ref_add(x, y, ms, cfg)
                            assert_apart_agrees(hrfna_add, x, y, ms, cfg)

    def test_half_m_mantissa_reads_negative(self):
        """Residues of M/2 on an even M (only a channel op's wrap leaves them) reconstruct as -M/2."""
        ms, cfg = built("two")
        half = ms.composite // 2
        h = make_hybrid(1, 0, ms)._replace(n=-half)
        assert h.mantissa.residues == tuple(half % m for m in ms.moduli)
        assert ref_signed(h.mantissa, ms) == -half
        assert fields(normalize(h, ms, cfg)) == ref_normalize(h, ms, cfg)
        assert fields(normalize(apart(h), ms, cfg)) == ref_normalize(h, ms, cfg)

    def test_chain_under_an_equal_set_made_apart(self):
        ms, cfg = built("default")
        twin = ModulusSet(ms.moduli)
        sequences = mac_sequences(3, 500)
        assert run_mac_chain(*sequences, twin, cfg) == run_mac_chain(*sequences, ms, cfg)

    def test_every_path_is_reached(self):
        ms, cfg = built("default")
        tau = tau_of(ms, cfg)
        wide, fresh = make_hybrid(tau // 2 - 9, 0, ms), make_hybrid(2047, -11, ms)
        cases = [
            (hrfna_mul, wide, fresh, None, 1),
            (hrfna_mul, fresh, fresh, None, 0),
            (hrfna_add, wide, make_hybrid(0, 5, ms), ALIGN_IDENTITY, 0),
            (hrfna_add, fresh, make_hybrid(-3, -11, ms), ALIGN_SCALE_UP, 0),
            (hrfna_add, make_hybrid(5, 3, ms), fresh, ALIGN_SCALE_UP, 0),
            (hrfna_add, wide, fresh, ALIGN_SHIFT_DOWN, 0),
            # absorbed: the exponent gap M.bit_length() rounds lo to 0
            (hrfna_add, make_hybrid(-5, 25, ms), fresh, ALIGN_SHIFT_DOWN, 0),
            (hrfna_add, wide, make_hybrid(tau // 2 - 1, 0, ms), ALIGN_SCALE_UP, 1),
        ]
        for op, x, y, strategy, events in cases:
            z = op(x, y, ms, cfg)
            assert (z.align_strategy, z.norm_events) == (strategy, events)
            reference = ref_mul if op is hrfna_mul else ref_add
            assert fields(z) == reference(x, y, ms, cfg)


class TestForeignOperands:
    """An operand built under another modulus set is refused; an equal set built apart is not."""

    def test_other_set_raises(self, default_ms, small_ms, hcfg):
        here, top = make_hybrid(1500, 0, default_ms), default_ms.composite.bit_length()
        # Same exponent, then the foreign operand as hi (scale-up, shift-down) and as a lo
        # absorbed by gaps of M.bit_length() and more: never reconstructed, only set-checked.
        for exponent in (0, 3, 40, -top, -top - 1):
            there = make_hybrid(5, exponent, small_ms)
            for x, y in ((here, there), (there, here)):
                with pytest.raises(MismatchedSet):
                    hrfna_mul(x, y, default_ms, hcfg)
                with pytest.raises(MismatchedSet):
                    hrfna_add(x, y, default_ms, hcfg)
        # A zero operand takes the identity path of hrfna_add; the foreign
        # operand is refused whichever side the zero is on.
        for x, y in (
            (make_hybrid(0, 0, default_ms), make_hybrid(5, 3, small_ms)),
            (make_hybrid(0, 0, small_ms), here),
        ):
            for pair in ((x, y), (y, x)):
                for op in (hrfna_mul, hrfna_add):
                    with pytest.raises(MismatchedSet):
                        op(*pair, default_ms, hcfg)
        with pytest.raises(MismatchedSet):
            signed_value(make_hybrid(5, 0, small_ms).mantissa, default_ms)
        with pytest.raises(MismatchedSet):
            normalize(make_hybrid(50, 0, small_ms), default_ms, hcfg)

    def test_equal_set_built_apart_is_accepted(self, default_ms, hcfg):
        twin = ModulusSet(DEFAULT_MODULI)
        assert twin is not default_ms and twin == default_ms
        tau = tau_of(default_ms, hcfg)
        for n, f in ((tau // 2 - 1, 0), (-1500, 7), (3, -30)):
            apart, here = make_hybrid(n, f, twin), make_hybrid(n, f, default_ms)
            y = make_hybrid(2047, -11, default_ms)
            for op in (hrfna_mul, hrfna_add):
                for pair, same in (((apart, y), (here, y)), ((y, apart), (y, here))):
                    got, expected = op(*pair, default_ms, hcfg), op(*same, default_ms, hcfg)
                    assert fields(got) == fields(expected)
            assert signed_value(apart.mantissa, default_ms) == n
        big = make_hybrid(2**30, 0, twin)
        assert fields(normalize(big, default_ms, hcfg)) == fields(
            normalize(make_hybrid(2**30, 0, default_ms), default_ms, hcfg)
        )
