"""from_real, normalize, hrfna_mul and hrfna_add pinned to compositions of public helpers.

The reference below rebuilds every field of a result (residues, exponent,
magnitude estimate, sign, alignment strategy and normalization events) from
mod_mul, mod_add, encode_signed, shift_round_half_even and crt_reconstruct
alone, with tau and the detector limit derived from the config's alpha;
from_real is pinned to make_hybrid of an exact Fraction rounding. Each op
does its channel work in its own frame after rns has checked any operand
under another set object, so every pin is also run with operands rebuilt
under an equal set made apart: the check must let them through unchanged.

The hypothesis pins run PIN_EXAMPLES examples each: 400, or more when the
active profile asks for more (tests/conftest.py registers CI's "ci").
"""

import copy
import gc
import math
import pickle
import weakref
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
    NormalizationEvent,
    OutOfRange,
    ResidueVector,
    chained_mac,
    crt_reconstruct,
    dot_product,
    encode_signed,
    from_real,
    hrfna_add,
    hrfna_mul,
    make_hybrid,
    make_modulus_set,
    mod_add,
    mod_mul,
    normalize,
    run_mac_chain,
    shift_round_half_even,
    signed_value,
    validate_config,
)
from hrfna.rns import FRESH_MEMO_SIZE
from hrfna.workloads import mac_sequences

SETS = {
    "two": (
        (65535, 65534),
        HybridConfig(alpha=Fraction(3, 8192), scale_shift_k=9, operand_bound_bits=10),
    ),
    "default": (DEFAULT_MODULI, DEFAULT_CONFIG),
    "eleven": ((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37), DEFAULT_CONFIG),
}
BUILT = {}
TWINS = {}
PIN_EXAMPLES = max(400, settings.default.max_examples)


def built(name):
    if name not in BUILT:
        moduli, cfg = SETS[name]
        ms = make_modulus_set(moduli)
        validate_config(ms, cfg)
        BUILT[name] = ms, cfg
    return BUILT[name]


def tau_and_limit(ms, cfg):
    tau = cfg.alpha.numerator * ms.composite // cfg.alpha.denominator
    return tau, math.log2(tau) - 1.0


def ref_signed(rv, ms):
    n = crt_reconstruct(rv, ms)
    return n - ms.composite if 2 * n >= ms.composite else n


def ref_pass(mant, exponent, ms, cfg):
    """One normalization: (mantissa, exponent, mag, sign, event) after it."""
    k = cfg.scale_shift_k
    n = ref_signed(mant, ms)
    out = shift_round_half_even(n, k)
    if out == 0 and n != 0:
        raise DegenerateResult(f"mantissa {n} vanished under shift {k}")
    mag, sign = (math.log2(abs(out)) if out else -math.inf), (out > 0) - (out < 0)
    return encode_signed(out, ms), exponent + k, mag, sign, (n, out, k, exponent, exponent + k)


def ref_fields(mant, exponent, mag, sign, strategy, ms, cfg):
    """Drain through the fast detector; every field of the final value."""
    limit = tau_and_limit(ms, cfg)[1]
    events = ()
    while mag >= limit:
        mant, exponent, mag, sign, event = ref_pass(mant, exponent, ms, cfg)
        events += (event,)
    return mant.residues, exponent, mag, sign, strategy, events


def ref_normalize(h, ms, cfg):
    mant, exponent, mag, sign, event = ref_pass(h.mantissa, h.exponent, ms, cfg)
    return mant.residues, exponent, mag, sign, h.align_strategy, h.norm_events + (event,)


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
    return ref_fields(
        mant, x.exponent + y.exponent, x.mag_log2 + y.mag_log2, x.sign * y.sign, None, ms, cfg
    )


def ref_add(x, y, ms, cfg):
    if x.sign == 0 or y.sign == 0:
        h = y if x.sign == 0 else x
        return h.mantissa.residues, h.exponent, h.mag_log2, h.sign, ALIGN_IDENTITY, ()
    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    delta = hi.exponent - lo.exponent
    exponent, strategy = hi.exponent, ALIGN_SCALE_UP
    if delta == 0:
        mant = mod_add(hi.mantissa, lo.mantissa, ms)
    elif hi.mag_log2 + delta < tau_and_limit(ms, cfg)[1]:
        scaled = mod_mul(hi.mantissa, encode_signed(1 << delta, ms), ms)
        mant, exponent = mod_add(scaled, lo.mantissa, ms), lo.exponent
    else:
        shifted = encode_signed(shift_round_half_even(ref_signed(lo.mantissa, ms), delta), ms)
        mant, strategy = mod_add(hi.mantissa, shifted, ms), ALIGN_SHIFT_DOWN
    n = ref_signed(mant, ms)
    mag = math.log2(abs(n)) if n else -math.inf
    return ref_fields(mant, exponent, mag, (n > 0) - (n < 0), strategy, ms, cfg)


def fields(z):
    return z.mantissa.residues, z.exponent, z.mag_log2, z.sign, z.align_strategy, z.norm_events


def apart(h):
    """h with its mantissa under an equal modulus set made apart from its own."""
    moduli = h.mantissa.set_ref.moduli
    if moduli not in TWINS:
        TWINS[moduli] = make_modulus_set(moduli)
    return h._replace(mantissa=h.mantissa._replace(set_ref=TWINS[moduli]))


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
    tau = tau_and_limit(ms, cfg)[0]
    fresh = (1 << (cfg.operand_bound_bits - 1)) - 1
    wide = st.integers(-(tau // 2), tau // 2)
    n_x = draw(wide)
    n_y = draw(wide if wide_both else st.integers(-fresh, fresh))
    assume(2 * abs(n_x * n_y) < ms.composite or wide_both)
    provenance = (ALIGN_SHIFT_DOWN, (NormalizationEvent(9, 1, 3, 0, 3),))
    values = []
    for n in (n_x, n_y):
        extra = provenance if draw(st.booleans()) else ()
        values.append(make_hybrid(n, draw(st.integers(-40, 40)), ms, *extra))
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
    provenance = (ALIGN_SCALE_UP, (NormalizationEvent(9, 1, 3, 0, 3),)) if draw(st.booleans()) else ()
    return make_hybrid(n, draw(st.integers(-40, 40)), ms, *provenance), ms, cfg


class TestAgainstChannelOps:
    @given(operands(wide_both=False))
    @settings(max_examples=PIN_EXAMPLES, deadline=None)
    def test_mul(self, case):
        x, y, ms, cfg = case
        assert fields(hrfna_mul(x, y, ms, cfg)) == ref_mul(x, y, ms, cfg)
        assert_apart_agrees(hrfna_mul, x, y, ms, cfg)

    @given(st.one_of(operands(wide_both=False), operands(wide_both=True)))
    @settings(max_examples=PIN_EXAMPLES, deadline=None)
    def test_add(self, case):
        x, y, ms, cfg = case
        assert fields(hrfna_add(x, y, ms, cfg)) == ref_add(x, y, ms, cfg)
        assert_apart_agrees(hrfna_add, x, y, ms, cfg)

    @given(wide_operand())
    @settings(max_examples=PIN_EXAMPLES, deadline=None)
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
    @settings(max_examples=PIN_EXAMPLES, deadline=None)
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
        ms, cfg = make_modulus_set((3, 5, 7)), HybridConfig(Fraction(3, 8192), 5, 8)
        for x in (1.0, -1.5, 0.75, 3e-300):
            with pytest.raises(OutOfRange) as got:
                from_real(x, ms, cfg)
            with pytest.raises(OutOfRange) as want:
                make_hybrid(*ref_rounding(x, cfg.operand_bound_bits), ms)
            assert str(got.value) == str(want.value)
        assert fields(from_real(0.0, ms, cfg)) == fields(make_hybrid(0, 0, ms))
        # An even M: N = M/2 = 105 lies in the window and has no signed encoding.
        even = make_modulus_set((2, 3, 5, 7))
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
            k, tau = cfg.scale_shift_k, tau_and_limit(ms, cfg)[0]
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

    def test_absorption_boundary(self, monkeypatch):
        """Shift-down gaps around L = M.bit_length(): from L on, lo is absorbed unreconstructed.

        |n_lo| <= M/2 < 2^(L-1) rounds to 0 under any shift >= L, so the sum is
        hi's residues; below L, lo is reconstructed once, by the set's shift_add
        kernel, and may still count.
        """
        reconstructed = []

        def counted(shift_add):
            def counting(s, r, d):
                reconstructed.append(r)
                return shift_add(s, r, d)

            return counting

        for name in sorted(SETS):
            ms, cfg = built(name)
            monkeypatch.setattr(ms.kernels, "shift_add", counted(ms.kernels.shift_add))
            top, tau = ms.composite.bit_length(), tau_and_limit(ms, cfg)[0]
            half, quarter = (ms.composite - 1) // 2, 1 << (top - 2)
            for hi in (make_hybrid(tau // 2 - 9, 0, ms), make_hybrid(-2047, 5, ms)):
                for delta in (top - 2, top - 1, top, top + 1):
                    for n_lo in (half, -half, quarter, -quarter, 3, -3):
                        lo = make_hybrid(n_lo, hi.exponent - delta, ms)
                        for x, y in ((hi, lo), (lo, hi)):
                            reconstructed.clear()
                            z = hrfna_add(x, y, ms, cfg)
                            assert len(reconstructed) == (delta < top)
                            assert z.align_strategy == ALIGN_SHIFT_DOWN
                            assert fields(z) == ref_add(x, y, ms, cfg)
                            assert fields(hrfna_add(x, y, ms, cfg, debug=True)) == fields(z)
                            assert_apart_agrees(hrfna_add, x, y, ms, cfg)

    def test_absorbed_add_takes_magnitude_from_a_normalized_hi(self, monkeypatch):
        """From the gap L = M.bit_length() on, a hi with norm events is not reconstructed.

        normalize set such a hi's mag_log2 and sign from its exact value, so
        the absorbed sum reuses them; any other hi (an unnormalized product,
        whose mag_log2 is an estimate, or a from_real value) is reconstructed
        once by the signed kernel. Below L, lo is reconstructed by shift_add
        and signed does not run.
        """
        reconstructed = []

        def counted(signed):
            def counting(r):
                reconstructed.append(r)
                return signed(r)

            return counting

        for name in sorted(SETS):
            ms, cfg = built(name)
            monkeypatch.setattr(ms.kernels, "signed", counted(ms.kernels.signed))
            top, (tau, limit) = ms.composite.bit_length(), tau_and_limit(ms, cfg)
            half = (ms.composite - 1) // 2
            wide, fresh = make_hybrid(tau // 2 - 9, 0, ms), make_hybrid(-2047, -11, ms)
            normalized = hrfna_mul(wide, fresh, ms, cfg)
            unnormalized = hrfna_mul(from_real(1.3, ms, cfg), from_real(-0.7, ms, cfg), ms, cfg)
            still_wide = normalize(make_hybrid(-half, 4, ms), ms, cfg)
            assert normalized.norm_events and still_wide.norm_events
            assert not unnormalized.norm_events
            if name == "eleven":  # one drain pass leaves half / 2^k above the limit
                assert still_wide.mag_log2 >= limit
            for hi in (normalized, unnormalized, from_real(-5.5, ms, cfg), still_wide):
                for delta in (top - 1, top, top + 1, top + 2):
                    for n_lo in (half, -3):
                        lo = make_hybrid(n_lo, hi.exponent - delta, ms)
                        for x, y in ((hi, lo), (lo, hi)):
                            want = ref_add(x, y, ms, cfg)
                            for pair in ((x, y), (apart(x), y), (x, apart(y)), (apart(x), apart(y))):
                                reconstructed.clear()
                                z = hrfna_add(*pair, ms, cfg)
                                assert len(reconstructed) == (delta >= top and not hi.norm_events)
                                assert fields(z) == want
                            assert fields(hrfna_add(x, y, ms, cfg, debug=True)) == want

    def test_half_m_mantissa_reads_negative(self):
        """Residues of M/2 on an even M (only a wrap leaves them) reconstruct as -M/2."""
        ms, cfg = built("two")
        half = ms.composite // 2
        h = make_hybrid(1, 0, ms)._replace(
            mantissa=ResidueVector(tuple(half % m for m in ms.moduli), ms)
        )
        assert ref_signed(h.mantissa, ms) == -half
        assert fields(normalize(h, ms, cfg)) == ref_normalize(h, ms, cfg)
        assert fields(normalize(apart(h), ms, cfg)) == ref_normalize(h, ms, cfg)

    def test_chain_under_an_equal_set_made_apart(self):
        ms, cfg = built("default")
        twin = make_modulus_set(ms.moduli)
        sequences = mac_sequences(3, 500)
        assert run_mac_chain(*sequences, twin, cfg) == run_mac_chain(*sequences, ms, cfg)

    def test_every_path_is_reached(self):
        ms, cfg = built("default")
        tau = tau_and_limit(ms, cfg)[0]
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
            assert (z.align_strategy, len(z.norm_events)) == (strategy, events)
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
        twin = make_modulus_set(DEFAULT_MODULI)
        assert twin is not default_ms and twin == default_ms
        tau = tau_and_limit(default_ms, hcfg)[0]
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


class TestFreshMemo:
    """from_real's forward-conversion table (ModulusSet.fresh), one per set object.

    A miss and then a hit give every field of the reference, under the set
    that was passed in; the table is made empty with the set, holds no refused
    mantissa, stops at FRESH_MEMO_SIZE, and is left out of pickles and copies.
    """

    @staticmethod
    def window_edges(b):
        """Reals at the edges of the b-bit window and, last, ones that round up to 2^(b-1)."""
        low, top = 1 << (b - 2), 1 << (b - 1)
        for f in (-b - 40, -b, 0, 7):
            for n in (low, top - 1, top - 0.5, top - 0.25):
                for sign in (1, -1):
                    yield math.ldexp(sign * n, f)

    def test_miss_then_hit(self):
        for name, (moduli, cfg) in sorted(SETS.items()):
            xs = [*self.window_edges(cfg.operand_bound_bits), 0.1, -0.7, 3.25e-9, 2.5e12]
            sets = make_modulus_set(moduli), make_modulus_set(moduli)
            for ms in sets:
                assert ms.fresh == {}
                validate_config(ms, cfg)
                seen = set()
                for x in xs:
                    want = ref_from_real(x, ms, cfg)
                    n = signed_value(want.mantissa, ms)
                    assert (n in ms.fresh) == (n in seen)  # a miss the first time n is met
                    first, second = from_real(x, ms, cfg), from_real(x, ms, cfg)
                    for got in (first, second):
                        assert fields(got) == fields(want)
                        assert got.set_ref is ms
                    assert second.mantissa is first.mantissa is ms.fresh[n][0]
                    seen.add(n)
                assert sorted(ms.fresh) == sorted(seen)
                assert 1 << (cfg.operand_bound_bits - 2) in seen  # the bump landed at the low edge
            assert sets[0].fresh is not sets[1].fresh

    def test_refused_mantissa_is_not_stored(self):
        # Unvalidated: b = 7 puts |N| in [32, 64), and 2 * |N| < M = 105 only up to 52.
        cfg = HybridConfig(Fraction(3, 8192), 5, 7)
        ms = make_modulus_set((3, 5, 7))
        for x in (53.0, -60.0, 63.0):
            with pytest.raises(OutOfRange):
                from_real(x, ms, cfg)
        assert ms.fresh == {}
        assert fields(from_real(52.0, ms, cfg)) == fields(ref_from_real(52.0, ms, cfg))
        for x in (53.0, -60.0, 63.0):
            with pytest.raises(OutOfRange):
                from_real(x, ms, cfg)
        assert list(ms.fresh) == [52]

    def test_memo_stops_at_its_bound(self):
        assert FRESH_MEMO_SIZE >= 1 << (DEFAULT_CONFIG.operand_bound_bits - 1)
        # b = 15 on the eleven set: a window of 2^14 mantissas, twice the bound.
        cfg = HybridConfig(Fraction(3, 8192), 11, 15)
        assert 1 << (cfg.operand_bound_bits - 1) > FRESH_MEMO_SIZE
        ms = make_modulus_set(SETS["eleven"][0])
        validate_config(ms, cfg)
        low = 1 << (cfg.operand_bound_bits - 2)
        mantissas = [*range(low, 2 * low), *range(-low, -low - 300, -1)]
        assert len(mantissas) > FRESH_MEMO_SIZE
        for n in mantissas:
            got = from_real(float(n), ms, cfg)
            assert fields(got) == fields(make_hybrid(n, 0, ms)) and got.set_ref is ms
        assert len(ms.fresh) == FRESH_MEMO_SIZE
        assert list(ms.fresh) == mantissas[:FRESH_MEMO_SIZE]
        for n in mantissas[FRESH_MEMO_SIZE:]:  # past the bound: built through the kernel again
            first, second = from_real(float(n), ms, cfg), from_real(float(n), ms, cfg)
            assert fields(first) == fields(second) == fields(make_hybrid(n, 0, ms))
            assert first.mantissa is not second.mantissa
        assert len(ms.fresh) == FRESH_MEMO_SIZE

    def test_copies_build_their_own_memo(self):
        moduli, cfg = SETS["default"]
        ms = make_modulus_set(moduli)
        xs = [0.3, -1.75, 1e-5, 2047.0]
        for x in xs:
            from_real(x, ms, cfg)
        filled = dict(ms.fresh)
        for twin in (pickle.loads(pickle.dumps(ms)), copy.deepcopy(ms), copy.copy(ms)):
            assert twin == ms and twin is not ms
            assert twin.fresh == {} and "kernels" not in vars(twin)
            for x in xs:
                got = from_real(x, twin, cfg)
                assert fields(got) == fields(ref_from_real(x, ms, cfg))
                assert got.set_ref is twin
            assert all(entry[0].set_ref is twin for entry in twin.fresh.values())
        assert ms.fresh == filled and all(entry[0].set_ref is ms for entry in filled.values())
        # Each stored vector refers back to ms: only the cyclic collector frees it.
        ref = weakref.ref(ms)
        del ms, filled
        gc.collect()
        assert ref() is None


class TestReverseTable:
    """The oracles' reverse-conversion table (ModulusSet.kernels.reverse), one per set object.

    Every entry is the reference reconstruction of its key folded to the
    symmetric range, not the kernel's own output; the signed kernel runs once
    per key, on its miss; the table stops at FRESH_MEMO_SIZE, is left out of
    pickles and copies, and a cold and a warm table give the workloads
    identical results.
    """

    @staticmethod
    def assert_entries_are_the_reference(ms):
        for r, n in ms.kernels.reverse.items():
            assert n == ref_signed(ResidueVector(r, ms), ms)

    def test_miss_then_hit(self, monkeypatch):
        for name, (moduli, cfg) in sorted(SETS.items()):
            ms = make_modulus_set(moduli)
            validate_config(ms, cfg)
            assert "kernels" not in vars(ms)
            table, signed, calls = ms.kernels.reverse, ms.kernels.signed, []
            assert not table  # made empty with the kernels
            # A miss calls signed from the kernels' own namespace.
            kernel_globals = type(table).__missing__.__globals__
            monkeypatch.setitem(kernel_globals, "signed", lambda r: calls.append(r) or signed(r))
            xs = [*TestFreshMemo.window_edges(cfg.operand_bound_bits), 0.1, -0.7, 3.25e-9, 2.5e12]
            seen = []
            for x in xs:
                rv = from_real(x, ms, cfg).mantissa
                hit = rv.residues in table
                assert hit == (rv.residues in seen)  # a miss the first time a vector is met
                assert table[rv.residues] == ref_signed(rv, ms)
                if not hit:
                    seen.append(rv.residues)
            assert calls == seen == list(table)  # one kernel call per key, on its miss
            self.assert_entries_are_the_reference(ms)

    def test_oracle_leaves_are_the_reference(self):
        for name, (moduli, cfg) in sorted(SETS.items()):
            ms = make_modulus_set(moduli)
            validate_config(ms, cfg)
            mults, addends = mac_sequences(3, 300)
            run_mac_chain(mults, addends, ms, cfg)
            dot_product(addends, mults, ms, cfg)
            leaves = {from_real(x, ms, cfg).mantissa.residues for x in [*mults, *addends]}
            assert set(ms.kernels.reverse) == leaves
            self.assert_entries_are_the_reference(ms)

    def test_table_stops_at_its_bound(self):
        moduli, cfg = SETS["default"]
        sequences = mac_sequences(5, 2000)
        cold = make_modulus_set(moduli)
        want = run_mac_chain(*sequences, cold, cfg)
        met = list(cold.kernels.reverse)
        assert 100 < len(met) < FRESH_MEMO_SIZE
        # A table with room for 100 more vectors. Mantissas at and above 2^(b-1)
        # are never fresh, so the chain meets none of these keys.
        ms = make_modulus_set(moduli)
        table, top = ms.kernels.reverse, 1 << (cfg.operand_bound_bits - 1)
        outside = [ms.kernels.encode(n) for n in range(top, top + FRESH_MEMO_SIZE - 100)]
        for r in outside:
            table[r]
        assert list(table) == outside
        assert run_mac_chain(*sequences, ms, cfg) == want  # runs past the bound
        assert list(table) == outside + met[:100]
        self.assert_entries_are_the_reference(ms)
        # Past the bound a miss is reconstructed and not kept.
        r = ms.kernels.encode(-top - 1)
        assert r not in table and table[r] == ref_signed(ResidueVector(r, ms), ms)
        assert r not in table and len(table) == FRESH_MEMO_SIZE
        assert run_mac_chain(*sequences, ms, cfg) == want

    def test_copies_leave_the_table_out(self):
        ms = make_modulus_set(SETS["default"][0])
        keys = [ms.kernels.encode(n) for n in (1024, -2047, 1500)]
        for r in keys:
            ms.kernels.reverse[r]
        filled = dict(ms.kernels.reverse)
        for twin in (pickle.loads(pickle.dumps(ms)), copy.deepcopy(ms), copy.copy(ms)):
            assert twin == ms and twin is not ms
            assert "kernels" not in vars(twin)
            assert [twin.kernels.reverse[r] for r in keys] == [filled[r] for r in keys]
            assert twin.kernels.reverse is not ms.kernels.reverse
            assert list(twin.kernels.reverse) == keys
        assert ms.kernels.reverse == filled
        # The table refers to no vector and so not to ms: its reference count frees it.
        ref = weakref.ref(ms)
        del ms
        assert ref() is None

    def test_equal_sets_keep_separate_tables(self):
        moduli, cfg = SETS["default"]
        a, b = make_modulus_set(moduli), make_modulus_set(moduli)
        assert a == b and hash(a) == hash(b)
        r = a.kernels.encode(-1500)
        assert a.kernels.reverse[r] == -1500
        assert a.kernels.reverse is not b.kernels.reverse and not b.kernels.reverse
        run_mac_chain(*mac_sequences(2, 50), b, cfg)
        assert list(a.kernels.reverse) == [r] and r not in b.kernels.reverse

    def test_cold_and_warm_runs_agree(self):
        xs, ys = mac_sequences(4, 600)

        def both(ms, cfg, dot_first):
            validate_config(ms, cfg)
            if dot_first:
                acc, dot = dot_product(xs, ys, ms, cfg)
            chain = chained_mac(4, 600, ms, cfg)
            if not dot_first:
                acc, dot = dot_product(xs, ys, ms, cfg)
            assert acc.set_ref is ms
            return chain, fields(acc), dot

        for name, (moduli, cfg) in sorted(SETS.items()):
            ms = make_modulus_set(moduli)
            cold = both(ms, cfg, False)
            assert ms.kernels.reverse
            assert both(ms, cfg, False) == cold, name  # warm
            assert both(make_modulus_set(moduli), cfg, True) == cold, name  # cold, other order
