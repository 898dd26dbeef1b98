"""ModulusSet.kernels pinned to the map-based rns reference, bit for bit.

The kernels are straight-line code generated per modulus set; the rns
functions (encode_signed, encode_residues, mod_mul, mod_add and
crt_reconstruct with the symmetric fold) map one operator over any set and
are the reference, with shift_round_half_even for the rounding of drain and
shift_add. Sets are drawn pairwise coprime with 1 to 12 channels of at most
16 bits, and the edges are pinned as examples: one channel, the 65535/65534
pair, and signed values at +-(M/2 - 1). Each set's kernels are built on
first use, and an equal set built apart gets identical results.

The hypothesis pins run KERNEL_EXAMPLES examples each: 300, or more when
the active profile asks for more (tests/conftest.py registers CI's "ci").
"""

import copy
import pickle
from dataclasses import replace
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrfna import (
    DEFAULT_MODULI,
    ModulusSet,
    ResidueVector,
    crt_reconstruct,
    encode_residues,
    encode_signed,
    make_modulus_set,
    mod_add,
    mod_mul,
    shift_round_half_even,
)
from hrfna.errors import InvariantViolation

TWELVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
KERNEL_EXAMPLES = max(300, settings.default.max_examples)


@st.composite
def coprime_moduli(draw):
    """1 to 12 pairwise-coprime moduli in [2, 65535], kept in draw order."""
    width = draw(st.integers(1, 12))
    moduli = []
    for candidate in draw(st.lists(st.integers(2, 65535), min_size=width, max_size=60)):
        if all(gcd(candidate, m) == 1 for m in moduli):
            moduli.append(candidate)
            if len(moduli) == width:
                break
    return tuple(moduli)


def ref_signed(residues, ms):
    n = crt_reconstruct(ResidueVector(residues, ms), ms)
    return n - ms.composite if 2 * n >= ms.composite else n


def ref_encode_any(n, ms):
    """Residues of any integer n, through the reference encoder of n mod M."""
    return encode_residues(n % ms.composite, ms)


def residues_of(ms):
    return st.tuples(*(st.integers(0, m - 1) for m in ms.moduli))


def ties(d, half):
    """The ties +-(2q+1) * 2^(d-1) for q = 0, 1 and the largest q, with |n| <= half."""
    step = 1 << (d - 1)
    odd = {1, 3, ((half // step - 1) // 2) * 2 + 1}
    return sorted(t for o in odd for t in (o * step, -o * step) if 0 < o * step <= half)


@given(coprime_moduli(), st.data())
@settings(max_examples=KERNEL_EXAMPLES, deadline=None)
@example((7,), None)
@example((65535,), None)
@example((65535, 65534), None)
@example(DEFAULT_MODULI, None)
@example(TWELVE_PRIMES, None)
def test_kernels_match_reference(moduli, data):
    ms, twin = make_modulus_set(moduli), make_modulus_set(moduli)
    assert "kernels" not in vars(ms)  # built on first use, never by make_modulus_set
    assert ms.kernels is ms.kernels and twin.kernels is not ms.kernels
    half = (ms.composite - 1) // 2  # the largest |n| with 2|n| < M
    ns = [half, -half, 0, min(1, half), -min(1, half)]
    # All m_i - 1, all 0, and M // 2, which reads -M/2 when M is even.
    residues = [tuple(m - 1 for m in moduli), tuple(0 for _ in moduli)]
    residues.append(encode_residues(ms.composite // 2, ms).residues)
    cs = [1, 2, 1 << 80]
    if data is not None:
        ns.append(data.draw(st.integers(-half, half), label="n"))
        residues += [data.draw(residues_of(ms), label="r"), data.draw(residues_of(ms), label="s")]
        cs.append(1 << data.draw(st.integers(0, 80), label="delta"))

    # An equal set built apart generates its own kernels, with identical results.
    for k in (ms.kernels, twin.kernels):
        for n in ns:
            assert k.encode(n) == encode_signed(n, ms).residues
            assert k.signed(k.encode(n)) == n
        for r in residues:
            rv = ResidueVector(r, ms)
            assert k.signed(r) == ref_signed(r, ms)
            for s in residues:
                sv = ResidueVector(s, ms)
                assert k.mul(r, s) == mod_mul(rv, sv, ms).residues
                for c in cs:
                    want = mod_add(mod_mul(rv, ref_encode_any(c, ms), ms), sv, ms).residues
                    assert k.scale_add(r, c, s) == want

    # drain and shift_add: every shift they accept, on each residue tuple
    # above, on n at +-(M-1)//2 and 0, +-1, and on the ties at each shift.
    top = ms.composite.bit_length()
    inputs = [(r, ref_signed(r, ms)) for r in residues]
    inputs += [(encode_signed(n, ms).residues, n) for n in ns]
    for d in range(1, top + 2):
        for r, n in inputs + [(encode_signed(t, ms).residues, t) for t in ties(d, half)]:
            q = shift_round_half_even(n, d)
            qv = encode_signed(q, ms)
            assert ms.kernels.drain(r, d) == twin.kernels.drain(r, d) == (n, q, qv.residues)
            if d < top:  # the last residue tuple is the drawn s, or M // 2's
                t = mod_add(ResidueVector(residues[-1], ms), qv, ms).residues
                summed = t, ref_signed(t, ms)
                assert ms.kernels.shift_add(residues[-1], r, d) == summed
                assert twin.kernels.shift_add(residues[-1], r, d) == summed


def test_only_int_constants_reach_the_generated_source():
    ms = make_modulus_set((3, 5, 7))
    injected = ("3, __import__('os')", 5, 7)
    with pytest.raises(InvariantViolation, match="modulus-constants"):
        replace(ms, moduli=injected)  # refused at construction
    # A set forged past the constructor still meets the exec guard.
    forged = object.__new__(ModulusSet)
    for name, value in vars(ms).items():
        object.__setattr__(forged, name, value)
    object.__setattr__(forged, "moduli", injected)
    with pytest.raises(InvariantViolation, match="modulus-constants"):
        forged.kernels


def test_a_set_with_kernels_pickles_without_them():
    ms = make_modulus_set(DEFAULT_MODULI)
    ms.kernels
    copy = pickle.loads(pickle.dumps(ms))
    assert copy == ms and "kernels" not in vars(copy)
    assert copy.kernels.signed(copy.kernels.encode(-12345)) == -12345


def test_a_set_reduces_to_the_constructor_on_its_moduli():
    ms = make_modulus_set(DEFAULT_MODULI)
    assert ms.__reduce__() == (ModulusSet, (ms.moduli,))


def test_copies_of_a_forged_set_are_rebuilt_from_the_moduli():
    # Forged past the constructor with a wrong composite: every copy runs the
    # checked constructor and derives its constants again.
    ms = make_modulus_set((3, 5, 7))
    forged = object.__new__(ModulusSet)
    for name, value in vars(ms).items():
        object.__setattr__(forged, name, value)
    object.__setattr__(forged, "composite", 12345)
    for twin in (copy.copy(forged), copy.deepcopy(forged), pickle.loads(pickle.dumps(forged))):
        assert twin.composite == prod(twin.moduli) == 105
        assert twin == ms and twin.fresh == {} and twin.fresh is not ms.fresh
