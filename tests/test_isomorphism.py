"""The ops' exact integers pinned to the map-based rns channel ops: the CRT isomorphism.

A hybrid value carries its mantissa n, in the symmetric range
-M/2 < n < M/2, and its residues are rns.encode(n). Z_M is isomorphic to
the product of the Z_m_i, so reducing an integer mod M and then per
channel gives the residues the channel ops (mod_mul, mod_add) give on the
operands' residues, wraps included, and crt_reconstruct inverts encode.
These pins check that on the ints for the product, the sum, the scaled sum
(n_hi * 2^d + n_lo) and the shift-down sum (n_hi + round(n_lo / 2^d)).
hrfna_mul and hrfna_add form that exact integer and never reduce it: one
with 2|n| >= M, where the channel ops would wrap, raises WrapDetected with
the message that sizes n, and any other is the op's n, with the channel
ops' residues bit for bit. normalize is pinned to the rounding.

Sets are drawn pairwise coprime with 1 to 12 channels of at most 16 bits,
and the edges are pinned as examples: one channel, the 65535/65534 pair,
and signed values at +-(M/2 - 1) and, on an even M, -M/2. The library's
ops need a config that validates on the set, so they run on every set with
M > 65, under loose(ms), whose detector fires only near M/2. An op picks
its path from n and the exponent gap alone, so the pins compute the path
each operand pair takes by the ops' rules (tests/support.py's add_path:
absorbed from the gap M.bit_length() on) and check the op took it. A
result may normalize: it is then the op's n rounded by the reference
shift_round_half_even once per pass, and its norm_events counts the passes
the detector asks of that n. (3, 5, 7) is swept exhaustively, and reaches
every path: a product with and without normalization, the scale-up,
shift-down and absorbed adds, and a refused product, scale-up and
shift-down.

A set carries its moduli and the constants derived from them, nothing the
ops leave behind: a pickle or copy is rebuilt from the moduli through the
checked constructor, which admits only int moduli.
"""

import copy
import pickle
from dataclasses import fields, replace
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrfna import (
    ALIGN_SCALE_UP,
    ALIGN_SHIFT_DOWN,
    DEFAULT_MODULI,
    DegenerateResult,
    HybridConfig,
    HybridNum,
    ModulusSet,
    crt_reconstruct,
    encode_signed,
    hrfna_add,
    hrfna_mul,
    mod_add,
    mod_mul,
    normalize,
    signed_value,
    validate_config,
)
from hrfna.errors import InvariantViolation
from hrfna.rns import encode
from support import (
    ELEVEN_PRIMES,
    TWO_CHANNEL,
    add_path,
    examples,
    exact_integer,
    outcome,
    returned,
    shift_round_half_even,
)


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


def sym(n, ms):
    """n reduced to the symmetric range -M/2 <= n < M/2, as the channel ops leave it."""
    half = ms.composite // 2
    return (n + half) % ms.composite - half


def loose(ms):
    """A config valid on ms when M > 65: b = 3, k = 1 and tau = M - 1, so it fires near M/2."""
    return HybridConfig(Fraction(ms.composite - 1, ms.composite), 1, 3)


def assert_ops_match_channel_ops(a, b, ms, cfg, deltas):
    """hrfna_mul and hrfna_add on a and b against mod_mul and mod_add on their residues.

    a * 2^d is the add's hi for each gap d. Returns the paths the ops took.
    """
    ra, rb = encode(a, ms), encode(b, ms)
    y = HybridNum(b, ms, 0)
    z = outcome(hrfna_mul, HybridNum(a, ms, 0), y, ms, cfg)
    if returned(z, "mul", a * b, ms, cfg):
        assert encode(a * b, ms) == mod_mul(ra, rb, ms)
        paths = {"normalized product" if z.norm_events else "product"}
    else:
        paths = {"refused product"}
    if not a or not b:
        return paths  # a zero takes the identity path
    tau, _, gap = validate_config(ms, cfg)
    for d in deltas:
        x = HybridNum(a, ms, d)
        z = outcome(hrfna_add, x, y, ms, cfg)
        path, n = add_path(a, d, tau, gap), exact_integer("add", x, y, tau, gap)
        if path == "scale-up":
            strategy, channel = ALIGN_SCALE_UP, mod_add(mod_mul(ra, encode(1 << d, ms), ms), rb, ms)
        else:  # n - a: b shifted down by d, or 0 where it is absorbed
            strategy, channel = ALIGN_SHIFT_DOWN, mod_add(ra, encode_signed(n - a, ms), ms)
        if returned(z, "add", n, ms, cfg):
            assert z.align_strategy == strategy and encode(n, ms) == channel
            paths.add(path)
        else:
            paths.add("refused " + path)
    return paths


def ties(d, half):
    """The ties +-(2q+1) * 2^(d-1) for q = 0, 1 and the largest q, with |n| <= half."""
    step = 1 << (d - 1)
    odd = {1, 3, ((half // step - 1) // 2) * 2 + 1}
    return sorted(t for o in odd for t in (o * step, -o * step) if 0 < o * step <= half)


@given(coprime_moduli(), st.data())
@settings(max_examples=examples(300), deadline=None)
@example((7,), None)
@example((65535,), None)
@example(TWO_CHANNEL[0], None)
@example(DEFAULT_MODULI, None)
@example((2, *ELEVEN_PRIMES), None)
def test_ops_match_channel_ops(moduli, data):
    ms, twin = ModulusSet(moduli), ModulusSet(moduli)
    M, half = ms.composite, (ms.composite - 1) // 2  # half: the largest |n| with 2|n| < M
    ns = [half, -half, 0, min(1, half), -min(1, half)]
    if M % 2 == 0:
        ns.append(-(M // 2))  # a channel wrap's n, which encode_signed refuses and no op forms
    deltas = [0, 1, 2]
    if data is not None:
        ns += [data.draw(st.integers(-half, half), label=label) for label in ("a", "b")]
        deltas.append(data.draw(st.integers(0, M.bit_length() + 1), label="delta"))

    # crt_reconstruct inverts encode, and encode is encode_signed where that accepts n.
    for n in ns:
        rv = encode(n, ms)
        assert crt_reconstruct(rv, ms) == n % M and signed_value(rv, ms) == n
        assert rv == encode(n % M, ms)
        if 2 * abs(n) < M:
            assert rv == encode_signed(n, ms)

    # The ring identities on the ints, wraps included.
    top = M.bit_length()
    for a in ns:
        for b in ns:
            ra, rb = encode(a, ms), encode(b, ms)
            assert encode(sym(a * b, ms), ms) == mod_mul(ra, rb, ms)
            assert encode(sym(a + b, ms), ms) == mod_add(ra, rb, ms)
            for d in deltas:
                scaled = mod_add(mod_mul(ra, encode(1 << d, ms), ms), rb, ms)
                assert encode(sym((a << d) + b, ms), ms) == scaled
                q = shift_round_half_even(b, d)
                assert encode(sym(a + q, ms), ms) == mod_add(ra, encode(q, ms), ms)

    # The library's ops, on a config that validates on the set; an operand under an
    # equal set built apart gives the same outcome, field by field (a refusal's
    # text compares as its characters).
    if M > 65:
        cfg = loose(ms)
        for a in ns:
            for b in ns:
                assert_ops_match_channel_ops(a, b, ms, cfg, deltas)
                x, y = HybridNum(a, ms, 0), HybridNum(b, ms, 0)
                z = tuple(outcome(hrfna_mul, x, y, ms, cfg))
                assert tuple(outcome(hrfna_mul, x._replace(set_ref=twin), y, ms, cfg)) == z

    # normalize: every shift k from 1 past M's bit length, on each n and on the ties at k.
    for k in range(1, top + 2):
        cfg = HybridConfig(Fraction(1, 2), k, max(3, k + 1))  # normalize reads only k
        for n in ns + ties(k, half):
            q = shift_round_half_even(n, k)
            if q == 0 and n != 0:
                with pytest.raises(DegenerateResult):
                    normalize(HybridNum(n, ms, 0), ms, cfg)
                continue
            z = normalize(HybridNum(n, twin, 0), ms, cfg)
            assert (z.n, z.exponent, z.set_ref) == (q, k, ms)
            assert z.mantissa == encode_signed(q, ms)


def test_every_operand_pair_on_a_small_set():
    """(3, 5, 7): every pair of mantissas through every op path, refusals included."""
    ms = ModulusSet((3, 5, 7))
    cfg = loose(ms)
    paths = set()
    for a in range(-52, 53):
        for b in range(-52, 53):
            paths |= assert_ops_match_channel_ops(a, b, ms, cfg, (0, 1, 3, 6, 7))
    assert paths == {
        "product", "normalized product", "scale-up", "shift-down", "absorbed",
        "refused product", "refused scale-up", "refused shift-down",
    }


def forge(ms, **changes):
    """A copy of ms built past the constructor, with changes its checks would refuse."""
    forged = object.__new__(ModulusSet)
    for name, value in {**vars(ms), **changes}.items():
        object.__setattr__(forged, name, value)
    return forged


def test_only_int_moduli_build_a_set():
    # Every int op computes with the set's constants (M and its half), so no
    # constructor admits a non-int modulus, and a set forged past the
    # constructor is refused again by every copy of it.
    ms = ModulusSet((3, 5, 7))
    injected = ("3, __import__('os')", 5, 7)
    with pytest.raises(InvariantViolation, match="modulus-constants"):
        replace(ms, moduli=injected)
    forged = forge(ms, moduli=injected)
    for rebuild in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        with pytest.raises(InvariantViolation, match="modulus-constants"):
            rebuild(forged)


def test_a_set_pickles_to_its_fields_after_ops():
    # The ops keep nothing on the set: after they have run, it holds its fields
    # alone, and a pickle of it is an equal set that computes the same.
    ms = ModulusSet(DEFAULT_MODULI)
    cfg = loose(ms)
    x = HybridNum(-12345, ms, 0)
    z = hrfna_add(hrfna_mul(x, x, ms, cfg), x, ms, cfg)
    assert set(vars(ms)) == {f.name for f in fields(ModulusSet)}
    twin = pickle.loads(pickle.dumps(ms))
    assert twin == ms and twin is not ms and vars(twin) == vars(ms)
    assert signed_value(encode_signed(-12345, twin), twin) == -12345
    y = HybridNum(-12345, twin, 0)
    w = hrfna_add(hrfna_mul(y, y, twin, cfg), y, twin, cfg)
    assert (w.n, w.exponent, w.mantissa.residues) == (z.n, z.exponent, z.mantissa.residues)


def test_a_set_reduces_to_the_constructor_on_its_moduli():
    ms = ModulusSet(DEFAULT_MODULI)
    assert ms.__reduce__() == (ModulusSet, (ms.moduli,))


def test_copies_of_a_forged_set_are_rebuilt_from_the_moduli():
    # Forged past the constructor with a wrong composite: every copy runs the
    # checked constructor and derives its constants again.
    ms = ModulusSet((3, 5, 7))
    forged = forge(ms, composite=12345)
    for twin in (copy.copy(forged), copy.deepcopy(forged), pickle.loads(pickle.dumps(forged))):
        assert twin.composite == prod(twin.moduli) == 105
        assert twin == ms and twin is not ms
