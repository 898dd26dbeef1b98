"""Residue core: construction, channel ops, reconstruction.

Expected values come from independent oracles: brute-force search over
[0, M) for reconstruction, and Python big-int arithmetic for the
homomorphism checks.
"""

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrfna import (
    MismatchedSet,
    ModulusSet,
    ModulusTooLarge,
    ModulusTooSmall,
    NotCoprime,
    OutOfRange,
    crt_reconstruct,
    encode_signed,
    mod_add,
    mod_mul,
    mod_sub,
    rns,
)
from hrfna.errors import InvariantViolation
from hrfna.hybrid import signed_value
from hrfna.rns import encode


def brute_force_reconstruct(residues, moduli):
    """Independent oracle: scan [0, M) for the matching integer."""
    m_total = 1
    for m in moduli:
        m_total *= m
    for n in range(m_total):
        if all(n % m == r for m, r in zip(moduli, residues)):
            return n
    raise AssertionError("no preimage found")


def assert_coefficients_are_unit_vectors(ms):
    """c_i mod m_j is 1 for i == j and 0 otherwise, and each c_i < M."""
    for i, c in enumerate(ms.crt_coeffs):
        assert 0 <= c < ms.composite
        assert [c % m for m in ms.moduli] == [int(i == j) for j in range(len(ms.moduli))]


class TestMakeModulusSet:
    def test_default_set_composite(self, default_ms):
        # Arbitrary-precision product of the default moduli.
        expected = 1
        for m in (4093, 4095, 4091):
            expected *= m
        assert default_ms.composite == expected == 68_568_575_985

    def test_small_set_weights(self, small_ms):
        assert small_ms.composite == 105
        # M_i * y_i mod M: (35 * 2, 21 * 1, 15 * 1) with M_i = M / m_i, y_i = M_i^-1 mod m_i.
        assert small_ms.crt_coeffs == (70, 21, 15)
        # extended-Euclid post-check, stated explicitly
        assert 35 * 2 % 3 == 1
        assert 21 * 1 % 5 == 1
        assert 15 * 1 % 7 == 1
        assert_coefficients_are_unit_vectors(small_ms)

    def test_weights_satisfy_inverse_property(self, default_ms):
        M = default_ms.composite
        for m, c in zip(default_ms.moduli, default_ms.crt_coeffs):
            m_i = M // m
            y_i = pow(m_i, -1, m)
            assert (m_i * y_i) % m == 1
            assert c == m_i * y_i % M
        assert_coefficients_are_unit_vectors(default_ms)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime) as exc:
            ModulusSet([4, 6])
        assert exc.value.index_a == 0
        assert exc.value.index_b == 1

    def test_not_coprime_names_first_conflict_with_an_earlier_modulus(self):
        # 9 is the first modulus sharing a factor with an earlier one, 3 the first it shares with.
        with pytest.raises(NotCoprime) as exc:
            ModulusSet([2, 3, 9, 4])
        assert (exc.value.index_a, exc.value.index_b) == (1, 2)
        assert str(exc.value) == "pairwise-coprime: moduli[1]=3 and moduli[2]=9 share gcd 3"

    def test_not_coprime_costs_one_gcd_per_modulus(self, monkeypatch):
        primes = [n for n in range(2, 2000) if all(n % q for q in range(2, int(n**0.5) + 1))][:300]
        assert len(primes) == 300
        calls = 0
        real_gcd = rns.gcd

        def counting_gcd(a, b):
            nonlocal calls
            calls += 1
            return real_gcd(a, b)

        monkeypatch.setattr(rns, "gcd", counting_gcd)
        with pytest.raises(NotCoprime) as exc:
            ModulusSet(primes + primes[-1:] * 3000)
        assert (exc.value.index_a, exc.value.index_b) == (299, 300)
        # 301 tests against the running product, up to 300 to name the earlier modulus
        # and one for the message; a pairwise scan makes about 10^6.
        assert calls <= 2 * 301

    def test_modulus_too_small(self):
        with pytest.raises(ModulusTooSmall):
            ModulusSet([3, 1, 7])
        with pytest.raises(ModulusTooSmall):
            ModulusSet([])

    def test_modulus_too_large(self):
        with pytest.raises(ModulusTooLarge):
            ModulusSet([3, 1 << 16])


class TestOneFieldConstruction:
    """A set is its moduli: every constructor checks them and derives the rest."""

    def test_moduli_is_the_only_init_field(self):
        assert [f.name for f in fields(ModulusSet) if f.init] == ["moduli"]

    def test_replace_derives_from_the_new_moduli(self, default_ms):
        small = replace(default_ms, moduli=(7, 9, 11))
        assert small == ModulusSet((7, 9, 11)) == ModulusSet([7, 9, 11])
        assert small.composite == 693
        assert small.crt_coeffs == (99, 154, 441)
        assert_coefficients_are_unit_vectors(small)
        assert crt_reconstruct(encode(500, small), small) == 500

    def test_derived_constants_are_not_accepted(self, default_ms):
        with pytest.raises(TypeError):
            ModulusSet((3, 5), 16, (10, 6), ("01x", "01x"))
        with pytest.raises(TypeError):
            ModulusSet((3, 5), composite=16)
        with pytest.raises(ValueError, match="init=False"):
            replace(default_ms, composite=105)

    @pytest.mark.parametrize(
        "moduli, error",
        [
            ([4093.5, 4095, 4091], InvariantViolation),  # refused, not truncated to 4093
            (("3", 5, 7), InvariantViolation),
            ((3, None), InvariantViolation),
            (7, InvariantViolation),  # not a sequence
            ((4093, 4093, 4091), NotCoprime),
            ((1, 4095, 4091), ModulusTooSmall),
            ((70001, 4095, 4091), ModulusTooLarge),
        ],
    )
    def test_every_constructor_refuses_bad_moduli(self, default_ms, moduli, error):
        for build in (ModulusSet, lambda m: replace(default_ms, moduli=m)):
            with pytest.raises(error) as exc:
                build(moduli)
            if error is InvariantViolation:
                assert exc.value.name == "modulus-constants"

    def test_integer_like_moduli_become_ints(self):
        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        ms = ModulusSet((Index(3), Index(5), 7))
        assert ms.moduli == (3, 5, 7) and all(type(m) is int for m in ms.moduli)
        assert ms == ModulusSet((3, 5, 7))


class TestEncodeReconstruct:
    def test_zero(self, small_ms):
        assert encode(0, small_ms).residues == (0, 0, 0)

    def test_23(self, small_ms):
        assert encode(23, small_ms).residues == (2, 3, 2)

    def test_reconstruct_zero(self, small_ms):
        rv = encode(0, small_ms)
        assert crt_reconstruct(rv, small_ms) == 0

    def test_reconstruct_matches_brute_force(self, small_ms):
        rv = encode(23, small_ms)
        assert crt_reconstruct(rv, small_ms) == brute_force_reconstruct((2, 3, 2), (3, 5, 7)) == 23

    def test_reconstruct_one(self, small_ms):
        rv = encode(1, small_ms)
        assert rv.residues == (1, 1, 1)
        assert crt_reconstruct(rv, small_ms) == 1

    def test_round_trip_exhaustive_small(self, small_ms):
        for n in range(105):
            assert crt_reconstruct(encode(n, small_ms), small_ms) == n

    def test_bijective_small(self, small_ms):
        vectors = {encode(n, small_ms).residues for n in range(105)}
        assert len(vectors) == 105

    def test_mismatched_set(self, small_ms, default_ms):
        rv = encode(23, small_ms)
        with pytest.raises(MismatchedSet):
            crt_reconstruct(rv, default_ms)

    @given(st.integers(min_value=0, max_value=68_568_575_984))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_default_set(self, default_ms, n):
        assert crt_reconstruct(encode(n, default_ms), default_ms) == n


class TestChannelOps:
    def test_mul_identity(self, small_ms):
        a = encode(23, small_ms)
        one = encode(1, small_ms)
        assert mod_mul(a, one, small_ms).residues == (2, 3, 2)

    def test_mul_example(self, small_ms):
        a = encode(brute_force_reconstruct((0, 1, 6), (3, 5, 7)), small_ms)
        b = encode(brute_force_reconstruct((1, 4, 4), (3, 5, 7)), small_ms)
        out = mod_mul(a, b, small_ms)
        assert out.residues == (0, 4, 3)
        assert crt_reconstruct(out, small_ms) == 24

    def test_mul_squares_wrap(self, small_ms):
        a = encode(104, small_ms)
        assert a.residues == (2, 4, 6)
        out = mod_mul(a, a, small_ms)
        assert out.residues == (1, 1, 1)
        assert 104 * 104 % 105 == 1

    def test_add_identity(self, small_ms):
        a = encode(1, small_ms)
        zero = encode(0, small_ms)
        assert mod_add(a, zero, small_ms).residues == (1, 1, 1)

    def test_add_example(self, small_ms):
        a = encode(23, small_ms)
        out = mod_add(a, a, small_ms)
        assert out.residues == (1, 1, 4)
        assert crt_reconstruct(out, small_ms) == 46

    def test_sub_wraps_nonnegative(self, small_ms):
        zero = encode(0, small_ms)
        one = encode(1, small_ms)
        out = mod_sub(zero, one, small_ms)
        assert out.residues == (2, 4, 6)
        assert crt_reconstruct(out, small_ms) == 104

    def test_mismatched_operands(self, small_ms, default_ms):
        a = encode(1, small_ms)
        b = encode(1, default_ms)
        for op in (mod_mul, mod_add, mod_sub):
            with pytest.raises(MismatchedSet):
                op(a, b, small_ms)

    def test_channel_independence(self, default_ms):
        # Evaluating channels in any order yields the same vector.
        rng = random.Random(5)
        a = encode(rng.randrange(default_ms.composite), default_ms)
        b = encode(rng.randrange(default_ms.composite), default_ms)
        reference = mod_mul(a, b, default_ms).residues
        order = list(range(len(default_ms.moduli)))
        rng.shuffle(order)
        permuted = [None] * len(order)
        for i in order:
            permuted[i] = a.residues[i] * b.residues[i] % default_ms.moduli[i]
        assert tuple(permuted) == reference


class TestHomomorphism:
    @given(
        st.integers(min_value=0, max_value=68_568_575_984),
        st.integers(min_value=0, max_value=68_568_575_984),
    )
    @settings(max_examples=200, deadline=None)
    def test_mul_add_sub_default(self, default_ms, a, b):
        m_total = default_ms.composite
        ra, rb = encode(a, default_ms), encode(b, default_ms)
        assert crt_reconstruct(mod_mul(ra, rb, default_ms), default_ms) == a * b % m_total
        assert crt_reconstruct(mod_add(ra, rb, default_ms), default_ms) == (a + b) % m_total
        assert crt_reconstruct(mod_sub(ra, rb, default_ms), default_ms) == (a - b) % m_total


class TestSignedEncoding:
    def test_round_trip_small_exhaustive(self, small_ms):
        for n in range(1, 53):
            assert signed_value(encode_signed(-n, small_ms), small_ms) == -n
            assert signed_value(encode_signed(n, small_ms), small_ms) == n

    def test_signed_examples(self, small_ms):
        assert signed_value(encode(0, small_ms), small_ms) == 0
        assert signed_value(encode(104, small_ms), small_ms) == -1
        assert signed_value(encode(23, small_ms), small_ms) == 23

    def test_signed_out_of_range(self, small_ms):
        with pytest.raises(OutOfRange):
            encode_signed(53, small_ms)  # 2*53 > 105
