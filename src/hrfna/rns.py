"""Residue-number-system core: modulus sets, channel arithmetic, reconstruction.

Every value is a plain Python integer, so channel products and the
reconstruction accumulator never overflow regardless of the modulus set.
Channels never interact: each operation is applied per modulus with no
carries between lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add, mod, mul, sub
from typing import NamedTuple

from hrfna.errors import HrfnaError, InvariantViolation

# Moduli must fit in 16 bits; wider channels are out of scope.
MAX_MODULUS_BITS = 16

DEFAULT_MODULI = (4093, 4095, 4091)


class ModulusTooSmall(InvariantViolation):
    """A modulus below 2 cannot carry a residue channel ("modulus-minimum")."""


class ModulusTooLarge(InvariantViolation):
    """A modulus beyond 16 bits is outside the supported channel width ("modulus-width")."""


class NotCoprime(InvariantViolation):
    """Two moduli share a factor, so reconstruction would not be unique ("pairwise-coprime")."""

    def __init__(self, i: int, j: int, mi: int, mj: int):
        self.index_a = i
        self.index_b = j
        super().__init__(
            "pairwise-coprime", f"moduli[{i}]={mi} and moduli[{j}]={mj} share gcd {gcd(mi, mj)}"
        )


class OutOfRange(HrfnaError, ValueError):
    """Integer outside the representable range of the modulus set."""


class MismatchedSet(HrfnaError):
    """Residue vectors built under different modulus sets cannot be combined."""


@dataclass(frozen=True)
class ModulusSet:
    """A fixed modulus set with its precomputed constants.

    composite is the full product M; crt_weights holds one (M_i, y_i) pair
    per channel with M_i = M / m_i and y_i = M_i^-1 mod m_i; crt_coeffs
    holds M_i * y_i mod M per channel; hex_formats holds the format spec
    that prints a channel's residue as zero-padded hex as wide as m_i.
    """

    moduli: tuple[int, ...]
    composite: int
    crt_weights: tuple[tuple[int, int], ...]
    crt_coeffs: tuple[int, ...]
    hex_formats: tuple[str, ...]


class ResidueVector(NamedTuple):
    """Per-channel residues of one integer under a specific modulus set."""

    residues: tuple[int, ...]
    set_ref: ModulusSet


_new = tuple.__new__  # a NamedTuple from all its fields, skipping its Python-level __new__


def make_modulus_set(moduli) -> ModulusSet:
    """Build a ModulusSet, validating range and pairwise coprimality."""
    moduli = tuple(int(m) for m in moduli)
    if not moduli:
        raise ModulusTooSmall("modulus-minimum", "modulus list is empty")
    for m in moduli:
        if m < 2:
            raise ModulusTooSmall("modulus-minimum", f"modulus {m} < 2")
        if m.bit_length() > MAX_MODULUS_BITS:
            raise ModulusTooLarge("modulus-width", f"modulus {m} exceeds {MAX_MODULUS_BITS} bits")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                raise NotCoprime(i, j, moduli[i], moduli[j])

    composite = 1
    for m in moduli:
        composite *= m
    weights = tuple((composite // m, pow(composite // m, -1, m)) for m in moduli)
    return ModulusSet(
        moduli,
        composite,
        weights,
        tuple(m_i * y_i % composite for m_i, y_i in weights),
        tuple(f"0{(m.bit_length() + 3) // 4}x" for m in moduli),
    )


def format_residues(residues, ms: ModulusSet) -> list[str]:
    """Each residue as zero-padded lowercase hex, as wide as its modulus."""
    return list(map(format, residues, ms.hex_formats))


def encode_residues(n: int, ms: ModulusSet) -> ResidueVector:
    """Encode a nonnegative integer n in [0, M) into its residue vector."""
    if n < 0 or n >= ms.composite:
        raise OutOfRange(f"{n} not in [0, {ms.composite})")
    return _new(ResidueVector, (tuple(map(n.__mod__, ms.moduli)), ms))


def encode_signed(n: int, ms: ModulusSet) -> ResidueVector:
    """Encode a signed integer under the symmetric convention.

    Values in (-M/2, M/2) map onto [0, M) with negatives stored as M - |n|.
    Python's per-channel modulo produces exactly that encoding.
    """
    if 2 * abs(n) >= ms.composite:
        raise OutOfRange(f"|{n}| not below M/2 = {ms.composite / 2}")
    return _new(ResidueVector, (tuple(map(n.__mod__, ms.moduli)), ms))


def _check_set(rv: ResidueVector, ms: ModulusSet) -> None:
    """Refuse rv unless its set has ms's moduli; callers skip it when rv.set_ref is ms."""
    if rv.set_ref.moduli != ms.moduli:
        raise MismatchedSet(f"vector built under {rv.set_ref.moduli}, operating under {ms.moduli}")


def crt_reconstruct(rv: ResidueVector, ms: ModulusSet) -> int:
    """Unique n in [0, M) matching every channel of rv.

    The accumulator sum(r_i * (M_i * y_i mod M)) stays below k * max(m_i) * M;
    Python integers absorb that without truncation.
    """
    if rv.set_ref is not ms:
        _check_set(rv, ms)
    return sum(map(mul, rv.residues, ms.crt_coeffs)) % ms.composite


def _channelwise(op, a: ResidueVector, b: ResidueVector, ms: ModulusSet) -> ResidueVector:
    if a.set_ref is not ms:
        _check_set(a, ms)
    if b.set_ref is not ms:
        _check_set(b, ms)
    return _new(ResidueVector, (tuple(map(mod, map(op, a.residues, b.residues), ms.moduli)), ms))


def mod_mul(a: ResidueVector, b: ResidueVector, ms: ModulusSet) -> ResidueVector:
    """Channel-wise product: result[i] = (a[i] * b[i]) mod m_i."""
    return _channelwise(mul, a, b, ms)


def mod_add(a: ResidueVector, b: ResidueVector, ms: ModulusSet) -> ResidueVector:
    """Channel-wise sum: result[i] = (a[i] + b[i]) mod m_i."""
    return _channelwise(add, a, b, ms)


def mod_sub(a: ResidueVector, b: ResidueVector, ms: ModulusSet) -> ResidueVector:
    """Channel-wise difference, wrapped nonnegatively per channel."""
    return _channelwise(sub, a, b, ms)
