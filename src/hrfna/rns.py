"""Residue-number-system core: modulus sets, channel arithmetic, reconstruction.

A ModulusSet is built from its moduli alone; every other constant follows
from them. Every value is a plain Python integer, so channel products and
the reconstruction accumulator never overflow regardless of the modulus set.
Channels never interact: each operation is applied per modulus with no
carries between lanes.

The public channel functions map one operator over the channels of any set.
They are the bit-level model of the datapath: what a channel unit computes
on its residues; only they wrap modulo M. The hybrid values do not compute
with them. A HybridNum carries its signed mantissa n, in the symmetric range
-M/2 < n < M/2, and its residues are encode(n), computed when a record, a
trace or a test reads them. The CRT ring isomorphism of Z_M with
Z_m1 x ... x Z_mk makes that exact: an integer result inside that range,
reduced per channel, gives the residues the channel ops give on the
operands' residues. The arithmetic ops refuse a result outside it
(WrapDetected), and the tier-1 suite pins each int op to its channel op on
that basis.
A copy or pickle of a set is rebuilt from its moduli through the checked
constructor (ModulusSet.__reduce__).
"""

from dataclasses import dataclass, field, fields
from math import gcd
from operator import add, index, mod, mul, sub
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
    """A fixed modulus set, built from its moduli alone, with its derived constants.

    Every constructor, dataclasses.replace included, runs __post_init__: it
    checks the moduli (ints by operator.index, 2 to 16 bits wide, pairwise
    coprime) and derives composite, the full product M; crt_coeffs,
    M_i * y_i mod M per channel, with M_i = M / m_i and y_i = M_i^-1 mod m_i;
    and hex_formats, the format spec that prints a channel's residue as
    zero-padded hex as wide as m_i. A pickle or copy is rebuilt from the
    moduli (see __reduce__).
    """

    moduli: tuple[int, ...]
    composite: int = field(init=False)
    crt_coeffs: tuple[int, ...] = field(init=False)
    hex_formats: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        try:
            moduli = tuple(map(index, self.moduli))
        except TypeError:
            raise InvariantViolation("modulus-constants", f"non-int in {self.moduli!r}") from None
        if not moduli:
            raise ModulusTooSmall("modulus-minimum", "modulus list is empty")
        for m in moduli:
            if m < 2:
                raise ModulusTooSmall("modulus-minimum", f"modulus {m} < 2")
            if m.bit_length() > MAX_MODULUS_BITS:
                raise ModulusTooLarge(
                    "modulus-width", f"modulus {m} exceeds {MAX_MODULUS_BITS} bits"
                )
        # Coprime to every earlier modulus is coprime to their product: one gcd per
        # modulus, and composite is that running product. On a failure, name the
        # first earlier modulus m shares a factor with.
        composite = 1
        for j, m in enumerate(moduli):
            if gcd(m, composite) != 1:
                i = next(i for i in range(j) if gcd(moduli[i], m) != 1)
                raise NotCoprime(i, j, moduli[i], m)
            composite *= m
        weights = tuple((composite // m, pow(composite // m, -1, m)) for m in moduli)
        coeffs = tuple(m_i * y_i % composite for m_i, y_i in weights)
        formats = tuple(f"0{(m.bit_length() + 3) // 4}x" for m in moduli)
        for f, value in zip(fields(self), (moduli, composite, coeffs, formats)):
            object.__setattr__(self, f.name, value)

    def __reduce__(self):
        """Rebuild from the moduli alone: copies and pickles run the checked constructor."""
        return ModulusSet, (self.moduli,)


class ResidueVector(NamedTuple):
    """Per-channel residues of one integer under a specific modulus set."""

    residues: tuple[int, ...]
    set_ref: ModulusSet


# A NamedTuple from all its fields, skipping its Python-level __new__; every
# module that builds values on the fast path imports it from here.
_new = tuple.__new__


def encode(n: int, ms: ModulusSet) -> ResidueVector:
    """Residues of any integer n: n mod m_i per channel, which are those of n mod M.

    No range check: encode_signed checks its n, and a hybrid mantissa, in
    (-M/2, M/2), is its own symmetric residue mod M.
    """
    return _new(ResidueVector, (tuple([n % m for m in ms.moduli]), ms))


def _outside_signed_range(n: int, ms: ModulusSet) -> OutOfRange:
    """check_signed's OutOfRange, with n and M sized by bit length.

    On a wide set n has more decimal digits than int prints, and M/2 is past
    binary64's range.
    """
    return OutOfRange(
        f"|n| not below M/2: n has {n.bit_length()} bits, M has {ms.composite.bit_length()}"
    )


def check_signed(n: int, ms: ModulusSet) -> int:
    """n itself if it lies in (-M/2, M/2), the range encode_signed accepts; else OutOfRange."""
    if 2 * abs(n) >= ms.composite:
        raise _outside_signed_range(n, ms)
    return n


def encode_signed(n: int, ms: ModulusSet) -> ResidueVector:
    """Encode a signed integer under the symmetric convention.

    Values in (-M/2, M/2) map onto [0, M) with negatives stored as M - |n|.
    Python's per-channel modulo produces exactly that encoding.
    """
    return encode(check_signed(n, ms), ms)


def _check_set(ms: ModulusSet, *vectors) -> None:
    """The one set check: refuse any vector or hybrid value whose set has other moduli than ms.

    An op calls it once, with all its operands, and only when some operand's
    set_ref is not ms.
    """
    for rv in vectors:
        if (got := rv.set_ref.moduli) != ms.moduli:
            raise MismatchedSet(f"vector built under {got}, operating under {ms.moduli}")


def crt_reconstruct(rv: ResidueVector, ms: ModulusSet) -> int:
    """Unique n in [0, M) matching every channel of rv.

    The accumulator sum(r_i * (M_i * y_i mod M)) stays below k * max(m_i) * M;
    Python integers absorb that without truncation.
    """
    if rv.set_ref is not ms:
        _check_set(ms, rv)
    return sum(map(mul, rv.residues, ms.crt_coeffs)) % ms.composite


def _channelwise(op, a: ResidueVector, b: ResidueVector, ms: ModulusSet) -> ResidueVector:
    if a.set_ref is not ms or b.set_ref is not ms:
        _check_set(ms, a, b)
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
