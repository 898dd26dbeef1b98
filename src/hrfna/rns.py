"""Residue-number-system core: modulus sets, channel arithmetic, reconstruction.

A ModulusSet is built from its moduli alone; every other constant follows
from them. Every value is a plain Python integer, so channel products and
the reconstruction accumulator never overflow regardless of the modulus set.
Channels never interact: each operation is applied per modulus with no
carries between lanes.

The public channel functions map one operator over the channels of any
set and are the reference. The fused hybrid ops call ModulusSet.kernels
instead: straight-line code generated once per set, with its moduli, CRT
coefficients and M as literals, as a channel unit is specialised to its
constant modulus at synthesis time. Two kernels are whole datapath units:
drain (reconstruct, round by 2^k, re-encode) is the normalization engine
and shift_add (reconstruct, round by 2^d, add per channel, reconstruct the
sum) the alignment shifter. tests/test_kernels.py pins the kernels to the
reference and to normalization.shift_round_half_even.

ModulusSet.fresh is the forward converter for fresh operands. A b-bit
operand has only 2^b encodings, so a hardware forward converter for
narrow inputs is a lookup table. hybrid.from_real keeps one per set: each
fresh mantissa's residue vector, magnitude estimate and sign, built once
through the encode kernel and shared from then on, up to FRESH_MEMO_SIZE
mantissas.

ModulusSet.kernels.reverse is the reverse converter for the same narrow
range, also a lookup table: a dict from a fresh vector's residue tuple to
its symmetric signed value. Only the set's signed kernel fills it, on a
miss, up to FRESH_MEMO_SIZE vectors. The exact oracles in workloads read
every fresh operand through it, so each distinct vector is reconstructed
once per set instead of once per use, and every value they read is still
the CRT of the residues the fold used.

ModulusSet.fresh is made, empty, with the set. ModulusSet.kernels stays a
functools.cached_property, built on the set's first kernel call, because
generating and compiling the kernels costs far more than the set: about
0.76 ms against 13 us for the default set (CPython 3.11.7, a shared 2-core
x86-64 VM). Built with every set, they read perfbench's scaled chained_mac
setup_s 30% and 49% higher in two 4-second pairs of runs, past that
metric's 25% bound, though raw set-up time was not higher (a collection
moving into the bench's calibration reads as a slower set-up). A pickle or
copy of a set is rebuilt from its moduli through the checked constructor
(ModulusSet.__reduce__), so it derives its own constants and starts with
empty tables of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from math import gcd
from operator import add, index, mod, mul, sub
from types import SimpleNamespace
from typing import NamedTuple

from hrfna.errors import HrfnaError, InvariantViolation

# Moduli must fit in 16 bits; wider channels are out of scope.
MAX_MODULUS_BITS = 16

DEFAULT_MODULI = (4093, 4095, 4091)

# At most this many entries in each of a set's fresh-operand tables
# (ModulusSet.fresh and kernels.reverse): the whole window at b = 14, four
# times the default config's window (b = 12).
FRESH_MEMO_SIZE = 8192


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
    coprime) and derives composite, the full product M; crt_weights, one
    (M_i, y_i) pair per channel with M_i = M / m_i and y_i = M_i^-1 mod m_i;
    crt_coeffs, M_i * y_i mod M per channel; and hex_formats, the format
    spec that prints a channel's residue as zero-padded hex as wide as m_i.

    fresh, an empty dict made with the set, is a plain attribute, not a
    field, so dataclasses.asdict never recurses from its stored vectors
    back into the set; kernels is made on first use and kept on the set.
    Equality, hashing and repr see only the fields, and a pickle or copy
    is rebuilt from the moduli (see __reduce__).
    """

    moduli: tuple[int, ...]
    composite: int = field(init=False)
    crt_weights: tuple[tuple[int, int], ...] = field(init=False)
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
        for f, value in zip(fields(self), (moduli, composite, weights, coeffs, formats)):
            object.__setattr__(self, f.name, value)
        # The forward-conversion lookup table: hybrid.from_real's memo. It maps
        # a fresh signed mantissa n, 2^(b-2) <= |n| < 2^(b-1), to
        # (ResidueVector(kernels.encode(n), self), log2(|n|), sign), stored only
        # after n passed from_real's OutOfRange check and only while the memo
        # holds fewer than FRESH_MEMO_SIZE entries, so its size does not grow
        # with the data encoded. Its vectors refer back to the set, so a set
        # with a filled memo is freed by the cyclic garbage collector.
        object.__setattr__(self, "fresh", {})

    @cached_property
    def kernels(self) -> SimpleNamespace:
        """This set's channel kernels, generated on first use and kept on the set.

        On residue tuples r, s and ints n, c, k, d, with no range or set check:
          encode(n)          (n mod m_i)
          mul(r, s)          (r_i * s_i mod m_i)
          scale_add(r, c, s) ((r_i * c + s_i) mod m_i)
          signed(r)          the CRT n = sum(r_i * crt_coeffs_i) mod M, as
                             n - M if 2n >= M else n
          drain(r, k)        (n, q, (q mod m_i)) for n = signed(r) and q its
                             quotient by 2^k rounded half to even; needs
                             k >= 1, and from k >= M.bit_length() on q is 0
                             without 2^k being built
          shift_add(s, r, d) (t, signed(t)) for t_i = (s_i + q) mod m_i, q
                             being signed(r) / 2^d rounded half to even;
                             needs 1 <= d < M.bit_length()
        and one table, made empty with them and holding no reference to
        the set:
          reverse            the reverse-conversion lookup table, a dict from
                             residue tuples to signed values: reverse[r] is
                             signed(r), and a miss keeps it while the table
                             holds fewer than FRESH_MEMO_SIZE entries
        The rounding is a floor shift with a carry,
        (n + 2^(d-1) - 1 + ((n >> d) & 1)) >> d, exact for either sign of n.
        """
        consts = (*self.moduli, *self.crt_coeffs, self.composite)
        if any(type(c) is not int for c in consts):  # only ints are written into code
            raise InvariantViolation("modulus-constants", f"not all ints: {consts!r}")
        ch = range(len(self.moduli))
        r, s = "".join(f"r{i}, " for i in ch), "".join(f"s{i}, " for i in ch)
        source = _KERNEL_SOURCE.format(
            r=r,
            s=s,
            encode="".join(f"n % {m}, " for m in self.moduli),
            mul="".join(f"r{i} * s{i} % {m}, " for i, m in enumerate(self.moduli)),
            scale_add="".join(f"(r{i} * c + s{i}) % {m}, " for i, m in enumerate(self.moduli)),
            encode_q="".join(f"q % {m}, " for m in self.moduli),
            zeros="0, " * len(self.moduli),
            add_q="".join(f"(s{i} + q) % {m}, " for i, m in enumerate(self.moduli)),
            crt=" + ".join(f"r{i} * {c}" for i, c in enumerate(self.crt_coeffs)),
            M=self.composite,
            half=(self.composite + 1) // 2,  # n >= half exactly when 2n >= M
            top=self.composite.bit_length(),
            memo=FRESH_MEMO_SIZE,
        )
        namespace = {"__name__": __name__}
        exec(compile(source, f"<kernels {self.moduli}>", "exec"), namespace)
        return SimpleNamespace(**{name: namespace[name] for name in _KERNEL_NAMES})

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

# ModulusSet.kernels fills in the channel unpacks {r}, {s}, the per-channel
# expressions and the integer literals.
_KERNEL_SOURCE = """\
def encode(n):
    return ({encode})

def mul(r, s):
    {r}= r
    {s}= s
    return ({mul})

def scale_add(r, c, s):
    {r}= r
    {s}= s
    return ({scale_add})

def signed(r):
    {r}= r
    n = ({crt}) % {M}
    return n - {M} if n >= {half} else n

def drain(r, k):
    {r}= r
    n = ({crt}) % {M}
    if n >= {half}:
        n -= {M}
    if k >= {top}:  # |n| <= M/2 < 2^(k-1) rounds to 0
        return n, 0, ({zeros})
    q = (n + (1 << (k - 1)) - 1 + ((n >> k) & 1)) >> k
    return n, q, ({encode_q})

def shift_add(s, r, d):
    {r}= r
    q = ({crt}) % {M}
    if q >= {half}:
        q -= {M}
    q = (q + (1 << (d - 1)) - 1 + ((q >> d) & 1)) >> d
    {s}= s
    {r}= t = ({add_q})
    n = ({crt}) % {M}
    return t, n - {M} if n >= {half} else n

class ReverseTable(dict):
    __slots__ = ()

    def __missing__(self, r):
        n = signed(r)
        if len(self) < {memo}:
            self[r] = n
        return n

reverse = ReverseTable()
"""
_KERNEL_NAMES = ("encode", "mul", "scale_add", "signed", "drain", "shift_add", "reverse")


make_modulus_set = ModulusSet  # the checked constructor under its older name


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


def _check_set(ms: ModulusSet, *vectors: ResidueVector) -> None:
    """The one set check: refuse any vector whose set has other moduli than ms.

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
