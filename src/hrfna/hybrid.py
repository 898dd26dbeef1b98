"""Hybrid numbers: an integer mantissa paired with a power-of-two exponent.

A HybridNum denotes n * 2^f. It carries the signed mantissa n itself,
always in the symmetric range -M/2 < n < M/2 of its modulus set, so the
ops compute with ints and never reconstruct. The residue channels of the
paper are a view of n: the mantissa property is encode(n), computed when an
export or a test reads it, and exact by the CRT isomorphism (see rns).
Threshold detection decides on n alone, in integers. Besides what it
denotes, a value records only how the op that made it got there: its
alignment strategy and its count of normalization passes.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import frexp, ldexp
from typing import NamedTuple

from hrfna import rns
from hrfna.errors import InvariantViolation
from hrfna.rns import ModulusSet, ResidueVector, _new


@dataclass(frozen=True)
class HybridConfig:
    """Arithmetic-policy constants.

    alpha:      safety factor in (0, 1); the normalization threshold is
                tau = floor(alpha * M).
    scale_shift_k:      bits removed per normalization (scale factor 2^k).
    operand_bound_bits: b; newly encoded operands satisfy |N| < 2^b so a
                product of two of them stays below tau and never wraps mod M.

    The interplay with a concrete modulus set (2^(2b) < alpha*M) needs M, so
    validate_config checks it on the config's first use with each set, and
    keeps what it derives in _thresholds, keyed by M.
    """

    alpha: Fraction
    scale_shift_k: int
    operand_bound_bits: int
    _thresholds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.alpha, Fraction):
            raise InvariantViolation("hybrid-config", f"alpha {self.alpha!r} is not a Fraction")
        for name in ("scale_shift_k", "operand_bound_bits"):
            value = getattr(self, name)
            if type(value) is not int:  # so also a bool or an integral float
                raise InvariantViolation("hybrid-config", f"{name} {value!r} is not an int")
        if not (0 < self.alpha < 1):
            raise InvariantViolation("hybrid-config", f"alpha {self.alpha} not in (0, 1)")
        if self.scale_shift_k < 1:
            raise InvariantViolation("hybrid-config", "scale_shift_k must be >= 1")
        if self.operand_bound_bits < 3:
            raise InvariantViolation("hybrid-config", "operand_bound_bits must be >= 3")


DEFAULT_CONFIG = HybridConfig(
    alpha=Fraction(3, 8192), scale_shift_k=11, operand_bound_bits=12
)


def tau_int(ms: ModulusSet, cfg: HybridConfig) -> int:
    """Integer normalization threshold floor(alpha * M); validate_config keeps it."""
    return (cfg.alpha.numerator * ms.composite) // cfg.alpha.denominator


def validate_config(ms: ModulusSet, cfg: HybridConfig) -> tuple[int, int, int]:
    """Check the cross invariants between a modulus set and a hybrid config, once per pair.

    Returns (tau, (tau + 1) // 2, M.bit_length()): the threshold, the
    detector limit (|n| >= limit exactly when 2|n| >= tau), and the exponent
    gap from which a shift-down add absorbs its addend. The invariants and
    the triple depend on the set only through M, so the first call per M
    stores the triple in cfg._thresholds[M] and later calls return the
    stored triple. The ops read it from there with no call, and call this
    only on a miss, so no op computes under a pair it refuses.
    Raises InvariantViolation naming the failed invariant:
      operand-bound: 2^(2b) < alpha*M so in-bound operands multiply without wrap
      shift-bound:   k < b so normalization keeps a nonzero mantissa above threshold
    """
    limits = cfg._thresholds.get(ms.composite)
    if limits is not None:
        return limits
    b, k, tau = cfg.operand_bound_bits, cfg.scale_shift_k, tau_int(ms, cfg)
    # Past M's bit length 2^(2b) > M without being built (b may come from a file).
    # alpha*M is sized by tau's bit length: on a wide set it is past binary64's range.
    if 2 * b > ms.composite.bit_length() or 2 ** (2 * b) >= cfg.alpha * ms.composite:
        raise InvariantViolation(
            "operand-bound", f"2^{2 * b} >= alpha*M, which is below 2^{tau.bit_length()}"
        )
    if k >= b:
        raise InvariantViolation("shift-bound", f"k = {k} >= b = {b}")
    limits = cfg._thresholds[ms.composite] = tau, (tau + 1) // 2, ms.composite.bit_length()
    return limits


class HybridNum(NamedTuple):
    """Immutable hybrid value: signed mantissa, its set and exponent, and provenance.

    n is the mantissa, in the symmetric range -M/2 < n < M/2 of set_ref; mantissa
    (its residues) is derived from it. align_strategy and norm_events, the
    number of normalization passes, describe only the operation that
    produced this value (provenance for the workloads, the simulator and the
    vectors' norm flag); they are excluded from equality, which compares n,
    exponent, and the set's moduli.
    """

    n: int
    set_ref: ModulusSet
    exponent: int
    align_strategy: str | None = None
    norm_events: int = 0

    @property
    def mantissa(self) -> ResidueVector:
        """The residues of n under set_ref, derived on each read."""
        return rns.encode(self.n, self.set_ref)

    def _key(self):
        return (self.n, self.set_ref.moduli, self.exponent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridNum):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other) -> bool:  # tuple's own __ne__ would compare every field
        if not isinstance(other, HybridNum):
            return NotImplemented
        return self._key() != other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def signed_value(rv: ResidueVector, ms: ModulusSet) -> int:
    """Symmetric signed reconstruction of residues: n if n < M/2 else n - M.

    n is rns.crt_reconstruct's, which refuses a vector under a set with
    other moduli (MismatchedSet). Records are read back through it; the ops
    never call it, since a value carries its n.
    """
    n = rns.crt_reconstruct(rv, ms)
    return n - ms.composite if 2 * n >= ms.composite else n


def make_hybrid(n: int, exponent: int, ms: ModulusSet) -> HybridNum:
    """Build the hybrid value n * 2^exponent from a signed integer mantissa.

    rns.check_signed refuses an n outside (-M/2, M/2) (OutOfRange). The
    value has no provenance: no align_strategy and no normalization passes.
    """
    return _new(HybridNum, (rns.check_signed(n, ms), ms, exponent, None, 0))


def from_real(x: float, ms: ModulusSet, cfg: HybridConfig) -> HybridNum:
    """Encode a finite real into the canonical mantissa window.

    The exponent f is chosen so N = round(x * 2^-f), rounded half to even,
    lands in [2^(b-2), 2^(b-1)); zero encodes as an all-zero mantissa with
    f = 0. The round-trip error is at most 2^(f-1). N is frexp's mantissa
    scaled by 2^(b-1), exactly: past b = 54 that mantissa's 53 bits are
    shifted as an int, so no b that validate_config accepts overflows the
    float range, and rounding one infinite or NaN raises OutOfRange. Every
    call checks N against M/2, with make_hybrid's OutOfRange message.
    """
    m, e = frexp(x)  # x = m * 2^e with 0.5 <= |m| < 1, or m = x for 0, inf and NaN
    b = cfg.operand_bound_bits
    try:
        n = round(ldexp(m, b - 1)) if b < 54 else int(ldexp(m, 53)) << (b - 54)
    except (OverflowError, ValueError):
        raise rns.OutOfRange(f"cannot encode non-finite value {x!r}") from None
    if not n:
        return make_hybrid(0, 0, ms)
    f, a = e - b + 1, abs(n)
    if a == 1 << (b - 1):
        # Rounding bumped the mantissa out of the half-open window. x * 2^-(f+1)
        # lies within 1/4 below 2^(b-2), so it rounds to N / 2.
        n, a, f = n >> 1, a >> 1, f + 1
    if 2 * a >= ms.composite:
        raise rns._outside_signed_range(n, ms)
    return _new(HybridNum, (n, ms, f, None, 0))


def to_real(h: HybridNum) -> float:
    """n * 2^f evaluated in binary64; saturates to +-inf on overflow.

    n is first cut to its top 64 bits, with a sticky bit for the rest,
    which round to the same 53 bits as n does, so an n of 1025 bits or
    more, past binary64's range, converts too.
    """
    n = h.n
    s = max(abs(n).bit_length() - 64, 0)
    q = abs(n) >> s
    q |= (q << s) != abs(n)  # the sticky bit
    try:
        return math.ldexp(q if n > 0 else -q, h.exponent + s)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def exact_value(h: HybridNum) -> Fraction:
    """The exact rational value n * 2^f, for oracle comparisons."""
    n, f = h.n, h.exponent
    if f >= 0:
        return Fraction(n * (1 << f))
    return Fraction(n, 1 << (-f))
