"""Dynamic-range normalization: threshold detection and power-of-two down-scaling.

normalize reconstructs the signed mantissa, divides it by 2^k with round
half to even, re-encodes, and raises the exponent by k, so the value moves
by at most 2^(f+k-1). Detection has a fast mode driven by the magnitude
estimator and an exact mode driven by reconstruction; fast mode is
one-sided safe (it never misses a true crossing). normalize refuses a
mantissa under a set with other moduli (MismatchedSet, raised by rns),
then reconstructs, rounds and re-encodes in one call of the drain kernel
of the set it is given (rns.ModulusSet.kernels); shift_round_half_even is
the reference that kernel is pinned to.
"""

from __future__ import annotations

from math import inf, log2
from typing import NamedTuple

from hrfna import rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum, signed_value, validate_config
from hrfna.rns import ModulusSet, ResidueVector, _new


class DegenerateResult(HrfnaError):
    """Scaling wiped out a nonzero mantissa (shift too large for the value)."""


class NormalizationEvent(NamedTuple):
    """One normalization: mantissa in/out, the shift, and the exponent move."""

    value_in: int
    value_out: int
    shift: int
    exponent_before: int
    exponent_after: int


def shift_round_half_even(n: int, s: int) -> int:
    """round(n / 2^s) with ties to even, exact for any sign of n."""
    if s == 0:
        return n
    if s > n.bit_length():  # |n| < 2^(s-1) rounds to 0; never build a 2^s-sized number
        return 0
    q = n >> s
    r = n - (q << s)  # 0 <= r < 2^s for either sign of n
    half = 1 << (s - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def needs_normalization(
    h: HybridNum, ms: ModulusSet, cfg: HybridConfig, exact: bool = False
) -> bool:
    """Whether the mantissa magnitude has reached the threshold tau.

    Fast mode fires when mag_log2 >= log2(tau) - 1.0; exact mode
    reconstructs and tests |N| >= tau. The - 1.0 is not a margin for the
    estimator's error: fast mode fires from about tau/2, so the mantissa an
    op returns after draining stays below about tau/2. That is half of the
    operational envelope. A survivor times a fresh operand stays inside
    M/2 because of it, and a wider limit lets such products wrap.
    """
    tau, limit, _ = validate_config(ms, cfg)
    if exact:
        return abs(signed_value(h.mantissa, ms)) >= tau
    return h.mag_log2 >= limit


def normalize(h: HybridNum, ms: ModulusSet, cfg: HybridConfig) -> HybridNum:
    """Scale the mantissa down by 2^k and bump the exponent by k.

    Callable below threshold as well; hrfna_mul and hrfna_add call it while
    mag_log2 >= validate_config(ms, cfg)[1], the fast detector. The result keeps
    h's align_strategy, carries h's norm_events followed by its own
    NormalizationEvent (so repeated passes over one operation's result
    accumulate), and has a mag_log2 recomputed exactly from the scaled
    mantissa. The result is under ms even when h's mantissa is under an
    equal set built apart.
    """
    k, hm = cfg.scale_shift_k, h.mantissa
    if hm.set_ref is not ms:
        rns._check_set(ms, hm)
    # |n_out| <= |n|/2 + 1/2 < M/2, so the re-encode needs no range check.
    n, n_out, residues = ms.kernels.drain(hm.residues, k)
    if n_out == 0 and n != 0:
        raise DegenerateResult(f"mantissa {n} vanished under shift {k}")
    exponent = h.exponent + k
    event = _new(NormalizationEvent, (n, n_out, k, h.exponent, exponent))
    mant = _new(ResidueVector, (residues, ms))
    mag, sign = (log2(abs(n_out)) if n_out else -inf), (n_out > 0) - (n_out < 0)
    return _new(HybridNum, (mant, exponent, mag, sign, h.align_strategy, h.norm_events + (event,)))
