"""Dynamic-range normalization: threshold detection and power-of-two down-scaling.

normalize divides the signed mantissa n by 2^k with round half to even
and raises the exponent by k, so the value moves by at most 2^(f+k-1). It
rounds with a floor shift and a carry, on the int the value carries;
shift_round_half_even is the reference it is pinned to. Detection is one
exact integer test on n: 2|n| >= tau. normalize refuses a value under a set
with other moduli (MismatchedSet, raised by rns).
"""

from __future__ import annotations

from typing import NamedTuple

from hrfna import rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum, validate_config
# Unused here since the detector reads n; perfbench/test_perfbench.py checks
# the wrapper on this binding until the bench revision (ROADMAP item 1).
from hrfna.hybrid import signed_value  # noqa: F401
from hrfna.rns import ModulusSet, _new


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


def needs_normalization(h: HybridNum, ms: ModulusSet, cfg: HybridConfig) -> bool:
    """Whether the mantissa has reached half the threshold: 2|n| >= tau.

    The test is |n| >= validate_config(ms, cfg)[1], the integer (tau + 1) // 2.
    Firing from tau/2, not tau, keeps the mantissa an op returns after
    draining below tau/2. That is half of the operational envelope: a
    survivor times a newly encoded operand stays inside M/2 because of it,
    and a wider limit lets such products wrap.
    """
    return abs(h.n) >= validate_config(ms, cfg)[1]


def normalize(h: HybridNum, ms: ModulusSet, cfg: HybridConfig) -> HybridNum:
    """Scale the mantissa down by 2^k and bump the exponent by k.

    Callable below threshold as well; hrfna_mul and hrfna_add call it while
    needs_normalization holds. The result keeps h's align_strategy and
    carries h's norm_events followed by its own NormalizationEvent (so
    repeated passes over one operation's result accumulate). The result is
    under ms even when h is under an equal set built apart.
    """
    k = cfg.scale_shift_k
    if h.set_ref is not ms:
        rns._check_set(ms, h)
    n = h.n
    # (n + 2^(k-1) - 1 + bit k of n) >> k rounds half to even for either sign of
    # n; from k > n.bit_length() on, |n| < 2^(k-1) rounds to 0 without 2^k built.
    n_out = (n + (1 << (k - 1)) - 1 + ((n >> k) & 1)) >> k if k <= n.bit_length() else 0
    if n_out == 0 and n != 0:
        raise DegenerateResult(f"mantissa {n} vanished under shift {k}")
    exponent = h.exponent + k
    event = _new(NormalizationEvent, (n, n_out, k, h.exponent, exponent))
    return _new(HybridNum, (n_out, ms, exponent, h.align_strategy, h.norm_events + (event,)))
