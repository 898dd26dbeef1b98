"""Hybrid multiplication and addition.

Multiplication is the fast path: one integer product plus one exponent
addition, with normalization applied only when the result reaches the
threshold (2|n| >= tau).
Addition aligns exponents either by scaling the larger-exponent operand's
mantissa up (exact, preferred while the scaled mantissa stays below tau/2)
or by rounding the smaller-exponent operand's mantissa down (lossy
fallback), which absorbs the operand outright when the exponent gap is at
least M.bit_length(); the strategy is recorded on the result. Each
result also counts the normalization passes its op made (norm_events).

Every op computes on the mantissas n the values carry and forms its exact
integer once. One at or past M/2, which the channel ops would wrap modulo
M, raises WrapDetected; so every result keeps -M/2 < n < M/2, and its
residues are those the channel ops give on the operands' residues (the CRT
isomorphism; the tier-1 suite pins each op to its channel op).

Operational envelope: a product is exact only while it stays inside the
signed range (|N_x * N_y| < M/2). from_real lands a nonzero |N| in
[2^(b-2), 2^(b-1)), so a product of two newly encoded operands lies below
2^(2b-2) < tau/2 and never normalizes, and one with a survivor
(|n| < tau/2) stays inside whenever tau * 2^(b-1) < M. A product or sum
outside the signed range is refused, never returned.

Each op reads the detector limit (and an add the absorb gap) once, from
cfg._thresholds[ms.composite] with no Python-level call; only a pair's
first op calls validate_config, which checks the pair and keeps them.
Every decision (normalize, scale up) is an integer test on n.
Each op tests its operands' set identity in one condition; if any
operand is under another set object, one rns._check_set call checks them
all, so a set with other moduli raises MismatchedSet there, before any
arithmetic, and an equal set built apart gives the same result bit for
bit.
"""

from hrfna import rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum, validate_config
from hrfna.normalization import normalize
from hrfna.rns import ModulusSet, _new

# align_strategy values recorded on addition results
ALIGN_SCALE_UP = "scale-up"  # exact: larger-exponent mantissa scaled by 2^delta
ALIGN_SHIFT_DOWN = "shift-down"  # lossy: smaller-exponent operand shifted down
ALIGN_IDENTITY = "identity"  # one operand was zero


class WrapDetected(HrfnaError):
    """An op formed a product or sum at or past M/2, which would wrap modulo M."""


def hrfna_mul(x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig) -> HybridNum:
    """Hybrid product: mantissas multiply, exponents add.

    A product at or past M/2, which would wrap modulo M, raises
    WrapDetected. While the product reaches the threshold
    (needs_normalization) it is normalized before returning; each pass adds
    k to the exponent and one to norm_events.
    """
    if x.set_ref is not ms or y.set_ref is not ms:
        rns._check_set(ms, x, y)
    M = ms.composite
    limit = (cfg._thresholds.get(M) or validate_config(ms, cfg))[1]
    n = x.n * y.n
    if 2 * abs(n) >= M:
        raise WrapDetected(
            f"product of {n.bit_length()} bits wrapped modulo M; operand bounds misconfigured"
        )
    h = _new(HybridNum, (n, ms, x.exponent + y.exponent, None, 0))
    while abs(h.n) >= limit:  # needs_normalization
        h = normalize(h, ms, cfg)
    return h


def hrfna_add(x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig) -> HybridNum:
    """Hybrid sum with exponent alignment.

    The operand hi with the larger exponent is aligned to the other, lo.
    Scale-up multiplies hi's mantissa by 2^delta when the scaled mantissa
    stays below tau/2 (always at delta 0); otherwise lo is shifted down to
    hi's exponent: absorbed if delta >= M.bit_length() (it rounds to 0),
    else rounded half to even and added. A sum at or past M/2, which would
    wrap modulo M, raises WrapDetected. Strategy selection depends only on
    which operand holds the larger exponent, so it is symmetric in (x, y)
    and the aligned mantissa addition is commutative. The result is normalized while it
    reaches threshold. A zero operand makes the sum the other operand
    (ALIGN_IDENTITY), after the thresholds are read, so a refused (set,
    config) pair raises its InvariantViolation on that path too.
    """
    if x.set_ref is not ms or y.set_ref is not ms:
        rns._check_set(ms, x, y)
    M = ms.composite
    _, limit, gap = cfg._thresholds.get(M) or validate_config(ms, cfg)
    if not x.n or not y.n:
        # A zero's n is 0, so the sum is the other operand's n.
        h = x if x.n else y
        return _new(HybridNum, (h.n, ms, h.exponent, ALIGN_IDENTITY, 0))

    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    delta = hi.exponent - lo.exponent
    if delta == 0 or (delta < gap and abs(hi.n) << delta < limit):
        n = (hi.n << delta) + lo.n
        exponent, strategy = lo.exponent, ALIGN_SCALE_UP
    else:
        exponent, strategy = hi.exponent, ALIGN_SHIFT_DOWN
        if delta < gap:
            # lo rounded half to even by 2^delta, 1 <= delta < M.bit_length(), as
            # normalize rounds: a floor shift with a carry.
            n_lo = lo.n
            n = hi.n + ((n_lo + (1 << (delta - 1)) - 1 + ((n_lo >> delta) & 1)) >> delta)
        else:
            # Absorbed: |n_lo| < M/2 < 2^(delta-1) rounds to 0, so hi's n stands.
            n = hi.n
    if 2 * abs(n) >= M:
        raise WrapDetected(
            f"sum of {n.bit_length()} bits wrapped modulo M; operands too large for M"
        )
    out = _new(HybridNum, (n, ms, exponent, strategy, 0))
    while abs(out.n) >= limit:  # needs_normalization
        out = normalize(out, ms, cfg)
    return out
