"""Hybrid multiplication and addition.

Multiplication is the fast path: one integer product reduced to the
symmetric range mod M, plus one exponent addition, with normalization
applied only when the result's magnitude estimate reaches the threshold.
Addition aligns exponents either by scaling the larger-exponent operand's
mantissa up (exact, preferred) or by rounding the smaller-exponent
operand's mantissa down (lossy fallback), which absorbs the operand
outright when the exponent gap is at least M.bit_length(); the strategy is
recorded on the result.

Every op computes on the mantissas n the values carry and reduces its
result to the symmetric range mod M, so its residues are those the channel
ops give on the operands' residues, wraps included (the CRT isomorphism;
the tier-1 suite pins each op to its channel op).

Operational envelope: a product is exact only while it stays inside the
signed range (|N_x * N_y| < M/2). Keeping at least one newly encoded
operand (|N| < 2^b) per multiplication guarantees that; debug mode audits
it by reconstruction.

Each op reads the detector limit (and an add the absorb gap) once, from
cfg._thresholds[ms.composite] with no Python-level call; only a pair's
first op calls validate_config, which checks the pair and keeps them. A
product's mag_log2 is the sum of its operands' (an estimate); a sum's is
log2 |n|, except that an absorbed add whose hi carries normalization events
takes hi's, which normalize computed from the same n.
Each op tests its operands' set identity in one condition; if any
operand is under another set object, one rns._check_set call checks them
all, so a set with other moduli raises MismatchedSet there, before any
arithmetic, and an equal set built apart gives the same result bit for
bit.
"""

from __future__ import annotations

from math import inf, log2

from hrfna import rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum, signed_value, validate_config
from hrfna.normalization import needs_normalization, normalize, shift_round_half_even
from hrfna.rns import ModulusSet, _new

# align_strategy values recorded on addition results
ALIGN_SCALE_UP = "scale-up"  # exact: larger-exponent mantissa scaled by 2^delta
ALIGN_SHIFT_DOWN = "shift-down"  # lossy: smaller-exponent operand shifted down
ALIGN_IDENTITY = "identity"  # one operand was zero


class AuditFailure(HrfnaError):
    """A debug-mode audit caught a wrapped product, a residue mismatch or a missed crossing."""


def _audit(kind: str, exact: int, out: HybridNum, ms: ModulusSet, cfg: HybridConfig, cause: str):
    """Audit unnormalized out against its exact mantissa: wrap, residues, missed crossing."""
    if 2 * abs(exact) >= ms.composite:
        raise AuditFailure(f"{kind} {exact} wrapped modulo M={ms.composite}; {cause}")
    if signed_value(out.mantissa, ms) != exact:
        raise AuditFailure(f"residue {kind} disagrees with reconstruction")
    if abs(exact) >= validate_config(ms, cfg)[0] and not needs_normalization(out, ms, cfg):
        raise AuditFailure("magnitude estimator missed a threshold crossing")


def hrfna_mul(
    x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig, debug: bool = False
) -> HybridNum:
    """Hybrid product: mantissas multiply (reduced to the symmetric range mod M), exponents add.

    The magnitude estimate updates additively; if it reaches the threshold
    the result is normalized before returning (each pass adds k to the
    exponent and appends its event to the ones before). With debug=True
    the product is audited by reconstruction: a wrap modulo M or a missed
    threshold crossing raises AuditFailure.
    """
    if x.set_ref is not ms or y.set_ref is not ms:
        rns._check_set(ms, x, y)
    M = ms.composite
    n = x.n * y.n % M
    if 2 * n >= M:
        n -= M
    exponent, mag, sign = x.exponent + y.exponent, x.mag_log2 + y.mag_log2, x.sign * y.sign
    h = _new(HybridNum, (n, ms, exponent, mag, sign, None, ()))
    if debug:
        _audit("product", x.n * y.n, h, ms, cfg, "operand bounds misconfigured")
    limit = (cfg._thresholds.get(M) or validate_config(ms, cfg))[1]
    while h.mag_log2 >= limit:  # needs_normalization's fast mode
        h = normalize(h, ms, cfg)
    return h


def hrfna_add(
    x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig, debug: bool = False
) -> HybridNum:
    """Hybrid sum with exponent alignment.

    The operand hi with the larger exponent is aligned to the other, lo.
    Scale-up multiplies hi's mantissa by 2^delta when the scaled magnitude
    estimate stays below tau/2; otherwise lo is shifted down to hi's
    exponent: absorbed if delta >= M.bit_length() (it rounds to 0), else
    rounded half to even and added. Either sum is reduced to the symmetric
    range mod M. Strategy selection depends only on which operand holds the
    larger exponent, so it is symmetric in (x, y) and the aligned mantissa
    addition is commutative. The magnitude estimate and sign are recomputed
    exactly from the sum (a log-sum estimate cannot survive cancellation);
    an absorbed add whose hi carries normalization events takes them from
    hi instead, which normalize computed from the same n. The result is
    normalized if it reaches threshold.
    With debug=True the sum is audited against the exact aligned integer
    sum: a wrap modulo M or a missed threshold crossing raises AuditFailure.
    """
    if x.set_ref is not ms or y.set_ref is not ms:
        rns._check_set(ms, x, y)
    if not x.sign or not y.sign:
        # A zero's n is 0, so the sum is the other operand's n.
        h = x if x.sign else y
        return _new(HybridNum, (h.n, ms, h.exponent, h.mag_log2, h.sign, ALIGN_IDENTITY, ()))

    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    delta, M = hi.exponent - lo.exponent, ms.composite
    _, limit, gap = cfg._thresholds.get(M) or validate_config(ms, cfg)
    exponent, strategy = hi.exponent, ALIGN_SHIFT_DOWN
    if delta == 0 or hi.mag_log2 + delta < limit:
        n = ((hi.n << delta) + lo.n) % M
        exponent, strategy = lo.exponent, ALIGN_SCALE_UP
    elif delta < gap:
        # lo rounded half to even by 2^delta, 1 <= delta < M.bit_length(), as
        # normalize rounds: a floor shift with a carry.
        n_lo = lo.n
        n = (hi.n + ((n_lo + (1 << (delta - 1)) - 1 + ((n_lo >> delta) & 1)) >> delta)) % M
    else:
        # Absorbed: |n_lo| <= M/2 < 2^(delta-1) rounds to 0, so hi's n stands.
        n = None
    if n is None:
        n = hi.n
        # normalize set a normalized hi's mag_log2 and sign from this n; an
        # unnormalized product's mag_log2 is only an estimate.
        if hi.norm_events:
            mag, sign = hi.mag_log2, hi.sign
        else:
            mag, sign = (log2(abs(n)) if n else -inf), (n > 0) - (n < 0)
    else:
        if 2 * n >= M:
            n -= M
        mag, sign = (log2(abs(n)) if n else -inf), (n > 0) - (n < 0)
    out = _new(HybridNum, (n, ms, exponent, mag, sign, strategy, ()))
    if debug:
        if strategy == ALIGN_SHIFT_DOWN:
            total = hi.n + shift_round_half_even(lo.n, delta)
        else:
            total = (hi.n << delta) + lo.n
        _audit("sum", total, out, ms, cfg, "operands too large for M")
    while out.mag_log2 >= limit:  # needs_normalization's fast mode
        out = normalize(out, ms, cfg)
    return out
