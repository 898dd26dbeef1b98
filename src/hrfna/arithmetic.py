"""Hybrid multiplication and addition.

Multiplication is the fast path: channel-wise residue products plus one
exponent addition, with normalization applied only when the result's
magnitude reaches the threshold. Addition aligns exponents either by
scaling the larger-exponent operand's mantissa up (exact, preferred) or by
reconstruct-shift-re-encode of the smaller-exponent operand (lossy
fallback); the chosen strategy is recorded on the result.

Operational envelope: a product is exact only while it stays inside the
signed range (|N_x * N_y| < M/2). Keeping at least one freshly encoded
operand (|N| < 2^b) per multiplication guarantees that; debug mode audits
it by reconstruction.
"""

from __future__ import annotations

import math

from hrfna import rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum, signed_value
from hrfna.normalization import needs_normalization, normalize, shift_round_half_even
from hrfna.rns import ModulusSet

# align_strategy values recorded on addition results
ALIGN_SCALE_UP = "scale-up"  # exact: larger-exponent mantissa scaled by 2^delta
ALIGN_SHIFT_DOWN = "shift-down"  # lossy: smaller-exponent operand shifted down
ALIGN_IDENTITY = "identity"  # one operand was zero


class AuditFailure(HrfnaError):
    """A debug-mode audit caught a wrapped product, a residue mismatch or a missed crossing."""


_new = tuple.__new__  # a NamedTuple from all its fields, skipping its Python-level __new__


def _audit(kind: str, exact: int, out: HybridNum, ms: ModulusSet, cfg: HybridConfig, cause: str):
    """Audit unnormalized out against its exact mantissa: wrap, residues, missed crossing."""
    if 2 * abs(exact) >= ms.composite:
        raise AuditFailure(f"{kind} {exact} wrapped modulo M={ms.composite}; {cause}")
    if signed_value(out.mantissa, ms) != exact:
        raise AuditFailure(f"residue {kind} disagrees with reconstruction")
    if abs(exact) >= cfg.thresholds(ms)[0] and not needs_normalization(out, ms, cfg):
        raise AuditFailure("magnitude estimator missed a threshold crossing")


def hrfna_mul(
    x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig, debug: bool = False
) -> HybridNum:
    """Hybrid product: residues multiply per channel, exponents add.

    The magnitude estimate updates additively; if it reaches the threshold
    the result is normalized before returning (each pass adds k to the
    exponent and appends its event to the ones before). With debug=True
    the product is audited by reconstruction: a wrap modulo M or a missed
    threshold crossing raises AuditFailure.
    """
    mant = rns.mod_mul(x.mantissa, y.mantissa, ms)
    exponent, mag, sign = x.exponent + y.exponent, x.mag_log2 + y.mag_log2, x.sign * y.sign
    h = _new(HybridNum, (mant, exponent, mag, sign, None, ()))
    if debug:
        prod = signed_value(x.mantissa, ms) * signed_value(y.mantissa, ms)
        _audit("product", prod, h, ms, cfg, "operand bounds misconfigured")
    while needs_normalization(h, ms, cfg):
        h = normalize(h, ms, cfg)
    return h


def hrfna_add(
    x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig, debug: bool = False
) -> HybridNum:
    """Hybrid sum with exponent alignment.

    The operand hi with the larger exponent is aligned to the other, lo.
    Scale-up multiplies hi's mantissa by 2^delta when the scaled magnitude
    estimate stays below tau/2; otherwise lo is reconstructed, shifted down
    with round half to even, and re-encoded at hi's exponent. Strategy
    selection depends only on which operand holds the larger exponent, so
    it is symmetric in (x, y) and the aligned mantissa addition is
    channel-wise commutative. The magnitude estimate and sign are
    recomputed exactly from the sum (a log-sum estimate cannot survive
    cancellation), and the result is normalized if it reaches threshold.
    With debug=True the sum is audited against the exact aligned integer
    sum: a wrap modulo M or a missed threshold crossing raises AuditFailure.
    """
    if not x.sign or not y.sign:
        # A zero's residues are all 0, so the channel sum is the other mantissa.
        mant, h = rns.mod_add(x.mantissa, y.mantissa, ms), x if x.sign else y
        return _new(HybridNum, (mant, h.exponent, h.mag_log2, h.sign, ALIGN_IDENTITY, ()))

    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    delta = hi.exponent - lo.exponent
    exponent, strategy = hi.exponent, ALIGN_SCALE_UP
    if delta == 0:
        mant = rns.mod_add(hi.mantissa, lo.mantissa, ms)
    elif hi.mag_log2 + delta < cfg.thresholds(ms)[1]:
        scaled = rns.mod_mul(hi.mantissa, rns.encode_residues(1 << delta, ms), ms)
        mant, exponent = rns.mod_add(scaled, lo.mantissa, ms), lo.exponent
    else:
        n_lo = signed_value(lo.mantissa, ms)
        shifted = rns.encode_signed(shift_round_half_even(n_lo, delta), ms)
        mant, strategy = rns.mod_add(hi.mantissa, shifted, ms), ALIGN_SHIFT_DOWN

    n = signed_value(mant, ms)
    mag = math.log2(abs(n)) if n else -math.inf
    out = _new(HybridNum, (mant, exponent, mag, (n > 0) - (n < 0), strategy, ()))
    if debug:
        n_hi, n_lo = signed_value(hi.mantissa, ms), signed_value(lo.mantissa, ms)
        if strategy == ALIGN_SHIFT_DOWN:
            total = n_hi + shift_round_half_even(n_lo, delta)
        else:
            total = (n_hi << delta) + n_lo
        _audit("sum", total, out, ms, cfg, "operands too large for M")
    while needs_normalization(out, ms, cfg):
        out = normalize(out, ms, cfg)
    return out
