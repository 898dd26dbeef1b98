"""Hybrid multiplication and addition.

Multiplication is the fast path: channel-wise residue products plus one
exponent addition, with normalization applied only when the result's
magnitude reaches the threshold. Addition aligns exponents either by
scaling the larger-exponent operand's mantissa up (exact, preferred) or by
reconstruct-shift-re-encode of the smaller-exponent operand (lossy
fallback), which absorbs the operand unreconstructed when the exponent
gap is at least M.bit_length(); the strategy is recorded on the result.

Operational envelope: a product is exact only while it stays inside the
signed range (|N_x * N_y| < M/2). Keeping at least one freshly encoded
operand (|N| < 2^b) per multiplication guarantees that; debug mode audits
it by reconstruction.

Each op reads the detector limit (and an add the absorb gap) once, from
cfg._thresholds[ms.composite] with no Python-level call; only a pair's
first op calls validate_config, which checks the pair and keeps them. Each
does its channel work with the kernels of ms (rns.ModulusSet.kernels):
the channel product, the scaled sum (r * 2^delta + s) mod m and the
signed CRT. A shift-down add that is not absorbed is one shift_add call,
which reconstructs lo, rounds it half to even, adds it into hi per
channel and reconstructs the sum. An absorbed add keeps hi's residues; it
reconstructs them with the signed kernel only when hi has no
normalization event, since normalize already took hi's mag_log2 and sign
from their exact value. In a long chained MAC nearly every add absorbs
its addend into a product just normalized, so those adds run no CRT at
all. normalize drains through one drain call.
Each op tests its operands' set identity in one condition; if any
operand is under another set object, one rns._check_set call checks them
all, so a set with other moduli raises MismatchedSet there, before any
kernel runs, and an equal set built apart gives the same result bit for
bit.
"""

from __future__ import annotations

from math import inf, log2

from hrfna import rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum, signed_value, validate_config
from hrfna.normalization import needs_normalization, normalize, shift_round_half_even
from hrfna.rns import ModulusSet, ResidueVector, _new

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
    """Hybrid product: residues multiply per channel, exponents add.

    The magnitude estimate updates additively; if it reaches the threshold
    the result is normalized before returning (each pass adds k to the
    exponent and appends its event to the ones before). With debug=True
    the product is audited by reconstruction: a wrap modulo M or a missed
    threshold crossing raises AuditFailure.
    """
    xm, ym = x.mantissa, y.mantissa
    if xm.set_ref is not ms or ym.set_ref is not ms:
        rns._check_set(ms, xm, ym)
    mant = _new(ResidueVector, (ms.kernels.mul(xm.residues, ym.residues), ms))
    exponent, mag, sign = x.exponent + y.exponent, x.mag_log2 + y.mag_log2, x.sign * y.sign
    h = _new(HybridNum, (mant, exponent, mag, sign, None, ()))
    if debug:
        prod = signed_value(xm, ms) * signed_value(ym, ms)
        _audit("product", prod, h, ms, cfg, "operand bounds misconfigured")
    limit = (cfg._thresholds.get(ms.composite) or validate_config(ms, cfg))[1]
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
    exponent: absorbed unreconstructed if delta >= M.bit_length() (it
    rounds to 0), else reconstructed, rounded half to even and re-encoded.
    Strategy selection depends only on which operand holds the larger
    exponent, so it is symmetric in (x, y) and the aligned mantissa
    addition is channel-wise commutative. The magnitude estimate and sign
    are recomputed exactly from the sum (a log-sum estimate cannot survive
    cancellation); an absorbed add whose hi carries normalization events
    takes them from hi instead, which normalize computed from the exact
    value of the same residues. The result is normalized if it reaches
    threshold.
    With debug=True the sum is audited against the exact aligned integer
    sum: a wrap modulo M or a missed threshold crossing raises AuditFailure.
    """
    if not x.sign or not y.sign:
        # A zero's residues are all 0, so the channel sum is the other mantissa.
        mant, h = rns.mod_add(x.mantissa, y.mantissa, ms), x if x.sign else y
        return _new(HybridNum, (mant, h.exponent, h.mag_log2, h.sign, ALIGN_IDENTITY, ()))

    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    delta = hi.exponent - lo.exponent
    hm, lm, kernels = hi.mantissa, lo.mantissa, ms.kernels
    if hm.set_ref is not ms or lm.set_ref is not ms:
        rns._check_set(ms, hm, lm)
    _, limit, gap = cfg._thresholds.get(ms.composite) or validate_config(ms, cfg)
    exponent, strategy = hi.exponent, ALIGN_SHIFT_DOWN
    if delta == 0 or hi.mag_log2 + delta < limit:
        # (r_hi * 2^delta + r_lo) mod m_i: the residues of 2^delta would give the same.
        residues = kernels.scale_add(hm.residues, 1 << delta, lm.residues)
        n = kernels.signed(residues)
        exponent, strategy = lo.exponent, ALIGN_SCALE_UP
    elif delta < gap:
        # lo rounded by 2^delta, 1 <= delta < M.bit_length(), added into hi per channel.
        residues, n = kernels.shift_add(hm.residues, lm.residues, delta)
    else:
        # Absorbed: |n_lo| <= M/2 < 2^(delta-1) rounds to 0, so hi's residues stand.
        # normalize set a normalized hi's mag_log2 and sign from these residues'
        # exact value; an unnormalized product's mag_log2 is only an estimate.
        residues = hm.residues
        n = None if hi.norm_events else kernels.signed(residues)
    if n is None:
        mag, sign = hi.mag_log2, hi.sign
    else:
        mag, sign = (log2(abs(n)) if n else -inf), (n > 0) - (n < 0)
    mant = _new(ResidueVector, (residues, ms))
    out = _new(HybridNum, (mant, exponent, mag, sign, strategy, ()))
    if debug:
        n_hi, n_lo = signed_value(hm, ms), signed_value(lm, ms)
        if strategy == ALIGN_SHIFT_DOWN:
            total = n_hi + shift_round_half_even(n_lo, delta)
        else:
            total = (n_hi << delta) + n_lo
        _audit("sum", total, out, ms, cfg, "operands too large for M")
    while out.mag_log2 >= limit:  # needs_normalization's fast mode
        out = normalize(out, ms, cfg)
    return out
