"""Hybrid multiplication and addition.

Multiplication is the fast path: one integer product reduced to the
symmetric range mod M, plus one exponent addition, with normalization
applied only when the result reaches the threshold (2|n| >= tau).
Addition aligns exponents either by scaling the larger-exponent operand's
mantissa up (exact, preferred while the scaled mantissa stays below tau/2)
or by rounding the smaller-exponent operand's mantissa down (lossy
fallback), which absorbs the operand outright when the exponent gap is at
least M.bit_length(); the strategy is recorded on the result.

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
first op calls validate_config, which checks the pair and keeps them.
Every decision (normalize, scale up) is an integer test on n.
Each op tests its operands' set identity in one condition; if any
operand is under another set object, one rns._check_set call checks them
all, so a set with other moduli raises MismatchedSet there, before any
arithmetic, and an equal set built apart gives the same result bit for
bit.
"""

from __future__ import annotations

from hrfna import rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum, signed_value, validate_config
from hrfna.normalization import normalize, shift_round_half_even
from hrfna.rns import ModulusSet, _new

# align_strategy values recorded on addition results
ALIGN_SCALE_UP = "scale-up"  # exact: larger-exponent mantissa scaled by 2^delta
ALIGN_SHIFT_DOWN = "shift-down"  # lossy: smaller-exponent operand shifted down
ALIGN_IDENTITY = "identity"  # one operand was zero


class AuditFailure(HrfnaError):
    """A debug-mode audit caught a wrapped product or sum, or a residue mismatch."""


def _audit(kind: str, exact: int, out: HybridNum, ms: ModulusSet, cause: str):
    """Audit unnormalized out against its exact mantissa: no wrap, and its residues agree."""
    if 2 * abs(exact) >= ms.composite:
        raise AuditFailure(f"{kind} of {exact.bit_length()} bits wrapped modulo M; {cause}")
    if signed_value(out.mantissa, ms) != exact:
        raise AuditFailure(f"residue {kind} disagrees with reconstruction")


def hrfna_mul(
    x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig, debug: bool = False
) -> HybridNum:
    """Hybrid product: mantissas multiply (reduced to the symmetric range mod M), exponents add.

    While the product reaches the threshold (needs_normalization) it is
    normalized before returning; each pass adds k to the exponent and
    appends its event to the ones before. With debug=True the product is
    audited by reconstruction: a wrap modulo M raises AuditFailure.
    """
    if x.set_ref is not ms or y.set_ref is not ms:
        rns._check_set(ms, x, y)
    M = ms.composite
    limit = (cfg._thresholds.get(M) or validate_config(ms, cfg))[1]
    n = x.n * y.n % M
    if 2 * n >= M:
        n -= M
    h = _new(HybridNum, (n, ms, x.exponent + y.exponent, None, ()))
    if debug:
        _audit("product", x.n * y.n, h, ms, "operand bounds misconfigured")
    while abs(h.n) >= limit:  # needs_normalization
        h = normalize(h, ms, cfg)
    return h


def hrfna_add(
    x: HybridNum, y: HybridNum, ms: ModulusSet, cfg: HybridConfig, debug: bool = False
) -> HybridNum:
    """Hybrid sum with exponent alignment.

    The operand hi with the larger exponent is aligned to the other, lo.
    Scale-up multiplies hi's mantissa by 2^delta when the scaled mantissa
    stays below tau/2 (always at delta 0); otherwise lo is shifted down to
    hi's exponent: absorbed if delta >= M.bit_length() (it rounds to 0),
    else rounded half to even and added. Either sum is reduced to the
    symmetric range mod M. Strategy selection depends only on which operand
    holds the larger exponent, so it is symmetric in (x, y) and the aligned
    mantissa addition is commutative. The result is normalized while it
    reaches threshold.
    With debug=True the sum is audited against the exact aligned integer
    sum: a wrap modulo M raises AuditFailure.
    """
    if x.set_ref is not ms or y.set_ref is not ms:
        rns._check_set(ms, x, y)
    if not x.n or not y.n:
        # A zero's n is 0, so the sum is the other operand's n.
        h = x if x.n else y
        return _new(HybridNum, (h.n, ms, h.exponent, ALIGN_IDENTITY, ()))

    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    delta, M = hi.exponent - lo.exponent, ms.composite
    _, limit, gap = cfg._thresholds.get(M) or validate_config(ms, cfg)
    if delta == 0 or (delta < gap and abs(hi.n) << delta < limit):
        n = ((hi.n << delta) + lo.n) % M
        exponent, strategy = lo.exponent, ALIGN_SCALE_UP
    else:
        exponent, strategy = hi.exponent, ALIGN_SHIFT_DOWN
        if delta < gap:
            # lo rounded half to even by 2^delta, 1 <= delta < M.bit_length(), as
            # normalize rounds: a floor shift with a carry.
            n_lo = lo.n
            n = (hi.n + ((n_lo + (1 << (delta - 1)) - 1 + ((n_lo >> delta) & 1)) >> delta)) % M
        else:
            # Absorbed: |n_lo| <= M/2 < 2^(delta-1) rounds to 0, so hi's n stands.
            n = hi.n
    if 2 * n >= M:
        n -= M
    out = _new(HybridNum, (n, ms, exponent, strategy, ()))
    if debug:
        if strategy == ALIGN_SHIFT_DOWN:
            total = hi.n + shift_round_half_even(lo.n, delta)
        else:
            total = (hi.n << delta) + lo.n
        _audit("sum", total, out, ms, "operands too large for M")
    while abs(out.n) >= limit:  # needs_normalization
        out = normalize(out, ms, cfg)
    return out
