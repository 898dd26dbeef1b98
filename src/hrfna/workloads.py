"""Long-sequence stability workloads measured against exact rational oracles.

The oracle never touches binary64: every encoded operand has an exact value
signed(N) * 2^f, and the reference fold tracks those values as (numerator,
shift) integer pairs, so the only divergence between the hybrid chain and
the oracle is the rounding introduced by normalization and lossy alignment.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from hrfna import arithmetic, hybrid
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum
from hrfna.pipeline import Op, _new
from hrfna.rns import ModulusSet

GENERATOR_ID = "python-random-mt19937"


class LengthMismatch(HrfnaError, ValueError):
    """Inputs of unequal or unusable length: dot-product vectors, MAC chains."""


class DriftBoundExceeded(HrfnaError):
    """A chain's exact relative error exceeds its per-event rounding bound."""


class ExactZero(HrfnaError, ZeroDivisionError):
    """A nonzero approximation of an exact zero has no relative error."""


# Exact values as (numerator, shift) pairs denoting n * 2^s; cheaper than
# Fraction over long chains because no gcd runs per operation.


def _pair_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0], a[1] + b[1]


def _pair_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    s = min(a[1], b[1])
    return (a[0] << (a[1] - s)) + (b[0] << (b[1] - s)), s


_RUN = 16  # steps _chain_exact composes in one loop before its product tree


def _compose(f, g):
    """The affine map x -> m*x + a of g applied after f, as a (m, a) pair of pairs.

    The pair arithmetic of _pair_mul(m_f, m_g) and
    _pair_add(_pair_mul(a_f, m_g), a_g), written out in this frame.
    """
    ((m_f, s_f), (a_f, t_f)), ((m_g, s_g), (a_g, t_g)) = f, g
    t = t_f + s_g  # the shift of a_f * m_g
    low = min(t, t_g)
    return (m_f * m_g, s_f + s_g), (((a_f * m_g) << (t - low)) + (a_g << (t_g - low)), low)


def _chain_exact(start: tuple[int, int], steps: list) -> tuple[int, int]:
    """start folded through x -> m*x + a for each (m, a) pair of pairs in steps.

    Each run of _RUN consecutive steps is first composed left to right in
    one loop, _compose's arithmetic written inline, since a call per pair
    of small leaf maps costs more than their products. The runs are then
    composed pairwise in a balanced tree (binary splitting, a product
    tree), so the big products meet operands of like size instead of one
    growing value meeting one small factor per step. Composition and its
    min-shift bookkeeping are both associative: every shift is the minimum
    over the same terms as in the step-by-step fold, so the result is that
    fold's exact (numerator, shift) pair.
    """
    maps = []
    for i in range(0, len(steps), _RUN):
        (m, s), (a, t) = steps[i]
        for (m_g, s_g), (a_g, t_g) in steps[i + 1 : i + _RUN]:
            m *= m_g
            s += s_g
            a *= m_g
            t += s_g  # the shift of a * m_g
            if t <= t_g:
                a += a_g << (t_g - t)
            else:
                a = (a << (t - t_g)) + a_g
                t = t_g
        maps.append(((m, s), (a, t)))
    while len(maps) > 1:
        maps = list(map(_compose, maps[::2], maps[1::2])) + (maps[-1:] if len(maps) % 2 else [])
    if not maps:
        return start
    ((m, a),) = maps
    return _pair_add(_pair_mul(start, m), a)


def relative_error(approx: tuple[int, int], exact: tuple[int, int]) -> Fraction:
    """|approx - exact| / |exact| as an exact Fraction (0 when both are zero).

    Both sides are scaled to the smaller shift, so one gcd reduces the result.
    A nonzero approx against an exact zero raises ExactZero, naming the
    absolute error.
    """
    d, s = _pair_add(approx, (-exact[0], exact[1]))
    e, t = exact
    if e == 0:
        if d:
            raise ExactZero(f"exact value is 0; absolute error {abs(d)} * 2^{s}")
        return Fraction(0)
    return Fraction(abs(d) << max(s - t, 0), abs(e) << max(t - s, 0))


class DriftReport(NamedTuple):
    """Outcome of one workload run against its exact oracle."""

    workload: str
    seed: int | None
    steps: int
    generator: str
    config: dict
    norm_events: int
    strategy_counts: dict
    rel_error: Fraction
    bound: Fraction

    def as_dict(self) -> dict:
        return {
            **self._asdict(),
            "strategy_counts": dict(sorted(self.strategy_counts.items())),
            "rel_error": float(self.rel_error),
            "bound": float(self.bound),
        }


def _config_record(ms: ModulusSet, cfg: HybridConfig) -> dict:
    return {
        "moduli": list(ms.moduli),
        "alpha": [cfg.alpha.numerator, cfg.alpha.denominator],
        "k": cfg.scale_shift_k,
        "b": cfg.operand_bound_bits,
    }


def mac_sequences(seed: int, n_steps: int) -> tuple[list[float], list[float]]:
    """Deterministic multiplier/addend streams: [0.5, 2) and [-1, 1).

    Each draw is a + (b - a) * random(), exactly as Random.uniform(a, b)
    computes it, so the streams equal rng.uniform(0.5, 2.0) and
    rng.uniform(-1.0, 1.0) draws.
    """
    draw = random.Random(seed).random
    mults = [0.5 + 1.5 * draw() for _ in range(n_steps)]
    addends = [-1.0 + 2.0 * draw() for _ in range(n_steps)]
    return mults, addends


def run_mac_chain(mults, addends, ms: ModulusSet, cfg: HybridConfig) -> DriftReport:
    """Fold acc <- acc * m + a through the hybrid ops, tracking the exact value.

    The oracle folds the encoded operand values exactly, so the measured
    relative error isolates normalization and alignment rounding; it keeps
    each step's exact (multiplier, addend) pair and composes the steps in
    runs and a balanced tree after the chain (_chain_exact). It reads each
    operand's value through ms.kernels.reverse, which the set's signed
    kernel fills on a miss, so each distinct fresh vector is reconstructed
    once per set and every value is the CRT of the residues the fold used.
    The three ops are looked up once per call, so a wrapper installed before
    the call sees every op, and the add strategies are counted once, after
    the loop.
    The per-event rounding model gives the bound norm_events * 2^(k-1) / tau,
    with tau from cfg.thresholds(ms); a chain that exceeds it raises
    DriftBoundExceeded.
    """
    if len(mults) != len(addends):
        raise LengthMismatch(f"{len(mults)} multipliers vs {len(addends)} addends")

    from_real, mul, add = hybrid.from_real, arithmetic.hrfna_mul, arithmetic.hrfna_add
    leaf = ms.kernels.reverse  # from_real builds under ms: no set check needed
    acc = from_real(1.0, ms, cfg)
    start = hybrid.signed_value(acc.mantissa, ms), acc.exponent
    steps, added = [], []
    norm_events = 0
    for m, a in zip(mults, addends):
        hm = from_real(m, ms, cfg)
        ha = from_real(a, ms, cfg)
        acc = mul(acc, hm, ms, cfg)
        norm_events += len(acc.norm_events)
        acc = add(acc, ha, ms, cfg)
        norm_events += len(acc.norm_events)
        added.append(acc.align_strategy)
        steps.append((
            (leaf[hm.mantissa.residues], hm.exponent),
            (leaf[ha.mantissa.residues], ha.exponent),
        ))

    approx = hybrid.signed_value(acc.mantissa, ms), acc.exponent
    rel = relative_error(approx, _chain_exact(start, steps))
    bound = Fraction(norm_events * 2 ** (cfg.scale_shift_k - 1), cfg.thresholds(ms)[0])
    if rel > bound:
        raise DriftBoundExceeded(f"drift {float(rel)} exceeds bound {float(bound)}")
    return DriftReport(
        workload="chained_mac",
        seed=None,
        steps=len(mults),
        generator="caller-supplied",
        config=_config_record(ms, cfg),
        norm_events=norm_events,
        strategy_counts=dict(Counter(added)),
        rel_error=rel,
        bound=bound,
    )


def chained_mac(seed: int, n_steps: int, ms: ModulusSet, cfg: HybridConfig) -> DriftReport:
    """Seeded multiply-accumulate chain; see run_mac_chain for the fold."""
    if n_steps < 1:
        raise LengthMismatch(f"n_steps = {n_steps}, must be >= 1")
    report = run_mac_chain(*mac_sequences(seed, n_steps), ms, cfg)
    return report._replace(seed=seed, generator=GENERATOR_ID)


def chained_mac_program(seed: int, n_steps: int) -> list[Op]:
    """The same chain expressed as a pipeline program (for timing/value checks)."""
    ops, steps, prev = [_new(Op, ("lit", (), "acc", 1.0))], [], "acc"
    for i, (m, a) in enumerate(zip(*mac_sequences(seed, n_steps))):
        m_name, a_name = f"m{i}", f"a{i}"
        ops += _new(Op, ("lit", (), m_name, m)), _new(Op, ("lit", (), a_name, a))
        steps.append(_new(Op, ("mul", (prev, m_name), "", None)))
        steps.append(_new(Op, ("add", (f"t{2 * i}", a_name), "", None)))
        prev = f"t{2 * i + 1}"
    return ops + steps


def dot_product(
    xs, ys, ms: ModulusSet, cfg: HybridConfig
) -> tuple[HybridNum, DriftReport]:
    """Sum of pairwise products in hybrid arithmetic, with an exact-oracle report.

    Exponent synchronization happens inside the accumulation adds; the
    reported bound 2^-(b-3) * length comes from the per-operation rounding
    model. The oracle reads each operand's value through ms.kernels.reverse,
    which the set's signed kernel fills on a miss, and the add strategies
    are counted once, after the loop.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} vs {len(ys)} elements")
    if not xs:
        raise LengthMismatch("empty input")

    leaf = ms.kernels.reverse  # from_real builds under ms: no set check needed
    acc: HybridNum | None = None
    terms, shifts, added = [], [], []
    norm_events = 0
    for x, y in zip(xs, ys):
        hx = hybrid.from_real(x, ms, cfg)
        hy = hybrid.from_real(y, ms, cfg)
        prod = arithmetic.hrfna_mul(hx, hy, ms, cfg)
        norm_events += len(prod.norm_events)
        terms.append(leaf[hx.mantissa.residues] * leaf[hy.mantissa.residues])
        shifts.append(hx.exponent + hy.exponent)
        if acc is None:
            acc = prod
        else:
            acc = arithmetic.hrfna_add(acc, prod, ms, cfg)
            norm_events += len(acc.norm_events)
            added.append(acc.align_strategy)

    # The (numerator, shift) pair a _pair_add fold from (0, 0) gives: it never reduces.
    low = min(0, *shifts)
    exact = sum(t << (s - low) for t, s in zip(terms, shifts)), low
    rel = relative_error((hybrid.signed_value(acc.mantissa, ms), acc.exponent), exact)
    bound = Fraction(len(xs), 2 ** (cfg.operand_bound_bits - 3))
    report = DriftReport(
        workload="dot_product",
        seed=None,
        steps=len(xs),
        generator="caller-supplied",
        config=_config_record(ms, cfg),
        norm_events=norm_events,
        strategy_counts=dict(Counter(added)),
        rel_error=rel,
        bound=bound,
    )
    return acc, report
