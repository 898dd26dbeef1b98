"""Long-sequence stability workloads measured against exact rational oracles.

The oracle never touches binary64: every encoded operand has an exact value
n * 2^f, read from the n the value carries, and the reference tracks those
values as (numerator, shift) integer pairs, so the only divergence between
the hybrid chain and the oracle is the rounding introduced by normalization
and lossy alignment. No oracle reconstructs a residue vector. A chain's
oracle is one fold of affine maps x -> m*x + a whose first map is the
constant start value.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from hrfna import arithmetic, hybrid
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum
from hrfna.pipeline import Op
from hrfna.rns import ModulusSet, _new

GENERATOR_ID = "python-random-mt19937"


class LengthMismatch(HrfnaError, ValueError):
    """Inputs of unequal or unusable length: dot-product vectors, MAC chains."""


class DriftBoundExceeded(HrfnaError):
    """A chain's exact relative error exceeds its per-event rounding bound."""


class ExactZero(HrfnaError, ZeroDivisionError):
    """A nonzero approximation of an exact zero has no relative error."""


# Exact values as (numerator, shift) pairs denoting n * 2^s; cheaper than
# Fraction over long chains because no gcd runs per operation.

_RUN = 32  # maps _chain_exact folds in one loop before its product tree


def _fold(flat) -> tuple[int, int, int, int]:
    """Affine maps x -> (m, s)*x + (a, t), composed left to right, as one flat map.

    flat holds four ints per map: m, s, a, t for the multiplier pair (m, s)
    and the addend pair (a, t). Each map multiplies the addend so far by
    its multiplier and adds its own addend at the smaller of the two shifts.
    """
    m, s, a, t = flat[:4]
    rest = iter(flat[4:])
    for m_g, s_g, a_g, t_g in zip(rest, rest, rest, rest):
        m *= m_g
        s += s_g
        a *= m_g
        t += s_g  # the shift of a * m_g
        if t <= t_g:
            a += a_g << (t_g - t)
        else:
            a = (a << (t - t_g)) + a_g
            t = t_g
    return m, s, a, t


def _chain_exact(start: tuple[int, int], steps: list) -> tuple[int, int]:
    """start folded through x -> (m, s)*x + (a, t) for each step, as a (numerator, shift) pair.

    steps is flat, four ints per step, as _fold reads them; start is the
    constant map (0, 0, n, f) in front of them, so the fold's addend is the
    chain's value. Each run of _RUN maps is folded in one loop, since a call
    per pair of small leaf maps costs more than their products. The runs
    are then folded pairwise in a balanced tree (binary splitting, a product
    tree), so the big products meet operands of like size instead of one
    growing value meeting one small factor per step; the left spine's
    multiplier is 0, so no level forms the product of all multipliers.
    Composition and its min-shift bookkeeping are both associative: every
    shift is the minimum over the same terms as in the step-by-step fold,
    so the result is that fold's exact (numerator, shift) pair.
    """
    flat, span = [0, 0, *start, *steps], 4 * _RUN
    while len(flat) > 4:
        flat = [n for i in range(0, len(flat), span) for n in _fold(flat[i : i + span])]
        span = 8  # two maps per fold above the runs
    return flat[2], flat[3]


def relative_error(approx: tuple[int, int], exact: tuple[int, int]) -> Fraction:
    """|approx - exact| / |exact| as an exact, reduced Fraction (0 when both are zero).

    For approx = (a, x) and exact = (e, t), both sides are scaled to the
    smaller shift s, so the error is |d| / (|e| * 2^(t-s)) with
    d = a * 2^(x-s) - e * 2^(t-s). Euclid's gcd(u - q*v, v) = gcd(u, v)
    reduces it without a gcd of the two: gcd(|d|, |e| * 2^(t-s)) is
    gcd(|a| * 2^(x-s), |e| * 2^(t-s)), the smaller power of two times the
    gcd of the odd parts of a and e. a is a hybrid mantissa, below M/2, so
    that gcd is one remainder of e's odd part by a's, and the whole
    reduction takes time linear in the size of e, where a gcd of two
    integers of that size, as the Fraction constructor takes, does not.
    The quotient is written into a Fraction's two fields, with no second
    reduction. A nonzero approx against an exact zero raises ExactZero,
    naming the absolute error.
    """
    (a, x), (e, t) = approx, exact
    s = min(x, t)
    if e == 0:
        if a:
            raise ExactZero(f"exact value is 0; absolute error {abs(a << (x - s))} * 2^{s}")
        return Fraction(0)
    if a == 0:
        return Fraction(1)
    d = abs((a << (x - s)) - (e << (t - s)))
    a_zeros, e_zeros = (a & -a).bit_length() - 1, (e & -e).bit_length() - 1
    v = min(a_zeros + x, e_zeros + t) - s  # the gcd's power of two
    a_odd, e_odd = abs(a) >> a_zeros, abs(e) >> e_zeros
    g = gcd(a_odd, e_odd % a_odd)  # the gcd's odd part
    rel = object.__new__(Fraction)
    rel._numerator, rel._denominator = (d >> v) // g, (e_odd // g) << (e_zeros + t - s - v)
    return rel


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

    def __repr__(self) -> str:
        """The fields as the tuple would print them, but rel_error and bound as floats.

        The exact Fractions of a long chain pass int's decimal digit limit.
        """
        shown = self._replace(rel_error=float(self.rel_error), bound=float(self.bound))
        return f"DriftReport({', '.join(f'{k}={v!r}' for k, v in shown._asdict().items())})"

    def as_dict(self) -> dict:
        return {
            **self._asdict(),
            "strategy_counts": dict(sorted(self.strategy_counts.items())),
            "rel_error": float(self.rel_error),
            "bound": float(self.bound),
        }


def _report(workload, steps, acc, exact, bound, norm_events, added, ms, cfg) -> DriftReport:
    """The report of a workload whose hybrid result acc has the exact pair exact.

    added holds each add's align_strategy, counted here, once per run.
    """
    return DriftReport(
        workload=workload,
        seed=None,
        steps=steps,
        generator="caller-supplied",
        config={
            "moduli": list(ms.moduli),
            "alpha": [cfg.alpha.numerator, cfg.alpha.denominator],
            "k": cfg.scale_shift_k,
            "b": cfg.operand_bound_bits,
        },
        norm_events=norm_events,
        strategy_counts=dict(Counter(added)),
        rel_error=relative_error((acc.n, acc.exponent), exact),
        bound=bound,
    )


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
    each step's exact multiplier and addend as four plain ints in one flat
    list, no tuple per step for the garbage collector to walk, and composes
    the steps in runs and a balanced tree after the chain (_chain_exact);
    relative_error then reduces the error in time linear in its size. It
    reads each operand's value from the n the operand carries.
    The three ops are looked up once per call, so a wrapper installed before
    the call sees every op, and the add strategies are counted once, after
    the loop.
    The per-event rounding model gives the bound norm_events * 2^(k-1) / tau,
    with tau from validate_config(ms, cfg); a chain that exceeds it raises
    DriftBoundExceeded.
    """
    if len(mults) != len(addends):
        raise LengthMismatch(f"{len(mults)} multipliers vs {len(addends)} addends")

    from_real, mul, add = hybrid.from_real, arithmetic.hrfna_mul, arithmetic.hrfna_add
    acc = from_real(1.0, ms, cfg)
    start = acc.n, acc.exponent
    steps, added = [], []
    norm_events = 0
    for m, a in zip(mults, addends):
        hm = from_real(m, ms, cfg)
        ha = from_real(a, ms, cfg)
        acc = mul(acc, hm, ms, cfg)
        norm_events += acc.norm_events
        acc = add(acc, ha, ms, cfg)
        norm_events += acc.norm_events
        added.append(acc.align_strategy)
        steps += hm.n, hm.exponent, ha.n, ha.exponent

    bound = Fraction(norm_events * 2 ** (cfg.scale_shift_k - 1), hybrid.validate_config(ms, cfg)[0])
    exact = _chain_exact(start, steps)
    report = _report("chained_mac", len(mults), acc, exact, bound, norm_events, added, ms, cfg)
    if report.rel_error > bound:
        raise DriftBoundExceeded(f"drift {float(report.rel_error)} exceeds bound {float(bound)}")
    return report


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
    model. Each pair is encoded as it is reached, and its product (n, f) is
    formed once, from the n and exponent the two values carry, for both the
    fold and the oracle's terms. from_real lands a nonzero |N| in
    [2^(b-2), 2^(b-1)), so a fresh product lies below 2^(2b-2), and on an
    accepted (set, config) pair operand-bound puts the detector limit at or
    above 2^(2b-1): the product never normalizes or wraps, and is built as
    hrfna_mul would build it, without the call. The pair is checked once,
    after the first pair is encoded, where that pair's hrfna_mul checked it:
    a refused pair raises InvariantViolation there, after a non-finite first
    operand's OutOfRange. As in run_mac_chain, the add is looked up once per
    call and the add strategies are counted once, after the loop.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} vs {len(ys)} elements")
    if not xs:
        raise LengthMismatch("empty input")

    from_real, add = hybrid.from_real, arithmetic.hrfna_add
    acc: HybridNum | None = None
    terms, shifts, added = [], [], []
    norm_events = 0
    for x, y in zip(xs, ys):
        hx = from_real(x, ms, cfg)
        hy = from_real(y, ms, cfg)
        prod = _new(HybridNum, (hx.n * hy.n, ms, hx.exponent + hy.exponent, None, 0))
        terms.append(prod.n)
        shifts.append(prod.exponent)
        if acc is None:
            hybrid.validate_config(ms, cfg)
            acc = prod
        else:
            acc = add(acc, prod, ms, cfg)
            norm_events += acc.norm_events
            added.append(acc.align_strategy)

    # The (numerator, shift) pair of the terms added one by one from (0, 0): it never reduces.
    low = min(0, *shifts)
    exact = sum(t << (s - low) for t, s in zip(terms, shifts)), low
    bound = Fraction(len(xs), 2 ** (cfg.operand_bound_bits - 3))
    return acc, _report("dot_product", len(xs), acc, exact, bound, norm_events, added, ms, cfg)
