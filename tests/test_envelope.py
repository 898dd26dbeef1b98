"""The operational envelope over the accepted config space, and its open defects.

A product is exact only while it stays below M/2; an op whose exact
integer reaches M/2, which the channel ops would wrap, raises WrapDetected.
The detector normalizes from 2|n| >= tau on, so a value survives up to
limit - 1, for the integer limit = (tau + 1) // 2, and the widest product
a chain forms is that survivor times the largest fresh mantissa,
2^(b-1) - 1. It stays below M/2 whenever tau * 2^(b-1) < M, the
chain-envelope invariant that validate_config does not check yet (ROADMAP
item 2), so on most accepted configs on small sets that product is
refused. The sweep covers every config that validate_config accepts on
four small sets, with alpha = n/d for odd n < d and d from 16 to 256 in
powers of two, and b from 3 to 13: 9,540 configs, 655 of them inside the
invariant; 8,671 refuse their widest product.

The invariant implies alpha < 2^-(b-1), so two survivors also add inside
M/2. The add sweep runs the largest survivor plus itself, with signs
(+, +), (+, -) and (-, -), at every exponent gap from 0 to
M.bit_length() + 2, so through scale-up, shift-down and absorbed adds:
32,322 sums inside the invariant, none of which is refused, and 476,607
over every accepted config, 29,796 of which are (the first at gap 0 on
(7, 9, 11) with alpha = 9/16, k = 1, b = 3).

A survivor times a survivor leaves the envelope on every config: a
program may form one, and the op refuses it. Random programs check that
no op wraps silently.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrfna import (
    DEFAULT_CONFIG,
    DEFAULT_MODULI,
    HybridConfig,
    ModulusSet,
    Op,
    WrapDetected,
    hrfna_add,
    hrfna_mul,
    make_hybrid,
    validate_config,
)
from hrfna.errors import InvariantViolation
from hrfna.formats import parse_program
from hrfna.pipeline import evaluate_program, run_program
from support import REFUSALS, TWO_CHANNEL, examples, exact_integer, outcome, returned

SMALL_SETS = ((7, 9, 11), (7, 9, 11, 13), (13, 15, 16), (31, 32, 33))
ITEM_2_CONFIGS = "ROADMAP item 2: validate_config does not check tau * 2^(b-1) < M"
# (moduli, config) pairs inside the invariant that the random programs run on.
PROGRAM_CASES = ((DEFAULT_MODULI, DEFAULT_CONFIG), TWO_CHANNEL)
# Under the default config, inside the invariant, t1 * t1 multiplies two products.
SURVIVOR_SQUARED = "hrfna-program v1\nlit a 1.999\nlit b 1.999\nmul a b\nmul t0 b\nmul t1 t1\n"


def accepted_configs():
    """(ms, cfg, config key, detector limit, meets tau * 2^(b-1) < M) for every accepted config."""
    for moduli in SMALL_SETS:
        ms = ModulusSet(moduli)
        for d in (16, 32, 64, 128, 256):
            for n in range(1, d, 2):
                for b in range(3, 14):
                    for k in range(1, b):
                        cfg = HybridConfig(Fraction(n, d), k, b)
                        try:
                            tau, limit, _ = validate_config(ms, cfg)
                        except InvariantViolation:
                            continue
                        inside = tau << (b - 1) < ms.composite
                        yield ms, cfg, (moduli, n, d, k, b), limit, inside


@pytest.fixture(scope="module")
def sweep() -> list:
    """(config, meets tau * 2^(b-1) < M, WrapDetected text or None), one per accepted config."""
    rows = []
    for ms, cfg, key, limit, inside in accepted_configs():
        x = make_hybrid(limit - 1, 0, ms)
        y = make_hybrid(2 ** (cfg.operand_bound_bits - 1) - 1, 0, ms)
        z = outcome(hrfna_mul, x, y, ms, cfg)
        rows.append((key, inside, z if isinstance(z, str) else None))
    return rows


@pytest.fixture(scope="module")
def sum_sweep() -> list:
    """Every accepted config's largest survivor plus itself, signs (+, +), (+, -) and (-, -),
    at each exponent gap from 0 to M.bit_length() + 2: ((config, gap, signs), meets
    tau * 2^(b-1) < M, WrapDetected text or None)."""
    rows = []
    for ms, cfg, key, limit, inside in accepted_configs():
        s = limit - 1  # the largest survivor
        for gap in range(ms.composite.bit_length() + 3):
            for signs in ((1, 1), (1, -1), (-1, -1)):
                x, y = make_hybrid(signs[0] * s, gap, ms), make_hybrid(signs[1] * s, 0, ms)
                z = outcome(hrfna_add, x, y, ms, cfg)
                rows.append(((key, gap, signs), inside, z if isinstance(z, str) else None))
    return rows


def refused(rows):
    return [row for row in rows if row[2] is not None]


def assert_none_refused(rows):
    bad = refused(rows)
    assert not bad, f"{len(bad)} of {len(rows)} refused, first {bad[0]}"


def test_configs_inside_the_envelope_never_wrap(sweep):
    inside = [row for row in sweep if row[1]]
    assert {moduli for (moduli, *_), _, _ in inside} == set(SMALL_SETS)
    assert (len(sweep), len(inside), len(refused(sweep))) == (9_540, 655, 8_671)
    assert_none_refused(inside)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2_CONFIGS)
def test_every_accepted_config_keeps_its_widest_product(sweep):
    assert_none_refused(sweep)


def test_survivor_sums_inside_the_envelope_never_wrap(sum_sweep):
    inside = [row for row in sum_sweep if row[1]]
    assert (len(sum_sweep), len(inside), len(refused(sum_sweep))) == (476_607, 32_322, 29_796)
    assert_none_refused(inside)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2_CONFIGS)
def test_every_accepted_config_keeps_its_widest_sum(sum_sweep):
    assert_none_refused(sum_sweep)


def test_a_survivor_squared_is_refused():
    # t1 * t1 multiplies two survivors: 44 bits, past M/2.
    ms = ModulusSet(DEFAULT_MODULI)
    with pytest.raises(WrapDetected) as exc:
        evaluate_program(parse_program(SURVIVOR_SQUARED), ms, DEFAULT_CONFIG)
    assert str(exc.value) == REFUSALS["mul"].format(44)


@st.composite
def programs(draw):
    """1 to 3 literals, then 1 to 12 muls and adds on any two earlier names, temporaries too."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    ops = [Op("lit", name=name, value=draw(st.floats(-4.0, 4.0))) for name in names]
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("mul", "add")))
        ops.append(Op(kind, args=(draw(st.sampled_from(names)), draw(st.sampled_from(names)))))
        names.append(f"t{i}")
    return ops


@given(st.sampled_from(PROGRAM_CASES), programs())
@settings(max_examples=examples(300), deadline=None)
@example((DEFAULT_MODULI, DEFAULT_CONFIG), parse_program(SURVIVOR_SQUARED))
def test_no_program_wraps_silently(case, program):
    """Survivor times survivor products included, every op's result is the exact integer
    it forms, rounded once per pass the detector asks of it and counting those passes, or
    the first op whose exact integer reaches M/2 raises WrapDetected, sized by that integer."""
    moduli, cfg = case
    ms = ModulusSet(moduli)
    tau, _, gap = validate_config(ms, cfg)
    steps, raised = [], None
    try:
        steps.extend(run_program(program, ms, cfg))
    except WrapDetected as exc:
        raised = str(exc)
    env = {}
    for name, kind, operands, value in steps:
        if kind != "lit":
            assert returned(value, kind, exact_integer(kind, *operands, tau, gap), ms, cfg)
        env[name] = value
    if raised is None:
        assert len(steps) == len(program)
        return
    op = program[len(steps)]  # the op that raised
    n = exact_integer(op.kind, *(env[arg] for arg in op.args), tau, gap)
    assert not returned(raised, op.kind, n, ms, cfg)
