"""The operational envelope over the accepted config space, and its open defects.

A product is exact only while it stays below M/2. The detector normalizes
from 2|n| >= tau on, so a value survives up to limit - 1, for the integer
limit = (tau + 1) // 2, and the widest product a chain forms is that
survivor times the largest fresh mantissa, 2^(b-1) - 1. It stays below M/2
whenever tau * 2^(b-1) < M, the chain-envelope invariant that validate_config does not check yet (ROADMAP
item 2), so most accepted configs on small sets wrap. The sweep covers
every config that validate_config accepts on four small sets, with
alpha = n/d for odd n < d and d from 16 to 256 in powers of two, and b
from 3 to 13: 9,540 configs, 655 of them inside the invariant.

The invariant implies alpha < 2^-(b-1), so two survivors also add without
a wrap. The add sweep runs the largest survivor plus itself, with signs
(+, +), (+, -) and (-, -), at every exponent gap from 0 to
M.bit_length() + 2, so through scale-up, shift-down and absorbed adds:
32,322 sums inside the invariant, none of which wraps, and 476,607 over
every accepted config, 29,796 of which wrap (the first at gap 0 on
(7, 9, 11) with alpha = 9/16, k = 1, b = 3).
"""

from fractions import Fraction

import pytest

from hrfna import (
    DEFAULT_CONFIG,
    DEFAULT_MODULI,
    HrfnaError,
    HybridConfig,
    exact_value,
    from_real,
    hrfna_add,
    hrfna_mul,
    make_hybrid,
    make_modulus_set,
    validate_config,
)
from hrfna.arithmetic import AuditFailure
from hrfna.errors import InvariantViolation
from hrfna.formats import parse_program
from hrfna.pipeline import evaluate_program

SMALL_SETS = ((7, 9, 11), (7, 9, 11, 13), (13, 15, 16), (31, 32, 33))
ITEM_2_CONFIGS = "ROADMAP item 2: validate_config does not check tau * 2^(b-1) < M"
ITEM_2_PROGRAMS = "ROADMAP item 2: hrfna_mul lets a survivor times a survivor wrap"


def accepted_configs():
    """(ms, cfg, config key, detector limit, meets tau * 2^(b-1) < M) for every accepted config."""
    for moduli in SMALL_SETS:
        ms = make_modulus_set(moduli)
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
    """(config, meets tau * 2^(b-1) < M, AuditFailure text or None), one per accepted config."""
    rows = []
    for ms, cfg, key, limit, inside in accepted_configs():
        x = make_hybrid(limit - 1, 0, ms)
        y = make_hybrid(2 ** (cfg.operand_bound_bits - 1) - 1, 0, ms)
        try:
            hrfna_mul(x, y, ms, cfg, debug=True)
            failure = None
        except AuditFailure as exc:
            failure = str(exc)
        rows.append((key, inside, failure))
    return rows


def survivor_sums(configs):
    """Every config's largest survivor plus itself, signs (+, +), (+, -) and (-, -),
    at each exponent gap from 0 to M.bit_length() + 2: (config, gap, signs, x, y)."""
    for ms, cfg, key, limit, _ in configs:
        s = limit - 1  # the largest survivor
        for gap in range(ms.composite.bit_length() + 3):
            for signs in ((1, 1), (1, -1), (-1, -1)):
                x, y = make_hybrid(signs[0] * s, gap, ms), make_hybrid(signs[1] * s, 0, ms)
                yield ms, cfg, key, gap, signs, x, y


def assert_none_wrap(rows):
    wrapped = [row for row in rows if row[2] is not None]
    assert not wrapped, f"{len(wrapped)} of {len(rows)} configs wrap, first {wrapped[0]}"


def test_configs_inside_the_envelope_never_wrap(sweep):
    inside = [row for row in sweep if row[1]]
    assert {moduli for (moduli, *_), _, _ in inside} == set(SMALL_SETS)
    assert_none_wrap(inside)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2_CONFIGS)
def test_every_accepted_config_keeps_its_widest_product(sweep):
    assert_none_wrap(sweep)


def test_survivor_sums_inside_the_envelope_never_wrap():
    inside = [config for config in accepted_configs() if config[-1]]
    sums, wrapped = 0, []
    for ms, cfg, key, gap, signs, x, y in survivor_sums(inside):
        sums += 1
        try:
            hrfna_add(x, y, ms, cfg, debug=True)
        except AuditFailure as exc:
            wrapped.append((key, gap, signs, str(exc)))
    assert (len(inside), sums) == (655, 32_322)
    assert not wrapped, f"{len(wrapped)} of {sums} sums wrap, first {wrapped[0]}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2_CONFIGS)
def test_every_accepted_config_keeps_its_widest_sum():
    for ms, cfg, key, gap, signs, x, y in survivor_sums(accepted_configs()):
        try:
            hrfna_add(x, y, ms, cfg, debug=True)
        except AuditFailure as exc:
            raise AssertionError(f"{key} at gap {gap}, signs {signs}: {exc}") from None


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2_PROGRAMS)
def test_a_survivor_squared_stays_exact():
    # Under the default config, inside the invariant, t1 * t1 multiplies two
    # products: it reads -0.0467 instead of about 63.8.
    ms = make_modulus_set(DEFAULT_MODULI)
    text = "hrfna-program v1\nlit a 1.999\nlit b 1.999\nmul a b\nmul t0 b\nmul t1 t1\n"
    program = parse_program(text)
    try:
        names, results, _ = evaluate_program(program, ms, DEFAULT_CONFIG)
    except HrfnaError:
        return  # a typed refusal also keeps the envelope
    exact = {}
    for op in program:
        if op.kind == "lit":
            exact[op.name] = exact_value(from_real(op.value, ms, DEFAULT_CONFIG))
    for name, op in zip(names, [op for op in program if op.kind != "lit"]):
        exact[name] = exact[op.args[0]] * exact[op.args[1]]
    want = exact[names[-1]]
    assert abs(exact_value(results[-1]) - want) <= Fraction(1, 100) * abs(want)
