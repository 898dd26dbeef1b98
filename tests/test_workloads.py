"""Drift workloads: oracle agreement, analytic bounds, pipeline equivalence."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrfna import (
    ALIGN_SHIFT_DOWN,
    DriftBoundExceeded,
    ExactZero,
    HrfnaError,
    HybridConfig,
    LengthMismatch,
    ModulusSet,
    WrapDetected,
    chained_mac,
    dot_product,
    encode_signed,
    exact_value,
    from_real,
    hrfna_add,
    hrfna_mul,
    rns,
    run_mac_chain,
    signed_value,
    simulate,
    to_real,
    validate_config,
    workloads,
)
from hrfna.cli import main
from hrfna.pipeline import Op, evaluate_program
from hrfna.workloads import (
    _RUN,
    _chain_exact,
    chained_mac_program,
    mac_sequences,
    relative_error,
)
from support import ELEVEN_PRIMES, REFUSALS, examples


class TestChainedMac:
    def test_identity_chain_zero_error(self, default_ms, hcfg):
        # Window mantissas are powers of two here, so every normalization
        # shift is exact and the chain stays error-free.
        report = run_mac_chain([1.0] * 64, [0.0] * 64, default_ms, hcfg)
        assert report.rel_error == 0

    def test_power_of_two_multipliers_exact(self, default_ms, hcfg):
        # Power-of-two scaling is exact regardless of normalization count.
        mults = [2.0, 0.5, 2.0, 2.0, 0.5, 2.0, 2.0, 2.0] * 40
        report = run_mac_chain(mults, [0.0] * len(mults), default_ms, hcfg)
        assert report.rel_error == 0

    def test_seeded_chain_respects_bound(self, default_ms, hcfg):
        report = chained_mac(7, 2000, default_ms, hcfg)
        assert report.norm_events > 0
        assert report.rel_error <= report.bound
        assert report.seed == 7
        assert report.steps == 2000
        assert report.generator == "python-random-mt19937"
        assert report.config["moduli"] == [4093, 4095, 4091]

    def test_chain_stamps_its_own_provenance(self, default_ms, hcfg):
        direct = run_mac_chain(*mac_sequences(7, 50), default_ms, hcfg)
        assert direct.seed is None
        assert direct.generator == "caller-supplied"
        seeded = chained_mac(7, 50, default_ms, hcfg)
        assert seeded == direct._replace(seed=7, generator="python-random-mt19937")

    def test_deterministic_given_seed(self, default_ms, hcfg):
        a = chained_mac(42, 300, default_ms, hcfg)
        b = chained_mac(42, 300, default_ms, hcfg)
        assert a.as_dict() == b.as_dict()

    def test_normalization_frequency_guard(self, default_ms, hcfg):
        # Each window multiplier adds ~(b - 1.5) mantissa bits and every
        # normalization removes k, so the steady-state event rate is about
        # (b - 1.5)/k per multiplication; guard at one event per mul.
        report = chained_mac(3, 3000, default_ms, hcfg)
        assert report.norm_events < report.steps
        expected_rate = (hcfg.operand_bound_bits - 1.5) / hcfg.scale_shift_k
        assert report.norm_events == pytest.approx(report.steps * expected_rate, rel=0.15)

    def test_steps_validation(self, default_ms, hcfg):
        with pytest.raises(ValueError):
            chained_mac(1, 0, default_ms, hcfg)

    def test_drift_over_bound_raises_typed_error(self, default_ms):
        # alpha = 5/8192 passes validate_config, yet a chained product reaches
        # M/2: the op refuses it before the chain can drift.
        cfg = HybridConfig(alpha=Fraction(5, 8192), scale_shift_k=11, operand_bound_bits=12)
        validate_config(default_ms, cfg)
        with pytest.raises(WrapDetected) as exc:
            chained_mac(0, 3000, default_ms, cfg)
        assert str(exc.value) == REFUSALS["mul"].format(36)
        assert isinstance(exc.value, HrfnaError)

    def test_drift_past_its_bound_raises_and_exits_1(self, default_ms, hcfg, monkeypatch, capsys):
        # An error of 1 exceeds every chain's bound, so the raise and the CLI's
        # exit are pinned whatever the chain's own rounding does.
        monkeypatch.setattr(workloads, "relative_error", lambda approx, exact: Fraction(1))
        with pytest.raises(DriftBoundExceeded, match=r"^drift 1\.0 exceeds bound "):
            run_mac_chain(*mac_sequences(7, 50), default_ms, hcfg)
        monkeypatch.delenv("HRFNA_CONFIG", raising=False)
        assert main(["workload", "chained_mac", "--seed", "7", "--steps", "50"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: DriftBoundExceeded: drift 1.0 exceeds bound ")
        assert err.count("\n") == 1

    @pytest.mark.xfail(
        strict=True,
        raises=DriftBoundExceeded,
        reason="ROADMAP item 9: the drift bound has no term for shift-down rounding, so on"
        " this set the chain drifts 3.18e-4 against a bound of 2.15e-4",
    )
    def test_eleven_modulus_chain_stays_within_its_bound(self, hcfg):
        ms = ModulusSet(ELEVEN_PRIMES)
        validate_config(ms, hcfg)
        run_mac_chain(*mac_sequences(1, 300), ms, hcfg)

    def test_mismatched_sequences(self, default_ms, hcfg):
        with pytest.raises(LengthMismatch):
            run_mac_chain([1.0], [], default_ms, hcfg)

    def test_repr_of_a_long_chain_prints_floats(self, default_ms, hcfg):
        # The exact rel_error of 10^4 steps has a numerator far past int's
        # decimal digit limit; repr prints it, and the bound, as floats.
        report = chained_mac(0, 10**4, default_ms, hcfg)
        assert report.rel_error.numerator.bit_length() > 20_000
        text = repr(report)
        assert text.startswith("DriftReport(workload='chained_mac', seed=0, steps=10000, ")
        assert f"rel_error={float(report.rel_error)!r}, bound={float(report.bound)!r})" in text
        assert isinstance(report.rel_error, Fraction)

    def test_fold_and_oracles_reconstruct_nothing(self, default_ms, hcfg, monkeypatch):
        # Every value carries its mantissa n: the ops compute on it and both
        # oracles read it, so a workload runs no CRT at all.
        calls, crt = [], rns.crt_reconstruct

        def counted(rv, ms):
            calls.append(rv)
            return crt(rv, ms)

        monkeypatch.setattr(rns, "crt_reconstruct", counted)
        assert signed_value(encode_signed(-5, default_ms), default_ms) == -5
        assert len(calls) == 1  # the counter sees a reconstruction
        calls.clear()
        report = chained_mac(0, 2000, default_ms, hcfg)
        assert report.norm_events and report.strategy_counts[ALIGN_SHIFT_DOWN]
        dot_product(*mac_sequences(0, 2000), default_ms, hcfg)
        assert calls == []


class TestDotProduct:
    def test_single_pair_exact(self, default_ms, hcfg):
        acc, report = dot_product([1.0], [1.0], default_ms, hcfg)
        assert to_real(acc) == 1.0
        assert report.rel_error == 0

    def test_cancellation_is_exact(self, default_ms, hcfg):
        acc, report = dot_product([1.0, -1.0], [1.0, 1.0], default_ms, hcfg)
        assert acc.n == 0
        assert report.rel_error == 0

    def test_exact_zero_sum_typed_error(self, default_ms, hcfg):
        # The exact sum is 0 and the hybrid sum -2^-40: there is no relative error.
        with pytest.raises(ZeroDivisionError, match="absolute error") as exc:
            dot_product([1.0, 2**-40, -1.0, -2**-40], [1.0] * 4, default_ms, hcfg)
        assert isinstance(exc.value, ExactZero)
        assert isinstance(exc.value, HrfnaError)

    def test_random_vectors_respect_bound(self, default_ms, hcfg):
        import random

        rng = random.Random(12)
        xs = [rng.uniform(-1.0, 1.0) for _ in range(256)]
        ys = [rng.uniform(-1.0, 1.0) for _ in range(256)]
        acc, report = dot_product(xs, ys, default_ms, hcfg)
        assert report.rel_error <= report.bound
        assert report.bound == Fraction(256, 2 ** (hcfg.operand_bound_bits - 3))
        # Cross-check against a binary64 estimate: same ballpark.
        approx = sum(x * y for x, y in zip(xs, ys))
        assert to_real(acc) == pytest.approx(approx, abs=0.05)

    def test_length_mismatch(self, default_ms, hcfg):
        with pytest.raises(LengthMismatch):
            dot_product([1.0, 2.0], [1.0], default_ms, hcfg)
        with pytest.raises(LengthMismatch):
            dot_product([], [], default_ms, hcfg)


class TestPipelineEquivalence:
    def test_chain_identical_through_simulator(self, default_ms, hcfg, pcfg):
        # The same fold executed directly and through the timing model
        # produces bit-identical hybrid values, end to end.
        from hrfna import from_real, hrfna_add, hrfna_mul

        program = chained_mac_program(seed=5, n_steps=40)
        names, direct, _ = evaluate_program(program, default_ms, hcfg)
        sim = simulate(program, pcfg, hcfg, default_ms)
        assert sim.results == direct

        mults, addends = mac_sequences(5, 40)
        acc = from_real(1.0, default_ms, hcfg)
        for m, a in zip(mults, addends):
            acc = hrfna_mul(acc, from_real(m, default_ms, hcfg), default_ms, hcfg)
            acc = hrfna_add(acc, from_real(a, default_ms, hcfg), default_ms, hcfg)
        final = sim.results[-1]
        assert final == acc
        assert exact_value(final) == exact_value(acc)
        assert to_real(final) == to_real(acc)


class TestChainedMacProgram:
    def test_ops_equal_keyword_built_ops(self):
        mults, addends = mac_sequences(4, 25)
        want = [Op("lit", name="acc", value=1.0)]
        for i, (m, a) in enumerate(zip(mults, addends)):
            want += [Op("lit", name=f"m{i}", value=m), Op("lit", name=f"a{i}", value=a)]
        prev = "acc"
        for i in range(25):
            want += [Op("mul", args=(prev, f"m{i}")), Op("add", args=(f"t{2 * i}", f"a{i}"))]
            prev = f"t{2 * i + 1}"
        got = chained_mac_program(4, 25)
        assert got == want
        for op, ref in zip(got, want):
            assert type(op) is Op
            assert (op.kind, op.args, op.name, op.value) == (ref.kind, ref.args, ref.name, ref.value)
            assert type(op.args) is tuple

    def test_empty_chain_is_the_start_literal(self):
        assert chained_mac_program(0, 0) == [Op("lit", name="acc", value=1.0)]


class TestMacSequences:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    @pytest.mark.parametrize("length", [0, 1, 2000, 10_000])
    def test_same_streams_as_uniform(self, seed, length):
        rng = random.Random(seed)
        mults = [rng.uniform(0.5, 2.0) for _ in range(length)]
        addends = [rng.uniform(-1.0, 1.0) for _ in range(length)]
        assert mac_sequences(seed, length) == (mults, addends)


def sequential_chain(start, steps):
    """The step-by-step fold x -> m*x + a over (numerator, shift) pairs."""
    n, f = start
    for (m, s), (a, t) in steps:
        n, f, low = n * m, f + s, min(f + s, t)  # x * m
        n, f = (n << (f - low)) + (a << (t - low)), low  # + a
    return n, f


pairs = st.tuples(st.integers(-(2**40), 2**40) | st.just(0), st.integers(-70, 70))


def far_below(n):
    """n steps whose addend shifts lie far below the running shift of the fold."""
    return [((2 * i + 3, 5), (-(7 * i + 1), -70 + i % 3)) for i in range(n)]


class TestExactOracle:
    @given(pairs, st.lists(st.tuples(pairs, pairs), max_size=300))
    @settings(max_examples=examples(200), deadline=None)
    # Lengths at the edges of _chain_exact's runs of _RUN maps, the start map first.
    @example((5, 40), far_below(0))
    @example((5, 40), far_below(1))
    @example((5, 40), far_below(_RUN - 1))
    @example((5, 40), far_below(_RUN))
    @example((5, 40), far_below(_RUN + 1))
    @example((5, 40), far_below(2 * _RUN - 1))
    @example((5, 40), far_below(2 * _RUN))
    @example((5, 40), far_below(2 * _RUN + 1))
    def test_tree_equals_sequential_fold(self, start, steps):
        flat = [n for (m, s), (a, t) in steps for n in (m, s, a, t)]
        assert _chain_exact(start, flat) == sequential_chain(start, steps)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_chain_rel_error_against_fraction_fold(self, default_ms, hcfg, seed):
        # The hybrid chain and its exact value rebuilt with Fractions, one step at a time.
        mults, addends = mac_sequences(seed, 400)
        acc = from_real(1.0, default_ms, hcfg)
        exact = exact_value(acc)
        for m, a in zip(mults, addends):
            hm, ha = from_real(m, default_ms, hcfg), from_real(a, default_ms, hcfg)
            acc = hrfna_add(hrfna_mul(acc, hm, default_ms, hcfg), ha, default_ms, hcfg)
            exact = exact * exact_value(hm) + exact_value(ha)
        report = run_mac_chain(mults, addends, default_ms, hcfg)
        assert report.rel_error == abs(exact_value(acc) - exact) / abs(exact)
        assert report.rel_error > 0

    def test_empty_chain(self, default_ms, hcfg):
        assert run_mac_chain([], [], default_ms, hcfg).rel_error == 0


def pair_value(p):
    return Fraction(p[0]) * Fraction(2) ** p[1]


class TestRelativeError:
    @given(pairs, pairs)
    @settings(max_examples=500, deadline=None)
    def test_same_fraction_as_quotient_of_fractions(self, approx, exact):
        if exact[0] == 0:
            if pair_value(approx) == 0:
                assert relative_error(approx, exact) == Fraction(0)
            else:
                with pytest.raises(ZeroDivisionError):
                    relative_error(approx, exact)
            return
        expected = abs(pair_value(approx) - pair_value(exact)) / abs(pair_value(exact))
        got = relative_error(approx, exact)
        assert isinstance(got, Fraction)
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    def test_edge_cases(self):
        assert relative_error((0, 5), (0, -3)) == Fraction(0)
        assert relative_error((6, -1), (3, 0)) == Fraction(0)
        assert relative_error((5, 0), (4, 0)) == Fraction(1, 4)
        assert relative_error((-3, 2), (3, 2)) == Fraction(2)
        with pytest.raises(ZeroDivisionError):
            relative_error((1, -9), (0, 4))
