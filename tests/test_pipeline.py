"""Timing model: latency, initiation interval, stalls, value/timing separation."""

import gc
import hashlib
import pickle
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrfna import (
    DEFAULT_CONFIG,
    DEFAULT_MODULI,
    DEFAULT_PIPELINE,
    Fsm,
    HybridConfig,
    IncompleteTrace,
    InvalidProgram,
    ModulusSet,
    Op,
    PipelineConfig,
    SimState,
    Trace,
    TraceEvent,
    metrics_report,
    scheduler_step,
    simulate,
    validate_config,
)
from hrfna.formats import metrics_json, trace_csv, vectors_text
from hrfna.pipeline import evaluate_program
from hrfna.workloads import chained_mac_program
from support import ELEVEN_PRIMES, TWO_CHANNEL


# k = 6 < b - 1 = 11: inside tau * 2^(b-1) < M on the default set, a survivor
# times a fresh operand can still need two shifts, so one op runs two windows.
NARROW_SHIFT_CFG = HybridConfig(Fraction(3, 8192), 6, 12)


def issue_cycles(trace):
    return {e.op: e.cycle for e in trace if e.unit == "scheduler" and e.action == "issue"}


def retire_cycles(trace):
    return {e.op: e.cycle for e in trace if e.unit == "scheduler" and e.action == "retire"}


# Scheduler-state oracles: what a SimState implies about the pipe, derived
# from its fields and the pipe's depth (the op in stage s is ticks - 1 - s).
def initial_state(op_norms):
    return SimState(0, Fsm.IDLE, 0, tuple(op_norms))


def at(state, stage):
    """Index of the issued op sitting in stage, or None for a bubble."""
    op = state.ticks - 1 - stage
    return op if 0 <= op < len(state.norms) else None


def occupancy(state, cfg):
    return tuple(at(state, s) for s in range(cfg.total_stages))


def next_issue(state):
    return min(state.ticks, len(state.norms))


def stall_asserted(state):
    return state.fsm is Fsm.NORMALIZE


def mul_stream(n, value=1.5):
    return [Op("lit", name="a", value=value)] + [Op("mul", args=("a", "a")) for _ in range(n)]


def tau_crossing_program(extra_muls=0):
    # t0 = a*a stays small; t1 = t0*a crosses the threshold.
    ops = [Op("lit", name="a", value=1.9), Op("mul", args=("a", "a")), Op("mul", args=("t0", "a"))]
    ops += [Op("mul", args=("a", "a")) for _ in range(extra_muls)]
    return ops


class TestPipelineConfig:
    def test_defaults_match_stage_budget(self, pcfg):
        assert [f.name for f in fields(PipelineConfig)] == [
            "detect_stage", "post_stages", "norm_latency"]
        assert (pcfg.detect_stage, pcfg.post_stages, pcfg.norm_latency) == (7, 3, 6)
        assert pcfg.total_stages == 10

    def test_stage_validation(self):
        with pytest.raises(ValueError, match="stage-depths"):
            PipelineConfig(detect_stage=0)
        with pytest.raises(ValueError, match="stage-depths"):
            PipelineConfig(norm_latency=0)
        # The latency is the stage sum: no budget field to disagree with it.
        assert PipelineConfig(detect_stage=8).total_stages == 11

    @pytest.mark.parametrize(
        "depths",
        [
            dict(detect_stage=7.0),
            dict(detect_stage=True),
            dict(norm_latency="6"),
            dict(norm_latency=0.5),  # out of range too: the type is checked first
            dict(post_stages=3.0),
        ],
    )
    def test_stage_types(self, depths):
        with pytest.raises(ValueError, match="stage-depths: .* is not an int"):
            PipelineConfig(**depths)


class TestLatency:
    def test_single_mul_retires_at_cycle_10(self, pcfg, hcfg, default_ms):
        sim = simulate(mul_stream(1), pcfg, hcfg, default_ms)
        assert issue_cycles(sim.trace) == {"t0": 0}
        assert retire_cycles(sim.trace) == {"t0": 10}
        assert sim.metrics.latency_p50 == 10.0
        assert sim.metrics.norm_events == 0

    def test_thousand_muls_ii_one(self, pcfg, hcfg, default_ms):
        sim = simulate(mul_stream(1000), pcfg, hcfg, default_ms)
        retires = retire_cycles(sim.trace)
        assert max(retires.values()) == 1009
        assert sim.metrics.achieved_ii == 1.0
        assert sim.metrics.stall_cycles == 0
        # One result leaves per cycle once the pipe fills.
        cycles = sorted(retires.values())
        assert cycles == list(range(10, 1010))

    def test_normalization_window_and_stall(self, pcfg, hcfg, default_ms):
        sim = simulate(tau_crossing_program(extra_muls=1), pcfg, hcfg, default_ms)
        begins = [e for e in sim.trace if e.action == "norm-begin"]
        ends = [e for e in sim.trace if e.action == "norm-end"]
        assert len(begins) == len(ends) == 1
        assert ends[0].cycle - begins[0].cycle == 6
        assert begins[0].op == "t1"
        stalls = [e.cycle for e in sim.trace if e.action == "stall"]
        assert stalls == list(range(begins[0].cycle, ends[0].cycle))
        # Downstream op delayed by exactly the normalization latency.
        retires = retire_cycles(sim.trace)
        assert retires["t2"] == 2 + 10 + 6
        assert sim.metrics.stall_cycles == 6
        assert sim.metrics.norm_events == 1

    def test_stall_containment_multiple_events(self, pcfg, hcfg, default_ms):
        # Two separate threshold crossings: 12 total stall cycles.
        ops = [Op("lit", name="a", value=1.9)]
        ops += [Op("mul", args=("a", "a")), Op("mul", args=("t0", "a"))]
        ops += [Op("mul", args=("a", "a")), Op("mul", args=("t2", "a"))]
        sim = simulate(ops, pcfg, hcfg, default_ms)
        assert sim.metrics.norm_events == 2
        assert sim.metrics.stall_cycles == 12

    def test_back_to_back_windows_single_op(self, pcfg, default_ms):
        # t0 * a (a survivor times a fresh operand) needs two shifts of k = 6;
        # the scheduler runs consecutive windows and the stall total stays 6
        # per event. Values still match direct evaluation.
        ops = [Op("lit", name="a", value=1.006), Op("mul", args=("a", "a")), Op("mul", args=("t0", "a"))]
        names, direct, norms = evaluate_program(ops, default_ms, NARROW_SHIFT_CFG)
        assert norms == (0, 2)
        sim = simulate(ops, pcfg, NARROW_SHIFT_CFG, default_ms)
        assert sim.results == direct
        assert sim.metrics.norm_events == 2
        assert sim.metrics.stall_cycles == 12
        begins = [e for e in sim.trace if e.action == "norm-begin"]
        ends = [e for e in sim.trace if e.action == "norm-end"]
        assert len(begins) == len(ends) == 2
        for b, e in zip(begins, ends):
            assert e.cycle - b.cycle == 6
        # Second window opens the cycle the first closes.
        assert begins[1].cycle == ends[0].cycle

    def test_empty_pipeline_stays_idle(self, pcfg, hcfg, default_ms):
        sim = simulate([Op("lit", name="a", value=1.0)], pcfg, hcfg, default_ms)
        assert sim.trace.fields == ()
        assert sim.metrics.as_dict() == {
            "latency_p50": 0.0,
            "latency_max": 0,
            "achieved_ii": 0.0,
            "stall_cycles": 0,
            "norm_events": 0,
        }


class TestSchedulerFsm:
    def test_idle_to_execute_on_first_issue(self, pcfg):
        state = initial_state((0,))
        assert state.fsm is Fsm.IDLE
        nxt = scheduler_step(state, pcfg)
        assert nxt.fsm is Fsm.EXECUTE
        assert occupancy(nxt, pcfg)[0] == 0

    def test_idle_persists_without_issues(self, pcfg):
        state = initial_state(())
        for _ in range(5):
            state = scheduler_step(state, pcfg)
            assert state.fsm is Fsm.IDLE
            assert not any(occupancy(state, pcfg))

    def test_normalize_to_resume_after_six_cycles(self, pcfg):
        state = initial_state((1,))
        entered = None
        for _ in range(40):
            state = scheduler_step(state, pcfg)
            if state.fsm is Fsm.NORMALIZE and entered is None:
                entered = state.cycle
            if entered is not None and state.fsm is Fsm.RESUME:
                assert state.cycle == entered + 6
                break
        else:
            pytest.fail("scheduler never reached Resume")

    def test_resume_to_execute_next_cycle(self, pcfg):
        state = initial_state((1,))
        for _ in range(40):
            prev = state
            state = scheduler_step(state, pcfg)
            if prev.fsm is Fsm.RESUME:
                assert state.fsm is Fsm.EXECUTE
                break

    def test_stall_asserted_only_in_normalize(self, pcfg):
        """simulate stamps one stall event on each cycle whose state is Normalize, and no other.

        The narrow config has back-to-back windows: Normalize runs of up to
        four of them.
        """
        ms = ModulusSet(DEFAULT_MODULI)
        for hcfg in (DEFAULT_CONFIG, TestExportPins.NARROW):
            validate_config(ms, hcfg)
            sim = simulate(chained_mac_program(0, 300), pcfg, hcfg, ms)
            stalls = [e.cycle for e in sim.trace if (e.unit, e.action) == ("scheduler", "stall")]
            state, asserted = initial_state([v.norm_events for v in sim.results]), []
            while state.cycle <= sim.trace[-1].cycle:
                if stall_asserted(state):
                    asserted.append(state.cycle)
                state = scheduler_step(state, pcfg)
            assert stalls == asserted
            assert len(asserted) == sim.metrics.stall_cycles > 0


class TestClosedForm:
    """In advancing-tick time the pipe is a shift register.

    With S = norm_latency, L = total_stages and P(t) the summed
    normalization counts of ops i with i + detect_stage < t, op j issues
    at cycle j + S*P(j) and retires at cycle j + L + S*P(j + L).
    """

    CONFIGS = (
        DEFAULT_PIPELINE,
        PipelineConfig(detect_stage=8, post_stages=2),
        PipelineConfig(norm_latency=1),
        PipelineConfig(detect_stage=1, post_stages=1),
    )

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.sampled_from(CONFIGS))
    @settings(max_examples=300, deadline=None)
    def test_scheduler_matches_closed_form(self, norms, cfg):
        S, L, D = cfg.norm_latency, cfg.total_stages, cfg.detect_stage

        def P(t):
            return sum(c for i, c in enumerate(norms) if i + D < t)

        issue, retire = {}, {}
        state = initial_state(norms)
        # The last op retires at cycle n - 1 + L + S*sum(norms), the last one run.
        for _ in range(len(norms) + L + S * sum(norms)):
            nxt = scheduler_step(state, cfg)
            if state.fsm is not Fsm.NORMALIZE:
                if next_issue(nxt) > next_issue(state):
                    issue[next_issue(state)] = state.cycle
                if occupancy(state, cfg)[-1] is not None:
                    retire[occupancy(state, cfg)[-1]] = state.cycle
            state = nxt
        assert issue == {j: j + S * P(j) for j in range(len(norms))}
        assert retire == {j: j + L + S * P(j + L) for j in range(len(norms))}


class TestRetirementAlignment:
    def test_residue_and_exponent_retire_together(self, pcfg, hcfg, default_ms):
        sim = simulate(tau_crossing_program(extra_muls=3), pcfg, hcfg, default_ms)
        lane = {}
        expo = {}
        for e in sim.trace:
            if e.action != "retire":
                continue
            if e.unit.startswith("lane"):
                lane.setdefault(e.op, set()).add(e.cycle)
            elif e.unit == "exponent":
                expo[e.op] = e.cycle
        assert set(lane) == set(expo)
        for op, cycles in lane.items():
            assert cycles == {expo[op]}, f"misaligned retire for {op}"

    def test_alignment_on_skewed_config(self, hcfg, default_ms):
        cfg = PipelineConfig(detect_stage=8, post_stages=2)
        sim = simulate(mul_stream(20), cfg, hcfg, default_ms)
        # No op normalizes, so op i enters the detect stage on cycle i + detect_stage.
        lane = {e.op: e.cycle for e in sim.trace if e.unit == "lane0" and e.action == "retire"}
        assert lane == {f"t{i}": i + 8 for i in range(20)}


class TestValueTimingSeparation:
    @staticmethod
    def random_program(rng, n_ops):
        ops = [
            Op("lit", name="x0", value=rng.uniform(-2.0, 2.0)),
            Op("lit", name="x1", value=rng.uniform(0.5, 2.0)),
            Op("lit", name="x2", value=rng.uniform(-4.0, 4.0)),
        ]
        defined = ["x0", "x1", "x2"]
        for i in range(n_ops):
            kind = rng.choice(("mul", "add"))
            if kind == "mul":
                # Keep one freshly encoded operand per product (design envelope).
                ops.append(Op("mul", args=(rng.choice(defined), rng.choice(["x0", "x1", "x2"]))))
            else:
                ops.append(Op("add", args=(rng.choice(defined), rng.choice(defined))))
            defined.append(f"t{i}")
        return ops

    def test_results_match_direct_evaluation(self, pcfg, hcfg, default_ms):
        rng = random.Random(23)
        for _ in range(25):
            program = self.random_program(rng, rng.randrange(3, 25))
            names, direct, _ = evaluate_program(program, default_ms, hcfg)
            sim = simulate(program, pcfg, hcfg, default_ms)
            assert sim.results == direct
            for got, want in zip(sim.results, direct):
                assert got.mantissa.residues == want.mantissa.residues
                assert got.exponent == want.exponent

    def test_deterministic_trace(self, pcfg, hcfg, default_ms):
        program = self.random_program(random.Random(7), 15)
        a = simulate(program, pcfg, hcfg, default_ms)
        b = simulate(program, pcfg, hcfg, default_ms)
        assert a.trace.fields == b.trace.fields
        assert a.metrics == b.metrics

    def test_trace_rows_leave_the_collector(self, pcfg, hcfg, default_ms):
        sim = simulate(self.random_program(random.Random(7), 15), pcfg, hcfg, default_ms)
        check_record_view(sim)


def event_fields(events):
    """The flat fields of events, as their trace CSV rows print them ('' for None)."""
    return tuple(
        str(f) for e in events for f in (e.cycle, e.unit, e.action, e.op or "", e.value or "")
    )


def check_record_view(sim):
    """sim.trace stores only untracked strs and reads back as TraceEvents, losslessly."""
    trace, fields = sim.trace, sim.trace.fields
    # No gc.collect() first: a str is never tracked, whenever it was made.
    assert type(fields) is tuple and len(fields) == 5 * len(trace)
    assert all(type(f) is str for f in fields)
    assert not any(map(gc.is_tracked, fields))
    events = list(trace)
    assert all(type(e) is TraceEvent and type(e.cycle) is int for e in events)
    assert all(e.op != "" and e.value != "" for e in events)  # '' reads back as None
    rebuilt = Trace(event_fields(events))
    assert rebuilt.fields == fields and rebuilt == trace
    assert Trace(fields).fields is fields  # a tuple is stored as given, not copied
    assert Trace(list(fields)).fields == fields
    assert trace_csv(rebuilt) == trace_csv(trace)
    assert metrics_report(rebuilt) == sim.metrics
    again = pickle.loads(pickle.dumps(trace))
    assert type(again) is Trace and again == trace and again.fields == fields
    for i in (0, 1, len(trace) // 2, -2, -1):
        assert type(trace[i]) is TraceEvent and trace[i] == events[i]
    for i in (len(trace), -len(trace) - 1):
        with pytest.raises(IndexError):
            trace[i]


class TestProgramValidation:
    def test_undefined_operand(self, pcfg, hcfg, default_ms):
        with pytest.raises(InvalidProgram):
            simulate([Op("mul", args=("nope", "nope"))], pcfg, hcfg, default_ms)

    def test_duplicate_name(self, pcfg, hcfg, default_ms):
        ops = [Op("lit", name="a", value=1.0), Op("lit", name="a", value=2.0)]
        with pytest.raises(InvalidProgram):
            simulate(ops, pcfg, hcfg, default_ms)

    def test_unknown_kind(self, pcfg, hcfg, default_ms):
        with pytest.raises(InvalidProgram):
            simulate([Op("div", args=("a", "a"))], pcfg, hcfg, default_ms)

    def test_unnamed_literal(self, hcfg, default_ms):
        with pytest.raises(InvalidProgram, match="literal without a name"):
            evaluate_program([Op("lit", value=1.0)], default_ms, hcfg)

    def test_issued_op_redefines_a_name(self, hcfg, default_ms):
        for kind in ("mul", "add"):
            ops = [Op("lit", name="a", value=1.0), Op(kind, args=("a", "a"), name="a")]
            with pytest.raises(InvalidProgram, match="'a' defined twice"):
                evaluate_program(ops, default_ms, hcfg)

    def test_wrong_operand_count(self, hcfg, default_ms):
        for kind in ("mul", "add"):
            for args in ((), ("a",), ("a", "a", "a")):
                ops = [Op("lit", name="a", value=1.5), Op(kind, args=args)]
                message = f"^{kind} takes 2 operands, got {len(args)}$"
                with pytest.raises(InvalidProgram, match=message):
                    evaluate_program(ops, default_ms, hcfg)


class TestMetricsReport:
    def test_metrics_formula_with_one_normalization(self, pcfg, hcfg, default_ms):
        # 100-op stream, one normalization: stalls 6, II = (100 + 6)/100.
        ops = tau_crossing_program(extra_muls=98)
        sim = simulate(ops, pcfg, hcfg, default_ms)
        assert len(sim.results) == 100
        assert sim.metrics.stall_cycles == 6
        assert sim.metrics.achieved_ii == pytest.approx((100 * 1 + 6) / 100)

    def test_empty_trace_all_zero(self):
        m = metrics_report(Trace(event_fields(())))
        assert m.as_dict() == {
            "latency_p50": 0.0,
            "latency_max": 0,
            "achieved_ii": 0.0,
            "stall_cycles": 0,
            "norm_events": 0,
        }

    def test_empty_trace_exports_the_header_alone(self, pcfg, hcfg, default_ms):
        # A lit-only program issues nothing: its trace CSV is the two header lines.
        sim = simulate([Op("lit", name="a", value=1.0)], pcfg, hcfg, default_ms)
        header = "# hrfna-trace v1\ncycle,unit,action,op_id,value_hex\n"
        empty = Trace(event_fields(()))
        assert empty == Trace() and empty.fields == ()
        assert trace_csv(sim.trace) == trace_csv(empty) == trace_csv(Trace()) == header
        assert metrics_report(sim.trace) == metrics_report(empty) == sim.metrics

    def test_incomplete_trace_rejected(self):
        trace = Trace(event_fields([TraceEvent(0, "scheduler", "issue", "t0")]))
        assert trace.fields == ("0", "scheduler", "issue", "t0", "")
        with pytest.raises(IncompleteTrace):
            metrics_report(trace)

    def test_deterministic_over_trace(self, pcfg, hcfg, default_ms):
        sim = simulate(mul_stream(50), pcfg, hcfg, default_ms)
        assert metrics_report(sim.trace) == metrics_report(sim.trace) == sim.metrics


def trace_order_key(event):
    rank = {"scheduler": 0, "norm": 1, "exponent": 2}.get(event.unit, 3)
    return (event.cycle, rank, event.unit, event.action)


class TestTraceOrder:
    """simulate emits its events already in trace order: by cycle, then
    scheduler, norm, exponent and the lanes (by name), then action."""

    CASES = (
        (DEFAULT_MODULI, DEFAULT_CONFIG),
        (DEFAULT_MODULI, NARROW_SHIFT_CFG),
        TWO_CHANNEL,
        (ELEVEN_PRIMES, DEFAULT_CONFIG),
    )

    @staticmethod
    def program(seed, products):
        # The value/timing-separation shape, plus products of temporaries by
        # a fresh operand, inside the envelope: under NARROW_SHIFT_CFG one
        # can need back-to-back normalization windows.
        rng = random.Random(seed)
        n_ops = rng.randrange(3, 30)
        ops = TestValueTimingSeparation().random_program(rng, n_ops)
        for i in range(products):
            t = f"t{rng.randrange(n_ops)}"
            ops.append(Op("mul", args=(t, "x1"), name=f"s{i}"))
        return ops

    @given(
        st.integers(0, 2**32),
        st.integers(0, 3),
        st.sampled_from(CASES),
        st.sampled_from(TestClosedForm.CONFIGS),
    )
    @settings(max_examples=150, deadline=None)
    def test_trace_is_emitted_sorted(self, seed, products, case, pcfg):
        moduli, hcfg = case
        ms = ModulusSet(moduli)
        validate_config(ms, hcfg)
        sim = simulate(self.program(seed, products), pcfg, hcfg, ms)
        assert list(sim.trace) == sorted(sim.trace, key=trace_order_key)

    def test_programs_reach_back_to_back_windows(self, default_ms):
        # Under NARROW_SHIFT_CFG each of these programs has an op with two passes.
        for seed in range(20):
            _, _, norms = evaluate_program(self.program(seed, 3), default_ms, NARROW_SHIFT_CFG)
            assert max(norms) == 2

    def test_lane_names_sort_as_strings(self, hcfg):
        ms = ModulusSet(ELEVEN_PRIMES)
        validate_config(ms, hcfg)
        sim = simulate(mul_stream(1), DEFAULT_PIPELINE, hcfg, ms)
        units = [e.unit for e in sim.trace if e.action == "retire" and e.unit != "scheduler"]
        assert units == ["exponent"] + sorted(f"lane{i}" for i in range(11))
        assert units.index("lane10") < units.index("lane2")

    def test_back_to_back_windows_share_a_cycle(self, default_ms):
        ops = [Op("lit", name="a", value=1.006), Op("mul", args=("a", "a")), Op("mul", args=("t0", "a"))]
        cfg = PipelineConfig(norm_latency=1)
        sim = simulate(ops, cfg, NARROW_SHIFT_CFG, default_ms)
        begins = [e.cycle for e in sim.trace if e.action == "norm-begin"]
        ends = [e.cycle for e in sim.trace if e.action == "norm-end"]
        assert begins[1] == ends[0]
        at = [(e.unit, e.action) for e in sim.trace if e.cycle == ends[0]]
        assert at == [("scheduler", "stall"), ("norm", "norm-begin"), ("norm", "norm-end")]
        assert list(sim.trace) == sorted(sim.trace, key=trace_order_key)


def reference_step(state, cfg):
    """The scheduler transition written plainly: SimState(...) and at(state, stage)."""
    cycle, fsm, ticks, norms, remaining = state
    if fsm is Fsm.NORMALIZE:
        if remaining > 1:
            return SimState(cycle + 1, fsm, ticks, norms, remaining - 1)
        return SimState(cycle + 1, Fsm.RESUME, ticks, norms)
    entered = at(state, cfg.detect_stage - 1)
    if entered is not None and norms[entered] > 0:
        stall = norms[entered] * cfg.norm_latency
        return SimState(cycle + 1, Fsm.NORMALIZE, ticks + 1, norms, stall)
    if fsm is not Fsm.IDLE or ticks < len(norms):
        fsm = Fsm.EXECUTE
    return SimState(cycle + 1, fsm, ticks + 1, norms)


class TestSchedulerReference:
    @given(st.lists(st.integers(0, 4), max_size=40), st.sampled_from(TestClosedForm.CONFIGS))
    @settings(max_examples=300, deadline=None)
    def test_step_matches_reference_state_for_state(self, norms, cfg):
        state = initial_state(norms)
        # simulate's loop bound: the last op leaves the pipe on this tick.
        while state.ticks <= len(norms) + cfg.total_stages - 1:
            got, want = scheduler_step(state, cfg), reference_step(state, cfg)
            assert type(got) is SimState
            assert tuple(got) == tuple(want)
            assert got.fsm is want.fsm
            assert (occupancy(got, cfg), next_issue(got), stall_asserted(got)) == (
                occupancy(want, cfg), next_issue(want), stall_asserted(want))
            state = got


class TestExportPins:
    """sha256 of trace_csv and metrics_json for chained_mac_program(0, 300).

    Pinned byte for byte: any change to the event order, the value_hex
    format or the metrics breaks them.
    """

    ONE_CYCLE = PipelineConfig(norm_latency=1)
    TEN_CYCLE = PipelineConfig(norm_latency=10)
    SKEWED = PipelineConfig(detect_stage=8, post_stages=2)
    DEEP_INPUT = PipelineConfig(detect_stage=12, post_stages=4)
    # In the envelope, with back-to-back windows of up to 4 normalizations per op.
    NARROW = HybridConfig(alpha=Fraction(3, 8192), scale_shift_k=3, operand_bound_bits=12)
    DEFAULT_JSON = "706abaeef05c6a3444209ecdb2053fd1f969f2648f01b0027850aca0611468d0"
    CASES = {
        "default": (
            DEFAULT_MODULI, DEFAULT_CONFIG, DEFAULT_PIPELINE, 6514,
            "f5251300df8252f213704228ba56408e48e3a9d16b69dc48ac845cea28361ca2", DEFAULT_JSON),
        "one-cycle-engine": (
            DEFAULT_MODULI, DEFAULT_CONFIG, ONE_CYCLE, 5074,
            "a47a20a2f0951214d4637c2394a521b0f73cdc16a8d5de637d75fe8191fbcbb9",
            "10fcac9532e48b1995a3e9cec1b706d8dbf173da3649cdcf48bea65d56279fef"),
        "ten-cycle-engine": (
            DEFAULT_MODULI, DEFAULT_CONFIG, TEN_CYCLE, 7666,
            "8f682874d3c60b2912d7dde7f70e1befaf5a48980eed3569279ab790540d7220",
            "e7427ad34223a6e5cc0bb669d2b77eaf2e4b93b05e0028a081e1dd39abe4023d"),
        "skewed": (
            DEFAULT_MODULI, DEFAULT_CONFIG, SKEWED, 6514,
            "46b2ff09c16985159fc89aba0b387805601157a9a6c22761172fe91ce39a2a2b", DEFAULT_JSON),
        "deep-input": (
            DEFAULT_MODULI, DEFAULT_CONFIG, DEEP_INPUT, 6520,
            "0c9e87e825ea907b02af6d5b374c3581746d231e97b41fd69f71e9d2afd024ad",
            "baf34ce2cf1ef648dfd170c0e33a3e734ecf1d007e7005ddc76c06b01e00f4fb"),
        "small-primes": (
            ELEVEN_PRIMES, DEFAULT_CONFIG, DEFAULT_PIPELINE, 11314,
            "47c10c1b32b5b5ab8e806feb7df84053ba85c988b3884e6de4c79411c2b93b75", DEFAULT_JSON),
        "narrow": (
            DEFAULT_MODULI, NARROW, DEFAULT_PIPELINE, 12626,
            "b87774b3d6baf0006ae925380c9289a1339c4d1ed736f3d3a9007bfd87c3333a",
            "7a9266160b4968944b27fc5faac7fe51b6fa20d77db67a21bb7789c33b88007f"),
        "narrow-one-cycle-engine": (
            DEFAULT_MODULI, NARROW, ONE_CYCLE, 7366,
            "08110fb6b82ec3cb164efb3f543914206d82ff5510a3e29937d6b820f583abc2",
            "adfbea21893e03d1a5f8366e939c8ecf83b27c4c539bd58e775462935ff065c3"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exports_match_pinned_bytes(self, case):
        moduli, hcfg, pcfg, events, csv_sha, json_sha = self.CASES[case]
        ms = ModulusSet(moduli)
        validate_config(ms, hcfg)
        sim = simulate(chained_mac_program(0, 300), pcfg, hcfg, ms)
        assert len(sim.trace) == events
        assert hashlib.sha256(trace_csv(sim.trace).encode()).hexdigest() == csv_sha
        assert hashlib.sha256(metrics_json(sim.metrics).encode()).hexdigest() == json_sha

    # sha256 of vectors_text on the same program: the norm-flag column among the rest.
    VECTORS = {
        "default": (DEFAULT_CONFIG, 288,
                    "92d3ec9df6f8a64ac50455baa718a2243daef1a45046f0b8809efe806f84848b"),
        "narrow": (NARROW, 299, "5782feb230b0fd81f7577209e6842de765f57fd2507574b55db195a9b9755888"),
    }

    @pytest.mark.parametrize("case", sorted(VECTORS))
    def test_vectors_match_pinned_bytes(self, case):
        hcfg, flagged, sha = self.VECTORS[case]
        text = vectors_text(chained_mac_program(0, 300), ModulusSet(DEFAULT_MODULI), hcfg)
        assert sum(line.endswith(" 1") for line in text.splitlines()) == flagged
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    def test_narrow_config_runs_back_to_back_windows(self):
        ms = ModulusSet(DEFAULT_MODULI)
        _, _, norms = evaluate_program(chained_mac_program(0, 300), ms, self.NARROW)
        assert max(norms) == 4


class TestTraceRecords:
    """The record view of a trace is lossless on random programs and on every export pin."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_round_trip(self, seed, pcfg, hcfg, default_ms):
        rng = random.Random(seed)
        program = TestValueTimingSeparation.random_program(rng, rng.randrange(1, 40))
        check_record_view(simulate(program, pcfg, hcfg, default_ms))

    @pytest.mark.parametrize("case", sorted(TestExportPins.CASES))
    def test_export_pin_configs_round_trip(self, case):
        moduli, hcfg, pcfg, events, _, _ = TestExportPins.CASES[case]
        ms = ModulusSet(moduli)
        validate_config(ms, hcfg)
        sim = simulate(chained_mac_program(0, 300), pcfg, hcfg, ms)
        assert len(sim.trace) == events
        check_record_view(sim)
