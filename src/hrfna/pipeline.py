"""Cycle-accurate model of the arithmetic pipeline and its scheduler.

The datapath is a linear pipe: input registration stages, one residue
stage column per cycle (all lanes advance together), then post stages
(threshold detect, merge, output register). The exponent pipeline is one
stage shorter than the residue pipeline and starts align_offset_d cycles
late, so both paths retire in the same cycle. A four-state scheduler FSM
(Idle, Execute, Normalize, Resume) freezes every stage and blocks issue
while the normalization engine runs; each normalization event costs
norm_engine_stages * cycles_per_norm_stage stall cycles.

Values are computed by the hybrid arithmetic functions before any timing
is modeled, so the simulator can never alter results.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass, field, replace

from hrfna import arithmetic, hybrid, rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import HybridConfig, HybridNum
from hrfna.rns import ModulusSet


class InvalidProgram(HrfnaError):
    """Program references an undefined operand or redefines a name."""


class IncompleteTrace(HrfnaError):
    """A trace contains an issue without a matching retire."""


class Fsm(enum.Enum):
    IDLE = "Idle"
    EXECUTE = "Execute"
    NORMALIZE = "Normalize"
    RESUME = "Resume"


@dataclass(frozen=True)
class PipelineConfig:
    """Stage depths of the datapath; the defaults sum to the 10-cycle budget."""

    residue_stages: int = 5
    exponent_stages: int = 4
    norm_engine_stages: int = 3
    cycles_per_norm_stage: int = 2
    input_stages: int = 2
    post_stages: int = 3
    end_to_end_latency: int = 10

    def __post_init__(self):
        for name in (
            "residue_stages",
            "exponent_stages",
            "norm_engine_stages",
            "cycles_per_norm_stage",
            "input_stages",
            "post_stages",
        ):
            if getattr(self, name) < 1:
                raise ValueError("stage-depths")
        if self.input_stages + self.residue_stages + self.post_stages != self.end_to_end_latency:
            raise ValueError("latency-budget")

    @property
    def align_offset_d(self) -> int:
        """Recomputed, never stored: the exponent path starts this many cycles late."""
        return self.residue_stages - self.exponent_stages

    @property
    def norm_latency(self) -> int:
        return self.norm_engine_stages * self.cycles_per_norm_stage

    @property
    def total_stages(self) -> int:
        return self.input_stages + self.residue_stages + self.post_stages

    @property
    def detect_stage(self) -> int:
        """First post stage, where threshold detection fires."""
        return self.input_stages + self.residue_stages


DEFAULT_PIPELINE = PipelineConfig()


@dataclass(frozen=True)
class Op:
    """One program statement: lit defines a named literal, mul/add consume two names."""

    kind: str  # "lit" | "mul" | "add"
    args: tuple[str, ...] = ()
    name: str = ""
    value: float | None = None


@dataclass(frozen=True)
class TraceEvent:
    """Cycle-stamped record of unit activity; the waveform analogue."""

    cycle: int
    unit: str
    action: str  # issue | advance | retire | stall | norm-begin | norm-end
    op: str | None = None
    value: str | None = None


@dataclass(frozen=True)
class SimState:
    """Scheduler and occupancy snapshot at the start of a cycle.

    occupancy[s] holds the index of the issued op sitting in stage s.
    pending_norms tracks, per issued op, normalization events not yet
    timed; norm_remaining counts stall cycles left in the open window.
    """

    cycle: int
    fsm: Fsm
    occupancy: tuple
    stall_asserted: bool
    next_issue: int
    pending_norms: tuple
    norm_remaining: int = 0


def initial_state(op_norms, cfg: PipelineConfig) -> SimState:
    return SimState(
        cycle=0,
        fsm=Fsm.IDLE,
        occupancy=(None,) * cfg.total_stages,
        stall_asserted=False,
        next_issue=0,
        pending_norms=tuple(op_norms),
    )


def scheduler_step(state: SimState, cfg: PipelineConfig) -> SimState:
    """Advance the scheduler by one cycle (pure; returns the next state).

    Transitions: Idle->Execute on first issue; Execute->Normalize when the
    op entering the detect stage has a pending normalization;
    Normalize->Resume after norm_latency cycles (or straight into the next
    window for back-to-back events); Resume->Execute the following cycle.
    Nothing advances and nothing issues while the FSM is in Normalize.
    """
    if state.fsm is Fsm.NORMALIZE:
        remaining = state.norm_remaining - 1
        if remaining > 0:
            return replace(state, cycle=state.cycle + 1, norm_remaining=remaining)
        det = state.occupancy[cfg.detect_stage]
        if det is not None and state.pending_norms[det] > 0:
            pend = list(state.pending_norms)
            pend[det] -= 1
            return replace(
                state,
                cycle=state.cycle + 1,
                pending_norms=tuple(pend),
                norm_remaining=cfg.norm_latency,
            )
        return replace(
            state,
            cycle=state.cycle + 1,
            fsm=Fsm.RESUME,
            stall_asserted=False,
            norm_remaining=0,
        )

    # Advancing cycle: shift every stage, retire out of the last slot.
    occupancy = (None,) + state.occupancy[:-1]
    next_issue = state.next_issue
    issued = False
    if next_issue < len(state.pending_norms):
        occupancy = (next_issue,) + occupancy[1:]
        next_issue += 1
        issued = True

    pending = state.pending_norms
    det = occupancy[cfg.detect_stage]
    if det is not None and pending[det] > 0:
        pend = list(pending)
        pend[det] -= 1
        return SimState(
            cycle=state.cycle + 1,
            fsm=Fsm.NORMALIZE,
            occupancy=occupancy,
            stall_asserted=True,
            next_issue=next_issue,
            pending_norms=tuple(pend),
            norm_remaining=cfg.norm_latency,
        )

    if state.fsm is Fsm.IDLE and not issued:
        fsm = Fsm.IDLE
    else:
        fsm = Fsm.EXECUTE
    return SimState(
        cycle=state.cycle + 1,
        fsm=fsm,
        occupancy=occupancy,
        stall_asserted=False,
        next_issue=next_issue,
        pending_norms=pending,
    )


@dataclass(frozen=True)
class MetricsSummary:
    latency_p50: float
    latency_max: int
    achieved_ii: float
    stall_cycles: int
    norm_events: int
    latencies: tuple = field(default=(), repr=False)

    def as_dict(self) -> dict:
        return {
            "latency_p50": self.latency_p50,
            "latency_max": self.latency_max,
            "achieved_ii": self.achieved_ii,
            "stall_cycles": self.stall_cycles,
            "norm_events": self.norm_events,
        }


@dataclass(frozen=True)
class SimResult:
    results: tuple
    trace: tuple
    metrics: MetricsSummary
    names: tuple = ()


def evaluate_program(program, ms: ModulusSet, hcfg: HybridConfig):
    """Fold the program through the hybrid arithmetic in order.

    Returns (names, results, norm_counts) for the issued (mul/add) ops.
    Raises InvalidProgram for undefined references or duplicate names.
    """
    env: dict[str, HybridNum] = {}
    names, results, norms = [], [], []
    issue_idx = 0
    for op in program:
        if op.kind == "lit":
            if not op.name:
                raise InvalidProgram("literal without a name")
            if op.name in env:
                raise InvalidProgram(f"name {op.name!r} defined twice")
            env[op.name] = hybrid.from_real(op.value, ms, hcfg)
            continue
        if op.kind not in ("mul", "add"):
            raise InvalidProgram(f"unknown op kind {op.kind!r}")
        try:
            a, b = (env[arg] for arg in op.args)
        except KeyError as exc:
            raise InvalidProgram(f"undefined operand {exc.args[0]!r}") from None
        fn = arithmetic.hrfna_mul if op.kind == "mul" else arithmetic.hrfna_add
        result = fn(a, b, ms, hcfg)
        name = op.name or f"t{issue_idx}"
        if name in env:
            raise InvalidProgram(f"name {name!r} defined twice")
        env[name] = result
        names.append(name)
        results.append(result)
        norms.append(len(result.norm_events))
        issue_idx += 1
    return tuple(names), tuple(results), tuple(norms)


def simulate(program, cfg: PipelineConfig, hcfg: HybridConfig, ms: ModulusSet) -> SimResult:
    """Run the program through the timing model.

    Returns the per-op results (bit-identical to direct evaluation), the
    full trace from first issue to last retire, and the metrics summary.
    """
    names, results, norms = evaluate_program(program, ms, hcfg)
    events: list[TraceEvent] = []
    if not names:
        return SimResult((), (), metrics_report(()))

    state = initial_state(norms, cfg)
    retired = 0
    while retired < len(names) or state.fsm is Fsm.NORMALIZE:
        nxt = scheduler_step(state, cfg)
        cycle = state.cycle

        if state.fsm is Fsm.NORMALIZE:
            det = state.occupancy[cfg.detect_stage]
            op = names[det] if det is not None else None
            if state.norm_remaining == cfg.norm_latency:
                events.append(TraceEvent(cycle, "norm", "norm-begin", op))
            events.append(TraceEvent(cycle, "scheduler", "stall"))
            if nxt.fsm is not Fsm.NORMALIZE or nxt.norm_remaining == cfg.norm_latency:
                events.append(TraceEvent(cycle + 1, "norm", "norm-end", op))
            state = nxt
            continue

        events.append(TraceEvent(cycle, "scheduler", "advance"))
        if nxt.next_issue > state.next_issue:
            events.append(TraceEvent(cycle, "scheduler", "issue", names[state.next_issue]))
        entered = nxt.occupancy[cfg.detect_stage]
        if entered is not None and state.occupancy[cfg.detect_stage] != entered:
            for lane in range(len(ms.moduli)):
                events.append(TraceEvent(cycle, f"lane{lane}", "retire", names[entered]))
            events.append(TraceEvent(cycle, "exponent", "retire", names[entered]))
        leaving = state.occupancy[-1]
        if leaving is not None:
            value_hex = "".join(rns.format_residues(results[leaving].mantissa.residues, ms))
            events.append(TraceEvent(cycle, "scheduler", "retire", names[leaving], value_hex))
            retired += 1
        state = nxt

    unit_rank = {"scheduler": 0, "norm": 1, "exponent": 2}
    events.sort(key=lambda e: (e.cycle, unit_rank.get(e.unit, 3), e.unit, e.action))
    trace = tuple(events)
    return SimResult(results, trace, metrics_report(trace), names)


def metrics_report(trace) -> MetricsSummary:
    """Summarize a trace: latency stats, achieved II, stalls, normalizations.

    Deterministic over a given trace; raises IncompleteTrace when a
    scheduler issue has no matching retire.
    """
    issues: dict[str, int] = {}
    retires: dict[str, int] = {}
    stalls = 0
    norm_begins = 0
    for ev in trace:
        if ev.unit == "scheduler" and ev.action == "issue":
            issues[ev.op] = ev.cycle
        elif ev.unit == "scheduler" and ev.action == "retire":
            retires[ev.op] = ev.cycle
        elif ev.action == "stall":
            stalls += 1
        elif ev.action == "norm-begin":
            norm_begins += 1

    missing = set(issues) - set(retires)
    if missing:
        raise IncompleteTrace(f"no retire for issued ops: {sorted(missing)}")
    if not issues:
        return MetricsSummary(0.0, 0, 0.0, stalls, norm_begins)

    latencies = tuple(sorted(retires[op] - issues[op] for op in issues))
    span = max(issues.values()) - min(issues.values()) + 1
    return MetricsSummary(
        latency_p50=float(statistics.median(latencies)),
        latency_max=max(latencies),
        achieved_ii=span / len(issues),
        stall_cycles=stalls,
        norm_events=norm_begins,
        latencies=latencies,
    )
