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
is modeled, so the simulator can never alter results. simulate calls
scheduler_step once per cycle and metrics_report once on the trace, since
perfbench's tracer counts cycles and stalls from the one and events from
the other; a closed form that skips cycles must first decouple the tracer.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

from hrfna import arithmetic, hybrid
from hrfna.errors import HrfnaError, InvariantViolation
from hrfna.hybrid import HybridConfig, HybridNum
from hrfna.rns import ModulusSet, _new


class InvalidProgram(HrfnaError):
    """Program references an undefined operand or redefines a name."""


class IncompleteTrace(HrfnaError):
    """A trace contains an issue without a matching retire."""


class Fsm(enum.Enum):
    IDLE = "Idle"
    EXECUTE = "Execute"
    NORMALIZE = "Normalize"
    RESUME = "Resume"


# Fsm.X costs ten global loads (EnumType.__getattr__); the per-cycle code reads these.
IDLE, EXECUTE, NORMALIZE, RESUME = Fsm

MAX_STAGE_DEPTH = 32  # policy bound: the trace grows linearly with every depth


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
        for f in fields(self):  # every stage depth and the budget, before any range
            value = getattr(self, f.name)
            if type(value) is not int:  # so also a bool or an integral float
                raise InvariantViolation("stage-depths", f"{f.name} = {value!r} is not an int")
        for f in fields(self)[:-1]:  # every stage depth; the last field is the budget
            depth = getattr(self, f.name)
            if not 1 <= depth <= MAX_STAGE_DEPTH:
                raise InvariantViolation(
                    "stage-depths", f"{f.name} = {depth} not in 1..{MAX_STAGE_DEPTH}"
                )
        if self.align_offset_d < 0:  # the exponent path would retire after the lanes
            raise InvariantViolation("align-offset", f"align_offset_d = {self.align_offset_d} < 0")
        if self.total_stages != self.end_to_end_latency:
            raise InvariantViolation(
                "latency-budget",
                f"input + residue + post stages = {self.total_stages} != {self.end_to_end_latency}",
            )

    @property
    def align_offset_d(self) -> int:
        """Recomputed, never stored: the exponent path starts this many cycles late."""
        return self.residue_stages - self.exponent_stages

    @cached_property
    def norm_latency(self) -> int:
        """Stall cycles per normalization; computed once per config."""
        return self.norm_engine_stages * self.cycles_per_norm_stage

    @property
    def total_stages(self) -> int:
        return self.input_stages + self.residue_stages + self.post_stages

    @cached_property
    def detect_stage(self) -> int:
        """First post stage, where threshold detection fires; computed once per config."""
        return self.input_stages + self.residue_stages


DEFAULT_PIPELINE = PipelineConfig()


class Op(NamedTuple):
    """One program statement: lit defines a named literal, mul/add consume two names."""

    kind: str  # "lit" | "mul" | "add"
    args: tuple[str, ...] = ()
    name: str = ""
    value: float | None = None


class TraceEvent(NamedTuple):
    """Cycle-stamped record of unit activity; the waveform analogue."""

    cycle: int
    unit: str
    action: str  # issue | advance | retire | stall | norm-begin | norm-end
    op: str | None = None
    value: str | None = None


class Trace(tuple):
    """A simulation's events in trace order: a tuple of plain rows, read as TraceEvents.

    Each row is a plain tuple of ints, strings and None, which the cyclic
    garbage collector stops tracking at its first collection; a TraceEvent,
    a tuple subclass, stays tracked. So a live trace is not rescanned by
    every later collection. With three 300-step traces (about 19,000
    events) live, full collections averaged 9.4 ms with TraceEvent rows and
    5.5 ms with plain ones (CPython 3.11.7, a shared 2-core x86-64 VM).
    Indexing and iteration make the records on read; length, equality and
    hashing are the tuple's, over the rows. metrics_report and
    formats.trace_csv read the rows.
    """

    __slots__ = ()

    def __getitem__(self, index):
        row = tuple.__getitem__(self, index)
        return Trace(row) if isinstance(index, slice) else _new(TraceEvent, row)

    def __iter__(self):
        return map(TraceEvent._make, tuple.__iter__(self))


class SimState(NamedTuple):
    """Scheduler snapshot at the start of a cycle.

    The pipe only moves on advancing (non-Normalize) cycles, so after ticks
    of them the op in stage s is ticks - 1 - s; occupancy and the issue
    pointer follow from that and are not stored. norms holds each op's
    normalization count and norm_remaining the stall cycles left for the
    op in the detect stage, counting down from norms[op] * norm_latency.
    """

    cycle: int
    fsm: Fsm
    ticks: int
    norms: tuple
    stages: int
    norm_remaining: int = 0


def scheduler_step(state: SimState, cfg: PipelineConfig) -> SimState:
    """Advance the scheduler by one cycle (pure; returns the next state).

    Transitions: Idle->Execute on first issue; Execute->Normalize when the
    op entering the detect stage has pending normalizations;
    Normalize->Resume after norm_latency cycles per event, back-to-back
    windows being one Normalize run; Resume->Execute the following cycle.
    Nothing advances and nothing issues while the FSM is in Normalize.
    """
    cycle, fsm, ticks, norms, stages, remaining = state
    if fsm is NORMALIZE:
        if remaining > 1:
            return _new(SimState, (cycle + 1, fsm, ticks, norms, stages, remaining - 1))
        return _new(SimState, (cycle + 1, RESUME, ticks, norms, stages, 0))

    # Advancing cycle: every stage shifts and the next op (if any) issues,
    # so the op in the stage before detect moves into it.
    entered = ticks - cfg.detect_stage
    if 0 <= entered < len(norms) and norms[entered] > 0:
        stall = norms[entered] * cfg.norm_latency
        return _new(SimState, (cycle + 1, NORMALIZE, ticks + 1, norms, stages, stall))
    if fsm is not IDLE or ticks < len(norms):
        fsm = EXECUTE
    return _new(SimState, (cycle + 1, fsm, ticks + 1, norms, stages, 0))


class MetricsSummary(NamedTuple):
    latency_p50: float
    latency_max: int
    achieved_ii: float
    stall_cycles: int
    norm_events: int

    def as_dict(self) -> dict:
        return self._asdict()


class SimResult(NamedTuple):
    results: tuple
    trace: Trace
    metrics: MetricsSummary
    names: tuple = ()


def run_program(program, ms: ModulusSet, hcfg: HybridConfig):
    """Walk the program in order, yielding (name, kind, operands, value) per op.

    A literal's operands are (), a mul/add's its two operand values. Raises
    InvalidProgram for undefined references, duplicate names or a mul/add
    without exactly two operands.
    """
    env: dict[str, HybridNum] = {}
    issued = 0
    for op in program:
        if op.kind == "lit":
            if not op.name:
                raise InvalidProgram("literal without a name")
            if op.name in env:
                raise InvalidProgram(f"name {op.name!r} defined twice")
            env[op.name] = value = hybrid.from_real(op.value, ms, hcfg)
            yield op.name, "lit", (), value
            continue
        if op.kind not in ("mul", "add"):
            raise InvalidProgram(f"unknown op kind {op.kind!r}")
        try:
            a, b = operands = tuple(map(env.__getitem__, op.args))
        except KeyError as exc:
            raise InvalidProgram(f"undefined operand {exc.args[0]!r}") from None
        except ValueError:
            raise InvalidProgram(f"{op.kind} takes 2 operands, got {len(op.args)}") from None
        fn = arithmetic.hrfna_mul if op.kind == "mul" else arithmetic.hrfna_add
        value = fn(a, b, ms, hcfg)
        name = op.name or f"t{issued}"
        if name in env:
            raise InvalidProgram(f"name {name!r} defined twice")
        env[name] = value
        issued += 1
        yield name, op.kind, operands, value


def evaluate_program(program, ms: ModulusSet, hcfg: HybridConfig):
    """(names, results, norm_counts) of the issued (mul/add) ops, from run_program."""
    names, results, norms = [], [], []
    for name, kind, _, value in run_program(program, ms, hcfg):
        if kind != "lit":
            names.append(name)
            results.append(value)
            norms.append(len(value.norm_events))
    return tuple(names), tuple(results), tuple(norms)


def simulate(program, cfg: PipelineConfig, hcfg: HybridConfig, ms: ModulusSet) -> SimResult:
    """Run the program through the timing model.

    Returns the per-op results (bit-identical to direct evaluation), the
    full trace from first issue to last retire, and the metrics summary.
    Events are emitted in trace order, so the trace is never sorted: by
    cycle, then scheduler, norm, exponent and the lanes (by name), and
    within a unit by action. One scheduler_step call per cycle, stalls
    included, and one metrics_report scan: perfbench's tracer counts both
    (see the module docstring).
    """
    names, results, norms = evaluate_program(program, ms, hcfg)
    if not names:
        return SimResult((), Trace(), metrics_report(()))

    n, latency = len(names), cfg.norm_latency
    detect, last = cfg.detect_stage, cfg.total_stages - 1
    units = ("exponent", *sorted(f"lane{lane}" for lane in range(len(ms.moduli))))
    hex_residues = "%" + "%".join(ms.hex_formats)  # each residue as zero-padded hex
    events: list[tuple] = []
    emit = events.append
    state = SimState(0, IDLE, 0, norms, cfg.total_stages)
    cycle, fsm, ticks, _, _, remaining = state
    # The pipe holds op ticks - 1 - s in stage s. The last op reaches the
    # last stage after n + last ticks and leaves the pipe on the next one.
    while ticks <= n + last:
        if fsm is NORMALIZE:
            # A Normalize run: a window begins every latency cycles of the
            # countdown and ends on the cycle after its last stall.
            op, total = names[ticks - 1 - detect], remaining
            while fsm is NORMALIZE:
                emit((cycle, "scheduler", "stall", None, None))
                if remaining % latency == 0:
                    emit((cycle, "norm", "norm-begin", op, None))
                    if remaining < total:
                        emit((cycle, "norm", "norm-end", op, None))
                state = scheduler_step(state, cfg)
                cycle, fsm, _, _, _, remaining = state
        # Advancing cycle: op ticks issues, op ticks - detect enters the
        # detect stage (its exponent and lanes retire), op ticks - 1 - last leaves.
        emit((cycle, "scheduler", "advance", None, None))
        if ticks < n:
            emit((cycle, "scheduler", "issue", names[ticks], None))
        leaving = ticks - 1 - last
        if leaving >= 0:
            value = hex_residues % results[leaving].mantissa.residues
            emit((cycle, "scheduler", "retire", names[leaving], value))
        if fsm is RESUME:
            emit((cycle, "norm", "norm-end", names[ticks - 1 - detect], None))
        entered = ticks - detect
        if 0 <= entered < n:
            op = names[entered]
            for unit in units:
                emit((cycle, unit, "retire", op, None))
        state = scheduler_step(state, cfg)
        cycle, fsm, ticks, _, _, remaining = state

    trace = Trace(events)
    return SimResult(results, trace, metrics_report(trace), names)


def metrics_report(trace) -> MetricsSummary:
    """Summarize a trace: latency stats, achieved II, stalls, normalizations.

    trace is a Trace or a tuple of events. Deterministic over a given
    trace; raises IncompleteTrace when a scheduler issue has no matching
    retire.
    """
    issues: dict[str, int] = {}
    retires: dict[str, int] = {}
    stalls = 0
    norm_begins = 0
    for cycle, unit, action, op, _ in tuple.__iter__(trace):  # rows, not records
        if unit == "scheduler" and action == "issue":
            issues[op] = cycle
        elif unit == "scheduler" and action == "retire":
            retires[op] = cycle
        elif action == "stall":
            stalls += 1
        elif action == "norm-begin":
            norm_begins += 1

    missing = set(issues) - set(retires)
    if missing:
        raise IncompleteTrace(f"no retire for issued ops: {sorted(missing)}")
    if not issues:
        return MetricsSummary(0.0, 0, 0.0, stalls, norm_begins)

    latencies = [retires[op] - issues[op] for op in issues]
    span = max(issues.values()) - min(issues.values()) + 1
    return MetricsSummary(
        latency_p50=float(statistics.median(latencies)),
        latency_max=max(latencies),
        achieved_ii=span / len(issues),
        stall_cycles=stalls,
        norm_events=norm_begins,
    )
