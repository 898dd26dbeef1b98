"""Cycle-accurate model of the arithmetic pipeline and its scheduler.

The datapath is a linear pipe: detect_stage stages of input registration
and residue columns (all lanes advance together), then post stages
(threshold detect, merge, output register). The exponent path is not
timed apart: it and every lane retire into the detect stage in the same
cycle. A four-state scheduler FSM (Idle, Execute, Normalize, Resume)
freezes every stage and blocks issue while the normalization engine
runs; each normalization event costs norm_latency stall cycles.

Values are computed by the hybrid arithmetic functions before any timing
is modeled, so the simulator can never alter results. simulate calls
scheduler_step once per cycle and metrics_report once on the trace, since
perfbench's tracer counts cycles and stalls from the one and events from
the other; a closed form that skips cycles must first decouple the tracer.
"""

import enum
import statistics
from dataclasses import dataclass, fields
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
    """Stage depths of the datapath and the stall cycles per normalization.

    detect_stage counts the stages before threshold detect (input and
    residue registration), post_stages those from detect on. The
    end-to-end latency is total_stages, 10 cycles at the defaults.
    """

    detect_stage: int = 7
    post_stages: int = 3
    norm_latency: int = 6

    def __post_init__(self):
        for f in fields(self):  # every field's type, before any range
            value = getattr(self, f.name)
            if type(value) is not int:  # so also a bool or an integral float
                raise InvariantViolation("stage-depths", f"{f.name} = {value!r} is not an int")
        for f in fields(self):
            depth = getattr(self, f.name)
            if not 1 <= depth <= MAX_STAGE_DEPTH:
                raise InvariantViolation(
                    "stage-depths", f"{f.name} = {depth} not in 1..{MAX_STAGE_DEPTH}"
                )

    @property
    def total_stages(self) -> int:
        """The end-to-end latency: the stages before detect and from it on."""
        return self.detect_stage + self.post_stages


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


class Trace:
    """A simulation's events in trace order, stored as the fields of their CSV rows.

    fields is one flat tuple of str, five per event, exactly as the event's
    formats.trace_csv row prints them: the cycle in decimal, unit, action,
    then op and value with '' for None. No event is an object of its own,
    and a tuple of str leaves the cyclic garbage collector at its first
    collection, so a live trace adds one tracked object and is not rescanned.
    Trace(fields) stores tuple(fields), a tuple as given. Indexing reads
    TraceEvent records back ('' as None), iteration indexes until IndexError,
    and two traces are equal when their fields are.
    """

    __slots__ = ("fields",)

    def __init__(self, fields=()):
        self.fields = tuple(fields)

    def __len__(self):
        return len(self.fields) // 5

    def __getitem__(self, index):
        i = 5 * range(len(self))[index]  # range indexing raises for an index out of range
        cycle, unit, action, op, value = self.fields[i : i + 5]
        return _new(TraceEvent, (int(cycle), unit, action, op or None, value or None))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.fields == other.fields
        return NotImplemented


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
    norm_remaining: int = 0


def scheduler_step(state: SimState, cfg: PipelineConfig) -> SimState:
    """Advance the scheduler by one cycle (pure; returns the next state).

    Transitions: Idle->Execute on first issue; Execute->Normalize when the
    op entering the detect stage has pending normalizations;
    Normalize->Resume after norm_latency cycles per event, back-to-back
    windows being one Normalize run; Resume->Execute the following cycle.
    Nothing advances and nothing issues while the FSM is in Normalize.
    """
    cycle, fsm, ticks, norms, remaining = state
    if fsm is NORMALIZE:
        if remaining > 1:
            return _new(SimState, (cycle + 1, fsm, ticks, norms, remaining - 1))
        return _new(SimState, (cycle + 1, RESUME, ticks, norms, 0))

    # Advancing cycle: every stage shifts and the next op (if any) issues,
    # so the op in the stage before detect moves into it.
    entered = ticks - cfg.detect_stage
    if 0 <= entered < len(norms) and norms[entered] > 0:
        stall = norms[entered] * cfg.norm_latency
        return _new(SimState, (cycle + 1, NORMALIZE, ticks + 1, norms, stall))
    if fsm is not IDLE or ticks < len(norms):
        fsm = EXECUTE
    return _new(SimState, (cycle + 1, fsm, ticks + 1, norms, 0))


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
    for kind, args, name, literal in program:
        if kind == "lit":
            if not name:
                raise InvalidProgram("literal without a name")
            if name in env:
                raise InvalidProgram(f"name {name!r} defined twice")
            env[name] = value = hybrid.from_real(literal, ms, hcfg)
            yield name, "lit", (), value
            continue
        if kind not in ("mul", "add"):
            raise InvalidProgram(f"unknown op kind {kind!r}")
        try:
            a, b = operands = tuple(map(env.__getitem__, args))
        except KeyError as exc:
            raise InvalidProgram(f"undefined operand {exc.args[0]!r}") from None
        except ValueError:
            raise InvalidProgram(f"{kind} takes 2 operands, got {len(args)}") from None
        fn = arithmetic.hrfna_mul if kind == "mul" else arithmetic.hrfna_add
        value = fn(a, b, ms, hcfg)
        name = name or f"t{issued}"
        if name in env:
            raise InvalidProgram(f"name {name!r} defined twice")
        env[name] = value
        issued += 1
        yield name, kind, operands, value


def evaluate_program(program, ms: ModulusSet, hcfg: HybridConfig):
    """(names, results, norm_counts) of the issued (mul/add) ops, from run_program."""
    names, results, norms = [], [], []
    for name, kind, _, value in run_program(program, ms, hcfg):
        if kind != "lit":
            names.append(name)
            results.append(value)
            norms.append(value.norm_events)
    return tuple(names), tuple(results), tuple(norms)


def simulate(program, cfg: PipelineConfig, hcfg: HybridConfig, ms: ModulusSet) -> SimResult:
    """Run the program through the timing model.

    Returns the per-op results (bit-identical to direct evaluation), the
    full trace from first issue to last retire, and the metrics summary.
    Events are emitted in trace order, so the trace is never sorted: by
    cycle, then scheduler, norm, exponent and the lanes (by name), and
    within a unit by action. Each event goes straight into the trace's flat
    fields: each cycle is formatted once, and each retire's value_hex once,
    from n by one % template, with no residue vector. One scheduler_step
    call per cycle, stalls included, and one metrics_report scan:
    perfbench's tracer counts both (see the module docstring).
    """
    names, results, norms = evaluate_program(program, ms, hcfg)
    if not names:
        return SimResult((), Trace(), metrics_report(Trace()))

    n, latency = len(names), cfg.norm_latency
    detect, last = cfg.detect_stage, cfg.total_stages - 1
    units = ("exponent", *sorted(f"lane{lane}" for lane in range(len(ms.moduli))))
    hex_residues = "%" + "%".join(ms.hex_formats)  # each residue as zero-padded hex
    moduli = ms.moduli
    fields: list[str] = []
    add = fields.extend
    state = SimState(0, IDLE, 0, norms)
    cycle, fsm, ticks, _, remaining = state
    # The pipe holds op ticks - 1 - s in stage s. The last op reaches the
    # last stage after n + last ticks and leaves the pipe on the next one.
    while ticks <= n + last:
        if fsm is NORMALIZE:
            # A Normalize run: a window begins every latency cycles of the
            # countdown and ends on the cycle after its last stall.
            op, total = names[ticks - 1 - detect], remaining
            while fsm is NORMALIZE:
                c = str(cycle)
                add((c, "scheduler", "stall", "", ""))
                if remaining % latency == 0:
                    add((c, "norm", "norm-begin", op, ""))
                    if remaining < total:
                        add((c, "norm", "norm-end", op, ""))
                state = scheduler_step(state, cfg)
                cycle, fsm, _, _, remaining = state
        # Advancing cycle: op ticks issues, op ticks - detect enters the
        # detect stage (its exponent and lanes retire), op ticks - 1 - last leaves.
        c = str(cycle)
        add((c, "scheduler", "advance", "", ""))
        if ticks < n:
            add((c, "scheduler", "issue", names[ticks], ""))
        leaving = ticks - 1 - last
        if leaving >= 0:
            value = hex_residues % tuple(map(results[leaving].n.__mod__, moduli))
            add((c, "scheduler", "retire", names[leaving], value))
        if fsm is RESUME:
            add((c, "norm", "norm-end", names[ticks - 1 - detect], ""))
        entered = ticks - detect
        if 0 <= entered < n:
            op = names[entered]
            for unit in units:
                add((c, unit, "retire", op, ""))
        state = scheduler_step(state, cfg)
        cycle, fsm, ticks, _, remaining = state

    trace = Trace(fields)
    return SimResult(results, trace, metrics_report(trace), names)


def metrics_report(trace: Trace) -> MetricsSummary:
    """Summarize a trace: latency stats, achieved II, stalls, normalizations.

    Deterministic over a given trace; raises IncompleteTrace when a
    scheduler issue has no matching retire. Stalls and window begins are
    counts of the action column of trace.fields; only the scheduler's issue
    and retire cycles are read back as ints.
    """
    fields = trace.fields
    issues: dict[str, int] = {}
    retires: dict[str, int] = {}
    events = iter(fields)
    for cycle, unit, action, op, _ in zip(events, events, events, events, events):
        if unit == "scheduler":
            if action == "issue":
                issues[op] = int(cycle)
            elif action == "retire":
                retires[op] = int(cycle)
    actions = fields[2::5]
    stalls, norm_begins = actions.count("stall"), actions.count("norm-begin")
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
