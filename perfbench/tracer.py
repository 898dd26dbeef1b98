"""Span tracing of hrfna from outside the package.

Tracer.install wraps every public module-level function of each layer and
rebinds the wrapper in every hrfna namespace that holds the function, so
calls through names imported with `from ... import` are traced too. Each
call records a span (name, parent, start, end) in flat arrays kept in
memory; metrics() derives the per-layer numbers from them and write_spans()
writes them out once the run is over.

A layer's self time is the time its spans cover minus the time of their
direct child spans. Private helpers (`_drain`, `_aligned_sum`, ...) are not
wrapped, so their time counts toward the public function that called them.

The program is single-threaded and synchronous, so no layer makes work wait
on a queue and there is no wait metric.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("rns", "hybrid", "normalization", "arithmetic", "workloads", "pipeline", "formats")
WORKLOAD_SPANS = ("workloads.run_mac_chain", "workloads.dot_product")
FOLD_SPANS = ("hybrid.from_real", "arithmetic.hrfna_mul", "arithmetic.hrfna_add")
CHANNEL_OPS = ("rns.mod_mul", "rns.mod_add", "rns.mod_sub")

# Addition paths as classified from the returned value's align_strategy.
ADD_PATHS = {"scale-up": "scale_up", "shift-down": "shift_down", "identity": "identity"}


class Tracer:
    """Wraps the package's layers while installed; one instance per traced phase."""

    def __init__(self, hrfna_error: type):
        self.hrfna_error = hrfna_error
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.errors = {layer: 0 for layer in LAYERS}
        self.mul_norm: list[tuple[int, bool]] = []  # (span, normalized)
        self.add_path: list[tuple[int, str, bool]] = []  # (span, path, normalized)
        self.stall_cycles = 0
        self.trace_events = 0
        self.trace_bytes = 0
        self.sim_ops = 0
        self.sim_issue_span = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _observers(self) -> dict:
        def mul(idx, args, result):
            self.mul_norm.append((idx, bool(result.norm_events)))

        def add(idx, args, result):
            self.add_path.append((idx, ADD_PATHS[result.align_strategy], bool(result.norm_events)))

        def step(idx, args, result):
            # simulate stamps a stall for every cycle that starts in Normalize.
            self.stall_cycles += args[0].fsm.value == "Normalize"

        def report(idx, args, result):
            self.trace_events += len(args[0])

        def csv(idx, args, result):
            self.trace_bytes += len(result.encode())

        def sim(idx, args, result):
            self.sim_ops += len(result.names)
            self.sim_issue_span += result.metrics.achieved_ii * len(result.names)

        return {
            "arithmetic.hrfna_mul": mul,
            "arithmetic.hrfna_add": add,
            "pipeline.scheduler_step": step,
            "pipeline.metrics_report": report,
            "formats.trace_csv": csv,
            "pipeline.simulate": sim,
        }

    def _wrap(self, name: str, layer: str, fn, observe):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        errors, hrfna_error = self.errors, self.hrfna_error

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except hrfna_error as exc:
                # Count an error once, in the layer that raised it.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    errors[layer] += 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap each layer's public functions in every loaded hrfna namespace."""
        observers = self._observers()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hrfna.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._wrap(name, layer, obj, observers.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hrfna" and not mod_name.startswith("hrfna."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived metrics --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, as {name: (value, unit)}."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]

        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            incl_ns[nid] += dur[i]
            self_ns[nid] += dur[i] - child[i]
        ids = {name: nid for nid, name in enumerate(self.names)}

        def count(name):
            return calls[ids[name]]

        def self_s(*names):
            return sum(self_ns[ids[name]] for name in names) / 1e9

        # workloads: the fold versus the exact oracle inside each workload span.
        workload_ids = {ids[name] for name in WORKLOAD_SPANS}
        fold_ids = {ids[name] for name in FOLD_SPANS}
        signed_id = ids["hybrid.signed_value"]
        oracle_ns = sum(self_ns[nid] for nid in workload_ids)
        fold_ns = 0
        for i, p in enumerate(self.span_parent):
            if p >= 0 and self.span_name[p] in workload_ids:
                nid = self.span_name[i]
                if nid == signed_id:
                    oracle_ns += dur[i]
                elif nid in fold_ids:
                    fold_ns += dur[i]

        # pipeline: value evaluation versus the timing model inside simulate.
        sim_id, eval_id = ids["pipeline.simulate"], ids["pipeline.evaluate_program"]
        timing_ns = incl_ns[sim_id]
        for i, p in enumerate(self.span_parent):
            if p >= 0 and self.span_name[p] == sim_id and self.span_name[i] == eval_id:
                timing_ns -= dur[i]
        cycles = count("pipeline.scheduler_step")

        def share(hits, total):
            return hits / total if total else 0.0

        def p50_us(spans):
            return statistics.median(dur[i] for i in spans) / 1e3 if spans else 0.0

        muls, adds = self.mul_norm, self.add_path
        detector = count("normalization.needs_normalization")
        m = {
            "rns.crt_reconstruct.calls": (count("rns.crt_reconstruct"), "count"),
            "rns.crt_reconstruct.self_s": (self_s("rns.crt_reconstruct"), "s"),
            "rns.encode_signed.calls": (count("rns.encode_signed"), "count"),
            "rns.encode_signed.self_s": (self_s("rns.encode_signed"), "s"),
            "rns.channel_ops.calls": (sum(count(name) for name in CHANNEL_OPS), "count"),
            "rns.channel_ops.self_s": (self_s(*CHANNEL_OPS), "s"),
            "hybrid.from_real.calls": (count("hybrid.from_real"), "count"),
            "hybrid.from_real.self_s": (self_s("hybrid.from_real"), "s"),
            "hybrid.signed_value.calls": (count("hybrid.signed_value"), "count"),
            "hybrid.signed_value.self_s": (self_s("hybrid.signed_value"), "s"),
            "hybrid.make_hybrid.self_s": (self_s("hybrid.make_hybrid"), "s"),
            "normalization.needs_normalization.calls": (detector, "count"),
            "normalization.normalize.calls": (count("normalization.normalize"), "count"),
            "normalization.normalize.self_s": (self_s("normalization.normalize"), "s"),
            "normalization.fire_ratio": (
                share(count("normalization.normalize"), detector), "ratio"),
            "arithmetic.hrfna_mul.calls": (count("arithmetic.hrfna_mul"), "count"),
            "arithmetic.hrfna_mul.self_s": (self_s("arithmetic.hrfna_mul"), "s"),
            "arithmetic.hrfna_add.calls": (count("arithmetic.hrfna_add"), "count"),
            "arithmetic.hrfna_add.self_s": (self_s("arithmetic.hrfna_add"), "s"),
            "arithmetic.mul.norm_frac": (share(sum(nm for _, nm in muls), len(muls)), "ratio"),
            "arithmetic.add.norm_frac": (share(sum(nm for _, _, nm in adds), len(adds)), "ratio"),
            "arithmetic.add.scale_up_frac": (
                share(sum(p == "scale_up" for _, p, _ in adds), len(adds)), "ratio"),
            "arithmetic.add.shift_down_frac": (
                share(sum(p == "shift_down" for _, p, _ in adds), len(adds)), "ratio"),
            "arithmetic.mul.no_norm.us_p50": (p50_us([i for i, nm in muls if not nm]), "us"),
            "arithmetic.mul.norm.us_p50": (p50_us([i for i, nm in muls if nm]), "us"),
            "arithmetic.add.scale_up.us_p50": (
                p50_us([i for i, p, _ in adds if p == "scale_up"]), "us"),
            "arithmetic.add.shift_down.us_p50": (
                p50_us([i for i, p, _ in adds if p == "shift_down"]), "us"),
            "workloads.oracle_s": (oracle_ns / 1e9, "s"),
            "workloads.fold_s": (fold_ns / 1e9, "s"),
            "workloads.relative_error.self_s": (self_s("workloads.relative_error"), "s"),
            "pipeline.evaluate_s": (incl_ns[eval_id] / 1e9, "s"),
            "pipeline.timing_s": (timing_ns / 1e9, "s"),
            "pipeline.scheduler_step.calls": (cycles, "count"),
            "pipeline.scheduler_step.self_s": (self_s("pipeline.scheduler_step"), "s"),
            "pipeline.metrics_report.self_s": (self_s("pipeline.metrics_report"), "s"),
            "pipeline.host_us_per_cycle": (timing_ns / 1e3 / cycles if cycles else 0.0, "us/cycle"),
            "pipeline.sim_cycles": (cycles, "cycles"),
            "pipeline.stall_cycles": (self.stall_cycles, "cycles"),
            "pipeline.cycles_per_op": (share(cycles, self.sim_ops), "cycles/op"),
            "pipeline.achieved_ii": (share(self.sim_issue_span, self.sim_ops), "cycles/op"),
            "pipeline.trace_events": (self.trace_events, "count"),
            "formats.parse_program.self_s": (self_s("formats.parse_program"), "s"),
            "formats.trace_csv.self_s": (self_s("formats.trace_csv"), "s"),
            "formats.metrics_json.self_s": (self_s("formats.metrics_json"), "s"),
            "formats.trace_bytes": (self.trace_bytes, "bytes"),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = (self.errors[layer], "count")
        m["trace.spans"] = (n, "count")
        return m

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV, times in ns from the first span's start."""
        base = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for i, nid in enumerate(self.span_name):
                fh.write(
                    f"{i},{self.span_parent[i]},{self.names[nid]},"
                    f"{self.span_start[i] - base},{self.span_end[i] - base}\n"
                )
