"""Command-line surface: encode/decode, arithmetic, simulation, workloads, vectors.

Exit codes: 0 success, 1 data error (one-line diagnostic on stderr),
2 usage error (argparse).
"""

import argparse
import sys

from hrfna import arithmetic, formats, pipeline, workloads
from hrfna.errors import HrfnaError
from hrfna.hybrid import from_real, to_real


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrfna",
        description="Hybrid residue/floating-exponent arithmetic tools",
    )
    parser.add_argument(
        "--config",
        help=f"config JSON path (default: ${formats.CONFIG_ENV_VAR} or built-ins)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a real into a hybrid record")
    p.add_argument("value", type=float)

    p = sub.add_parser("decode", help="decode a hybrid record back to a real")
    p.add_argument("record")

    for kind in ("mul", "add"):
        p = sub.add_parser(kind, help=f"{kind} two hybrid records")
        p.add_argument("a")
        p.add_argument("b")

    p = sub.add_parser("simulate", help="run a program file through the pipeline model")
    p.add_argument("program")
    p.add_argument("--trace", default=None, help="trace CSV output path")
    p.add_argument("--metrics", default=None, help="metrics JSON output path")

    p = sub.add_parser("workload", help="run a named workload and emit its drift report")
    p.add_argument("name", choices=["chained_mac"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("vectors", help="emit hardware co-verification test vectors")
    p.add_argument("program")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("config", help="print the active configuration as JSON")
    p.add_argument("--save", default=None, help="also write it to this path")
    return parser


def _run(args) -> int:
    ms, hcfg, pcfg = formats.load_config(args.config)

    if args.command == "encode":
        print(formats.hybrid_record(from_real(args.value, ms, hcfg)))
        return 0

    if args.command == "decode":
        print(repr(to_real(formats.parse_hybrid_record(args.record, ms))))
        return 0

    if args.command in ("mul", "add"):
        a = formats.parse_hybrid_record(args.a, ms)
        b = formats.parse_hybrid_record(args.b, ms)
        fn = arithmetic.hrfna_mul if args.command == "mul" else arithmetic.hrfna_add
        print(formats.hybrid_record(fn(a, b, ms, hcfg)))
        return 0

    if args.command in ("simulate", "vectors"):
        program = formats.load_program(args.program)

    if args.command == "simulate":
        sim = pipeline.simulate(program, pcfg, hcfg, ms)
        trace_path = args.trace or args.program + ".trace.csv"
        metrics_path = args.metrics or args.program + ".metrics.json"
        formats.atomic_write(trace_path, formats.trace_csv(sim.trace))
        formats.atomic_write(metrics_path, formats.metrics_json(sim.metrics))
        print(f"{len(sim.results)} ops simulated; trace {trace_path}; metrics {metrics_path}")
        return 0

    if args.command == "config":
        if args.save:
            formats.save_config(args.save, ms, hcfg, pcfg)
        sys.stdout.write(formats.config_json(ms, hcfg, pcfg))
        return 0

    if args.command == "workload":
        text = formats.drift_report_json(workloads.chained_mac(args.seed, args.steps, ms, hcfg))
    else:
        text = formats.vectors_text(program, ms, hcfg)
    if args.out:
        formats.atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (HrfnaError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
