"""File formats: config JSON, hybrid records, program files, traces, vectors.

Every format starts with a version header. Residues are zero-padded
lowercase hex sized to the modulus width; exponents are signed decimal.
File writes go through a temp-file rename so readers never observe a
partial file.
"""

import json
import os
import tempfile
from dataclasses import asdict, fields
from fractions import Fraction

from hrfna import hybrid, pipeline, rns
from hrfna.errors import HrfnaError
from hrfna.hybrid import DEFAULT_CONFIG, HybridConfig, HybridNum
from hrfna.pipeline import DEFAULT_PIPELINE, Op, PipelineConfig
from hrfna.rns import DEFAULT_MODULI, ModulusSet, _new

CONFIG_FORMAT = "hrfna-config v3"
RECORD_FORMAT = "hrfna-hybrid v1"
PROGRAM_FORMAT = "hrfna-program v1"
TRACE_FORMAT = "hrfna-trace v1"
METRICS_FORMAT = "hrfna-metrics v1"
VECTORS_FORMAT = "hrfna-vectors v1"
DRIFT_FORMAT = "hrfna-drift v1"

CONFIG_ENV_VAR = "HRFNA_CONFIG"


class ParseError(HrfnaError):
    """Malformed file or record."""


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file plus rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hrfna-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- configuration ----------------------------------------------------------


def default_configs() -> tuple[ModulusSet, HybridConfig, PipelineConfig]:
    return ModulusSet(DEFAULT_MODULI), DEFAULT_CONFIG, DEFAULT_PIPELINE


def config_to_dict(ms: ModulusSet, hcfg: HybridConfig, pcfg: PipelineConfig) -> dict:
    return {
        "format": CONFIG_FORMAT,
        "moduli": list(ms.moduli),
        "alpha_num": hcfg.alpha.numerator,
        "alpha_den": hcfg.alpha.denominator,
        "k": hcfg.scale_shift_k,
        "b": hcfg.operand_bound_bits,
        **asdict(pcfg),
    }


def config_from_dict(data: dict) -> tuple[ModulusSet, HybridConfig, PipelineConfig]:
    """The configs a record describes; ParseError for a malformed field.

    A missing, boolean, non-integral (never truncated) or zero-divisor field
    is malformed, as is moduli other than a list or an unknown key; a broken
    invariant raises its constructor's InvariantViolation.
    """
    if not isinstance(data, dict):
        raise ParseError("config root must be a JSON object")
    if data.get("format", CONFIG_FORMAT) != CONFIG_FORMAT:
        raise ParseError(f"unsupported config format {data.get('format')!r}")
    stages = [f.name for f in fields(PipelineConfig)]
    known = ["format", "moduli", "alpha_num", "alpha_den", "k", "b", *stages]
    unknown = set(data).difference(known)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(sorted(map(repr, unknown)))}")
    stages = [name for name in stages if name in data]
    try:
        moduli = data["moduli"]
        scalars = [data[name] for name in known[2:6] + stages]  # the four hybrid scalars first
        if not isinstance(moduli, list):
            raise ParseError(f"bad config field: moduli {moduli!r} is not a list")
        for value in moduli + scalars:
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise ParseError(f"bad config field: {value!r} is not an integer")
        moduli = [int(m) for m in moduli]
        alpha_num, alpha_den, k, b, *depths = map(int, scalars)
        alpha = Fraction(alpha_num, alpha_den)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad config field: {exc}") from None
    ms = ModulusSet(moduli)
    hcfg = HybridConfig(alpha=alpha, scale_shift_k=k, operand_bound_bits=b)
    hybrid.validate_config(ms, hcfg)
    return ms, hcfg, PipelineConfig(**dict(zip(stages, depths)))


def load_config(path: str | None = None) -> tuple[ModulusSet, HybridConfig, PipelineConfig]:
    """Load configs from path, the HRFNA_CONFIG env var, or defaults when neither is set.

    A missing file, any ValueError while reading it (malformed JSON, bytes
    that do not decode, an integer past int's digit limit) and JSON nested
    past the parser's recursion limit raise ParseError.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
        if path is None:
            return default_configs()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from None
    return config_from_dict(data)


def config_json(ms: ModulusSet, hcfg: HybridConfig, pcfg: PipelineConfig) -> str:
    return json.dumps(config_to_dict(ms, hcfg, pcfg), indent=2) + "\n"


def save_config(path: str, ms: ModulusSet, hcfg: HybridConfig, pcfg: PipelineConfig) -> None:
    atomic_write(path, config_json(ms, hcfg, pcfg))


# -- hybrid records ----------------------------------------------------------

# int() also takes signs, underscores, 0x prefixes and non-ASCII digits; a record does not.
_DIGITS = "0123456789"
_HEX_DIGITS = _DIGITS + "abcdefABCDEF"


def _group(h: HybridNum) -> str:
    """A value's per-channel hex residues followed by its exponent."""
    return " ".join(map(format, h.mantissa.residues, h.set_ref.hex_formats)) + f" {h.exponent}"


def hybrid_record(h: HybridNum) -> str:
    """One-line textual record: version, per-channel hex residues, exponent."""
    return f"{RECORD_FORMAT} {_group(h)}"


def parse_hybrid_record(line: str, ms: ModulusSet) -> HybridNum:
    """The value a record denotes: ASCII hex residues, an exponent of [-]ASCII digits."""
    parts = line.split()
    if len(parts) != 3 + len(ms.moduli) or " ".join(parts[:2]) != RECORD_FORMAT:
        raise ParseError(f"malformed hybrid record: {line!r}")
    for i, p in enumerate(parts[2:-1]):
        if p.strip(_HEX_DIGITS):
            raise ParseError(f"malformed hybrid record: residue {i} {p!r} is not ASCII hex digits")
    digits = parts[-1].removeprefix("-")
    if not digits or digits.strip(_DIGITS):
        raise ParseError(f"malformed hybrid record: exponent {parts[-1]!r} is not [-]ASCII digits")
    residues = tuple(int(p, 16) for p in parts[2:-1])
    try:
        exponent = int(parts[-1])
    except ValueError as exc:  # past int's digit limit
        raise ParseError(f"malformed hybrid record: {exc}") from None
    for r, m in zip(residues, ms.moduli):
        if not 0 <= r < m:
            raise ParseError(f"residue {r:#x} out of range for modulus {m}")
    n = hybrid.signed_value(rns.ResidueVector(residues, ms), ms)
    return hybrid.make_hybrid(n, exponent, ms)


# -- program files -----------------------------------------------------------


def parse_program(text: str) -> list[Op]:
    """Program file: header line, then `lit name value` / `mul a b` / `add a b`."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines or lines[0] != PROGRAM_FORMAT:
        raise ParseError(f"program must start with {PROGRAM_FORMAT!r}")
    ops: list[Op] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 3:
            kind, a, b = parts
            if kind == "lit":
                if not a.isidentifier():  # vectors_text writes the name first on its line
                    raise ParseError(f"bad literal name in {ln!r}")
                try:
                    ops.append(_new(Op, ("lit", (), a, float(b))))
                except ValueError:
                    raise ParseError(f"bad literal value in {ln!r}") from None
                continue
            if kind in ("mul", "add"):
                ops.append(_new(Op, (kind, (a, b), "", None)))
                continue
        raise ParseError(f"unrecognized program line {ln!r}")
    return ops


def load_program(path: str) -> list[Op]:
    """parse_program of the UTF-8 file at path; ParseError for bytes that do not decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"program {path} is not UTF-8: {exc}") from None
    return parse_program(text)


def program_text(ops) -> str:
    lines = [PROGRAM_FORMAT]
    for op in ops:
        if op.kind == "lit":
            lines.append(f"lit {op.name} {op.value!r}")
        else:
            lines.append(f"{op.kind} {op.args[0]} {op.args[1]}")
    return "\n".join(lines) + "\n"


# -- trace and metrics exports -----------------------------------------------


def trace_csv(trace: pipeline.Trace) -> str:
    """The trace CSV: two header lines, then one row per event, each line ending in a newline.

    A row is its event's five fields joined by commas, as trace.fields stores them.
    """
    fields = iter(trace.fields)
    rows = map(",".join, zip(fields, fields, fields, fields, fields))
    return "\n".join([f"# {TRACE_FORMAT}", "cycle,unit,action,op_id,value_hex", *rows, ""])


def _tagged_json(fmt: str, record) -> str:
    return json.dumps({"format": fmt, **record.as_dict()}, sort_keys=True, indent=2) + "\n"


def metrics_json(metrics: pipeline.MetricsSummary) -> str:
    return _tagged_json(METRICS_FORMAT, metrics)


def drift_report_json(report) -> str:
    return _tagged_json(DRIFT_FORMAT, report)


# -- hardware test vectors ----------------------------------------------------


def vectors_text(program, ms: ModulusSet, hcfg: HybridConfig) -> str:
    """Stimulus/expected-response lines for checking an external implementation.

    mul/add lines carry both input operand groups, then the expected result
    group and a normalization flag:
      op-id kind ax ay az fx bx by bz fy | expect zx zy zz fz norm-flag
    lit lines carry only the expected encoding of the literal.
    """
    lines = [f"# {VECTORS_FORMAT}"]
    for name, kind, operands, value in pipeline.run_program(program, ms, hcfg):
        flag = 1 if value.norm_events else 0
        expect = f"| expect {_group(value)} {flag}"
        lines.append(" ".join([name, kind, *map(_group, operands), expect]))
    return "\n".join(lines) + "\n"
