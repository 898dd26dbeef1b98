"""File formats and the command-line surface."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrfna import formats
from hrfna.cli import main
from hrfna.errors import InvariantViolation
from hrfna.formats import (
    DRIFT_FORMAT,
    ParseError,
    config_from_dict,
    config_to_dict,
    hybrid_record,
    load_config,
    parse_hybrid_record,
    parse_program,
    program_text,
    save_config,
    vectors_text,
)
from hrfna.arithmetic import hrfna_mul
from hrfna.hybrid import HybridConfig, from_real, make_hybrid, to_real, validate_config
from hrfna.pipeline import DEFAULT_PIPELINE, MAX_STAGE_DEPTH, InvalidProgram, Op, PipelineConfig
from hrfna.rns import DEFAULT_MODULI, ModulusSet, OutOfRange
from support import ELEVEN_PRIMES, REFUSALS, TWO_CHANNEL, outcome

RECORD_SETS = tuple(ModulusSet(moduli) for moduli in (DEFAULT_MODULI, TWO_CHANNEL[0], ELEVEN_PRIMES))
# On the even M = 65535 * 65534 the residues of M/2 reconstruct to -M/2,
# which is its own negation modulo M and so has no signed encoding.
HALF_M_RECORD = "hrfna-hybrid v1 0000 7fff 0"
DEFAULT_CONFIG_JSON = """{
  "format": "hrfna-config v3",
  "moduli": [
    4093,
    4095,
    4091
  ],
  "alpha_num": 3,
  "alpha_den": 8192,
  "k": 11,
  "b": 12,
  "detect_stage": 7,
  "post_stages": 3,
  "norm_latency": 6
}
"""
DEPTH_FIELDS = ("detect_stage", "post_stages", "norm_latency")


def assert_cli_rejects(tmp_path, capsys, data, prefix):
    """`hrfna --config` of data exits 1 with one diagnostic line starting with prefix."""
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(data))
    assert main(["--config", str(path), "encode", "1.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix)
    assert err.count("\n") == 1


class TestConfigFormat:
    def test_defaults_when_absent(self, monkeypatch):
        monkeypatch.delenv("HRFNA_CONFIG", raising=False)
        ms, hcfg, pcfg = load_config(None)
        assert ms.moduli == (4093, 4095, 4091)
        assert (pcfg.detect_stage, pcfg.post_stages, pcfg.norm_latency) == (7, 3, 6)

    def test_default_config_bytes(self):
        assert formats.config_json(*formats.default_configs()) == DEFAULT_CONFIG_JSON

    def test_v1_config_refused(self, tmp_path, capsys, default_ms, hcfg, pcfg):
        # v1 carried the engine's stage count, its cycles per stage and a
        # latency budget in place of norm_latency; the format is refused first.
        data = config_to_dict(default_ms, hcfg, pcfg)
        del data["norm_latency"]
        data.update(format="hrfna-config v1", norm_engine_stages=3, cycles_per_norm_stage=2,
                    end_to_end_latency=10)
        with pytest.raises(ParseError, match="^unsupported config format 'hrfna-config v1'$"):
            config_from_dict(data)
        assert_cli_rejects(tmp_path, capsys, data, "error: ParseError: unsupported config format")

    def test_v2_config_refused(self, tmp_path, capsys, default_ms, hcfg, pcfg):
        # v2 split the stages before detect into input and residue stages and
        # carried an exponent depth; the format is refused first.
        data = config_to_dict(default_ms, hcfg, pcfg)
        del data["detect_stage"]
        data.update(format="hrfna-config v2", residue_stages=5, exponent_stages=4, input_stages=2)
        with pytest.raises(ParseError, match="^unsupported config format 'hrfna-config v2'$"):
            config_from_dict(data)
        assert_cli_rejects(tmp_path, capsys, data, "error: ParseError: unsupported config format")

    def test_round_trip(self, tmp_path, default_ms, hcfg, pcfg):
        path = str(tmp_path / "config.json")
        save_config(path, default_ms, hcfg, pcfg)
        ms2, hcfg2, pcfg2 = load_config(path)
        assert ms2 == default_ms
        assert hcfg2 == hcfg
        assert pcfg2 == pcfg
        save_config(str(tmp_path / "again.json"), ms2, hcfg2, pcfg2)
        assert (tmp_path / "config.json").read_text() == (tmp_path / "again.json").read_text()

    def test_env_var_is_default_path(self, tmp_path, monkeypatch, default_ms, hcfg, pcfg):
        path = str(tmp_path / "config.json")
        save_config(path, default_ms, hcfg, pcfg)
        monkeypatch.setenv("HRFNA_CONFIG", path)
        ms2, _, _ = load_config(None)
        assert ms2 == default_ms

    def test_non_coprime_rejected(self, default_ms, hcfg, pcfg):
        data = config_to_dict(default_ms, hcfg, pcfg)
        data["moduli"] = [4, 6]
        with pytest.raises(InvariantViolation) as exc:
            config_from_dict(data)
        assert exc.value.name == "pairwise-coprime"

    def test_operand_bound_rejected(self, default_ms, hcfg, pcfg):
        # b = 19 under the default moduli: 2^38 overwhelms alpha*M.
        data = config_to_dict(default_ms, hcfg, pcfg)
        data["b"] = 19
        with pytest.raises(InvariantViolation) as exc:
            config_from_dict(data)
        assert exc.value.name == "operand-bound"

    def test_shift_bound_rejected(self, default_ms, hcfg, pcfg):
        data = config_to_dict(default_ms, hcfg, pcfg)
        data["k"] = data["b"]
        with pytest.raises(InvariantViolation) as exc:
            config_from_dict(data)
        assert exc.value.name == "shift-bound"

    def test_latency_is_the_stage_sum(self, default_ms, hcfg, pcfg):
        data = config_to_dict(default_ms, hcfg, pcfg)
        data["detect_stage"] = 9
        assert config_from_dict(data)[2].total_stages == 9 + 3

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("moduli", [3, 1, 7], "modulus-minimum"),
            ("moduli", [3, 1 << 16], "modulus-width"),
            ("alpha_num", 8192, "hybrid-config"),
            ("detect_stage", 0, "stage-depths"),
            ("k", 0, "hybrid-config"),
            ("b", 2, "hybrid-config"),
        ],
    )
    def test_invariant_names(self, default_ms, hcfg, pcfg, field, value, name):
        data = config_to_dict(default_ms, hcfg, pcfg)
        data[field] = value
        with pytest.raises(InvariantViolation) as exc:
            config_from_dict(data)
        assert isinstance(exc.value, ValueError)
        assert exc.value.name == name

    @pytest.mark.parametrize(
        "field, value",
        [
            ("detect_stage", None),
            ("alpha_den", 0),
            ("detect_stage", "x"),
            ("k", 1.5),
            ("moduli", "5789"),
            ("k", True),
            ("format", "hrfna-config v4"),
        ],
    )
    def test_malformed_field_is_parse_error(
        self, tmp_path, capsys, default_ms, hcfg, pcfg, field, value
    ):
        data = config_to_dict(default_ms, hcfg, pcfg)
        data[field] = value
        with pytest.raises(ParseError):
            config_from_dict(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), "encode", "1.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ParseError: ")
        assert err.count("\n") == 1

    def test_huge_operand_bound_rejected_at_once(self, default_ms, hcfg, pcfg):
        # 2^(2b) would be a 2*10^12-bit integer; M's bit length settles it first.
        data = config_to_dict(default_ms, hcfg, pcfg)
        data["b"] = 10**12
        with pytest.raises(InvariantViolation) as exc:
            config_from_dict(data)
        assert exc.value.name == "operand-bound"

    @pytest.mark.parametrize(
        "extra",
        [
            {"residue_stage": 6},
            {"alpha": 0.5},
            {"residue_stage": 6, "alpha": 0.5},
            {"end_to_end_latency": 10},  # a v1 key: the latency is total_stages
        ],
    )
    def test_unknown_key_is_parse_error(self, tmp_path, capsys, default_ms, hcfg, pcfg, extra):
        data = {**config_to_dict(default_ms, hcfg, pcfg), **extra}
        with pytest.raises(ParseError) as exc:
            config_from_dict(data)
        assert str(exc.value) == f"unknown config keys: {', '.join(sorted(map(repr, extra)))}"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), "encode", "1.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ParseError: ")
        assert err.count("\n") == 1

    def test_keys_known_without_a_default_config(self, monkeypatch, default_ms, hcfg, pcfg):
        data = config_to_dict(default_ms, hcfg, pcfg)

        def refuse(*args):
            raise AssertionError("config_from_dict built a default config")

        monkeypatch.setattr(formats, "default_configs", refuse)
        monkeypatch.setattr(formats, "config_to_dict", refuse)
        ms, got_hcfg, got_pcfg = config_from_dict(data)
        assert (ms.moduli, got_hcfg, got_pcfg) == (default_ms.moduli, hcfg, pcfg)
        with pytest.raises(ParseError, match="^unknown config keys: 'residue_stage'$"):
            config_from_dict({**data, "residue_stage": 6})

    def test_non_object_root_is_parse_error(self, tmp_path, capsys, default_ms, hcfg, pcfg):
        data = [config_to_dict(default_ms, hcfg, pcfg)]
        with pytest.raises(ParseError, match="JSON object"):
            config_from_dict(data)
        assert_cli_rejects(tmp_path, capsys, data, "error: ParseError: ")

    @pytest.mark.parametrize("field", DEPTH_FIELDS)
    def test_stage_depth_bound(self, tmp_path, capsys, default_ms, hcfg, pcfg, field):
        with pytest.raises(InvariantViolation) as exc:
            PipelineConfig(**{field: 33})
        assert exc.value.name == "stage-depths"
        data = {**config_to_dict(default_ms, hcfg, pcfg), field: 33}
        with pytest.raises(InvariantViolation) as exc:
            config_from_dict(data)
        assert exc.value.name == "stage-depths"
        assert_cli_rejects(tmp_path, capsys, data, "error: InvariantViolation: stage-depths")

    def test_deepest_stages_load(self, default_ms, hcfg):
        assert MAX_STAGE_DEPTH == 32
        pcfg = PipelineConfig(**dict.fromkeys(DEPTH_FIELDS, 32))
        assert (pcfg.detect_stage, pcfg.norm_latency, pcfg.total_stages) == (32, 32, 64)
        assert config_from_dict(config_to_dict(default_ms, hcfg, pcfg))[2] == pcfg

    def test_shallowest_stages_load(self, default_ms, hcfg):
        pcfg = PipelineConfig(**dict.fromkeys(DEPTH_FIELDS, 1))
        assert (pcfg.detect_stage, pcfg.norm_latency, pcfg.total_stages) == (1, 1, 2)
        assert config_from_dict(config_to_dict(default_ms, hcfg, pcfg))[2] == pcfg

    def test_integral_numbers_still_load(self, default_ms, hcfg, pcfg):
        data = config_to_dict(default_ms, hcfg, pcfg)
        data.update(k=11.0, detect_stage="7", moduli=[4093.0, "4095", 4091])
        assert config_from_dict(data) == (default_ms, hcfg, pcfg)

    def test_parse_error_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_config(str(path))

    def test_missing_explicit_path(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("kind", ["digit-limit", "undecodable", "nested"])
    def test_unreadable_file_is_parse_error(self, tmp_path, capsys, default_ms, hcfg, pcfg, kind):
        text = json.dumps(config_to_dict(default_ms, hcfg, pcfg))
        if kind == "digit-limit":
            # b as a 5,000-digit literal: past int's digit limit, a ValueError inside json.
            data = text.replace('"b": 12,', f'"b": {"1" + "0" * 4999},').encode()
            assert len(data) > 5000
        elif kind == "undecodable":
            # A UTF-16 byte-order mark: 0xff starts no UTF-8 sequence.
            data = b"\xff\xfe" + text.encode("utf-16-le")
        else:
            # 10^5 nested lists: past the JSON parser's recursion limit.
            data = b"[" * 10**5 + b"]" * 10**5
        path = tmp_path / "unreadable.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="^invalid JSON in "):
            load_config(str(path))
        assert main(["--config", str(path), "config"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ParseError: invalid JSON in ")
        assert err.count("\n") == 1


class TestAtomicWrite:
    def test_failed_replace_reraises_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            formats.atomic_write(str(target), "text")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert not any(target.iterdir())


class TestHybridRecords:
    def test_record_round_trip(self, default_ms, hcfg):
        h = from_real(-2.71828, default_ms, hcfg)
        line = hybrid_record(h)
        parsed = parse_hybrid_record(line, default_ms)
        assert parsed == h
        assert hybrid_record(parsed) == line

    def test_set_past_the_decimal_digit_limit(self):
        # The first 1,000 primes above 30,000: M has 15,098 bits, past int's
        # 4,300-digit decimal limit. No step writes M in decimal, so 1.5
        # round-trips through binary64 and through its record.
        primes = [n for n in range(30_001, 42_000) if all(n % q for q in range(2, 206))]
        ms = ModulusSet(primes[:1000])
        assert ms.composite.bit_length() == 15_098
        cfg = HybridConfig(alpha=Fraction(1, 4), scale_shift_k=3, operand_bound_bits=12)
        validate_config(ms, cfg)
        h = from_real(1.5, ms, cfg)
        assert to_real(h) == 1.5
        line = hybrid_record(h)
        parsed = parse_hybrid_record(line, ms)
        assert parsed == h and to_real(parsed) == 1.5 and hybrid_record(parsed) == line

    def test_errors_on_a_wide_set_stay_typed(self, tmp_path, capsys):
        # On the same 1,000-prime set n, a product and alpha*M pass int's
        # decimal digit limit and M/2 passes binary64's range, so each message
        # sizes them by bit length.
        primes = [n for n in range(30_001, 42_000) if all(n % q for q in range(2, 206))]
        ms = ModulusSet(primes[:1000])
        cfg = HybridConfig(alpha=Fraction(1, 4), scale_shift_k=3, operand_bound_bits=10**5)
        with pytest.raises(InvariantViolation, match="^operand-bound: "):
            validate_config(ms, cfg)
        data = config_to_dict(ms, cfg, DEFAULT_PIPELINE)
        assert_cli_rejects(tmp_path, capsys, data, "error: InvariantViolation: operand-bound")
        with pytest.raises(OutOfRange) as want:
            make_hybrid(1 << 15_098, 0, ms)
        assert want.traceback[-1].name == "check_signed"  # raised in the rns layer
        # b past M's bit length, unvalidated: 1.0's window mantissa is 2^15098 > M/2.
        past = HybridConfig(alpha=Fraction(1, 4), scale_shift_k=3, operand_bound_bits=15_100)
        with pytest.raises(OutOfRange) as got:
            from_real(1.0, ms, past)
        assert str(got.value) == str(want.value)
        # The refused product of two 15,097-bit mantissas, which would wrap.
        x = make_hybrid((ms.composite - 1) // 2, 0, ms)
        narrow = HybridConfig(Fraction(1, 4), 3, 12)
        assert outcome(hrfna_mul, x, x, ms, narrow) == REFUSALS["mul"].format(30193)

    def test_residues_are_fixed_width_hex(self, default_ms, hcfg):
        line = hybrid_record(from_real(1.5, default_ms, hcfg))
        fields = line.split()
        assert fields[:2] == ["hrfna-hybrid", "v1"]
        assert all(len(f) == 3 for f in fields[2:5])

    def test_bad_records_rejected(self, default_ms):
        for line in ("", "garbage", "hrfna-hybrid v1 zzz 000 000 0", "hrfna-hybrid v1 fff fff fff 0"):
            with pytest.raises(ParseError):
                parse_hybrid_record(line, default_ms)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ("0x5 -0 1_0 3", "residue 0 '0x5' is not ASCII hex digits"),
            ("5 -0 10 3", "residue 1 '-0' is not ASCII hex digits"),
            ("5 0 1_0 3", "residue 2 '1_0' is not ASCII hex digits"),
            ("5 0 +a 3", "residue 2 '+a' is not ASCII hex digits"),
            ("5 0 \u0661 3", "residue 2 '\u0661' is not ASCII hex digits"),
            ("5 0 10 +3", "exponent '+3' is not [-]ASCII digits"),
            ("5 0 10 1_0", "exponent '1_0' is not [-]ASCII digits"),
            ("5 0 10 -", "exponent '-' is not [-]ASCII digits"),
            ("5 0 10 --3", "exponent '--3' is not [-]ASCII digits"),
            ("5 0 10 0x3", "exponent '0x3' is not [-]ASCII digits"),
            ("5 0 10 \u0663", "exponent '\u0663' is not [-]ASCII digits"),
        ],
    )
    def test_fields_int_would_take_are_rejected(self, default_ms, fields, message):
        with pytest.raises(ParseError) as exc:
            parse_hybrid_record(f"hrfna-hybrid v1 {fields}", default_ms)
        assert str(exc.value) == f"malformed hybrid record: {message}"

    def test_exponent_past_the_digit_limit_is_parse_error(self, default_ms):
        # ASCII digits, so only int's digit limit refuses it.
        with pytest.raises(ParseError, match="^malformed hybrid record: "):
            parse_hybrid_record(f"hrfna-hybrid v1 5 0 10 {'1' * 5000}", default_ms)

    def test_hex_of_either_case_and_a_padded_exponent_parse(self, default_ms):
        h = parse_hybrid_record("hrfna-hybrid v1 5 0 AbC -03", default_ms)
        assert (h.mantissa.residues, h.exponent) == ((5, 0, 0xABC), -3)
        assert h == parse_hybrid_record(hybrid_record(h), default_ms)

    @given(st.sampled_from(RECORD_SETS), st.data(), st.integers(-(2**40), 2**40))
    @settings(max_examples=300, deadline=None)
    def test_parsed_record_matches_its_constructor(self, ms, data, f):
        half = (ms.composite - 1) // 2
        h = make_hybrid(data.draw(st.integers(-half, half)), f, ms)
        parsed = parse_hybrid_record(hybrid_record(h), ms)
        assert parsed.mantissa.residues == h.mantissa.residues
        assert (parsed.exponent, parsed.n) == (h.exponent, h.n)

    def test_half_modulus_record_out_of_range(self, tmp_path, capsys):
        ms = RECORD_SETS[1]
        with pytest.raises(OutOfRange):
            parse_hybrid_record(HALF_M_RECORD, ms)
        path = tmp_path / "even.json"
        save_config(str(path), ms, TWO_CHANNEL[1], DEFAULT_PIPELINE)
        assert main(["--config", str(path), "decode", HALF_M_RECORD]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: OutOfRange: ")
        assert err.count("\n") == 1


class TestProgramFormat:
    def test_parse_round_trip(self):
        text = "hrfna-program v1\nlit a 1.5\nmul a a\nadd t0 a\n"
        ops = parse_program(text)
        assert [op.kind for op in ops] == ["lit", "mul", "add"]
        assert parse_program(program_text(ops)) == ops

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_program("lit a 1.0\n")

    def test_bad_lines(self):
        for line in ("frob a b", "lit a", "mul a", "lit a nope"):
            with pytest.raises(ParseError):
                parse_program(f"hrfna-program v1\n{line}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("mul a b c", "unrecognized program line 'mul a b c'"),
            ("lit a 1.0 x", "unrecognized program line 'lit a 1.0 x'"),
            ("mul", "unrecognized program line 'mul'"),
            ("div a b", "unrecognized program line 'div a b'"),
            ("  add a  ", "unrecognized program line 'add a'"),
            ("lit a nope", "bad literal value in 'lit a nope'"),
            # vectors_text starts each line with the name: '#' would read as a
            # comment and '|' as the expect separator.
            ("lit # 1.5", "bad literal name in 'lit # 1.5'"),
            ("lit | 1.5", "bad literal name in 'lit | 1.5'"),
            ("lit a,b 1.5", "bad literal name in 'lit a,b 1.5'"),
            ("lit 1a 1.5", "bad literal name in 'lit 1a 1.5'"),
        ],
    )
    def test_bad_line_messages(self, line, message):
        with pytest.raises(ParseError) as exc:
            parse_program(f"hrfna-program v1\nlit a 1.0\n{line}\nmul a a\n")
        assert str(exc.value) == message

    def test_header_message(self):
        for text in ("", "# only a comment\n\n", "lit a 1.0\nhrfna-program v1\n"):
            with pytest.raises(ParseError) as exc:
                parse_program(text)
            assert str(exc.value) == "program must start with 'hrfna-program v1'"

    def test_comments_blank_and_indented_lines(self):
        text = (
            "# a program\n\n   hrfna-program v1  \n\tlit a 1.5\n  # an indented comment\n"
            "\n  mul   a a\nadd t0 a   \n"
        )
        ops = parse_program(text)
        want = [Op("lit", name="a", value=1.5), Op("mul", args=("a", "a")), Op("add", args=("t0", "a"))]
        assert len(ops) == len(want)
        for op, ref in zip(ops, want):
            assert type(op) is Op and type(op.args) is tuple
            assert (op.kind, op.args, op.name, op.value) == (ref.kind, ref.args, ref.name, ref.value)
        assert ops[0].args == () and type(ops[0].value) is float
        assert ops[1].name == ops[2].name == "" and ops[1].value is ops[2].value is None
        assert parse_program(program_text(ops)) == ops


class TestVectors:
    def test_vectors_deterministic_and_parseable(self, default_ms, hcfg):
        program = parse_program("hrfna-program v1\nlit a 1.9\nmul a a\nmul t0 a\n")
        text1 = vectors_text(program, default_ms, hcfg)
        text2 = vectors_text(program, default_ms, hcfg)
        assert text1 == text2
        lines = text1.strip().splitlines()
        assert lines[0] == "# hrfna-vectors v1"
        # expect groups carry one hex residue per channel plus the exponent.
        mul_lines = [ln for ln in lines[1:] if " mul " in ln]
        assert len(mul_lines) == 2
        stimulus, expect = mul_lines[1].split(" | expect ")
        assert len(stimulus.split()) == 2 + 2 * 4  # id, kind, two operand groups
        assert expect.split()[-1] in ("0", "1")
        # The threshold-crossing product carries the normalization flag.
        assert mul_lines[1].endswith(" 1")

    def test_vector_expectations_match_arithmetic(self, default_ms, hcfg):
        from hrfna import make_hybrid, signed_value
        from hrfna.arithmetic import hrfna_mul

        program = parse_program("hrfna-program v1\nlit a 1.9\nmul a a\n")
        line = vectors_text(program, default_ms, hcfg).strip().splitlines()[-1]
        _, expect = line.split(" | expect ")
        *hexes, f_str, _flag = expect.split()
        residues = tuple(int(h, 16) for h in hexes)
        a = from_real(1.9, default_ms, hcfg)
        product = hrfna_mul(a, a, default_ms, hcfg)
        assert residues == product.mantissa.residues
        assert int(f_str) == product.exponent

    def test_wrong_operand_count_is_invalid_program(self, default_ms, hcfg):
        for args in (("a",), ("a", "a", "a")):
            program = [Op("lit", name="a", value=1.5), Op("add", args=args)]
            with pytest.raises(InvalidProgram, match=f"^add takes 2 operands, got {len(args)}$"):
                vectors_text(program, default_ms, hcfg)


class TestCli:
    def run(self, *argv):
        import io
        from contextlib import redirect_stderr, redirect_stdout

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_encode_decode_round_trip(self):
        code, record, _ = self.run("encode", "1.5")
        assert code == 0
        code, value, _ = self.run("decode", record.strip())
        assert code == 0
        assert float(value) == 1.5
        # decode-then-encode reproduces the canonical record.
        code, record2, _ = self.run("encode", value.strip())
        assert record2 == record

    def test_encode_decode_past_binary64(self, tmp_path, huge_ms):
        # b = 1100: 1.5's window mantissa is 3 * 2^1097, past binary64's range.
        cfg = HybridConfig(alpha=Fraction(1, 4), scale_shift_k=3, operand_bound_bits=1100)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config_to_dict(huge_ms, cfg, DEFAULT_PIPELINE)))
        code, record, err = self.run("--config", str(path), "encode", "1.5")
        assert (code, err) == (0, "")
        code, value, _ = self.run("--config", str(path), "decode", record.strip())
        assert (code, value) == (0, "1.5\n")

    def test_mul_add_commands(self):
        _, rec, _ = self.run("encode", "1.5")
        rec = rec.strip()
        code, product, _ = self.run("mul", rec, rec)
        assert code == 0
        _, squared, _ = self.run("decode", product.strip())
        assert float(squared) == 2.25
        code, total, _ = self.run("add", rec, rec)
        assert code == 0
        _, doubled, _ = self.run("decode", total.strip())
        assert float(doubled) == 3.0

    def test_mul_of_wrapping_records_fails_audit(self):
        # The record's mantissa is 2047^2; its square exceeds M/2 and would
        # wrap modulo M.
        rec = "hrfna-hybrid v1 bfe 400 401 0"
        code, out, err = self.run("mul", rec, rec)
        assert code == 1
        assert out == ""
        assert err == f"error: WrapDetected: {REFUSALS['mul'].format(44)}\n"
        assert err.count("\n") == 1

    def test_add_of_wrapping_records_fails_audit(self):
        # The record is floor(M/2) - 5; doubled it would wrap to -11.
        rec = "hrfna-hybrid v1 7f9 7fa 7f8 0"
        code, out, err = self.run("add", rec, rec)
        assert code == 1
        assert out == ""
        assert err == f"error: WrapDetected: {REFUSALS['add'].format(36)}\n"
        assert err.count("\n") == 1

    def test_add_across_huge_exponent_gap(self):
        # The smaller operand shifts down by about 10^12 bits and rounds to 0.
        big = "hrfna-hybrid v1 600 600 600 1000000000000"
        assert self.run("add", "hrfna-hybrid v1 9fd 9ff 9fb -10", big) == (0, big + "\n", "")

    def test_simulate_thousand_mul_fixture(self, tmp_path):
        program = ["hrfna-program v1", "lit a 1.5"] + ["mul a a"] * 1000
        path = tmp_path / "muls.prog"
        path.write_text("\n".join(program) + "\n")
        trace = tmp_path / "t.csv"
        metrics = tmp_path / "m.json"
        code, out, _ = self.run(
            "simulate", str(path), "--trace", str(trace), "--metrics", str(metrics)
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["achieved_ii"] == 1.0
        assert payload["stall_cycles"] == 0
        assert payload["format"] == "hrfna-metrics v1"
        header = trace.read_text().splitlines()
        assert header[0] == "# hrfna-trace v1"
        assert header[1] == "cycle,unit,action,op_id,value_hex"

    def test_workload_reports_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        code, _, _ = self.run("workload", "chained_mac", "--seed", "7", "--steps", "2000", "--out", str(a))
        assert code == 0
        code, _, _ = self.run("workload", "chained_mac", "--seed", "7", "--steps", "2000", "--out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["rel_error"] <= payload["bound"]
        assert payload["generator"] == "python-random-mt19937"
        assert payload["format"] == DRIFT_FORMAT

    def test_workload_drift_bound_error(self, tmp_path, default_ms, pcfg):
        path = tmp_path / "cfg.json"
        # alpha = 5/8192 puts the chain outside tau * 2^(b-1) < M: a product would wrap.
        cfg = HybridConfig(alpha=Fraction(5, 8192), scale_shift_k=11, operand_bound_bits=12)
        save_config(str(path), default_ms, cfg, pcfg)
        code, out, err = self.run(
            "--config", str(path), "workload", "chained_mac", "--seed", "0", "--steps", "3000"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: WrapDetected: {REFUSALS['mul'].format(36)}\n"
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "vectors"])
    def test_program_not_utf8_is_parse_error(self, tmp_path, command):
        path = tmp_path / "latin1.prog"
        path.write_bytes("hrfna-program v1\n# caf\u00e9\nlit a 1.5\nmul a a\n".encode("latin-1"))
        with pytest.raises(ParseError, match="is not UTF-8"):
            formats.load_program(str(path))
        code, out, err = self.run(command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: ParseError: program {path} is not UTF-8: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("latin1.prog.*"))  # simulate wrote no trace or metrics

    def test_vectors_command_deterministic(self, tmp_path):
        path = tmp_path / "p.prog"
        path.write_text("hrfna-program v1\nlit a 1.9\nmul a a\nmul t0 a\n")
        code, out1, _ = self.run("vectors", str(path))
        code2, out2, _ = self.run("vectors", str(path))
        assert code == code2 == 0
        assert out1 == out2

    def test_data_error_exit_code_and_message(self):
        code, _, err = self.run("decode", "garbage")
        assert code == 1
        assert err.startswith("error: ParseError:")
        assert err.count("\n") == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_entry_point_subprocess(self, tmp_path):
        # The installed console script behaves like main().
        proc = subprocess.run(
            [sys.executable, "-m", "hrfna", "encode", "2.0"],
            capture_output=True,
            text=True,
            env={**os.environ},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("hrfna-hybrid v1 ")

    def test_config_save_writes_what_it_prints(self, tmp_path):
        configs = RECORD_SETS[1], TWO_CHANNEL[1], PipelineConfig(norm_latency=10)
        source, saved = tmp_path / "source.json", tmp_path / "saved.json"
        save_config(str(source), *configs)
        code, out, err = self.run("--config", str(source), "config", "--save", str(saved))
        assert (code, err) == (0, "")
        assert saved.read_text() == out == source.read_text()
        assert load_config(str(saved)) == configs

    def test_config_command_uses_config_file(self, tmp_path, default_ms, hcfg, pcfg):
        path = tmp_path / "cfg.json"
        save_config(str(path), default_ms, hcfg, pcfg)
        code, out, _ = self.run("--config", str(path), "config")
        assert code == 0
        assert json.loads(out)["moduli"] == [4093, 4095, 4091]
