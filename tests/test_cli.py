"""CLI surface: output formats, determinism, exit codes."""

import json

import pytest

from dlg2k import cli
from dlg2k.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from dlg2k.oracle import TestVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_json_example(self, capsys):
        code, out, _ = run(capsys, "factor", "--k", "5", "--base", "0x3", "--x", "0xc")
        assert code == EXIT_OK
        assert out == '{"s":0,"p":2,"e":"1","k":5}\n'

    def test_zero_sentinel(self, capsys):
        code, out, _ = run(capsys, "factor", "--k", "5", "--x", "0x0")
        assert code == EXIT_OK
        assert json.loads(out) == {"s": 0, "p": 5, "e": "0", "k": 5}

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "factor", "--k", "5", "--x", "0x7", "--format", "plain")
        assert code == EXIT_OK
        assert out == "s=1 p=0 e=6\n"

    def test_default_base_is_3(self, capsys):
        code, out, _ = run(capsys, "factor", "--k", "5", "--x", "0x11")
        assert json.loads(out)["e"] == "4"

    def test_invalid_base_exits_2_naming_the_rule(self, capsys):
        code, _, err = run(capsys, "factor", "--k", "5", "--base", "0x7", "--x", "0x3")
        assert code == EXIT_USAGE
        assert "(mod 8)" in err

    def test_malformed_hex_exits_2(self, capsys):
        code, _, err = run(capsys, "factor", "--k", "5", "--x", "12")
        assert code == EXIT_USAGE
        assert "0x" in err

    def test_width_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "factor", "--k", "2", "--x", "0x1")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "factor", "--k", "5000", "--x", "0x1")
        assert code == EXIT_USAGE


class TestDecode:
    def test_plain_example(self, capsys):
        code, out, _ = run(capsys, "decode", "--k", "5", "--base", "0x3",
                           "--s", "1", "--p", "0", "--e", "6")
        assert code == EXIT_OK
        assert out == "0x7\n"

    def test_zero_sentinel(self, capsys):
        code, out, _ = run(capsys, "decode", "--k", "5", "--s", "0", "--p", "5", "--e", "0")
        assert out == "0x0\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "decode", "--k", "5", "--s", "0", "--p", "2", "--e", "1",
                           "--format", "json")
        assert json.loads(out) == {"x": "0xc", "k": 5}

    def test_out_of_range_exponent_exits_2(self, capsys):
        code, _, err = run(capsys, "decode", "--k", "5", "--s", "0", "--p", "0", "--e", "8")
        assert code == EXIT_USAGE
        assert "exponent" in err

    def test_round_trips_factor_output(self, capsys):
        for x in range(64):
            code, out, _ = run(capsys, "factor", "--k", "6", "--x", hex(x))
            assert code == EXIT_OK
            t = json.loads(out)
            code, out, _ = run(capsys, "decode", "--k", "6",
                               "--s", str(t["s"]), "--p", str(t["p"]), "--e", t["e"])
            assert code == EXIT_OK
            assert out.strip() == hex(x)


class TestRoots:
    def test_plain_list(self, capsys):
        code, out, _ = run(capsys, "roots", "--k", "3")
        assert code == EXIT_OK
        assert out.splitlines() == ["0x3", "0x5"]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "roots", "--k", "5", "--count-only")
        assert out == "8\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "roots", "--k", "4", "--format", "json")
        assert json.loads(out) == {"k": 4, "roots": ["0x3", "0x5", "0xb", "0xd"]}

    def test_width_past_enumeration_limit_exits_2(self, capsys):
        code, _, _ = run(capsys, "roots", "--k", "20")
        assert code == EXIT_USAGE


class TestVerify:
    def test_exhaustive_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3..5", "--exhaustive")
        assert code == EXIT_OK
        assert "k=3: checked 8 (base, A) pairs, 0 mismatches" in out
        assert "k=5: checked 128 (base, A) pairs, 0 mismatches" in out
        assert "total: 168 pairs checked, 0 mismatches" in out

    def test_exhaustive_past_10_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--k", "11", "--exhaustive")
        assert code == EXIT_USAGE

    def test_sampled_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--k", "32", "--samples", "20", "--seed", "9")
        code2, out2, _ = run(capsys, "verify", "--k", "32", "--samples", "20", "--seed", "9")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert "0 failures" in out1

    def test_sampled_wide(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "257", "--samples", "10")
        assert code == EXIT_OK
        assert "k=257: checked 20 (base, A) samples, 0 failures" in out

    def test_mode_must_be_chosen(self, capsys):
        code, _, _ = run(capsys, "verify", "--k", "5")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "verify", "--k", "5", "--exhaustive", "--samples", "3")
        assert code == EXIT_USAGE

    def test_bad_range_syntax_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--k", "5..x", "--exhaustive")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "verify", "--k", "7..5", "--exhaustive")
        assert code == EXIT_USAGE


class TestVectors:
    def test_exhaustive_stream(self, capsys):
        code, out, _ = run(capsys, "vectors", "--k", "5", "--exhaustive")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 32
        vecs = [TestVector.from_json_line(line) for line in lines]
        assert all(v.holds() for v in vecs)
        assert lines[7] == '{"k":5,"h":"0x3","x":"0x7","s":1,"p":0,"e":"6"}'

    def test_sampled_deterministic(self, capsys):
        args = ("vectors", "--k", "64", "--samples", "5", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert len(out1.splitlines()) == 5

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "vec.jsonl"
        code, out, _ = run(capsys, "vectors", "--k", "4", "--exhaustive", "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        lines = path.read_text().splitlines()
        assert len(lines) == 16
        assert all(TestVector.from_json_line(line).holds() for line in lines)

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "vectors", "--k", "4", "--exhaustive",
                           "--out", str(tmp_path / "nope" / "vec.jsonl"))
        assert code == EXIT_RUNTIME
        assert err

    def test_mode_must_be_chosen(self, capsys):
        code, _, _ = run(capsys, "vectors", "--k", "5")
        assert code == EXIT_USAGE


class TestBench:
    def test_reports_count_bound(self, capsys):
        code, out, _ = run(capsys, "bench", "--k", "16", "--samples", "5")
        assert code == EXIT_OK
        assert "(bound 28)" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bench", "--k", "64", "--samples", "3", "--format", "json")
        obj = json.loads(out)
        assert obj["k"] == 64
        assert obj["samples"] == 3
        assert obj["max_muls"] <= obj["bound"] == 124


class TestArgparseBehavior:
    def test_no_command_exits_2(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_unknown_flag_exits_2(self, capsys):
        assert run(capsys, "roots", "--k", "4", "--frob")[0] == EXIT_USAGE

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK


class TestOneSubcommandParser:
    MATRIX = [
        [],
        ["--help"],
        ["-h"],
        ["factor", "--help"],
        ["decode", "-h"],
        ["vectors", "--help"],
        ["frobnicate"],
        ["factor", "--k", "5"],
        ["decode", "--k", "5", "--s", "0", "--p", "0"],
        ["factor", "--k", "five", "--x", "0x3"],
        ["factor", "--k", "5", "--format", "xml", "--x", "0x3"],
        ["factor", "--k", "5", "--x", "0x3", "extra"],
        ["factor", "--k", "5", "--x", "0x3", "--frob"],
        ["roots", "--k", "4", "--frob"],
        ["factor", "--k", "5", "--x", "0xc"],
        ["decode", "--k", "5", "--s", "1", "--p", "0", "--e", "6"],
        ["verify", "--k", "3..4", "--exhaustive"],
    ]

    @pytest.mark.parametrize("argv", MATRIX, ids=lambda argv: " ".join(argv) or "<none>")
    def test_matches_the_full_parser(self, capsys, monkeypatch, argv):
        got = run(capsys, *argv)
        monkeypatch.setattr(cli, "parse_args", lambda a: cli.build_parser().parse_args(a))
        assert got == run(capsys, *argv)

    def test_subcommand_builds_only_its_own_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("built the full parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, "factor", "--k", "5", "--x", "0xc")[:2] == (EXIT_OK, '{"s":0,"p":2,"e":"1","k":5}\n')

    def test_namespace_matches_the_full_parser(self):
        argv = ["vectors", "--k", "8", "--samples", "3", "--seed", "2"]
        assert cli.parse_args(argv) == cli.build_parser().parse_args(argv)
