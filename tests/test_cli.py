"""Exit codes, error prefixes, text output, and the structured report."""

import json
import shutil
import subprocess
import sys

import pytest

from efrac import cli
from efrac.cli import render_report, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_argv():
    ef = shutil.which("ef")
    return [ef] if ef else [sys.executable, "-m", "efrac"]


class TestPlainOutput:
    def test_sylvester(self, capsys):
        code, out, err = invoke(capsys, "sylvester", "--terms", "4")
        assert (code, out, err) == (0, "2,3,7,43\n", "")

    def test_sum(self, capsys):
        code, out, _ = invoke(capsys, "sum", "--tuple", "2,3,9,42")
        assert code == 0
        assert out == "61/63\n"

    def test_verify(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--terms", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "optimum 41/42"
        assert lines[1] == "unique optimum = sylvester prefix"
        assert lines[2].startswith("nodes explored ")

    def test_certify(self, capsys):
        code, out, _ = invoke(capsys, "certify", "--tuple", "2,3,9,42")
        assert code == 0
        assert "equality no" in out
        assert "certificate valid" in out

    def test_certify_equality(self, capsys):
        code, out, _ = invoke(capsys, "certify", "--tuple", "2,3,7,43")
        assert code == 0
        assert "equality yes" in out

    def test_search_with_ties(self, capsys):
        code, out, _ = invoke(
            capsys, "search", "--terms", "2", "--target", "7/10"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "optimum 2/3"
        assert lines[1] == "optima 2,6"
        assert lines[2] == "optima 3,3"

    def test_prop_check(self, capsys):
        code, out, _ = invoke(
            capsys, "prop-check", "--x", "1/7,1/43", "--y", "1/9,1/42"
        )
        assert code == 0
        assert "hypotheses true" in out
        assert "dominates true" in out

    def test_muirhead(self, capsys):
        code, out, _ = invoke(
            capsys,
            "muirhead",
            "--alpha", "4,1",
            "--alpha-prime", "3,2",
            "--values", "2,3",
        )
        assert code == 0
        assert "majorizes true" in out
        assert "symmetric sum alpha 210" in out
        assert "symmetric sum alpha' 180" in out

    def test_fuzz_clean(self, capsys):
        code, out, _ = invoke(
            capsys, "fuzz", "--trials", "300", "--seed", "7"
        )
        assert code == 0
        assert out.startswith("no counterexample in 300 trials")

    def test_fuzz_diagnostic_mode(self, capsys):
        # with the filter off a violation turns up and is reported, but
        # diagnostic mode is not a failure
        code, out, err = invoke(
            capsys,
            "fuzz", "--trials", "2000", "--seed", "0", "--bound", "5",
            "--no-filter",
        )
        assert code == 0
        assert out.startswith("counterexample at trial ")
        assert err == ""


class TestErrorPaths:
    def test_unsorted_tuple(self, capsys):
        code, _, err = invoke(capsys, "certify", "--tuple", "3,2")
        assert code == 1
        assert err.startswith("error:NotSorted:")

    def test_sum_not_below_one(self, capsys):
        code, _, err = invoke(capsys, "sum", "--tuple", "2,2")
        assert code == 1
        assert err.startswith("error:SumNotBelowOne:")

    def test_term_too_small(self, capsys):
        code, _, err = invoke(capsys, "sum", "--tuple", "1,2")
        assert code == 1
        assert err.startswith("error:TermTooSmall:")

    def test_malformed_list(self, capsys):
        code, _, err = invoke(capsys, "sum", "--tuple", "2,x")
        assert code == 1
        assert err.startswith("error:Malformed:")

    def test_malformed_target(self, capsys):
        code, _, err = invoke(
            capsys, "search", "--terms", "2", "--target", "0.7"
        )
        assert code == 1
        assert err.startswith("error:Malformed:")

    def test_invalid_target_value(self, capsys):
        code, _, err = invoke(
            capsys, "search", "--terms", "2", "--target", "3/2"
        )
        assert code == 1
        assert err.startswith("error:InvalidInput:")

    def test_depth_cap(self, capsys):
        code, _, err = invoke(capsys, "search", "--terms", "9")
        assert code == 1
        assert err.startswith("error:DepthCapExceeded:")

    def test_raised_depth_cap_allows_the_run(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--terms", "6", "--max-depth", "9", "--workers", "4"
        )
        assert code == 0
        assert out.splitlines()[0] == "optimum 10650056950805/10650056950806"

    def test_muirhead_length_mismatch(self, capsys):
        code, _, err = invoke(
            capsys,
            "muirhead", "--alpha", "2,1", "--alpha-prime", "1,1",
            "--values", "2",
        )
        assert code == 1
        assert err.startswith("error:LengthMismatch:")

    def test_missing_required_flag(self, capsys):
        code, _, err = invoke(capsys, "search")
        assert code == 1
        assert err.startswith("error:Usage:")

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:Usage:")

    def test_negative_terms_flag(self, capsys):
        code, _, err = invoke(capsys, "sylvester", "--terms", "-3")
        assert code == 1
        assert err.startswith("error:Usage:")

    def test_unwritable_output_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = invoke(
            capsys, "sum", "--tuple", "2,3", "--output", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:WriteFailed:")
        assert len(err.splitlines()) == 1
        assert not path.exists()

    def test_verification_failure_exits_two(self, capsys, monkeypatch):
        # no honest input can make a verification fail, so fail the
        # dispatch seam itself to pin the exit-code contract
        def broken(cfg, args):
            return {}, [], "forced failure for the exit-code contract"

        monkeypatch.setitem(cli._HANDLERS, "verify", broken)
        code, _, err = invoke(capsys, "verify", "--terms", "1")
        assert code == 2
        assert err.startswith("error:VerificationFailed:")


class TestEnvironmentPrecedence:
    def test_env_cap_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("EF_MAX_TERMS", "3")
        code, _, err = invoke(capsys, "sylvester", "--terms", "5")
        assert code == 1
        assert err.startswith("error:CapExceeded:")

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EF_MAX_TERMS", "3")
        code, out, _ = invoke(
            capsys, "sylvester", "--terms", "5", "--max-terms", "5"
        )
        assert code == 0
        assert out == "2,3,7,43,1807\n"

    def test_env_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("EF_MAX_TERMS", "lots")
        code, _, err = invoke(capsys, "sylvester", "--terms", "2")
        assert code == 1
        assert err.startswith("error:Malformed:")


class TestStructuredOutput:
    def test_reports_round_trip_byte_identically(self, capsys):
        for argv in (
            ("sylvester", "--terms", "5"),
            ("sum", "--tuple", "2,3,9,42"),
            ("certify", "--tuple", "2,3,9,42"),
            ("search", "--terms", "2", "--target", "7/10"),
            ("verify", "--terms", "3"),
            ("fuzz", "--trials", "50"),
        ):
            code, out, _ = invoke(capsys, *argv, "--format", "structured")
            assert code == 0
            assert render_report(json.loads(out)) == out

    def test_big_integers_are_strings(self, capsys):
        _, out, _ = invoke(
            capsys, "sylvester", "--terms", "8", "--format", "structured"
        )
        result = json.loads(out)["result"]
        seventh = 3263443**2 - 3263443 + 1
        assert result["terms"][6] == str(seventh)
        assert result["terms"][7] == str(seventh**2 - seventh + 1)
        assert isinstance(result["k"], int)

    def test_certificate_schema(self, capsys):
        _, out, _ = invoke(
            capsys, "certify", "--tuple", "2,3,9,42", "--format", "structured"
        )
        cert = json.loads(out)["result"]["certificate"]
        assert cert["kind"] == "split"
        assert cert["ell"] == 3
        assert cert["chain"] == [["9", "7"], ["378", "301"]]
        assert cert["deficit_witness"] == ["42", "43"]
        assert cert["head"]["kind"] == "split"
        assert cert["head"]["head"]["head"]["kind"] == "empty"

    def test_deficit_certificate_schema(self, capsys):
        _, out, _ = invoke(
            capsys, "certify", "--tuple", "2,3,11,14", "--format", "structured"
        )
        cert = json.loads(out)["result"]["certificate"]
        assert cert["kind"] == "product_deficit"
        assert cert["b_product"] == "924"
        assert cert["a_product"] == "1806"

    def test_config_reflects_effective_settings(self, capsys, monkeypatch):
        monkeypatch.setenv("EF_MAX_TERMS", "10")
        _, out, _ = invoke(
            capsys, "sylvester", "--terms", "4", "--format", "structured"
        )
        assert json.loads(out)["config"]["max_sylvester_terms"] == 10

    def test_worker_count_never_reaches_the_report(self, capsys):
        _, one, _ = invoke(
            capsys, "verify", "--terms", "4", "--format", "structured"
        )
        _, four, _ = invoke(
            capsys,
            "verify", "--terms", "4", "--workers", "4", "--format", "structured",
        )
        assert one == four

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "verify", "--terms", "3", "--output", str(path)
        )
        assert code == 0
        assert out.splitlines()[0] == "optimum 41/42"
        written = path.read_text(encoding="utf-8")
        assert render_report(json.loads(written)) == written
        assert json.loads(written)["command"] == "verify"


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "efrac", "sylvester", "--terms", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2,3,7,43\n"

    @pytest.mark.skipif(shutil.which("ef") is None, reason="ef not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["ef", "verify", "--terms", "2"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "optimum 5/6"

    def test_help_exits_zero(self):
        proc = subprocess.run(
            cli_argv() + ["--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "sylvester" in proc.stdout
