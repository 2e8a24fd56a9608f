"""Exit codes, error prefixes, text output, and the structured report."""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from efrac import cli, sylvester
from efrac.cli import render_report, run
from efrac.search import MAX_DEPTH
from tests.conftest import int_str_limit, needs_int_str_limit

GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_verify_seven_terms_under_the_default_depth_cap(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--terms", "7")
        assert code == 0
        prod = sylvester(7).running_product
        assert out.splitlines()[:2] == [
            f"optimum {prod - 1}/{prod}",
            "unique optimum = sylvester prefix",
        ]

    def test_verify_eight_terms_under_the_default_depth_cap(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--terms", "8")
        assert code == 0
        prod = sylvester(8).running_product
        assert out.splitlines() == [
            f"optimum {prod - 1}/{prod}",
            "unique optimum = sylvester prefix",
            "nodes explored 465",
        ]

    def test_certify(self, capsys):
        code, out, _ = invoke(capsys, "certify", "--tuple", "2,3,9,42")
        assert code == 0
        assert "equality no" in out
        assert "certificate valid" in out

    def test_certify_equality(self, capsys):
        code, out, _ = invoke(capsys, "certify", "--tuple", "2,3,7,43")
        assert code == 0
        assert "equality yes" in out

    def test_plain_certify_renders_no_certificate(self, capsys, monkeypatch):
        # the plain lines print no certificate field, so the certificate
        # is rendered only into a structured report
        def refuse(cert):
            raise AssertionError("certificate rendered for plain output")

        monkeypatch.setattr(cli, "certificate_to_dict", refuse)
        code, out, err = invoke(capsys, "certify", "--tuple", "2,3,9,42")
        assert (code, err) == (0, "")
        assert out.endswith("\ncertificate valid\n")

    def test_plain_sylvester_sums_nothing(self, capsys, monkeypatch):
        # the plain line prints only the terms, so the sum, the product
        # and the shortfall are rendered only into a structured report
        def refuse(terms):
            raise AssertionError("prefix summed for plain output")

        monkeypatch.setattr(cli, "sum_reciprocals", refuse)
        code, out, err = invoke(capsys, "sylvester", "--terms", "6")
        assert (code, out, err) == (0, "2,3,7,43,1807,3263443\n", "")

    @pytest.mark.parametrize(
        "fmt,terms,calls",
        [
            # the tuple's sum and the Sylvester sum
            ("plain", "2,3,9,42", 2),
            ("structured", "2,3,9,42", 2),
            # on the Sylvester prefix the two sums are equal
            ("plain", "2,3,7,43", 1),
            ("structured", "2,3,7,43", 1),
        ],
        ids=["plain", "structured", "plain-prefix", "structured-prefix"],
    )
    def test_certify_formats_each_sum_once(
        self, capsys, monkeypatch, fmt, terms, calls
    ):
        # a sum of a long tuple takes seconds to format in decimal
        real = cli.format_rational
        formatted = []

        def counting(value):
            formatted.append(value)
            return real(value)

        monkeypatch.setattr(cli, "format_rational", counting)
        code, _, _ = invoke(capsys, "certify", "--tuple", terms, "--format", fmt)
        assert code == 0
        assert len(formatted) == calls

    @pytest.mark.parametrize(
        "fmt,to_file,calls",
        [
            # the structured report formats the terms in certificate_to_dict
            ("plain", False, 1),
            ("structured", False, 0),
            # with --output the plain lines are printed as well
            ("plain", True, 1),
            ("structured", True, 1),
        ],
        ids=["plain", "structured", "plain-output", "structured-output"],
    )
    def test_certify_formats_the_plain_terms_only_when_printed(
        self, capsys, monkeypatch, tmp_path, fmt, to_file, calls
    ):
        real = cli.format_int_list
        formatted = []

        def counting(values):
            formatted.append(values)
            return real(values)

        monkeypatch.setattr(cli, "format_int_list", counting)
        argv = ["certify", "--tuple", "2,3,9,42", "--format", fmt]
        if to_file:
            argv += ["--output", str(tmp_path / "report.json")]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert len(formatted) == calls
        assert out.startswith("terms 2,3,9,42\n") == bool(calls)

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
        # refused from k alone, before the search or the Sylvester prefix,
        # so the term budget of 22 is never reached
        for command in ("search", "verify"):
            for k in (MAX_DEPTH + 1, 23, 40, 65):
                code, out, err = invoke(capsys, command, "--terms", str(k))
                assert (code, out) == (1, "")
                assert len(err.splitlines()) == 1
                assert err.startswith("error:DepthCapExceeded:")

    def test_muirhead_length_mismatch(self, capsys):
        code, _, err = invoke(
            capsys,
            "muirhead", "--alpha", "2,1", "--alpha-prime", "1,1",
            "--values", "2",
        )
        assert code == 1
        assert err.startswith("error:LengthMismatch:")

    def test_muirhead_bit_budget_ends_at_once(self, capsys):
        # one huge power, and eight values whose 8! products are each
        # inside the bit budget but together are not
        for alpha, values in (
            ("2000000", "3/2"),
            ("1023,0,0,0,0,0,0,0", ",".join(["3/2"] * 8)),
            ("4095,0,0,0,0,0,0,0", ",".join(["3/2"] * 8)),
        ):
            code, out, err = invoke(
                capsys,
                "muirhead", "--alpha", alpha, "--alpha-prime", alpha,
                "--values", values,
            )
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("error:CapExceeded:")

    @pytest.mark.parametrize(
        "size",
        [
            ("--n-max", "1000000000"),
            ("--n-max", "4000000"),
            ("--n-max", "13108", "--bound", "31"),
            ("--n-max", "100", "--bound", str(10**4000), "--no-filter"),
        ],
        ids=["n-max-1e9", "n-max-4e6", "just-over", "long-bound"],
    )
    def test_fuzz_work_budget_ends_at_once(self, capsys, size):
        # each would draw, multiply and sum more than 65,536 bits per side
        # in one trial; the cap is checked from the arguments alone
        start = time.perf_counter()
        code, out, err = invoke(capsys, "fuzz", "--trials", "20", *size)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:CapExceeded:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "--tuple", ",".join(["31"] * 30)),
            ("sylvester", "--terms", "23"),
        ],
        ids=["certify", "sylvester"],
    )
    def test_term_cap_ends_at_once(self, capsys, argv):
        # each would need the 30- or 23-term Sylvester prefix, which is
        # refused from k alone before any of it is built
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:CapExceeded:")

    def test_removed_term_cap_flag_is_a_usage_error(self, capsys):
        for command, flag, value in (
            ("sylvester", "--max-terms", "5"),
            ("verify", "--max-depth", "13"),
            ("search", "--workers", "2"),
            ("verify", "--workers", "2"),
        ):
            code, out, err = invoke(capsys, command, "--terms", "3", flag, value)
            assert (code, out) == (1, "")
            assert err.startswith(f"error:Usage: unrecognized arguments: {flag}")

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
        def broken(args):
            return {}, [], "forced failure for the exit-code contract"

        monkeypatch.setitem(cli._HANDLERS, "verify", broken)
        code, _, err = invoke(capsys, "verify", "--terms", "1")
        assert code == 2
        assert err.startswith("error:VerificationFailed:")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_invalid_certificate_exits_two(self, capsys, monkeypatch, fmt):
        # the builder checks nothing, so a builder bug reaches ef only
        # through the validator's verdict
        real = cli.build_certificate

        def flipped(terms):
            cert = real(terms)
            return replace(cert, is_equality=not cert.is_equality)

        monkeypatch.setattr(cli, "build_certificate", flipped)
        code, out, err = invoke(
            capsys, "certify", "--tuple", "2,3,9,42", "--format", fmt
        )
        reason = "equality_flag_inconsistent"
        assert code == 2
        assert err == (
            f"error:VerificationFailed: certificate failed validation: {reason}\n"
        )
        if fmt == "plain":
            assert out.endswith("\ncertificate INVALID\n")
        else:
            result = json.loads(out)["result"]
            assert (result["valid"], result["reason"]) == (False, reason)

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_closed_stdout_pipe(self, fmt):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "efrac", "verify", "--terms", "8"]
                + ["--format", fmt],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:WriteFailed: "), lines


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

    @needs_int_str_limit
    def test_integers_past_the_int_str_digit_limit(self, capsys):
        # the 15-term product has 22,158 bits, about 6,670 digits
        with int_str_limit(4300):
            code, out, err = invoke(
                capsys, "sylvester", "--terms", "15", "--format", "structured"
            )
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        prod = 1
        for _ in range(15):
            prod *= prod + 1
        with int_str_limit(0):
            assert result["running_product"] == str(prod)
            assert result["shortfall"] == f"1/{prod}"

    @needs_int_str_limit
    def test_terms_past_the_int_str_digit_limit_read_back(self, capsys):
        # the 16th term has 6,671 digits; what `ef sylvester` prints,
        # `ef certify` must read
        with int_str_limit(4300):
            code, out, _ = invoke(capsys, "sylvester", "--terms", "16")
            assert code == 0
            code, out, err = invoke(
                capsys, "certify", "--tuple", out.strip(), "--format", "structured"
            )
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["is_equality"], result["valid"]) == (True, True)

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


class TestGoldenReports:
    """The full structured report of one invocation per subcommand."""

    CASES = {
        "sylvester": ("sylvester", "--terms", "5"),
        "sum": ("sum", "--tuple", "2,3,9,42"),
        "certify": ("certify", "--tuple", "2,3,9,42"),
        "search": ("search", "--terms", "3", "--target", "12/13"),
        "verify": ("verify", "--terms", "4"),
        "prop-check": ("prop-check", "--x", "1/7,1/43", "--y", "1/9,1/42"),
        "muirhead": (
            "muirhead", "--alpha", "4,1", "--alpha-prime", "3,2", "--values", "2,3"
        ),
        "fuzz": (
            "fuzz", "--trials", "2000", "--seed", "5", "--bound", "5", "--no-filter"
        ),
    }

    def test_every_subcommand_is_pinned(self):
        assert sorted(self.CASES) == sorted(cli._HANDLERS)

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_report_is_byte_identical(self, capsys, command):
        code, out, err = invoke(
            capsys, *self.CASES[command], "--format", "structured"
        )
        assert (code, err) == (0, "")
        golden = GOLDEN / f"{command}.json"
        assert out == golden.read_text(encoding="utf-8")


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
