import hashlib
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from lahbell.cli import main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("lahbell").joinpath("schemas/cli_output.schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_lah_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "lah", "--n-max", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["1", "0,1", "0,2,1", "0,6,6,1"]
        assert out.rstrip("\n").endswith("6,6,1")

    def test_s1_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "s1", "--n-max", "0", "--format", "csv")
        assert code == 0
        assert out == "1\n"

    def test_lahbell_numbers_json(self, capsys, schema):
        code, out, _ = run_cli(capsys, "table", "lahbell-numbers", "--n-max", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload == [1, 1, 3, 13, 73]
        jsonschema.validate(payload, schema)

    def test_triangle_json_schema(self, capsys, schema):
        code, out, _ = run_cli(capsys, "table", "s2", "--n-max", "5")
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "table", "lah", "--n-max", "201")
        assert code == 3
        assert "cap" in err

    def test_cap_can_be_raised(self, capsys):
        code, out, _ = run_cli(capsys, "table", "lah", "--n-max", "201", "--cap", "250", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 202

    def test_bad_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "nope", "--n-max", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("lah",),
            ("s1",),
            ("lahbell-numbers", "--format", "csv"),
        ],
    )
    def test_entry_too_large_to_print_is_domain_error(self, capsys, argv):
        # row 330 holds entries of about 690 digits, beyond a 640-digit limit
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "table", *argv, "--n-max", "330", "--cap", "330")
        finally:
            sys.set_int_max_str_digits(previous)
        assert code == 4
        assert out == ""
        assert "too large to print" in err


class TestPoly:
    def test_lahbell_eval(self, capsys, schema):
        code, out, _ = run_cli(capsys, "poly", "lahbell", "--n", "3", "--eval-at", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "44"
        assert payload["variable"] == "x"
        jsonschema.validate(payload, schema)

    def test_degenerate_lahbell_eval(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "poly", "dlahbell", "--n", "2", "--lambda", "1/2", "--eval-at", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "14/9"
        assert payload["variable"] == "y"
        assert payload["coefficients"] == ["0", "2", "1/2"]
        jsonschema.validate(payload, schema)

    def test_bell_constant(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "bell", "--n", "0")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["1"]

    def test_missing_lambda(self, capsys):
        code, _, err = run_cli(capsys, "poly", "dbell", "--n", "2")
        assert code == 2
        assert "--lambda" in err

    def test_evaluation_pole_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "poly", "dlahbell", "--n", "2", "--lambda", "1/2", "--eval-at", "-2"
        )
        assert code == 4

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "lahbell", "--n", "3", "--eval-at", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["x,0,6,6,1", "value,44"]

    def test_result_too_large_to_print_is_domain_error(self, capsys):
        # the value has over 6000 digits, beyond Python's int-to-str limit
        code, out, err = run_cli(capsys, "poly", "lahbell", "--n", "2", "--eval-at", "1" + "0" * 3000)
        assert code == 4
        assert out == ""
        assert "too large to print" in err


class TestVerify:
    def test_stirling_suite_passes(self, capsys, schema):
        code, out, _ = run_cli(capsys, "verify", "stirling", "--n-max", "12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for line in lines:
            report = json.loads(line)
            jsonschema.validate(report, schema)
            assert report["status"] == "PASS"
            assert report["discrepancy"] == "0"

    def test_all_suite_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--trials", "20000")
        assert code == 0
        assert all(json.loads(line)["status"] == "PASS" for line in out.splitlines())

    def test_failure_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "dpoisson", "--trials", "5000", "--z-threshold", "1e-12"
        )
        assert code == 1
        statuses = {json.loads(line)["status"] for line in out.splitlines()}
        assert "FAIL" in statuses

    def test_csv_format_has_header(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "stirling", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("identity,mode,status")
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ("stirling", "--n-max", "-1"),
            ("dbinomial", "--n-max", "-1"),
            ("dpoisson", "--z-threshold", "nan"),
            ("dpoisson", "--z-threshold", "-1"),
        ],
    )
    def test_invalid_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --")


class TestSimulate:
    def test_degenerate_poisson_mean(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "dpoisson", "--alpha", "1", "--lambda", "1/2",
            "--moment", "raw", "--order", "1", "--samples", "20000", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "2/3"
        assert abs(payload["z"]) <= 5
        jsonschema.validate(payload, schema)

    def test_poisson_rising_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "poisson", "--alpha", "2",
            "--moment", "rising", "--order", "3", "--samples", "50000", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "44"
        assert abs(payload["z"]) <= 5

    def test_signed_mass_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--dist", "dbinomial", "--n", "3", "--p", "1/10",
            "--lambda", "2/5", "--samples", "1000",
        )
        assert code == 5
        assert "index 2" in err

    def test_missing_required_params(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--dist", "dbinomial", "--samples", "1000")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "binomial", "--n", "4", "--p", "1/2",
            "--samples", "5000", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("distribution,moment")
        assert lines[1].startswith("binomial,raw")


class TestByteIdenticalOutput:
    def test_simulate_reruns_identical(self):
        argv = [
            sys.executable, "-m", "lahbell", "simulate", "--dist", "dpoisson",
            "--alpha", "1", "--lambda", "1/2", "--moment", "raw", "--order", "1",
            "--samples", "50000", "--seed", "42",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout

    def test_verify_reruns_identical(self):
        argv = [
            sys.executable, "-m", "lahbell", "verify", "dpoisson",
            "--trials", "20000", "--seed", "1",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout


class TestPinnedExactOutput:
    # sha256 of the EXACT-mode lines of `lahbell verify all --seed 0`, each
    # newline-terminated. Those lines hold only rationals, so the digest is
    # the same on every machine and numpy version.
    VERIFY_ALL_EXACT_SHA256 = "e2bd5ec05d383c15652ef58d70a54e3f35e00c5308c78e1de289af148ca8f596"

    def test_verify_all_exact_lines_digest(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "0")
        assert code == 0
        exact = [line for line in out.splitlines() if json.loads(line)["mode"] == "EXACT"]
        assert len(exact) == 79
        digest = hashlib.sha256("".join(line + "\n" for line in exact).encode()).hexdigest()
        assert digest == self.VERIFY_ALL_EXACT_SHA256

    # sha256 of the whole stdout of two deeper runs. The lahbell suite is all
    # EXACT lines up to n = 30; the dpoisson suite also holds the statistical
    # lines, whose floats come from numpy's PCG64 stream for the seed.
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("lahbell", "--seed", "4", "--n-max", "30", "--trials", "1000"),
             "2cac86d32b68ac951cada0b46b98f2d91da7712a805d4906cb023030b8613cfa"),
            (("dpoisson", "--seed", "2"),
             "b2eea36acc42bbfe7d782aad2aec1b4d999e27e1f42da0e498eedb3f60f470b7"),
        ],
    )
    def test_verify_stdout_digest(self, capsys, argv, sha256):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
