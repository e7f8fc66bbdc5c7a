import hashlib
import json
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from lahbell import cli
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
        # row 330 holds entries of about 690 digits, beyond a 640-digit limit;
        # row 1700 is refused under the default limit before any row is built
        previous = sys.get_int_max_str_digits()
        for limit, n_max in ((640, 330), (sys.int_info.default_max_str_digits, 1700)):
            sys.set_int_max_str_digits(limit)
            start = time.perf_counter()
            try:
                code, out, err = run_cli(capsys, "table", *argv, "--n-max", str(n_max), "--cap", str(n_max))
            finally:
                sys.set_int_max_str_digits(previous)
            assert time.perf_counter() - start < 2.0
            assert code == 4
            assert out == ""
            assert "too large to print" in err

    def test_s2_entry_too_large_is_caught_after_the_rows(self, capsys):
        # row 410 holds an entry of 663 digits, but the bound S2(n,k) >= k**(n-k)
        # promises only 629, so this row is caught at print time
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "table", "s2", "--n-max", "410", "--cap", "410")
        finally:
            sys.set_int_max_str_digits(previous)
        assert code == 4
        assert out == ""
        assert "too large to print" in err

    def test_s2_entry_beyond_the_bound_is_refused_before_the_rows(self, capsys):
        # S2(2600, k) >= k**(2600-k) has over 5700 digits at some k, beyond the
        # default 4300-digit limit; building the rows first took 207 s on a 2-vCPU VM
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "table", "s2", "--n-max", "2600", "--cap", "2600")
        assert time.perf_counter() - start < 0.5
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

    def test_large_degenerate_order_is_bounded(self, capsys):
        # about 1.0 s on a 2-vCPU VM with empty triangle caches: the 1001
        # coefficients are Fraction products of up to 1000 degenerate factors
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "poly", "dlahbell", "--n", "1000", "--lambda", "2/7919")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == 1001

    @pytest.mark.parametrize(
        "argv",
        [
            ("dlahbell", "--n", "1500", "--lambda", "2/7919"),
            ("dbell", "--n", "1500", "--lambda", "2/7919"),
            ("lahbell", "--n", "1700"),
            ("dlahbell", "--n", "1700", "--lambda", "1/3"),
            ("bell", "--n", "2600"),
        ],
    )
    def test_oversized_coefficient_is_refused_before_the_build(self, capsys, argv):
        # (1)_{1500,2/7919} has over 5000 digits, L(1700, 1) = 1700! about
        # 4750 (at lam = 1/3 the degree-1700 weight vanishes, coefficient 1 does
        # not) and S2(2600, k) >= k**(2600-k) over 5700 at some k, beyond the
        # default 4300-digit limit; building the rows first took 2-14 s on a
        # 2-vCPU VM
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "poly", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert out == ""
        assert "too large to print" in err

    @pytest.mark.parametrize("flag", ["--eval-at", "--lambda"])
    def test_oversized_rational_argument_is_a_usage_error(self, capsys, flag):
        # Fraction("1e3000000") built a 3-million-digit integer: 7.9 s on a
        # 2-vCPU VM before `poly` exited 4
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(["poly", "dlahbell", "--n", "2", "--lambda", "1/2", flag, "1e3000000"])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "decimal exponent" in captured.err

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


    @pytest.mark.parametrize(
        "argv",
        [("stirling", "--seed", "-1"), ("lahbell", "--seed", str(2**64))],
        ids=["negative", "past-64-bits"],
    )
    def test_out_of_range_seed_is_usage_error(self, capsys, argv):
        # exact-only suites draw no samples, yet a seed no stream can take
        # still fails before anything is printed
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


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

    @pytest.mark.parametrize("alpha", ["717", "730", "740", "745", "800"])
    def test_large_alpha_poisson_exits_4(self, capsys, alpha):
        # exp(-alpha) < 2**-1034 has too few significant bits for the tail
        # coverage; 740 and 745 used to exit 0 with z = -2.7 and -156.5
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", "--dist", "poisson", "--alpha", alpha, "--samples", "20000", "--seed", "1"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert "significant bits" in err

    def test_alpha_with_no_float_exits_4(self, capsys):
        # float(alpha) raised a bare OverflowError (exit 1 with a traceback);
        # the start mass exp(-alpha) is now 0.0, refused as at alpha 745
        code, out, err = run_cli(capsys, "simulate", "--dist", "poisson", "--alpha", "1e400", "--samples", "10")
        assert (code, out) == (4, "")
        assert "start mass exp(-alpha) = 0.0" in err and "Traceback" not in err

    def test_alpha_716_poisson_stdout_digest(self, capsys):
        # the largest integer alpha that still samples; stdout pinned before
        # the start-mass bound went in, re-pinned when the reduction became
        # exact (standard_error and z moved by one ulp)
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "poisson", "--alpha", "716", "--samples", "20000", "--seed", "1"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "12911913cd3c90852df2beb0e5b94ecc1b77f754e2e6224a16e9377119bb1daf"
        )

    def test_sample_moment_past_the_float_range_exits_4(self, capsys):
        # the float reduction overflowed to inf and z_score raised a bare
        # OverflowError (exit 1 with a traceback)
        code, out, err = run_cli(
            capsys, "simulate", "--dist", "poisson", "--alpha", "2", "--order", "400", "--samples", "1000"
        )
        assert (code, out) == (4, "")
        assert "float range" in err and "Traceback" not in err

    @pytest.mark.parametrize("order", ["215", "230", "260"])
    def test_target_past_the_float_range_exits_4(self, capsys, order):
        # the estimate is a float but the exact target is not: z_score's
        # float(target) raised a bare OverflowError (exit 1 with a traceback)
        code, out, err = run_cli(
            capsys, "simulate", "--dist", "poisson", "--alpha", "2", "--moment", "raw",
            "--order", order, "--samples", "1000",
        )
        assert (code, out) == (4, "")
        assert "target outside the float range" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dist", "dpoisson", "--alpha", "1", "--lambda", "1/100000000000000000000"],
            ["--dist", "binomial", "--n", "100000000000000000000", "--p", "1/2"],
        ],
        ids=["dpoisson", "binomial"],
    )
    def test_support_past_the_index_range_exits_4(self, capsys, argv):
        # the mass table raised a bare OverflowError (exit 1 with a traceback)
        code, out, err = run_cli(capsys, "simulate", *argv, "--samples", "10")
        assert (code, out) == (4, "")
        assert "index range" in err and "Traceback" not in err

    def test_negative_binomial_size_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--dist", "binomial", "--n", "-1", "--p", "1/2")
        assert (code, out, err) == (2, "", "error: n must be a nonnegative integer\n")

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

    def test_infinite_z_is_strict_json(self, capsys, schema):
        # every draw is 0, so the standard error is 0 and the target 1/1000000
        # is missed: z is infinite, and json.dumps wrote a bare Infinity,
        # which strict parsers reject; it is the string "inf", as in csv
        argv = ("simulate", "--dist", "poisson", "--alpha", "1/1000000", "--samples", "2", "--seed", "1")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out, parse_constant=refuse)
        assert (payload["standard_error"], payload["z"]) == (0.0, "inf")
        jsonschema.validate(payload, schema)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and out.splitlines()[1].endswith(",1/1000000,inf")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "lah", "--n-max", "-1"),
        ("table", "lah", "--n-max", "3", "--cap", "-1"),
        ("poly", "bell", "--n", "-1"),
        ("verify", "stirling", "--trials", "1"),
        ("simulate", "--dist", "poisson", "--alpha", "2", "--samples", "1"),
        ("simulate", "--dist", "poisson"),
        ("simulate", "--dist", "poisson", "--alpha", "abc"),
        ("simulate", "--dist", "poisson", "--alpha", "1/0"),
    ],
    ids=["n-max", "negative-cap", "poly-n", "trials", "samples", "no-alpha", "alpha-abc", "alpha-1/0"],
)
def test_usage_error_exits_2_with_one_error_line(capsys, argv):
    # the command's own checks return 2, argparse's exit 2; either way
    # nothing reaches stdout and stderr holds one error line
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert sum("error:" in line for line in captured.err.splitlines()) == 1


class TestParserReuse:
    # one process, one cached parser: flags, defaults and usage errors of one
    # call must not leak into the next
    ARGVS = (
        ("poly", "dlahbell", "--n", "3", "--lambda", "1/2", "--eval-at", "1"),
        ("poly", "dbell", "--n", "2"),
        ("table", "lah", "--n-max", "x"),
        ("poly", "lahbell", "--n", "4", "--format", "csv"),
        ("verify", "stirling", "--n-max", "4", "--format", "csv"),
        ("verify", "nosuchsuite"),
        ("simulate", "--dist", "binomial", "--n", "4", "--p", "1/2", "--samples", "200", "--seed", "3"),
        ("poly", "dlahbell", "--n", "3", "--lambda", "1/3"),
    )

    @staticmethod
    def _run(capsys, argv):
        try:
            return run_cli(capsys, *argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            return ("exit", exc.code), captured.out, captured.err

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        shared = [self._run(capsys, argv) for argv in self.ARGVS]
        assert ("exit", 2) in [code for code, _, _ in shared]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [self._run(capsys, argv) for argv in self.ARGVS]
        assert shared == fresh


class TestOnePassDispatch:
    # main parses a line that starts with a command name with that command's
    # parser alone; every line must still behave as the full parse does
    ARGVS = (
        # each command, parsed and run
        ("table", "lah", "--n-max", "3"),
        ("poly", "dlahbell", "--n", "3", "--lambda", "1/2", "--eval-at", "1"),
        ("verify", "stirling", "--n-max", "3", "--format", "csv"),
        ("simulate", "--dist", "poisson", "--alpha", "2", "--samples", "200", "--seed", "3"),
        # no command, an unknown one, help
        (),
        ("nosuch",),
        ("nosuch", "--n-max", "3"),
        ("-h",),
        ("--help",),
        ("--he",),
        ("-h", "verify"),
        ("--", "verify", "stirling"),
        ("verify", "-h"),
        ("verify", "stirling", "--help"),
        ("simulate", "--he"),
        # leftovers, also after --
        ("verify", "stirling", "extra"),
        ("verify", "stirling", "--bogus"),
        ("verify", "stirling", "stirling", "--bogus", "3"),
        ("simulate", "--dist", "poisson", "--alpha", "2", "extra"),
        ("verify", "stirling", "--", "extra"),
        ("verify", "--", "stirling", "--n-max"),
        ("table", "--n-max", "2", "--", "lah"),
        # --opt=value and abbreviated flags
        ("verify", "stirling", "--n-max=2", "--format=csv"),
        ("poly", "dbell", "--n=2", "--lambda=1/3"),
        ("verify", "stirling", "--n-m", "2", "--tri", "2000", "--for", "csv"),
        ("table", "s2", "--n", "3", "--c", "5"),
        ("simulate", "--dist", "poisson", "--al", "2", "--s", "10"),
        # bad types and choices, missing values and required flags
        ("verify", "stirling", "--n-max", "x"),
        ("verify", "nosuchsuite"),
        ("table", "nope", "--n-max", "3"),
        ("table", "lah", "--n-max", "1.5"),
        ("simulate", "--dist", "poisson", "--alpha", "abc"),
        ("verify", "stirling", "--n-max"),
        ("verify",),
        ("table", "lah"),
        ("poly", "bell"),
        ("simulate",),
        # the command's own checks
        ("table", "lah", "--n-max", "-1"),
        ("verify", "stirling", "--trials", "1"),
    )

    @staticmethod
    def _outcome(capsys, run):
        try:
            code = run()
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _full_parse(argv):
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_main_is_the_full_parse(self, capsys, monkeypatch, argv):
        expected = self._outcome(capsys, lambda: self._full_parse(list(argv)))
        assert self._outcome(capsys, lambda: main(list(argv))) == expected
        monkeypatch.setattr(sys, "argv", ["lahbell", *argv])
        assert self._outcome(capsys, main) == expected

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_namespace_is_the_full_parse(self, capsys, argv):
        parser = cli.build_parser()
        expected = self._outcome(capsys, lambda: parser.parse_args(list(argv)))
        assert self._outcome(capsys, lambda: cli._parse_args(parser, list(argv))) == expected


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

    # sha256 of the whole stdout of deeper runs. The lahbell suite is all
    # EXACT lines; the dpoisson and all suites also hold the statistical
    # lines, whose floats come from numpy's PCG64 stream for the seed. The
    # csv runs pin `VerificationReport.to_csv`.
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("lahbell", "--seed", "4", "--n-max", "30", "--trials", "1000"),
             "2cac86d32b68ac951cada0b46b98f2d91da7712a805d4906cb023030b8613cfa"),
            (("dpoisson", "--seed", "2"),
             "b2eea36acc42bbfe7d782aad2aec1b4d999e27e1f42da0e498eedb3f60f470b7"),
            (("all", "--format", "csv", "--seed", "0"),
             "73a8b6a54e481c72c329a54a6ad608efa3617eb877b5e2e02e875ad5197c3f84"),
            (("lahbell", "--n-max", "18", "--seed", "7", "--format", "csv"),
             "b5e25cbd25d2706530a34f9353e25fc13f0bf6da56971e74053247f837557a24"),
        ],
    )
    def test_verify_stdout_digest(self, capsys, argv, sha256):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    # sha256 of the whole stdout of `lahbell verify lahbell --seed S --n-max N`,
    # all EXACT lines; the seed draws the lambdas of the constructions and
    # round-trip instances
    @pytest.mark.parametrize(
        "n_max, seed, sha256",
        [
            (0, 0, "2a5e1ff3dc062d860a66012208dbf5694c47b83f351dc3a964d914ce9ac18e41"),
            (0, 8, "886697af504e0d6fa1881b82a0f57f1329c3c29e29118ceaa3bdbcb24e7810ca"),
            (1, 3, "78cbb883799026b31410d9cc63deb25145d3edbe56c3d1ae6a75410067787e54"),
            (2, 0, "df60a75a6f14bc24b3c0877b87710e7bd521a95dcc24640415f6cba8a88b53f9"),
            (2, 8, "3fcb8781085566d813e891c6d76324bd9593b73b4bd4bed523db1025e6bc3472"),
            (17, 0, "eefc3e4dc13ba638669263e4a11eeccc2b3cc835943683b754630f46bcb91d5f"),
            (17, 3, "a80f49532e642a529c7dc38c80f9edf1c3ec5e94f5f589d662bbc1aab6fbc3ec"),
            (40, 3, "6f2515a6425e5c7882dae18ed786b90dd2efb495ed42c94ade1873b42919bc17"),
            (40, 8, "feba5448d2e382ec17ddbe758675348e5fe89558b28a7d3de70a8bf156ab0b19"),
        ],
    )
    def test_verify_lahbell_stdout_digest(self, capsys, n_max, seed, sha256):
        code, out, _ = run_cli(capsys, "verify", "lahbell", "--seed", str(seed), "--n-max", str(n_max))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    # sha256 of the whole stdout of `lahbell simulate --samples 3000 --seed 11`:
    # one run per distribution and moment kind, dbinomial at n = 0 and n = 1,
    # and a signed-mass run, which exits 5 with empty stdout. The estimate
    # floats come from numpy's PCG64 stream for the seed.
    @pytest.mark.parametrize(
        "argv, code, sha256",
        [
            (("poisson", "--alpha", "3/2", "--moment", "raw", "--order", "3"), 0,
             "a9c18afb4f004d6a7b523d3b71a22ef3979bbb67e972a2186e4162bcfc2b3722"),
            (("poisson", "--alpha", "3/2", "--moment", "falling", "--order", "3"), 0,
             "b72823e6149edab7834e7ce2570772f802ae4523b29913180fbd938709db957d"),
            (("poisson", "--alpha", "3/2", "--moment", "rising", "--order", "3"), 0,
             "38c38a2f70eb70eda550aec71cb340fe22db84cfa332f3ca84fb83f52326d065"),
            (("binomial", "--n", "6", "--p", "2/5", "--moment", "raw", "--order", "2"), 0,
             "b1480ead3b5b9645db70efceab4198f809897173de45925c8d0d0c49f91f0c57"),
            (("binomial", "--n", "6", "--p", "2/5", "--moment", "falling", "--order", "2"), 0,
             "e9478a2cf88e9ea5bd0b9f452645b4424b21cd966b18fa923601c744678a0da9"),
            (("binomial", "--n", "6", "--p", "2/5", "--format", "csv", "--moment", "rising", "--order", "2"), 0,
             "3ee9da9d7206d094ba10ecb951f54f04e22ad21c0525581946ac87f3fe630d7f"),
            (("dpoisson", "--alpha", "2", "--lambda", "1/5", "--moment", "raw", "--order", "3"), 0,
             "18b4dff3447d07b6428844a20ef4043cf248e1c9de4681331556df5d9628a0d3"),
            (("dpoisson", "--alpha", "2", "--lambda", "1/5", "--moment", "falling", "--order", "3"), 0,
             "f44ccf087328f0cf9c8b8b9bd30101c8ef41b51a7249ccc7263114587f048c9f"),
            (("dpoisson", "--alpha", "2", "--lambda", "1/5", "--moment", "rising", "--order", "3"), 0,
             "c39bc0c90bcbdd5848b666e80cb72f1c38444d2986925dfe9e10e25398916abc"),
            (("dbinomial", "--n", "7", "--p", "1/3", "--lambda", "1/9", "--moment", "raw", "--order", "4"), 0,
             "ae7afacd9d83ff54a1a15fadc64f360e61959a2a4f489b5a05cc6e0cad107dc0"),
            (("dbinomial", "--n", "7", "--p", "1/3", "--lambda", "1/9", "--moment", "falling", "--order", "4"), 0,
             "d6bccf1cfafba445b743569550a1aef5aa45ef1f0386ee4bbb9f539f7505fbe0"),
            (("dbinomial", "--n", "7", "--p", "1/3", "--lambda", "1/9", "--moment", "rising", "--order", "4"), 0,
             "6136f9bd6e524b06d1a61e9cfe4b6d95db38257942d9f10aa01849520ebeacb0"),
            (("dbinomial", "--n", "0", "--p", "1/3", "--lambda", "1/4", "--moment", "raw", "--order", "2"), 0,
             "cd95619bbc0e87daef7db181c515ee2a62e90b62b792c8b37201aad97405e802"),
            (("dbinomial", "--n", "1", "--p", "1/4", "--lambda", "2/3", "--moment", "rising", "--order", "2"), 0,
             "f9e12cdb93e7e9a0b877dbcd0738abc29d1a17516d82f54ea17cbe07da21fbca"),
            (("dbinomial", "--n", "3", "--p", "1/10", "--lambda", "2/5", "--moment", "raw", "--order", "1"), 5,
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ],
    )
    def test_simulate_stdout_digest(self, capsys, argv, code, sha256):
        exit_code, out, _ = run_cli(
            capsys, "simulate", "--dist", *argv, "--samples", "3000", "--seed", "11"
        )
        assert exit_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    # sha256 of the whole stdout of `lahbell simulate --samples 300000 --seed 3`
    # on tables of 912-2001 entries, where 3-4 % of the draws fall in guide
    # buckets that hold a table entry and are searched; pinned before the
    # guide table went in
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("binomial", "--n", "2000", "--p", "1/3", "--moment", "rising", "--order", "3"),
             "1cffb62752ec1d832fd968c524352dbe056b362f7003c808b44d637043bd4383"),
            (("poisson", "--alpha", "700", "--moment", "raw", "--order", "2"),
             "d0124735204166eb3f113d3a9569d2879011060a23578a3dc1de7f18955497d6"),
            (("dbinomial", "--n", "1500", "--p", "1/3", "--lambda", "1/7919"),
             "9f2695d69c1acae58a8d130c894588c00db64721e0e106a9ac2f276a1273ffa9"),
        ],
    )
    def test_large_table_simulate_stdout_digest(self, capsys, argv, sha256):
        code, out, _ = run_cli(capsys, "simulate", "--dist", *argv, "--samples", "300000", "--seed", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    # sha256 over `lahbell simulate` for the four distributions x three moment
    # kinds x csv / json, plus a zero-standard-error run (n = 0) in both
    # formats: each command's argv, exit code and stdout; recorded while the
    # CSV and JSON fields were still listed separately, re-pinned when the
    # reduction became exact (standard errors and z moved by ulps)
    SIMULATE_FORMATS_SHA256 = "6d7417dcb96c8cba19750c2ebd33011ed67c30c503f42106e8ae368c05627fa1"

    def test_simulate_formats_digest(self, capsys):
        dists = (
            ("poisson", "--alpha", "3/2"),
            ("binomial", "--n", "6", "--p", "2/5"),
            ("dpoisson", "--alpha", "2", "--lambda", "1/5"),
            ("dbinomial", "--n", "7", "--p", "1/3", "--lambda", "1/9"),
        )
        argvs = [
            (*dist, "--moment", kind, "--order", "3", "--format", fmt)
            for dist in dists for kind in ("raw", "falling", "rising") for fmt in ("csv", "json")
        ]
        argvs += [("binomial", "--n", "0", "--p", "1/2", "--format", fmt) for fmt in ("csv", "json")]
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run_cli(capsys, "simulate", "--dist", *argv, "--samples", "2000", "--seed", "5")
            digest.update(f"{argv}\n{code}\n{out}\n".encode())
        assert digest.hexdigest() == self.SIMULATE_FORMATS_SHA256

    # sha256 over `lahbell poly` for the four families x n in {0, 1, 2, 7, 25,
    # 60} x six lambdas (vanishing weights, negative and large lambda included)
    # x --eval-at in {none, 2/9, -3, 0} x csv / json: each command's argv,
    # exit code, stdout and stderr. The parser takes --lambda for the plain
    # families too and ignores it. 1/3 at -3 is a pole (exit 4).
    POLY_SHA256 = "0b77db62a17b6eb766e3e4887d025df9b97a557bc820b6189a5f7c9c294f531c"

    def test_poly_output_digest(self, capsys):
        digest = hashlib.sha256()
        for family in ("bell", "lahbell", "dbell", "dlahbell"):
            for n in (0, 1, 2, 7, 25, 60):
                for lam in ("0", "1/3", "1", "-5/3", "2/7919", "7/2"):
                    for point in (None, "2/9", "-3", "0"):
                        for fmt in ("csv", "json"):
                            argv = ["poly", family, "--n", str(n), f"--lambda={lam}", "--format", fmt]
                            if point is not None:
                                argv.append(f"--eval-at={point}")
                            code, out, err = run_cli(capsys, *argv)
                            digest.update(f"{' '.join(argv)}\n{code}\n{out}\x00{err}\x00".encode())
        assert digest.hexdigest() == self.POLY_SHA256
