"""Self-tests of the benchmark: its gate, its inputs and its output contract.

    python3 -m pytest benchmarks -q

These are not tier-1 tests of lahbell; they check that the benchmark counts
wrong answers as failed, that a seed fixes the inputs, and that the printed
metrics are the ones BENCHMARK.json declares.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lahbell  # noqa: E402
import lahbell.cli  # noqa: E402
from oracles import gate, load_validator  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_DEFECT_PROBES, ROUND_OPS, WORKLOADS, cli_argv, exact_round, op_digest, op_stream, run_op,
    sampling_pool, sampling_round, verify_round,
)

VALIDATOR = load_validator(os.path.join(ROOT, "src", "lahbell", "schemas", "cli_output.schema.json"))


def _check(workload, op):
    return gate(workload, op, run_op(lahbell, workload, op), VALIDATOR)


def _first(workload, seed, predicate):
    return next(op for op in op_stream(workload, seed) if predicate(op))


def test_generated_ops_pass_the_gate():
    for workload, predicate in (
        ("verify-deep", lambda op: op["n_max"] <= 10),
        ("exact-distributions", lambda op: op.get("n", 0) < 20),
        ("sampling", lambda op: True),
    ):
        for op in [o for o, _ in zip(op_stream(workload, 3), range(60)) if predicate(o)][:4]:
            assert _check(workload, op) is None, (workload, op)


def test_perturbed_mass_fails():
    op = _first("exact-distributions", 5, lambda op: op["dist"] == "dbinomial" and op["n"] < 20)
    out = run_op(lahbell, "exact-distributions", op)
    assert gate("exact-distributions", op, out, VALIDATOR) is None
    out["masses"] = list(out["masses"])
    out["masses"][1] += Fraction(1, 10**30)
    assert "masses" in gate("exact-distributions", op, out, VALIDATOR)


def test_wrong_closed_form_fails():
    op = _first("exact-distributions", 5, lambda op: op["dist"] == "dpoisson" and op["lam"] > Fraction(1, 20))
    out = run_op(lahbell, "exact-distributions", op)
    out["lahbell_value"] += 1
    assert "lahbell_value" in gate("exact-distributions", op, out, VALIDATOR)


def test_flipped_report_status_fails():
    op = {"suite": "stirling", "n_max": 6, "trials": 2000, "seed": 11}
    result = run_op(lahbell, "verify-deep", op)
    assert gate("verify-deep", op, result, VALIDATOR) is None
    flipped = dict(result, stdout=result["stdout"].replace('"PASS"', '"FAIL"', 1))
    assert "status FAIL" in gate("verify-deep", op, flipped, VALIDATOR)
    dropped = dict(result, stdout="\n".join(result["stdout"].splitlines()[1:]))
    assert "missing identities" in gate("verify-deep", op, dropped, VALIDATOR)


def _simulation(op):
    result = run_op(lahbell, "sampling", op)
    return result, json.loads(result["stdout"])


def test_shifted_estimate_fails():
    op = {"dist": "poisson", "alpha": Fraction(3), "moment": "raw", "order": 2,
          "samples": 20000, "seed": 4}
    result, doc = _simulation(op)
    assert gate("sampling", op, result, VALIDATOR) is None
    shift = 10 * doc["standard_error"]
    alone = dict(doc, estimate=doc["estimate"] + shift)
    assert "reported z" in gate("sampling", op, dict(result, stdout=json.dumps(alone)), VALIDATOR)
    consistent = dict(alone, z=doc["z"] + 10)
    assert "|z|" in gate("sampling", op, dict(result, stdout=json.dumps(consistent)), VALIDATOR)
    wrong_target = dict(doc, target="10")
    assert "target" in gate("sampling", op, dict(result, stdout=json.dumps(wrong_target)), VALIDATOR)


def test_known_defect_probes_fail_the_gate():
    # 720 exits 4 with TailError, 745 exits 0 with a biased estimate: the gate
    # must catch both. Once ROADMAP 3(a) is fixed these probes pass.
    for probe in KNOWN_DEFECT_PROBES[:2]:
        assert _check("sampling", probe) is not None, probe["alpha"]


def test_one_seed_gives_one_op_list():
    for workload in WORKLOADS:
        assert op_digest(workload, 7, 200) == op_digest(workload, 7, 200)
        assert op_digest(workload, 7, 200) != op_digest(workload, 8, 200)


def test_rounds_have_a_fixed_size_and_no_known_defect_op():
    assert len(verify_round(2, 0)) == ROUND_OPS["verify-deep"]
    assert len(exact_round(2, 0)) == ROUND_OPS["exact-distributions"]
    assert len(sampling_round(2, 0, sampling_pool(2))) == ROUND_OPS["sampling"]
    ops = [op for op, _ in zip(op_stream("sampling", 2), range(10 * ROUND_OPS["sampling"]))]
    assert all(cli_argv("sampling", op)[0] == "simulate" for op in ops)
    assert max(op["alpha"] for op in ops if op["dist"] == "poisson") < 600


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("benchmarks", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run("--workload", "exact-distributions", "--seed", "3", "--seconds", "6",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        values = {name: v["value"] for name, v in report["metrics"].items()}
        accounted = sum(v for name, v in values.items()
                        if name.endswith("_self_s")) + values["trace.unaccounted_share"] * values["trace.op_wall_s"]
        assert accounted == pytest.approx(values["trace.op_wall_s"], rel=1e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sampling", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
