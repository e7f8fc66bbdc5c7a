"""Independent oracles and the per-op correctness gate.

Nothing here calls lahbell. Finite masses come from prefix products of the
defining factors, classical Poisson moments from closed-form Stirling and
Lah numbers, and CLI output is checked against the package's JSON schema.
Each gate returns None for a correct op, or a one-line reason it failed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Optional

Z_THRESHOLD = 5.0

# Identities each verify suite must report; a later suite may add more.
SUITE_IDENTITIES = {
    "stirling": {"stirling-inversion", "stirling1-row-sums", "lah-closed-form"},
    "lahbell": {"lahbell-series", "lah-basis-transform", "dlahbell-constructions",
                "transform-roundtrip"},
    "dpoisson": {"dpoisson-normalization", "dpoisson-mean", "dpoisson-variance",
                 "dpoisson-rising-moment", "dpoisson-rising-expansion",
                 "poisson-falling-moment", "poisson-rising-moment", "poisson-raw-moment",
                 "dpoisson-sample-mean"},
    "pgf": {"dpoisson-pgf", "poisson-pgf"},
}


def load_validator(schema_path: str):
    """A jsonschema validator for the CLI output schema."""
    import jsonschema

    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.Draft202012Validator(schema)


def _prefix_products(x: Fraction, lam: Fraction, n: int) -> list[Fraction]:
    """[1, x, x(x-lam), ..., x(x-lam)...(x-(n-1)lam)]."""
    out = [Fraction(1)]
    for j in range(n):
        out.append(out[-1] * (x - j * lam))
    return out


def finite_masses(inst: dict) -> list[Fraction]:
    """Exact masses of a binomial-type or finite degenerate Poisson instance."""
    lam = inst.get("lam", Fraction(0))
    if inst["dist"] in ("binomial", "dbinomial"):
        n, p = inst["n"], inst["p"]
        succ = _prefix_products(p, lam, n)
        fail = _prefix_products(1 - p, lam, n)
        norm = _prefix_products(Fraction(1), lam, n)[n]
        return [math.comb(n, i) * succ[i] * fail[n - i] / norm for i in range(n + 1)]
    alpha = inst["alpha"]
    m = 1 / lam
    if m.denominator != 1:
        raise ValueError("degenerate Poisson oracle needs lam = 1/m")
    m = m.numerator
    norm = (1 + lam * alpha) ** -m
    masses = []
    term = Fraction(1)
    for i in range(m + 1):
        masses.append(norm * term)
        term = term * alpha * (1 - i * lam) / (i + 1)
    return masses


def _power(kind: str, order: int) -> Callable[[int], int]:
    if kind == "raw":
        return lambda i: i**order
    step = -1 if kind == "falling" else 1
    return lambda i: math.prod(i + step * j for j in range(order))


def expectation(masses: list[Fraction], f: Callable[[int], object]) -> Fraction:
    return sum((f(i) * mass for i, mass in enumerate(masses)), Fraction(0))


def _stirling2(n: int, k: int) -> int:
    """Explicit inclusion-exclusion formula."""
    total = sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))
    return total // math.factorial(k)


def _lah(n: int, k: int) -> int:
    """Closed form C(n-1, k-1) n!/k!."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


def moment_target(inst: dict, kind: str, order: int) -> Fraction:
    """Exact E[power(X)] of a sampling-pool instance."""
    if inst["dist"] == "poisson":
        alpha = inst["alpha"]
        if kind == "falling":
            return alpha**order
        coeff = _stirling2 if kind == "raw" else _lah
        return sum((coeff(order, k) * alpha**k for k in range(order + 1)), Fraction(0))
    return expectation(finite_masses(inst), _power(kind, order))


def fmt(value: Fraction) -> str:
    """The CLI's canonical rational string."""
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _json_lines(result: dict, validator) -> tuple[Optional[str], list]:
    if result["exit_code"] != 0:
        return f"exit code {result['exit_code']}", []
    lines = result["stdout"].splitlines()
    if not lines:
        return "no output", []
    docs = []
    for line in lines:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            return "output line is not JSON", []
        if not validator.is_valid(doc):
            return "output line fails the schema", []
        docs.append(doc)
    return None, docs


def gate_verify(op: dict, result: dict, validator) -> Optional[str]:
    reason, reports = _json_lines(result, validator)
    if reason:
        return reason
    seen = set()
    for rep in reports:
        if "identity" not in rep:
            return "not a verification report"
        seen.add(rep["identity"])
        if rep["status"] not in ("PASS", "SKIPPED"):
            return f"{rep['identity']} status {rep['status']}"
        if rep["status"] == "PASS" and rep["mode"] == "EXACT" and rep["lhs"] != rep["rhs"]:
            return f"{rep['identity']} passed with lhs != rhs"
        if "n_max" in rep["params"] and rep["params"]["n_max"] != str(op["n_max"]):
            return f"{rep['identity']} ran at the wrong n_max"
        if rep["mode"] == "STATISTICAL" and (rep.get("seed") != op["seed"]
                                             or rep.get("samples") != op["trials"]):
            return f"{rep['identity']} ran with the wrong seed or trials"
    missing = SUITE_IDENTITIES[op["suite"]] - seen
    if missing:
        return f"missing identities {sorted(missing)}"
    return None


def gate_exact(op: dict, out: dict) -> Optional[str]:
    masses = finite_masses(op)
    if out["masses"] != masses:
        return "masses differ from the prefix-product oracle"
    mean = expectation(masses, lambda i: i)
    second = expectation(masses, lambda i: i * i)
    u = 1 / (1 - op["t"])
    pgf = expectation(masses, lambda i: u**i)
    rising = expectation(masses, _power("rising", op["order"]))
    expected = {
        "total": Fraction(1),
        "mean": mean,
        "variance": second - mean * mean,
        "direct_mean": mean,
        "direct_second": second,
        "rising": rising,
        "pgf": pgf,
        "pgf_direct": pgf,
    }
    if op["dist"] == "dpoisson":
        expected["lahbell_value"] = rising
    for key, value in expected.items():
        if out[key] != value:
            return f"{key} differs from the oracle"
    support = out["support"]
    cutoff = max((i for i, mass in enumerate(masses) if mass != 0), default=0)
    nonnegative = all(mass >= 0 for mass in masses)
    if not support.finite or support.cutoff != cutoff or support.all_nonnegative != nonnegative:
        return "support analysis differs from the oracle"
    if any(masses[i] >= 0 for i in support.negative_indices) or (
            not nonnegative and not support.negative_indices):
        return "negative indices differ from the oracle"
    return None


def gate_sampling(op: dict, result: dict, validator) -> Optional[str]:
    reason, docs = _json_lines(result, validator)
    if reason:
        return reason
    if len(docs) != 1 or "estimate" not in docs[0]:
        return "not one simulation report"
    doc = docs[0]
    echoed = (doc["distribution"], doc["moment"], doc["order"], doc["samples"], doc["seed"])
    if echoed != (op["dist"], op["moment"], op["order"], op["samples"], op["seed"]):
        return "report does not echo the op's flags"
    target = moment_target(op, op["moment"], op["order"])
    if doc["target"] != fmt(target):
        return f"target {doc['target']} != {fmt(target)}"
    if not doc["standard_error"] > 0:
        return "standard error is not positive"
    z = (doc["estimate"] - float(target)) / doc["standard_error"]
    if not math.isclose(z, doc["z"], rel_tol=1e-9, abs_tol=1e-9):
        return "reported z does not match estimate, error and target"
    if abs(z) > Z_THRESHOLD:
        return f"|z| = {abs(z):.3g} > {Z_THRESHOLD}"
    return None


def gate(workload: str, op: dict, result: dict, validator) -> Optional[str]:
    if workload == "verify-deep":
        return gate_verify(op, result, validator)
    if workload == "exact-distributions":
        return gate_exact(op, result)
    return gate_sampling(op, result, validator)
