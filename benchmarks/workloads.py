"""Seeded op streams for the three benchmark workloads, and how one op runs.

An op is a plain dict of inputs. The seed decides every input, and the
program only ever sees the inputs. Ops come in rounds of a fixed composition
(the same sizes in every round, the seed shuffles their order and draws the
remaining parameters), so a run of any seed covers the same mix of op sizes
and the run-to-run spread stays small. A round is drawn from its own
`random.Random`, keyed by (workload, seed, round index), so op i never depends
on how many ops a faster or slower program completed before it.

Why each workload exists (see README.md for the layer map):

- verify-deep: `lahbell verify <suite>` through `cli.main`, the command users
  run. Time sits in the degenerate Lah-Bell constructions and the exact_core
  factor products; sampling and distributions do little.
- exact-distributions: a fresh degenerate binomial or finite degenerate
  Poisson instance per op, through library calls. Nothing is reused, so mass
  rebuilds and degenerate falling factorials dominate; polynomials do little
  and montecarlo and cli are bypassed.
- sampling: `lahbell simulate` through `cli.main` on a small pool of
  instances reused across ops, so CDF tables are built on first use and then
  hit. numpy draws and the moment reduction dominate.

The known large-alpha classical Poisson defect (alpha beyond about 716
underflows exp(-alpha)) is not part of any workload, whose ops must all pass:
a run's op count follows the program's speed, so failing ops in the loop
would make the failed count differ between runs of the same code. Instead a
fixed set of probes, KNOWN_DEFECT_PROBES, runs once after every timed
`sampling` run and its outcome is printed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from fractions import Fraction
from typing import Iterator

from oracles import finite_masses, fmt

WORKLOADS = ("verify-deep", "exact-distributions", "sampling")
ROUND_OPS = {"verify-deep": 18, "exact-distributions": 18, "sampling": 16}

# verify-deep: lahbell ops cover n_max 8..18, with 11 and 17 twice, and 5
# lighter-suite ops make up the round. Latency rises with n_max, so ranks 9-10
# of a round (the median) are the two n_max = 11 ops and rank 16.2 (p90) lies
# inside the two n_max = 17 ops, not on a boundary between sizes, where a
# quantile would jump. dbinomial is left out so mass tables stay minor here.
VERIFY_LAHBELL_N = (8, 9, 10, 11, 11, 12, 13, 14, 15, 16, 17, 17, 18)
VERIFY_LIGHT = (("stirling", 2), ("dpoisson", 2), ("pgf", 1))
VERIFY_TRIALS = 2000

# exact-distributions: one op per size stratum [s, s + 5) for each family.
EXACT_STRATA = tuple(range(10, 55, 5))
EXACT_ORDERS = (2, 3, 4, 5)

# sampling: every pool instance appears twice per round, with the sample
# counts 200k..950k spread over the 16 ops.
SAMPLING_COUNTS = tuple(200_000 + 50_000 * i for i in range(16))
SAMPLING_MOMENTS = (("raw", 1), ("raw", 2), ("falling", 2), ("rising", 2), ("rising", 3))

# Classical Poisson beyond alpha of about 716: 720, 760 and 800 exit 4 with
# TailError, 745 exits 0 with a biased estimate. The same probes every run,
# whatever the seed.
KNOWN_DEFECT_PROBES = tuple(
    {"id": f"probe-{alpha}", "dist": "poisson", "alpha": Fraction(alpha), "moment": "raw",
     "order": 1, "samples": 200_000, "seed": 1}
    for alpha in (720, 745, 760, 800)
)


def _fraction(rng: random.Random, max_den: int, low: Fraction, high: Fraction) -> Fraction:
    """Random rational a/b with b <= max_den inside [low, high]."""
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(int(low * den), int(high * den))
        value = Fraction(num, den)
        if low <= value <= high:
            return value


def _round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _vanishing_normalizer(n: int, lam: Fraction) -> bool:
    """True when some factor 1 - j*lam with 1 <= j < n is zero."""
    return lam != 0 and lam.numerator == 1 and lam.denominator < n


def _draw_dbinomial(rng: random.Random, n: int) -> tuple[Fraction, Fraction]:
    """(p, lam) drawn like the library's random instances: large lam values
    are frequent, so signed-mass regimes occur."""
    while True:
        p_den = rng.randint(1, 16)
        p = Fraction(rng.randint(0, p_den), p_den)
        lam_den = rng.randint(2, 16)
        lam = Fraction(rng.randint(0, lam_den - 1), lam_den)
        if not _vanishing_normalizer(n, lam):
            return p, lam


def verify_round(seed: int, index: int) -> list[dict]:
    rng = _round_rng("verify-deep", seed, index)
    ops = [{"suite": "lahbell", "n_max": n} for n in VERIFY_LAHBELL_N]
    for suite, count in VERIFY_LIGHT:
        ops += [{"suite": suite, "n_max": rng.randint(8, 18)} for _ in range(count)]
    rng.shuffle(ops)
    for op in ops:
        op["trials"] = VERIFY_TRIALS
        op["seed"] = rng.randrange(2**31)
    return ops


def exact_round(seed: int, index: int) -> list[dict]:
    rng = _round_rng("exact-distributions", seed, index)
    ops = []
    for low in EXACT_STRATA:
        n = rng.randint(low, low + 4)
        p, lam = _draw_dbinomial(rng, n)
        ops.append({"dist": "dbinomial", "n": n, "p": p, "lam": lam})
        m = rng.randint(low, low + 4)
        alpha = _fraction(rng, 6, Fraction(1, 6), Fraction(6))
        ops.append({"dist": "dpoisson", "alpha": alpha, "lam": Fraction(1, m)})
    rng.shuffle(ops)
    for op in ops:
        op["order"] = rng.choice(EXACT_ORDERS)
        op["t"] = Fraction(rng.randint(-4, 4), rng.randint(5, 12))
    return ops


def sampling_pool(seed: int) -> list[dict]:
    """The seed's reused instances.

    Classical Poisson, classical binomial, nonnegative degenerate binomial
    and finite degenerate Poisson, two of each, one small and one large.
    Sizes are fixed per slot and the seed draws the rest, so the pool's cost,
    and with it the latency tail, varies little between seeds.
    """
    rng = random.Random(f"sampling-pool:{seed}")
    pool = []
    for alpha_range, n, dn, m in (((1, 4), 20, 15, 20), ((8, 16), 50, 35, 40)):
        pool.append({"dist": "poisson", "alpha": _fraction(rng, 4, *map(Fraction, alpha_range))})
        pool.append({"dist": "binomial", "n": n,
                     "p": _fraction(rng, 12, Fraction(1, 12), Fraction(11, 12))})
        while True:
            inst = {"dist": "dbinomial", "n": dn,
                    "p": _fraction(rng, 12, Fraction(1, 12), Fraction(11, 12)),
                    "lam": Fraction(1, rng.randint(dn, 6 * dn))}
            if all(mass >= 0 for mass in finite_masses(inst)):
                break
        pool.append(inst)
        pool.append({"dist": "dpoisson", "alpha": _fraction(rng, 4, Fraction(1, 2), Fraction(6)),
                     "lam": Fraction(1, m)})
    return pool


def sampling_round(seed: int, index: int, pool: list[dict]) -> list[dict]:
    rng = _round_rng("sampling", seed, index)
    counts = list(SAMPLING_COUNTS)
    rng.shuffle(counts)
    ops = []
    for i, inst in enumerate(pool * 2):
        moment, order = rng.choice(SAMPLING_MOMENTS)
        ops.append({**inst, "moment": moment, "order": order, "samples": counts[i]})
    rng.shuffle(ops)
    for op in ops:
        op["seed"] = rng.randrange(2**31)
    return ops


def op_stream(workload: str, seed: int) -> Iterator[dict]:
    """Endless deterministic op sequence of one workload; op["id"] counts from 0."""
    if workload == "verify-deep":
        make_round = verify_round
    elif workload == "exact-distributions":
        make_round = exact_round
    elif workload == "sampling":
        make_round = functools.partial(sampling_round, pool=sampling_pool(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    op_id = 0
    index = 0
    while True:
        for op in make_round(seed, index):
            op["id"] = op_id
            op_id += 1
            yield op
        index += 1


def op_digest(workload: str, seed: int, count: int = 1000) -> str:
    """sha256 over the first `count` ops, in a canonical JSON form."""
    h = hashlib.sha256()
    stream = op_stream(workload, seed)
    for _ in range(count):
        op = next(stream)
        h.update(json.dumps(op, default=str, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def cli_argv(workload: str, op: dict) -> list[str]:
    """The `lahbell` command line of a verify-deep or sampling op."""
    if workload == "verify-deep":
        return ["verify", op["suite"], "--n-max", str(op["n_max"]),
                "--trials", str(op["trials"]), "--seed", str(op["seed"])]
    argv = ["simulate", "--dist", op["dist"]]
    if op["dist"] in ("poisson", "dpoisson"):
        argv += ["--alpha", fmt(op["alpha"])]
    else:
        argv += ["--n", str(op["n"]), "--p", fmt(op["p"])]
    if op["dist"] in ("dpoisson", "dbinomial"):
        argv += ["--lambda", fmt(op["lam"])]
    return argv + ["--moment", op["moment"], "--order", str(op["order"]),
                   "--samples", str(op["samples"]), "--seed", str(op["seed"])]


def run_cli(lahbell, argv: list[str]) -> dict:
    """Run `lahbell <argv>` in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lahbell.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit_code": code, "stdout": out.getvalue()}


def run_exact(lahbell, op: dict) -> dict:
    """One exact-distributions op: a fresh instance and its exact tables."""
    if op["dist"] == "dbinomial":
        d = lahbell.DegenerateBinomial(op["n"], op["p"], op["lam"])
    else:
        d = lahbell.DegeneratePoisson(op["alpha"], op["lam"])
    raw = lahbell.MomentKind.RAW
    masses = d.masses()
    out = {
        "masses": masses,
        "total": sum(masses, Fraction(0)),
        "mean": d.mean(),
        "variance": d.variance(),
        "direct_mean": lahbell.moment_direct(d, raw, 1),
        "direct_second": lahbell.moment_direct(d, raw, 2),
        "rising": d.rising_factorial_moment(op["order"]),
        "pgf": d.pgf(op["t"]),
        "pgf_direct": lahbell.pgf_direct(d, op["t"]),
        "support": lahbell.analyze_support(d),
    }
    if op["dist"] == "dpoisson":
        poly = lahbell.degenerate_lah_bell_polynomial(op["order"], d.lam)
        out["lahbell_value"] = lahbell.evaluate_degenerate(poly, d.alpha, d.lam)
    return out


def run_op(lahbell, workload: str, op: dict) -> dict:
    if workload == "exact-distributions":
        return run_exact(lahbell, op)
    return run_cli(lahbell, cli_argv(workload, op))
