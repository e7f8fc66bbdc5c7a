"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import random
import time
from fractions import Fraction

from lahbell import (
    DegenerateBinomial,
    DegeneratePoisson,
    MomentKind,
    SamplerStream,
    SignedMassError,
    analyze_support,
    bell_polynomial,
    degenerate_lah_bell_polynomial,
    degenerate_lah_bell_polynomial_via_bell,
    bell_from_lahbell_degenerate,
    degenerate_bell_polynomial,
    degenerate_falling_factorial,
    estimate_moment,
    evaluate_degenerate,
    lah_bell_polynomial,
    lah_bell_series_coefficients,
    lah_number,
    lah_number_closed_form,
    lahbell_from_bell,
    moment_direct,
    pgf_direct,
    poisson,
    sample,
    stirling1_signed,
    stirling2,
)
from lahbell.cli import main as cli_main
from lahbell.montecarlo import random_degenerate_binomial
from oracles import count_list_partitions


def _announce(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS: {text}")


def test_criterion_1_stirling_lah_foundations():
    start = time.time()
    for n in range(16):
        for m in range(16):
            delta = 1 if n == m else 0
            assert sum(stirling1_signed(n, k) * stirling2(k, m) for k in range(n + 1)) == delta
            assert sum(stirling2(n, k) * stirling1_signed(k, m) for k in range(n + 1)) == delta
    for n in range(21):
        for k in range(n + 1):
            assert lah_number(n, k) == lah_number_closed_form(n, k)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _announce(1, f"Stirling inversion to 15 and Lah closed form to 20 exact ({elapsed:.2f}s)")


def test_criterion_2_lah_bell_consistency():
    start = time.time()
    for x in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)):
        series = lah_bell_series_coefficients(x, 20)
        for n in range(21):
            assert series[n] == lah_bell_polynomial(n).evaluate(x)
    enumerated = [count_list_partitions(n) for n in range(9)]
    assert enumerated[:6] == [1, 1, 3, 13, 73, 501]
    for n in range(9):
        assert lah_bell_polynomial(n).evaluate(1) == enumerated[n]
    elapsed = time.time() - start
    assert elapsed < 2.0
    _announce(2, f"series oracle to 20 and enumeration to 8 exact ({elapsed:.2f}s)")


def test_criterion_3_basis_transform():
    start = time.time()
    for alpha in (Fraction(1), Fraction(2), Fraction(3, 2)):
        bell_values = [bell_polynomial(k).evaluate(alpha) for k in range(13)]
        for n in range(13):
            transformed = lahbell_from_bell(n, bell_values[: n + 1])
            assert transformed == lah_bell_polynomial(n).evaluate(alpha)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _announce(3, f"signed Stirling transform equals Lah expansion to 12 ({elapsed:.2f}s)")


def test_criterion_4_binomial_closed_forms():
    start = time.time()
    rng = random.Random(20260808)
    signed_seen = 0
    for _ in range(200):
        d = random_degenerate_binomial(rng, max_n=30)
        assert sum(d.masses()) == 1
        mean_brute = moment_direct(d, MomentKind.RAW, 1)
        var_brute = moment_direct(d, MomentKind.RAW, 2) - mean_brute**2
        assert d.mean() == mean_brute
        assert d.variance() == var_brute
        if not analyze_support(d).all_nonnegative:
            signed_seen += 1
    assert signed_seen > 0, "random sweep must include signed-mass regimes"

    n, p = 9, Fraction(3, 7)
    errors = []
    for exponent in (2, 4, 6):
        lam = Fraction(1, 10**exponent)
        d = DegenerateBinomial(n, p, lam)
        errors.append(abs(float(d.mean()) - float(n * p)))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] < 1e-4
    elapsed = time.time() - start
    assert elapsed < 5.0
    _announce(
        4,
        f"200 random triples ({signed_seen} signed) match brute force exactly; "
        f"classical limit error {errors[2]:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_5_degenerate_poisson_exact_suite():
    start = time.time()
    for m in range(2, 41):
        lam = Fraction(1, m)
        for alpha in (Fraction(1, 2), Fraction(2 * m - 1, 2)):
            assert alpha < m
            d = DegeneratePoisson(alpha, lam)
            assert sum(d.masses()) == 1
            assert d.mean() == alpha / (1 + alpha * lam)
            assert d.variance() == alpha / (1 + alpha * lam) ** 2
            assert d.mean() == moment_direct(d, MomentKind.RAW, 1)

    pairs = [(Fraction(1), 2), (Fraction(2), 5), (Fraction(5), 11), (Fraction(39), 40)]
    for alpha, m in pairs:
        lam = Fraction(1, m)
        d = DegeneratePoisson(alpha, lam)
        ratio = alpha / (1 + lam * alpha)
        for order in range(9):
            moment = moment_direct(d, MomentKind.RISING, order)
            assert moment == evaluate_degenerate(
                degenerate_lah_bell_polynomial(order, lam), alpha, lam
            )
            expansion = sum(
                (
                    sum(
                        (-1) ** (order - k) * stirling1_signed(order, k) * stirling2(k, l)
                        for k in range(l, order + 1)
                    )
                    * degenerate_falling_factorial(1, l, lam)
                    * ratio**l
                    for l in range(order + 1)
                ),
                Fraction(0),
            )
            assert moment == expansion
        for t in (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)):
            assert d.pgf(t) == pgf_direct(d, t)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _announce(5, f"finite-support Poisson identities exact for 1/lam up to 40 ({elapsed:.2f}s)")


def test_criterion_6_dual_construction_and_roundtrip():
    start = time.time()
    rng = random.Random(6)
    lams = [Fraction(rng.randint(1, d - 1), d) for d in (7, 9, 11, 13, 16)]
    for lam in lams:
        for n in range(13):
            assert degenerate_lah_bell_polynomial(n, lam) == degenerate_lah_bell_polynomial_via_bell(n, lam)
        x = Fraction(rng.randint(1, 4))
        bell_values = [
            evaluate_degenerate(degenerate_bell_polynomial(k, lam), x, lam) for k in range(13)
        ]
        forward = [lahbell_from_bell(n, bell_values[: n + 1]) for n in range(13)]
        for n in range(13):
            assert bell_from_lahbell_degenerate(n, forward[: n + 1]) == bell_values[n]
    elapsed = time.time() - start
    assert elapsed < 2.0
    _announce(6, f"both constructions and the transform round trip agree to 12 ({elapsed:.2f}s)")


def test_criterion_7_classical_poisson_moments():
    start = time.time()
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
        d = poisson(alpha)
        # n! [t**n] of the pgf exp(alpha*(1/(1-t) - 1)): the rising moments
        rising = lah_bell_series_coefficients(alpha, 8)
        for order in range(9):
            assert d.falling_factorial_moment(order) == alpha**order
            assert d.rising_factorial_moment(order) == rising[order]
            assert rising[order] == lah_bell_polynomial(order).evaluate(alpha)
            assert d.raw_moment(order) == bell_from_lahbell_degenerate(order, rising)
            assert d.raw_moment(order) == bell_polynomial(order).evaluate(alpha)
    elapsed = time.time() - start
    assert elapsed < 2.0
    _announce(7, f"classical moments equal the pgf series oracle exactly ({elapsed:.2f}s)")


def test_criterion_8_monte_carlo_targets():
    start = time.time()
    est = estimate_moment(poisson(2), MomentKind.RISING, 3, 1_000_000, SamplerStream(42, 0))
    assert abs(est.estimate - 44.0) <= 5 * est.standard_error
    rerun = estimate_moment(poisson(2), MomentKind.RISING, 3, 1_000_000, SamplerStream(42, 0))
    assert (repr(est.estimate), repr(est.standard_error)) == (
        repr(rerun.estimate),
        repr(rerun.standard_error),
    )

    dp = DegeneratePoisson(Fraction(1), Fraction(1, 2))
    est2 = estimate_moment(dp, MomentKind.RAW, 1, 1_000_000, SamplerStream(42, 1))
    assert abs(est2.estimate - float(Fraction(2, 3))) <= 5 * est2.standard_error
    elapsed = time.time() - start
    assert elapsed < 30.0
    _announce(
        8,
        f"seeded 1e6-sample estimates hit 44 and 2/3 within 5 SE, reruns identical ({elapsed:.2f}s)",
    )


def test_criterion_9_signed_mass_behavior(capsys):
    witness = DegenerateBinomial(3, Fraction(1, 10), Fraction(2, 5))
    assert witness.pmf(2) == Fraction(-27, 40)
    assert sum(witness.masses()) == 1
    analysis = analyze_support(witness)
    assert analysis.negative_indices == (2,)
    assert not analysis.all_nonnegative
    try:
        sample(witness, SamplerStream(0, 0))
        raise AssertionError("sampling a signed measure must fail")
    except SignedMassError:
        pass
    code = cli_main([
        "simulate", "--dist", "dbinomial", "--n", "3", "--p", "1/10",
        "--lambda", "2/5", "--samples", "1000",
    ])
    capsys.readouterr()
    assert code == 5
    _announce(9, "signed witness: mass -27/40 at index 2, sum 1, sampler and CLI refuse")
