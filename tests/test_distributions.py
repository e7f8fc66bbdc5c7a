import decimal
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lahbell import (
    DegenerateBinomial,
    DegeneratePoisson,
    DomainError,
    MomentKind,
    SupportAnalysis,
    TailError,
    analyze_support,
    bell_from_lahbell_degenerate,
    bell_polynomial,
    binomial,
    degenerate_bell_polynomial,
    degenerate_exp_eval,
    degenerate_lah_bell_polynomial,
    evaluate_degenerate,
    lah_bell_polynomial,
    lah_bell_series_coefficients,
    lah_number,
    moment,
    moment_direct,
    pgf_direct,
    poisson,
)
from lahbell.distributions import _pgf_argument
from lahbell.montecarlo import _cumulative_table, random_degenerate_binomial
from oracles import (
    binomial_mass_table_chain,
    dbinomial_refusal_chain,
    degenerate_binomial_mass,
    degenerate_factor_product,
    dpoisson_mean_chain,
    dpoisson_pgf_exponent_chain,
    dpoisson_refusal_chain,
    dpoisson_variance_chain,
    finite_dpoisson_mass_table_chain,
    finite_dpoisson_pgf_chain,
    pgf_argument_chain,
)

SRC = Path(__file__).resolve().parents[1] / "src"
WITNESS = DegenerateBinomial(3, Fraction(1, 10), Fraction(2, 5))
PGF_ARGUMENTS = (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2))
CANCELLING_MASSES = DegenerateBinomial(4, Fraction(1, 2), Fraction(10**300 + 1, 3 * 10**300))


def rel_close(a, b, tol=1e-8):
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def falling_from_rising(order, rising):
    """Lah inversion (x)_n = sum_k (-1)**(n-k) L(n, k) <x>_k."""
    return sum((-1) ** (order - k) * lah_number(order, k) * rising[k] for k in range(order + 1))


@st.composite
def _binomial_shapes(draw):
    """(n, lam) with n <= 40 and lam = c/e, 0 <= c < e <= 45; about half the
    draws put lam = 1/e at e = n-1, n or n+1, the edge of the vanishing rule."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        e = draw(st.integers(max(n - 1, 2), max(n + 1, 2)))
        return n, Fraction(1, e)
    e = draw(st.integers(1, 45))
    return n, Fraction(draw(st.integers(0, e - 1)), e)


class TestDegenerateBinomialConstruction:
    def test_vanishing_normalizer_rejected(self):
        with pytest.raises(DomainError):
            DegenerateBinomial(4, Fraction(1, 2), Fraction(1, 2))

    @given(_binomial_shapes(), st.fractions(0, 1, max_denominator=20))
    def test_rejected_exactly_when_the_normalizer_vanishes(self, shape, p):
        n, lam = shape
        vanishes = math.prod(1 - j * lam for j in range(n)) == 0
        try:
            DegenerateBinomial(n, p, lam)
        except DomainError:
            assert vanishes
        else:
            assert not vanishes

    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            DegenerateBinomial(2, Fraction(3, 2), Fraction(0))
        with pytest.raises(DomainError):
            DegenerateBinomial(2, Fraction(1, 2), Fraction(1))
        # a bad size raised a bare ValueError, every other bad parameter DomainError
        for n in (-1, True, 2.0):
            with pytest.raises(DomainError, match="^n must be a nonnegative integer$"):
                DegenerateBinomial(n, Fraction(1, 2), Fraction(0))

    def test_immutable_and_hashable(self):
        d = DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4))
        assert hash(d) == hash(DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4)))


class TestDegenerateBinomialPmf:
    def test_examples(self):
        assert DegenerateBinomial(1, Fraction(1, 2), Fraction(1, 4)).pmf(1) == Fraction(1, 2)
        assert DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4)).pmf(1) == Fraction(2, 3)
        assert WITNESS.pmf(2) == Fraction(-27, 40)

    def test_beyond_support(self):
        assert WITNESS.pmf(4) == 0

    def test_normalization_random(self):
        rng = random.Random(1)
        for _ in range(40):
            d = random_degenerate_binomial(rng)
            assert sum(d.masses()) == 1

    def test_signed_witness_still_normalized(self):
        assert sum(WITNESS.masses()) == 1


class TestMassTables:
    def test_binomial_table_matches_per_index_products(self):
        rng = random.Random(11)
        edges = [
            DegenerateBinomial(0, Fraction(1, 3), Fraction(1, 4)),
            DegenerateBinomial(5, Fraction(0), Fraction(1, 7)),
            DegenerateBinomial(5, Fraction(1), Fraction(1, 7)),
            DegenerateBinomial(3, Fraction(2, 5), Fraction(2, 3)),
        ]
        assert edges[-1].normalizer < 0
        _, den = edges[-1]._mass_table
        assert den > 0, "a negative normalizer must still give a positive table denominator"
        signed = truncated = 0
        for d in edges + [random_degenerate_binomial(rng) for _ in range(300)]:
            expected = [degenerate_binomial_mass(d.n, d.p, d.lam, i) for i in range(d.n + 1)]
            assert d.masses() == expected
            assert [d.pmf(i) for i in range(d.n + 2)] == expected + [0]
            cutoff = max((i for i, mass in enumerate(expected) if mass != 0), default=0)
            assert d.support_cutoff == cutoff
            assert analyze_support(d).cutoff == cutoff
            signed += any(mass < 0 for mass in expected)
            truncated += cutoff < d.n
        assert signed and truncated, "draws must cover signed and zero-tail regimes"

    def test_large_support_tables_finish_in_bounded_time(self):
        d = DegenerateBinomial(1500, Fraction(5, 13), Fraction(3, 11))
        start = time.perf_counter()
        raw2 = moment_direct(d, MomentKind.RAW, 2)
        pgf_direct(d, Fraction(1, 3))
        analysis = analyze_support(d)
        assert time.perf_counter() - start < 1.5
        assert raw2 == d.raw_moment(2)
        assert analysis.finite and not analysis.all_nonnegative
        d = DegeneratePoisson(Fraction(7, 3), Fraction(1, 1500))
        start = time.perf_counter()
        raw2 = moment_direct(d, MomentKind.RAW, 2)
        assert time.perf_counter() - start < 1.5
        assert raw2 == d.raw_moment(2)

    @pytest.mark.parametrize(
        "make",
        [lambda: binomial(10**20, Fraction(1, 2)), lambda: DegeneratePoisson(1, Fraction(1, 10**20))],
        ids=["binomial", "dpoisson"],
    )
    def test_support_past_the_index_range_raises_domain_error(self, make):
        # (start,) * n in the shared table builder raised a bare OverflowError,
        # and the finite dpoisson pmf(3) built (m*b)**(m - 3) and never returned
        d = make()
        calls = [d.masses, lambda: d.pmf(3), lambda: pgf_direct(d, Fraction(1, 2))]
        if isinstance(d, DegenerateBinomial):
            calls.append(lambda: analyze_support(d))
        for call in calls:
            with pytest.raises(DomainError, match="index range"):
                call()

    def test_exact_outputs_digest(self):
        # sha256 over masses, pmf, cutoffs, sign pattern, direct moments, both
        # pgfs, mgf floats and CDF floats of 400 random binomials and 156
        # finite dpoisson instances; any changed rational or float changes it
        rng = random.Random(2020)
        instances = [random_degenerate_binomial(rng) for _ in range(400)]
        signed = sum(any(mass < 0 for mass in d.masses()) for d in instances)
        negative_normalizer = sum(d.normalizer < 0 for d in instances)
        assert signed and negative_normalizer, "draws must cover signed and negative-normalizer regimes"
        for alpha in (Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(37, 3)):
            instances += [DegeneratePoisson(alpha, Fraction(1, m)) for m in range(2, 41)]
        parts = []
        for d in instances:
            masses = d.masses()
            parts += [repr(d), repr(masses), repr([d.pmf(i) for i in range(len(masses) + 1)])]
            analysis = analyze_support(d)
            parts += [repr(d.support_cutoff), repr(analysis)]
            parts += [repr(moment_direct(d, kind, order)) for kind in MomentKind for order in range(6)]
            for t in (Fraction(0), Fraction(-3, 4), Fraction(1, 3), Fraction(9, 10)):
                parts += [repr(d.pgf(t)), repr(pgf_direct(d, t))]
            if isinstance(d, DegenerateBinomial):
                parts += [repr(d.mgf(0.7)), repr(d.mgf(Fraction(-1, 5)))]
            if analysis.all_nonnegative:
                parts.append(repr(_cumulative_table(d)[0].tolist()))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert digest == "146d674c608a30a1a12f91b4dc0ced488993edbff45a61d8a45e700e28dfaa3f"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DegenerateBinomial(3, Fraction(1, 10), Fraction(2, 5)),
            lambda: DegeneratePoisson(Fraction(3), Fraction(1, 5)),
        ],
        ids=["binomial", "poisson"],
    )
    def test_mutating_returned_masses_leaves_instance_intact(self, make):
        d = make()
        before = d.masses()
        returned = d.masses()
        returned[0] += 1
        returned.append(Fraction(7))
        assert d.masses() == before
        assert [d.pmf(i) for i in range(len(before))] == before
        returned.clear()
        assert d.masses() == before


class TestDegenerateBinomialMoments:
    def test_mean_examples(self):
        assert DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4)).mean() == 1
        assert DegenerateBinomial(5, Fraction(1, 3), Fraction(0)).mean() == Fraction(5, 3)
        for lam in (Fraction(0), Fraction(1, 7), Fraction(3, 4)):
            assert DegenerateBinomial(1, Fraction(2, 5), lam).mean() == Fraction(2, 5)

    def test_variance_examples(self):
        assert DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4)).variance() == Fraction(1, 3)
        assert DegenerateBinomial(4, Fraction(1, 2), Fraction(0)).variance() == 1

    def test_signed_regime_variance_matches_brute_force(self):
        brute = moment_direct(WITNESS, MomentKind.RAW, 2) - moment_direct(WITNESS, MomentKind.RAW, 1) ** 2
        assert WITNESS.variance() == brute

    def test_closed_forms_match_brute_force(self):
        rng = random.Random(2)
        signed = 0
        # n = 0, a lam near the classical limit, and a negative normalizer
        # (1 - 2/3)(1 - 4/3) < 0, at orders past n
        fixed = [
            DegenerateBinomial(0, Fraction(1, 2), Fraction(1, 3)),
            DegenerateBinomial(4, Fraction(3, 7), Fraction(1, 10**6)),
            DegenerateBinomial(3, Fraction(2, 5), Fraction(2, 3)),
        ]
        assert fixed[2].normalizer < 0
        for d in fixed + [random_degenerate_binomial(rng) for _ in range(300)]:
            mean_brute = moment_direct(d, MomentKind.RAW, 1)
            var_brute = moment_direct(d, MomentKind.RAW, 2) - mean_brute**2
            assert d.mean() == mean_brute
            assert d.variance() == var_brute
            for order in range(8):
                assert d.raw_moment(order) == moment_direct(d, MomentKind.RAW, order)
                assert d.falling_factorial_moment(order) == moment_direct(d, MomentKind.FALLING, order)
                assert d.rising_factorial_moment(order) == moment_direct(d, MomentKind.RISING, order)
            signed += any(mass < 0 for mass in d.masses())
        assert signed, "draws must cover a signed regime"

    def test_large_n_closed_forms_finish_in_bounded_time(self):
        # the closed forms read only min(order, n) factors, never the n-factor
        # normalizer product or a mass table
        n, p, lam = 20000, Fraction(1, 3), Fraction(2, 7919)
        start = time.perf_counter()
        d = DegenerateBinomial(n, p, lam)
        variance = d.variance()
        rising = moment(d, "rising", 12)
        assert time.perf_counter() - start < 1.5
        assert variance == n * (n - 1) * p * (p - lam) / (1 - lam) + n * p - (n * p) ** 2
        assert isinstance(rising, Fraction) and rising > 0

    def test_falling_moment_past_n_needs_no_row_of_its_order(self):
        # the falling row was (0,) * order + (1,): 8 GB at order 10**9, so the
        # child caps its own address space at 1 GB
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from fractions import Fraction
            from lahbell import binomial, moment
            print(moment(binomial(5, Fraction(1, 2)), "falling", 10**9))
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr

    def test_small_n_variance_brute_path(self):
        assert DegenerateBinomial(0, Fraction(1, 2), Fraction(1, 3)).variance() == 0
        d = DegenerateBinomial(1, Fraction(1, 4), Fraction(2, 3))
        assert d.variance() == Fraction(1, 4) * Fraction(3, 4)

    def test_raw_moment_examples(self):
        d = DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4))
        assert d.raw_moment(0) == 1
        assert d.raw_moment(2) == Fraction(4, 3)

    def test_raw_moment_one_is_mean(self):
        rng = random.Random(3)
        for _ in range(10):
            d = random_degenerate_binomial(rng)
            assert d.raw_moment(1) == d.mean()

    def test_classical_limit_of_mean_and_variance(self):
        n, p = 12, Fraction(2, 5)
        target_mean = float(n * p)
        target_var = float(n * p * (1 - p))
        mean_errors, var_errors = [], []
        for exponent in (2, 4, 6):
            lam = Fraction(1, 10**exponent)
            d = DegenerateBinomial(n, p, lam)
            mean_errors.append(abs(float(d.mean()) - target_mean))
            var_errors.append(abs(float(d.variance()) - target_var))
        assert mean_errors[0] >= mean_errors[1] >= mean_errors[2]
        assert var_errors[0] >= var_errors[1] >= var_errors[2]
        assert mean_errors[2] < 1e-4
        assert var_errors[2] < 1e-4


class TestClosedFormDigest:
    def test_closed_form_outputs_digest(self):
        # sha256 over the closed-form moments of all three kinds, mean,
        # variance, normalizer and support analysis of 600 random binomials
        # (n <= 40) and 26 dpoisson instances (finite, infinite and classical
        # supports); recorded before the moments moved to falling-moment ratios
        rng = random.Random(1515)
        instances = [random_degenerate_binomial(rng, max_n=40) for _ in range(600)]
        for alpha in (Fraction(1, 3), Fraction(2), Fraction(7, 2), Fraction(5)):
            for lam in (0, Fraction(1, 2), Fraction(1, 7), Fraction(2, 5), Fraction(3, 5),
                        Fraction(1, 40), Fraction(2, 9), Fraction(1, 11)):
                try:
                    instances.append(DegeneratePoisson(alpha, Fraction(lam)))
                except DomainError:
                    continue
        assert len(instances) == 626
        parts = []
        regimes = set()
        for d in instances:
            analysis = analyze_support(d)
            regimes.add("finite" if analysis.finite else "infinite")
            if not analysis.all_nonnegative:
                regimes.add("signed")
            parts += [repr(d), repr(analysis), repr(analyze_support(d, horizon=3))]
            parts += [repr(moment(d, kind, order)) for kind in MomentKind for order in range(10)]
            parts += [repr(d.mean()), repr(d.variance())]
            if isinstance(d, DegenerateBinomial):
                parts.append(repr(d.normalizer))
                if d.normalizer < 0:
                    regimes.add("negative normalizer")
        assert regimes == {"finite", "infinite", "signed", "negative normalizer"}
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert digest == "b88ed9d140fe6436075a70babb4c8947d257ea54f8df28bf5a883889ac8bb240"


class TestDegenerateBinomialGeneratingFunctions:
    def test_mgf_at_zero(self):
        assert DegenerateBinomial(3, Fraction(1, 3), Fraction(1, 5)).mgf(0) == pytest.approx(1.0, abs=1e-15)

    def test_mgf_log2_example(self):
        d = DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4))
        assert d.mgf(math.log(2)) == pytest.approx(13 / 6, abs=1e-12)

    def test_mgf_slope_is_mean(self):
        rng = random.Random(4)
        h = 1e-6
        for _ in range(5):
            d = random_degenerate_binomial(rng, max_n=12)
            slope = (d.mgf(h) - d.mgf(-h)) / (2 * h)
            assert slope == pytest.approx(float(d.mean()), abs=1e-6)

    def test_pgf_is_exact_expectation(self):
        d = DegenerateBinomial(4, Fraction(1, 3), Fraction(1, 5))
        for t in (Fraction(1, 4), Fraction(-1, 2)):
            assert d.pgf(t) == pgf_direct(d, t)
        assert d.pgf(0) == 1

    def test_pgf_domain(self):
        with pytest.raises(DomainError):
            DegenerateBinomial(2, Fraction(1, 2), Fraction(0)).pgf(Fraction(3, 2))

    def test_mgf_past_the_float_range_raises_domain_error(self):
        # math.exp raised a bare OverflowError
        d = DegenerateBinomial(2, Fraction(1, 2), Fraction(0))
        for t in (1000, 355.0, 10**400):
            with pytest.raises(DomainError, match="outside the float range"):
                d.mgf(t)
        assert d.mgf(-1000) == d.mgf(-(10**400)) == 0.25
        # a zero mass adds nothing, however large its exponential
        assert DegenerateBinomial(2, Fraction(0), Fraction(0)).mgf(1000) == 1.0
        # masses near +-1e400 (the normalizer holds 1 - 3*lam = -10**-400): the
        # float division of a mass raised a bare OverflowError
        huge_masses = DegenerateBinomial(4, Fraction(1, 2), Fraction(10**400 + 1, 3 * 10**400))
        for t in (0, 1, Fraction(-1, 2)):
            with pytest.raises(DomainError, match="outside the float range"):
                huge_masses.mgf(t)

    def test_mgf_at_nan_is_nan(self):
        assert math.isnan(DegenerateBinomial(2, Fraction(1, 2), Fraction(0)).mgf(math.nan))

    def test_mgf_that_cancels_raises_domain_error(self):
        # masses near +-1e299 (the normalizer holds 1 - 3*lam = -10**-300)
        # sum to 1; the float sum lost every bit and gave mgf(0) = 0.0 and
        # mgf(1e-8) = 9.3e282 without an error, where the true values are 1
        # and -3.1e266
        for t in (0, 1e-8, Fraction(-1, 100)):
            with pytest.raises(DomainError, match="cancel"):
                CANCELLING_MASSES.mgf(t)
        # far from 0 the terms do not cancel: mgf(1) is -2.72e299, with an
        # 80-digit reference of -2.7241286312941526676e299
        assert CANCELLING_MASSES.mgf(1) == pytest.approx(-2.7241286312941526676e299, rel=1e-14)

    @example(d=CANCELLING_MASSES)
    @given(d=st.randoms(use_true_random=False).map(random_degenerate_binomial))
    def test_mgf_at_zero_is_one_or_a_domain_error(self, d):
        # the float sum keeps half its bits or raises: mgf(0) is 1 within
        # (n + 1) roundings of 2**-27 each, but not always exactly 1.0
        try:
            value = d.mgf(0)
        except DomainError:
            return
        assert abs(value - 1) <= (d.n + 1) * 2**-27


class TestDegeneratePoissonConstruction:
    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            DegeneratePoisson(Fraction(0), Fraction(1, 2))
        with pytest.raises(DomainError):
            DegeneratePoisson(Fraction(1), Fraction(1))

    def test_series_radius_enforced_for_infinite_support(self):
        with pytest.raises(DomainError):
            DegeneratePoisson(Fraction(3), Fraction(2, 5))
        DegeneratePoisson(Fraction(2), Fraction(2, 5))  # alpha*lam < 1 is fine

    def test_finite_support_flags(self):
        assert DegeneratePoisson(Fraction(1), Fraction(1, 2)).finite_support
        assert DegeneratePoisson(Fraction(1), Fraction(1, 2)).support_cutoff == 2
        assert not poisson(2).finite_support
        assert poisson(2).support_cutoff is None


class TestDegeneratePoissonPmf:
    def test_examples(self):
        d = DegeneratePoisson(Fraction(1), Fraction(1, 2))
        assert d.pmf(0) == Fraction(4, 9)
        assert d.pmf(2) == Fraction(1, 9)
        assert d.pmf(3) == 0

    def test_finite_normalization(self):
        for m in range(2, 41):
            d = DegeneratePoisson(Fraction(1, 2), Fraction(1, m))
            assert sum(d.masses()) == 1

    def test_finite_pmf_is_the_binomial_mass(self):
        # DegeneratePoisson(alpha, 1/m) is Binomial(m, alpha/(m + alpha))
        for alpha in (Fraction(1, 2), Fraction(3), Fraction(37, 3)):
            for m in (2, 5, 17, 40):
                d = DegeneratePoisson(alpha, Fraction(1, m))
                masses = d.masses()
                p = alpha / (m + alpha)
                assert masses == DegenerateBinomial(m, p).masses()
                assert masses == [degenerate_binomial_mass(m, p, 0, i) for i in range(m + 1)]
                for i in range(m + 1):
                    assert d.pmf(i) == masses[i]
                    assert d.pmf(i) == degenerate_binomial_mass(m, p, 0, i)
                assert d.pmf(m + 1) == 0

    def test_single_finite_pmf_skips_the_mass_table(self):
        d = DegeneratePoisson(Fraction(3, 2), Fraction(1, 8000))
        start = time.perf_counter()
        mass = d.pmf(3)
        assert time.perf_counter() - start < 2.0
        assert mass == degenerate_binomial_mass(8000, Fraction(3, 2) / (8000 + Fraction(3, 2)), 0, 3)

    def test_classical_pmf_is_float(self):
        p = poisson(2)
        assert p.pmf(3) == pytest.approx(math.exp(-2) * 8 / 6, rel=1e-12)

    def test_classical_pmf_past_the_float_range(self):
        # pmf(720) at 720 and pmf(700) at 800 raised a bare OverflowError (the
        # ratio alpha**i / i! overflows a float) and pmf(500) at 745 returned
        # 4.85e-22 for about 2.77e-22 (exp(-745) is a one-bit subnormal)
        def reference(alpha, i):
            return math.exp(i * math.log(alpha) - alpha - math.lgamma(i + 1))

        points = [(720, 720), (800, 700), (745, 500)]
        for alpha in [*range(709, 2001, 17), Fraction(1441, 2), Fraction(5000, 3)]:
            spread = int(3 * math.sqrt(alpha))
            points += [(alpha, int(alpha) - spread), (alpha, int(alpha)), (alpha, int(alpha) + spread)]
        for alpha, i in points:
            assert poisson(alpha).pmf(i) == pytest.approx(reference(float(alpha), i), rel=1e-10), (alpha, i)
        assert poisson(745).pmf(0) == 5e-324 and poisson(800).pmf(10) == 0.0

    def test_tiny_lam_is_the_classical_limit(self):
        # float(1 + lam) rounded to 1.0, so the normalizer e_lam(1)**-1 came out
        # 1.0: pmf(3) was 1/6 and pgf(1/2) was 1.0
        d = DegeneratePoisson(Fraction(1), Fraction(3, 10**20))
        assert not d.finite_support
        assert d.pmf(3) == pytest.approx(math.exp(-1) / 6, rel=1e-14)
        assert d.pgf(Fraction(1, 2)) == pytest.approx(math.e, rel=1e-14)

    def test_lam_past_the_float_range_is_the_classical_limit(self):
        # 1/lam has no float, and float(x/lam) raised a bare OverflowError
        d = DegeneratePoisson(Fraction(1), Fraction(3, 10**320))
        assert d.pmf(3) == pytest.approx(math.exp(-1) / 6, rel=1e-15)
        assert d.pgf(Fraction(1, 2)) == pytest.approx(math.e, rel=1e-15)

    def test_alpha_or_index_with_no_float(self):
        # each raised a bare OverflowError: float(alpha) or float(1/lam) in the
        # log normalizer, or the index in the zero bound (lgamma overflowed at
        # 10**307); every mass lies below the least subnormal, so each is a
        # zero with the sign of (1)_{i,lam}
        signed = DegeneratePoisson(Fraction(1, 2), Fraction(2, 5))
        zeros = [
            (poisson(5), 10**400, 1.0),
            (poisson(5), 10**310, 1.0),
            (poisson(5), 10**307, 1.0),
            (signed, 10**400, -1.0),
            (signed, 10**307, -1.0),
            (poisson(10**400), 3, 1.0),
            (poisson(10**309), 0, 1.0),
            (DegeneratePoisson(10**400, Fraction(3, 10**401)), 0, 1.0),
        ]
        for d, i, sign in zeros:
            mass = d.pmf(i)
            assert mass == 0 and math.copysign(1.0, mass) == sign, (d, i)
        with pytest.raises(TailError, match="significant bits"):
            _cumulative_table(poisson(10**400))
        # past alpha the masses shrink, so an index past 2**1000 is bounded by
        # the mass there; this one is near 4e-201, and no bound shows it zero
        with pytest.raises(DomainError):
            poisson(10**400).pmf(10**400)
        assert poisson(2**999).pmf(2**1000 + 1) == 0.0

    def test_lam_just_past_a_unit_fraction(self):
        # 1/lam = q + x with x or 1 - x about 10**-400: the float x/c rounded
        # to 0.0 and lgamma(0.0) in the zero bound raised a bare ValueError.
        # The factor 1 - q*lam (or 1 - (q + 1)*lam) is that small, so each
        # mass is a zero with the sign of (1)_{i,lam}
        c = 10**400
        cases = [(Fraction(c, 2 * c + 1), 3, 1.0), (Fraction(c, 2 * c + 1), 5, 1.0),
                 (Fraction(c, 3 * c - 1), 4, -1.0), (Fraction(c, 3 * c - 1), 6, -1.0)]
        for lam, i, sign in cases:
            mass = DegeneratePoisson(1, lam).pmf(i)
            assert mass == 0 and math.copysign(1.0, mass) == sign, (lam, i)
        # below the tiny factor the mass is (2/3)(1/3)/6 times (4/3)**-3
        assert DegeneratePoisson(1, Fraction(c, 3 * c - 1)).pmf(3) == pytest.approx(1 / 64, rel=1e-12)

    def test_subnormal_lam_on_the_log_path(self):
        # exp(-800) underflows, so pmf adds the log normalizer; dividing by the
        # subnormal float(lam) (61 ulps) made it about -796.3, not -800, and
        # pmf(800) came out near 0.57. The tolerance is the log path's: the
        # ratio's integer logs are about 6e5, so 1e-10 relative is their rounding
        reference = math.exp(800 * math.log(800) - math.lgamma(801) - 800)
        assert DegeneratePoisson(Fraction(800), Fraction(3, 10**322)).pmf(800) == pytest.approx(reference, rel=1e-9)
        # lgamma(1/lam) overflowed in the zero bound at this normal lam
        d = DegeneratePoisson(Fraction(7, 2), Fraction(3, 10**307))
        assert d.pmf(4) == pytest.approx(math.exp(4 * math.log(3.5) - 3.5) / 24, rel=1e-15)

    def test_signed_pmf_with_a_subnormal_normalizer(self):
        # (1 + lam*alpha)**(-1/lam) underflows to 0.0 at alpha = 1000,
        # lam = 2/3001, so every mass came out 0.0 or overflowed; the reference
        # is the exact ratio times the normalizer in 60-digit decimals
        decimal.getcontext().prec = 60

        def reference(alpha, lam, i):
            ratio = alpha**i * degenerate_factor_product(1, i, lam) / math.factorial(i)
            base = 1 + lam * alpha
            log_normalizer = -(decimal.Decimal(base.numerator) / base.denominator).ln() * lam.denominator / lam.numerator
            return float(decimal.Decimal(ratio.numerator) / ratio.denominator * log_normalizer.exp())

        d = DegeneratePoisson(Fraction(1000), Fraction(2, 3001))
        for i in (0, 300, 600, 700, 900, 1200):
            expected = reference(d.alpha, d.lam, i)
            assert d.pmf(i) == pytest.approx(expected, rel=1e-10, abs=0 if expected else 1e-320), i
        # the first negative mass keeps its sign, though it is subnormal
        d = DegeneratePoisson(Fraction(1024), Fraction(2, 2049))
        first = analyze_support(d).negative_indices[0]
        assert d.pmf(first - 1) > 0 > d.pmf(first)

    def test_underflowed_mass_returns_at_once(self):
        # the exact ratio alpha**i (1)_{i,lam} / i! was built for any i: 0.87 s
        # and 0.25 s for these two zeros
        for d, i, zero in ((poisson(2), 100_000, 0.0), (DegeneratePoisson(1, Fraction(2, 5)), 20_000, -0.0)):
            start = time.perf_counter()
            mass = d.pmf(i)
            assert time.perf_counter() - start < 0.1, (d, i)
            assert mass == 0 and math.copysign(1.0, mass) == math.copysign(1.0, zero), (d, i)

    def test_pmf_across_the_underflow_edge_digest(self):
        # sha256 of float.hex of every mass on a grid around the index where the
        # mass first rounds to zero (both sides of the mode at alpha 800), taken
        # before the log-space underflow bound went in and retaken when the
        # normalizer moved to log1p (3 of the 374 masses moved, each closer to
        # a 60-digit reference); each zero carries the sign of (1)_{i,lam},
        # whose factors 1 - j*lam are negative for j > 1/lam
        grid = (
            (Fraction(1, 2), Fraction(0), (157,)),
            (Fraction(1, 2), Fraction(2, 5), (450,)),
            (Fraction(1, 2), Fraction(2, 3001), (155,)),
            (Fraction(2), Fraction(0), (205,)),
            (Fraction(2), Fraction(2, 5), (3207,)),
            (Fraction(2), Fraction(2, 3001), (201,)),
            (Fraction(37, 3), Fraction(0), (323,)),
            (Fraction(37, 3), Fraction(2, 3001), (312,)),
            (Fraction(800), Fraction(0), (11, 2115)),
            (Fraction(800), Fraction(2, 3001), (1246,)),
        )
        parts = []
        for alpha, lam, edges in grid:
            d = DegeneratePoisson(alpha, lam)
            for edge in edges:
                for i in [*range(max(edge - 8, 0), edge + 24), 2 * edge, 4 * edge]:
                    mass = d.pmf(i)
                    if mass == 0:
                        negative_factors = sum(j * lam > 1 for j in range(i))
                        assert math.copysign(1.0, mass) == (-1.0) ** negative_factors, (alpha, lam, i)
                    parts.append(mass.hex())
        assert len(parts) == 374
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert digest == "486d78896f2b14c4160d7ed3c78974759dd5a6091a6484c428a832dd6bce1003"

    def test_float_boundary_digest(self):
        # sha256 of the classical pmf and pgf reprs plus four exact finite pgf
        # values; any change to one of these floats changes it. Re-pinned from
        # dc8f6ba5... when the float mass stream, whose reprs it also held,
        # was deleted; no pmf or pgf value changed
        parts = []
        for alpha in (Fraction(1, 2), Fraction(2), Fraction(37, 3)):
            d = poisson(alpha)
            parts += [repr(d.pmf(i)) for i in range(41)]
            parts += [repr(d.pgf(t)) for t in PGF_ARGUMENTS]
        for alpha, lam in (
            (Fraction(1), Fraction(1, 2)),
            (Fraction(2), Fraction(1, 5)),
            (Fraction(3, 2), Fraction(1, 7)),
            (Fraction(37, 3), Fraction(1, 40)),
        ):
            parts += [repr(DegeneratePoisson(alpha, lam).pgf(t)) for t in PGF_ARGUMENTS]
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert digest == "55fce4eb7d1c745204c717263298f08c8d1d35d60c3b1cc0daf9f35f3f0dda3c"


class TestDegeneratePoissonMoments:
    def test_mean_variance_examples(self):
        assert DegeneratePoisson(Fraction(1), Fraction(1, 2)).mean_variance() == (Fraction(2, 3), Fraction(4, 9))
        assert poisson(3).mean_variance() == (3, 3)
        assert DegeneratePoisson(Fraction(1), Fraction(1, 3)).mean_variance() == (Fraction(3, 4), Fraction(9, 16))

    def test_closed_forms_match_finite_sums(self):
        for alpha, m in ((Fraction(1), 2), (Fraction(1), 3), (Fraction(5, 2), 7), (Fraction(3), 11)):
            d = DegeneratePoisson(alpha, Fraction(1, m))
            mean_brute = moment_direct(d, MomentKind.RAW, 1)
            var_brute = moment_direct(d, MomentKind.RAW, 2) - mean_brute**2
            assert d.mean() == mean_brute
            assert d.variance() == var_brute
            for order in range(9):
                assert d.raw_moment(order) == moment_direct(d, MomentKind.RAW, order)
                assert d.falling_factorial_moment(order) == moment_direct(d, MomentKind.FALLING, order)
                assert d.rising_factorial_moment(order) == moment_direct(d, MomentKind.RISING, order)

    def test_rising_moment_example(self):
        d = DegeneratePoisson(Fraction(1), Fraction(1, 2))
        assert d.rising_factorial_moment(2) == Fraction(14, 9)
        assert d.rising_factorial_moment(0) == 1

    def test_falling_moment_is_mean_at_order_one(self):
        d = DegeneratePoisson(Fraction(1), Fraction(1, 2))
        assert d.falling_factorial_moment(1) == Fraction(2, 3)

    def test_falling_moment_past_the_cutoff_is_zero_at_once(self):
        # E[(X)_k] = 0 for k > 1/lam; walking every factor up to the order
        # grew one denominator per factor, about 2 s at order 5 * 10**4
        d = DegeneratePoisson(Fraction(1), Fraction(1, 3))
        start = time.perf_counter()
        assert moment(d, "falling", 10**5) == 0
        assert time.perf_counter() - start < 0.5

    def test_rising_moments_match_degenerate_polynomials(self):
        for alpha, m in ((Fraction(1), 2), (Fraction(2), 5), (Fraction(7, 2), 9)):
            lam = Fraction(1, m)
            d = DegeneratePoisson(alpha, lam)
            for order in range(9):
                expected = evaluate_degenerate(degenerate_lah_bell_polynomial(order, lam), alpha, lam)
                assert d.rising_factorial_moment(order) == expected

    def test_classical_closed_forms(self):
        p = poisson(2)
        assert p.falling_factorial_moment(3) == 8
        assert p.rising_factorial_moment(3) == 44
        assert p.raw_moment(3) == bell_polynomial(3).evaluate(2)

    def test_classical_closed_forms_match_series_oracle(self):
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            p = poisson(alpha)
            rising = lah_bell_series_coefficients(alpha, 8)
            for order in range(9):
                assert p.rising_factorial_moment(order) == rising[order]
                assert rising[order] == lah_bell_polynomial(order).evaluate(alpha)
                assert p.raw_moment(order) == bell_from_lahbell_degenerate(order, rising)
                assert p.raw_moment(order) == bell_polynomial(order).evaluate(alpha)
                assert p.falling_factorial_moment(order) == falling_from_rising(order, rising) == alpha**order

    def test_infinite_degenerate_moments_are_exact(self):
        pairs = (
            (Fraction(1), Fraction(2, 5)),
            (Fraction(1, 2), Fraction(1, 7)),
            (Fraction(1), Fraction(3, 5)),
            (Fraction(3), Fraction(1, 7)),
            (Fraction(2), Fraction(2, 9)),
        )
        infinite = 0
        for alpha, lam in pairs:
            d = DegeneratePoisson(alpha, lam)
            infinite += not d.finite_support
            # the pgf series oracle reads no triangle and no mass
            series = lah_bell_series_coefficients(alpha, 6, lam)
            for order in range(7):
                rising = d.rising_factorial_moment(order)
                raw = d.raw_moment(order)
                assert isinstance(rising, Fraction) and isinstance(raw, Fraction)
                assert rising == evaluate_degenerate(degenerate_lah_bell_polynomial(order, lam), alpha, lam)
                assert raw == evaluate_degenerate(degenerate_bell_polynomial(order, lam), alpha, lam)
                assert rising == series[order]
                assert raw == bell_from_lahbell_degenerate(order, series)
                assert d.falling_factorial_moment(order) == falling_from_rising(order, series)
        assert infinite == 3, "lam = 1/7 gives a finite support; the other three pairs do not"


class TestPgf:
    def test_trivial_argument(self):
        assert DegeneratePoisson(Fraction(1), Fraction(1, 2)).pgf(0) == 1
        assert poisson(1).pgf(0) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_exact_example(self):
        d = DegeneratePoisson(Fraction(1), Fraction(1, 2))
        assert d.pgf(Fraction(1, 2)) == Fraction(16, 9)
        assert pgf_direct(d, Fraction(1, 2)) == Fraction(16, 9)

    def test_degenerate_exact_agreement(self):
        for alpha, m in ((Fraction(1), 2), (Fraction(2), 5)):
            d = DegeneratePoisson(alpha, Fraction(1, m))
            for t in (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)):
                assert d.pgf(t) == pgf_direct(d, t)

    def test_infinite_support_agrees_with_series_partial_sum(self):
        p = poisson(1)
        assert p.pgf(Fraction(1, 2)) == pytest.approx(math.e, abs=1e-9)
        # sum_{n <= 120} E[<X>_n] t**n / n!, exact; 60 terms leave a 1.6e-10 tail at alpha 5/2, |t| = 1/2
        pairs = (
            (Fraction(1), Fraction(0)),
            (Fraction(5, 2), Fraction(0)),
            (Fraction(1), Fraction(2, 5)),
            (Fraction(1), Fraction(3, 5)),
            (Fraction(2), Fraction(2, 9)),
        )
        for alpha, lam in pairs:
            d = DegeneratePoisson(alpha, lam)
            assert not d.finite_support
            series = lah_bell_series_coefficients(alpha, 120, lam)
            for t in PGF_ARGUMENTS:
                partial = sum((c * t**n / math.factorial(n) for n, c in enumerate(series)), Fraction(0))
                assert rel_close(d.pgf(t), partial, tol=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            poisson(1).pgf(Fraction(1))

    def test_float_value_past_the_float_range_raises_domain_error(self):
        # exp(alpha (u - 1)) raised a bare OverflowError
        near_one = 1 - Fraction(1, 10**400)
        cases = [
            (poisson(800), Fraction(1, 2)),
            (poisson(2), Fraction(999, 1000)),
            (poisson(2), near_one),
            (DegeneratePoisson(Fraction(1), Fraction(2, 5)), near_one),
        ]
        for d, t in cases:
            with pytest.raises(DomainError, match="outside the float range"):
                d.pgf(t)
        assert poisson(5000).pgf(Fraction(-1, 2)) == 0.0

    def test_infinite_support_direct_sums_raise(self):
        for d in (poisson(1), DegeneratePoisson(Fraction(1), Fraction(2, 5))):
            for kind in MomentKind:
                with pytest.raises(DomainError):
                    moment_direct(d, kind, 2)
            with pytest.raises(DomainError):
                pgf_direct(d, Fraction(1, 4))


_BIG = 10**40
_PART = st.one_of(st.integers(1, 60), st.integers(10**20, _BIG))


def _unit_interval(closed: bool):
    """c/e in [0, 1], or [0, 1) when not closed, with e up to 10**40."""
    return st.builds(lambda e, c: Fraction(c % (e + closed), e), _PART, _PART)


_T = st.one_of(
    st.builds(lambda d, sign: sign * Fraction(d - 1, d), st.integers(2, _BIG), st.sampled_from((1, -1))),
    st.builds(lambda t: 2 * t - 1, _unit_interval(False)).filter(lambda t: t != -1),
)
_UNIT_LAM = st.integers(1, 60).map(lambda m: Fraction(1, m))
# in-range values with parts up to 10**40, the edges, and some out of range
_OUT_OF_RANGE = st.fractions(-1, 2, max_denominator=100)
_P = st.one_of(st.sampled_from((Fraction(0), Fraction(1))), _unit_interval(True), _OUT_OF_RANGE)
_LAM = st.one_of(st.just(Fraction(0)), _UNIT_LAM, _unit_interval(False), _OUT_OF_RANGE)
_ALPHA = st.one_of(st.fractions(-1, 20, max_denominator=50), st.builds(Fraction, _PART, _PART))


def _outcome(func, *args):
    """func(*args), or the type of the LahBellError it raises."""
    try:
        return func(*args)
    except DomainError as exc:
        return type(exc)


class TestIntegerPartsMatchFractionChains:
    """Every exact distribution result computed from integer parts is the
    rational the Fraction-chain oracles give, and the constructors refuse
    the same inputs with the same messages."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 25), _P, _LAM, _T)
    @example(3, Fraction(2, 5), Fraction(2, 3), Fraction(1, 2))  # negative normalizer
    @example(12, Fraction(1), Fraction(1, 13), Fraction(-1, 2))
    @example(12, Fraction(0), Fraction(3, 40), Fraction(1 - _BIG, _BIG))
    def test_degenerate_binomial(self, n, p, lam, t):
        refusal = dbinomial_refusal_chain(n, p, lam)
        if refusal:
            with pytest.raises(DomainError, match=f"^{re.escape(refusal)}"):
                DegenerateBinomial(n, p, lam)
            return
        d = DegenerateBinomial(n, p, lam)
        assert d._mass_table == binomial_mass_table_chain(n, p, lam)
        # the chain the one reduction replaced
        assert d.variance() == moment(d, MomentKind.RAW, 2) - d.mean() ** 2
        u = pgf_argument_chain(t)
        assert pgf_direct(d, t) == sum(mass * u**i for i, mass in enumerate(d.masses()))

    @settings(max_examples=200, deadline=None)
    @given(_ALPHA, st.one_of(_LAM, _UNIT_LAM), _T)
    @example(Fraction(1), Fraction(2, 5), Fraction(1, 2))  # signed, infinite support
    @example(Fraction(_BIG - 1, 3), Fraction(1, 60), Fraction(_BIG - 1, _BIG))
    def test_degenerate_poisson(self, alpha, lam, t):
        refusal = dpoisson_refusal_chain(alpha, lam)
        if refusal:
            with pytest.raises(DomainError, match=f"^{re.escape(refusal)}"):
                DegeneratePoisson(alpha, lam)
            return
        d = DegeneratePoisson(alpha, lam)
        assert d.mean() == dpoisson_mean_chain(alpha, lam)
        assert d.variance() == dpoisson_variance_chain(alpha, lam)
        assert Fraction(*_pgf_argument(t)) == pgf_argument_chain(t)
        # a support of 1/lam entries, with a c/e that reduced to a unit fraction
        assume(not d.finite_support or d.support_cutoff <= 200)
        if d.finite_support:
            assert d._mass_table == finite_dpoisson_mass_table_chain(alpha, lam)
            assert d.pgf(t) == finite_dpoisson_pgf_chain(alpha, lam, t)
        else:
            s = dpoisson_pgf_exponent_chain(alpha, lam, t)
            assert _outcome(d.pgf, t) == _outcome(degenerate_exp_eval, 1, s, lam)


class TestSupportAnalysis:
    def test_finite_nonnegative_cases(self):
        analysis = analyze_support(DegeneratePoisson(Fraction(1), Fraction(1, 2)))
        assert analysis == SupportAnalysis(True, 2, True, ())
        analysis = analyze_support(DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4)))
        assert analysis.finite and analysis.cutoff == 2 and analysis.all_nonnegative
        assert analysis.negative_indices == ()

    def test_signed_witness(self):
        analysis = analyze_support(WITNESS)
        assert analysis.finite
        assert analysis.cutoff == 3
        assert not analysis.all_nonnegative
        assert analysis.negative_indices == (2,)

    def test_classical_poisson(self):
        analysis = analyze_support(poisson(2))
        assert not analysis.finite
        assert analysis.cutoff is None
        assert analysis.all_nonnegative

    def test_infinite_signed_regime(self):
        analysis = analyze_support(DegeneratePoisson(Fraction(1), Fraction(2, 5)))
        assert not analysis.finite
        assert not analysis.all_nonnegative
        assert analysis.negative_indices
        first = analysis.negative_indices[0]
        d = DegeneratePoisson(Fraction(1), Fraction(2, 5))
        assert float(d.pmf(first)) < 0
        assert all(float(d.pmf(i)) >= 0 for i in range(first))

    def test_first_negative_reported_beyond_horizon(self):
        # 1/lam = 70.5, so the first negative mass sits at index 72, far past
        # the horizon; the report must still name it
        d = DegeneratePoisson(Fraction(1, 100), Fraction(2, 141))
        analysis = analyze_support(d, horizon=5)
        assert not analysis.all_nonnegative
        assert analysis.negative_indices == (72,)
        assert float(d.pmf(72)) < 0

    def test_classical_binomial_matches_masses(self):
        d = binomial(4, Fraction(1, 3))
        analysis = analyze_support(d)
        assert analysis.finite and analysis.cutoff == 4 and analysis.all_nonnegative

    def test_infinite_signed_report_is_constant_cost_at_any_horizon(self):
        # 1/lam = m + 1/2 with m = 10**5, so the first negative mass sits at
        # m + 2; the products (1)_{i,lam} up to it need gigabytes of integers, so the
        # child caps its own address space and times the call itself
        script = textwrap.dedent("""
            import resource, time
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from fractions import Fraction
            from lahbell import DegeneratePoisson, analyze_support
            m = 10**5
            d = DegeneratePoisson(Fraction(1, 10 * m), Fraction(2, 2 * m + 1))
            start = time.perf_counter()
            indices = analyze_support(d, horizon=10**9).negative_indices
            print(indices, time.perf_counter() - start)
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        indices, elapsed = result.stdout.rsplit(" ", 1)
        assert indices == "(100002,)"
        assert float(elapsed) < 0.5

    def test_finite_poisson_report_needs_no_mass_table(self):
        # lam = 1/m gives the classical Binomial(m, alpha/(m + alpha)) masses;
        # building the table for m = 20000 took about 18 s on a 2-vCPU VM
        d = DegeneratePoisson(Fraction(1), Fraction(1, 20000))
        start = time.perf_counter()
        assert analyze_support(d, horizon=10**9) == SupportAnalysis(True, 20000, True, ())
        assert time.perf_counter() - start < 0.5
        assert "_mass_table" not in vars(d)

    @given(
        st.integers(2, 40),
        st.integers(1, 60),
        st.fractions(Fraction(1, 20), 20, max_denominator=20),
        st.integers(0, 200),
    )
    def test_infinite_signed_report_is_the_first_negative_product(self, c, extra, alpha, horizon):
        lam = Fraction(c, c + extra)
        assume(lam.numerator > 1 and alpha * lam < 1)
        first = next(i for i in itertools.count() if degenerate_factor_product(1, i, lam) < 0)
        analysis = analyze_support(DegeneratePoisson(alpha, lam), horizon)
        assert analysis == SupportAnalysis(False, None, False, (first,))

    @given(st.integers(0, 2**32), st.integers(0, 45))
    def test_finite_report_matches_mass_signs(self, seed, horizon):
        d = random_degenerate_binomial(random.Random(seed))
        masses = d.masses()
        negatives = [i for i, x in enumerate(masses) if x < 0]
        shown = [i for i in negatives if i <= horizon] or negatives[:1]
        cutoff = max((i for i, x in enumerate(masses) if x), default=0)
        analysis = analyze_support(d, horizon)
        assert analysis == SupportAnalysis(True, cutoff, not negatives, tuple(shown))
