import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lahbell import (
    DegenerateBinomial,
    DegeneratePoisson,
    DomainError,
    LahBellError,
    MomentKind,
    SamplerStream,
    SignedMassError,
    UnknownIdentityError,
    VerificationReport,
    draw_samples,
    estimate_moment,
    estimate_moment_partitioned,
    format_rational,
    poisson,
    registered_identities,
    run_suite,
    sample,
    suite_instances,
    verify_identity,
)
from lahbell import montecarlo, polynomials
from lahbell.distributions import moment
from lahbell.exact_core import STIRLING1_TRIANGLE, STIRLING2_TRIANGLE
from lahbell.polynomials import (
    RationalPolynomial,
    bell_polynomial,
    degenerate_lah_bell_polynomial,
    degenerate_lah_bell_polynomial_via_bell,
    evaluate_degenerate,
    lah_bell_polynomial,
    lahbell_from_bell,
)
from lahbell.montecarlo import _cumulative_table, z_score
from oracles import degenerate_factor_product, falling_factorial_coefficients, stirling2_explicit

WITNESS = DegenerateBinomial(3, Fraction(1, 10), Fraction(2, 5))
DP_HALF = DegeneratePoisson(Fraction(1), Fraction(1, 2))
class CorruptedTriangle:
    """A triangle whose entry (n, k) is off by `delta`; every other row is the real one."""

    def __init__(self, triangle, n, k, delta):
        self.triangle, self.n, self.k, self.delta = triangle, n, k, delta

    def row(self, m):
        row = self.triangle.row(m)
        if m != self.n:
            return row
        return row[: self.k] + (row[self.k] + self.delta,) + row[self.k + 1:]


def signed_row_sum(row, values):
    """sum_k (-1)**(n-k) row[k] v[k] in Fractions, the per-n route."""
    n = len(row) - 1
    return sum((-1) ** (n - k) * t * v for k, (t, v) in enumerate(zip(row, values)))


STATISTICAL_TAGS = {
    "poisson-raw-moment",
    "poisson-falling-moment",
    "poisson-rising-moment",
    "poisson-pgf",
    "dpoisson-sample-mean",
}


class TestSamplerStream:
    def test_same_key_reproduces(self):
        a = SamplerStream(123, 4).uniforms(1000)
        b = SamplerStream(123, 4).uniforms(1000)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = SamplerStream(123, 0).uniforms(100)
        b = SamplerStream(123, 1).uniforms(100)
        assert not np.array_equal(a, b)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            SamplerStream(-1)
        with pytest.raises(ValueError):
            SamplerStream(2**64)


class TestCumulativeTables:
    def test_finite_table_exact_before_floats(self):
        table = _cumulative_table(DP_HALF)
        assert table[-1] == 1.0
        assert len(table) == 3

    def test_signed_measure_refused(self):
        with pytest.raises(SignedMassError) as excinfo:
            _cumulative_table(WITNESS)
        assert "index 2" in str(excinfo.value)

    def test_poisson_truncation_coverage(self):
        table = _cumulative_table(poisson(2))
        assert table[-1] == 1.0
        # the table stops at the first index whose natural cumulative reaches
        # the coverage target, and that last bucket absorbs the tail
        stream = poisson(2)._float_mass_stream()
        natural = 0.0
        for _ in range(len(table)):
            natural += next(stream)
        assert natural >= 1.0 - 1e-12
        assert table[-2] < 1.0 - 1e-12

    def test_large_finite_table_finishes_in_bounded_time(self):
        d = DegenerateBinomial(1500, Fraction(1, 3), Fraction(1, 7919))
        start = time.perf_counter()
        table = _cumulative_table.__wrapped__(d)  # bypass the cache: time the build
        # about 0.09 s on a 2-vCPU machine; summing 1501 Fraction masses took 0.9 s
        assert time.perf_counter() - start < 0.6
        nums, den = d._mass_table
        assert len(table) == 1501 and table[-1] == 1.0
        for i in (0, 499, 500, 1000, 1499):
            assert table[i] == float(Fraction(sum(nums[: i + 1]), den))


class TestSampling:
    def test_finite_support_only(self):
        stream = SamplerStream(0, 0)
        values = {sample(DP_HALF, stream) for _ in range(2000)}
        assert values <= {0, 1, 2}

    def test_signed_mass_error(self):
        with pytest.raises(SignedMassError):
            sample(WITNESS, SamplerStream(0, 0))

    def test_empirical_frequencies(self):
        d = DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4))
        count = 200_000
        draws = draw_samples(d, count, SamplerStream(11, 0))
        freq = np.bincount(draws, minlength=3) / count
        for i, mass in enumerate((Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))):
            p = float(mass)
            se = math.sqrt(p * (1 - p) / count)
            assert abs(freq[i] - p) <= 5 * se


class TestEstimateMoment:
    def test_order_zero_exact(self):
        est = estimate_moment(DP_HALF, MomentKind.RAW, 0, 100, SamplerStream(0, 0))
        assert est.estimate == 1.0
        assert est.standard_error == 0.0

    def test_poisson_falling_moment(self):
        est = estimate_moment(poisson(2), MomentKind.FALLING, 2, 100_000, SamplerStream(17, 0))
        assert abs(est.estimate - 4) <= 5 * est.standard_error

    def test_poisson_rising_moment(self):
        est = estimate_moment(poisson(2), MomentKind.RISING, 3, 100_000, SamplerStream(17, 1))
        assert abs(est.estimate - 44) <= 5 * est.standard_error

    def test_sample_count_recorded(self):
        est = estimate_moment(DP_HALF, "raw", 1, 50, SamplerStream(1, 0))
        assert est.sample_count == 50
        assert est.moment_kind is MomentKind.RAW

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_moment(DP_HALF, "raw", 1, 1, SamplerStream(0, 0))


class TestZScore:
    def test_ratio(self):
        assert z_score(3.0, 0.5, Fraction(2)) == 2.0
        assert z_score(1.0, 0.5, 2.0) == -2.0

    def test_zero_standard_error(self):
        assert z_score(2.0, 0.0, Fraction(2)) == 0.0
        assert z_score(2.5, 0.0, Fraction(2)) == math.inf


class TestMomentTarget:
    def test_classical_poisson_closed_forms(self):
        d = poisson(2)
        assert moment(d, MomentKind.FALLING, 2) == 4
        assert moment(d, MomentKind.RISING, 3) == 44
        assert moment(d, "raw", 3) == 22

    def test_finite_instance_is_exact(self):
        assert moment(DP_HALF, MomentKind.RAW, 1) == DP_HALF.mean()
        assert moment(WITNESS, MomentKind.RAW, 2) == WITNESS.raw_moment(2)


class TestPartitionedEstimation:
    def test_single_worker_matches_plain(self):
        plain = estimate_moment(poisson(2), "falling", 2, 50_000, SamplerStream(7, 0))
        merged = estimate_moment_partitioned(poisson(2), "falling", 2, 50_000, 7, 1)
        assert merged.estimate == pytest.approx(plain.estimate, rel=1e-12)
        assert merged.standard_error == pytest.approx(plain.standard_error, rel=1e-9)

    def test_merge_is_deterministic(self):
        first = estimate_moment_partitioned(DP_HALF, "raw", 1, 30_001, 5, 4)
        second = estimate_moment_partitioned(DP_HALF, "raw", 1, 30_001, 5, 4)
        assert first == second
        assert first.sample_count == 30_001

    def test_worker_count_changes_stream_layout_not_validity(self):
        for workers in (2, 3, 5):
            est = estimate_moment_partitioned(poisson(2), "raw", 1, 60_000, 21, workers)
            assert abs(est.estimate - 2) <= 5 * est.standard_error

    def test_huge_worker_count_finishes_in_bounded_time(self):
        # workers past the sample count draw nothing and are never visited
        start = time.perf_counter()
        huge = estimate_moment_partitioned(DP_HALF, "raw", 2, 500, 3, 10**12)
        assert time.perf_counter() - start < 2.0
        assert huge == estimate_moment_partitioned(DP_HALF, "raw", 2, 500, 3, 500)
        assert huge.sample_count == 500


class TestVerifyIdentity:
    def test_unknown_tag(self):
        with pytest.raises(UnknownIdentityError):
            verify_identity("no-such-identity", {})

    def test_negative_size_params_raise_domain_error(self):
        # an empty n_max range used to pass as 0 = 0, and a negative order
        # raised a plain ValueError from deep inside the check; a non-integer
        # size was truncated silently and reported PASS
        sized = {}
        for tag, params in suite_instances("all", n_max=2):
            for key in ("n", "n_max", "order"):
                if key in params:
                    sized.setdefault(tag, (key, params))
        assert set(sized) == {
            "stirling-inversion", "stirling1-row-sums", "lah-closed-form", "lahbell-series",
            "lah-basis-transform", "dlahbell-constructions", "transform-roundtrip",
            "dpoisson-rising-moment", "dpoisson-rising-expansion",
            "poisson-raw-moment", "poisson-falling-moment", "poisson-rising-moment",
            "dbinomial-normalization", "dbinomial-mean", "dbinomial-variance",
        }
        for tag, (key, params) in sized.items():
            for bad in (-1, -7, Fraction(7, 2), Fraction(5, 2), Fraction(3, 2), 2.9, "abc", True):
                with pytest.raises(DomainError, match=key):
                    verify_identity(tag, {**params, key: bad}, samples=100)

    def test_params_must_hold_exactly_the_tag_keys(self):
        # a missing key used to raise a bare KeyError, a typo key was echoed
        # into the report, and a float reached as_rational's TypeError
        instances = dict(suite_instances("all", n_max=2))
        assert set(instances) == set(registered_identities())
        for tag, params in instances.items():
            for key in params:
                with pytest.raises(DomainError):
                    verify_identity(tag, {k: v for k, v in params.items() if k != key}, samples=100)
                if key not in ("n", "n_max", "order"):
                    with pytest.raises(DomainError):
                        verify_identity(tag, {**params, key: 0.5}, samples=100)
            with pytest.raises(DomainError):
                verify_identity(tag, {**params, "n_maxx": 2}, samples=100)

    def test_rational_params_are_reported_canonically(self):
        report = verify_identity("dbinomial-mean", {"n": 2, "p": "2/4", "lam": "1/4"})
        assert report.status == "PASS"
        assert report.params == {"n": "2", "p": "1/2", "lam": "1/4"}

    def test_bad_samples_raise_domain_error(self):
        # samples = 2.9 ran as 2, samples = 1 gave a NaN standard error on
        # poisson-pgf and samples = 0 divided by zero there
        instances = {tag: params for tag, params in suite_instances("all") if tag in STATISTICAL_TAGS}
        assert set(instances) == STATISTICAL_TAGS
        for tag, params in instances.items():
            for bad in (0, 1, -3, 2.9, True, "100"):
                with pytest.raises(DomainError, match="samples"):
                    verify_identity(tag, params, samples=bad, stream=SamplerStream(0, 0))
            assert verify_identity(tag, params, samples=2, stream=SamplerStream(0, 0)).samples == 2

    def test_poisson_pgf_refuses_t_outside_the_unit_interval(self):
        # t = 1 divided by zero, and |t| >= 1 ran although dpoisson-pgf refuses it
        for t in (Fraction(1), Fraction(-1), Fraction(3)):
            with pytest.raises(DomainError, match=r"\|t\| < 1"):
                verify_identity("poisson-pgf", {"alpha": Fraction(1), "t": t}, samples=100)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_params_give_a_report_or_a_typed_error(self, data):
        # a slice of the regime sweep: every tag, valid and invalid values per
        # key, dropped and extra keys, and bad sample counts
        tag = data.draw(st.sampled_from(registered_identities()))
        template = dict(suite_instances("all", n_max=2))[tag]
        junk = st.sampled_from([-1, -7, Fraction(7, 2), 2.9, 0.5, float("nan"), "abc", "1/0", "2/4", True, None, []])
        rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))

        def value(valid):
            return data.draw(junk if data.draw(st.integers(0, 3)) == 0 else valid)

        params = {}
        for key in template:
            if data.draw(st.integers(0, 9)) != 0:
                params[key] = value(st.integers(0, 14) if key in ("n", "n_max", "order") else rationals)
        if data.draw(st.integers(0, 9)) == 0:
            params["extra"] = value(rationals)
        samples = value(st.integers(2, 300))
        try:
            report = verify_identity(tag, params, samples=samples, stream=SamplerStream(0, 0))
        except LahBellError:
            return
        assert isinstance(report, VerificationReport)
        assert report.status in ("PASS", "FAIL", "SKIPPED")

    def test_exact_mean_report(self):
        report = verify_identity(
            "dbinomial-mean", {"n": 2, "p": Fraction(1, 2), "lam": Fraction(1, 4)}
        )
        assert report.mode == "EXACT"
        assert report.status == "PASS"
        assert report.lhs == report.rhs == "1"
        assert report.discrepancy == "0"

    def test_exact_pgf_report(self):
        report = verify_identity(
            "dpoisson-pgf", {"alpha": Fraction(1), "lam": Fraction(1, 2), "t": Fraction(1, 2)}
        )
        assert report.status == "PASS"
        assert report.lhs == report.rhs == "16/9"

    def test_statistical_rising_report(self):
        report = verify_identity(
            "poisson-rising-moment",
            {"alpha": Fraction(2), "order": 3},
            samples=100_000,
            z_threshold=5.0,
            stream=SamplerStream(42, 0),
        )
        assert report.mode == "STATISTICAL"
        assert report.status == "PASS"
        assert report.rhs == "44"
        assert float(report.discrepancy) <= 5.0
        assert report.params["z_threshold"] == "5.0"
        assert report.seed == 42 and report.samples == 100_000

    def test_statistical_failure_with_absurd_threshold(self):
        report = verify_identity(
            "poisson-rising-moment",
            {"alpha": Fraction(2), "order": 3},
            samples=10_000,
            z_threshold=1e-12,
            stream=SamplerStream(0, 0),
        )
        assert report.status == "FAIL"

    def test_rising_expansion_rhs_is_the_double_stirling_sum(self):
        # rhs = sum_l (sum_k (-1)**(n-k) s1(n,k) S2(k,l)) (1)_{l,lam} y**l with
        # y = alpha/(1 + lam*alpha), rebuilt from the oracle Stirling numbers
        instances = ((1, Fraction(1, 2)), (1, Fraction(1, 3)), (3, Fraction(1, 5)), (Fraction(7, 2), Fraction(1, 10)))
        for alpha, lam in instances:
            y = alpha / (1 + lam * alpha)
            for order in (0, 1, 3, 6, 9):
                s1 = falling_factorial_coefficients(order)
                expected = sum(
                    sum((-1) ** (order - k) * s1[k] * stirling2_explicit(k, l) for k in range(l, order + 1))
                    * degenerate_factor_product(1, l, lam) * y**l
                    for l in range(order + 1)
                )
                report = verify_identity(
                    "dpoisson-rising-expansion", {"alpha": alpha, "lam": lam, "order": order}
                )
                assert report.status == "PASS"
                assert report.rhs == format_rational(expected)

    def test_dlahbell_constructions_reports_the_worst_coefficient_gap(self, monkeypatch):
        # a broken via-Bell side at n = 3: coefficient 2 off by 1/5 and a
        # spurious y**5 term of 7/3, so the worst gap is 7/3
        def broken(n, lam):
            poly = degenerate_lah_bell_polynomial_via_bell(n, lam)
            if n != 3:
                return poly
            coeffs = list(poly.coefficients) + [Fraction(0), Fraction(7, 3)]
            coeffs[2] += Fraction(1, 5)
            return RationalPolynomial(coeffs, "y")

        monkeypatch.setattr(montecarlo, "degenerate_lah_bell_polynomial_via_bell", broken)
        report = verify_identity("dlahbell-constructions", {"lam": Fraction(2, 7), "n_max": 5})
        assert report.status == "FAIL"
        assert (report.lhs, report.rhs) == ("7/3", "0")
        assert report.discrepancy == repr(float(Fraction(7, 3)))

    @given(st.data())
    def test_dlahbell_constructions_pass_at_the_lambda_edges(self, data):
        # half the draws sit at the cut lam = 1/e near the order, the rest are
        # c/e with -40 <= c < e <= 40, negative lam included
        n = data.draw(st.integers(0, 40))
        if data.draw(st.booleans()):
            lam = Fraction(1, data.draw(st.integers(max(n - 1, 1), n + 1)))
        else:
            e = data.draw(st.integers(1, 40))
            lam = Fraction(data.draw(st.integers(-40, e - 1)), e)
        report = verify_identity("dlahbell-constructions", {"lam": lam, "n_max": n})
        assert (report.status, report.discrepancy) == ("PASS", "0")
        assert degenerate_lah_bell_polynomial(n, lam) == degenerate_lah_bell_polynomial_via_bell(n, lam)

    def test_lahbell_suite_builds_each_product_row_once(self):
        n_max = 15
        polynomials._stirling_product_row.cache_clear()
        reports = run_suite("lahbell", n_max=n_max)
        instances = sum(r.identity == "dlahbell-constructions" for r in reports)
        info = polynomials._stirling_product_row.cache_info()
        assert instances == 5 and all(r.status == "PASS" for r in reports)
        assert (info.misses, info.hits) == (n_max + 1, (instances - 1) * (n_max + 1))

    def test_lah_basis_transform_reports_the_worst_gap(self, monkeypatch):
        # S1(4, 2) off by 3: the transformed values of order 4 stop matching
        alpha, n_max = Fraction(3, 2), 6
        bad = CorruptedTriangle(STIRLING1_TRIANGLE, 4, 2, 3)
        monkeypatch.setattr(montecarlo, "STIRLING1_TRIANGLE", bad)
        bell_values = [bell_polynomial(k).evaluate(alpha) for k in range(n_max + 1)]
        worst = max(
            abs(signed_row_sum(bad.row(n), bell_values) - lah_bell_polynomial(n).evaluate(alpha))
            for n in range(n_max + 1)
        )
        assert worst != 0
        report = verify_identity("lah-basis-transform", {"alpha": alpha, "n_max": n_max})
        assert report.status == "FAIL"
        assert (report.lhs, report.rhs) == (format_rational(worst), "0")
        assert report.discrepancy == repr(float(worst))

    def test_transform_roundtrip_reports_the_worst_gap(self, monkeypatch):
        # S2(5, 3) off by -7, in the degenerate Bell values and in the inverse
        # transform alike, so S2 no longer inverts S1
        lam, x, n_max = Fraction(2, 7), Fraction(3), 7
        bad = CorruptedTriangle(STIRLING2_TRIANGLE, 5, 3, -7)
        monkeypatch.setattr(montecarlo, "STIRLING2_TRIANGLE", bad)
        bell_values = [
            evaluate_degenerate(RationalPolynomial.from_row(bad.row(k), lam), x, lam) for k in range(n_max + 1)
        ]
        forward = [lahbell_from_bell(n, bell_values) for n in range(n_max + 1)]
        worst = max(abs(signed_row_sum(bad.row(n), forward) - bell_values[n]) for n in range(n_max + 1))
        assert worst != 0
        report = verify_identity("transform-roundtrip", {"lam": lam, "x": x, "n_max": n_max})
        assert report.status == "FAIL"
        assert (report.lhs, report.rhs) == (format_rational(worst), "0")
        assert report.discrepancy == repr(float(worst))

    def test_skipped_for_infinite_support_exact_check(self):
        common = {"alpha": Fraction(1), "lam": Fraction(2, 5)}
        for tag, extra in (
            ("dpoisson-normalization", {}),
            ("dpoisson-mean", {}),
            ("dpoisson-variance", {}),
            ("dpoisson-rising-moment", {"order": 3}),
            ("dpoisson-rising-expansion", {"order": 3}),
            ("dpoisson-pgf", {"t": Fraction(1, 2)}),
        ):
            report = verify_identity(tag, {**common, **extra})
            assert (report.identity, report.mode, report.status) == (tag, "EXACT", "SKIPPED"), tag
            assert (report.lhs, report.rhs, report.discrepancy) == ("", "", "0"), tag

    def test_reports_are_byte_identical_across_reruns(self):
        kwargs = dict(samples=20_000, z_threshold=5.0)
        first = verify_identity(
            "dpoisson-sample-mean", {"alpha": Fraction(1), "lam": Fraction(1, 2)},
            stream=SamplerStream(3, 1), **kwargs,
        )
        second = verify_identity(
            "dpoisson-sample-mean", {"alpha": Fraction(1), "lam": Fraction(1, 2)},
            stream=SamplerStream(3, 1), **kwargs,
        )
        assert first.to_json().encode() == second.to_json().encode()


class TestSuites:
    def test_suite_instances_cover_registry(self):
        tags = {tag for tag, _ in suite_instances("all")}
        assert tags == set(registered_identities())

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite_instances("bogus")

    def test_all_suite_passes(self):
        instances = suite_instances("all", n_max=10, seed=0)
        reports = run_suite("all", n_max=10, seed=0, trials=20_000)
        assert reports, "suite must not be empty"
        assert len(reports) == len(instances)
        for (tag, _), report in zip(instances, reports):
            assert report.identity == tag
            assert (report.mode == "STATISTICAL") == (tag in STATISTICAL_TAGS), tag
        assert all(r.status == "PASS" for r in reports)

    def test_streams_only_for_statistical_checks(self, monkeypatch):
        built = []

        class RecordingStream(montecarlo.SamplerStream):
            def __init__(self, master_seed, stream_index=0):
                built.append((master_seed, stream_index))
                super().__init__(master_seed, stream_index)

        monkeypatch.setattr(montecarlo, "SamplerStream", RecordingStream)
        instances = suite_instances("all", n_max=4, seed=3)
        reports = run_suite("all", n_max=4, seed=3, trials=2000)
        expected = [(3, index) for index, (tag, _) in enumerate(instances) if tag in STATISTICAL_TAGS]
        assert built == expected and expected
        assert all(r.seed == 3 for r in reports if r.mode == "STATISTICAL")
        built.clear()
        run_suite("lahbell", n_max=4, seed=3)
        assert built == []

    def test_suite_deterministic(self):
        first = [r.to_json() for r in run_suite("dpoisson", seed=9, trials=10_000)]
        second = [r.to_json() for r in run_suite("dpoisson", seed=9, trials=10_000)]
        assert first == second

    def test_calibration(self):
        # deterministic z-rate sanity check over 100 seeded replications
        stat_instances = [
            ("poisson-falling-moment", {"alpha": Fraction(2), "order": 2}),
            ("poisson-rising-moment", {"alpha": Fraction(2), "order": 3}),
            ("poisson-raw-moment", {"alpha": Fraction(2), "order": 3}),
            ("poisson-pgf", {"alpha": Fraction(1), "t": Fraction(1, 2)}),
            ("dpoisson-sample-mean", {"alpha": Fraction(1), "lam": Fraction(1, 2)}),
        ]
        total = 0
        exceed = 0
        for seed in range(100):
            for index, (tag, params) in enumerate(stat_instances):
                report = verify_identity(
                    tag, params, samples=10_000, z_threshold=5.0,
                    stream=SamplerStream(seed, index),
                )
                total += 1
                if float(report.discrepancy) > 3:
                    exceed += 1
        assert exceed / total < 0.02
