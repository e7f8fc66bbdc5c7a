import decimal
import json
import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lahbell import (
    DegenerateBinomial,
    DegeneratePoisson,
    DomainError,
    LahBellError,
    MomentKind,
    SamplerStream,
    SignedMassError,
    TailError,
    UnknownIdentityError,
    VerificationReport,
    binomial,
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
from lahbell.distributions import _pgf_argument, moment
from lahbell.exact_core import LAH_TRIANGLE, STIRLING1_TRIANGLE, STIRLING2_TRIANGLE, degenerate_exp_eval
from lahbell.polynomials import (
    RationalPolynomial,
    bell_polynomial,
    degenerate_lah_bell_polynomial,
    degenerate_lah_bell_polynomial_via_bell,
    evaluate_degenerate,
    lah_bell_polynomial,
    lah_bell_series_coefficients,
    lahbell_from_bell,
)
from lahbell.montecarlo import _cumulative_table, _exact_mean_and_error, _sqrt_ratio, z_score
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

    def test_consecutive_fills_are_one_uniforms_call(self):
        # the counter relies on it: blocks filled one after another give the
        # stream that one `uniforms` call of their total size gives
        block = montecarlo._BLOCK
        sizes = (block, block, 7, 1, block - 1)
        stream = SamplerStream(29, 3)
        filled = []
        for size in sizes:
            out = np.empty(size)
            stream.fill(out)
            filled.append(out)
        assert np.array_equal(np.concatenate(filled), SamplerStream(29, 3).uniforms(sum(sizes)))
        # and the stream goes on where the fills left it
        assert np.array_equal(stream.uniforms(5), SamplerStream(29, 3).uniforms(sum(sizes) + 5)[-5:])


class TestCumulativeTables:
    def test_finite_table_exact_before_floats(self):
        table = _cumulative_table(DP_HALF)[0]
        assert table[-1] == 1.0
        assert len(table) == 3

    def test_signed_measure_refused(self):
        with pytest.raises(SignedMassError) as excinfo:
            _cumulative_table(WITNESS)
        assert "index 2" in str(excinfo.value)

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2), Fraction(37, 3), Fraction(1355, 2), Fraction(716)])
    def test_poisson_truncation_coverage(self, alpha):
        # entry i is one rounding of start * sum_{j<=i} a**j / j!, with a =
        # float(alpha) and start = exp(-alpha), both taken exactly; the table
        # stops at the first index where that rounding reaches the coverage
        # target, and that last bucket, set to 1.0, absorbs the tail
        table = _cumulative_table(poisson(alpha))[0]
        a = Fraction(float(alpha))
        start = Fraction(degenerate_exp_eval(-1, alpha, 0))
        target = 1.0 - montecarlo.TAIL_COVERAGE_GAP
        partial, term = Fraction(0), Fraction(1)
        for i, entry in enumerate(table[:-1]):
            partial += term
            term *= a / (i + 1)
            assert entry == float(partial * start) < target, (alpha, i)
        assert float((partial + term) * start) >= target
        assert table[-1] == 1.0

    def test_classical_poisson_start_mass_too_small_raises_tail_error(self):
        # exp(-alpha) below 2**-1034 keeps at most 40 significant bits; alpha
        # 740-745 used to build a table from it and sample far below the mean
        for alpha in (717, 730, 740, 745, 800):
            start = time.perf_counter()
            with pytest.raises(TailError, match="significant bits"):
                _cumulative_table.__wrapped__(poisson(alpha))
            assert time.perf_counter() - start < 1.0, alpha
        assert _cumulative_table.__wrapped__(poisson(716))[0][-1] == 1.0

    def test_large_finite_table_finishes_in_bounded_time(self):
        d = DegenerateBinomial(1500, Fraction(1, 3), Fraction(1, 7919))
        start = time.perf_counter()
        table = _cumulative_table.__wrapped__(d)[0]  # bypass the cache: time the build
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


class CraftedStream:
    """Hands out the given uniforms in order, as `SamplerStream.uniforms` and
    `SamplerStream.fill` would."""

    def __init__(self, uniforms):
        self._uniforms, self._at = uniforms, 0

    def uniforms(self, count):
        out = self._uniforms[self._at: self._at + count]
        self._at += count
        return out

    def fill(self, out):
        out[:] = self.uniforms(len(out))


class TestGuidedDraws:
    @pytest.mark.parametrize(
        "d",
        [
            binomial(2, Fraction(1, 2)),  # entries 1/4 and 3/4 sit on bucket edges
            DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4)),
            DegenerateBinomial(1500, Fraction(1, 3), Fraction(1, 7919)),  # 1501 entries
            poisson(716),
        ],
        ids=["binomial-2", "dbinomial-2", "dbinomial-1500", "poisson-716"],
    )
    def test_every_draw_is_the_searchsorted_index(self, d):
        table = _cumulative_table(d)[0]
        buckets = 1 << montecarlo._GUIDE_BITS
        edges = np.arange(buckets + 1) / buckets
        points = np.concatenate([edges, table])
        u = np.concatenate([
            points,
            np.nextafter(points, 0.0),
            np.nextafter(points, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
            np.random.default_rng(2024).random(100_000),
        ])
        u = u[u < 1.0]
        expected = np.searchsorted(table, u, side="right")
        draws = draw_samples(d, len(u), CraftedStream(u))
        assert draws.dtype == np.int64
        assert np.array_equal(draws, expected)
        # the counter reads the guide table; its blocks cut the crafted points at arbitrary places
        counts = montecarlo._sample_counts(d, len(u), CraftedStream(u))
        assert counts == np.bincount(expected).tolist()

    def test_only_buckets_holding_an_entry_inside_are_ambiguous(self):
        d = DegenerateBinomial(1500, Fraction(1, 3), Fraction(1, 7919))
        table, ambiguous, slot = _cumulative_table(d)
        buckets = 1 << montecarlo._GUIDE_BITS
        assert ambiguous.dtype == bool and len(ambiguous) == buckets
        inside = np.zeros(buckets, dtype=bool)
        for entry in table[table < 1.0]:
            if entry * buckets != math.floor(entry * buckets):
                inside[math.floor(entry * buckets)] = True
        assert np.array_equal(ambiguous, inside)
        assert ambiguous.sum() > 100
        assert _cumulative_table(binomial(2, Fraction(1, 2)))[1].sum() == 0
        # an unambiguous bucket's slot is the draw at both of its ends; an
        # ambiguous one's is len(table), the discarded count
        for d in (d, binomial(2, Fraction(1, 2)), poisson(2)):
            table, ambiguous, slot = _cumulative_table(d)
            assert slot.dtype == np.intp and len(slot) == buckets
            assert not any(array.flags.writeable for array in (table, ambiguous, slot))
            clear = np.flatnonzero(~ambiguous)
            for u in (clear / buckets, np.nextafter((clear + 1) / buckets, 0.0)):
                assert np.array_equal(np.searchsorted(table, u, side="right"), slot[clear])
            assert (slot[ambiguous] == len(table)).all()


# the `sampling` benchmark pool's eight shapes: classical Poisson, classical
# binomial, nonnegative degenerate binomial and finite degenerate Poisson, one
# small and one large each
SAMPLING_POOL = [
    poisson(Fraction(7, 2)),
    binomial(20, Fraction(2, 7)),
    DegenerateBinomial(15, Fraction(3, 7), Fraction(1, 62)),
    DegeneratePoisson(Fraction(7, 3), Fraction(1, 20)),
    poisson(8),
    binomial(50, Fraction(1, 6)),
    DegenerateBinomial(35, Fraction(1, 3), Fraction(1, 114)),
    DegeneratePoisson(Fraction(1), Fraction(1, 40)),
]


class TestSampleCounts:
    BLOCK = montecarlo._BLOCK

    @pytest.mark.parametrize(
        "d",
        [
            *SAMPLING_POOL,
            poisson(2),  # ten tail entries inside the last bucket
            binomial(2000, Fraction(1, 3)),  # 2001 entries, hundreds inside bucket 0
            DP_HALF,  # 3 entries
        ],
        ids=[*(f"pool-{i}" for i in range(8)), "poisson-2", "binomial-2000", "dpoisson-3-entries"],
    )
    def test_counts_equal_the_bincount_of_the_draws(self, d):
        block = self.BLOCK
        for n in (2, 3, 2000, block - 1, block, block + 1, 3 * block + 7):
            for seed, index in ((0, 0), (11, 4)):
                counts = montecarlo._sample_counts(d, n, SamplerStream(seed, index))
                assert counts == np.bincount(draw_samples(d, n, SamplerStream(seed, index))).tolist()
                assert sum(counts) == n and counts[-1] > 0

    def test_the_covered_buckets_are_ambiguous(self):
        # the oracle cases above reach both kinds of ambiguous bucket
        table, ambiguous, _ = _cumulative_table(poisson(2))
        assert ambiguous[-1] and ((table > 1 - 2.0**-12) & (table < 1.0)).sum() > 1
        table, ambiguous, _ = _cumulative_table(binomial(2000, Fraction(1, 3)))
        assert ambiguous[0] and (table < 2.0**-12).sum() > 100

    def test_no_draws_give_no_counts(self):
        assert montecarlo._sample_counts(poisson(2), 0, SamplerStream(0)) == []

    def test_the_counter_does_not_draw_per_sample(self, monkeypatch):
        def draw(*args):
            raise AssertionError("estimates must not build per-draw arrays")

        monkeypatch.setattr(montecarlo, "draw_samples", draw)
        estimate_moment(poisson(2), "raw", 1, 3 * self.BLOCK + 7, SamplerStream(1))
        verify_identity("poisson-pgf", {"alpha": 1, "t": "1/2"}, samples=2000, stream=SamplerStream(1))

    def test_a_warm_estimate_looks_up_the_sampler_cache_once(self):
        # each lookup hashes the distribution's fields, so a warm estimate makes one
        estimates = [
            lambda stream: estimate_moment(poisson(2), "raw", 1, 2000, stream),
            lambda stream: verify_identity("poisson-pgf", {"alpha": 2, "t": "1/2"}, samples=2000, stream=stream),
        ]
        caches = [value for value in vars(montecarlo).values() if hasattr(value, "cache_info")]
        assert _cumulative_table in caches
        for estimate in estimates:
            estimate(SamplerStream(1))
            before = [cache.cache_info() for cache in caches]
            estimate(SamplerStream(2))
            lookups = [
                (after.hits - old.hits, after.misses - old.misses)
                for old, after in zip(before, (cache.cache_info() for cache in caches))
            ]
            assert lookups == [(1, 0) if cache is _cumulative_table else (0, 0) for cache in caches]

    @pytest.mark.parametrize("d", [SAMPLING_POOL[3], binomial(2000, Fraction(1, 3))], ids=["dpoisson", "binomial-2000"])
    def test_partitioned_counts_are_the_workers_counts(self, d, monkeypatch):
        # three workers draw B + 3, B + 2 and B + 2: each crosses a block edge
        samples, seed = 3 * self.BLOCK + 7, 8
        single = montecarlo._sample_counts(d, samples, SamplerStream(seed, 0))
        reduced = []
        monkeypatch.setattr(montecarlo, "_reduce", lambda counts, kind, order: reduced.append(counts))
        estimate_moment_partitioned(d, "rising", 2, samples, seed, 1)
        estimate_moment_partitioned(d, "rising", 2, samples, seed, 3)
        sizes = (self.BLOCK + 3, self.BLOCK + 2, self.BLOCK + 2)
        split = np.concatenate([draw_samples(d, size, SamplerStream(seed, w)) for w, size in enumerate(sizes)])
        assert reduced == [single, np.bincount(split).tolist()]


def factorial_power(k, kind, order):
    """k**order, (k)_order or k^(order) of one draw, by the product of its factors."""
    step = {MomentKind.RAW: 0, MomentKind.FALLING: -1, MomentKind.RISING: 1}[kind]
    return math.prod(k + step * j for j in range(order)) if step else k**order


def exact_mean_and_error(values):
    """float(mean) and the standard error of the mean (ddof = 1) of the draws'
    exact values, summed draw by draw; the variance is the centred sum
    sum (v - mean)**2 / (n - 1), the error a 60-digit decimal square root of
    variance / n, rounded once to a float."""
    n = len(values)
    total = sum(values)
    # sum (v - mean)**2 = sum (n v - total)**2 / n**2 for mean = total / n
    centred = Fraction(sum((n * v - total) ** 2 for v in values)) / n**2
    ratio = centred / ((n - 1) * n)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        root = (decimal.Decimal(ratio.numerator) / decimal.Decimal(ratio.denominator)).sqrt()
    return float(Fraction(total) / n), float(root)


def exact_moment(draws, kind, order):
    powers = {k: factorial_power(k, kind, order) for k in set(draws.tolist())}
    return exact_mean_and_error([powers[k] for k in draws.tolist()])


class TestExactReduction:
    @pytest.mark.parametrize(
        "d",
        [poisson(Fraction(37, 3)), binomial(50, Fraction(5, 12)), DegeneratePoisson(Fraction(3), Fraction(1, 5))],
        ids=["poisson", "binomial", "dpoisson"],
    )
    def test_estimates_equal_the_exact_mean_of_the_draws(self, d):
        samples, seed = 20_001, 13
        # the draws of workers 0..2, split as estimate_moment_partitioned splits them
        split = np.concatenate([draw_samples(d, size, SamplerStream(seed, w)) for w, size in enumerate((6667, 6667, 6667))])
        draws = draw_samples(d, samples, SamplerStream(seed, 0))
        for kind in MomentKind:
            for order in range(7):
                expected = exact_moment(draws, kind, order)
                est = estimate_moment(d, kind, order, samples, SamplerStream(seed, 0))
                assert (est.estimate, est.standard_error) == expected
                est = estimate_moment_partitioned(d, kind, order, samples, seed, 1)
                assert (est.estimate, est.standard_error) == expected
                est = estimate_moment_partitioned(d, kind, order, samples, seed, 3)
                assert (est.estimate, est.standard_error) == exact_moment(split, kind, order)

    def test_poisson_pgf_equals_the_exact_mean_of_the_powers(self):
        params, samples = {"alpha": Fraction(5), "t": Fraction(1, 3)}, 20_001
        report = verify_identity("poisson-pgf", params, samples=samples, stream=SamplerStream(4, 2))
        estimate, standard_error, _ = montecarlo._check_poisson_pgf(**params, samples=samples, stream=SamplerStream(4, 2))
        draws = draw_samples(poisson(5), samples, SamplerStream(4, 2))
        u = Fraction(*_pgf_argument(Fraction(1, 3)))
        expected = exact_mean_and_error([u**k for k in draws.tolist()])
        assert (estimate, standard_error) == expected
        assert report.lhs == repr(expected[0])

    def test_estimate_past_the_float_range_raises_domain_error(self):
        with pytest.raises(DomainError, match="float range"):
            _exact_mean_and_error([1, 1], [0, 10**400])
        with pytest.raises(DomainError, match="float range"):
            estimate_moment(poisson(2), "raw", 400, 1000, SamplerStream(0))


def correctly_rounded(num, den, root):
    """Whether the float `root` is sqrt(num / den) rounded to nearest, ties to even."""
    exact = Fraction(num, den)
    if root == 0:
        return exact <= (Fraction(math.ulp(0.0)) / 2) ** 2
    below = (Fraction(root) + Fraction(math.nextafter(root, 0.0))) / 2
    above = Fraction(root) + Fraction(math.ulp(root)) / 2
    if not below**2 <= exact <= above**2:
        return False
    # on a midpoint the even last bit wins
    return exact not in (below**2, above**2) or Fraction(root) / Fraction(math.ulp(root)) % 2 == 0


class TestSqrtRatio:
    @settings(max_examples=300, deadline=None)
    @given(
        num=st.one_of(st.integers(0, 2**200), st.integers(0, 2**60).map(lambda x: x * x), st.integers(0, 2**2100)),
        den=st.one_of(st.integers(1, 2**200), st.integers(1, 2**60).map(lambda x: x * x), st.integers(2**2100, 2**2200)),
    )
    def test_correctly_rounded(self, num, den):
        try:
            root = _sqrt_ratio(num, den)
        except OverflowError:
            assert Fraction(num, den) >= (Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2) ** 2
        else:
            assert correctly_rounded(num, den, root)

    @settings(max_examples=200, deadline=None)
    @given(odd=st.integers(2**52, 2**53 - 1).map(lambda x: 2 * x + 1), shift=st.integers(-1100, 900))
    def test_midpoints_round_to_even(self, odd, shift):
        # sqrt = odd * 2**shift, a 54-bit odd significand: halfway between two doubles
        num, den = (odd * odd << 2 * shift, 1) if shift >= 0 else (odd * odd, 1 << -2 * shift)
        assert correctly_rounded(num, den, _sqrt_ratio(num, den))

    def test_exact_roots_and_the_ends_of_the_range(self):
        assert _sqrt_ratio(0, 7) == 0.0
        assert _sqrt_ratio(49, 4) == 3.5
        assert _sqrt_ratio(1, 2**2148) == 2.0**-1074
        assert _sqrt_ratio(2**2046, 1) == 2.0**1023
        assert _sqrt_ratio(2, 1) == math.sqrt(2)
        with pytest.raises(OverflowError):
            _sqrt_ratio(2**2048, 1)


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

    def test_peak_memory_per_draw(self):
        # the draws are counted block by block: one block of uniforms and one
        # of buckets (512 KB) plus a bucket histogram, whatever the count; a
        # per-draw array would take at least 8 bytes a draw (4 MB here)
        d = poisson(12)
        peaks = []
        for samples in (500_000, 1_000_000):
            estimate_moment(d, "rising", 3, samples, SamplerStream(1))
            tracemalloc.start()
            try:
                estimate_moment(d, "rising", 3, samples, SamplerStream(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1_000_000
        # doubling the draws adds no memory beyond a page of small objects
        assert peaks[1] <= peaks[0] + 4096


class TestZScore:
    def test_ratio(self):
        assert z_score(3.0, 0.5, Fraction(2)) == 2.0
        assert z_score(1.0, 0.5, 2.0) == -2.0

    def test_zero_standard_error(self):
        assert z_score(2.0, 0.0, Fraction(2)) == 0.0
        assert z_score(2.5, 0.0, Fraction(2)) == math.inf

    def test_target_past_the_float_range_raises_domain_error(self):
        # float(target) raised a bare OverflowError
        for target in (Fraction(10**400), Fraction(-(10**400), 3)):
            with pytest.raises(DomainError, match="target outside the float range"):
                z_score(1.0, 0.5, target)
        with pytest.raises(DomainError, match="target outside the float range"):
            verify_identity("poisson-raw-moment", {"alpha": 2, "order": 215}, samples=1000)


HUGE = 10**400
huge_rationals = st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE))
huge_positives = st.builds(Fraction, st.integers(1, HUGE), st.integers(1, HUGE))
# |t| < 1 for the generating functions
huge_units = st.builds(lambda a, gap: Fraction(a, abs(a) + gap), st.integers(-HUGE, HUGE), st.integers(1, HUGE))
# 0, or c/e in lowest terms with c > 1: never a finite support, whose exact
# table at a huge e is the size problem of ROADMAP 3(b), not a float one
infinite_lams = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda c, gap: Fraction(c, c + gap), st.integers(2, HUGE), st.integers(1, HUGE)).filter(
        lambda lam: lam.numerator > 1
    ),
)


class TestFloatBoundary:
    @settings(max_examples=100, deadline=None)
    @given(
        x=huge_rationals,
        t=huge_rationals,
        unit=huge_units,
        alpha=huge_positives,
        lam=infinite_lams,
        i=st.one_of(st.integers(0, 60), st.just(HUGE)),
        n=st.integers(0, 12),
        p=st.builds(Fraction, st.integers(0, HUGE), st.integers(1, HUGE)),
        whole=st.integers(1, 716),
    )
    def test_a_float_or_a_lahbell_error(self, x, t, unit, alpha, lam, i, n, p, whole):
        # parts up to 10**400 reach past the float range on every side: each
        # entry point returns a float or raises a LahBellError, never a bare
        # OverflowError, the classical table ends in 1.0 or raises TailError,
        # and the whole example takes under a second
        calls = [
            lambda: degenerate_exp_eval(x, t, lam),
            lambda: DegeneratePoisson(alpha, lam).pmf(i),
            lambda: DegeneratePoisson(alpha, lam).pgf(unit),
            lambda: DegenerateBinomial(n, p / (1 + p), lam).mgf(t),
            lambda: z_score(1.0, 0.5, x),
            lambda: verify_identity("poisson-pgf", {"alpha": alpha, "t": unit}, samples=2, stream=SamplerStream(0)),
        ]
        start = time.perf_counter()
        for call in calls:
            try:
                result = call()
            except LahBellError:
                continue
            assert isinstance(result, (float, VerificationReport))
        # the classical table walks float(alpha), so its cost does not grow
        # with the digits of alpha, also where a sampleable alpha (whole +
        # |unit|, below 717) has long parts; bypass the cache to time the build
        for table_alpha in (alpha, whole + abs(unit)):
            try:
                assert _cumulative_table.__wrapped__(poisson(table_alpha))[0][-1] == 1.0
            except TailError:
                pass
        assert time.perf_counter() - start < 1.0


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
        assert merged == plain

    @pytest.mark.parametrize("kind", ["raw", "falling", "rising"])
    def test_negative_order_raises_before_any_draw(self, monkeypatch, kind):
        # "falling" used to return the mean (1.99) and "raw" NaN, where
        # estimate_moment raises
        def draw(*args):
            raise AssertionError("drew before checking the order")

        monkeypatch.setattr(montecarlo, "_sample_counts", draw)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            estimate_moment_partitioned(poisson(2), kind, -1, 1000, 1, 2)

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


# report text: any code point, lone surrogates included, and the characters JSON escapes
REPORT_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(["", '"', "\\", '\\"\\', "\x00\n\x1f\x7f", "é€😀\u2028\ud800"]),
)
REPORT_COUNT = st.one_of(st.none(), st.just(0), st.integers(0, 2**64 - 1), st.just(2**64 - 1))


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

    def test_poisson_pgf_reduces_a_long_t_quickly(self):
        # u**k over the common denominator q**top built 350 integers of up to
        # 280000 digits for a 400-digit t, about 10 s; relative to the least
        # draw they are small, and p**low / q**top is applied once
        alpha = Fraction(3 * 10**402 + 7, 10**400 - 3)
        t = Fraction(-(10**399) - 11, 2 * 10**399 + 13)
        start = time.perf_counter()
        report = verify_identity("poisson-pgf", {"alpha": alpha, "t": t}, samples=20, stream=SamplerStream(0))
        assert time.perf_counter() - start < 2.0
        assert report.mode == "STATISTICAL" and report.samples == 20

    @pytest.mark.parametrize("params", [{"alpha": 2, "t": "999/1000"}, {"alpha": 700, "t": "9/10"}])
    def test_poisson_pgf_past_the_float_range_raises_domain_error(self, params):
        # the float target exp(alpha (u - 1)) raised a bare OverflowError; at
        # alpha 700 the float reduction also warned of overflow first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float range"):
                verify_identity("poisson-pgf", params, samples=1000, stream=SamplerStream(3))

    def test_dpoisson_pgf_refuses_t_outside_the_unit_interval_on_any_support(self):
        # an infinite support (lam = 2/5) used to report SKIPPED for any t
        for lam in (Fraction(1, 2), Fraction(2, 5)):
            for t in (Fraction(1), Fraction(-3)):
                with pytest.raises(DomainError, match=r"\|t\| < 1"):
                    verify_identity("dpoisson-pgf", {"alpha": Fraction(1), "lam": lam, "t": t})

    def test_z_threshold_must_be_a_nonnegative_number(self):
        # "abc" raised a bare ValueError and None a bare TypeError; NaN and -1.0
        # made every statistical check FAIL, and True ran as 1.0
        params = {"alpha": Fraction(2), "order": 3}
        for bad in ("abc", None, float("nan"), -1.0, True):
            with pytest.raises(DomainError, match="z_threshold"):
                verify_identity("poisson-raw-moment", params, samples=1000, z_threshold=bad)
        for good in (5.0, float("inf")):
            report = verify_identity("poisson-raw-moment", params, samples=1000, z_threshold=good)
            assert (report.status, report.params["z_threshold"]) == ("PASS", str(good))

    def test_oversized_rational_param_is_refused_at_once(self):
        # Fraction("1e3000000") built a 3-million-digit integer: 11.5 s on a
        # 2-vCPU VM before the report failed to print it
        start = time.perf_counter()
        with pytest.raises(DomainError, match="x must be a rational"):
            verify_identity("lahbell-series", {"x": "1e3000000", "n_max": 2})
        assert time.perf_counter() - start < 1.0

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

    @pytest.mark.parametrize("name, n, k, delta", [("STIRLING1_TRIANGLE", 5, 2, 4), ("STIRLING2_TRIANGLE", 6, 3, -2)])
    def test_stirling_inversion_reports_the_worst_gap(self, monkeypatch, name, n, k, delta):
        # one corrupted entry; lhs is the worst |entry - delta_nm| of S1*S2 and
        # S2*S1, here from full square matrix products
        n_max = 8
        bad = CorruptedTriangle(getattr(montecarlo, name), n, k, delta)
        monkeypatch.setattr(montecarlo, name, bad)

        def square(triangle):
            return [list(triangle.row(r)) + [0] * (n_max - r) for r in range(n_max + 1)]

        s1, s2 = square(montecarlo.STIRLING1_TRIANGLE), square(montecarlo.STIRLING2_TRIANGLE)
        worst = max(
            abs(sum(a[r][j] * b[j][c] for j in range(n_max + 1)) - (r == c))
            for a, b in ((s1, s2), (s2, s1))
            for r in range(n_max + 1)
            for c in range(n_max + 1)
        )
        assert worst != 0
        report = verify_identity("stirling-inversion", {"n_max": n_max})
        assert report.status == "FAIL"
        assert (report.lhs, report.rhs) == (format_rational(worst), "0")
        assert report.discrepancy == repr(float(worst))

    def test_a_gap_with_no_float_reports_inf(self, monkeypatch):
        # float(abs(lhs - rhs)) raised a bare OverflowError
        closed_form = montecarlo.lah_number_closed_form
        monkeypatch.setattr(
            montecarlo, "lah_number_closed_form", lambda n, k: 10**400 if (n, k) == (4, 2) else closed_form(n, k)
        )
        report = verify_identity("lah-closed-form", {"n_max": 6})
        assert (report.status, report.discrepancy) == ("FAIL", "inf")

    def test_lahbell_series_reports_the_worst_gap(self, monkeypatch):
        # L(5, 2) off by 11: the triangle side of order 5 stops matching the
        # power-series oracle, which reads no triangle
        x, n_max = Fraction(-1, 3), 7
        bad = CorruptedTriangle(LAH_TRIANGLE, 5, 2, 11)
        monkeypatch.setattr(montecarlo, "LAH_TRIANGLE", bad)
        series = lah_bell_series_coefficients(x, n_max)
        worst = max(
            abs(series[n] - sum(entry * x**k for k, entry in enumerate(bad.row(n)))) for n in range(n_max + 1)
        )
        assert worst == Fraction(11, 9)
        report = verify_identity("lahbell-series", {"x": x, "n_max": n_max})
        assert report.status == "FAIL"
        assert (report.lhs, report.rhs) == (format_rational(worst), "0")
        assert report.discrepancy == repr(float(worst))

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

    def test_report_writes_its_own_lines(self):
        # pinned from the CLI's csv writer and `to_json` before the report
        # wrote its own row; no `verify all` instance is SKIPPED, so no digest
        # covers a row whose lhs, rhs, seed and samples are all empty
        skipped = verify_identity("dpoisson-mean", {"alpha": 1, "lam": "2/5"})
        assert skipped.to_csv() == "dpoisson-mean,EXACT,SKIPPED,,,0,,,alpha=1;lam=2/5"
        assert skipped.to_json() == (
            '{"identity":"dpoisson-mean","params":{"alpha":"1","lam":"2/5"},"mode":"EXACT",'
            '"lhs":"","rhs":"","discrepancy":"0","status":"SKIPPED"}'
        )
        statistical = verify_identity("poisson-pgf", {"alpha": 1, "t": "1/2"}, samples=2000, stream=SamplerStream(1))
        assert statistical.to_csv() == (
            "poisson-pgf,STATISTICAL,PASS,2.601,2.718281828459045,1.6800319572390519,1,2000,"
            "alpha=1;t=1/2;z_threshold=5.0"
        )
        assert statistical.to_json() == (
            '{"identity":"poisson-pgf","params":{"alpha":"1","t":"1/2","z_threshold":"5.0"},'
            '"mode":"STATISTICAL","lhs":"2.601","rhs":"2.718281828459045",'
            '"discrepancy":"1.6800319572390519","status":"PASS","seed":1,"samples":2000}'
        )
        assert VerificationReport.CSV_HEADER == "identity,mode,status,lhs,rhs,discrepancy,seed,samples,params"

    @given(
        fields=st.lists(REPORT_TEXT, min_size=6, max_size=6),
        params=st.dictionaries(REPORT_TEXT, REPORT_TEXT, max_size=4),
        seed=REPORT_COUNT,
        samples=REPORT_COUNT,
    )
    @example(
        fields=["dpoisson-mean", "EXACT", "", "", "0", "SKIPPED"],
        params={"alpha": "1", "lam": "2/5"}, seed=None, samples=None,
    )
    @example(
        fields=["dpoisson-sample-mean", "STATISTICAL", "", "", "inf", "FAIL"],
        params={"alpha": "1", "lam": "1/2", "z_threshold": "5.0"}, seed=0, samples=2000,
    )
    def test_json_line_is_the_compact_dump(self, fields, params, seed, samples):
        identity, mode, lhs, rhs, discrepancy, status = fields
        report = VerificationReport(identity, params, mode, lhs, rhs, discrepancy, status, seed, samples)
        assert report.to_json() == json.dumps(report.to_dict(), separators=(",", ":"))

    def test_infinite_support_pgf_skips_before_the_closed_form(self, monkeypatch):
        # the mass table decides SKIPPED; the float closed form is never computed
        def closed_form(self, t):
            raise AssertionError("closed-form pgf evaluated")

        monkeypatch.setattr(DegeneratePoisson, "pgf", closed_form)
        report = verify_identity("dpoisson-pgf", {"alpha": Fraction(1), "lam": Fraction(2, 5), "t": Fraction(1, 2)})
        assert report.status == "SKIPPED"

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
