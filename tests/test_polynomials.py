from fractions import Fraction

import copy
import functools
import hashlib
import pickle

import pytest
from hypothesis import example, given, strategies as st

from lahbell import (
    DegeneratePoisson,
    EvaluationError,
    LengthError,
    RationalPolynomial,
    bell_from_lahbell_degenerate,
    bell_number,
    bell_polynomial,
    degenerate_bell_polynomial,
    degenerate_lah_bell_polynomial,
    degenerate_lah_bell_polynomial_via_bell,
    evaluate_degenerate,
    lah_bell_number,
    lah_bell_polynomial,
    lah_bell_series_coefficients,
    lahbell_from_bell,
    moment,
    monomial,
    stirling1_signed,
    y_substitution,
)
from lahbell import polynomials
from lahbell.exact_core import LAH_TRIANGLE, STIRLING2_TRIANGLE, as_rational
from lahbell.polynomials import family_numerators, substitution_ratio
from oracles import (
    count_list_partitions,
    count_set_partitions,
    degenerate_factor_product,
    degenerate_lah_bell_coefficients,
    lah_bell_series_numerators_convolution,
    stirling2_explicit,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=10)


class TestRationalPolynomial:
    def test_trailing_zeros_trimmed(self):
        poly = RationalPolynomial((Fraction(1), Fraction(0), Fraction(0)))
        assert poly.coefficients == (Fraction(1),)
        assert poly.degree == 0

    def test_zero_polynomial(self):
        poly = RationalPolynomial((Fraction(0), Fraction(0)))
        assert poly.coefficients == (Fraction(0),)

    def test_leading_zero_kept(self):
        poly = lah_bell_polynomial(3)
        assert poly.coefficients == (Fraction(0), Fraction(6), Fraction(6), Fraction(1))

    @given(st.lists(rationals, min_size=1, max_size=6), rationals)
    def test_evaluate_matches_power_sum(self, coeffs, x):
        poly = RationalPolynomial(tuple(coeffs))
        direct = sum(c * x**i for i, c in enumerate(coeffs))
        assert poly.evaluate(x) == direct

    @pytest.mark.parametrize(
        "x", [Fraction(0), Fraction(-7, 4), Fraction(3), Fraction(-2), Fraction(11, 9)]
    )
    def test_evaluate_long_mixed_denominators(self, x):
        # 30 coefficients over coprime denominators, zeros and integers included
        denominators = (1, 2, 3, 5, 7, 11, 13, 4, 9, 25)
        coeffs = [Fraction((-1) ** i * (3 * i + 1), denominators[i % len(denominators)]) for i in range(30)]
        coeffs[4] = Fraction(0)
        coeffs[17] = Fraction(-6)
        poly = RationalPolynomial(tuple(coeffs))
        assert poly.evaluate(x) == sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))


WEIGHT_LAMBDAS = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(-5, 3), Fraction(2, 7919), Fraction(7, 2))


@functools.cache
def _oracle_coefficients(family: str, n: int, lam: Fraction) -> tuple[Fraction, ...]:
    """Expected coefficients, trailing zeros trimmed, from tests/oracles.py only."""
    if family == "lah":
        coeffs = degenerate_lah_bell_coefficients(n, lam)
    else:
        coeffs = [stirling2_explicit(n, l) * degenerate_factor_product(1, l, lam) for l in range(n + 1)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(Fraction(c) for c in coeffs)


# builder, oracle family, whether the builder takes lam (the plain ones are lam = 0)
BUILDERS = {
    "bell": (lambda n, lam: bell_polynomial(n), "bell", False),
    "lahbell": (lambda n, lam: lah_bell_polynomial(n), "lah", False),
    "dbell": (degenerate_bell_polynomial, "bell", True),
    "dlahbell": (degenerate_lah_bell_polynomial, "lah", True),
    "dlahbell-via-bell": (degenerate_lah_bell_polynomial_via_bell, "lah", True),
}


class TestRowRepresentation:
    """Every builder stores an integer row over (1)_{l,lam} weights; the public
    API must still read as the Fraction coefficients row[l] * (1)_{l,lam}."""

    POINTS = (Fraction(0), Fraction(-3), Fraction(2, 9), Fraction(5, 7))

    @pytest.mark.parametrize(
        "name, lam",
        [(name, lam) for name, (_, _, degenerate) in BUILDERS.items()
         for lam in (WEIGHT_LAMBDAS if degenerate else (Fraction(0),))],
    )
    def test_builders_match_fraction_products(self, name, lam):
        build, family, degenerate = BUILDERS[name]
        for n in range(31):
            poly = build(n, lam)
            expected = _oracle_coefficients(family, n, lam)
            assert poly.variable == ("y" if degenerate else "x")
            assert poly.denominator == 1 and poly.lam == lam
            assert poly.coefficients == expected
            for t in self.POINTS:
                assert poly.evaluate(t) == sum((c * t**k for k, c in enumerate(expected)), Fraction(0))
                if degenerate and 1 + lam * t != 0:
                    y = t / (1 + lam * t)
                    value = sum((c * y**k for k, c in enumerate(expected)), Fraction(0))
                    assert evaluate_degenerate(poly, t, lam) == value

    @pytest.mark.parametrize("name", BUILDERS)
    def test_round_trip_through_coefficients(self, name):
        build = BUILDERS[name][0]
        for lam in WEIGHT_LAMBDAS:
            for n in (0, 1, 2, 5, 13):
                poly = build(n, lam)
                plain = RationalPolynomial(poly.coefficients, poly.variable)
                assert plain.lam == 0
                assert poly == plain and plain == poly
                assert hash(poly) == hash(plain)

    def test_vanishing_weights_cut_the_row(self):
        # (1)_{l,1/3} = 0 for l > 3, so the stored row stops at index 3
        poly = degenerate_lah_bell_polynomial(9, Fraction(1, 3))
        assert poly.degree == 3 and len(poly.row) == 4
        assert poly == degenerate_lah_bell_polynomial_via_bell(9, Fraction(1, 3))
        assert degenerate_bell_polynomial(6, Fraction(1)).degree == 1

    def test_different_weights_compare_coefficients(self):
        assert degenerate_lah_bell_polynomial(4, Fraction(1, 3)) != degenerate_lah_bell_polynomial(4, Fraction(2, 7919))
        assert degenerate_lah_bell_polynomial(1, Fraction(1, 3)) == degenerate_lah_bell_polynomial(1, Fraction(7, 2))
        assert degenerate_lah_bell_polynomial(3, 0) != lah_bell_polynomial(3)  # y against x

    def test_from_row_is_canonical(self):
        poly = RationalPolynomial.from_row((2, 4, 0), 0, 6, "x")
        assert poly.row == (1, 2) and poly.denominator == 3
        assert poly == RationalPolynomial((Fraction(1, 3), Fraction(2, 3)))
        assert RationalPolynomial((Fraction(1, 6), Fraction(0), Fraction(3, 4))).row == (2, 0, 9)
        assert RationalPolynomial((Fraction(1, 2), 1)) != RationalPolynomial((1, 2))  # same row (1, 2)
        with pytest.raises(ValueError):
            RationalPolynomial.from_row((1,), 0, 0)
        with pytest.raises(ValueError):
            RationalPolynomial.from_row((1,), 0, -3)
        with pytest.raises(ValueError):
            RationalPolynomial.from_row((1,), 0, variable="z")
        # (row, lam, denominator) -> (canonical row, canonical denominator)
        cases = [
            ((), 0, 1, (0,), 1),  # the empty row is the zero polynomial
            ([], Fraction(1, 3), 7, (0,), 1),
            ((0, 0, 0), 0, 6, (0,), 1),
            ((3, 0, 5, 0, 0), 0, 1, (3, 0, 5), 1),  # trailing zeros go, inner ones stay
            ([0, 0, 1], 0, 1, (0, 0, 1), 1),
            ((6, 9, 3), 0, 12, (2, 3, 1), 4),  # row and denominator reduced together
            ((6, 9, 3, 0), "0", 12, (2, 3, 1), 4),
            ((-6, 9, 0), -5, 15, (-2, 3), 5),
            ((1, 2, 3, 4, 5), Fraction(1, 2), 1, (1, 2, 3), 1),  # (1)_{l,1/2} = 0 for l > 2
            ((1, 2, 3, 4, 5), "2/4", 1, (1, 2, 3), 1),
            ((1, 0, 0, 7), "1/2", 1, (1,), 1),  # the cut leaves trailing zeros
            ((4, 6, 9), 1, 2, (2, 3), 1),  # the gcd is taken after the cut
            ((1, 2, 3, 4, 5), Fraction(-1, 2), 1, (1, 2, 3, 4, 5), 1),  # no cut
            ((1, 2, 3, 4, 5), Fraction(2, 3), 1, (1, 2, 3, 4, 5), 1),
        ]
        for row, lam, denominator, expected_row, expected_denominator in cases:
            poly = RationalPolynomial.from_row(row, lam, denominator)
            assert type(poly.row) is tuple and type(poly.lam) is Fraction
            assert (poly.row, poly.lam, poly.denominator, poly.variable) == (
                expected_row, as_rational(lam), expected_denominator, "y"), (row, lam, denominator)
            assert poly == RationalPolynomial.from_row(tuple(row), Fraction(lam), denominator)
            assert poly == RationalPolynomial.from_row(list(row), str(Fraction(lam)), denominator)
        # a list row is copied, and no slot can be set or deleted
        row = [1, 2, 3]
        poly = RationalPolynomial.from_row(row, 0)
        row[0] = 99
        assert poly.row == (1, 2, 3)
        for name in ("row", "lam", "denominator", "variable"):
            with pytest.raises(AttributeError):
                setattr(poly, name, getattr(poly, name))
            with pytest.raises(AttributeError):
                delattr(poly, name)

    def test_immutable(self):
        poly = lah_bell_polynomial(3)
        with pytest.raises(AttributeError):
            poly.row = (1,)
        with pytest.raises(AttributeError):
            poly.coefficients = (Fraction(1),)

    def test_pickle_and_copy_round_trip(self):
        for poly in (degenerate_lah_bell_polynomial(7, Fraction(-5, 3)), RationalPolynomial((Fraction(1, 6), 3))):
            for clone in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly), copy.copy(poly)):
                assert (clone.row, clone.lam, clone.denominator, clone.variable) == (
                    poly.row, poly.lam, poly.denominator, poly.variable)

    def test_repr_shows_coefficients(self):
        assert repr(degenerate_bell_polynomial(2, Fraction(1, 2))) == (
            "RationalPolynomial(coefficients=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)), variable='y')"
        )


class TestBellFamilies:
    def test_bell_polynomial_cubic(self):
        assert bell_polynomial(3).coefficients == (Fraction(0), Fraction(1), Fraction(3), Fraction(1))
        assert bell_polynomial(0).coefficients == (Fraction(1),)

    def test_bell_value_counts_set_partitions(self):
        for n in range(7):
            assert bell_polynomial(n).evaluate(1) == count_set_partitions(n)
            assert bell_number(n) == count_set_partitions(n)

    def test_lah_bell_polynomial_cubic(self):
        assert lah_bell_polynomial(3).coefficients == (Fraction(0), Fraction(6), Fraction(6), Fraction(1))
        assert lah_bell_polynomial(3).evaluate(2) == 44
        assert lah_bell_polynomial(0).coefficients == (Fraction(1),)

    def test_lah_bell_numbers(self):
        assert [lah_bell_number(n) for n in range(5)] == [1, 1, 3, 13, 73]

    def test_lah_bell_number_counts_list_partitions(self):
        for n in range(8):
            assert lah_bell_number(n) == count_list_partitions(n)

    def test_monomial_identity(self):
        # the signed-falling-factorial coefficients recombine Bell polynomials
        # back into plain powers: sum_k s1(n,k) Bel_k(x) = x**n, row by row
        for n in range(13):
            combo = [0] * (n + 1)
            for k in range(n + 1):
                for l, s2 in enumerate(bell_polynomial(k).row):
                    combo[l] += stirling1_signed(n, k) * s2
            assert combo == [0] * n + [1]
            assert RationalPolynomial.from_row(combo, 0, variable="x") == monomial(n)


class TestDegenerateFamilies:
    def test_degenerate_bell_coefficients(self):
        lam = Fraction(1, 2)
        poly = degenerate_bell_polynomial(2, lam)
        assert poly.variable == "y"
        assert poly.coefficients == (Fraction(0), Fraction(1), Fraction(1, 2))
        assert degenerate_bell_polynomial(0, lam).coefficients == (Fraction(1),)

    def test_degenerate_bell_evaluation(self):
        value = evaluate_degenerate(degenerate_bell_polynomial(2, Fraction(1, 2)), 1, Fraction(1, 2))
        assert value == Fraction(8, 9)

    def test_substitution_pole(self):
        with pytest.raises(EvaluationError):
            y_substitution(-2, Fraction(1, 2))

    def test_degenerate_lah_bell_coefficients(self):
        lam = Fraction(1, 2)
        poly = degenerate_lah_bell_polynomial(2, lam)
        assert poly.variable == "y"
        assert poly.coefficients == (Fraction(0), Fraction(2), Fraction(1, 2))
        assert degenerate_lah_bell_polynomial(0, lam).coefficients == (Fraction(1),)

    def test_degenerate_lah_bell_evaluation(self):
        value = evaluate_degenerate(degenerate_lah_bell_polynomial(2, Fraction(1, 2)), 1, Fraction(1, 2))
        assert value == Fraction(14, 9)

    def test_two_constructions_agree(self):
        lams = [Fraction(1, 2), Fraction(2, 7), Fraction(3, 5), Fraction(1, 9), Fraction(5, 8)]
        for lam in lams:
            for n in range(13):
                assert degenerate_lah_bell_polynomial(n, lam) == degenerate_lah_bell_polynomial_via_bell(n, lam)

    def test_via_bell_reads_no_lah_number_with_a_cold_row_cache(self, monkeypatch):
        warm = [polynomials._stirling_product_row(n) for n in range(26)]
        polynomials._stirling_product_row.cache_clear()

        def no_lah_rows(n):
            raise AssertionError("the via-Bell construction read a Lah row")

        monkeypatch.setattr(LAH_TRIANGLE, "row", no_lah_rows)
        for lam in (Fraction(0), Fraction(1, 7), Fraction(3, 5), Fraction(-2, 9), Fraction(1, 3)):
            for n in range(26):
                poly = degenerate_lah_bell_polynomial_via_bell(n, lam)
                padded = list(poly.coefficients) + [0] * (n - poly.degree)
                assert padded == degenerate_lah_bell_coefficients(n, lam)
        assert [polynomials._stirling_product_row(n) for n in range(26)] == warm

    def test_the_cut_at_one_over_e_is_the_only_lam_dependence(self):
        for n in range(25):
            full = degenerate_lah_bell_polynomial_via_bell(n, 0).row
            for e in range(1, n + 3):
                cut = list(full[: e + 1])
                while len(cut) > 1 and cut[-1] == 0:
                    cut.pop()
                assert degenerate_lah_bell_polynomial_via_bell(n, Fraction(1, e)).row == tuple(cut)
            for lam in (Fraction(2, 7), Fraction(-5, 3), Fraction(7, 2)):
                assert degenerate_lah_bell_polynomial_via_bell(n, lam).row == full

    @pytest.mark.parametrize("build", [degenerate_lah_bell_polynomial, degenerate_lah_bell_polynomial_via_bell])
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 7), Fraction(3, 5), Fraction(-2, 9)])
    def test_lah_number_coefficients_match_double_stirling_sum(self, build, lam):
        for n in range(31):
            poly = build(n, lam)
            assert poly.variable == "y"
            assert poly.degree <= n
            padded = list(poly.coefficients) + [0] * (n - poly.degree)
            assert padded == degenerate_lah_bell_coefficients(n, lam)

    def test_classical_limit(self):
        # errors must shrink monotonically as lam -> 0 and end below 1e-4
        n, x = 3, Fraction(1)
        target = float(lah_bell_polynomial(n).evaluate(x))
        errors = []
        for exponent in (2, 4, 6):
            lam = Fraction(1, 10**exponent)
            value = float(evaluate_degenerate(degenerate_lah_bell_polynomial(n, lam), x, lam))
            errors.append(abs(value - target))
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < 1e-4


def test_every_builder_rejects_a_negative_order():
    lam = Fraction(1, 3)
    builders = [
        lambda: monomial(-1),
        lambda: bell_polynomial(-1),
        lambda: bell_number(-1),
        lambda: lah_bell_polynomial(-1),
        lambda: lah_bell_number(-1),
        lambda: degenerate_bell_polynomial(-1, lam),
        lambda: degenerate_lah_bell_polynomial(-1, lam),
        lambda: degenerate_lah_bell_polynomial_via_bell(-1, lam),
        lambda: lahbell_from_bell(-1, []),
        lambda: bell_from_lahbell_degenerate(-1, []),
        lambda: lah_bell_series_coefficients(1, -1),
    ]
    for build in builders:
        with pytest.raises(ValueError):
            build()


class TestTransforms:
    def test_lahbell_from_bell_examples(self):
        assert lahbell_from_bell(0, [Fraction(1)]) == 1
        assert lahbell_from_bell(3, [Fraction(1), Fraction(1), Fraction(2), Fraction(5)]) == 13
        assert lahbell_from_bell(3, [Fraction(1), Fraction(2), Fraction(6), Fraction(22)]) == 44

    def test_length_error(self):
        with pytest.raises(LengthError):
            lahbell_from_bell(3, [Fraction(1), Fraction(1)])
        with pytest.raises(LengthError):
            bell_from_lahbell_degenerate(2, [Fraction(1)])

    def test_bell_from_lahbell_example(self):
        assert bell_from_lahbell_degenerate(0, [Fraction(1)]) == 1
        values = [Fraction(1), Fraction(2, 3), Fraction(14, 9)]
        assert bell_from_lahbell_degenerate(2, values) == Fraction(8, 9)

    def test_degenerate_transform_consistency(self):
        lam, x = Fraction(2, 7), Fraction(3, 2)
        bell_values = [
            evaluate_degenerate(degenerate_bell_polynomial(k, lam), x, lam) for k in range(4)
        ]
        lahbell_values = [lahbell_from_bell(n, bell_values[: n + 1]) for n in range(4)]
        recovered = bell_from_lahbell_degenerate(3, lahbell_values)
        assert recovered == bell_values[3]

    @given(st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20),
           rationals, st.integers(0, 8))
    def test_round_trip_is_identity(self, lam, x, n):
        if 1 + lam * x == 0:
            return
        bell_values = [
            evaluate_degenerate(degenerate_bell_polynomial(k, lam), x, lam) for k in range(n + 1)
        ]
        forward = [lahbell_from_bell(m, bell_values[: m + 1]) for m in range(n + 1)]
        assert bell_from_lahbell_degenerate(n, forward) == bell_values[n]


class TestFamilyNumerators:
    FAMILIES = {
        "bell": (STIRLING2_TRIANGLE, bell_polynomial, degenerate_bell_polynomial),
        "lahbell": (LAH_TRIANGLE, lah_bell_polynomial, degenerate_lah_bell_polynomial),
    }
    lams = st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 12).map(lambda e: Fraction(1, e)),  # (1)_{l,1/e} = 0 for l > e
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
    )

    @given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 40), rationals, lams)
    def test_every_order_matches_the_per_n_value(self, family, n_max, x, lam):
        triangle, plain, degenerate = self.FAMILIES[family]
        if 1 + lam * x == 0:
            with pytest.raises(EvaluationError):
                family_numerators(triangle, n_max, lam, *substitution_ratio(x, lam))
            with pytest.raises(EvaluationError):
                evaluate_degenerate(degenerate(n_max, lam), x, lam)
            return
        numerators, denominator = family_numerators(triangle, n_max, lam, *substitution_ratio(x, lam))
        assert denominator > 0
        assert len(numerators) == n_max + 1
        for n, v in enumerate(numerators):
            assert Fraction(v, denominator) == evaluate_degenerate(degenerate(n, lam), x, lam)
            if lam == 0:
                assert Fraction(v, denominator) == plain(n).evaluate(x)

    def test_pole_raises_like_the_per_n_path(self):
        for lam, x in ((Fraction(1, 2), Fraction(-2)), (Fraction(-2, 3), Fraction(3, 2))):
            for triangle, _, degenerate in self.FAMILIES.values():
                with pytest.raises(EvaluationError):
                    family_numerators(triangle, 5, lam, *substitution_ratio(x, lam))
                with pytest.raises(EvaluationError):
                    evaluate_degenerate(degenerate(5, lam), x, lam)


class TestSeriesOracle:
    def test_zero_argument(self):
        assert lah_bell_series_coefficients(0, 5) == [Fraction(1)] + [Fraction(0)] * 5

    def test_unit_argument(self):
        assert lah_bell_series_coefficients(1, 4) == [1, 1, 3, 13, 73]

    def test_argument_two(self):
        assert lah_bell_series_coefficients(2, 3) == [1, 2, 8, 44]

    def test_matches_triangle_path(self):
        for x in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)):
            series = lah_bell_series_coefficients(x, 20)
            for n in range(21):
                assert series[n] == lah_bell_polynomial(n).evaluate(x)

    def test_degenerate_matches_triangle_path(self):
        pairs = (
            (Fraction(2, 5), Fraction(1)),
            (Fraction(1, 3), Fraction(2)),
            (Fraction(0), Fraction(3, 2)),
            (Fraction(1, 7), Fraction(-1, 3)),
            (Fraction(3, 5), Fraction(1, 2)),
        )
        for lam, x in pairs:
            series = lah_bell_series_coefficients(x, 30, lam)
            for n in range(31):
                assert series[n] == evaluate_degenerate(degenerate_lah_bell_polynomial(n, lam), x, lam)

    def test_degenerate_equals_infinite_support_rising_moments(self):
        # the pgf theorem: n! [t**n] E[(1-t)**-X] = E[<X>_n], infinite support included
        pairs = ((Fraction(1), Fraction(2, 5)), (Fraction(2), Fraction(2, 9)), (Fraction(1), Fraction(3, 5)))
        for alpha, lam in pairs:
            d = DegeneratePoisson(alpha, lam)
            assert not d.finite_support
            series = lah_bell_series_coefficients(alpha, 12, lam)
            assert series == [moment(d, "rising", n) for n in range(13)]

    big_parts = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    series_lams = st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 40).map(lambda m: Fraction(1, m)),
        st.builds(Fraction, st.integers(2, 60), st.integers(1, 30)),  # c > 1, below and above 1
        st.builds(Fraction, st.integers(-60, -1), st.integers(1, 30)),
        st.integers(2, 9).map(Fraction),
    )

    @given(st.one_of(big_parts, st.just(Fraction(0)), st.integers(-5, 5).map(Fraction)), series_lams,
           st.integers(0, 40), st.booleans())
    @example(Fraction(3, 2), Fraction(2, 5), 0, False)
    @example(Fraction(3, 2), Fraction(2, 5), 1, False)
    @example(Fraction(-7, 4), Fraction(0), 0, False)
    @example(Fraction(-7, 4), Fraction(0), 1, False)
    @example(Fraction(0), Fraction(1, 3), 1, False)
    @example(Fraction(5), Fraction(-1, 5), 1, True)
    def test_recurrence_equals_the_convolution(self, x, lam, order, at_pole):
        # the three-term recurrence against the O(order**2) convolution
        # reference: same integers, same scale, and the same poles
        if at_pole and lam:
            x = -1 / lam
        if 1 + lam * x == 0:
            with pytest.raises(EvaluationError):
                polynomials._lah_bell_series_numerators(x, order, lam)
            with pytest.raises(EvaluationError):
                lah_bell_series_numerators_convolution(x, order, lam)
            return
        expected = lah_bell_series_numerators_convolution(x, order, lam)
        assert polynomials._lah_bell_series_numerators(x, order, lam) == expected

    def test_degenerate_substitution_pole(self):
        with pytest.raises(EvaluationError):
            lah_bell_series_coefficients(-2, 3, Fraction(1, 2))

    # sha256 over "x lam: c_0 ... c_15" for every (x, lam) of the grid, a pole
    # written as "pole". The grid holds negative unreduced substitution
    # denominators: q*e + c*p < 0 at x = -3, lam = 1/2 (y = 6) and wherever
    # lam*x < -1.
    SERIES_SHA256 = "be9298c82a81256c025b3c8002dbbc1faea4b256d891373c9c87359ffffb1c2b"

    def test_series_values_digest(self):
        xs = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(-3),
              Fraction(5, 7), Fraction(-7, 4), Fraction(12))
        lams = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(-2, 3), Fraction(3, 7),
                Fraction(1, 10), Fraction(-1), Fraction(7, 3), Fraction(-5, 11))
        lines = []
        for x in xs:
            for lam in lams:
                try:
                    values = " ".join(map(str, lah_bell_series_coefficients(x, 15, lam)))
                except EvaluationError:
                    values = "pole"
                lines.append(f"{x} {lam}: {values}")
        assert "-3 1/2: 1 6 " in "\n".join(lines) and "-3 1/3: pole" in lines
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.SERIES_SHA256
