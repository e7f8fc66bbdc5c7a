import decimal
import math
import threading
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lahbell import (
    DomainError,
    TriangleCache,
    TriangleKind,
    as_rational,
    degenerate_exp_eval,
    degenerate_exp_exact,
    degenerate_exp_series,
    degenerate_factor_numerators,
    degenerate_factors,
    degenerate_falling_factorial,
    degenerate_falling_factorials,
    falling_factorial,
    format_rational,
    lah_number,
    lah_number_closed_form,
    rising_factorial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
)
from oracles import (
    count_list_partitions_into,
    count_set_partitions_into,
    degenerate_exp_exact_chain,
    degenerate_factor_product,
    falling_factorial_coefficients,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


class TestFactorials:
    def test_falling_examples(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(4, 4) == 24
        assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)

    def test_rising_examples(self):
        assert rising_factorial(7, 0) == 1
        assert rising_factorial(2, 3) == 24
        assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_degenerate_examples(self):
        assert degenerate_falling_factorial(1, 3, Fraction(1, 2)) == 0
        assert degenerate_falling_factorial(1, 2, Fraction(1, 4)) == Fraction(3, 4)
        assert degenerate_falling_factorial(3, 2, 0) == 9

    @given(rationals, st.integers(0, 12))
    def test_rising_is_signed_falling(self, x, n):
        assert rising_factorial(x, n) == (-1) ** n * falling_factorial(-x, n)

    @given(rationals, st.integers(0, 12))
    def test_degenerate_limits(self, x, n):
        assert degenerate_falling_factorial(x, n, 0) == x**n
        assert degenerate_falling_factorial(x, n, 1) == falling_factorial(x, n)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)
        with pytest.raises(ValueError):
            degenerate_falling_factorials(3, -1, 0)

    @given(rationals, st.integers(0, 12), rationals)
    def test_prefix_list_holds_every_order(self, x, n, lam):
        prefix = degenerate_falling_factorials(x, n, lam)
        assert len(prefix) == n + 1
        for k, value in enumerate(prefix):
            expected = Fraction(1)
            for j in range(k):
                expected *= x - j * lam
            assert value == expected
        assert degenerate_falling_factorial(x, n, lam) == prefix[-1]

    @given(rationals, st.integers(0, 12), rationals)
    def test_factor_sequence_over_one_base(self, x, n, lam):
        factors, base = degenerate_factors(x, n, lam)
        assert base == x.denominator * lam.denominator
        expected = [Fraction(f, base) for f in factors]
        assert expected == [x - j * lam for j in range(n)]
        # a second pass sees the same sequence (a range, or a tuple at lam = 0)
        assert [Fraction(f, base) for f in factors] == expected

    def test_factor_sequence_examples(self):
        assert degenerate_factors(1, 3, Fraction(1, 2)) == (range(2, -1, -1), 2)
        assert degenerate_factors(Fraction(2, 3), 3, 0) == ((2, 2, 2), 3)
        assert degenerate_factors(Fraction(2, 3), 2, -1) == (range(2, 8, 3), 3)
        with pytest.raises(ValueError):
            degenerate_factors(1, -1, 0)

    def test_int_arguments_build_no_fraction(self, monkeypatch, capsys):
        # `family_numerators` passes the int 1 as x, and the lahbell suite the
        # int lam = 0; each went through `as_rational` and built a Fraction
        # (22 of them in one `verify lahbell --n-max 12`)
        from lahbell import cli, exact_core

        built = []

        def counting(value):
            if not isinstance(value, Fraction):
                built.append(value)
            return as_rational(value)

        monkeypatch.setattr(exact_core, "as_rational", counting)
        assert cli.main(["verify", "lahbell", "--n-max", "12"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert built == []
        assert degenerate_factors(True, 2, False) == ((1, 1), 1)
        assert built == [True, False]

    @given(rationals, st.integers(0, 12), rationals)
    def test_integer_prefixes_over_one_base(self, x, n, lam):
        prefixes, base = degenerate_factor_numerators(x, n, lam)
        assert base == x.denominator * lam.denominator
        assert all(isinstance(p, int) for p in prefixes)
        assert [Fraction(p, base**l) for l, p in enumerate(prefixes)] == degenerate_falling_factorials(x, n, lam)

    def test_integer_prefixes_examples(self):
        # (1)_{l,1/2}: 1, 1, 1/2, 0 over 2**l
        assert degenerate_factor_numerators(1, 3, Fraction(1, 2)) == ([1, 2, 2, 0], 2)
        assert degenerate_factor_numerators(Fraction(2, 3), 2, -1) == ([1, 2, 10], 3)
        with pytest.raises(ValueError):
            degenerate_factor_numerators(1, -1, 0)


class TestTriangles:
    def test_row_zero(self):
        for cache in (TriangleCache(k) for k in TriangleKind):
            assert cache.row(0) == (1,)
            assert cache.value(5, -1) == 0
            assert cache.value(3, 5) == 0

    def test_lah_examples(self):
        assert lah_number(3, 2) == 6
        assert lah_number(4, 2) == 36
        for n in range(1, 9):
            assert lah_number(n, n) == 1

    def test_lah_against_enumeration(self):
        for n in range(7):
            for k in range(n + 1):
                assert lah_number(n, k) == count_list_partitions_into(n, k)

    def test_lah_closed_form_matches_recurrence(self):
        for n in range(21):
            for k in range(n + 1):
                assert lah_number(n, k) == lah_number_closed_form(n, k)

    def test_stirling1_examples(self):
        assert stirling1_signed(3, 2) == -3
        assert stirling1_signed(4, 2) == 11
        for n in range(9):
            assert stirling1_signed(n, n) == 1

    def test_stirling1_against_expansion(self):
        for n in range(10):
            coeffs = falling_factorial_coefficients(n)
            for k in range(n + 1):
                assert stirling1_signed(n, k) == coeffs[k]

    def test_stirling1_sign_pattern(self):
        for n in range(16):
            for k in range(n + 1):
                value = stirling1_signed(n, k)
                if value:
                    assert value == (-1) ** (n - k) * abs(value)
                assert stirling1_unsigned(n, k) == abs(value)

    def test_stirling2_examples(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for n in range(1, 9):
            assert stirling2(n, 1) == 1

    def test_stirling2_against_enumeration(self):
        for n in range(7):
            for k in range(n + 1):
                assert stirling2(n, k) == count_set_partitions_into(n, k)

    def test_stirling_inversion(self):
        for n in range(16):
            for m in range(16):
                delta = 1 if n == m else 0
                assert sum(stirling1_signed(n, k) * stirling2(k, m) for k in range(n + 1)) == delta
                assert sum(stirling2(n, k) * stirling1_signed(k, m) for k in range(n + 1)) == delta

    def test_stirling1_row_sums(self):
        for n in range(16):
            assert sum(stirling1_unsigned(n, k) for k in range(n + 1)) == math.factorial(n)

    def test_concurrent_reads_consistent(self):
        cache = TriangleCache(TriangleKind.STIRLING2)
        results = []

        def worker():
            results.append(cache.row(120))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
        assert results[0][1] == 1


class TestDegenerateExponential:
    def test_zero_exponent(self):
        assert degenerate_exp_exact(0, 5, Fraction(1, 3)) == 1
        assert degenerate_exp_eval(0, 5, Fraction(1, 3)) == 1.0

    def test_exact_integer_exponent(self):
        assert degenerate_exp_exact(1, 1, Fraction(1, 2)) == Fraction(9, 4)
        assert degenerate_exp_exact(-1, 1, Fraction(1, 2)) == Fraction(4, 9)

    def test_exact_requires_integer_exponent(self):
        with pytest.raises(DomainError):
            degenerate_exp_exact(1, 1, Fraction(2, 5))

    @given(
        st.fractions(-3, 3, max_denominator=10**40),
        st.integers(-40, 40),
        st.one_of(st.fractions(-2, 2, max_denominator=10**40), st.integers(-2, 2)),
        st.booleans(),
    )
    def test_exact_value_is_the_fraction_chain(self, lam, k, t, integer_exponent):
        # x = k*lam gives an integer exponent x/lam; otherwise x = k/7 mostly does not
        x = k * lam if integer_exponent else Fraction(k, 7)
        expected = degenerate_exp_exact_chain(x, t, lam)
        if expected is not None:
            assert degenerate_exp_exact(x, t, lam) == expected
            return
        # with an integer exponent, the refusal is a base 1 + lam*t <= 0, named in full
        named = lam and (x / lam).denominator == 1
        with pytest.raises(DomainError, match=f"got {format_rational(1 + lam * t)}$" if named else None):
            degenerate_exp_exact(x, t, lam)

    def test_classical_limit(self):
        value = degenerate_exp_eval(1, 1, Fraction(1, 10**6))
        assert abs(value - math.e) < 1e-4

    def test_tiny_lam_keeps_the_base(self):
        # float(1 + lam*t) rounds to 1.0 once lam*t < 2**-53, so the power was
        # 1.0 here; (1 + lam*t)**(x/lam) differs from exp(x*t) by about lam
        lam = Fraction(3, 10**20)
        for x, t in ((1, Fraction(1, 2)), (-1, 1), (Fraction(7, 3), Fraction(-5, 4))):
            expected = math.exp(float(x * t))
            assert degenerate_exp_eval(x, t, lam) == pytest.approx(expected, rel=1e-15), (x, t)

    def test_exponent_past_the_float_range_is_the_limit(self):
        # float(x/lam) raised a bare OverflowError here; at this lam the value
        # is exp(x*t) to within about lam relative
        for lam in (Fraction(3, 10**320), Fraction(-3, 10**320), Fraction(1, 10**400)):
            assert degenerate_exp_eval(-1, 1, lam) == pytest.approx(math.exp(-1), rel=1e-15), lam
            assert degenerate_exp_eval(1, Fraction(1, 2), lam) == pytest.approx(math.exp(0.5), rel=1e-15), lam
        assert degenerate_exp_eval(0, 1, Fraction(3, 10**320)) == 1.0

    def test_base_that_rounds_lam_t_to_minus_one(self):
        # 1 + lam*t = 10**-400 > 0, but float(lam*t) is -1.0 and log1p(-1.0)
        # raised a bare ValueError; the base's log now comes from its integers
        lam = Fraction(10**400 - 1, 10**400)
        assert degenerate_exp_eval(Fraction(-1, 2), -1, lam) == pytest.approx(1e200, rel=1e-13)
        assert degenerate_exp_eval(1, -1, lam) == 0.0
        with pytest.raises(DomainError, match="outside the float range"):
            degenerate_exp_eval(-1, -1, lam)

    def test_small_base_keeps_its_digits(self):
        # float(lam*t) stays above -1 here, but log1p of the rounded z carried
        # an absolute error near 1e-16 into log(base): 8e-4 relative at 1e-15
        def reference(x, t, lam):
            with decimal.localcontext(decimal.Context(prec=60)):
                base = 1 + lam * t
                log = (Decimal(base.numerator) / base.denominator).ln()
                return float((Decimal((x / lam).numerator) / (x / lam).denominator * log).exp())

        cases = [
            (1, -1, 1 - Fraction(1, 10**15) + Fraction(1, 3 * 10**20)),
            (1, -1, 1 - Fraction(1, 10**12) + Fraction(1, 3 * 10**17)),
            (Fraction(-1, 2), -1, 1 - Fraction(1, 10**15) + Fraction(1, 3 * 10**20)),
            (Fraction(3, 7), Fraction(-5, 4), Fraction(4, 5) - Fraction(1, 7 * 10**9)),
            (1, -1, 1 - Fraction(1, 2**10) + Fraction(1, 10**9)),  # z = lam*t just below -1 + 2**-10
            (1, -1, 1 - Fraction(1, 2**10) - Fraction(1, 10**9)),  # just above it: log1p, within 2**-54 / base
            (2, -1, 1 - Fraction(1, 2**10)),
        ]
        for x, t, lam in cases:
            expected = reference(x, t, lam)
            assert degenerate_exp_eval(x, t, lam) == pytest.approx(expected, rel=1e-13, abs=0), (x, t, lam)

    def test_lam_zero_is_exp(self):
        assert degenerate_exp_eval(2, Fraction(1, 2), 0) == pytest.approx(math.e, rel=1e-12)

    def test_value_past_the_float_range_raises_domain_error(self):
        # math.exp, or float() of the exponent, raised a bare OverflowError
        cases = [
            (1, 1000, 0),
            (1, 10**400, 0),
            (1, 10**6, Fraction(1, 1000)),
            (1, 10**400, Fraction(2, 5)),
            (1, 10**400, Fraction(1, 10**400)),
            (1, 10**800, Fraction(1, 10**400)),
            (-1, -(10**800), Fraction(-1, 10**400)),
        ]
        for x, t, lam in cases:
            with pytest.raises(DomainError, match="outside the float range"):
                degenerate_exp_eval(x, t, lam)

    def test_value_below_the_float_range_is_zero(self):
        cases = [
            (-1, 1000, 0),
            (-1, 10**400, 0),
            (-1, 10**6, Fraction(1, 1000)),
            (-1, 10**400, Fraction(2, 5)),
            (-1, 10**800, Fraction(1, 10**400)),
            (1, -(10**800), Fraction(-1, 10**400)),
        ]
        for x, t, lam in cases:
            assert degenerate_exp_eval(x, t, lam) == 0.0, (x, t, lam)
        assert degenerate_exp_eval(0, 10**400, Fraction(2, 5)) == 1.0

    def test_base_past_the_float_range_with_a_small_exponent(self):
        # (1 + 10**402) ** (+-1/100): the base has no float, the power has one
        assert degenerate_exp_eval(1, 10**400, 100) == pytest.approx(10 ** 4.02, rel=1e-12)
        assert degenerate_exp_eval(-1, 10**400, 100) == pytest.approx(10 ** -4.02, rel=1e-12)
        # a base with a denominator: (1 + 10**400/7) ** (1/100)
        value = degenerate_exp_eval(Fraction(3, 700), Fraction(10**400, 3), Fraction(3, 7))
        assert value == pytest.approx(math.exp((400 * math.log(10) - math.log(7)) / 100), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            degenerate_exp_eval(1, -3, Fraction(1, 2))

    def test_series_matches_closed_form(self):
        # inside the series' radius |lam*t| < 1
        cases = [
            (Fraction(1), Fraction(1), Fraction(1, 2)),
            (Fraction(3, 2), Fraction(-1, 2), Fraction(1, 3)),
            (Fraction(2), Fraction(1, 3), Fraction(2, 5)),
        ]
        for x, t, lam in cases:
            closed = degenerate_exp_eval(x, t, lam)
            truncated = float(degenerate_exp_series(x, t, lam, 200))
            assert abs(truncated - closed) < 1e-10

    @given(rationals, rationals, rationals, st.integers(0, 10))
    def test_series_is_the_exact_partial_sum(self, x, t, lam, order):
        expected = sum(degenerate_factor_product(x, k, lam) * t**k / math.factorial(k) for k in range(order + 1))
        assert degenerate_exp_series(x, t, lam, order) == expected


class TestRationalHelpers:
    def test_format(self):
        assert format_rational(Fraction(2, 3)) == "2/3"
        assert format_rational(Fraction(-27, 40)) == "-27/40"
        assert format_rational(Fraction(5)) == "5"

    def test_as_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_as_rational_parses_strings(self):
        assert as_rational("2/5") == Fraction(2, 5)

    def test_as_rational_refuses_oversized_strings_at_once(self):
        # Fraction("1e3000000") built a 3-million-digit integer first: 7.9 s
        # on a 2-vCPU VM; an over-long part was a bare ValueError
        for text in ("1e3000000", "-1E-3000000", "5e+4301", "1" * 4301, "1/" + "7" * 4301, "0." + "3" * 4301):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="rational string"):
                as_rational(text)
            assert time.perf_counter() - start < 1.0, text[:12]
        assert as_rational("1e4300") == 10**4300
        assert as_rational("9" * 4300 + "/" + "7" * 4300) == Fraction(int("9" * 4300), int("7" * 4300))
        assert as_rational("2.5e-3") == Fraction(1, 400)
