"""The four polynomial families and their exact basis transforms.

Bell polynomials (second-kind Stirling coefficients) and Lah-Bell polynomials
(Lah coefficients) live in the plain variable x. Their degenerate deformations
are polynomials in the substituted variable y = x/(1 + lam*x): representing
them in y keeps every coefficient identity an exact rational comparison, and
evaluating at a point x is a separate, explicit substitution step.

Every family is an integer row (S2, Lah, or the Stirling product) times the
degenerate falling factorials (1)_{l,lam}, which are 1 at lam = 0, and a
`RationalPolynomial` stores exactly that: building one reads a triangle row
and makes no Fraction.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import EvaluationError, LengthError
from .exact_core import (
    LAH_TRIANGLE,
    STIRLING1_TRIANGLE,
    STIRLING2_TRIANGLE,
    RationalLike,
    TriangleCache,
    as_rational,
    degenerate_factor_numerators,
    degenerate_falling_factorials,
)


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    `variable` is "x" for the plain families and "y" for the degenerate ones,
    where y stands for x/(1 + lam*x). Coefficient l is
    row[l] * (1)_{l,lam} / denominator: `row` holds integers, `lam` is the
    weight parameter and `denominator` is positive. The public constructor
    takes the coefficients themselves and is the lam = 0 member, whose
    weights are 1 and whose denominator is the lcm of the coefficient
    denominators. The representation is canonical for a given lam: the row
    stops at the last nonzero coefficient (weights vanish beyond l = e at
    lam = 1/e), and row and denominator share no factor. So two polynomials
    at the same lam are equal exactly when their rows and denominators are;
    any other pair compares coefficients. Instances are immutable.
    """

    __slots__ = ("row", "lam", "denominator", "variable")

    row: tuple[int, ...]
    lam: Fraction
    denominator: int
    variable: str

    def __init__(self, coefficients: Sequence[RationalLike], variable: str = "x") -> None:
        numerators, common = _common_numerators(coefficients)
        self._set(tuple(numerators), Fraction(0), common, variable)

    @classmethod
    def from_row(cls, row: Sequence[int], lam: RationalLike, denominator: int = 1,
                 variable: str = "y") -> "RationalPolynomial":
        """sum_l row[l] (1)_{l,lam} / denominator * variable**l, without building a Fraction."""
        poly = cls.__new__(cls)
        poly._set(row if type(row) is tuple else tuple(row), as_rational(lam), denominator, variable)
        return poly

    def _set(self, row: tuple[int, ...], lam: Fraction, denominator: int, variable: str) -> None:
        if variable not in ("x", "y"):
            raise ValueError("variable must be 'x' or 'y'")
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        if lam.numerator == 1:
            row = row[: lam.denominator + 1]  # (1)_{l,1/e} = 0 for l > e
        if not row or row[-1] == 0:
            size = len(row)
            while size > 1 and row[size - 1] == 0:
                size -= 1
            row = row[:size] or (0,)
        if denominator != 1:
            divisor = math.gcd(*row, denominator)
            if divisor != 1:
                row = tuple(r // divisor for r in row)
                denominator //= divisor
        _set_row(self, row)
        _set_lam(self, lam)
        _set_denominator(self, denominator)
        _set_variable(self, variable)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("RationalPolynomial is immutable")

    def __reduce__(self):
        return RationalPolynomial.from_row, (self.row, self.lam, self.denominator, self.variable)

    @property
    def degree(self) -> int:
        return len(self.row) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """row[l] * (1)_{l,lam} / denominator, made on every call."""
        weights = degenerate_falling_factorials(1, self.degree, self.lam)
        return tuple(r * w / self.denominator for r, w in zip(self.row, weights))

    def evaluate(self, value: RationalLike) -> Fraction:
        """Integer Horner, reduced once. With lam = c/e the weights are
        A_l / e**l for the integer prefixes A_l = prod_{j<l} (e - j*c), so at
        p/q the value is sum_l row_l A_l p**l (q*e)**(degree-l) over
        denominator * (q*e)**degree."""
        value = as_rational(value)
        return self._horner(value.numerator, value.denominator)

    def _horner(self, p: int, q: int) -> Fraction:
        """The value at p/q for any integers p and q != 0, not necessarily coprime."""
        weights, base = degenerate_factor_numerators(1, self.degree, self.lam)
        scale = q * base
        acc, power = 0, 1
        for r, w in zip(reversed(self.row), reversed(weights)):
            acc = acc * p + r * w * power
            power *= scale
        return Fraction(acc, self.denominator * scale**self.degree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.variable != other.variable:
            return False
        if self.lam is other.lam or self.lam == other.lam:
            return self.denominator == other.denominator and self.row == other.row
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((self.coefficients, self.variable))

    def __repr__(self) -> str:
        return f"RationalPolynomial(coefficients={self.coefficients!r}, variable={self.variable!r})"


# the slots' member-descriptor setters: `_set` writes each slot once through
# them, past the refusing __setattr__
_set_row, _set_lam, _set_denominator, _set_variable = (
    getattr(RationalPolynomial, name).__set__ for name in RationalPolynomial.__slots__
)


def monomial(n: int, variable: str = "x") -> RationalPolynomial:
    """The single-term polynomial variable**n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return RationalPolynomial.from_row((0,) * n + (1,), 0, variable=variable)


def bell_polynomial(n: int) -> RationalPolynomial:
    """sum_k S2(n, k) x**k, whose value at 1 is the Bell number."""
    return RationalPolynomial.from_row(STIRLING2_TRIANGLE.row(n), 0, variable="x")


def bell_number(n: int) -> int:
    """Number of set partitions of an n-set."""
    return sum(STIRLING2_TRIANGLE.row(n))


def lah_bell_polynomial(n: int) -> RationalPolynomial:
    """sum_k L(n, k) x**k, the ordered-list analogue of the Bell polynomial."""
    return RationalPolynomial.from_row(LAH_TRIANGLE.row(n), 0, variable="x")


def lah_bell_number(n: int) -> int:
    """Partitions of an n-set into nonempty linearly ordered lists (any count)."""
    return sum(LAH_TRIANGLE.row(n))


def substitution_ratio(x: RationalLike, lam: RationalLike) -> tuple[int, int]:
    """y = x/(1 + lam*x) as the unreduced integer ratio p*e / (q*e + c*p) at
    x = p/q, lam = c/e."""
    x = as_rational(x)
    lam = as_rational(lam)
    denom = x.denominator * lam.denominator + lam.numerator * x.numerator
    if denom == 0:
        raise EvaluationError("substitution undefined: 1 + lam*x = 0")
    return x.numerator * lam.denominator, denom


def y_substitution(x: RationalLike, lam: RationalLike) -> Fraction:
    """The substituted variable y = x/(1 + lam*x)."""
    return Fraction(*substitution_ratio(x, lam))


def evaluate_degenerate(poly: RationalPolynomial, x: RationalLike, lam: RationalLike) -> Fraction:
    """Evaluate a y-variable polynomial at the point y = x/(1 + lam*x).

    Horner takes the unreduced ratio for y, so only the value is reduced, once.
    """
    if poly.variable != "y":
        raise ValueError("expected a polynomial in the substituted variable y")
    return poly._horner(*substitution_ratio(x, lam))


def degenerate_bell_polynomial(n: int, lam: RationalLike) -> RationalPolynomial:
    """Degenerate Bell polynomial in y: sum_k (1)(1-lam)...(1-(k-1)lam) S2(n, k) y**k."""
    return RationalPolynomial.from_row(STIRLING2_TRIANGLE.row(n), lam)


def degenerate_lah_bell_polynomial(n: int, lam: RationalLike) -> RationalPolynomial:
    """Degenerate Lah-Bell polynomial in y: sum_l L(n, l) (1)(1-lam)...(1-(l-1)lam) y**l.

    L(n, l) equals the double Stirling sum sum_k |S1(n, k)| S2(k, l), the form
    in which the coefficients first appear; the tests check the two agree.
    """
    return RationalPolynomial.from_row(LAH_TRIANGLE.row(n), lam)


def degenerate_lah_bell_polynomial_via_bell(n: int, lam: RationalLike) -> RationalPolynomial:
    """Same polynomial assembled the other way: sum_k |S1(n, k)| Bel_{k,lam}(y).

    Bel_{k,lam} has coefficients S2(k, l) (1)_{l,lam}, so coefficient l is the
    integer Stirling product sum_k |S1(n, k)| S2(k, l) times (1)_{l,lam}. No
    Lah number is read, so agreeing with the Lah-number construction
    coefficient by coefficient is a real check; the verifier makes it.
    """
    return RationalPolynomial.from_row(_stirling_product_row(n), lam)


@functools.cache
def _stirling_product_row(n: int) -> tuple[int, ...]:
    """[sum_k |S1(n, k)| S2(k, l) for l <= n], read from the Stirling triangles only.

    The row does not depend on lam, so like the triangle rows it is built once
    per process and every lam shares it; lam = 1/e only cuts it in `from_row`.
    """
    products = [0] * (n + 1)
    for k, s1 in enumerate(STIRLING1_TRIANGLE.row(n)):
        weight = (-1) ** (n - k) * s1
        for l, s2 in enumerate(STIRLING2_TRIANGLE.row(k)):
            products[l] += weight * s2
    return tuple(products)


def _common_numerators(values: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the value denominators, and that lcm."""
    values = [as_rational(v) for v in values]
    common = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


def family_numerators(triangle: TriangleCache, n_max: int, lam: RationalLike,
                      p: int, q: int) -> tuple[list[int], int]:
    """Numerators [V_0, ..., V_n_max] and denominator D > 0 with V_n / D =
    sum_l T(n,l) (1)_{l,lam} (p/q)**l at any integers p and q != 0, such as the
    `substitution_ratio` pair of a degenerate family. With (1)_{l,lam} = A_l / B**l
    and s = q*B, D = s**n_max and the weights W_l = A_l p**l s**(n_max-l) are
    built once, so each order is one integer dot product with its triangle row.
    The weights take their powers of s and p from two running products, one
    down from l = n_max and one up from l = 0, not from a `pow` per entry.
    """
    if q < 0:
        p, q = -p, -q
    prefixes, base = degenerate_factor_numerators(1, n_max, lam)
    scale = q * base
    weights, power = [prefixes[n_max]], 1
    for l in range(n_max - 1, -1, -1):
        power *= scale
        weights.append(prefixes[l] * power)
    weights.reverse()
    denominator, power = power, 1
    for l in range(1, n_max + 1):
        power *= p
        weights[l] *= power
    return [sum(map(mul, triangle.row(n), weights)) for n in range(n_max + 1)], denominator


def signed_transform(triangle: TriangleCache, numerators: Sequence[int], rows: range) -> list[int]:
    """[sum_k (-1)**(n-k) T(n,k) v[k] for n in rows], one integer dot product
    per row. The transform is linear, so values v[k] / D map to results over
    the same D."""
    if rows and rows[-1] >= len(numerators):
        raise LengthError(f"need {rows[-1] + 1} values, got {len(numerators)}")
    alternating = [-v if k % 2 else v for k, v in enumerate(numerators)]
    return [(-1) ** n * sum(map(mul, triangle.row(n), alternating)) for n in rows]


def _signed_row_sum(triangle: TriangleCache, n: int, values: Sequence[RationalLike]) -> Fraction:
    """sum_k (-1)**(n-k) T(n,k) v[k] for row n of the triangle, as one integer
    sum over the lcm of the value denominators, reduced once."""
    numerators, common = _common_numerators(values[: n + 1])
    return Fraction(signed_transform(triangle, numerators, range(n, n + 1))[0], common)


def lahbell_from_bell(n: int, bell_values: Sequence[RationalLike]) -> Fraction:
    """Signed first-kind Stirling transform: sum_k (-1)**(n-k) S1(n,k) v[k].

    Sends Bell-polynomial values to Lah-Bell values (and their degenerate
    counterparts likewise) at a common argument.
    """
    return _signed_row_sum(STIRLING1_TRIANGLE, n, bell_values)


def bell_from_lahbell_degenerate(n: int, lahbell_values: Sequence[RationalLike]) -> Fraction:
    """Inverse transform: sum_k (-1)**(n-k) S2(n,k) v[k].

    Recovers (degenerate) Bell values from (degenerate) Lah-Bell values; the
    round trip through both transforms is the identity.
    """
    return _signed_row_sum(STIRLING2_TRIANGLE, n, lahbell_values)


def lah_bell_series_coefficients(x: RationalLike, order: int, lam: RationalLike = 0) -> list[Fraction]:
    """Degenerate Lah-Bell values at x, orders 0..order, from the generating function.

    Returns n! [t**n] F for F = (1 + lam*h)**(1/lam), h = y*t/(1-t)
    and y = x/(1 + lam*x); F = exp(x*(1/(1-t) - 1)) at lam = 0, the plain
    Lah-Bell values. F is the degenerate Poisson pgf E[(1-t)**-X] at
    alpha = x, so the values are its rising factorial moments for every lam,
    infinite support included. An O(order) recurrence that reads no triangle
    makes this an independent oracle for the triangle-based constructions.
    """
    scaled, scale = _lah_bell_series_numerators(x, order, lam)
    return [Fraction(v, scale**n) for n, v in enumerate(scaled)]


def _lah_bell_series_numerators(x: RationalLike, order: int, lam: RationalLike = 0) -> tuple[list[int], int]:
    """Integers [C_0, ..., C_order] and s > 0 with c_n = C_n / s**n, the
    unreduced values of `lah_bell_series_coefficients`.

    F satisfies (1 - t)(1 - (1 - lam*y)t) F' = y F, so c_n = n! [t**n] F obey
    c_{n+1} = (y + (2 - lam*y) n) c_n - (1 - lam*y) n(n-1) c_{n-1}, c_0 = 1,
    c_1 = y: at lam = 0 the classical LB_{n+1} = (x + 2n) LB_n - n(n-1) LB_{n-1}.
    Scaled by s**n, s = q*e, at y = p/q in lowest terms and lam = c/e, that is
    C_{n+1} = (e*p + (2s - c*p) n) C_n - s(s - c*p) n(n-1) C_{n-1}: O(order)
    integer steps. At lam = 0, s is the denominator of x. Reads no triangle.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    lam = as_rational(lam)
    y = y_substitution(x, lam)
    p, q = y.numerator, y.denominator
    c, e = lam.numerator, lam.denominator
    scale = q * e
    first, slope, damping = e * p, 2 * scale - c * p, scale * (scale - c * p)
    scaled = [1, first]
    for n in range(1, order):
        scaled.append((first + slope * n) * scaled[n] - damping * n * (n - 1) * scaled[n - 1])
    return scaled[: order + 1], scale
