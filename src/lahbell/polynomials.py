"""The four polynomial families and their exact basis transforms.

Bell polynomials (second-kind Stirling coefficients) and Lah-Bell polynomials
(Lah coefficients) live in the plain variable x. Their degenerate deformations
are polynomials in the substituted variable y = x/(1 + lam*x): representing
them in y keeps every coefficient identity an exact rational comparison, and
evaluating at a point x is a separate, explicit substitution step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EvaluationError, LengthError
from .exact_core import (
    LAH_TRIANGLE,
    STIRLING1_TRIANGLE,
    STIRLING2_TRIANGLE,
    RationalLike,
    as_rational,
    degenerate_falling_factorials,
)


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    `variable` is "x" for the plain families and "y" for the degenerate ones,
    where y stands for x/(1 + lam*x). Trailing zero coefficients are trimmed
    so equal polynomials compare equal structurally.
    """

    coefficients: tuple[Fraction, ...]
    variable: str = "x"

    def __post_init__(self) -> None:
        coeffs = tuple(as_rational(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (Fraction(0),)
        object.__setattr__(self, "coefficients", coeffs)
        if self.variable not in ("x", "y"):
            raise ValueError("variable must be 'x' or 'y'")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    def evaluate(self, value: RationalLike) -> Fraction:
        """Integer Horner over the lcm D of the coefficient denominators: at
        p/q the value is sum_i D*c_i p**i q**(degree-i) / (D*q**degree)."""
        value = as_rational(value)
        p, q = value.numerator, value.denominator
        common = math.lcm(*(c.denominator for c in self.coefficients))
        acc, q_power = 0, 1
        for c in reversed(self.coefficients):
            acc = acc * p + c.numerator * (common // c.denominator) * q_power
            q_power *= q
        return Fraction(acc, common * q**self.degree)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.variable != other.variable:
            raise ValueError("cannot add polynomials in different variables")
        size = max(len(self.coefficients), len(other.coefficients))
        return RationalPolynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(size)),
            self.variable,
        )

    def scaled(self, factor: RationalLike) -> "RationalPolynomial":
        factor = as_rational(factor)
        return RationalPolynomial(tuple(factor * c for c in self.coefficients), self.variable)


def monomial(n: int, variable: str = "x") -> RationalPolynomial:
    """The single-term polynomial variable**n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return RationalPolynomial((Fraction(0),) * n + (Fraction(1),), variable)


def bell_polynomial(n: int) -> RationalPolynomial:
    """sum_k S2(n, k) x**k, whose value at 1 is the Bell number."""
    return RationalPolynomial(tuple(Fraction(s) for s in STIRLING2_TRIANGLE.row(n)))


def bell_number(n: int) -> int:
    """Number of set partitions of an n-set."""
    return sum(STIRLING2_TRIANGLE.row(n))


def lah_bell_polynomial(n: int) -> RationalPolynomial:
    """sum_k L(n, k) x**k, the ordered-list analogue of the Bell polynomial."""
    return RationalPolynomial(tuple(Fraction(v) for v in LAH_TRIANGLE.row(n)))


def lah_bell_number(n: int) -> int:
    """Partitions of an n-set into nonempty linearly ordered lists (any count)."""
    return sum(LAH_TRIANGLE.row(n))


def y_substitution(x: RationalLike, lam: RationalLike) -> Fraction:
    """The substituted variable y = x/(1 + lam*x)."""
    x = as_rational(x)
    lam = as_rational(lam)
    denom = 1 + lam * x
    if denom == 0:
        raise EvaluationError("substitution undefined: 1 + lam*x = 0")
    return x / denom


def evaluate_degenerate(poly: RationalPolynomial, x: RationalLike, lam: RationalLike) -> Fraction:
    """Evaluate a y-variable polynomial at the point y = x/(1 + lam*x)."""
    if poly.variable != "y":
        raise ValueError("expected a polynomial in the substituted variable y")
    return poly.evaluate(y_substitution(x, lam))


def degenerate_bell_polynomial(n: int, lam: RationalLike) -> RationalPolynomial:
    """Degenerate Bell polynomial in y: sum_k (1)(1-lam)...(1-(k-1)lam) S2(n, k) y**k."""
    factors = degenerate_falling_factorials(1, n, lam)
    return RationalPolynomial(tuple(f * s for f, s in zip(factors, STIRLING2_TRIANGLE.row(n))), "y")


def degenerate_lah_bell_polynomial(n: int, lam: RationalLike) -> RationalPolynomial:
    """Degenerate Lah-Bell polynomial in y: sum_l L(n, l) (1)(1-lam)...(1-(l-1)lam) y**l.

    L(n, l) equals the double Stirling sum sum_k |S1(n, k)| S2(k, l), the form
    in which the coefficients first appear; the tests check the two agree.
    """
    factors = degenerate_falling_factorials(1, n, lam)
    return RationalPolynomial(tuple(v * f for v, f in zip(LAH_TRIANGLE.row(n), factors)), "y")


def degenerate_lah_bell_polynomial_via_bell(n: int, lam: RationalLike) -> RationalPolynomial:
    """Same polynomial assembled the other way: sum_k |S1(n, k)| Bel_{k,lam}(y).

    Bel_{k,lam} has coefficients S2(k, l) (1)_{l,lam}, so coefficient l is the
    integer Stirling product sum_k |S1(n, k)| S2(k, l) times (1)_{l,lam}. No
    Lah number is read, so agreeing with the Lah-number construction
    coefficient by coefficient is a real check; the verifier makes it.
    """
    factors = degenerate_falling_factorials(1, n, lam)
    products = [0] * (n + 1)
    for k, s1 in enumerate(STIRLING1_TRIANGLE.row(n)):
        weight = (-1) ** (n - k) * s1
        for l, s2 in enumerate(STIRLING2_TRIANGLE.row(k)):
            products[l] += weight * s2
    return RationalPolynomial(tuple(p * f for p, f in zip(products, factors)), "y")


def lahbell_from_bell(n: int, bell_values: Sequence[RationalLike]) -> Fraction:
    """Signed first-kind Stirling transform: sum_k (-1)**(n-k) S1(n,k) v[k].

    Sends Bell-polynomial values to Lah-Bell values (and their degenerate
    counterparts likewise) at a common argument.
    """
    if len(bell_values) < n + 1:
        raise LengthError(f"need {n + 1} values, got {len(bell_values)}")
    return sum(
        ((-1) ** (n - k) * s1 * as_rational(v)
         for k, (s1, v) in enumerate(zip(STIRLING1_TRIANGLE.row(n), bell_values))),
        Fraction(0),
    )


def bell_from_lahbell_degenerate(n: int, lahbell_values: Sequence[RationalLike]) -> Fraction:
    """Inverse transform: sum_k (-1)**(n-k) S2(n,k) v[k].

    Recovers (degenerate) Bell values from (degenerate) Lah-Bell values; the
    round trip through both transforms is the identity.
    """
    if len(lahbell_values) < n + 1:
        raise LengthError(f"need {n + 1} values, got {len(lahbell_values)}")
    return sum(
        ((-1) ** (n - k) * s2 * as_rational(v)
         for k, (s2, v) in enumerate(zip(STIRLING2_TRIANGLE.row(n), lahbell_values))),
        Fraction(0),
    )


def lah_bell_series_coefficients(x: RationalLike, order: int, lam: RationalLike = 0) -> list[Fraction]:
    """Degenerate Lah-Bell values at x, orders 0..order, from the generating function.

    Returns n! [t**n] F for F = (1 + lam*h)**(1/lam), h = y*(t + t**2 + ...)
    and y = x/(1 + lam*x); F = exp(x*(1/(1-t) - 1)) at lam = 0, the plain
    Lah-Bell values. F is the degenerate Poisson pgf E[(1-t)**-X] at
    alpha = x, so the values are its rising factorial moments for every lam,
    infinite support included. F' (1 + lam*h) = h' F gives
    c_n = y sum_{k=1..n} (n-1)!/(n-k)! (k - lam*(n-k)) c_{n-k} for c_n = n! [t**n] F,
    run in integers scaled by (q*e)**n at y = p/q, lam = c/e. No triangle is
    read, so this is an independent oracle for the triangle-based constructions.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    lam = as_rational(lam)
    y = y_substitution(x, lam)
    p, q = y.numerator, y.denominator
    c, e = lam.numerator, lam.denominator
    scale = q * e
    scaled = [1]
    for n in range(1, order + 1):
        acc, weight = 0, p  # weight = p (n-1)!/(n-k)! scale**(k-1)
        for k in range(1, n + 1):
            acc += weight * (k * e - c * (n - k)) * scaled[n - k]
            weight *= (n - k) * scale
        scaled.append(acc)
    return [Fraction(v, scale**n) for n, v in enumerate(scaled)]
