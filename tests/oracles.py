"""Brute-force enumeration oracles, independent of the library's recurrences.

These deliberately avoid every code path under test: partitions are literally
enumerated, factorial-basis coefficients come from direct polynomial
expansion. Slow but unarguable; keep n small.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterator

from lahbell import EvaluationError


def set_partitions(n: int) -> Iterator[list[list[int]]]:
    """All partitions of {0, ..., n-1} into nonempty blocks."""
    if n == 0:
        yield []
        return
    element = n - 1
    for part in set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [element]] + part[i + 1 :]
        yield part + [[element]]


def count_set_partitions_into(n: int, k: int) -> int:
    return sum(1 for part in set_partitions(n) if len(part) == k)


def count_set_partitions(n: int) -> int:
    return sum(1 for _ in set_partitions(n))


def _orderings(part: list[list[int]]) -> int:
    ways = 1
    for block in part:
        ways *= factorial(len(block))
    return ways


def count_list_partitions(n: int) -> int:
    """Partitions of an n-set into nonempty linearly ordered lists: every
    block of a set partition can be ordered in |block|! ways."""
    return sum(_orderings(part) for part in set_partitions(n))


def count_list_partitions_into(n: int, k: int) -> int:
    return sum(_orderings(part) for part in set_partitions(n) if len(part) == k)


def falling_factorial_coefficients(n: int) -> list[int]:
    """Coefficients of x(x-1)...(x-n+1) by direct expansion."""
    coeffs = [1]
    for j in range(n):
        expanded = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            expanded[i + 1] += c
            expanded[i] -= j * c
        coeffs = expanded
    return coeffs


def weighted_power_sum(values, masses, power: int) -> Fraction:
    """sum i**power * mass_i over an explicit finite mass list."""
    total = Fraction(0)
    for i, mass in zip(values, masses):
        total += Fraction(i) ** power * mass
    return total


def stirling2_explicit(n: int, k: int) -> int:
    """S2(n, k) by inclusion-exclusion over surjections, not by recurrence."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def degenerate_factor_product(x, count: int, lam) -> Fraction:
    """x(x-lam)...(x-(count-1)*lam), one product per call."""
    out = Fraction(1)
    for j in range(count):
        out *= Fraction(x) - j * Fraction(lam)
    return out


def degenerate_lah_bell_coefficients(n: int, lam) -> list[Fraction]:
    """y-coefficients of the degenerate Lah-Bell polynomial from the double
    Stirling sum sum_k |s(n,k)| S2(k,l) times (1)(1-lam)...(1-(l-1)lam).

    |s(n,k)| comes from expanding the falling factorial, S2 from the explicit
    formula, so no library triangle or Lah number is involved.
    """
    unsigned_s1 = [abs(c) for c in falling_factorial_coefficients(n)]
    return [
        sum(unsigned_s1[k] * stirling2_explicit(k, l) for k in range(l, n + 1))
        * degenerate_factor_product(1, l, lam)
        for l in range(n + 1)
    ]


def degenerate_binomial_mass(n: int, p, lam, i: int) -> Fraction:
    """C(n,i) (p)_{i,lam} (1-p)_{n-i,lam} / (1)_{n,lam}, each product from scratch."""
    p = Fraction(p)
    return (
        comb(n, i)
        * degenerate_factor_product(p, i, lam)
        * degenerate_factor_product(1 - p, n - i, lam)
        / degenerate_factor_product(1, n, lam)
    )


def lah_bell_series_numerators_convolution(x, order: int, lam=0) -> tuple[list[int], int]:
    """The Lah-Bell series oracle's integers [C_0, ..., C_order] and scale
    s = q*e (c_n = C_n / s**n), by the O(order**2) convolution the library
    used before its three-term recurrence: F' (1 + lam*h) = h' F gives
    c_n = y sum_{k=1..n} (n-1)!/(n-k)! (k - lam*(n-k)) c_{n-k}, at y = p/q
    in lowest terms and lam = c/e. y comes from Fractions, not the library's
    substitution; 1 + lam*x = 0 raises EvaluationError, as the library does.
    """
    x, lam = Fraction(x), Fraction(lam)
    if 1 + lam * x == 0:
        raise EvaluationError("substitution undefined: 1 + lam*x = 0")
    y = x / (1 + lam * x)
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
    return scaled, scale


# Fraction-chain oracles: each exact distribution result as a chain of
# Fraction operations, the way the library computed it before it worked from
# integer parts reduced once. The two must give the same rationals.


def dpoisson_mean_chain(alpha, lam) -> Fraction:
    """alpha / (1 + alpha*lam)."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    return alpha / (1 + alpha * lam)


def dpoisson_variance_chain(alpha, lam) -> Fraction:
    """alpha / (1 + alpha*lam)**2."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    return alpha / (1 + alpha * lam) ** 2


def pgf_argument_chain(t) -> Fraction:
    """u = 1 / (1 - t)."""
    return 1 / (1 - Fraction(t))


def dpoisson_pgf_exponent_chain(alpha, lam, t) -> Fraction:
    """s = alpha*(u - 1) / (1 + lam*alpha): the pgf is the degenerate exponential e_lam(s)."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    return alpha * (pgf_argument_chain(t) - 1) / (1 + lam * alpha)


def finite_dpoisson_pgf_chain(alpha, lam, t) -> Fraction:
    """(1 + lam*s) ** (1/lam) at lam = 1/m, an integer power of a Fraction."""
    return degenerate_exp_exact_chain(1, dpoisson_pgf_exponent_chain(alpha, lam, t), lam)


def degenerate_exp_exact_chain(x, t, lam) -> Fraction | None:
    """(1 + lam*t) ** (x/lam), 1 at lam = 0 when x*t = 0; None where that is
    no exact rational: x/lam not an integer, 1 + lam*t <= 0, or lam = 0 < |x*t|."""
    x, t, lam = Fraction(x), Fraction(t), Fraction(lam)
    if lam == 0:
        return Fraction(1) if x * t == 0 else None
    exponent, base = x / lam, 1 + lam * t
    if exponent.denominator != 1 or base <= 0:
        return None
    return base**exponent.numerator


def binomial_mass_table_chain(n: int, p, lam) -> tuple[tuple[int, ...], int]:
    """Mass numerators over one positive denominator from the Fractions p and
    1 - p at lam = c/e: prefix products of x.numerator*e - j*x.denominator*c,
    C(n,i) A_i B_{n-i} over p.denominator**n prod_{j<n} (e - j*c)."""
    p, lam = Fraction(p), Fraction(lam)
    c, e = lam.numerator, lam.denominator

    def prefixes(x: Fraction) -> list[int]:
        out = [1]
        for j in range(n):
            out.append(out[-1] * (x.numerator * e - j * x.denominator * c))
        return out

    successes, failures = prefixes(p), prefixes(1 - p)
    nums = [comb(n, i) * successes[i] * failures[n - i] for i in range(n + 1)]
    den = p.denominator**n * prod(e - j * c for j in range(n))
    return (tuple(-x for x in nums), -den) if den < 0 else (tuple(nums), den)


def finite_dpoisson_mass_table_chain(alpha, lam) -> tuple[tuple[int, ...], int]:
    """The Binomial(m, alpha/(m + alpha)) table at lam = 1/m."""
    alpha, m = Fraction(alpha), Fraction(lam).denominator
    return binomial_mass_table_chain(m, alpha / (m + alpha), 0)


def dbinomial_refusal_chain(n: int, p, lam) -> str | None:
    """The start of the DomainError text DegenerateBinomial(n, p, lam) raises,
    by Fraction comparisons; None for a valid instance."""
    p, lam = Fraction(p), Fraction(lam)
    if not 0 <= p <= 1:
        return "p must lie in [0, 1]"
    if not 0 <= lam < 1:
        return "lam must lie in [0, 1)"
    if lam.numerator == 1 and lam.denominator < n:
        return "normalizer vanishes"
    return None


def dpoisson_refusal_chain(alpha, lam) -> str | None:
    """The same for DegeneratePoisson(alpha, lam)."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    if alpha <= 0:
        return "alpha must be positive"
    if not 0 <= lam < 1:
        return "lam must lie in [0, 1)"
    if lam.numerator > 1 and alpha * lam >= 1:
        return "infinite-support instance needs alpha*lam < 1"
    return None
