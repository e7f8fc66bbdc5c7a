"""Brute-force enumeration oracles, independent of the library's recurrences.

These deliberately avoid every code path under test: partitions are literally
enumerated, factorial-basis coefficients come from direct polynomial
expansion. Slow but unarguable; keep n small.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterator


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
