"""Exact rational arithmetic, generalized factorials, and memoized number triangles.

Everything in this module is integer or `fractions.Fraction` work. Every
degenerate factor product accumulates one integer sequence, `degenerate_factors`
(`_factor_range` on integer parts): as integer prefixes, Fraction prefixes, or
one product reduced once. The Lah and Stirling triangles are built row by row from their
recurrences and cached; the closed form for Lah numbers is kept around as an
independent cross-check. Exact values become floats through `_float` (+-inf
past the float range), and float logs become results through `_float_exp`.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import threading
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from .errors import DomainError

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, "a/b" strings, and Fractions to an exact Fraction.

    Floats are rejected: silently converting them would smuggle binary
    rounding into results that are contractually exact. A string with more
    digits in a part, or a larger decimal exponent, than Python's int-to-str
    limit raises DomainError before `Fraction` builds the integer ("1e3000000"
    would cost a 3-million-digit power of 10).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'a/b' string")
    if isinstance(value, str):
        _refuse_oversized(value)
    return Fraction(value)


def _refuse_oversized(text: str) -> None:
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    mantissa, _, exponent = text.lower().partition("e")
    if any(sum(map(str.isdecimal, part)) > limit for part in (*mantissa.split("/"), exponent)):
        raise DomainError(f"rational string has a part of more than {limit} digits")
    exponent = exponent.strip().lstrip("+-").replace("_", "")
    if exponent.isdecimal() and int(exponent) > limit:
        raise DomainError(f"rational string has a decimal exponent beyond {limit}")


def format_rational(value: RationalLike) -> str:
    """Canonical "a/b" string; the denominator is omitted when it is 1.

    Raises DomainError when a part has more digits than Python's int-to-str
    limit allows.
    """
    value = as_rational(value)
    try:
        return str(value)
    except ValueError as exc:
        raise DomainError(f"result too large to print: {exc}") from exc


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError("order must be a nonnegative integer")


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms; a non-bool int is (value, 1)
    without building a Fraction."""
    if type(value) is int:
        return value, 1
    value = as_rational(value)
    return value.numerator, value.denominator


def degenerate_factors(x: RationalLike, n: int, lam: RationalLike) -> tuple[Sequence[int], int]:
    """Integer factors F_j = a*e - j*b*c for j < n and base B = b*e, where x = a/b, lam = c/e.

    F_j / B = x - j*lam, so (x)_{l,lam} = prod_{j<l} F_j / B**l. This is the
    one place degenerate factors are made; the sequence (a range, or a tuple
    at lam = 0) can be iterated more than once.
    """
    _check_order(n)
    return _factor_range(*_ratio(x), *_ratio(lam), n)


def _factor_range(a: int, b: int, c: int, e: int, n: int) -> tuple[Sequence[int], int]:
    """`degenerate_factors` of x = a/b at lam = c/e from integer parts, b and e > 0."""
    start, step = a * e, b * c
    return (range(start, start - n * step, -step) if step else (start,) * n), b * e


def degenerate_falling_factorials(x: RationalLike, n: int, lam: RationalLike) -> list[Fraction]:
    """[(x)_{0,lam}, ..., (x)_{n,lam}], the prefix products of x(x-lam)(x-2*lam)...

    For callers that need every entry as a Fraction (polynomial
    coefficients); integer work reads `degenerate_factor_numerators` instead.
    """
    factors, base = degenerate_factors(x, n, lam)
    fractions = (Fraction(f, base) for f in factors)
    return list(itertools.accumulate(fractions, operator.mul, initial=Fraction(1)))


def degenerate_factor_numerators(x: RationalLike, n: int, lam: RationalLike) -> tuple[list[int], int]:
    """Integer prefixes [P_0, ..., P_n] and base B with (x)_{l,lam} = P_l / B**l.

    P_l is the product of the first l `degenerate_factors`. Callers that sum
    or evaluate many such products put them over one power of B and reduce
    once, instead of paying one reduced Fraction per entry.
    """
    factors, base = degenerate_factors(x, n, lam)
    return list(itertools.accumulate(factors, operator.mul, initial=1)), base


def degenerate_falling_factorial(x: RationalLike, n: int, lam: RationalLike) -> Fraction:
    """x(x-lam)(x-2*lam)...(x-(n-1)*lam), one integer product reduced once; x**n at lam = 0."""
    factors, base = degenerate_factors(x, n, lam)
    return Fraction(math.prod(factors), base**n)


def falling_factorial(x: RationalLike, n: int) -> Fraction:
    """x(x-1)...(x-n+1), the empty product 1 when n = 0."""
    return degenerate_falling_factorial(x, n, 1)


def rising_factorial(x: RationalLike, n: int) -> Fraction:
    """x(x+1)...(x+n-1), the empty product 1 when n = 0."""
    return degenerate_falling_factorial(x, n, -1)


class TriangleKind(Enum):
    LAH = "lah"
    STIRLING1_SIGNED = "stirling1"
    STIRLING2 = "stirling2"


# next_row[k] = prev[k-1] + weight(n, k) * prev[k], building row n+1 from row n
_ROW_WEIGHTS = {
    TriangleKind.LAH: lambda n, k: n + k,
    TriangleKind.STIRLING1_SIGNED: lambda n, k: -n,
    TriangleKind.STIRLING2: lambda n, k: k,
}


class TriangleCache:
    """Grow-only lower-triangular integer table built from a two-term recurrence.

    Row 0 is always (1,); entries outside 0 <= k <= n are implicitly 0.
    Published rows are immutable tuples. Row construction is serialized by a
    lock, so concurrent readers never observe a partially built row.
    """

    def __init__(self, kind: TriangleKind):
        self.kind = kind
        self._weight = _ROW_WEIGHTS[kind]
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._lock = threading.Lock()

    def row(self, n: int) -> tuple[int, ...]:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if n >= len(self._rows):
            with self._lock:
                while n >= len(self._rows):
                    top = len(self._rows) - 1
                    prev = self._rows[top]
                    weight = self._weight
                    nxt = tuple(
                        (prev[k - 1] if 1 <= k <= top + 1 else 0)
                        + weight(top, k) * (prev[k] if k <= top else 0)
                        for k in range(top + 2)
                    )
                    self._rows.append(nxt)
        return self._rows[n]

    def value(self, n: int, k: int) -> int:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if k < 0 or k > n:
            return 0
        return self.row(n)[k]


LAH_TRIANGLE = TriangleCache(TriangleKind.LAH)
STIRLING1_TRIANGLE = TriangleCache(TriangleKind.STIRLING1_SIGNED)
STIRLING2_TRIANGLE = TriangleCache(TriangleKind.STIRLING2)


def lah_number(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty linearly ordered lists."""
    return LAH_TRIANGLE.value(n, k)


def lah_number_closed_form(n: int, k: int) -> int:
    """C(n-1, k-1) * n!/k!; independent cross-check for the cached triangle."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


def stirling1_signed(n: int, k: int) -> int:
    """Coefficient of x**k in the falling factorial x(x-1)...(x-n+1)."""
    return STIRLING1_TRIANGLE.value(n, k)


def stirling1_unsigned(n: int, k: int) -> int:
    """|signed value|; nonzero entries carry sign (-1)**(n-k), so this is cheap."""
    return abs(stirling1_signed(n, k))


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks."""
    return STIRLING2_TRIANGLE.value(n, k)


def degenerate_exp_eval(x: RationalLike, t: RationalLike, lam: RationalLike) -> float:
    """(1 + lam*t) ** (x/lam) as a float, exp(x*t) at lam = 0; 0.0 below the float range, DomainError past it."""
    return _float_exp(_degenerate_exp_power(x, t, lam))


def _degenerate_exp_power(x: RationalLike, t: RationalLike, lam: RationalLike) -> float:
    """The float log of (1 + lam*t) ** (x/lam), (x/lam) * log1p(lam*t), possibly infinite; x*t at lam = 0.

    float(1 + lam*t) would round to 1.0 once lam*t < 2**-53. Where x/lam has no
    float, the power is x*t * log1p(z)/z with z = lam*t, and the ratio 1 where
    z rounds to 0: the lam -> 0 limit to float precision. A base with no float,
    or one below 2**-10 (where log1p of the rounded z loses its digits), takes
    its log from its integer parts: base / 2**shift in (1/2, 2), rounded once,
    plus shift * log 2.
    """
    x, t, lam = map(as_rational, (x, t, lam))
    if lam == 0:
        return _float(x * t)
    base = 1 + lam * t
    if base <= 0:
        raise DomainError(f"degenerate exponential needs 1 + lam*t > 0, got {format_rational(base)}")
    z = _float(lam * t)
    if not -1.0 + 2.0**-10 < z < math.inf:
        shift = base.numerator.bit_length() - base.denominator.bit_length()
        scaled = (base.numerator << max(-shift, 0)) / (base.denominator << max(shift, 0))
        return _float(x / lam) * (math.log(scaled) + shift * math.log(2))
    exponent = _float(x / lam)
    if math.isinf(exponent):
        return _float(x * t) * (math.log1p(z) / z if z else 1.0)
    return exponent * math.log1p(z)


def _float(q: Union[Fraction, int, float]) -> float:
    """float(q) of an exponent, argument or threshold, or an infinity of q's sign past the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _float_exp(power: float) -> float:
    """math.exp(power) as a result: 0.0 below the float range, DomainError past it."""
    try:
        if (value := math.exp(power)) != math.inf:  # nan passes through
            return value
    except OverflowError:
        pass
    raise DomainError("result outside the float range")


def degenerate_exp_exact(x: RationalLike, t: RationalLike, lam: RationalLike) -> Fraction:
    """Exact value of the degenerate exponential when the exponent x/lam = a*e/(b*c) is an integer:
    with x = a/b, t = p/q and lam = c/e, the base (q*e + p*c)/(q*e) reduced once, then its exact power."""
    (a, b), (p, q), (c, e) = map(_ratio, (x, t, lam))
    if c == 0:
        if a == 0 or p == 0:
            return Fraction(1)
        raise DomainError("no exact rational value at lam = 0 unless x*t = 0")
    exponent, rest = divmod(a * e, b * c)
    if rest:
        raise DomainError("x/lam is not an integer; use degenerate_exp_eval for a float")
    num, den = q * e + p * c, q * e
    if num <= 0:
        raise DomainError(f"degenerate exponential needs 1 + lam*t > 0, got {format_rational(Fraction(num, den))}")
    return Fraction(num, den) ** exponent


def degenerate_exp_series(x: RationalLike, t: RationalLike, lam: RationalLike, order: int) -> Fraction:
    """Exact partial sum of the defining series, sum_{k<=order} (x)(x-lam)... t**k / k!.

    Independent of the closed form above; used to check the two against each
    other inside the series' radius of convergence.
    """
    prefixes, base = degenerate_factor_numerators(x, order, lam)
    t = as_rational(t)
    # term k is P_k t**k / (B**k k!) at t = p/q; every term goes over (B*q)**order * order!
    p, scale, top = t.numerator, base * t.denominator, math.factorial(order)
    total = sum(w * p**k * scale ** (order - k) * (top // math.factorial(k)) for k, w in enumerate(prefixes))
    return Fraction(total, scale**order * top)
