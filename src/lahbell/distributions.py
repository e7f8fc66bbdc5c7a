"""Degenerate binomial and degenerate Poisson random variables.

Both families take exact rational parameters and reduce to the classical
binomial / Poisson distributions at lam = 0. Every exact result (masses,
moments, mean, variance, pgf) is built from the integer parts of alpha or
p = a/b, lam = c/e and t, and reduced once; floats appear only for irrational
normalizers (exp, non-integer powers): the infinite-support Poisson `pmf`
and `pgf`, and the binomial `mgf`. Each family supplies the
ratios of consecutive falling factorial moments in closed form, exact for
every admissible parameter; `moment` turns them into falling, raw or rising
moments. `moment_direct` and `pgf_direct` are brute force over a finite
support only; over an infinite one the exact cross-check is the series
oracle `polynomials.lah_bell_series_coefficients`.

For some parameter choices the mass formulas go negative. The algebraic
identities (normalization, moments, generating functions) hold for the signed
measure regardless, so moment routines work unconditionally, while
`analyze_support` reports the sign pattern and samplers refuse signed regimes.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

from .errors import DomainError
from .exact_core import (
    LAH_TRIANGLE,
    STIRLING2_TRIANGLE,
    RationalLike,
    _degenerate_exp_power,
    _factor_range,
    _float,
    _float_exp,
    _ratio,
    as_rational,
    degenerate_exp_eval,
    degenerate_exp_exact,
    degenerate_factors,
    degenerate_falling_factorial,
    format_rational,
)


class _InfiniteSupport(DomainError):
    """An exact mass table was asked of an infinite support; the verifier
    reports an exact check that meets it as SKIPPED."""


class MomentKind(str, Enum):
    RAW = "raw"
    FALLING = "falling"
    RISING = "rising"


@dataclass(frozen=True)
class SupportAnalysis:
    """Finiteness, cutoff, and sign pattern of a distribution's masses.

    On a finite support `negative_indices` lists the negative-mass indices up
    to the inspection horizon, or the first one when all lie beyond it, so the
    report is never silently optimistic. On an infinite signed support it is
    the first negative index alone, whatever the horizon; the mass signs
    alternate from there on.
    """

    finite: bool
    cutoff: Optional[int]
    all_nonnegative: bool
    negative_indices: tuple[int, ...]


@dataclass(frozen=True)
class DegenerateBinomial:
    """Number of successes in n trials under the degenerate mass formula.

    Masses are C(n,i) (p)(p-lam)... (1-p)(1-p-lam)... divided by the
    normalizer (1)(1-lam)...(1-(n-1)lam). At lam = 0 this is the classical
    binomial distribution. Construction fails when the normalizer vanishes
    (lam = 1/j for some 1 <= j <= n-1).
    """

    n: int
    p: Fraction
    lam: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise DomainError("n must be a nonnegative integer")
        p = as_rational(self.p)
        lam = as_rational(self.lam)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", lam)
        (a, b), (c, e) = _ratio(p), _ratio(lam)
        if not 0 <= a <= b:
            raise DomainError(f"p must lie in [0, 1], got {format_rational(p)}")
        if not 0 <= c < e:
            raise DomainError(f"lam must lie in [0, 1), got {format_rational(lam)}")
        if c == 1 and e < self.n:
            raise DomainError(
                f"normalizer vanishes: lam = {format_rational(lam)} is 1/j for some j < n"
            )

    @property
    def normalizer(self) -> Fraction:
        return degenerate_falling_factorial(1, self.n, self.lam)

    @property
    def finite_support(self) -> bool:
        return True

    @cached_property
    def _mass_table(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators of the masses 0..n over one positive denominator."""
        return _binomial_mass_numerators(self.n, *_ratio(self.p), *_ratio(self.lam))

    @property
    def support_cutoff(self) -> int:
        """Last index with nonzero mass."""
        nums, _ = self._mass_table
        return next((i for i in range(self.n, -1, -1) if nums[i]), 0)

    def pmf(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("index must be nonnegative")
        if i > self.n:
            return Fraction(0)
        nums, den = self._mass_table
        return Fraction(nums[i], den)

    def masses(self) -> list[Fraction]:
        nums, den = self._mass_table
        return [Fraction(x, den) for x in nums]

    def _falling_ratios(self, m: int) -> list[tuple[int, int]]:
        """E[(X)_k] / E[(X)_{k-1}] = (n-k+1)(p-(k-1)lam)/(1-(k-1)lam) for k <= min(m, n) as
        integer pairs; E[(X)_k] = 0 past n.

        E[(X)_k] = (n)_k (p)_{k,lam} / (1)_{k,lam} is the degenerate Vandermonde sum
        (n)_k (p)_{k,lam} (1-k*lam)_{n-k,lam} / (1)_{n,lam} with (1-k*lam)_{n-k,lam} =
        (1)_{n,lam} / (1)_{k,lam} cancelled; no factor 1-(k-1)lam vanishes for k <= n.
        With p = a/b, (p - j*lam) / (1 - j*lam) = (a*e - j*b*c) / (b*(e - j*c))."""
        top = min(m, self.n)
        successes, _ = degenerate_factors(self.p, top, self.lam)
        units, _ = degenerate_factors(1, top, self.lam)
        b = self.p.denominator
        return [((self.n - j) * s, b * u) for j, (s, u) in enumerate(zip(successes, units))]

    def mean(self) -> Fraction:
        """n*p: the degenerate factors of the first falling moment cancel."""
        return self.n * self.p

    def variance(self) -> Fraction:
        """E[X**2] - E[X]**2, valid for every n: with E[X**2] = num/den and
        p = a/b, (num b**2 - den (n a)**2) / (den b**2), reduced once."""
        num, den = _moment_parts(self, MomentKind.RAW, 2)
        a, b = _ratio(self.p)
        return Fraction(num * b * b - den * (self.n * a) ** 2, den * b * b)

    def raw_moment(self, m: int) -> Fraction:
        return moment(self, MomentKind.RAW, m)

    def falling_factorial_moment(self, m: int) -> Fraction:
        return moment(self, MomentKind.FALLING, m)

    def rising_factorial_moment(self, m: int) -> Fraction:
        return moment(self, MomentKind.RISING, m)

    def mgf(self, t: Union[float, RationalLike]) -> float:
        """Moment generating function at t, a float evaluation boundary;
        DomainError when it is past the float range, or when signed terms
        cancel so far that the float sum keeps less than half its bits."""
        t_float = float(t) if isinstance(t, float) else _float(as_rational(t))
        nums, den = self._mass_table
        total = size = 0.0
        for i, x in enumerate(nums):
            # a zero mass adds nothing, and exp(0 * t) is 1 at an infinite t too
            if x:
                term = (_float_exp(i * t_float) if i else 1.0) * _float(Fraction(x, den))
                total, size = total + term, size + abs(term)
        # a mass past the float range is an infinity, and two of them may make nan
        if not math.isfinite(total) and not math.isnan(t_float):
            raise DomainError("result outside the float range")
        # the sum's rounding error is up to about n ulps of sum |term|, so
        # past 2**26 |total| it may reach more than half of total's bits
        if size > 2**26 * abs(total):
            raise DomainError("mgf terms cancel: the float sum keeps less than half its bits")
        return total

    def pgf(self, t: RationalLike) -> Fraction:
        """Expectation of (1/(1-t))**X, exact over the finite support."""
        return pgf_direct(self, t)


@dataclass(frozen=True)
class DegeneratePoisson:
    """Count variable with masses proportional to alpha**i (1)(1-lam).../i!.

    The support is finite, {0, ..., m}, exactly when 1/lam is an integer m;
    then every mass is an exact nonnegative rational. At lam = 0 this is the
    classical Poisson distribution (infinite support, float masses). For
    other lam the masses eventually change sign and the defining series is a
    binomial series, so construction requires alpha*lam < 1.
    """

    alpha: Fraction
    lam: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        alpha = as_rational(self.alpha)
        lam = as_rational(self.lam)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lam", lam)
        (a, b), (c, e) = _ratio(alpha), _ratio(lam)
        if a <= 0:
            raise DomainError(f"alpha must be positive, got {format_rational(alpha)}")
        if not 0 <= c < e:
            raise DomainError(f"lam must lie in [0, 1), got {format_rational(lam)}")
        if c > 1 and a * c >= b * e:
            raise DomainError(
                "infinite-support instance needs alpha*lam < 1 for its series to converge"
            )

    @property
    def finite_support(self) -> bool:
        return self.lam.numerator == 1

    @property
    def support_cutoff(self) -> Optional[int]:
        return self.lam.denominator if self.finite_support else None

    @cached_property
    def _mass_table(self) -> tuple[tuple[int, ...], int]:
        """Finite support only: with lam = 1/m this is the mass table of the
        classical Binomial(m, alpha/(m + alpha)). With alpha = a/b and
        g = gcd(a, m), that p is u/(u + w), u = a/g and w = m*b/g, in lowest terms."""
        m = self.support_cutoff
        if m is None:
            raise _InfiniteSupport("exact mass table requires a finite support")
        a, b = _ratio(self.alpha)
        g = math.gcd(a, m)
        return _binomial_mass_numerators(m, a // g, (a + m * b) // g, 0, 1)

    def pmf(self, i: int) -> Union[Fraction, float]:
        """Exact rational on a finite support, float otherwise.

        With lam = 1/m and alpha = a/b the mass is the binomial one,
        C(m,i) a**i (m*b)**(m-i) / (m*b + a)**m, computed without the table;
        an m past the index range raises DomainError, as the table does.
        On an infinite support the mass is the normalizer e_lam(alpha)**-1
        times the exact ratio alpha**i (1)_{i,lam} / i!, with the log of the
        normalizer the degenerate exponential's own power. An `lgamma` bound on
        log|mass| (at 2**1000 for an index past it) comes first: more than 1
        below the log of the least subnormal, a zero with the sign of
        (1)_{i,lam} is returned without building the ratio; an index past
        2**1000 gets no other answer but DomainError. When the normalizer or
        the ratio lies outside the normal float range, their logs are added,
        the ratio's through `math.log` on its integer parts, its sign kept.
        """
        if i < 0:
            raise ValueError("index must be nonnegative")
        if self.finite_support:
            m = self.support_cutoff
            if i > m:
                return Fraction(0)
            if m > sys.maxsize:
                raise DomainError(f"a mass table on 0..{m} is past the index range")
            a, b = self.alpha.numerator, self.alpha.denominator
            return Fraction(math.comb(m, i) * a**i * (m * b) ** (m - i), (m * b + a) ** m)
        log_normalizer = _degenerate_exp_power(-1, self.alpha, self.lam)
        normalizer = _float_exp(log_normalizer)
        # the factors 1 - j*lam of (1)_{i,lam} are negative exactly for j > 1/lam
        negative_factors = max(i - 1 - self.lam.denominator // self.lam.numerator, 0) if self.lam else 0
        sign = -1.0 if negative_factors % 2 else 1.0
        # lgamma has a float up to 2**1000, and |mass_{j+1} / mass_j| =
        # alpha |1 - j*lam| / (j + 1) < 1 for j >= alpha, as alpha*lam < 1
        probe = min(i, 2**1000)
        if (probe == i or self.alpha <= probe) and (
            _log_abs_mass_bound(self.alpha, self.lam, probe, log_normalizer) < _LOG_LEAST_SUBNORMAL - 1
        ):
            return math.copysign(0.0, sign)
        if probe < i:
            raise DomainError("a mass past index 2**1000 is computed only where it underflows")
        ratio = self.alpha**i * degenerate_falling_factorial(1, i, self.lam) / math.factorial(i)
        tiny, huge = sys.float_info.min, sys.float_info.max
        if normalizer >= tiny and tiny <= abs(ratio) <= huge:
            return normalizer * float(ratio)
        log_ratio = math.log(abs(ratio.numerator)) - math.log(ratio.denominator)
        return sign * _float_exp(log_ratio + log_normalizer)

    def masses(self) -> list[Fraction]:
        """Exact mass table; only defined for finite support."""
        nums, den = self._mass_table
        return [Fraction(x, den) for x in nums]

    def mean(self) -> Fraction:
        """alpha / (1 + alpha*lam) = a*e / (b*e + a*c) at alpha = a/b, lam = c/e."""
        (a, b), (c, e) = _ratio(self.alpha), _ratio(self.lam)
        return Fraction(a * e, b * e + a * c)

    def variance(self) -> Fraction:
        """alpha / (1 + alpha*lam)**2 = a*b*e**2 / (b*e + a*c)**2."""
        (a, b), (c, e) = _ratio(self.alpha), _ratio(self.lam)
        return Fraction(a * b * e * e, (b * e + a * c) ** 2)

    def mean_variance(self) -> tuple[Fraction, Fraction]:
        return self.mean(), self.variance()

    def _falling_ratios(self, m: int) -> list[tuple[int, int]]:
        """E[(X)_k] / E[(X)_{k-1}] = (1-(k-1)lam) y for k <= m as integer pairs, y = `mean()`:
        E[(X)_k] = (1)_{k,lam} y**k for every admissible lam (alpha**k at lam = 0);
        E[(X)_k] = 0 past a finite support's cutoff, where the ratios stop."""
        units, base = degenerate_factors(1, min(m, self.support_cutoff or m), self.lam)
        y = self.mean()
        return [(u * y.numerator, base * y.denominator) for u in units]

    def raw_moment(self, m: int) -> Fraction:
        """Degenerate Bell polynomial value at alpha; the Bell polynomial at lam = 0."""
        return moment(self, MomentKind.RAW, m)

    def falling_factorial_moment(self, m: int) -> Fraction:
        return moment(self, MomentKind.FALLING, m)

    def rising_factorial_moment(self, m: int) -> Fraction:
        """Degenerate Lah-Bell polynomial value at alpha; the Lah-Bell polynomial at lam = 0."""
        return moment(self, MomentKind.RISING, m)

    def pgf(self, t: RationalLike) -> Union[Fraction, float]:
        """Expectation of (1/(1-t))**X via the closed form.

        With u = 1/(1-t), e_lam(alpha)**-1 * e_lam(alpha*u) is the single
        degenerate exponential e_lam(s) at s = alpha*(u-1)/(1 + lam*alpha);
        exp(alpha*(u-1)) at lam = 0. Exact rational when the support is
        finite, a float otherwise. At u = r/q, s is `mean()` times (r - q)/q.
        """
        r, q = _pgf_argument(t)
        (a, b), (c, e) = _ratio(self.alpha), _ratio(self.lam)
        s = Fraction(a * e * (r - q), (b * e + a * c) * q)
        if self.finite_support:
            return degenerate_exp_exact(1, s, self.lam)
        return degenerate_exp_eval(1, s, self.lam)


Distribution = Union[DegenerateBinomial, DegeneratePoisson]


def poisson(alpha: RationalLike) -> DegeneratePoisson:
    """Classical Poisson distribution as the lam = 0 member of the family."""
    return DegeneratePoisson(as_rational(alpha), Fraction(0))


def binomial(n: int, p: RationalLike) -> DegenerateBinomial:
    """Classical binomial distribution as the lam = 0 member of the family."""
    return DegenerateBinomial(n, as_rational(p), Fraction(0))


# the last table stays cached: the verifier runs each distribution's checks
# one after another, each on a fresh instance with the same integer parts
@lru_cache(maxsize=1)
def _binomial_mass_numerators(n: int, a: int, b: int, c: int, e: int) -> tuple[tuple[int, ...], int]:
    """Degenerate binomial masses 0..n as integer numerators over one denominator.

    With p = a/b and lam = c/e (b, e > 0), mass_i = C(n,i) A_i B_{n-i} / (b**n N), where
    A_i = prod_{j<i} (a*e - j*b*c), B_k = prod_{j<k} ((b-a)*e - j*b*c) and
    N = prod_{j<n} (e - j*c) = e**n times the normalizer: prefixes of the
    degenerate factors of p and 1 - p, and the product of those of 1. Signs
    are flipped when N < 0, so the denominator is always positive.
    """
    if n > sys.maxsize:
        raise DomainError(f"a mass table on 0..{n} is past the index range")
    successes, failures = (list(itertools.accumulate(_factor_range(x, b, c, e, n)[0], operator.mul, initial=1))
                           for x in (a, b - a))
    normalizer = math.prod(_factor_range(1, 1, c, e, n)[0])
    nums, choose = [], 1
    for i in range(n + 1):
        nums.append(choose * successes[i] * failures[n - i])
        choose = choose * (n - i) // (i + 1)
    den = b**n * normalizer
    if den < 0:
        return tuple(-x for x in nums), -den
    return tuple(nums), den


_LOG_LEAST_SUBNORMAL = math.log(sys.float_info.min * sys.float_info.epsilon)


def _log_abs_mass_bound(alpha: Fraction, lam: Fraction, i: int, log_normalizer: float) -> float:
    """An upper bound on log|mass_i| of an infinite-support degenerate Poisson.

    The terms are log alpha**i / i! by `lgamma`, the log normalizer and, at
    lam = c/e, log|(1)_{i,lam}| = i log lam + log|Gamma(1/lam + 1) /
    Gamma(1/lam - i + 1)|. With 1/lam = q + x (q = e // c, 0 < x < 1) that
    gamma ratio is Gamma(q + x + 1) / Gamma(q + x + 1 - h) over the first
    h = min(i, q + 1) factors, which are positive, times Gamma(i - q - x) /
    Gamma(1 - x) over the rest; every argument is positive, and x = r/c and
    1 - x = (c - r)/c come from exact integers; a divisor Gamma(z) is taken
    as Gamma(z + 1) / z with log z from z's integer parts, so a factor close
    to zero keeps its relative accuracy, even below the float range. Their
    float error is covered by adding 1e-12 of the terms' sizes.
    """
    terms = [i * (math.log(alpha.numerator) - math.log(alpha.denominator)), -math.lgamma(i + 1), log_normalizer]
    if lam:
        c, e = lam.numerator, lam.denominator
        q, r = divmod(e, c)
        head = min(i, q + 1)
        try:
            terms += [i * (math.log(c) - math.log(e)), math.lgamma(q + 1 + r / c), -math.lgamma(q + 2 - head + r / c)]
            terms.append(math.log((q + 1 - head) * c + r) - math.log(c))
        except OverflowError:
            # 1/lam or its lgamma has no float (lam below about 4e-306), so
            # i <= q + 1 and every factor 1 - j*lam lies in (0, 1]: their log
            # is at most 0, so the bound holds without it
            pass
        if i > q + 1:
            terms += [math.lgamma(i - q - 1 + (c - r) / c), math.log(c - r) - math.log(c), -math.lgamma(2 - r / c)]
    # a log normalizer of -inf (alpha with no float) outweighs the rest at i <= 2**1000
    return math.fsum(terms) + 1e-12 * sum(abs(term) for term in terms if term > -math.inf)


def _pgf_argument(t: RationalLike) -> tuple[int, int]:
    """u = 1/(1-t) as its coprime parts (d, d - c) at t = c/d, d - c > 0."""
    c, d = _ratio(t)
    if abs(c) >= d:
        raise DomainError("generating-function argument requires |t| < 1")
    return d, d - c


def moment(d: Distribution, kind: Union[MomentKind, str], order: int) -> Fraction:
    """Exact E[X**order], E[(X)_order] or E[<X>_order] as sum_k row[k] E[(X)_k] over the
    S2 row (x**m = sum_k S2(m, k) (x)_k), the unit row, or the Lah row (<x>_m =
    sum_k L(m, k) (x)_k). With the family's ratios r_k = E[(X)_k] / E[(X)_{k-1}]
    the sum is row[0] + r_1 (row[1] + r_2 (row[2] + ...)): integer Horner, reduced once."""
    return Fraction(*_moment_parts(d, kind, order))


def _moment_parts(d: Distribution, kind: Union[MomentKind, str], order: int) -> tuple[int, int]:
    """`moment` as an unreduced integer pair (num, den), den nonzero."""
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    kind = MomentKind(kind)
    ratios = d._falling_ratios(order)
    if kind is MomentKind.FALLING:
        row = (0,) * len(ratios) + (int(len(ratios) == order),)
    else:
        row = (STIRLING2_TRIANGLE if kind is MomentKind.RAW else LAH_TRIANGLE).row(order)
    num, den = row[len(ratios)], 1
    for c, (r_num, r_den) in zip(reversed(row[: len(ratios)]), reversed(ratios)):
        num, den = c * r_den * den + r_num * num, r_den * den
    return num, den


def _factorial_powers(kind: MomentKind, order: int, top: int) -> list[int]:
    """The chosen factorial power of each k = 0..top, exact."""
    if kind is MomentKind.RAW:
        return [k**order for k in range(top + 1)]
    # (k)_r = perm(k, r) and k^(r) = (k + r - 1)_r; both are 1 at r = 0
    shift = max(order - 1, 0) if kind is MomentKind.RISING else 0
    return [math.perm(k + shift, order) for k in range(top + 1)]


def moment_direct(d: Distribution, kind: MomentKind, order: int) -> Fraction:
    """Expectation of the chosen power kind straight from a finite support's masses.

    One integer dot product with the mass table, reduced once; an infinite
    support raises DomainError. This is the brute-force side of every
    closed-form moment identity, so it deliberately avoids the closed forms.
    """
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    kind = MomentKind(kind)
    nums, den = d._mass_table
    return Fraction(sum(map(operator.mul, _factorial_powers(kind, order, len(nums) - 1), nums)), den)


def pgf_direct(d: Distribution, t: RationalLike) -> Fraction:
    """Expectation of (1/(1-t))**X summed directly over a finite support's masses.

    Cross-check companion to the closed-form `pgf` methods; an infinite
    support raises DomainError.
    """
    r, q = _pgf_argument(t)
    # integer Horner at u = r/q: sum_i nums_i r**i q**(n-i) / (den q**n)
    nums, den = d._mass_table
    acc, q_power = 0, 1
    for x in reversed(nums):
        acc = acc * r + x * q_power
        q_power *= q
    return Fraction(acc, den * q ** (len(nums) - 1))


def analyze_support(d: Distribution, horizon: int = 64) -> SupportAnalysis:
    """Report finiteness, cutoff, and mass sign pattern of a distribution.

    A degenerate Poisson is decided from lam alone, in constant time: its
    masses are the classical Binomial(m, alpha/(m + alpha)) ones at lam = 1/m
    and the classical Poisson ones at lam = 0, and any other lam is signed. A
    degenerate binomial is decided exactly from its mass table, and the
    nonnegativity verdict covers the whole support regardless of horizon.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if isinstance(d, DegeneratePoisson):
        if d.lam.numerator > 1:
            # masses carry the sign of (1)_{i,lam}; 1 - j*lam < 0 exactly for j > 1/lam
            return SupportAnalysis(False, None, False, (d.lam.denominator // d.lam.numerator + 2,))
        return SupportAnalysis(d.finite_support, d.support_cutoff, True, ())
    # the table's denominator is positive, so numerator signs are mass signs
    nums, _ = d._mass_table
    negatives = [i for i, x in enumerate(nums) if x < 0]
    shown = [i for i in negatives if i <= horizon] or negatives[:1]
    return SupportAnalysis(True, d.support_cutoff, not negatives, tuple(shown))
