"""Deterministic-seed sampling and statistical / exact identity verification.

Sampling is inverse-CDF lookup against an exact cumulative table (floated once
per distribution). Streams are numpy generators keyed by (master_seed,
stream_index) through a splittable seed sequence, so identical keys reproduce
identical draws and distinct indices give independent substreams.

`verify_identity` runs one named identity check and returns a structured
report: exact checks demand literal rational equality, statistical checks run
a z-test of a sample estimate against a closed-form target.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .distributions import (
    DegenerateBinomial,
    DegeneratePoisson,
    Distribution,
    MomentKind,
    _pgf_argument,
    analyze_support,
    moment,
    moment_direct,
    pgf_direct,
    poisson,
)
from .errors import DomainError, SignedMassError, TailError, UnknownIdentityError
from .exact_core import (
    LAH_TRIANGLE,
    STIRLING1_TRIANGLE,
    STIRLING2_TRIANGLE,
    RationalLike,
    as_rational,
    format_rational,
    lah_number_closed_form,
)
from .polynomials import (
    degenerate_lah_bell_polynomial,
    degenerate_lah_bell_polynomial_via_bell,
    evaluate_degenerate,
    family_numerators,
    lah_bell_series_coefficients,
    signed_transform,
    substitution_ratio,
)

TAIL_COVERAGE_GAP = 1e-12
_TABLE_BUDGET = 100_000


def _check_seed(master_seed: int) -> None:
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in 64 unsigned bits")


class SamplerStream:
    """Deterministic uniform stream.

    (master_seed, stream_index) fully determine the sequence; substreams come
    from numpy's SeedSequence spawn keys, a splittable construction, so
    distinct indices are statistically independent.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        _check_seed(master_seed)
        if stream_index < 0:
            raise ValueError("stream_index must be nonnegative")
        self.master_seed = master_seed
        self.stream_index = stream_index
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,))
        self._rng = np.random.default_rng(seq)

    def uniforms(self, count: int) -> np.ndarray:
        return self._rng.random(count)


@dataclass(frozen=True)
class MomentEstimate:
    estimate: float
    standard_error: float
    sample_count: int
    moment_kind: MomentKind
    order: int


@lru_cache(maxsize=256)
def _cumulative_table(d: Distribution) -> np.ndarray:
    """Float cumulative masses for inverse-CDF sampling.

    Finite supports: the exact masses must sum to 1 before any float is
    produced; each entry is an integer prefix sum of the mass table's
    numerators over its denominator, rounded once. Infinite supports
    (classical Poisson) are truncated once coverage reaches
    1 - TAIL_COVERAGE_GAP and the last bucket is renormalized to absorb the
    tail.
    """
    analysis = analyze_support(d)
    if not analysis.all_nonnegative:
        first = analysis.negative_indices[0]
        raise SignedMassError(
            f"mass at index {first} is negative; sampling a signed measure is refused"
        )
    if analysis.finite:
        nums, den = d._mass_table
        if sum(nums) != den:
            raise ArithmeticError("finite mass table does not sum to 1 exactly")
        cumulative = [acc / den for acc in itertools.accumulate(nums)]
    else:
        target = 1.0 - TAIL_COVERAGE_GAP
        cumulative = []
        acc = 0.0
        stream = d._float_mass_stream()
        for _ in range(_TABLE_BUDGET):
            acc += next(stream)
            cumulative.append(acc)
            if acc >= target:
                break
        else:
            raise TailError(f"could not reach coverage {target} within {_TABLE_BUDGET} entries")
    cumulative[-1] = 1.0
    table = np.array(cumulative)
    table.setflags(write=False)
    return table


def draw_samples(d: Distribution, count: int, stream: SamplerStream) -> np.ndarray:
    """Vectorized inverse-CDF draws; consumes `count` uniforms from the stream."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    table = _cumulative_table(d)
    u = stream.uniforms(count)
    return np.searchsorted(table, u, side="right").astype(np.int64)


def sample(d: Distribution, stream: SamplerStream) -> int:
    """Draw one variate and advance the stream."""
    return int(draw_samples(d, 1, stream)[0])


def z_score(estimate: float, standard_error: float, target: Union[Fraction, float]) -> float:
    """(estimate - target) / standard_error; with a zero standard error, 0
    when the estimate hits the target exactly and infinity otherwise."""
    target = float(target)
    if standard_error == 0:
        return 0.0 if estimate == target else math.inf
    return (estimate - target) / standard_error


def _moment_values(draws: np.ndarray, kind: MomentKind, order: int) -> np.ndarray:
    x = draws.astype(np.float64)
    if order == 0:
        return np.ones_like(x)
    if kind is MomentKind.RAW:
        return x**order
    step = -1.0 if kind is MomentKind.FALLING else 1.0
    out = x.copy()
    for j in range(1, order):
        out *= x + step * j
    return out


def _mean_and_standard_error(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and the standard error of that mean (ddof = 1)."""
    return float(np.mean(values)), float(np.std(values, ddof=1)) / math.sqrt(len(values))


def estimate_moment(
    d: Distribution,
    kind: Union[MomentKind, str],
    order: int,
    samples: int,
    stream: SamplerStream,
) -> MomentEstimate:
    """Sample mean and standard error of the chosen factorial power."""
    kind = MomentKind(kind)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    values = _moment_values(draw_samples(d, samples, stream), kind, order)
    estimate, standard_error = _mean_and_standard_error(values)
    return MomentEstimate(estimate, standard_error, samples, kind, order)


def estimate_moment_partitioned(
    d: Distribution,
    kind: Union[MomentKind, str],
    order: int,
    samples: int,
    master_seed: int,
    workers: int,
) -> MomentEstimate:
    """Split estimation across worker substreams (stream_index = worker id).

    Per-worker results are merged by Chan's parallel mean/M2 combination in
    ascending worker order, so the merged estimate depends only on the master
    seed and the worker count, never on scheduling. Workers past the sample
    count would draw nothing, so the loop stops at min(workers, samples).
    """
    kind = MomentKind(kind)
    if workers < 1:
        raise ValueError("workers must be positive")
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    base, remainder = divmod(samples, workers)
    merged_n = 0
    merged_mean = 0.0
    merged_m2 = 0.0
    for worker in range(min(workers, samples)):
        chunk = base + (1 if worker < remainder else 0)
        values = _moment_values(
            draw_samples(d, chunk, SamplerStream(master_seed, worker)), kind, order
        )
        chunk_mean = float(np.mean(values))
        chunk_m2 = float(np.sum((values - chunk_mean) ** 2))
        delta = chunk_mean - merged_mean
        total = merged_n + chunk
        merged_mean += delta * chunk / total
        merged_m2 += chunk_m2 + delta * delta * merged_n * chunk / total
        merged_n = total
    se = math.sqrt(merged_m2 / (merged_n - 1) / merged_n)
    return MomentEstimate(merged_mean, se, merged_n, kind, order)


@dataclass
class VerificationReport:
    """Structured outcome of one identity check.

    EXACT mode passes only on literal rational equality of lhs and rhs;
    STATISTICAL mode passes when |z| stays within the threshold recorded in
    the params map. Rationals are serialized canonically as "a/b".
    """

    identity: str
    params: dict[str, str]
    mode: str
    lhs: str
    rhs: str
    discrepancy: str
    status: str
    seed: Optional[int] = None
    samples: Optional[int] = None

    def to_dict(self) -> dict:
        """Fields in declaration order, `params` copied; `seed` and `samples` only when set."""
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["params"] = dict(self.params)
        return {key: value for key, value in data.items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _serialize_params(params: Mapping[str, object]) -> dict[str, str]:
    """Fractions as canonical "a/b"; sizes and the float z threshold by `str`."""
    return {key: format_rational(value) if isinstance(value, Fraction) else str(value) for key, value in params.items()}


def _exact_report(identity: str, params: Mapping[str, object], lhs: RationalLike, rhs: RationalLike) -> VerificationReport:
    lhs = as_rational(lhs)
    rhs = as_rational(rhs)
    equal = lhs == rhs
    return VerificationReport(
        identity=identity,
        params=_serialize_params(params),
        mode="EXACT",
        lhs=format_rational(lhs),
        rhs=format_rational(rhs),
        discrepancy="0" if equal else repr(float(abs(lhs - rhs))),
        status="PASS" if equal else "FAIL",
    )


def _z_report(
    identity: str,
    params: Mapping[str, object],
    estimate: float,
    standard_error: float,
    target: Union[Fraction, float],
    z_threshold: float,
    stream: SamplerStream,
    samples: int,
) -> VerificationReport:
    z = z_score(estimate, standard_error, target)
    rhs = format_rational(target) if isinstance(target, Fraction) else repr(float(target))
    return VerificationReport(
        identity=identity,
        params=_serialize_params({**params, "z_threshold": z_threshold}),
        mode="STATISTICAL",
        lhs=repr(float(estimate)),
        rhs=rhs,
        discrepancy=repr(abs(z)),
        status="PASS" if abs(z) <= z_threshold else "FAIL",
        seed=stream.master_seed,
        samples=samples,
    )


class _InfiniteSupport(Exception):
    """An exact check that sums over a finite support met an infinite one."""


_REGISTRY: dict[str, tuple[str, frozenset[str], Callable]] = {}

# size params are plain ints >= 0; every other param is a rational
_SIZES = {"n", "n_max", "order"}


def _identity(tag: str, *keys: str, mode: str = "EXACT"):
    """Register a check as tag -> (mode, keys, check).

    Checks take the typed params as keyword arguments. EXACT checks return
    (lhs, rhs); STATISTICAL checks also take `samples` and `stream` and
    return (estimate, standard_error, target).
    """

    def wrap(func: Callable) -> Callable:
        _REGISTRY[tag] = (mode, frozenset(keys), func)
        return func

    return wrap


def _is_count(value: object, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _typed_params(tag: str, keys: frozenset[str], params: Mapping[str, object]) -> dict[str, object]:
    """The params in the caller's order, sizes checked and the rest as Fractions."""
    if set(params) != keys:
        raise DomainError(f"{tag} takes params {sorted(keys)}, got {list(params)}")
    typed = {}
    for key, value in params.items():
        if key in _SIZES:
            if not _is_count(value, 0):
                raise DomainError(f"{key} must be a nonnegative int, got {value!r}")
            typed[key] = value
        else:
            try:
                typed[key] = as_rational(value)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"{key} must be a rational, got {value!r}: {exc}") from exc
    return typed


def registered_identities() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def verify_identity(
    tag: str,
    params: Mapping[str, object],
    samples: int = 100_000,
    z_threshold: float = 5.0,
    stream: Optional[SamplerStream] = None,
) -> VerificationReport:
    """Run one registered identity check and return its report.

    `params` must hold exactly the tag's keys, or DomainError is raised
    before any check runs. The sizes `n`, `n_max` and `order` must be
    non-bool ints >= 0; every other value goes through `as_rational`
    (Fraction, int or "a/b" string; floats are refused). A statistical check
    needs a non-bool int `samples` >= 2. `poisson-pgf`, like `dpoisson-pgf`
    on a finite support, raises DomainError unless |t| < 1. The report
    serializes the typed values, so "2/4" is reported as "1/2". An exact
    check that raises _InfiniteSupport is reported as SKIPPED.
    """
    if tag not in _REGISTRY:
        raise UnknownIdentityError(tag)
    mode, keys, check = _REGISTRY[tag]
    params = _typed_params(tag, keys, params)
    if mode == "STATISTICAL":
        if not _is_count(samples, 2):
            raise DomainError(f"samples must be an int >= 2, got {samples!r}")
        if stream is None:
            stream = SamplerStream(0, 0)
        estimate, standard_error, target = check(**params, samples=samples, stream=stream)
        return _z_report(tag, params, estimate, standard_error, target, float(z_threshold), stream, samples)
    try:
        lhs, rhs = check(**params)
    except _InfiniteSupport:
        return VerificationReport(tag, _serialize_params(params), "EXACT", "", "", "0", "SKIPPED")
    return _exact_report(tag, params, lhs, rhs)


@_identity("stirling-inversion", "n_max")
def _check_stirling_inversion(n_max):
    s1_rows = [STIRLING1_TRIANGLE.row(n) for n in range(n_max + 1)]
    s2_rows = [STIRLING2_TRIANGLE.row(n) for n in range(n_max + 1)]
    worst = 0
    for n in range(n_max + 1):
        # row n of S1*S2 and of S2*S1; entries past column n are 0 on both sides
        first = [0] * (n + 1)
        second = [0] * (n + 1)
        for k, (s1, s2) in enumerate(zip(s1_rows[n], s2_rows[n])):
            for m, value in enumerate(s2_rows[k]):
                first[m] += s1 * value
            for m, value in enumerate(s1_rows[k]):
                second[m] += s2 * value
        for m in range(n + 1):
            delta = 1 if n == m else 0
            worst = max(worst, abs(first[m] - delta), abs(second[m] - delta))
    return worst, 0


@_identity("stirling1-row-sums", "n_max")
def _check_stirling1_row_sums(n_max):
    worst = 0
    for n in range(n_max + 1):
        row_sum = sum(abs(s1) for s1 in STIRLING1_TRIANGLE.row(n))
        worst = max(worst, abs(row_sum - math.factorial(n)))
    return worst, 0


@_identity("lah-closed-form", "n_max")
def _check_lah_closed_form(n_max):
    worst = 0
    for n in range(n_max + 1):
        for k, value in enumerate(LAH_TRIANGLE.row(n)):
            worst = max(worst, abs(value - lah_number_closed_form(n, k)))
    return worst, 0


def _worst_gap(lhs: list[int], rhs: list[int], denominator: int) -> Fraction:
    """max_n |lhs[n] - rhs[n]| / denominator, reduced once."""
    return Fraction(max(abs(a - b) for a, b in zip(lhs, rhs)), denominator)


@_identity("lahbell-series", "x", "n_max")
def _check_lahbell_series(x, n_max):
    lah, denominator = family_numerators(LAH_TRIANGLE, n_max, 0, x.numerator, x.denominator)
    # the oracle's denominators are powers of x.denominator, so they divide D
    series = [v.numerator * (denominator // v.denominator) for v in lah_bell_series_coefficients(x, n_max)]
    return _worst_gap(series, lah, denominator), 0


@_identity("lah-basis-transform", "alpha", "n_max")
def _check_lah_basis_transform(alpha, n_max):
    bell, denominator = family_numerators(STIRLING2_TRIANGLE, n_max, 0, alpha.numerator, alpha.denominator)
    lah, _ = family_numerators(LAH_TRIANGLE, n_max, 0, alpha.numerator, alpha.denominator)
    transformed = signed_transform(STIRLING1_TRIANGLE, bell, range(n_max + 1))
    return _worst_gap(transformed, lah, denominator), 0


@_identity("dlahbell-constructions", "lam", "n_max")
def _check_dlahbell_constructions(lam, n_max):
    worst = Fraction(0)
    for n in range(n_max + 1):
        direct = degenerate_lah_bell_polynomial(n, lam)
        assembled = degenerate_lah_bell_polynomial_via_bell(n, lam)
        if direct != assembled:
            pairs = itertools.zip_longest(direct.coefficients, assembled.coefficients, fillvalue=Fraction(0))
            worst = max(worst, *(abs(a - b) for a, b in pairs))
    return worst, 0


@_identity("transform-roundtrip", "lam", "x", "n_max")
def _check_transform_roundtrip(lam, x, n_max):
    bell, denominator = family_numerators(STIRLING2_TRIANGLE, n_max, lam, *substitution_ratio(x, lam))
    rows = range(n_max + 1)
    recovered = signed_transform(STIRLING2_TRIANGLE, signed_transform(STIRLING1_TRIANGLE, bell, rows), rows)
    return _worst_gap(recovered, bell, denominator), 0


def _finite_dpoisson(alpha: Fraction, lam: Fraction) -> DegeneratePoisson:
    """Exact dpoisson checks sum over a finite support; an infinite one raises
    _InfiniteSupport, which `verify_identity` reports as SKIPPED."""
    d = DegeneratePoisson(alpha, lam)
    if not d.finite_support:
        raise _InfiniteSupport
    return d


def _register_family_checks(family: str, keys: tuple[str, ...], build: Callable[..., Distribution]) -> None:
    """{family}-{normalization,mean,variance}: the direct raw moment of order
    0 (the mass sum) is 1, and the closed-form mean and variance equal the
    direct sums over the masses."""

    @_identity(f"{family}-normalization", *keys)
    def normalization(**params):
        return moment_direct(build(**params), MomentKind.RAW, 0), 1

    @_identity(f"{family}-mean", *keys)
    def mean(**params):
        d = build(**params)
        return d.mean(), moment_direct(d, MomentKind.RAW, 1)

    @_identity(f"{family}-variance", *keys)
    def variance(**params):
        d = build(**params)
        brute = moment_direct(d, MomentKind.RAW, 2) - moment_direct(d, MomentKind.RAW, 1) ** 2
        return d.variance(), brute


_register_family_checks("dbinomial", ("n", "p", "lam"), DegenerateBinomial)
_register_family_checks("dpoisson", ("alpha", "lam"), _finite_dpoisson)


@_identity("dpoisson-rising-moment", "alpha", "lam", "order")
def _check_dpoisson_rising_moment(alpha, lam, order):
    d = _finite_dpoisson(alpha, lam)
    lhs = moment_direct(d, MomentKind.RISING, order)
    rhs = evaluate_degenerate(degenerate_lah_bell_polynomial(order, lam), alpha, lam)
    return lhs, rhs


@_identity("dpoisson-rising-expansion", "alpha", "lam", "order")
def _check_dpoisson_rising_expansion(alpha, lam, order):
    d = _finite_dpoisson(alpha, lam)
    lhs = moment_direct(d, MomentKind.RISING, order)
    rhs = evaluate_degenerate(degenerate_lah_bell_polynomial_via_bell(order, lam), alpha, lam)
    return lhs, rhs


@_identity("dpoisson-pgf", "alpha", "lam", "t")
def _check_dpoisson_pgf(alpha, lam, t):
    d = _finite_dpoisson(alpha, lam)
    return d.pgf(t), pgf_direct(d, t)


def _register_poisson_moment_check(kind: MomentKind) -> None:
    """poisson-{raw,falling,rising}-moment: sample estimate against the exact `moment`."""

    @_identity(f"poisson-{kind.value}-moment", "alpha", "order", mode="STATISTICAL")
    def check(alpha, order, samples, stream):
        d = poisson(alpha)
        est = estimate_moment(d, kind, order, samples, stream)
        return est.estimate, est.standard_error, moment(d, kind, order)


for _kind in MomentKind:
    _register_poisson_moment_check(_kind)


@_identity("poisson-pgf", "alpha", "t", mode="STATISTICAL")
def _check_poisson_pgf(alpha, t, samples, stream):
    u = float(_pgf_argument(t))
    values = u ** draw_samples(poisson(alpha), samples, stream).astype(np.float64)
    estimate, standard_error = _mean_and_standard_error(values)
    return estimate, standard_error, math.exp(float(alpha) * (u - 1.0))


@_identity("dpoisson-sample-mean", "alpha", "lam", mode="STATISTICAL")
def _check_dpoisson_sample_mean(alpha, lam, samples, stream):
    d = DegeneratePoisson(alpha, lam)
    est = estimate_moment(d, MomentKind.RAW, 1, samples, stream)
    return est.estimate, est.standard_error, d.mean()


SUITES = ("stirling", "lahbell", "dbinomial", "dpoisson", "pgf")


def random_lambda(rng: random.Random) -> Fraction:
    """Random rational strictly inside (0, 1), with denominator 3 to 16."""
    denominator = rng.randint(3, 16)
    return Fraction(rng.randint(1, denominator - 1), denominator)


def random_degenerate_binomial(rng: random.Random, max_n: int = 30) -> DegenerateBinomial:
    """Random valid instance; vanishing-normalizer draws are rejected.

    Large lam values are deliberately frequent so signed-mass regimes occur.
    """
    while True:
        n = rng.randint(0, max_n)
        p_den = rng.randint(1, 16)
        p = Fraction(rng.randint(0, p_den), p_den)
        lam_den = rng.randint(2, 16)
        lam = Fraction(rng.randint(0, lam_den - 1), lam_den)
        try:
            return DegenerateBinomial(n, p, lam)
        except DomainError:
            continue


_FIXED_BINOMIAL_TRIPLES = (
    (2, Fraction(1, 2), Fraction(1, 4)),
    (3, Fraction(1, 10), Fraction(2, 5)),
    (5, Fraction(1, 3), Fraction(0)),
)

_DPOISSON_PAIRS = (
    (Fraction(1), Fraction(1, 2)),
    (Fraction(1), Fraction(1, 3)),
    (Fraction(3), Fraction(1, 5)),
    (Fraction(7, 2), Fraction(1, 10)),
)


def suite_instances(suite: str, *, n_max: int = 12, seed: int = 0) -> list[tuple[str, dict]]:
    """Expand a named suite into (tag, params) instances, deterministically in `seed`."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    rng = random.Random(seed)
    instances: list[tuple[str, dict]] = []
    if suite in ("stirling", "all"):
        instances.append(("stirling-inversion", {"n_max": n_max}))
        instances.append(("stirling1-row-sums", {"n_max": n_max}))
        instances.append(("lah-closed-form", {"n_max": n_max}))
    if suite in ("lahbell", "all"):
        for x in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)):
            instances.append(("lahbell-series", {"x": x, "n_max": n_max}))
        for alpha in (Fraction(1), Fraction(2), Fraction(3, 2)):
            instances.append(("lah-basis-transform", {"alpha": alpha, "n_max": n_max}))
        for _ in range(5):
            instances.append(("dlahbell-constructions", {"lam": random_lambda(rng), "n_max": n_max}))
        for _ in range(2):
            instances.append(
                ("transform-roundtrip", {"lam": random_lambda(rng), "x": Fraction(rng.randint(1, 5)), "n_max": n_max})
            )
    if suite in ("dbinomial", "all"):
        triples = list(_FIXED_BINOMIAL_TRIPLES)
        for _ in range(7):
            d = random_degenerate_binomial(rng)
            triples.append((d.n, d.p, d.lam))
        for n, p, lam in triples:
            common = {"n": n, "p": p, "lam": lam}
            instances.append(("dbinomial-normalization", dict(common)))
            instances.append(("dbinomial-mean", dict(common)))
            instances.append(("dbinomial-variance", dict(common)))
    if suite in ("dpoisson", "all"):
        for alpha, lam in _DPOISSON_PAIRS:
            common = {"alpha": alpha, "lam": lam}
            instances.append(("dpoisson-normalization", dict(common)))
            instances.append(("dpoisson-mean", dict(common)))
            instances.append(("dpoisson-variance", dict(common)))
            for order in (3, 6):
                instances.append(("dpoisson-rising-moment", {**common, "order": order}))
                instances.append(("dpoisson-rising-expansion", {**common, "order": order}))
        instances.append(("poisson-falling-moment", {"alpha": Fraction(2), "order": 2}))
        instances.append(("poisson-rising-moment", {"alpha": Fraction(2), "order": 3}))
        instances.append(("poisson-raw-moment", {"alpha": Fraction(2), "order": 3}))
        instances.append(("dpoisson-sample-mean", {"alpha": Fraction(1), "lam": Fraction(1, 2)}))
    if suite in ("pgf", "all"):
        for t in (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)):
            instances.append(("dpoisson-pgf", {"alpha": Fraction(1), "lam": Fraction(1, 2), "t": t}))
        instances.append(("poisson-pgf", {"alpha": Fraction(1), "t": Fraction(1, 2)}))
    return instances


def run_suite(
    suite: str,
    *,
    n_max: int = 12,
    seed: int = 0,
    trials: int = 100_000,
    z_threshold: float = 5.0,
) -> list[VerificationReport]:
    """Run every instance of a suite. Only statistical checks get a stream, with
    substream index = instance position, so output is deterministic in the seed."""
    _check_seed(seed)
    reports = []
    for index, (tag, params) in enumerate(suite_instances(suite, n_max=n_max, seed=seed)):
        stream = SamplerStream(seed, index) if _REGISTRY[tag][0] == "STATISTICAL" else None
        reports.append(verify_identity(tag, params, samples=trials, z_threshold=z_threshold, stream=stream))
    return reports
