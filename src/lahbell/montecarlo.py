"""Deterministic-seed sampling and statistical / exact identity verification.

Sampling is inverse-CDF lookup against an exact cumulative table (floated once
per distribution): the draw of a uniform u is
`np.searchsorted(table, u, side="right")`, which is all `draw_samples`, the
per-draw API, does. Streams are numpy generators keyed by (master_seed,
stream_index) through a splittable seed sequence, so identical keys reproduce
identical draws and distinct indices give independent substreams.

Estimates need only how often each value was drawn. `_sample_counts` counts
the same draws in fixed blocks of uniforms, never building a per-draw array:
it searches only the draws in guide buckets that hold a table entry, and folds
a histogram of every draw's bucket into per-value counts once per estimate.
The table and its guide are one cached entry per distribution
(`_cumulative_table`); only the counter reads the guide.

The moment reduction is exact: every draw is an integer k and every value
averaged (k**r, (k)_r, k^(r), or u**k for a rational u) is an exact rational,
so the sample mean and its standard error are exact sums over the draw
counts, each rounded once to a float.

`verify_identity` runs one named identity check and returns a structured
report: exact checks demand literal rational equality, statistical checks run
a z-test of a sample estimate against a closed-form target.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .distributions import (
    DegenerateBinomial,
    DegeneratePoisson,
    Distribution,
    MomentKind,
    _InfiniteSupport,
    _factorial_powers,
    _pgf_argument,
    analyze_support,
    moment,
    moment_direct,
    pgf_direct,
    poisson,
)
from .errors import DomainError, NormalizationError, SignedMassError, TailError, UnknownIdentityError
from .exact_core import (
    LAH_TRIANGLE,
    STIRLING1_TRIANGLE,
    STIRLING2_TRIANGLE,
    _float,
    as_rational,
    format_rational,
    lah_number_closed_form,
)
from .polynomials import (
    _lah_bell_series_numerators,
    degenerate_lah_bell_polynomial,
    degenerate_lah_bell_polynomial_via_bell,
    evaluate_degenerate,
    family_numerators,
    signed_transform,
    substitution_ratio,
)

TAIL_COVERAGE_GAP = 1e-12
_TABLE_BUDGET = 100_000
# a subnormal below 2**-1034 has at most 40 significant bits, fewer than a
# coverage gap of 1e-12 needs; exp(-alpha) falls below it past alpha ~ 716.7
_LEAST_START_MASS = 2.0**-1034
# the guide table splits [0, 1) into 2**_GUIDE_BITS buckets of equal width
_GUIDE_BITS = 12
# uniforms per block when draws are only counted; a block's uniforms and
# buckets (512 KB) stay in cache between the passes over it
_BLOCK = 1 << 15


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

    def fill(self, out: np.ndarray) -> None:
        """Overwrite `out` with the next len(out) uniforms; consecutive fills
        give the same uniforms as one `uniforms` call of their total size."""
        self._rng.random(out=out)


@dataclass(frozen=True)
class MomentEstimate:
    estimate: float
    standard_error: float
    sample_count: int
    moment_kind: MomentKind
    order: int


@lru_cache(maxsize=256)
def _cumulative_table(d: Distribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(table, ambiguous, slot): the float cumulative masses for inverse-CDF
    sampling, and their guide table. The one sampler cache per distribution.

    Each entry is one rounding of an exact value. Finite supports: the exact
    masses must sum to 1; entry i is their exact prefix sum. The classical
    Poisson: entry i is exp(-alpha) sum_{j<=i} a**j / j!, a = float(alpha),
    both floats taken exactly, so the cost does not grow with alpha's digits;
    it ends at the first entry that reaches 1 - TAIL_COVERAGE_GAP, the last
    bucket absorbing the tail. A start mass below 2**-1034 raises TailError.

    The guide splits [0, 1) into the buckets [j/B, (j+1)/B), B = 2**_GUIDE_BITS.
    A bucket with no table entry strictly inside it draws the same value for
    every u in it, the count of entries <= j/B, and that is slot[j];
    `ambiguous` marks the other buckets, whose slot is len(table), a count
    that is discarded.
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
            raise NormalizationError("finite mass table does not sum to 1 exactly")
        cumulative = [acc / den for acc in itertools.accumulate(nums)]
    else:
        target, alpha = 1.0 - TAIL_COVERAGE_GAP, _float(d.alpha)
        start = math.exp(-alpha)
        if start < _LEAST_START_MASS:
            raise TailError(f"start mass exp(-alpha) = {start!r} has too few significant bits for coverage {target}")
        # alpha = a/b, start = m/k: entry i is the int division acc / den of
        # m sum_{j<=i} a**j b**(i-j) i!/j! by k b**i i!; power is m a**i
        (a, b), (power, den) = alpha.as_integer_ratio(), start.as_integer_ratio()
        cumulative, acc = [], power
        for i in range(1, _TABLE_BUDGET + 1):
            cumulative.append(acc / den)
            if cumulative[-1] >= target:
                break
            power *= a
            acc, den = acc * b * i + power, den * b * i
        else:
            raise TailError(f"could not reach coverage {target} within {_TABLE_BUDGET} entries")
    cumulative[-1] = 1.0
    table = np.array(cumulative)
    edges = np.arange((1 << _GUIDE_BITS) + 1) / (1 << _GUIDE_BITS)
    slot = np.searchsorted(table, edges[:-1], side="right")
    ambiguous = slot != np.searchsorted(table, edges[1:], side="left")
    slot[ambiguous] = len(table)
    for array in (table, ambiguous, slot):
        array.setflags(write=False)
    return table, ambiguous, slot


def draw_samples(d: Distribution, count: int, stream: SamplerStream) -> np.ndarray:
    """Inverse-CDF draws `np.searchsorted(table, u, side="right")`, one per
    uniform u; consumes `count` uniforms from the stream."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return np.searchsorted(_cumulative_table(d)[0], stream.uniforms(count), side="right")


def sample(d: Distribution, stream: SamplerStream) -> int:
    """Draw one variate and advance the stream."""
    return int(draw_samples(d, 1, stream)[0])


def _sample_counts(d: Distribution, count: int, stream: SamplerStream) -> list[int]:
    """np.bincount(draw_samples(d, count, stream)).tolist(), without a per-draw array.

    The stream fills one reused buffer with blocks of at most _BLOCK
    uniforms. A block's draws in ambiguous buckets are searched and counted;
    every draw is also counted in a histogram of its bucket, which the guide's
    slots fold into per-value counts once, after the last block.
    """
    if count == 0:
        return []
    table, ambiguous, slot = _cumulative_table(d)
    u = np.empty(min(count, _BLOCK))
    buckets = np.empty(len(u), dtype=np.intp)
    counts = np.zeros(len(table) + 1, dtype=np.intp)
    histogram = np.zeros(1 << _GUIDE_BITS, dtype=np.intp)
    for done in range(0, count, _BLOCK):
        # the whole buffers, except for a shorter last block
        block, index = u[: count - done], buckets[: count - done]
        stream.fill(block)
        # scaling by a power of two is exact, so u lands in its true bucket
        np.multiply(block, 1 << _GUIDE_BITS, out=index, casting="unsafe")
        counts += np.bincount(np.searchsorted(table, block[ambiguous[index]], side="right"), minlength=len(counts))
        histogram += np.bincount(index, minlength=len(histogram))
    # ambiguous buckets land in the last count, len(table), which is discarded
    np.add.at(counts, slot, histogram)
    drawn = counts[:-1].nonzero()[0]
    return counts[: drawn[-1] + 1].tolist()


def z_score(estimate: float, standard_error: float, target: Union[Fraction, float]) -> float:
    """(estimate - target) / standard_error; with a zero standard error, 0
    when the estimate hits the target exactly and infinity otherwise.
    DomainError when the target has no float."""
    target = _float(target)
    if math.isinf(target):
        raise DomainError("target outside the float range")
    if standard_error == 0:
        return 0.0 if estimate == target else math.inf
    return (estimate - target) / standard_error


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 and den > 0, rounded once.

    The ratio is scaled by 4**-shift so that its integer square root r is at
    least 2**55: a double's 53 bits, a rounding bit and a sticky bit. The
    sticky bit is r's lowest, set when the root is inexact (round to odd),
    and the int division that makes the float is correctly rounded,
    subnormals included. OverflowError past the float range.
    """
    # num / den >= 2**(bit-length difference - 1), so the scaled ratio is >= 2**111
    shift = (num.bit_length() - den.bit_length()) // 2 - 56
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _exact_mean_and_error(counts: list[int], numerators: list[int], scale: int = 1, factor: int = 1) -> tuple[float, float]:
    """Sample mean and the standard error of that mean (ddof = 1) of the values
    v_k * factor / scale, v_k = numerators[k], value k drawn c_k = counts[k] times.

    With n = sum c_k and the integer sums s1 = sum c_k v_k, s2 = sum c_k v_k**2,
    the mean is s1 factor / (n scale) and the error sqrt((n s2 - s1**2)
    factor**2 / (n**2 (n - 1) scale**2)), each an exact rational rounded once;
    DomainError when one is past the float range.
    """
    n = sum(counts)
    weighted = list(map(operator.mul, counts, numerators))
    s1 = sum(weighted)
    s2 = sum(map(operator.mul, weighted, numerators))
    try:
        return s1 * factor / (n * scale), _sqrt_ratio((n * s2 - s1 * s1) * factor**2, n * n * (n - 1) * scale**2)
    except OverflowError:
        raise DomainError("sample mean or its standard error is outside the float range") from None


def _checked_kind(kind: Union[MomentKind, str], order: int, samples: int) -> MomentKind:
    """The argument check every moment estimate shares."""
    kind = MomentKind(kind)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    return kind


def _reduce(counts: list[int], kind: MomentKind, order: int) -> MomentEstimate:
    estimate, standard_error = _exact_mean_and_error(counts, _factorial_powers(kind, order, len(counts) - 1))
    return MomentEstimate(estimate, standard_error, sum(counts), kind, order)


def estimate_moment(
    d: Distribution,
    kind: Union[MomentKind, str],
    order: int,
    samples: int,
    stream: SamplerStream,
) -> MomentEstimate:
    """Sample mean and standard error of the chosen factorial power."""
    kind = _checked_kind(kind, order, samples)
    return _reduce(_sample_counts(d, samples, stream), kind, order)


def estimate_moment_partitioned(
    d: Distribution,
    kind: Union[MomentKind, str],
    order: int,
    samples: int,
    master_seed: int,
    workers: int,
) -> MomentEstimate:
    """Split the draws across worker substreams (stream_index = worker id).

    The workers' draw counts are added and reduced as `estimate_moment`
    reduces its single stream. The sums are exact, so the estimate depends
    only on the master seed and the worker count, in any worker order, and
    one worker gives exactly `estimate_moment`'s result on stream 0. Workers
    past the sample count would draw nothing, so the loop stops at
    min(workers, samples).
    """
    kind = _checked_kind(kind, order, samples)
    if workers < 1:
        raise ValueError("workers must be positive")
    base, remainder = divmod(samples, workers)
    chunks = [
        _sample_counts(d, base + (worker < remainder), SamplerStream(master_seed, worker))
        for worker in range(min(workers, samples))
    ]
    return _reduce([sum(column) for column in itertools.zip_longest(*chunks, fillvalue=0)], kind, order)


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

    _CSV_FIELDS = ("identity", "mode", "status", "lhs", "rhs", "discrepancy", "seed", "samples")
    CSV_HEADER = ",".join(_CSV_FIELDS + ("params",))

    def to_dict(self) -> dict:
        """Fields in declaration order, `params` copied; `seed` and `samples` only when set."""
        data = {key: value for key, value in vars(self).items() if value is not None}
        return {**data, "params": dict(self.params)}

    def to_json(self) -> str:
        """`to_dict` as one compact JSON line, written in one pass: every string
        quoted as `json.dumps` quotes it, `seed` and `samples` only when set."""
        params = ",".join(f"{_quote(key)}:{_quote(value)}" for key, value in self.params.items())
        seed = "" if self.seed is None else f',"seed":{self.seed:d}'
        samples = "" if self.samples is None else f',"samples":{self.samples:d}'
        return (
            f'{{"identity":{_quote(self.identity)},"params":{{{params}}},"mode":{_quote(self.mode)},'
            f'"lhs":{_quote(self.lhs)},"rhs":{_quote(self.rhs)},"discrepancy":{_quote(self.discrepancy)},'
            f'"status":{_quote(self.status)}{seed}{samples}}}'
        )

    def to_csv(self) -> str:
        """The row under CSV_HEADER: "" for an unset field, then the params as k=v;..."""
        data = self.to_dict()
        cells = [str(data.get(field, "")) for field in self._CSV_FIELDS]
        return ",".join(cells + [";".join(f"{k}={v}" for k, v in self.params.items())])


def _serialize_params(params: Mapping[str, object]) -> dict[str, str]:
    """Each value by `str`: a Fraction as its canonical "a/b" (`format_rational`),
    a size or the float z threshold as usual; DomainError for a part too long to print."""
    try:
        return {key: str(value) for key, value in params.items()}
    except ValueError as exc:
        raise DomainError(f"result too large to print: {exc}") from exc


def _exact_report(identity: str, params: Mapping[str, object], lhs: Fraction | int, rhs: Fraction | int) -> VerificationReport:
    equal = lhs == rhs
    lhs_text = format_rational(lhs)
    return VerificationReport(
        identity=identity,
        params=_serialize_params(params),
        mode="EXACT",
        lhs=lhs_text,
        # equal rationals have the same canonical text
        rhs=lhs_text if equal else format_rational(rhs),
        discrepancy="0" if equal else repr(_float(abs(lhs - rhs))),
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


def _z_bound(value: object) -> float:
    """`z_threshold` as a float; it must be a non-bool int or float >= 0, inf included."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0:
        return _float(value)
    raise DomainError(f"z_threshold must be a nonnegative number, got {value!r}")


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
    needs a non-bool int `samples` >= 2. `z_threshold` must be a non-bool
    int or float >= 0 (inf allowed, NaN refused). `poisson-pgf` and
    `dpoisson-pgf` raise DomainError unless |t| < 1, on any support.
    DomainError also comes from `poisson-pgf`'s float target, and from any
    statistical check's rounded estimate, standard error or target, past the
    float range. The report serializes the typed values, so "2/4" is reported as
    "1/2". An exact check on a degenerate Poisson with an infinite support,
    which has no exact mass table, is reported as SKIPPED; a statistical check
    whose mass table does not sum to 1 cannot sample and is reported as FAIL.
    """
    if tag not in _REGISTRY:
        raise UnknownIdentityError(tag)
    mode, keys, check = _REGISTRY[tag]
    params = _typed_params(tag, keys, params)
    z_threshold = _z_bound(z_threshold)
    if mode == "STATISTICAL":
        if not _is_count(samples, 2):
            raise DomainError(f"samples must be an int >= 2, got {samples!r}")
        if stream is None:
            stream = SamplerStream(0, 0)
        try:
            estimate, standard_error, target = check(**params, samples=samples, stream=stream)
        except NormalizationError:
            params = _serialize_params({**params, "z_threshold": z_threshold})
            return VerificationReport(tag, params, mode, "", "", "inf", "FAIL", stream.master_seed, samples)
        return _z_report(tag, params, estimate, standard_error, target, z_threshold, stream, samples)
    try:
        lhs, rhs = check(**params)
    except _InfiniteSupport:
        return VerificationReport(tag, _serialize_params(params), "EXACT", "", "", "0", "SKIPPED")
    return _exact_report(tag, params, lhs, rhs)


@_identity("stirling-inversion", "n_max")
def _check_stirling_inversion(n_max):
    rows = range(n_max + 1)
    s1 = [STIRLING1_TRIANGLE.row(n) for n in rows]
    s2 = [STIRLING2_TRIANGLE.row(n) for n in rows]

    def product(a, b):
        # entry (n, m) of A*B for n >= m; both factors are lower triangular, so
        # only m <= k <= n contributes and the entries above the diagonal are 0
        columns = [[b[k][m] for k in range(m, n_max + 1)] for m in rows]
        return [sum(map(operator.mul, a[n][m:], columns[m])) for n in rows for m in range(n + 1)]

    identity = [int(n == m) for n in rows for m in range(n + 1)]
    s1_s2 = product(s1, s2)
    if s1_s2 == identity:
        # for square matrices S1*S2 = I implies S2*S1 = I
        return Fraction(0), 0
    return _worst_gap(s1_s2 + product(s2, s1), identity * 2), 0


def _worst_gap(lhs: list[int], rhs: list[int], denominator: int = 1) -> Fraction:
    """max_n |lhs[n] - rhs[n]| / denominator, reduced once."""
    return Fraction(max(abs(a - b) for a, b in zip(lhs, rhs)), denominator)


@_identity("stirling1-row-sums", "n_max")
def _check_stirling1_row_sums(n_max):
    row_sums = [sum(map(abs, STIRLING1_TRIANGLE.row(n))) for n in range(n_max + 1)]
    return _worst_gap(row_sums, [math.factorial(n) for n in range(n_max + 1)]), 0


@_identity("lah-closed-form", "n_max")
def _check_lah_closed_form(n_max):
    rows = range(n_max + 1)
    cached = [value for n in rows for value in LAH_TRIANGLE.row(n)]
    return _worst_gap(cached, [lah_number_closed_form(n, k) for n in rows for k in range(n + 1)]), 0


@_identity("lahbell-series", "x", "n_max")
def _check_lahbell_series(x, n_max):
    lah, denominator = family_numerators(LAH_TRIANGLE, n_max, 0, x.numerator, x.denominator)
    series, scale = _lah_bell_series_numerators(x, n_max)
    # at lam = 0 the oracle's scale is x.denominator, so each D / scale**n is a running quotient
    quotients = itertools.accumulate(itertools.repeat(scale, n_max), operator.floordiv, initial=denominator)
    return _worst_gap(list(map(operator.mul, series, quotients)), lah, denominator), 0


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
_register_family_checks("dpoisson", ("alpha", "lam"), DegeneratePoisson)


@_identity("dpoisson-rising-moment", "alpha", "lam", "order")
def _check_dpoisson_rising_moment(alpha, lam, order):
    lhs = moment_direct(DegeneratePoisson(alpha, lam), MomentKind.RISING, order)
    return lhs, evaluate_degenerate(degenerate_lah_bell_polynomial(order, lam), alpha, lam)


@_identity("dpoisson-rising-expansion", "alpha", "lam", "order")
def _check_dpoisson_rising_expansion(alpha, lam, order):
    lhs = moment_direct(DegeneratePoisson(alpha, lam), MomentKind.RISING, order)
    return lhs, evaluate_degenerate(degenerate_lah_bell_polynomial_via_bell(order, lam), alpha, lam)


@_identity("dpoisson-pgf", "alpha", "lam", "t")
def _check_dpoisson_pgf(alpha, lam, t):
    d = DegeneratePoisson(alpha, lam)
    # the direct sum first: an infinite support has no mass table and SKIPs
    # before the closed form computes a float
    rhs = pgf_direct(d, t)
    return d.pgf(t), rhs


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
    p, q = _pgf_argument(t)
    d = poisson(alpha)
    target = d.pgf(t)  # the closed form exp(alpha (u - 1)), computed before any draw
    counts = _sample_counts(d, samples, stream)
    # u**k = p**(k - low) q**(top - k) p**low / q**top for u = p/q, only for drawn k in low..top
    top = len(counts) - 1
    low = next(k for k, c in enumerate(counts) if c)
    numerators = [p ** (k - low) * q ** (top - k) if c else 0 for k, c in enumerate(counts[low:], low)]
    estimate, standard_error = _exact_mean_and_error(counts[low:], numerators, q**top, p**low)
    return estimate, standard_error, target


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
