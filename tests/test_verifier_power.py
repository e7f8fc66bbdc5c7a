"""Verifier power: break one production path at a time and ask whether
`verify all` notices.

Each fault monkeypatches one path by its module-level or class name, runs
`run_suite("all", seed=0, trials=2000)` in-process and expects at least one
FAIL, of the tag `CAUGHT_BY` names for it if any. Faults that `verify all`
misses today are strict xfails: the day a
check catches one, its marker fails and must go, with the item that closed
it.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import numpy as np
import pytest

from lahbell import cli, distributions, montecarlo
from lahbell.distributions import DegenerateBinomial, DegeneratePoisson
from lahbell.exact_core import LAH_TRIANGLE


@pytest.fixture(autouse=True)
def fresh_sampler_tables():
    # a faulty mass table would otherwise stay cached for the suite's distributions
    montecarlo._cumulative_table.cache_clear()
    yield
    montecarlo._cumulative_table.cache_clear()


def failures():
    return [r.identity for r in montecarlo.run_suite("all", seed=0, trials=2000) if r.status == "FAIL"]


def lah_row_entry(monkeypatch):
    row = LAH_TRIANGLE.row

    def faulty(n):
        entries = row(n)
        return entries[:2] + (entries[2] + 1,) + entries[3:] if n == 5 else entries

    monkeypatch.setattr(LAH_TRIANGLE, "row", faulty)


def series_numerators(monkeypatch):
    series = montecarlo._lah_bell_series_numerators

    def faulty(x, order, lam=0):
        numerators, scale = series(x, order, lam)
        return numerators[:-1] + [numerators[-1] + 1], scale

    monkeypatch.setattr(montecarlo, "_lah_bell_series_numerators", faulty)


def signed_transform(monkeypatch):
    transform = montecarlo.signed_transform

    def faulty(triangle, numerators, rows):
        values = transform(triangle, numerators, rows)
        return values[:-1] + [values[-1] + 1]

    monkeypatch.setattr(montecarlo, "signed_transform", faulty)


def binomial_mass_numerators(monkeypatch):
    masses = distributions._binomial_mass_numerators

    def faulty(*parts):
        # one unit of mass moved from index 1 to index 0, so the total stays 1
        nums, den = masses(*parts)
        return (nums[0] + 1, nums[1] - 1) + nums[2:], den

    monkeypatch.setattr(distributions, "_binomial_mass_numerators", faulty)


def unnormalized_mass_table(monkeypatch):
    masses = distributions._binomial_mass_numerators

    def faulty(*parts):
        # one unit of mass added at index 0: the table no longer sums to 1
        nums, den = masses(*parts)
        return (nums[0] + 1,) + nums[1:], den

    monkeypatch.setattr(distributions, "_binomial_mass_numerators", faulty)


def cumulative_table_shift(monkeypatch):
    table = montecarlo._cumulative_table

    def faulty(d):
        # a leading entry 0.0 that no uniform lies below: every draw k becomes k + 1
        cumulative, ambiguous, slot = table(d)
        return np.concatenate(([0.0], cumulative)), ambiguous, slot + 1

    monkeypatch.setattr(montecarlo, "_cumulative_table", faulty)


def z_score(monkeypatch):
    score = montecarlo.z_score
    monkeypatch.setattr(montecarlo, "z_score", lambda *args: 100 * score(*args))


def third_ratio(cls, monkeypatch):
    ratios = cls._falling_ratios

    def faulty(self, m):
        result = ratios(self, m)
        if self.lam != 0 and len(result) > 2:
            num, den = result[2]
            result[2] = (11 * num, 10 * den)
        return result

    monkeypatch.setattr(cls, "_falling_ratios", faulty)


def dpoisson_third_ratio(monkeypatch):
    third_ratio(DegeneratePoisson, monkeypatch)


def dbinomial_third_ratio(monkeypatch):
    third_ratio(DegenerateBinomial, monkeypatch)


def scaled_dpoisson_result(monkeypatch, name, factor, applies):
    method = getattr(DegeneratePoisson, name)

    def faulty(self, *args):
        value = method(self, *args)
        return value * factor if applies(self) else value

    monkeypatch.setattr(DegeneratePoisson, name, faulty)


def dpoisson_mean(monkeypatch):
    scaled_dpoisson_result(monkeypatch, "mean", Fraction(1001, 1000), lambda d: d.lam != 0)


def dpoisson_variance(monkeypatch):
    scaled_dpoisson_result(monkeypatch, "variance", Fraction(1001, 1000), lambda d: d.lam != 0)


def finite_support_pgf(monkeypatch):
    scaled_dpoisson_result(monkeypatch, "pgf", 1 + Fraction(1, 10**6), lambda d: d.finite_support)


def infinite_support_pgf(monkeypatch):
    scaled_dpoisson_result(monkeypatch, "pgf", 1 + 1e-6, lambda d: not d.finite_support and d.lam != 0)


FAULTS = [
    lah_row_entry,
    series_numerators,
    signed_transform,
    binomial_mass_numerators,
    unnormalized_mass_table,
    cumulative_table_shift,
    z_score,
    dpoisson_mean,
    dpoisson_variance,
    finite_support_pgf,
    pytest.param(dpoisson_third_ratio, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 5: verify never compares the dpoisson `moment` exactly")),
    pytest.param(dbinomial_third_ratio, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 6: the dbinomial suite checks no moment past the variance")),
    pytest.param(infinite_support_pgf, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 18: no enclosure checks the float pgf")),
]


# the tag, or tag prefix, among the failures of a fault in an exact
# distribution path; the dpoisson mass table is built by the binomial one
CAUGHT_BY = {
    binomial_mass_numerators: "dpoisson-",
    unnormalized_mass_table: "dpoisson-sample-mean",
    dpoisson_mean: "dpoisson-mean",
    dpoisson_variance: "dpoisson-variance",
    finite_support_pgf: "dpoisson-pgf",
}


def test_the_unbroken_suite_passes():
    assert failures() == []


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
def test_verify_all_catches_the_fault(monkeypatch, fault):
    fault(monkeypatch)
    caught = failures()
    assert any(tag.startswith(CAUGHT_BY.get(fault, "")) for tag in caught)


def test_an_unnormalized_table_is_reported_not_raised(monkeypatch, capsys):
    unnormalized_mass_table(monkeypatch)
    assert cli.main(["verify", "all", "--trials", "2000"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["identity"] for r in reports] == [tag for tag, _ in montecarlo.suite_instances("all")]
    sampled = next(r for r in reports if r["identity"] == "dpoisson-sample-mean")
    assert (sampled["status"], sampled["lhs"], sampled["discrepancy"]) == ("FAIL", "", "inf")
    argv = ["simulate", "--dist", "dpoisson", "--alpha", "1", "--lambda", "1/2", "--samples", "100"]
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and "does not sum to 1" in err


def counting_table_builds(monkeypatch):
    """The unwrapped table builder behind a counting cache of the same size."""
    builds = []
    assert distributions._binomial_mass_numerators.cache_parameters() == {"maxsize": 1, "typed": False}
    builder = distributions._binomial_mass_numerators.__wrapped__

    def counting(*parts):
        builds.append(parts)
        return builder(*parts)

    monkeypatch.setattr(distributions, "_binomial_mass_numerators", functools.lru_cache(maxsize=1)(counting))
    return builds


@pytest.mark.parametrize("suite, tables", [("dpoisson", 5), ("pgf", 1), ("all", 15)])
def test_consecutive_checks_share_one_mass_table(monkeypatch, suite, tables):
    # each check builds a fresh instance: one table per instance would be 29, 4 and 63
    builds = counting_table_builds(monkeypatch)
    montecarlo.run_suite(suite, seed=0, trials=2000)
    assert len(builds) == tables


@pytest.mark.parametrize("fault", [binomial_mass_numerators, unnormalized_mass_table], ids=lambda fault: fault.__name__)
def test_a_warm_table_cache_hides_no_fault(monkeypatch, fault):
    # the unbroken run leaves its last table cached; a patched builder must still be called
    assert failures() == []
    montecarlo._cumulative_table.cache_clear()
    fault(monkeypatch)
    assert any(tag.startswith(CAUGHT_BY[fault]) for tag in failures())
