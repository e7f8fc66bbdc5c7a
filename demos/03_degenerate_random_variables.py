#!/usr/bin/env python3
"""Degenerate binomial and degenerate Poisson random variables, exactly.

Shows exact PMFs, closed-form moments against brute-force support sums,
finite supports when 1/lam is an integer, generating functions, a
signed-mass parameter regime where the mass formula goes negative yet every
algebraic identity still holds, and, on infinite supports, the rising moments
read off the pgf's power series exactly.
"""

from fractions import Fraction

from lahbell import (
    DegenerateBinomial,
    DegeneratePoisson,
    MomentKind,
    analyze_support,
    bell_from_lahbell_degenerate,
    degenerate_lah_bell_polynomial,
    evaluate_degenerate,
    lah_bell_series_coefficients,
    moment_direct,
    pgf_direct,
    poisson,
)

d = DegenerateBinomial(2, Fraction(1, 2), Fraction(1, 4))
print("Degenerate binomial n=2, p=1/2, lam=1/4")
print("  masses:", d.masses())
print("  mean:", d.mean(), " brute force:", moment_direct(d, MomentKind.RAW, 1))
print("  variance:", d.variance())
print("  support:", analyze_support(d))

witness = DegenerateBinomial(3, Fraction(1, 10), Fraction(2, 5))
print("\nSigned-mass witness n=3, p=1/10, lam=2/5")
print("  masses:", witness.masses())
print("  still sums to:", sum(witness.masses()))
print("  mean (closed):", witness.mean(), " brute force:", moment_direct(witness, MomentKind.RAW, 1))
print("  support:", analyze_support(witness))

dp = DegeneratePoisson(Fraction(1), Fraction(1, 2))
print("\nDegenerate Poisson alpha=1, lam=1/2 (finite support, 1/lam = 2)")
print("  masses:", dp.masses())
print("  mean, variance:", dp.mean_variance())
print("  rising factorial moment order 2:", dp.rising_factorial_moment(2))
print(
    "  matches degenerate Lah-Bell value:",
    evaluate_degenerate(degenerate_lah_bell_polynomial(2, dp.lam), dp.alpha, dp.lam),
)
print("  generating function at t=1/2 (closed):", dp.pgf(Fraction(1, 2)))
print("  generating function at t=1/2 (direct):", pgf_direct(dp, Fraction(1, 2)))

p = poisson(2)
print("\nClassical Poisson alpha=2 (lam=0 member of the family)")
print("  raw moment 3 via Bell polynomial:", p.raw_moment(3))
print("  falling factorial moment 3:", p.falling_factorial_moment(3))
print("  rising factorial moment 3:", p.rising_factorial_moment(3))
series = lah_bell_series_coefficients(p.alpha, 3)
print("  exact series oracle, n! [t^n] of the pgf exp(alpha*(1/(1-t) - 1)):")
print("    rising moments 0..3:", series)
print("    raw moment 3 by the inverse Stirling transform:", bell_from_lahbell_degenerate(3, series))

dq = DegeneratePoisson(Fraction(1), Fraction(2, 5))
print("\nDegenerate Poisson alpha=1, lam=2/5 (infinite support, 1/lam not an integer)")
print("  rising factorial moment 3 (closed):", dq.rising_factorial_moment(3))
print("  same from the pgf series oracle:", lah_bell_series_coefficients(dq.alpha, 3, dq.lam)[3])
