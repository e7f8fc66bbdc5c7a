"""Exact Lah-Bell / degenerate Lah-Bell polynomials and the degenerate
binomial and Poisson random variables, with exact and Monte Carlo identity
verification."""

from .errors import (
    DomainError,
    EvaluationError,
    LahBellError,
    LengthError,
    NormalizationError,
    SignedMassError,
    TailError,
    UnknownIdentityError,
)
from .exact_core import (
    LAH_TRIANGLE,
    STIRLING1_TRIANGLE,
    STIRLING2_TRIANGLE,
    TriangleCache,
    TriangleKind,
    as_rational,
    degenerate_exp_eval,
    degenerate_exp_exact,
    degenerate_exp_series,
    degenerate_factor_numerators,
    degenerate_factors,
    degenerate_falling_factorial,
    degenerate_falling_factorials,
    falling_factorial,
    format_rational,
    lah_number,
    lah_number_closed_form,
    rising_factorial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
)
from .polynomials import (
    RationalPolynomial,
    bell_from_lahbell_degenerate,
    bell_number,
    bell_polynomial,
    degenerate_bell_polynomial,
    degenerate_lah_bell_polynomial,
    degenerate_lah_bell_polynomial_via_bell,
    evaluate_degenerate,
    lah_bell_number,
    lah_bell_polynomial,
    lah_bell_series_coefficients,
    lahbell_from_bell,
    monomial,
    y_substitution,
)
from .distributions import (
    DegenerateBinomial,
    DegeneratePoisson,
    MomentKind,
    SupportAnalysis,
    analyze_support,
    binomial,
    moment,
    moment_direct,
    pgf_direct,
    poisson,
)
from .montecarlo import (
    MomentEstimate,
    SamplerStream,
    SUITES,
    VerificationReport,
    draw_samples,
    estimate_moment,
    estimate_moment_partitioned,
    registered_identities,
    run_suite,
    sample,
    suite_instances,
    verify_identity,
)

__version__ = "0.1.0"
