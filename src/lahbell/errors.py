"""Exception types shared across the package."""


class LahBellError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LahBellError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(LahBellError, ValueError):
    """A substitution point makes an expression undefined (e.g. 1 + lam*x = 0)."""


class LengthError(LahBellError, ValueError):
    """A value list is shorter than the transform order requires."""


class SignedMassError(LahBellError, ValueError):
    """Sampling was requested from a measure with at least one negative mass."""


class NormalizationError(LahBellError, ArithmeticError):
    """A finite mass table does not sum to 1 exactly."""


class TailError(LahBellError, RuntimeError):
    """CDF truncation could not reach the required tail coverage."""


class UnknownIdentityError(LahBellError, KeyError):
    """An identity tag is not present in the registered verification suite."""
