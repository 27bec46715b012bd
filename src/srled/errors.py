"""Exception types shared across the package, and the integer check that
raises one."""

import numbers


class ModelError(Exception):
    """Base class for srled errors."""


class InvalidParamsError(ModelError, ValueError):
    """Raised for nonpositive rates, bad counts, or malformed inputs."""


class AboveThresholdError(ModelError, ValueError):
    """Raised when the inversion reaches the threshold inversion.

    Above threshold the loop denominator s(0) vanishes and every spectral
    integral in the linear model diverges, so this is a hard error.
    """


class NonConvergenceError(ModelError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class RecordTooLongError(ModelError, ValueError):
    """A Monte Carlo record would exceed the record-length budget."""


def _require_integers(**values) -> None:
    """InvalidParamsError unless every value is an integer (numpy's included)."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
