"""Adaptive integration over the whole real line.

Adaptive 1-D integrals of real integrands over the whole real line are
backed by QUADPACK (scipy.integrate); ``integrate_1d`` takes the relative
and absolute tolerances as keywords, refuses a nonpositive or NaN one with
InvalidParamsError and turns unreported convergence into a
NonConvergenceError. Every adaptive integral runs over the whole line; an
integrand that lives on a finite range is mapped onto it by the caller.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import integrate

from .errors import InvalidParamsError, NonConvergenceError


# QUADPACK subdivision budget of every adaptive integral
MAX_SUBDIVISIONS = 200


def integrate_1d(func, *, rel_tol: float = 1e-10, abs_tol: float = 1e-13) -> tuple[float, float]:
    """Adaptive integral of a real integrand over the whole real line.

    Returns (value, error_estimate). Raises NonConvergenceError when the
    reported error stays far above the requested tolerance, as it does when
    the MAX_SUBDIVISIONS budget runs out, and InvalidParamsError for a
    tolerance that is not positive.
    """
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise InvalidParamsError(f"tolerances must be positive, got rel_tol={rel_tol}, "
                                 f"abs_tol={abs_tol}")
    with warnings.catch_warnings():
        # QUADPACK warns and still returns its best estimate; judge by the
        # reported error instead of aborting on the warning itself.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            func, -np.inf, np.inf,
            epsabs=abs_tol, epsrel=rel_tol,
            limit=MAX_SUBDIVISIONS,
        )
    if err > max(abs_tol, rel_tol * abs(val)) * 50.0:
        raise NonConvergenceError(
            f"reported error {err:.3g} exceeds tolerance for value {val:.6g}"
        )
    return val, err
