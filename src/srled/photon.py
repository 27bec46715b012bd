"""Photon number spectrum and mean photon number, closed form and quadrature.

The mean photon number splits as n = n0 (1 + Delta_n):

    n0      = N_e / [(1 + 2 kappa/gamma_perp)(N_th - N)]
    Delta_n = (delta2_ne/N_e) (1/N_th) [ 2r/(1+r) + 2/(1 - N/N_th) ],
              r = 2 kappa / gamma_perp

Delta_n is the exact closed-form value of the population-fluctuation
integral (kappa gamma_perp/N_th)^2 delta2_ne (2 pi)^-1 Int c/|s|^2 d omega
divided by n0, under the narrow-population-spectrum approximation. The
quadrature paths recompute n independently, either with that approximation
("delta", adaptive QUADPACK) or with the full convolution of the commutator
and population spectra ("exact"), and must agree with the closed form in the
delta mode. The exact fluctuation term is a rational function of
(A, B, kappa, gamma_p) whose gamma_p -> 0 limit is n0 Delta_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NonConvergenceError
from .model import (
    ModelParams,
    Populations,
    _check_below_threshold,
    commutator_spectrum,
    fluctuation_coupling,
    loop_abs2,
    loop_coefficients,
    zero_order_level,
)
from .quadrature import integrate_1d

METHOD_CLOSED = "closed-form"
METHOD_DELTA = "quadrature-delta-approx"
METHOD_EXACT = "quadrature-exact-convolution"


@dataclass(frozen=True, slots=True)
class MeanPhotonResult:
    """n0, the relative fluctuation increase Delta_n, and n = n0 (1+Delta_n)."""

    n0: float
    delta_n: float
    n_total: float
    method: str
    error: float = 0.0


def photon_number_spectrum(params: ModelParams, pops: Populations, omega):
    """n(omega) in the delta approximation; nonnegative and even.

    [(kappa gamma_perp^2 / 2 N_th) N_e
     + delta2_ne (kappa gamma_perp/N_th)^2 c(omega)] / |s(omega)|^2
    """
    _check_below_threshold(params, pops)
    s2 = loop_abs2(params, pops, omega)
    coup = fluctuation_coupling(params)
    return zero_order_level(params, pops) / s2 \
        + pops.delta2_ne * coup ** 2 * commutator_spectrum(params, pops, omega) / s2


def mean_photon_closed(params: ModelParams, pops: Populations) -> MeanPhotonResult:
    """Closed-form n0, Delta_n and n.

    Populations admits only N_e > 0, so the dispersion ratio delta2_ne / N_e
    is an ordinary quotient: 1/(P+1) as derived, 0 without fluctuations.
    """
    _check_below_threshold(params, pops)
    r = params.kappa_ratio
    gap = params.n_threshold - pops.inversion
    n0 = pops.n_excited / ((1.0 + r) * gap)
    u = gap / params.n_threshold  # = 1 - N/N_th
    delta_n = pops.delta2_ne / pops.n_excited / params.n_threshold * (2.0 * r / (1.0 + r) + 2.0 / u)
    return MeanPhotonResult(n0=n0, delta_n=delta_n, n_total=n0 * (1.0 + delta_n),
                            method=METHOD_CLOSED)


def _zero_order_quadrature(params, pops):
    zero_order = zero_order_level(params, pops)
    val, err = integrate_1d(lambda w: zero_order / loop_abs2(params, pops, w))
    return val / (2.0 * np.pi), err / (2.0 * np.pi)


def _fluctuation_delta_quadrature(params, pops):
    coup2 = fluctuation_coupling(params) ** 2

    def integrand(w):
        return commutator_spectrum(params, pops, w) / loop_abs2(params, pops, w)

    val, err = integrate_1d(integrand)
    scale = pops.delta2_ne * coup2 / (2.0 * np.pi)
    return scale * val, scale * err


def _fluctuation_exact(params, pops):
    """delta2_ne coup^2 (2 pi)^-1 Int (c * L)/|s|^2, L the Cauchy(gamma_p) density:

        delta2_ne coup^2 [2B^2 + (4 kappa + 2) A + (4 kappa + 3) B gamma_p
        + (2 kappa + 1) gamma_p^2] / [2AB^2 (B + gamma_p)(4A + 2B gamma_p + gamma_p^2)]

    with A, B from loop_coefficients. c and |s|^-2 are sums of Lorentzians
    2x/(omega^2 + x^2) at the roots x+- of x^2 - B x + A, weights c_j and
    g_k. The Cauchy average multiplies the Fourier transform of c, a sum of
    e^(-x|t|), by e^(-gamma_p |t|); by Parseval the integral is
    2 Sum_jk c_j g_k / (x_j + x_k + gamma_p), symmetric in x+-, so a function
    of x+ + x- = B and x+ x- = A: no roots, no special case at 4A = B^2, no
    cancellation as gamma_p -> 0, where it is mean_photon_closed's n0 Delta_n.
    Every term is positive, so rounding stays below 32 eps relative of the
    value for the given A and B; that bound is the error.
    """
    a, b = loop_coefficients(params, pops)
    g, k = pops.gamma_p, params.kappa
    num = 2.0 * b * b + (4.0 * k + 2.0) * a + ((4.0 * k + 3.0) * b + (2.0 * k + 1.0) * g) * g
    den = 2.0 * a * b * b * (b + g) * (4.0 * a + (2.0 * b + g) * g)
    val = pops.delta2_ne * fluctuation_coupling(params) ** 2 * num / den
    return val, 32.0 * float(np.finfo(float).eps) * val


def mean_photon_quadrature(params: ModelParams, pops: Populations,
                           mode: str = "delta") -> MeanPhotonResult:
    """Mean photon number by numerical integration of the spectrum.

    mode="delta" integrates the delta-approximation spectrum adaptively and
    must match mean_photon_closed to 1e-5 relative; mode="exact" replaces
    c(omega) delta2_ne by the full convolution with the Lorentzian
    population spectrum, in closed form (_fluctuation_exact), and reports
    the (physical) discrepancy. n0 is an adaptive integral at the default
    tolerances of integrate_1d; the fluctuation term carries the factor
    delta2_ne, so it is 0 without fluctuations. An n0 that is not positive,
    or a negative fluctuation term, raises NonConvergenceError: N_e > 0
    makes both integrands positive.
    """
    _check_below_threshold(params, pops)
    if mode not in ("delta", "exact"):
        raise InvalidParamsError(f"unknown mean-photon mode {mode!r}")
    n0, n0_err = _zero_order_quadrature(params, pops)
    if mode == "delta":
        fluct, fluct_err = _fluctuation_delta_quadrature(params, pops)
    else:
        fluct, fluct_err = _fluctuation_exact(params, pops)
    if not (n0 > 0.0 and fluct >= 0.0):
        # both integrands are positive; QUADPACK misses the peak of 1/|s|^2 at
        # sqrt(A) at EX1 with N_0 = 1e12, where n0 came out as -8.6e-13 +- 1e-15
        raise NonConvergenceError(f"n0 {n0:.3g}, fluctuation term {fluct:.3g}: not positive")
    method = METHOD_DELTA if mode == "delta" else METHOD_EXACT
    return MeanPhotonResult(n0=n0, delta_n=fluct / n0, n_total=n0 + fluct,
                            method=method, error=n0_err + fluct_err)
