"""Photon number spectrum and mean photon number, closed form and quadrature.

The mean photon number splits as n = n0 (1 + Delta_n):

    n0      = N_e / [(1 + 2 kappa/gamma_perp)(N_th - N)]
    Delta_n = (delta2_ne/N_e) (1/N_th) [ 2r/(1+r) + 2/(1 - N/N_th) ],
              r = 2 kappa / gamma_perp

Delta_n is the exact closed-form value of the population-fluctuation
integral (kappa gamma_perp/N_th)^2 delta2_ne (2 pi)^-1 Int c/|s|^2 d omega
divided by n0, under the narrow-population-spectrum approximation. The
quadrature paths recompute n independently, either with that approximation
("delta") or with the full convolution of the commutator and population
spectra ("exact"), and must agree with the closed form in the delta mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import InvalidParamsError
from .model import (
    ModelParams,
    Populations,
    _check_below_threshold,
    commutator_spectrum,
    loop_abs2,
    widest_rate,
)
from .quadrature import IntegrationSpec, integrate_1d, log_ring_rule

METHOD_CLOSED = "closed-form"
METHOD_DELTA = "quadrature-delta-approx"
METHOD_EXACT = "quadrature-exact-convolution"


@dataclass(frozen=True)
class MeanPhotonResult:
    """n0, the relative fluctuation increase Delta_n, and n = n0 (1+Delta_n)."""

    n0: float
    delta_n: float
    n_total: float
    method: str
    error: float = 0.0


def fluctuation_coupling(params: ModelParams) -> float:
    """kappa gamma_perp / N_th, the population-noise drive coefficient."""
    return params.kappa * params.gamma_perp / params.n_threshold


def dispersion_ratio(params: ModelParams, pops: Populations) -> float:
    """delta2_ne / N_e, evaluated as 1/(P+1) when N_e vanishes.

    Using the stored ratio keeps counterfactual populations (fluctuations
    disabled by hand) consistent; the 1/(P+1) reduction only resolves the
    0/0 at zero pump.
    """
    if pops.n_excited > 0.0:
        return pops.delta2_ne / pops.n_excited
    return 1.0 / (params.pump + 1.0)


def photon_number_spectrum(params: ModelParams, pops: Populations, omega):
    """n(omega) in the delta approximation; nonnegative and even.

    [(kappa gamma_perp^2 / 2 N_th) N_e
     + delta2_ne (kappa gamma_perp/N_th)^2 c(omega)] / |s(omega)|^2
    """
    _check_below_threshold(params, pops)
    s2 = loop_abs2(params, pops, omega)
    zero_order = 0.5 * params.kappa * params.gamma_perp ** 2 * pops.n_excited / params.n_threshold
    out = zero_order / s2
    if pops.delta2_ne > 0.0:
        coup = fluctuation_coupling(params)
        out = out + pops.delta2_ne * coup ** 2 * commutator_spectrum(params, pops, omega) / s2
    return out


def mean_photon_closed(params: ModelParams, pops: Populations) -> MeanPhotonResult:
    """Closed-form n0, Delta_n and n."""
    _check_below_threshold(params, pops)
    r = params.kappa_ratio
    gap = params.n_threshold - pops.inversion
    n0 = pops.n_excited / ((1.0 + r) * gap)
    u = gap / params.n_threshold  # = 1 - N/N_th
    delta_n = dispersion_ratio(params, pops) / params.n_threshold * (2.0 * r / (1.0 + r) + 2.0 / u)
    return MeanPhotonResult(n0=n0, delta_n=delta_n, n_total=n0 * (1.0 + delta_n),
                            method=METHOD_CLOSED)


def _zero_order_quadrature(params, pops, spec):
    zero_order = 0.5 * params.kappa * params.gamma_perp ** 2 * pops.n_excited / params.n_threshold
    val, err = integrate_1d(lambda w: zero_order / loop_abs2(params, pops, w), spec)
    return val / (2.0 * np.pi), err / (2.0 * np.pi)


def _fluctuation_delta_quadrature(params, pops, spec):
    coup2 = fluctuation_coupling(params) ** 2

    def integrand(w):
        return commutator_spectrum(params, pops, w) / loop_abs2(params, pops, w)

    val, err = integrate_1d(integrand, spec)
    scale = pops.delta2_ne * coup2 / (2.0 * np.pi)
    return scale * val, scale * err


def _shifted_overlap(params, pops, shift, abs_tol, max_subdivisions):
    """(2 pi)^-1 Int c(w) / |s(w + shift)|^2 dw, robust for large shifts.

    The integrand has peaks near w = 0 (commutator spectrum) and
    w = -shift (shifted loop filter); both are passed to QUADPACK as
    break points. The truncated tail beyond |shift| + 60 scale decays like
    w^-6 and is far below abs_tol for the model's spectra.
    """
    scale = widest_rate(params, pops)
    width = abs(shift) + 60.0 * scale
    pts = sorted({p for p in (-shift - 4.0 * scale, -shift, -shift + 4.0 * scale,
                              -4.0 * scale, 0.0, 4.0 * scale)
                  if -width < p < width})

    def integrand(w):
        return commutator_spectrum(params, pops, w) / loop_abs2(params, pops, w + shift)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, -width, width, points=pts,
                                  epsabs=abs_tol * 2.0 * np.pi, epsrel=1e-11,
                                  limit=max_subdivisions)
    return val / (2.0 * np.pi), err / (2.0 * np.pi)


def _fluctuation_exact_quadrature(params, pops, spec, ring_per_unit=16):
    """Cauchy-smoothed fluctuation term: delta2_ne coup^2 E_X[h(X)].

    h(x) = (2 pi)^-1 Int c(w - x)/|s(w)|^2 dw and X is Cauchy(gamma_p).
    E[h(X)] = h(0) + Int_0^inf K(w)[2 h(w) - 2 h(0)] dw, with the correction
    done on a log grid (h is even and vanishes at infinity).
    """
    coup2 = fluctuation_coupling(params) ** 2
    h0, h0_err = _shifted_overlap(params, pops, 0.0, 0.0, spec.max_subdivisions)
    abs_tol = max(h0 * 1e-11, 1e-300)
    nodes, weights, center = log_ring_rule(pops.gamma_p, widest_rate(params, pops),
                                           per_unit=ring_per_unit)
    h_vals = np.empty_like(nodes)
    acc_err = h0_err
    for k, wk in enumerate(nodes):
        h_vals[k], hk_err = _shifted_overlap(params, pops, wk, abs_tol, spec.max_subdivisions)
        acc_err += 2.0 * weights[k] * hk_err
    acc = center * h0 + 2.0 * float(np.sum(weights * h_vals))
    # refinement estimate: the correction sum_k w_k (h_k - h0) against the
    # same sum with every other ring node dropped
    fine = float(np.sum(weights * (h_vals - h0)))
    coarse = 2.0 * float(np.sum(weights[::2] * (h_vals[::2] - h0)))
    scale = pops.delta2_ne * coup2
    return scale * acc, scale * (acc_err + 2.0 * abs(fine - coarse))


def mean_photon_quadrature(params: ModelParams, pops: Populations,
                           mode: str = "delta",
                           spec: IntegrationSpec = IntegrationSpec()) -> MeanPhotonResult:
    """Mean photon number by numerical integration of the spectrum.

    mode="delta" integrates the delta-approximation spectrum and must match
    mean_photon_closed to 1e-5 relative; mode="exact" replaces
    c(omega) delta2_ne by the full convolution with the Lorentzian
    population spectrum and reports the (physical) discrepancy.
    """
    _check_below_threshold(params, pops)
    if mode not in ("delta", "exact"):
        raise InvalidParamsError(f"unknown mean-photon mode {mode!r}")
    n0, n0_err = _zero_order_quadrature(params, pops, spec)
    if pops.delta2_ne == 0.0:
        fluct, fluct_err = 0.0, 0.0
    elif mode == "delta":
        fluct, fluct_err = _fluctuation_delta_quadrature(params, pops, spec)
    else:
        fluct, fluct_err = _fluctuation_exact_quadrature(params, pops, spec)
    total = n0 + fluct
    delta_n = fluct / n0 if n0 > 0.0 else 0.0
    method = METHOD_DELTA if mode == "delta" else METHOD_EXACT
    return MeanPhotonResult(n0=n0, delta_n=delta_n, n_total=total,
                            method=method, error=n0_err + fluct_err)
