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
delta mode. The exact mode smooths the inverse loop filter over the
population Lorentzian with quadrature.smoothed_inverse_filter, the exact
residue sum the full-Lorentzian cumulant of srled.g2 uses too: n is the
diagonal of that cumulant's kernel integrated against c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .model import (
    ModelParams,
    Populations,
    _check_below_threshold,
    commutator_spectrum,
    fluctuation_coupling,
    loop_abs2,
    zero_order_level,
)
from .quadrature import (
    OUTER_NODES,
    commutator_rule,
    integrate_1d,
    refined,
    smoothed_inverse_filter,
)

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
    out = zero_order_level(params, pops) / s2
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
    """Cauchy-smoothed fluctuation term: delta2_ne coup^2 E_X[h(X)].

    h(x) = (2 pi)^-1 Int c(w)/|s(w + x)|^2 dw and X is Cauchy(gamma_p):
    the tan-map rule over w against the exact smoothed inverse filter
    K(w_j, w_j), at OUTER_NODES with the quadrature.refined error estimate.
    """
    scale = pops.delta2_ne * fluctuation_coupling(params) ** 2 / (2.0 * np.pi)

    def evaluate(n_nodes):
        omega, wc = commutator_rule(params, pops, n_nodes)
        return scale * float(wc @ smoothed_inverse_filter(params, pops, omega, omega).real)

    return refined(evaluate, OUTER_NODES)


def mean_photon_quadrature(params: ModelParams, pops: Populations,
                           mode: str = "delta") -> MeanPhotonResult:
    """Mean photon number by numerical integration of the spectrum.

    mode="delta" integrates the delta-approximation spectrum adaptively and
    must match mean_photon_closed to 1e-5 relative; mode="exact" replaces
    c(omega) delta2_ne by the full convolution with the Lorentzian
    population spectrum and reports the (physical) discrepancy. In both
    modes n0 is an adaptive integral at the default tolerances of
    integrate_1d (1e-10 relative, 1e-13 absolute). The exact fluctuation
    term is a fixed outer rule over an exact inner average (see
    _fluctuation_exact); its error is a node-halving refinement estimate.
    """
    _check_below_threshold(params, pops)
    if mode not in ("delta", "exact"):
        raise InvalidParamsError(f"unknown mean-photon mode {mode!r}")
    n0, n0_err = _zero_order_quadrature(params, pops)
    if pops.delta2_ne == 0.0:
        fluct, fluct_err = 0.0, 0.0
    elif mode == "delta":
        fluct, fluct_err = _fluctuation_delta_quadrature(params, pops)
    else:
        fluct, fluct_err = _fluctuation_exact(params, pops)
    total = n0 + fluct
    delta_n = fluct / n0 if n0 > 0.0 else 0.0
    method = METHOD_DELTA if mode == "delta" else METHOD_EXACT
    return MeanPhotonResult(n0=n0, delta_n=delta_n, n_total=total,
                            method=method, error=n0_err + fluct_err)
