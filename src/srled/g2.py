"""Zero-delay second-order autocorrelation g2, closed form and brute force.

The closed form follows from the mean-photon split:

    g2 = 2 [1 + 2 (Delta_n / (1 + Delta_n))^2],

which is thermal (g2 = 2) without population fluctuations and super-thermal
(2 < g2 < 6) with them. The brute-force path re-derives nothing from that
formula: it builds the fourth-order cumulant of the population-noise-driven
field component from c(omega), s(omega) and the population spectrum alone,

    C = 4 (2 pi)^-2 Int c(w1) c(w2) |K(w1, w2)|^2 dw1 dw2,
    K(w1, w2) = (2 pi)^-1 Int pop_spectrum(w) dw / [s(w + w2) s*(w + w1)],

and assembles g2 = 2 + (kappa gamma_perp / N_th)^4 C / n^2 with n computed
by the matching quadrature mode. K is formed on the outer tan-map nodes
only: in the full mode it is quadrature.smoothed_inverse_filter, the exact
Cauchy-smoothed inverse loop filter. K(-a, -b) = conj K(a, b), the tan-map
grid is its own mirror, so the full mode forms and sums only the rows a > 0.
In the delta mode the population spectrum collapses to a point mass and C
must equal [2 delta2_ne (2 pi)^-1 Int c/|s|^2]^2; agreement of the two
paths is a genuine cross-check of the cumulant algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .model import (
    ModelParams,
    Populations,
    _check_below_threshold,
    fluctuation_coupling,
    loop_denominator,
)
from .photon import mean_photon_closed, mean_photon_quadrature
from .quadrature import (
    OUTER_NODES,
    commutator_rule,
    refined,
    smoothed_inverse_filter,
)

METHOD_CLOSED = "closed-form"
METHOD_DELTA = "cumulant-delta"
METHOD_FULL = "cumulant-full"


@dataclass(frozen=True, slots=True)
class G2Result:
    g2: float
    cumulant: float | None
    method: str
    error: float = 0.0


def g2_from_delta_n(delta_n: float) -> float:
    """g2 = 2 [1 + 2 (Delta_n/(1+Delta_n))^2]; 2 at 0, 6 in the limit."""
    x = delta_n / (1.0 + delta_n)
    return 2.0 * (1.0 + 2.0 * x * x)


def g2_closed(params: ModelParams, pops: Populations) -> G2Result:
    """Closed-form g2 from the closed-form Delta_n."""
    mp = mean_photon_closed(params, pops)
    return G2Result(g2=g2_from_delta_n(mp.delta_n), cumulant=None, method=METHOD_CLOSED)


def _kernel_matrix(params, pops, rows, cols, mode):
    """K(rows_i, cols_j), the kernel inside the cumulant integral, on nodes.

    delta: the point-mass reduction delta2_ne / [s(cols_j) s*(rows_i)].
    full: (2 pi)^-1 Int pop_spectrum(w) / [s(w + cols_j) s*(w + rows_i)] dw,
    the exactly Cauchy-smoothed inverse filter. Hermitian:
    K(a, b) = conj(K(b, a)).
    """
    if mode == "delta":
        return pops.delta2_ne * np.outer(np.conj(1.0 / loop_denominator(params, pops, rows)),
                                         1.0 / loop_denominator(params, pops, cols))
    return pops.delta2_ne * smoothed_inverse_filter(params, pops, rows[:, None], cols)


def noise_cumulant(params: ModelParams, pops: Populations,
                   mode: str = "delta") -> tuple[float, float]:
    """The fourth-order field-noise cumulant by 2-D tensor quadrature.

    Returns (value, refinement_error) at OUTER_NODES, the error by
    quadrature.refined. Nonnegative by construction (the integrand is
    c c |K|^2 >= 0); zero when fluctuations are disabled.
    """
    _check_below_threshold(params, pops)
    if mode not in ("delta", "full"):
        raise InvalidParamsError(f"unknown cumulant mode {mode!r}")
    if pops.delta2_ne == 0.0:
        return 0.0, 0.0

    def evaluate(n_nodes):
        omega, wc = commutator_rule(params, pops, n_nodes)
        # full: |K(-a, -b)| = |K(a, b)| on the sorted, mirror-closed grid of
        # an even node count, so the rows a > 0 count twice; the delta mode
        # sums every row
        first, fold = (0, 1.0) if mode == "delta" else (n_nodes // 2, 2.0)
        kmat = _kernel_matrix(params, pops, omega[first:], omega, mode)
        return fold * 4.0 / (2.0 * np.pi) ** 2 * float(wc[first:] @ (np.abs(kmat) ** 2) @ wc)

    return refined(evaluate, OUTER_NODES)


def g2_bruteforce(params: ModelParams, pops: Populations, mode: str = "delta") -> G2Result:
    """g2 = 2 + (kappa gamma_perp/N_th)^4 C / n^2 with everything numerical.

    n comes from the matching mean-photon quadrature mode (delta <-> delta,
    full <-> exact convolution). Exactly 2 when fluctuations are disabled;
    noise_cumulant rejects an unknown mode before that shortcut.
    """
    cum, cum_err = noise_cumulant(params, pops, mode)
    method = METHOD_DELTA if mode == "delta" else METHOD_FULL
    if pops.delta2_ne == 0.0:
        return G2Result(g2=2.0, cumulant=cum, method=method)
    photon_mode = "delta" if mode == "delta" else "exact"
    mp = mean_photon_quadrature(params, pops, mode=photon_mode)
    coup4 = fluctuation_coupling(params) ** 4
    n2 = mp.n_total ** 2
    g2 = 2.0 + coup4 * cum / n2
    err = coup4 * (cum_err / n2 + 2.0 * cum * mp.error / (n2 * mp.n_total))
    return G2Result(g2=g2, cumulant=cum, method=method, error=err)
