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
by the matching quadrature mode. Both integrals over w1 and w2 take the
same fixed outer rule, Gauss-Legendre on the whole real line through
omega = scale * tan(phi), exponentially convergent for the rational
spectra of this model (they decay at least like omega^-2); the unit rule
is built once per node count, and the error of C is the change from
OUTER_NODES to half as many. A C whose error is half its value or more
resolves nothing, and is refused with NonConvergenceError: the fixed rule
misses a peak of |s|^-2 narrower than its nodes (large N_0, or near
threshold). K is formed on the outer nodes only: in the
full mode it is smoothed_inverse_filter, the exact Cauchy-smoothed
inverse loop filter. K(-a, -b) = conj K(a, b), the tan-map grid is its own
mirror, so the full mode forms and sums only the rows a > 0. In the delta
mode the population spectrum collapses to a point mass and C must equal
[2 delta2_ne (2 pi)^-1 Int c/|s|^2]^2; agreement of the two paths is a
genuine cross-check of the cumulant algebra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NonConvergenceError
from .model import (
    ModelParams,
    Populations,
    _check_below_threshold,
    commutator_spectrum,
    fluctuation_coupling,
    loop_coefficients,
    loop_denominator,
    widest_rate,
)
from .photon import mean_photon_closed, mean_photon_quadrature

METHOD_CLOSED = "closed-form"
METHOD_DELTA = "cumulant-delta"
METHOD_FULL = "cumulant-full"

# tan-map node count of the outer rule of the cumulant of both modes;
# noise_cumulant checks it against half as many
OUTER_NODES = 200


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


@functools.cache
def _unit_tan_map(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tan(phi_j), the Gauss-Legendre weights and cos(phi_j)^2, read-only."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    phi = 0.5 * np.pi * x
    cos = np.cos(phi)
    rule = (np.tan(phi), w, cos * cos)
    for a in rule:
        a.flags.writeable = False
    return rule


def _outer_rule(params, pops, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer nodes omega_j and weights w_j c(omega_j), fresh arrays.

    omega = scale tan(phi) with scale the widest rate of the model, so
    Int_R f(omega) c(omega) d omega is about sum_j f(omega_j) w_j c(omega_j).
    """
    tan, w, cos2 = _unit_tan_map(n_nodes)
    scale = widest_rate(params, pops)
    omega = scale * tan
    return omega, scale * 0.5 * np.pi * w / cos2 * commutator_spectrum(params, pops, omega)


def smoothed_inverse_filter(params, pops, omega_a, omega_b) -> np.ndarray:
    """K(a, b) = E[conj(1/s(omega_a + X)) / s(omega_b + X)], X ~ Cauchy(gamma_p).

    Exact, elementwise over omega_a and omega_b broadcast together: a
    column of nodes against a row gives the matrix, one grid twice its
    diagonal, the real E|s(omega + X)|^-2. With s(w) = A - w (w + iB), the
    continued conj(s) has the zeros z_1,2 = (iB +- sqrt(4A - B^2))/2 above
    the real axis, so conj s(omega_a + x) = -(x - p_1)(x - p_2) with
    p_k = z_k - omega_a, and the Cauchy density has its upper pole at
    p_0 = i gamma_p. Closing the average above the axis leaves the divided
    difference K = -2i gamma_p psi[p_0, p_1, p_2] of psi = 1/Q,
    Q(x) = (x + i gamma_p) s(omega_b + x), whose zeros lie below the axis.
    By Opitz's theorem it is the corner of psi(J) = Q(J)^-1 for the
    bidiagonal J with p_0, p_1, p_2 on its diagonal:
    psi[p_0, p_1, p_2] = (T01 T12 - T02 T11) / (T00 T11 T22), with
    T_kk = Q(p_k) and the divided differences of the cubic Q above the
    diagonal, which Leibniz's rule for the product gives with no division.
    With q_k = p_k + i gamma_p, sigma_k = s(z_k + omega_b - omega_a) and
    e = omega_b - omega_a + iB, two of its terms cancel and

        K = -[sigma_1 sigma_2 + 2i gamma_p (q_1 sigma_1
              - (q_1 + 2 omega_b + iB)(sigma_2 - 2 q_1 e))]
            / [s(omega_b + i gamma_p) q_1 q_2 sigma_1 sigma_2].

    No difference of two poles is divided by, so coincident poles
    (4A = B^2, or gamma_p = Im z_k at omega_a = Re z_k) need no special
    case, and sigma_k, formed from omega_b - omega_a, stays accurate on
    the far nodes of the tan map.
    """
    a, b = loop_coefficients(params, pops)
    ig = 1j * pops.gamma_p
    root = np.sqrt(complex(4.0 * a - b * b))
    z1, z2 = 0.5 * (1j * b + root), 0.5 * (1j * b - root)

    def s(w):
        # the loop denominator continued to complex w
        return a - w * (w + 1j * b)

    d = omega_b - omega_a
    sig1, sig2 = s(z1 + d), s(z2 + d)
    q1, q2 = z1 + ig - omega_a, z2 + ig - omega_a
    sig12 = sig1 * sig2
    num = sig12 + 2.0 * ig * (q1 * sig1 - (q1 + (2.0 * omega_b + 1j * b))
                              * (sig2 - 2.0 * q1 * (d + 1j * b)))
    return -num / ((q1 * q2) * s(omega_b + ig) * sig12)


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

    Returns (value, refinement_error): the value at OUTER_NODES, the error
    its distance from the same rule at half as many nodes. Nonnegative by
    construction (the integrand is c c |K|^2 >= 0); (0, 0) when fluctuations
    are disabled. Raises NonConvergenceError when the error is half the
    value or more: the rule then misses a peak narrower than its nodes, and
    the value resolves nothing.
    """
    _check_below_threshold(params, pops)
    if mode not in ("delta", "full"):
        raise InvalidParamsError(f"unknown cumulant mode {mode!r}")
    if pops.delta2_ne == 0.0:
        return 0.0, 0.0
    values = []
    for n_nodes in (OUTER_NODES, OUTER_NODES // 2):
        omega, wc = _outer_rule(params, pops, n_nodes)
        # full: |K(-a, -b)| = |K(a, b)| on the sorted, mirror-closed grid of
        # an even node count, so the rows a > 0 count twice; the delta mode
        # sums every row
        first, fold = (0, 1.0) if mode == "delta" else (n_nodes // 2, 2.0)
        kmat = _kernel_matrix(params, pops, omega[first:], omega, mode)
        values.append(fold * 4.0 / (2.0 * np.pi) ** 2
                      * float(wc[first:] @ (np.abs(kmat) ** 2) @ wc))
    fine, coarse = values
    error = abs(fine - coarse)
    if not error < 0.5 * fine:
        raise NonConvergenceError(
            f"{mode} cumulant {fine:.6g} changes by {error:.3g} at half the {OUTER_NODES} "
            "outer nodes; the fixed rule misses a peak narrower than its nodes")
    return fine, error


def g2_bruteforce(params: ModelParams, pops: Populations, mode: str = "delta") -> G2Result:
    """g2 = 2 + (kappa gamma_perp/N_th)^4 C / n^2 with everything numerical.

    n comes from the matching mean-photon quadrature mode (delta <-> delta,
    full <-> exact convolution). The model bounds g2 to [2, 6] in both
    modes: given the population path the field is circular Gaussian, so
    E[|a|^4 | path] = 2 V^2 with V its variance. V is quadratic in delta N,
    V = v_d + Sum_i lambda_i z_i^2 with z_i independent standard normals
    and every lambda_i >= 0, so E V = v_d + Sum lambda,
    Var V = 2 Sum lambda^2 and

        g2 = 2 E[V^2] / (E V)^2 = 2 [1 + 2 Sum lambda^2 / (v_d + Sum lambda)^2],

    in [2, 6] since Sum lambda^2 <= (Sum lambda)^2 <= (v_d + Sum lambda)^2.
    A g2 outside [2, 6] is a numerical miss of C or n, and raises
    NonConvergenceError.
    """
    cum, cum_err = noise_cumulant(params, pops, mode)
    method = METHOD_DELTA if mode == "delta" else METHOD_FULL
    photon_mode = "delta" if mode == "delta" else "exact"
    mp = mean_photon_quadrature(params, pops, mode=photon_mode)
    coup4 = fluctuation_coupling(params) ** 4
    n2 = mp.n_total ** 2
    g2 = 2.0 + coup4 * cum / n2
    err = coup4 * (cum_err / n2 + 2.0 * cum * mp.error / (n2 * mp.n_total))
    if not 2.0 <= g2 <= 6.0:
        raise NonConvergenceError(
            f"{mode} g2 {g2:.6g} +- {err:.3g} is outside the model's [2, 6]; "
            "the quadrature misses C or n")
    return G2Result(g2=g2, cumulant=cum, method=method, error=err)
