"""Adaptive integration and the fixed rules of the full-Lorentzian cumulant.

Adaptive 1-D integrals of real integrands over the whole real line are
backed by QUADPACK (scipy.integrate); ``integrate_1d`` takes the relative
and absolute tolerances as keywords, refuses a nonpositive or NaN one with
InvalidParamsError and turns unreported convergence into a
NonConvergenceError. Every adaptive integral runs over the whole line; an
integrand that lives on a finite range is mapped onto it by the caller.
The fourth-order cumulant of srled.g2 takes its fixed rules from here:

* ``tan_map_rule``: Gauss-Legendre on the whole real line through
  omega = scale * tan(phi), exponentially convergent for the rational
  spectra of this model (they decay at least like omega^-2); the unit
  rule is built once per node count and cached,
* ``commutator_rule``: the outer nodes omega_j and weights w_j c(omega_j)
  on that map,
* ``smoothed_inverse_filter``: the Cauchy(gamma_p) average of
  conj(1/s(omega_a + X)) / s(omega_b + X), exact in closed form: the
  average of a rational function is a finite residue sum,
* ``refined``: the node-halving error estimate of the outer rule.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from scipy import integrate

from .errors import InvalidParamsError, NonConvergenceError
from .model import commutator_spectrum, loop_coefficients, widest_rate


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


# ---------------------------------------------------------------------------
# Fixed rules for the hot paths
# ---------------------------------------------------------------------------

# unit tan-map rules kept, one per node count; the tensor rules use
# OUTER_NODES and its half (200 and 100 nodes)
TAN_MAP_CACHE = 8


@functools.lru_cache(maxsize=TAN_MAP_CACHE)
def _unit_tan_map(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tan(phi_j), the Gauss-Legendre weights and cos(phi_j)^2, read-only."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    phi = 0.5 * np.pi * x
    cos = np.cos(phi)
    rule = (np.tan(phi), w, cos * cos)
    for a in rule:
        a.flags.writeable = False
    return rule


def tan_map_rule(scale: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for Int_R f(omega) d omega via omega = scale tan(phi).

    The unit rule (leggauss and the map) is built once per node count and
    cached; scale is applied to fresh arrays on every call.
    """
    tan, w, cos2 = _unit_tan_map(n_nodes)
    return scale * tan, scale * 0.5 * np.pi * w / cos2


# tan-map node count of the outer rule of both tensor rules of the
# fourth-order cumulant (g2.noise_cumulant and g2_bruteforce);
# quadrature.refined checks it against half as many
OUTER_NODES = 200


def refined(evaluate, n_nodes: int) -> tuple[float, float]:
    """Value of an outer rule and its node-halving error estimate.

    Returns (fine, |fine - coarse|): fine is evaluate(n_nodes), coarse the
    same rule on half the nodes.
    """
    fine = evaluate(n_nodes)
    return fine, abs(fine - evaluate(n_nodes // 2))


def commutator_rule(params, pops, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer nodes omega_j and weights w_j c(omega_j) on the tan map."""
    omega, weights = tan_map_rule(widest_rate(params, pops), n_nodes)
    return omega, weights * commutator_spectrum(params, pops, omega)


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
