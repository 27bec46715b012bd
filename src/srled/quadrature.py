"""Adaptive integration and the fixed rules of the population-smoothed paths.

Adaptive 1-D integrals of real integrands are backed by QUADPACK
(scipy.integrate) behind an IntegrationSpec contract that turns unreported
convergence into a NonConvergenceError. The hot, fixed-order rules used
by the cumulant code live here too:

* ``tan_map_rule``: Gauss-Legendre on the whole real line through
  omega = scale * tan(phi), exponentially convergent for the rational
  spectra of this model (they decay at least like omega^-2); the unit
  rule is built once per node count and cached,
* ``log_ring_rule``: trapezoid in log omega for Cauchy-kernel smoothing
  E[G(X)], X ~ Cauchy(gamma), whose integrand carries structure on two
  widely separated scales (gamma_p and the loop-filter scale),
* ``commutator_rule`` and ``smoothed_inverse_filter``: the two halves of
  every full-Lorentzian (population-smoothed) quantity, the weights
  w_j c(omega_j) of the outer tan-map rule and the inverse loop filter on
  that grid, Cauchy-smoothed over the log ring. The ring is walked once,
  with +nu only: s(-omega) = conj s(omega), so the -nu half is the +nu
  half on the mirrored grid, conjugated. The exact mean photon number
  takes the diagonal of the smoothed filter and the fourth-order
  cumulant the whole matrix,
* ``refined``: the node-halving error estimate of both tensor rules.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.linalg import blas

from .errors import NonConvergenceError
from .model import (
    commutator_spectrum,
    loop_abs2,
    loop_denominator,
    widest_rate,
)


# QUADPACK subdivision budget of every adaptive integral
MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class IntegrationSpec:
    """Tolerances and range for adaptive quadrature.

    half_width=None integrates over the whole real line; a finite value
    integrates [-half_width, half_width] (the grid rule already guarantees
    sub-1e-6 tail mass for the model's integrands).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    half_width: float | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.half_width is not None and not self.half_width > 0.0:
            raise ValueError("half_width must be positive")


def integrate_1d(func, spec: IntegrationSpec = IntegrationSpec()) -> tuple[float, float]:
    """Adaptive integral of a real integrand over omega.

    Returns (value, error_estimate). Raises NonConvergenceError when the
    reported error stays far above the requested tolerance, as it does when
    the MAX_SUBDIVISIONS budget runs out.
    """
    if spec.half_width is None:
        lo, hi = -np.inf, np.inf
    else:
        lo, hi = -spec.half_width, spec.half_width
    with warnings.catch_warnings():
        # QUADPACK warns and still returns its best estimate; judge by the
        # reported error instead of aborting on the warning itself.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            func, lo, hi,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=MAX_SUBDIVISIONS,
        )
    if err > max(spec.abs_tol, spec.rel_tol * abs(val)) * 50.0:
        raise NonConvergenceError(
            f"reported error {err:.3g} exceeds tolerance for value {val:.6g}"
        )
    return val, err


# ---------------------------------------------------------------------------
# Fixed rules for the hot paths
# ---------------------------------------------------------------------------

# unit tan-map rules kept, one per node count; the tensor rules use
# CUMULANT_NODES, EXACT_N_NODES and their halves (200 and 100 nodes)
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


def log_ring_rule(gamma: float, scale: float,
                  per_unit: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Cauchy expectation E[G(X)], X ~ Cauchy(gamma), on a log ring.

    Returns (omega, weights, center) with
    E[G(X)] ~ center G(0) + sum_k weights_k [G(omega_k) + G(-omega_k)]
    for a G that is smooth at 0 and vanishes at infinity. The weights are
    the trapezoid rule in t = log omega for Int_0^inf K(omega) g(omega)
    d omega, K the kernel (gamma/pi)/(omega^2+gamma^2), between
    omega_lo = gamma e^-RING_PAD and omega_top = max(scale, gamma) e^+RING_PAD;
    g = G(omega) + G(-omega) - 2 G(0) is O(omega^2) below omega_lo, so
    that end needs no correction. Beyond omega_top, g tends to -2 G(0),
    not to 0: the Cauchy mass there, (1/pi) arctan(gamma/omega_top) per
    side, goes with G(infinity) = 0 and is taken out of the center weight.
    """
    t_lo = np.log(gamma) - RING_PAD
    t_hi = np.log(max(scale, gamma)) + RING_PAD
    n = int(np.ceil((t_hi - t_lo) * per_unit)) + 1
    t = np.linspace(t_lo, t_hi, n)
    dt = t[1] - t[0]
    omega = np.exp(t)
    kern = (gamma / np.pi) / (omega * omega + gamma * gamma)
    weights = kern * omega * dt
    weights[0] *= 0.5
    weights[-1] *= 0.5
    tail = float(np.arctan(gamma / omega[-1])) / np.pi
    center = 1.0 - 2.0 * (float(np.sum(weights)) + tail)
    return omega, weights, center


# Node counts (outer tan-map nodes, ring nodes per unit of log omega) of the
# tensor rules, each refined against half as many outer and ring nodes: the
# fourth-order cumulant (g2.noise_cumulant and g2_bruteforce) and the exact
# mean photon number, whose diagonal sum needs the finer ring: with 24 ring
# nodes per unit it is off by 1.6e-8 relative at EX1, with 48 by 1.4e-9.
CUMULANT_NODES = (200, 24)
EXACT_N_NODES = (200, 48)
# ring nodes per block of smoothed_inverse_filter: a block's filters,
# shifted by +nu on the mirror-closed grid, are 64 x n_outer values on a
# tan-map grid whatever the ring length (~1000 nodes at 24 per unit and
# gamma_par = 1e-4)
RING_BLOCK = 64
# log omega margin of the ring beyond gamma below and max(scale, gamma) above
RING_PAD = 16.0


def refined(evaluate, nodes: tuple[int, int]) -> tuple[float, float]:
    """Value of a tensor rule and its node-halving error estimate.

    Returns (fine, |fine - coarse|): fine is evaluate(n_outer, per_unit) at
    nodes, coarse the same rule on half the outer and half the ring nodes.
    """
    n_outer, per_unit = nodes
    fine = evaluate(n_outer, per_unit)
    return fine, abs(fine - evaluate(n_outer // 2, per_unit // 2))


def commutator_rule(params, pops, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer nodes omega_j and weights w_j c(omega_j) on the tan map."""
    omega, weights = tan_map_rule(widest_rate(params, pops), n_nodes)
    return omega, weights * commutator_spectrum(params, pops, omega)


def smoothed_inverse_filter(params, pops, omega: np.ndarray, per_unit: int,
                            diagonal: bool = False) -> np.ndarray:
    """E[conj(1/s(omega_i + X)) / s(omega_j + X)], X ~ Cauchy(gamma_p).

    The Cauchy expectation runs on log_ring_rule(gamma_p, widest_rate):
    center G(0) + sum_k w_k [G(nu_k) + G(-nu_k)], a weighted Gram matrix of
    the shifted inverse filters. s(-x) = conj s(x) makes the -nu_k half at
    omega the conjugated +nu_k half at -omega, so the ring is walked once,
    RING_BLOCK nodes at a time, with +nu_k and half the center on the sorted
    grid u of +-omega (omega itself on a tan-map grid); np.flip maps u to -u
    and adds the mirror. diagonal=True forms only the real E|s(omega_j + X)|^-2.
    """
    nodes, ring_w, center = log_ring_rule(pops.gamma_p, widest_rate(params, pops),
                                          per_unit=per_unit)
    u = np.unique(np.concatenate((omega, -omega)))
    if diagonal:
        out = 0.5 * center / loop_abs2(params, pops, u)
    else:
        out = blas.zherk(0.5 * center, 1.0 / loop_denominator(params, pops, u[None]), trans=2)
    for start in range(0, nodes.size, RING_BLOCK):
        shifted = u + nodes[start:start + RING_BLOCK, None]
        w = ring_w[start:start + RING_BLOCK]
        if diagonal:
            out += w @ (1.0 / loop_abs2(params, pops, shifted))
        else:
            # out += a^H a, a = sqrt(w) / s, on the upper triangle (zherk)
            a = np.sqrt(w)[:, None] / loop_denominator(params, pops, shifted)
            out = blas.zherk(1.0, a, beta=1.0, c=out, trans=2, overwrite_c=1)
    if not diagonal:
        out = np.triu(out) + np.conj(np.triu(out, 1)).T
    out = out + np.conj(np.flip(out))
    at = np.searchsorted(u, omega)
    return out[at] if diagonal else out[np.ix_(at, at)]
