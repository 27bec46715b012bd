"""Adaptive integration and spectral convolution.

Adaptive 1-D and 2-D integrals are backed by QUADPACK (scipy.integrate)
behind an IntegrationSpec contract that turns unreported convergence into a
NonConvergenceError. The hot, fixed-order rules used by the cumulant code
live here too:

* ``tan_map_rule``: Gauss-Legendre on the whole real line through
  omega = scale * tan(phi), exponentially convergent for the rational
  spectra of this model (they decay at least like omega^-2),
* ``log_ring_rule``: trapezoid in log omega for Cauchy-kernel smoothing
  E[G(X)], X ~ Cauchy(gamma), whose integrand carries structure on two
  widely separated scales (gamma_p and the loop-filter scale).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.signal import fftconvolve

from .errors import GridMismatchError, NonConvergenceError, TailTruncationWarning
from .model import SpectralDensity


@dataclass(frozen=True)
class IntegrationSpec:
    """Tolerances and budget for adaptive quadrature.

    half_width=None integrates over the whole real line; a finite value
    integrates [-half_width, half_width] (the grid rule already guarantees
    sub-1e-6 tail mass for the model's integrands).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 200
    half_width: float | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.half_width is not None and not self.half_width > 0.0:
            raise ValueError("half_width must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _limits(spec: IntegrationSpec) -> tuple[float, float]:
    if spec.half_width is None:
        return -np.inf, np.inf
    return -spec.half_width, spec.half_width


def _quad_real(func, spec: IntegrationSpec) -> tuple[float, float]:
    lo, hi = _limits(spec)
    with warnings.catch_warnings():
        # QUADPACK warns and still returns its best estimate; judge by the
        # reported error instead of aborting on the warning itself.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            func, lo, hi,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
        )
    if err > max(spec.abs_tol, spec.rel_tol * abs(val)) * 50.0:
        raise NonConvergenceError(
            f"reported error {err:.3g} exceeds tolerance for value {val:.6g}"
        )
    return val, err


def integrate_1d(func, spec: IntegrationSpec = IntegrationSpec()):
    """Adaptive integral of a real or complex integrand over omega.

    Returns (value, error_estimate). Raises NonConvergenceError when the
    subdivision budget is exhausted or the reported error stays far above
    the requested tolerance.
    """
    lo, hi = _limits(spec)
    probe = func(0.25 * (lo + hi) if np.isfinite(lo) else 0.1234)
    if np.iscomplexobj(probe) or isinstance(probe, complex):
        re, re_err = _quad_real(lambda w: func(w).real, spec)
        im, im_err = _quad_real(lambda w: func(w).imag, spec)
        return complex(re, im), float(np.hypot(re_err, im_err))
    return _quad_real(func, spec)


def integrate_2d(func, spec: IntegrationSpec = IntegrationSpec()):
    """Iterated adaptive integral of func(omega1, omega2) over the plane.

    The inner integral runs at a tighter tolerance than the outer one so the
    reported outer error estimate stays meaningful.
    """
    lo, hi = _limits(spec)
    inner_spec = IntegrationSpec(
        rel_tol=max(spec.rel_tol * 1e-2, 1e-13),
        abs_tol=max(spec.abs_tol * 1e-2, 1e-15),
        max_subdivisions=spec.max_subdivisions,
        half_width=spec.half_width,
    )

    def outer(w2):
        val, _ = _quad_real(lambda w1: func(w1, w2), inner_spec)
        return val

    return _quad_real(outer, spec)


# ---------------------------------------------------------------------------
# Fixed rules for the hot paths
# ---------------------------------------------------------------------------

def tan_map_rule(scale: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for Int_R f(omega) d omega via omega = scale tan(phi)."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    phi = 0.5 * np.pi * x
    cos = np.cos(phi)
    return scale * np.tan(phi), scale * 0.5 * np.pi * w / (cos * cos)


def log_ring_rule(gamma: float, scale: float, per_unit: int = 24,
                  pad: float = 16.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Cauchy expectation E[G(X)], X ~ Cauchy(gamma), on a log ring.

    Returns (omega, weights, center) with
    E[G(X)] ~ center G(0) + sum_k weights_k [G(omega_k) + G(-omega_k)]
    for a G that is smooth at 0 and vanishes at infinity. The weights are
    the trapezoid rule in t = log omega for Int_0^inf K(omega) g(omega)
    d omega, K the kernel (gamma/pi)/(omega^2+gamma^2), between
    omega_lo = gamma e^-pad and omega_top = max(scale, gamma) e^+pad;
    g = G(omega) + G(-omega) - 2 G(0) is O(omega^2) below omega_lo, so
    that end needs no correction. Beyond omega_top, g tends to -2 G(0),
    not to 0: the Cauchy mass there, (1/pi) arctan(gamma/omega_top) per
    side, goes with G(infinity) = 0 and is taken out of the center weight.
    """
    t_lo = np.log(gamma) - pad
    t_hi = np.log(max(scale, gamma)) + pad
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


# ---------------------------------------------------------------------------
# Discrete spectral convolution
# ---------------------------------------------------------------------------

_EDGE_DECAY = 1e-6


def spectral_convolution(f: SpectralDensity, g: SpectralDensity) -> SpectralDensity:
    """(f * g)(omega) = (2 pi)^-1 Int f(omega - w) g(w) dw on the grid.

    Zero-padded fast convolution; total mass satisfies
    mass(f*g) = mass(f) mass(g) / (2 pi) up to edge truncation. Emits
    TailTruncationWarning when either density has not decayed to 1e-6 of its
    peak at the grid edge.
    """
    if f.grid != g.grid:
        raise GridMismatchError("spectral densities live on different grids")
    if f.grid.layout != "symmetric":
        raise GridMismatchError("convolution needs a symmetric grid")
    for dens in (f, g):
        peak = float(np.max(dens.values))
        if peak > 0.0:
            edge = max(dens.values[0], dens.values[-1])
            if edge > _EDGE_DECAY * peak:
                warnings.warn(
                    f"spectrum {dens.label!r} retains {edge / peak:.2e} of its peak "
                    "at the grid edge; convolution tails will be truncated",
                    TailTruncationWarning,
                    stacklevel=2,
                )
    vals = fftconvolve(f.values, g.values, mode="same") * (f.grid.spacing / (2.0 * np.pi))
    vals = np.maximum(vals, 0.0)  # clip the tiny negative ringing of the FFT
    return SpectralDensity(f.grid, vals, label=f"conv({f.label},{g.label})")
