"""Independent oracles of the library's numerical paths, in one place.

An oracle must not share the code it checks: nothing here imports a name
that srled.quadrature or srled.g2 defines, directly or through srled, and
no module of srled imports this one (tests/test_imports.py checks both). Adaptive
integrals call scipy.integrate.quad directly, with their own tolerances
and convergence check.

* ``kernel_full_residues``: the full-mode cumulant kernel
  g2._kernel_matrix(..., "full") as a closed residue sum over simple
  poles, refused where two poles nearly coincide,
* ``kernel_full_adaptive``: the same kernel by QUADPACK on the
  tan-substituted Cauchy average, with no exclusion,
* ``cumulant_delta_product_form``: the delta-mode noise_cumulant as the
  square of a 1-D integral,
* ``cumulant_full_root_sum``: the full-mode noise_cumulant as a finite sum
  over the roots of s, the population rate and the orderings of four times,
* ``mean_term_cancellation``: the exact-convolution n of
  mean_photon_quadrature against nested adaptive quadrature that smooths
  the other factor,
* ``reference_exact_n``: the nested-QUADPACK exact n of
  perfbench/reference.py, loaded by path.
"""

import functools
import importlib.util
import itertools
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate

from srled.errors import NonConvergenceError
from srled.model import (
    _check_below_threshold,
    commutator_spectrum,
    fluctuation_coupling,
    loop_abs2,
    widest_rate,
)
from srled.photon import mean_photon_quadrature

# QUADPACK subdivision budget of each adaptive integral here
QUAD_LIMIT = 200


def _quad(func, lo, hi, rel_tol, abs_tol, points=None):
    """QUADPACK integral over [lo, hi], split at the finite points if any;
    NonConvergenceError when the reported error stays 50x above the
    requested tolerance."""
    with warnings.catch_warnings():
        # judge by the reported error, not by QUADPACK's warning
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(func, lo, hi, epsabs=abs_tol, epsrel=rel_tol,
                                  limit=QUAD_LIMIT, points=points)
    if err > max(abs_tol, rel_tol * abs(val)) * 50.0:
        raise NonConvergenceError(
            f"reported error {err:.3g} exceeds tolerance for value {val:.6g}"
        )
    return val


# closest approach, in units of B = kappa + gamma_perp/2, of two poles of the
# residue sum (i gamma_p and z_k - omega_a) that kernel_full_residues
# accepts: near a pair its error grows like 1e-16 (B / gap)^2, 1.5e-13 at
# a gap of 0.01 B
RESIDUE_MIN_GAP = 0.01


def _loop(params, pops):
    """(s, s*) continued to complex arguments and their (A, B)."""
    a = 0.5 * params.kappa * params.gamma_perp * (1.0 - pops.inversion / params.n_threshold)
    b = params.kappa + 0.5 * params.gamma_perp

    def s_of(z):
        return (1j * z - params.kappa) * (1j * z - 0.5 * params.gamma_perp) \
            - 0.5 * params.kappa * params.gamma_perp * pops.inversion / params.n_threshold

    def sbar_of(z):
        return (-1j * z - params.kappa) * (-1j * z - 0.5 * params.gamma_perp) \
            - 0.5 * params.kappa * params.gamma_perp * pops.inversion / params.n_threshold

    return s_of, sbar_of, a, b


def kernel_full_residues(params, pops, omega_a, omega_b):
    """Residue-calculus oracle for the full-mode cumulant kernel.

    Closing the Cauchy average in the upper half plane picks up the kernel
    pole at i gamma_p plus the two zeros z_k - omega_a of the continued
    s*(omega + a); exact for this rational integrand, fully independent of
    quadrature. Each residue divides by the distance between two of these
    poles, so the sum cancels where they nearly coincide: at 4A = B^2
    (z_1 = z_2, EX1 with P = 1, where it would return NaN) and at
    gamma_p = Im z_k with omega_a = Re z_k. Its domain leaves both out:
    ValueError when two poles lie within RESIDUE_MIN_GAP * B of each
    other; kernel_full_adaptive covers those inputs.
    """
    gamma = pops.gamma_p
    s_of, sbar_of, a, b = _loop(params, pops)
    sq = np.sqrt(complex(4.0 * a - b * b))
    z1, z2 = (1j * b + sq) / 2.0, (1j * b - sq) / 2.0
    gap = min(abs(z1 - z2), abs(1j * gamma - z1 + omega_a), abs(1j * gamma - z2 + omega_a))
    if gap < RESIDUE_MIN_GAP * b:
        raise ValueError(f"two residue poles {gap:.3g} apart, below {RESIDUE_MIN_GAP} B")

    val = 1.0 / (s_of(1j * gamma + omega_b) * sbar_of(1j * gamma + omega_a))
    for zk in (z1, z2):
        dsbar = -2.0 * zk + 1j * b
        wk = zk - omega_a
        kern = (gamma / np.pi) / (wk * wk + gamma * gamma)
        val += 2j * np.pi * kern / (s_of(wk + omega_b) * dsbar)
    return pops.delta2_ne * val


def kernel_full_adaptive(params, pops, omega_a, omega_b):
    """Adaptive oracle for the full-mode cumulant kernel, with no exclusion.

    x = gamma_p tan(theta) maps the Cauchy(gamma_p) density onto
    d theta / pi on (-pi/2, pi/2), as perfbench/reference.py does. QUADPACK
    integrates the real and imaginary parts of 1 / [s*(omega_a + x)
    s(omega_b + x)] apart, split at the images of the line centres
    x = Re z_k - omega_a and Re z_k - omega_b, to 1e-12 relative; the
    absolute tolerance is tied to Int |integrand|, so a part that
    vanishes (the imaginary part on the diagonal) still converges. Where
    the map squeezes the lines into a sliver by +-pi/2 (gamma_p = 1.1e-4 at
    omega = (30, -20)) QUADPACK cannot reach that and NonConvergenceError
    is raised. Against 40-digit mpmath it agreed to 3e-12 or better at
    |omega| <= 2, from gamma_par = 1e-4 to 1 and near threshold.
    """
    gamma = pops.gamma_p
    s_of, sbar_of, a, b = _loop(params, pops)
    centre = 0.5 * np.sqrt(max(4.0 * a - b * b, 0.0))
    peaks = sorted({float(np.arctan((c - w) / gamma))
                    for c in (centre, -centre) for w in (omega_a, omega_b)})

    def f(th):
        x = gamma * np.tan(th)
        return 1.0 / (sbar_of(omega_a + x) * s_of(omega_b + x))

    def part(g, rel_tol, abs_tol):
        return _quad(g, -0.5 * np.pi, 0.5 * np.pi, rel_tol, abs_tol, points=peaks)

    mass = part(lambda th: abs(f(th)), 1e-6, 1e-300)
    val = part(lambda th: f(th).real, 1e-12, 1e-13 * mass) \
        + 1j * part(lambda th: f(th).imag, 1e-12, 1e-13 * mass)
    return pops.delta2_ne * val / np.pi


def cumulant_delta_product_form(params, pops) -> float:
    """[2 delta2_ne (2 pi)^-1 Int c/|s|^2 d omega]^2, the delta-mode value.

    Independent reference for the 2-D tensor quadrature in noise_cumulant;
    the quadratic dependence on delta2_ne follows from the kernel being
    linear in it.
    """
    val = _quad(lambda w: commutator_spectrum(params, pops, w) / loop_abs2(params, pops, w),
                -np.inf, np.inf, rel_tol=1e-10, abs_tol=1e-13)
    return (2.0 * pops.delta2_ne * val / (2.0 * np.pi)) ** 2


def cumulant_full_root_sum(params, pops) -> float:
    """The full-mode noise_cumulant C as a finite sum; no quadrature.

    With x+- the roots of x^2 - B x + A (s(omega) = (i omega - x+)
    (i omega - x-)), 1/s is the transform of the impulse response
    g(t) = (e^(-x- t) - e^(-x+ t)) / (x+ - x-), t >= 0, and
    c(omega) = alpha/(omega^2 + x+^2) + beta/(omega^2 + x-^2) that of
    r(tau) = Sum_j r_j e^(-x_j |tau|), r_j = coefficient / (2 x_j), so
    r(0) = 1. Parseval in both frequencies of the cumulant integral gives

        C = 4 delta2_ne^2 Int_{t, t', u, u' >= 0} g(t) g(t') g(u) g(u')
            e^(-gamma_p |t - t'|) e^(-gamma_p |u - u'|) r(t - u) r(t' - u').

    Each g and r chooses one exponential (16 x 4 choices); on each of the
    24 orderings of the four times the integrand is then one exponential,
    whose integral is the product over the four gaps, from 0 up through
    the ordered times, of 1/(the sum of the rates that span the gap).
    Near 4A = B^2 the terms cancel like eps/(x+ - x-)^2: ValueError where
    |x+ - x-| < RESIDUE_MIN_GAP * B, as kernel_full_residues.
    """
    _, _, a, b = _loop(params, pops)
    root = np.sqrt(complex(b * b - 4.0 * a))
    xp, xm = (b + root) / 2.0, (b - root) / 2.0
    if abs(xp - xm) < RESIDUE_MIN_GAP * b:
        raise ValueError(f"roots of s {abs(xp - xm):.3g} apart, below {RESIDUE_MIN_GAP} B")
    # c = (2 kappa omega^2 + A) / ((omega^2 + x+^2)(omega^2 + x-^2)) in partial fractions
    k = params.kappa
    r_terms = ((xp, (a - 2.0 * k * xp * xp) / (xm * xm - xp * xp) / (2.0 * xp)),
               (xm, (a - 2.0 * k * xm * xm) / (xp * xp - xm * xm) / (2.0 * xm)))
    g_terms = ((xm, 1.0 / (xp - xm)), (xp, -1.0 / (xp - xm)))
    gamma = pops.gamma_p
    total = 0.0
    # the times are t, t', u, u' = 0, 1, 2, 3
    for g_choice in itertools.product(g_terms, repeat=4):
        g_weight = np.prod([w for _, w in g_choice])
        for (xj, rj), (xk, rk) in itertools.product(r_terms, repeat=2):
            links = ((0, 1, gamma), (2, 3, gamma), (0, 2, xj), (1, 3, xk))
            for order in itertools.permutations(range(4)):
                term = g_weight * rj * rk
                for gap in range(4):
                    later = order[gap:]  # the times above this gap
                    rate = sum(g_choice[i][0] for i in later) \
                        + sum(x for i, j, x in links if (i in later) != (j in later))
                    term /= rate
                total += term
    return 4.0 * pops.delta2_ne ** 2 * float(total.real)


def mean_term_cancellation(params, pops) -> tuple[float, float]:
    """Diagnostic for the cancellation between the cumulant's disconnected
    part and the squared-mean subtraction.

    Both equal [(2 pi)^-1 Int (c * pop)(w) / |s(w)|^2 dw] but are evaluated
    here by different routes: (a) nested adaptive quadrature that smooths
    c with the Cauchy kernel first, then integrates against |s|^-2; (b) the
    exact-convolution mean-photon path, a closed form in (A, B, kappa,
    gamma_p). The two sides share only the spectrum evaluators. Returns
    (side_a, side_b); agreement confirms the disconnected terms drop out
    of g2 exactly.
    """
    _check_below_threshold(params, pops)
    gamma = pops.gamma_p
    c_peak = float(np.max(commutator_spectrum(
        params, pops, np.linspace(0.0, 3.0 * widest_rate(params, pops), 301))))

    def smoothed_c(w):
        # E over Cauchy(gamma) of c(w - X), via the exact tan substitution on
        # [-pi/2, pi/2]; absolute tolerance tied to the spectrum's peak so the
        # far tails (tiny values, roundoff-limited) cannot trip the
        # convergence check
        val = _quad(lambda th: commutator_spectrum(params, pops, w - gamma * np.tan(th)),
                    -0.5 * np.pi, 0.5 * np.pi, rel_tol=1e-10, abs_tol=1e-10 * c_peak)
        return val / np.pi

    side_a = _quad(lambda w: smoothed_c(w) / loop_abs2(params, pops, w),
                   -np.inf, np.inf, rel_tol=1e-8, abs_tol=1e-12)
    side_a *= pops.delta2_ne / (2.0 * np.pi)
    mp = mean_photon_quadrature(params, pops, mode="exact")
    side_b = (mp.n_total - mp.n0) / fluctuation_coupling(params) ** 2
    return side_a, side_b


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"


@functools.lru_cache(maxsize=1)
def _reference():
    spec = importlib.util.spec_from_file_location("srled_exact_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_exact_n(params) -> tuple[float, float]:
    """(n, error estimate) of the exact-convolution mean photon number by
    the nested QUADPACK of perfbench/reference.py, which imports nothing
    from srled. 0.07-0.4 s at 0.5-0.999 N_th, 1-2.5 s at EX1 with
    N_0 = 1e5-1e6; at gamma_par = 1e-4 it is off by about 4e-8."""
    return _reference().exact_mean_photon(params.kappa, params.gamma_par, params.pump,
                                          params.n_threshold, params.n_emitters)
