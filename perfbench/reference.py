"""Independent reference for the exact-convolution mean photon number.

Written out from the formulas in the docstrings of ``srled.model`` and
``srled.photon`` and evaluated by nested adaptive quadrature; nothing here is
imported from ``srled``. Rates are in units of gamma_perp.

    s(w)       = (i w - kappa)(i w - gamma_perp/2) - (kappa gamma_perp/2) N/N_th
    c(w)       = [2 kappa w^2 + (kappa gamma_perp^2/2)(1 - N/N_th)] / |s(w)|^2
    K(x)       = (gamma_p/pi) / (x^2 + gamma_p^2)      (Cauchy kernel)
    n_exact    = (2 pi)^-1 Int [z0 + coup^2 delta2_ne (K * c)(w)] / |s(w)|^2 dw

with N_e = P N_0/(P+1), N = N_e - N_g, delta2_ne = N_e/(P+1),
gamma_p = gamma_par (P+1), z0 = (kappa gamma_perp^2 / 2 N_th) N_e and
coup = kappa gamma_perp / N_th. The Lorentzian population spectrum is
2 pi delta2_ne K, so its convolution with c is delta2_ne (K * c). The inner
smoothing uses x = gamma_p tan(theta), which maps K(x) dx to d theta / pi.

At EX1 this gives 0.053147290823083865; an arbitrary-precision (mpmath)
evaluation that moves each pole of c(w) away from the real axis by gamma_p,
the closed form of Cauchy smoothing of a rational function, gives
0.0531472908230838632, the same to 16 significant digits.
Recompute with:  python3 perfbench/reference.py
"""

import math
import warnings

import numpy as np
from scipy import integrate


def exact_mean_photon(kappa, gamma_par, pump, n_threshold, n_emitters, gamma_perp=1.0):
    """(n, error estimate) by nested QUADPACK quadrature."""
    n_e = pump * n_emitters / (pump + 1.0)
    inversion = n_e - (n_emitters - n_e)
    delta2_ne = n_e / (pump + 1.0)
    gamma_p = gamma_par * (pump + 1.0)
    z0 = 0.5 * kappa * gamma_perp ** 2 * n_e / n_threshold
    coup = kappa * gamma_perp / n_threshold

    def abs2_s(w):
        s = (1j * w - kappa) * (1j * w - 0.5 * gamma_perp) \
            - 0.5 * kappa * gamma_perp * inversion / n_threshold
        return s.real * s.real + s.imag * s.imag

    def c(w):
        return (2.0 * kappa * w * w
                + 0.5 * kappa * gamma_perp ** 2 * (1.0 - inversion / n_threshold)) / abs2_s(w)

    def smoothed_c(w):
        peak = [math.atan(w / gamma_p)] if w != 0.0 else None
        val, _ = integrate.quad(lambda th: c(w - gamma_p * math.tan(th)),
                                -0.5 * math.pi, 0.5 * math.pi,
                                epsabs=0.0, epsrel=1e-13, limit=500, points=peak)
        return val / math.pi

    def integrand(w):
        return (z0 + coup * coup * delta2_ne * smoothed_c(w)) / abs2_s(w)

    with warnings.catch_warnings():
        # the inner rule reaches roundoff before 1e-13 and says so; the
        # outer error estimate and the pole-shift check above bound the result
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=500)
    # the integrand is even in w
    return val / math.pi, err / math.pi


if __name__ == "__main__":
    ex1 = dict(kappa=0.5, gamma_par=0.1, pump=0.1, n_threshold=5.0, n_emitters=20.0)
    for gamma_par in (0.1, 0.01):
        n, err = exact_mean_photon(**dict(ex1, gamma_par=gamma_par))
        print(f"gamma_par={gamma_par:g}: n_exact = {n!r} (error estimate {err:.2e})")
