"""Physical parameters, steady-state populations, and the two basic spectra.

Everything is expressed in units of the polarisation decay rate gamma_perp,
so gamma_perp = 1 is the unit of every rate and not a parameter. The model
describes a single-mode two-level LED below threshold:

* ``loop_denominator`` s(omega) = (i omega - kappa)(i omega - gamma_perp/2)
  - (kappa gamma_perp / 2) N / N_th, the linear-response denominator whose
  zeros set the emission line shape,
* ``commutator_spectrum`` c(omega) = [2 kappa omega^2
  + (kappa gamma_perp^2 / 2)(1 - N/N_th)] / |s(omega)|^2, the field
  commutator spectrum, normalized so (2 pi)^-1 Int c d omega = 1,
* ``population_spectrum``, the Lorentzian spectrum of the upper-state
  population fluctuations (an Ornstein-Uhlenbeck process with rate
  gamma_P = gamma_par (P+1) and variance delta2_ne).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import AboveThresholdError, InvalidParamsError, _require_integers


@dataclass(frozen=True, slots=True)
class ModelParams:
    """One LED configuration.

    kappa        cavity decay rate (units of gamma_perp)
    gamma_par    population decay rate (units of gamma_perp)
    pump         dimensionless pumping rate P > 0: at P = 0 no emitter is
                 excited, no light is emitted, and g2 = <n^2>/<n>^2 is 0/0
    n_threshold  threshold inversion N_th > 0
    n_emitters   total emitter count N_0 >= 1
    """

    kappa: float
    gamma_par: float
    pump: float
    n_threshold: float
    n_emitters: float
    # the polarisation decay rate, the unit of every rate; not a field
    gamma_perp: ClassVar[float] = 1.0

    def __post_init__(self):
        for name in ("kappa", "gamma_par", "pump", "n_threshold"):
            if not getattr(self, name) > 0.0 or not math.isfinite(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be positive and finite, got {float(getattr(self, name))!r}")
        if not self.n_emitters >= 1.0 or not math.isfinite(self.n_emitters):
            raise InvalidParamsError(f"n_emitters must be >= 1 and finite, got {float(self.n_emitters)!r}")
        coupling = fluctuation_coupling(self)
        if not coupling > 0.0 or not math.isfinite(coupling):
            raise InvalidParamsError("kappa / n_threshold is not a positive finite number")

    @property
    def kappa_ratio(self) -> float:
        """The adiabaticity parameter 2 kappa / gamma_perp."""
        return 2.0 * self.kappa

    @classmethod
    def from_ratio(cls, kappa_ratio: float, **kwargs) -> "ModelParams":
        """Build from 2 kappa / gamma_perp instead of kappa."""
        return cls(kappa=0.5 * kappa_ratio, **kwargs)


@dataclass(frozen=True, slots=True)
class Populations:
    """Steady-state populations and their fluctuation parameters.

    n_excited   mean upper-state population N_e
    inversion   N = N_e - N_g, N_g the mean lower-state population
    delta2_ne   upper-state population fluctuation dispersion
    gamma_p     pump-broadened population decay rate gamma_par (P+1)

    Only states that derive_populations can produce, and their copy
    without_fluctuations, are built: InvalidParamsError unless gamma_p and
    n_excited are positive, delta2_ne is nonnegative, and all four are
    finite.
    """

    n_excited: float
    inversion: float
    delta2_ne: float
    gamma_p: float

    def __post_init__(self):
        for name in ("n_excited", "gamma_p"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidParamsError(f"{name} must be positive and finite, got {float(getattr(self, name))!r}")
        if not 0.0 <= self.delta2_ne < math.inf:
            raise InvalidParamsError(f"delta2_ne must be >= 0 and finite, got {float(self.delta2_ne)!r}")
        if not math.isfinite(self.inversion):
            raise InvalidParamsError(f"inversion must be finite, got {float(self.inversion)!r}")

    def without_fluctuations(self) -> "Populations":
        """Counterfactual copy with population fluctuations disabled."""
        return replace(self, delta2_ne=0.0)


def derive_populations(params: ModelParams) -> Populations:
    """Closed-form steady state for an incoherently pumped two-level medium.

    N_e = P N_0 / (P+1), N_e + N_g = N_0, delta2_ne = N_e / (P+1). The
    dispersion is the Langevin diffusion 2 D_NeNe = gamma_par (P N_g + N_e)
    over twice the rate: delta2_ne = gamma_par (P N_g + N_e) / (2 gamma_p).
    Raises AboveThresholdError when the inversion reaches n_threshold, where
    the below-threshold model loses meaning.
    """
    p = params.pump
    n_e = p * params.n_emitters / (p + 1.0)
    n_g = params.n_emitters - n_e
    pops = Populations(
        n_excited=n_e,
        inversion=n_e - n_g,
        delta2_ne=n_e / (p + 1.0),
        gamma_p=params.gamma_par * (p + 1.0),
    )
    _check_below_threshold(params, pops)
    return pops


def fluctuation_coupling(params: ModelParams) -> float:
    """kappa gamma_perp / N_th, the coupling of the population noise into the field."""
    return params.kappa / params.n_threshold


def zero_order_level(params: ModelParams, pops: Populations) -> float:
    """(kappa gamma_perp^2 / 2 N_th) N_e, the zero-order numerator of n(omega)."""
    return 0.5 * params.kappa * pops.n_excited / params.n_threshold


def loop_coefficients(params: ModelParams, pops: Populations) -> tuple[float, float]:
    """(A, B) with |s(omega)|^2 = (A - omega^2)^2 + (B omega)^2.

    A = s(0) = (kappa gamma_perp / 2)(1 - N/N_th); B = kappa + gamma_perp/2.
    """
    a = 0.5 * params.kappa * (1.0 - pops.inversion / params.n_threshold)
    b = params.kappa + 0.5
    return a, b


def _check_below_threshold(params: ModelParams, pops: Populations) -> None:
    if pops.inversion >= params.n_threshold:
        raise AboveThresholdError(
            f"inversion {pops.inversion:.6g} >= threshold {params.n_threshold:.6g}; "
            "the linear below-threshold model does not apply"
        )


def loop_denominator(params: ModelParams, pops: Populations, omega):
    """s(omega), complex; accepts scalars or arrays."""
    w = np.asarray(omega, dtype=float)
    s = (1j * w - params.kappa) * (1j * w - 0.5) \
        - 0.5 * params.kappa * (pops.inversion / params.n_threshold)
    return complex(s) if w.ndim == 0 else s


def loop_abs2(params: ModelParams, pops: Populations, omega):
    """|s(omega)|^2 = (A - omega^2)^2 + (B omega)^2 on a float or an array."""
    a, b = loop_coefficients(params, pops)
    w2 = omega * omega
    d = a - w2
    return d * d + b * b * w2


def commutator_spectrum(params: ModelParams, pops: Populations, omega):
    """c(omega): strictly positive, even, with (2 pi)^-1 Int c = 1."""
    _check_below_threshold(params, pops)
    a, b = loop_coefficients(params, pops)
    w2 = omega * omega
    d = a - w2
    return (2.0 * params.kappa * w2 + a) / (d * d + b * b * w2)


def population_spectrum(pops: Populations, omega):
    """Lorentzian spectrum of the population fluctuations.

    2 gamma_p delta2_ne / (omega^2 + gamma_p^2); its (2 pi)^-1 integral is
    delta2_ne. Identically zero when fluctuations are disabled.
    """
    gamma = pops.gamma_p
    return 2.0 * gamma * pops.delta2_ne / (omega * omega + gamma * gamma)


def validity_ratio(params: ModelParams) -> float:
    """gamma_par / sqrt(kappa gamma_perp).

    The narrow-population-spectrum (delta) approximation behind the closed
    forms holds when this is small. Sweep rows above 0.1 carry the
    ``validity_ratio_above_0.1`` flag; the CLI prints the ratio.
    """
    return params.gamma_par / math.sqrt(params.kappa)


# ---------------------------------------------------------------------------
# Sampling grids
# ---------------------------------------------------------------------------

# half-width of FrequencyGrid.for_model, in units of the widest spectral rate
GRID_SAFETY = 50.0
# largest FrequencyGrid point count: `srled spectrum` holds four float64
# arrays and writes them one CSV line of about 85 characters at a time, so
# at this count it peaks at about 160 MiB resident (80 MiB of it the
# imports) and writes an 89 MB file
MAX_GRID_POINTS = 2**20 + 1


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform omega grid: odd point count up to MAX_GRID_POINTS, spans
    [-omega_max, omega_max]."""

    omega_max: float
    n_points: int

    def __post_init__(self):
        if not self.omega_max > 0.0 or not math.isfinite(self.omega_max):
            raise InvalidParamsError(f"omega_max must be positive and finite, got {self.omega_max!r}")
        _require_integers(n_points=self.n_points)
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise InvalidParamsError("symmetric grids need an odd point count >= 3")
        if self.n_points > MAX_GRID_POINTS:
            raise InvalidParamsError(
                f"{self.n_points} grid points exceed the budget of {MAX_GRID_POINTS}")

    def omegas(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.n_points)

    @classmethod
    def for_model(cls, params: ModelParams, pops: Populations,
                  n_points: int = 8193) -> "FrequencyGrid":
        """Half-width GRID_SAFETY times widest_rate.

        At 20x the truncated tail mass of the |s|^-2 integrand is near 1e-5;
        the 50x of GRID_SAFETY brings it (and the faster-decaying |s|^-4
        tails) below 1e-6, verified by the doubling-omega_max convergence
        test.
        """
        return cls(omega_max=GRID_SAFETY * widest_rate(params, pops), n_points=n_points)


def slowest_rate(params: ModelParams, pops: Populations) -> float:
    """x-, the smaller real part of the roots of s: x^2 - B x + A, x = i omega.

    The roots are x+- = (B +- sqrt(B^2 - 4A))/2, complex with real part B/2
    when B^2 < 4A. Near threshold A -> 0 and x- ~ A/B -> 0.
    """
    _check_below_threshold(params, pops)
    a, b = loop_coefficients(params, pops)
    disc = b * b - 4.0 * a
    return 0.5 * b if disc <= 0.0 else 2.0 * a / (b + math.sqrt(disc))


def slow_pole_ratio(params: ModelParams, pops: Populations) -> float:
    """gamma_p / x-, the population spectrum's width over the slowest loop rate.

    The closed forms also need this small: near threshold x- ~ A/B -> 0,
    so the loop's slow pole can be narrower than the population Lorentzian
    while validity_ratio stays small (at gamma_par = 0.1 and 0.99 N_th it
    is 0.14, and this ratio 160). The CLI prints it.
    """
    return pops.gamma_p / slowest_rate(params, pops)


def widest_rate(params: ModelParams, pops: Populations) -> float:
    """max(kappa, gamma_perp, sqrt(kappa gamma_perp (1 + |N|/N_th)))."""
    return max(
        params.kappa,
        1.0,
        math.sqrt(params.kappa * (1.0 + abs(pops.inversion) / params.n_threshold)),
    )
