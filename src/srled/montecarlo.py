"""Stochastic oracle: classical-noise records of the linear Langevin field.

Each record synthesizes, on a power-of-two time grid,

* the zero-order drive: white complex Gaussian whose filtered spectrum is
  the zero-order photon spectrum,
* the population-noise channel: a colored complex Gaussian b(t) with power
  spectrum c(omega) (frequency-domain synthesis) times a real
  Ornstein-Uhlenbeck path delta_N(t) (exact AR(1) recursion, rate gamma_p,
  variance delta2_ne), multiplied in the time domain so the spectral
  convolution is realized exactly on the discrete grid,

then filters by 1/s(omega) and returns the complex field a(t). Moments of
|a|^2 estimate n and g2; the classical Gaussian pairings reproduce the same
second- and fourth-order combinatorics as the model's noise algebra, so the
estimates must agree with the analytic pipeline.

Per-record RNG streams are counter-based (Philox keyed by master seed and
record index), so ensembles are bit-reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import (
    GridMismatchError,
    InvalidParamsError,
    StepTooLargeError,
    TooFewRecordsError,
)
from .model import (
    FrequencyGrid,
    ModelParams,
    Populations,
    SpectralDensity,
    commutator_spectrum,
    loop_denominator,
    widest_rate,
)

_MIN_RECORDS = 30


@dataclass(frozen=True)
class MonteCarloConfig:
    """Record geometry and ensemble size.

    duration   record length T (units of 1/gamma_perp); dt = T / n_samples
    n_samples  samples per record, a power of two
    n_records  ensemble size
    seed       master seed for the counter-based record streams
    """

    duration: float
    n_samples: int
    n_records: int = 500
    seed: int = 0

    def __post_init__(self):
        if not self.duration > 0.0:
            raise InvalidParamsError("duration must be positive")
        if self.n_samples < 2 or self.n_samples & (self.n_samples - 1):
            raise InvalidParamsError("n_samples must be a power of two >= 2")
        if self.n_records < 1:
            raise InvalidParamsError("n_records must be >= 1")
        if self.seed < 0 or self.seed > 2 ** 63:
            raise InvalidParamsError("seed must fit in a 64-bit key")

    @property
    def dt(self) -> float:
        return self.duration / self.n_samples

    def omegas(self) -> np.ndarray:
        """Angular frequencies of the record bins, FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.dt)

    def frequency_grid(self) -> FrequencyGrid:
        """The record grid in sorted (fftshift) order."""
        return FrequencyGrid(omega_max=np.pi / self.dt, n_points=self.n_samples, layout="fft")

    @classmethod
    def for_model(cls, params: ModelParams, pops: Populations,
                  n_records: int = 500, seed: int = 0,
                  min_cycles: float = 50.0,
                  nyquist_factor: float = 10.0) -> "MonteCarloConfig":
        """Pick dt and T from the model scales.

        Nyquist >= nyquist_factor * (widest spectral rate) and
        T >= min_cycles / gamma_p so the record resolves both the broad
        field spectrum and the narrow population spectrum.
        """
        if pops.gamma_p <= 0.0:
            raise InvalidParamsError("gamma_p must be positive")
        dt = np.pi / (nyquist_factor * widest_rate(params, pops))
        n = 1 << max(1, math.ceil(math.log2(min_cycles / pops.gamma_p / dt)))
        return cls(duration=n * dt, n_samples=n, n_records=n_records, seed=seed)


def record_rng(config: MonteCarloConfig, record_index: int) -> np.random.Generator:
    """Independent counter-based stream for one record."""
    key = np.array([np.uint64(config.seed), np.uint64(record_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_config(params: ModelParams, pops: Populations, config: MonteCarloConfig) -> None:
    """Enforce the resolution invariants before simulating."""
    if pops.gamma_p > 0.0 and config.duration < 50.0 / pops.gamma_p * (1.0 - 1e-9):
        raise InvalidParamsError(
            f"duration {config.duration:.3g} cannot resolve gamma_p={pops.gamma_p:.3g}; "
            f"need at least {50.0 / pops.gamma_p:.3g}"
        )
    nyquist = np.pi / config.dt
    if nyquist < 10.0 * max(params.kappa, params.gamma_perp) * (1.0 - 1e-9):
        raise InvalidParamsError(
            f"Nyquist {nyquist:.3g} below 10x the widest decay rate"
        )


def synthesize_colored_noise(spectrum: SpectralDensity, config: MonteCarloConfig,
                             rng: np.random.Generator) -> np.ndarray:
    """Stationary circular complex Gaussian series with the given spectrum.

    The spectrum must be sampled on the record grid (sorted order). The
    series x(t_j) = sum_m sqrt(S(omega_m)/T) xi_m exp(-i omega_m t_j) has
    Var x = (2 pi)^-1 Int S d omega over the record band, with independent
    real and imaginary quadratures.
    """
    if spectrum.grid != config.frequency_grid():
        raise GridMismatchError("spectrum is not sampled on the record grid")
    vals = np.fft.ifftshift(spectrum.values)  # sorted -> fft bin order
    if not np.any(vals > 0.0):
        return np.zeros(config.n_samples, dtype=complex)
    xi = (rng.standard_normal(config.n_samples)
          + 1j * rng.standard_normal(config.n_samples)) / np.sqrt(2.0)
    coeffs = np.sqrt(vals / config.duration) * xi
    return np.fft.fft(coeffs)


def ou_population_path(pops: Populations, config: MonteCarloConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Exact stationary OU samples: rate gamma_p, variance delta2_ne.

    The OU process observed at step dt is exactly AR(1) with
    rho = exp(-gamma_p dt), so the recursion introduces no discretization
    bias. The first sample is an exact stationary draw, so no burn-in is
    needed.
    """
    if pops.delta2_ne == 0.0:
        return np.zeros(config.n_samples)
    if pops.gamma_p * config.dt > 0.1:
        raise StepTooLargeError(
            f"gamma_p dt = {pops.gamma_p * config.dt:.3g} > 0.1; refine the sampling"
        )
    rho = math.exp(-pops.gamma_p * config.dt)
    sigma = math.sqrt(pops.delta2_ne * (1.0 - rho * rho))
    innov = rng.standard_normal(config.n_samples)
    # x[0] = init, x[j] = rho x[j-1] + sigma innov[j]; lfilter computes
    # y[j] = drive[j] + rho y[j-1]
    drive = sigma * innov
    drive[0] = math.sqrt(pops.delta2_ne) * innov[0]
    return lfilter([1.0], [1.0, -rho], drive)


def simulate_field_record(params: ModelParams, pops: Populations,
                          config: MonteCarloConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """One complex field record a(t) of the linear below-threshold model."""
    omegas = config.omegas()
    s_vals = loop_denominator(params, pops, omegas)
    # zero-order drive: flat PSD chosen so the filtered record reproduces
    # the zero-order photon spectrum (kappa gamma_perp^2 / 2 N_th) N_e / |s|^2
    drive_psd = 0.5 * params.kappa * params.gamma_perp ** 2 * pops.n_excited / params.n_threshold
    xi = (rng.standard_normal(config.n_samples)
          + 1j * rng.standard_normal(config.n_samples)) / np.sqrt(2.0)
    coeffs = np.sqrt(drive_psd / config.duration) * xi
    if pops.delta2_ne > 0.0:
        grid = config.frequency_grid()
        c_sorted = SpectralDensity(grid, commutator_spectrum(params, pops, grid.omegas()), label="c")
        b = synthesize_colored_noise(c_sorted, config, rng)
        delta_n = ou_population_path(pops, config, rng)
        product = np.conj(b) * delta_n
        coeffs = coeffs + (params.kappa * params.gamma_perp / params.n_threshold) \
            * np.fft.ifft(product)
    return np.fft.fft(coeffs / s_vals)


@dataclass(frozen=True)
class MomentEstimate:
    """Ensemble estimates of n and g2 with record-scatter standard errors."""

    n: float
    g2: float
    n_se: float
    g2_se: float
    n_records: int

    def __post_init__(self):
        if not (self.n_se > 0.0 and self.g2_se > 0.0):
            raise InvalidParamsError("standard errors must be positive")


def estimate_moments(records) -> MomentEstimate:
    """n = <<|a|^2>>, g2 = <<|a|^4>> / n^2 over an ensemble of records.

    Standard errors come from record-to-record scatter: directly for n,
    leave-one-out jackknife for the ratio estimator g2.
    """
    intensity_means = []
    fourth_means = []
    for rec in records:
        i2 = np.abs(np.asarray(rec)) ** 2
        intensity_means.append(float(np.mean(i2)))
        fourth_means.append(float(np.mean(i2 * i2)))
    n_rec = len(intensity_means)
    if n_rec < _MIN_RECORDS:
        raise TooFewRecordsError(f"need at least {_MIN_RECORDS} records, got {n_rec}")
    nr = np.asarray(intensity_means)
    qr = np.asarray(fourth_means)
    n_hat = float(np.mean(nr))
    q_hat = float(np.mean(qr))
    if n_hat <= 0.0:
        raise InvalidParamsError("ensemble intensity is zero; no field to analyze")
    g2_hat = q_hat / n_hat ** 2
    n_se = float(np.std(nr, ddof=1) / np.sqrt(n_rec))
    loo_n = (n_hat * n_rec - nr) / (n_rec - 1)
    loo_q = (q_hat * n_rec - qr) / (n_rec - 1)
    loo_g2 = loo_q / loo_n ** 2
    g2_se = float(np.sqrt((n_rec - 1) / n_rec * np.sum((loo_g2 - np.mean(loo_g2)) ** 2)))
    return MomentEstimate(n=n_hat, g2=g2_hat, n_se=n_se, g2_se=g2_se, n_records=n_rec)


def run_monte_carlo(params: ModelParams, pops: Populations,
                    config: MonteCarloConfig) -> MomentEstimate:
    """Simulate the ensemble and estimate moments, deterministically."""
    check_config(params, pops, config)
    records = (
        simulate_field_record(params, pops, config, record_rng(config, i))
        for i in range(config.n_records)
    )
    return estimate_moments(records)
