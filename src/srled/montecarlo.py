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

Spectra enter as functions of omega. One private sampler evaluates a
spectrum on the record bins, checks that every sample is finite and
nonnegative, and turns it into the amplitude sqrt(S/T) of each bin; both
``synthesize_colored_noise`` and the ensemble's c(omega) go through it.

An ensemble computes what its records share once: the loop filter s and
the amplitude sqrt(c/T) on the record grid, the drive amplitude and the
AR(1) constants. It then synthesizes records in chunks of consecutive
records. Each row of a chunk is drawn from its own record stream (drive,
colored noise, OU innovations, in that order), the whole chunk is
transformed at once (FFTs and the AR(1) filter along the last axis,
arithmetic in place), and each row is reduced to its <|a|^2> and <|a|^4>
before the worker takes its next chunk. The chunks are striped over one
worker per CPU the process may use: the calling thread and a thread pool,
each worker with its own buffers. Each record's two means are written at
its record index in two preallocated arrays, so the workers need no join
and the estimate is bit-identical for any number of workers. The
worker count is capped so the chunks in flight never hold more samples
than the serial loop's worst case, whatever the host: one block of
``BLOCK_SAMPLES`` samples for records shorter than a block, and one record
per worker, at most ``MAX_RECORD_SAMPLES`` samples together, otherwise. A
worker that fails stops the others before their next chunk. The
one-record functions ``simulate_field_record``,
``synthesize_colored_noise`` and ``ou_population_path`` are the one-row
case of the same draw and transform steps and run in the calling thread,
so a record is bit-identical however it is produced.

A record holds at most ``MAX_RECORD_SAMPLES`` samples; a longer one (small
gamma_p needs records of about 50/gamma_p) is refused with
``RecordTooLongError`` before anything is allocated.

``scipy.signal`` (the AR(1) filter) is loaded with the first record, not
with the module, so ``import srled`` and every path without Monte Carlo
stay free of it. An ensemble loads it in the calling thread, before any
worker thread starts.
"""

from __future__ import annotations

import importlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Event

import numpy as np

from .errors import (
    InvalidParamsError,
    RecordTooLongError,
    StepTooLargeError,
    TooFewRecordsError,
)
from .model import (
    ModelParams,
    Populations,
    commutator_spectrum,
    loop_denominator,
    widest_rate,
)

_MIN_RECORDS = 30
# largest master seed; with the record index it keys a Philox stream
_MAX_SEED = 2 ** 63
# record resolution: T >= MIN_CYCLES / gamma_p, Nyquist >= NYQUIST_FACTOR
# widest_rate, and gamma_p dt <= MAX_DECAY_STEP
MIN_CYCLES = 50.0
NYQUIST_FACTOR = 10.0
MAX_DECAY_STEP = 0.1
# longest record: 2^20 complex samples is ~16 MiB per working array
MAX_RECORD_SAMPLES = 1 << 20
# samples in flight per ensemble of records shorter than this: each of W
# workers synthesizes chunks of max(1, BLOCK_SAMPLES // n // W) records
BLOCK_SAMPLES = 1 << 15
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Record geometry and ensemble size.

    duration   record length T (units of 1/gamma_perp); dt = T / n_samples
    n_samples  samples per record, a power of two, at most MAX_RECORD_SAMPLES
    n_records  ensemble size
    seed       master seed for the counter-based record streams
    """

    duration: float
    n_samples: int
    n_records: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise InvalidParamsError("duration must be positive and finite")
        if self.n_samples < 2 or self.n_samples & (self.n_samples - 1):
            raise InvalidParamsError("n_samples must be a power of two >= 2")
        if self.n_samples > MAX_RECORD_SAMPLES:
            raise RecordTooLongError(
                f"{self.n_samples} samples per record exceed the budget of "
                f"{MAX_RECORD_SAMPLES}; gamma_p is too small for a Monte Carlo record"
            )
        if self.n_records < 1:
            raise InvalidParamsError("n_records must be >= 1")
        if self.seed < 0 or self.seed > _MAX_SEED:
            raise InvalidParamsError("seed must fit in a 64-bit key")

    @property
    def dt(self) -> float:
        return self.duration / self.n_samples

    def omegas(self) -> np.ndarray:
        """Angular frequencies of the record bins, FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.dt)

    @classmethod
    def for_model(cls, params: ModelParams, pops: Populations,
                  n_records: int = 500, seed: int = 0) -> "MonteCarloConfig":
        """Pick dt and T from the model scales.

        Nyquist >= NYQUIST_FACTOR * widest_rate and T >= MIN_CYCLES / gamma_p,
        so the record resolves both the broad field spectrum and the narrow
        population spectrum, and gamma_p dt <= MAX_DECAY_STEP for the AR(1)
        population path. Raises RecordTooLongError when that takes more
        than MAX_RECORD_SAMPLES.
        """
        if pops.gamma_p <= 0.0:
            raise InvalidParamsError("gamma_p must be positive")
        # a hair under the decay cap, so gamma_p dt cannot round above it
        dt = min(np.pi / (NYQUIST_FACTOR * widest_rate(params, pops)),
                 MAX_DECAY_STEP * (1.0 - 1e-12) / pops.gamma_p)
        n = 1 << max(1, math.ceil(math.log2(MIN_CYCLES / pops.gamma_p / dt)))
        return cls(duration=n * dt, n_samples=n, n_records=n_records, seed=seed)


def record_rng(config: MonteCarloConfig, record_index: int) -> np.random.Generator:
    """Independent counter-based stream for one record."""
    key = np.array([np.uint64(config.seed), np.uint64(record_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_config(params: ModelParams, pops: Populations, config: MonteCarloConfig) -> None:
    """Enforce the resolution invariants before simulating."""
    if pops.gamma_p > 0.0 and config.duration < MIN_CYCLES / pops.gamma_p * (1.0 - 1e-9):
        raise InvalidParamsError(
            f"duration {config.duration:.3g} cannot resolve gamma_p={pops.gamma_p:.3g}; "
            f"need at least {MIN_CYCLES / pops.gamma_p:.3g}"
        )
    nyquist = np.pi / config.dt
    if nyquist < NYQUIST_FACTOR * widest_rate(params, pops) * (1.0 - 1e-9):
        raise InvalidParamsError(
            f"Nyquist {nyquist:.3g} below {NYQUIST_FACTOR:g}x the widest spectral rate"
        )


# -- draw: one record's Gaussian variates from its own stream ----------------

def _draw_circular(rng: np.random.Generator, row: np.ndarray) -> None:
    """Fill a complex row with N(0,1) + i N(0,1): real parts drawn first."""
    row.real = rng.standard_normal(row.size)
    row.imag = rng.standard_normal(row.size)


# -- constants shared by all records; transforms in place on any number of
# -- rows, along the last axis

def _colored_amplitude(spectrum, config: MonteCarloConfig) -> np.ndarray | None:
    """sqrt(S/T) in FFT bin order; None when S has no positive sample.

    S is sampled in sorted order, omega_m = -pi/dt + m 2 pi/T, then moved
    to FFT bin order. These are the bins of config.omegas(), but the two
    spellings round differently in the last bit; seeded records depend on
    this one.
    """
    n = config.n_samples
    omega_max = np.pi / config.dt
    vals = np.asarray(spectrum(-omega_max + (2.0 * omega_max / n) * np.arange(n)), dtype=float)
    if vals.shape != (n,):
        raise InvalidParamsError(f"spectrum gave shape {vals.shape} on a {n}-sample record")
    if not np.all(np.isfinite(vals)):
        raise InvalidParamsError("spectrum has non-finite samples on the record grid")
    if np.any(vals < 0.0):
        raise InvalidParamsError("spectrum has negative samples on the record grid")
    vals = np.fft.ifftshift(vals)  # sorted -> fft bin order
    if not np.any(vals > 0.0):
        return None
    return np.sqrt(vals / config.duration)


def _colored_series(xi: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """x(t_j) = sum_m amp_m xi_m exp(-i omega_m t_j) / sqrt(2), overwriting xi."""
    xi /= _SQRT2
    xi *= amp
    return np.fft.fft(xi, axis=-1, out=xi)


def _ou_constants(pops: Populations, config: MonteCarloConfig):
    """(rho, sigma, stationary sd) of the AR(1) path; None without dispersion."""
    if pops.delta2_ne == 0.0:
        return None
    if pops.gamma_p * config.dt > MAX_DECAY_STEP:
        raise StepTooLargeError(
            f"gamma_p dt = {pops.gamma_p * config.dt:.3g} > {MAX_DECAY_STEP:g}; "
            "refine the sampling"
        )
    rho = math.exp(-pops.gamma_p * config.dt)
    return rho, math.sqrt(pops.delta2_ne * (1.0 - rho * rho)), math.sqrt(pops.delta2_ne)


def _ou_series(innov: np.ndarray, ou) -> np.ndarray:
    """AR(1) paths from standard-normal innovations, which are overwritten."""
    # imported here, with the first record: scipy.signal takes ~0.5 s and
    # ~24 MiB to load, and no other path of the package needs it
    from scipy.signal import lfilter

    rho, sigma, sd = ou
    # x[0] = sd innov[0], x[j] = rho x[j-1] + sigma innov[j]; lfilter computes
    # y[j] = drive[j] + rho y[j-1]
    first = innov[..., 0] * sd
    innov *= sigma
    innov[..., 0] = first
    return lfilter([1.0], [1.0, -rho], innov, axis=-1)


class _Ensemble:
    """What every record of one (params, pops, config) shares, computed once."""

    def __init__(self, params: ModelParams, pops: Populations, config: MonteCarloConfig):
        self.n_samples = config.n_samples
        self.s_vals = loop_denominator(params, pops, config.omegas())
        # zero-order drive: flat PSD chosen so the filtered record reproduces
        # the zero-order photon spectrum (kappa gamma_perp^2 / 2 N_th) N_e / |s|^2
        drive_psd = 0.5 * params.kappa * params.gamma_perp ** 2 * pops.n_excited / params.n_threshold
        self.drive_amp = np.sqrt(drive_psd / config.duration)
        self.c_amp = self.ou = None
        if pops.delta2_ne > 0.0:
            self.c_amp = _colored_amplitude(lambda w: commutator_spectrum(params, pops, w), config)
            self.ou = _ou_constants(pops, config)
        self.coupling = params.kappa * params.gamma_perp / params.n_threshold

    def buffers(self, rows: int):
        """Drive, colored-noise and innovation arrays for a block of rows."""
        shape = (rows, self.n_samples)
        if self.c_amp is None:
            return np.empty(shape, dtype=complex), None, None
        return np.empty(shape, dtype=complex), np.empty(shape, dtype=complex), np.empty(shape)

    def draw(self, rng: np.random.Generator, row: int, bufs) -> None:
        """One record's variates into row `row` of the block buffers."""
        drive, colored, innov = bufs
        _draw_circular(rng, drive[row])
        if colored is not None:
            _draw_circular(rng, colored[row])
            rng.standard_normal(out=innov[row])

    def fields(self, bufs) -> np.ndarray:
        """Field records a(t) of the drawn rows; the buffers are overwritten."""
        drive, colored, innov = bufs
        drive /= _SQRT2
        drive *= self.drive_amp
        if colored is not None:
            b = _colored_series(colored, self.c_amp)
            np.conjugate(b, out=b)
            b *= _ou_series(innov, self.ou)
            mix = np.fft.ifft(b, axis=-1, out=b)
            mix *= self.coupling
            drive += mix
        drive /= self.s_vals
        return np.fft.fft(drive, axis=-1, out=drive)


def synthesize_colored_noise(spectrum, config: MonteCarloConfig,
                             rng: np.random.Generator) -> np.ndarray:
    """Stationary circular complex Gaussian series with power spectrum S.

    ``spectrum`` is S as a function of omega: it is called once with the
    array of record bins omega_m and must return one finite, nonnegative
    sample per bin (InvalidParamsError otherwise). The series
    x(t_j) = sum_m sqrt(S(omega_m)/T) xi_m exp(-i omega_m t_j) has
    Var x = (2 pi)^-1 Int S d omega over the record band, with independent
    real and imaginary quadratures.
    """
    amp = _colored_amplitude(spectrum, config)
    if amp is None:
        return np.zeros(config.n_samples, dtype=complex)
    xi = np.empty(config.n_samples, dtype=complex)
    _draw_circular(rng, xi)
    return _colored_series(xi, amp)


def ou_population_path(pops: Populations, config: MonteCarloConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Exact stationary OU samples: rate gamma_p, variance delta2_ne.

    The OU process observed at step dt is exactly AR(1) with
    rho = exp(-gamma_p dt), so the recursion introduces no discretization
    bias. The first sample is an exact stationary draw, so no burn-in is
    needed.
    """
    ou = _ou_constants(pops, config)
    if ou is None:
        return np.zeros(config.n_samples)
    return _ou_series(rng.standard_normal(config.n_samples), ou)


def simulate_field_record(params: ModelParams, pops: Populations,
                          config: MonteCarloConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """One complex field record a(t) of the linear below-threshold model."""
    ensemble = _Ensemble(params, pops, config)
    bufs = ensemble.buffers(1)
    ensemble.draw(rng, 0, bufs)
    return ensemble.fields(bufs)[0]


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


def _require_records(n_rec: int) -> None:
    if n_rec < _MIN_RECORDS:
        raise TooFewRecordsError(f"need at least {_MIN_RECORDS} records, got {n_rec}")


def _record_means(intensity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<|a|^2> and <|a|^4> of each record along the last axis of its |a|^2.

    ``intensity`` is squared in place, so a block of records needs no
    temporary of its size.
    """
    n = np.mean(intensity, axis=-1)
    intensity *= intensity
    return n, np.mean(intensity, axis=-1)


def _estimate_from_means(nr: np.ndarray, qr: np.ndarray) -> MomentEstimate:
    """n = <<|a|^2>>, g2 = <<|a|^4>> / n^2 from per-record <|a|^2>, <|a|^4>.

    Standard errors come from record-to-record scatter: directly for n,
    leave-one-out jackknife for the ratio estimator g2.
    """
    n_rec = len(nr)
    _require_records(n_rec)
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


def estimate_moments(records) -> MomentEstimate:
    """n = <<|a|^2>>, g2 = <<|a|^4>> / n^2 over an ensemble of records."""
    means = [_record_means(np.abs(np.ravel(rec)) ** 2) for rec in records]
    return _estimate_from_means(*np.reshape(means, (-1, 2)).T)


def _cpu_count() -> int:
    """CPUs this process may run on, the most workers an ensemble uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stripes(config: MonteCarloConfig) -> tuple[int, int]:
    """(records per chunk, workers) of an ensemble.

    Never more workers than chunks, nor than the samples in flight allow:
    rows * workers * n_samples stays within BLOCK_SAMPLES for records
    shorter than a block, and within MAX_RECORD_SAMPLES otherwise, the most
    a single worker ever holds.
    """
    n = config.n_samples
    cpus = _cpu_count()
    rows = max(1, BLOCK_SAMPLES // n // cpus)
    budget = BLOCK_SAMPLES if n < BLOCK_SAMPLES else MAX_RECORD_SAMPLES
    return rows, min(cpus, -(-config.n_records // rows), budget // (rows * n))


def run_monte_carlo(params: ModelParams, pops: Populations,
                    config: MonteCarloConfig) -> MomentEstimate:
    """Simulate the ensemble chunk by chunk on every CPU and estimate moments.

    Chunks of consecutive records are striped over the workers: worker w
    synthesizes chunks w, w + W, w + 2W, ... in its own buffers, the calling
    thread being worker 0. Every record is drawn from its own stream and
    transformed row by row, and its <|a|^2> and <|a|^4> are written at its
    record index, so a seeded ensemble is bit-identical for any number of
    workers without a join. W is the CPU count of the process, capped so
    that the chunks in flight hold at most one block of BLOCK_SAMPLES
    samples for records shorter than a block, and one record per worker, at
    most MAX_RECORD_SAMPLES samples together, otherwise. An error in any
    worker, or an interrupt of the calling thread, stops the other workers
    before their next chunk; the call raises it once they have stopped.
    """
    check_config(params, pops, config)
    _require_records(config.n_records)
    ensemble = _Ensemble(params, pops, config)
    if ensemble.ou is not None:
        # load the AR(1) filter here, not in the first record of a worker thread
        importlib.import_module("scipy.signal")
    rows, workers = _stripes(config)
    nr, qr = np.empty((2, config.n_records))  # <|a|^2>, <|a|^4> at each record's index
    failed = Event()  # set by a worker that raises, so the others stop early

    def work(w: int) -> None:
        try:
            block = ensemble.buffers(rows)  # reused, so a worker allocates its arrays once
            for start in range(w * rows, config.n_records, workers * rows):
                if failed.is_set():
                    return
                stop = min(start + rows, config.n_records)
                bufs = [None if b is None else b[:stop - start] for b in block]
                for row, index in enumerate(range(start, stop)):
                    ensemble.draw(record_rng(config, index), row, bufs)
                nr[start:stop], qr[start:stop] = _record_means(np.abs(ensemble.fields(bufs)) ** 2)
        except BaseException:
            failed.set()
            raise

    # threads start on submit, so a single worker starts none
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = [pool.submit(work, w) for w in range(1, workers)]
        work(0)
        for helper in helpers:
            helper.result()
    return _estimate_from_means(nr, qr)
