"""Stochastic oracle: classical-noise records of the linear Langevin field.

The field of a record is a = a_d + a_f, both filtered by 1/s(omega) on a
power-of-two time grid:

* a_d, the zero-order drive: white complex Gaussian whose filtered spectrum
  is the zero-order photon spectrum,
* a_f, the population-noise channel: a colored complex Gaussian b(t) with
  power spectrum c(omega) (frequency-domain synthesis) times a real
  Ornstein-Uhlenbeck path delta_N(t) (exact AR(1) recursion, rate gamma_p,
  variance delta2_ne), multiplied in the time domain so the spectral
  convolution is realized exactly on the discrete grid.

a_d is a stationary circular Gaussian independent of a_f, and its variance
on the record grid is exact: v_d = sum_m drive_amp^2 / |s_m|^2, the bins
being independent. So a record draws a_f only, and the drive is integrated
out of its moments (Rao-Blackwellisation):
E[|a|^2 | a_f] = |a_f|^2 + v_d and E[|a|^4 | a_f] = |a_f|^4 + 4 v_d |a_f|^2
+ 2 v_d^2. Moments of these estimate n and g2 with less record scatter than
a drawn drive gives; the classical Gaussian pairings reproduce the same
second- and fourth-order combinatorics as the model's noise algebra, so the
estimates must agree with the analytic pipeline. The scatter left is that
of the population channel, which is skewed: over a hundred or so records
of a slow population the standard errors run low when the estimates do,
and the lower tail of z is heavier than Gaussian. A record has a
population channel exactly when delta2_ne > 0: c(0) = 1/A is positive
below threshold. Without one there is nothing to condition on: the drive
is drawn and v_d = 0, so one reducer serves both cases.

Per-record RNG streams are counter-based (Philox keyed by master seed and
record index), so ensembles are bit-reproducible regardless of scheduling.
``MonteCarloConfig`` and ``srled.sweep.SweepSpec`` both apply one ensemble
rule, ``check_ensemble`` (at least _MIN_RECORDS records, a seed in
[0, 2^63]), when built, so no record is drawn for a refused ensemble;
``estimate_moments`` applies it to the count of the records it is given.
A record's stream is one state, key (seed, index) at counter 0 with no
buffered output, set by one helper: ``record_rng`` sets it on a new
Philox, and each ensemble worker re-keys the one Philox it owns to it
before every record it draws, so no record builds a generator.

Spectra enter as functions of omega. One private sampler evaluates a
spectrum on the record bins ``config.omegas()``, where s(omega) is taken,
checks that every sample is finite and nonnegative, and turns it into the
amplitude sqrt(S/2T) of each bin; both ``synthesize_colored_noise`` and
the ensemble's c(omega) go through it.

An ensemble computes what its records share once: the loop filter's gain
and the amplitude sqrt(c/2T) on the record grid, v_d and the AR(1)
constants. It then synthesizes records in chunks of consecutive records.
Each row of a chunk is drawn from its own record stream (colored noise,
then OU innovations: three normals per sample; the drive alone, two per
sample, without a population channel). One helper draws the complex
noise of either case into the block: its two quadratures pass through a
real scratch row and are scaled on their way into the complex row, by
sqrt(c/2T) for the colored noise and by 1 for the drive, and the OU
innovations then overwrite the scratch, so a draw makes no temporary. The
whole chunk is transformed at once (FFTs and the AR(1) solve along the
last axis, arithmetic in place), and each row is reduced to its
conditional <|a|^2> and <|a|^4>, with |a|^2 written over the spent
scratch rows, before the worker takes its next chunk. One worker thread
per CPU the process may use runs the chunks, each with its own buffers; a
worker takes the next chunk as soon as it is free, so a slow chunk holds
up no other. The calling thread only starts, waits
for and stops the workers: on it, with glibc's allocator at its defaults,
every 32768-point FFT paged its scratch in afresh (about 224 minor faults
a transform), where a worker thread reuses it. Each record's two means are
written at its record index in two preallocated arrays, so nothing is
merged after the workers end and the estimate is bit-identical for any
number of workers and any order of chunks. The worker count is capped so
the chunks in flight never hold more samples than the serial loop's worst
case, whatever the host: one block of
``BLOCK_SAMPLES`` samples for records shorter than a block, and one record
per worker, at most ``MAX_RECORD_SAMPLES`` samples together, otherwise. A
worker that fails stops the others before their next chunk. The
one-record functions ``simulate_field_record``,
``synthesize_colored_noise`` and ``ou_population_path`` are the one-row
case of the same draw and transform steps and run in the calling thread,
so a record is bit-identical however it is produced; ``simulate_field_record``
returns it with its v_d.

A record holds at most ``MAX_RECORD_SAMPLES`` samples; a longer one (small
gamma_p, or the slow pole of 1/s near threshold, needs records of about
50/gamma_p or 50/x-) is refused with ``RecordTooLongError`` before anything
is allocated. ``check_config`` is the one check of a record against the
model, and ``run_monte_carlo`` and ``simulate_field_record`` make it before
they draw: T >= MIN_CYCLES / min(gamma_p, x-), Nyquist >= NYQUIST_FACTOR
times the widest rate, and gamma_p dt <= MAX_DECAY_STEP, each refused with
``InvalidParamsError``. ``MonteCarloConfig.for_model`` picks a config that
meets all three. The model side needs no check of its own: ``Populations``
refuses a nonpositive gamma_p or a negative delta2_ne when built. The AR(1)
population path is exact at any step, so ``ou_population_path`` takes any
config.

The AR(1) step x[0] = sd xi_0, x[j] = rho x[j-1] + sigma xi_j is forward
substitution on the unit lower-bidiagonal system (I - rho S) x = b, S the
shift by one sample. LAPACK's banded triangular solve (``dtbtrs``, from
``scipy.linalg``, which ``scipy.integrate`` has already loaded) takes every
row of a block as one right-hand side and overwrites the innovations with
the paths, so the step allocates no array and imports no further module.
The band is stored in Fortran order, as LAPACK reads it, so f2py passes it
without a copy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from threading import Event, Lock, Semaphore, Thread

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import (
    InvalidParamsError,
    ModelError,
    RecordTooLongError,
    _require_integers,
)
from .model import (
    ModelParams,
    Populations,
    commutator_spectrum,
    fluctuation_coupling,
    loop_denominator,
    slowest_rate,
    widest_rate,
    zero_order_level,
)

_MIN_RECORDS = 30
# largest master seed; with the record index it keys a Philox stream
_MAX_SEED = 2 ** 63
# record resolution: T >= MIN_CYCLES / min(gamma_p, slowest_rate), Nyquist >=
# NYQUIST_FACTOR widest_rate, and gamma_p dt <= MAX_DECAY_STEP
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
        _require_integers(n_samples=self.n_samples, n_records=self.n_records, seed=self.seed)
        if self.n_samples < 2 or self.n_samples & (self.n_samples - 1):
            raise InvalidParamsError("n_samples must be a power of two >= 2")
        if self.n_samples > MAX_RECORD_SAMPLES:
            raise RecordTooLongError(
                f"{self.n_samples} samples per record exceed the budget of "
                f"{MAX_RECORD_SAMPLES}; gamma_p is too small for a Monte Carlo record"
            )
        check_ensemble(self.n_records, self.seed)

    @property
    def dt(self) -> float:
        return self.duration / self.n_samples

    def omegas(self) -> np.ndarray:
        """Angular frequencies of the record bins, FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.dt)

    @classmethod
    def for_model(cls, params: ModelParams, pops: Populations,
                  n_records: int = 500, seed: int = 0) -> "MonteCarloConfig":
        """Pick dt and T from the model scales, to meet the three bounds
        of check_config.

        Nyquist >= NYQUIST_FACTOR * widest_rate and
        T >= MIN_CYCLES / min(gamma_p, slowest_rate), so the record resolves
        the broad field spectrum, the narrow population spectrum and the
        slow pole of 1/s near threshold, and gamma_p dt <= MAX_DECAY_STEP, so
        the band also holds the population spectrum where gamma_p is the
        widest rate. Raises RecordTooLongError when that takes more than
        MAX_RECORD_SAMPLES.
        """
        # a hair under the decay cap, so gamma_p dt cannot round above it
        dt = min(np.pi / (NYQUIST_FACTOR * widest_rate(params, pops)),
                 MAX_DECAY_STEP * (1.0 - 1e-12) / pops.gamma_p)
        n = 1 << max(1, math.ceil(math.log2(_min_duration(params, pops) / dt)))
        return cls(duration=n * dt, n_samples=n, n_records=n_records, seed=seed)


def check_ensemble(n_records: int, seed: int) -> None:
    """InvalidParamsError unless there are _MIN_RECORDS records or more and
    the master seed fits the Philox key beside the record index."""
    if n_records < _MIN_RECORDS:
        raise InvalidParamsError(f"need at least {_MIN_RECORDS} records, got {n_records}")
    if not 0 <= seed <= _MAX_SEED:
        raise InvalidParamsError(f"seed must be in [0, {_MAX_SEED}], got {seed}")


def record_rng(config: MonteCarloConfig, record_index: int) -> np.random.Generator:
    """Independent counter-based stream for one record."""
    bitgen = np.random.Philox()
    _rekey(bitgen, config.seed, record_index)
    return np.random.Generator(bitgen)


def _rekey(bitgen: np.random.Philox, seed: int, record_index: int) -> None:
    """Set bitgen to the start of record record_index's stream: key
    (seed, record_index), counter 0, no buffered output."""
    # the setter reads each word by index; tuples spare it numpy scalars
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, record_index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _min_duration(params: ModelParams, pops: Populations) -> float:
    """MIN_CYCLES over the slower of gamma_p and the loop's slowest rate x-."""
    return MIN_CYCLES / min(slowest_rate(params, pops), pops.gamma_p)


def check_config(params: ModelParams, pops: Populations, config: MonteCarloConfig) -> None:
    """InvalidParamsError unless the record resolves the model: the one
    check of a config against a model, made before anything is drawn.

    T >= MIN_CYCLES / min(gamma_p, x-), Nyquist >= NYQUIST_FACTOR
    widest_rate, and gamma_p dt <= MAX_DECAY_STEP; for_model picks a
    config that meets all three.
    """
    need = _min_duration(params, pops)
    if config.duration < need * (1.0 - 1e-9):
        raise InvalidParamsError(
            f"duration {config.duration:.3g} cannot resolve gamma_p={pops.gamma_p:.3g} "
            f"and the slowest loop rate {slowest_rate(params, pops):.3g}; "
            f"need at least {need:.3g}"
        )
    nyquist = np.pi / config.dt
    if nyquist < NYQUIST_FACTOR * widest_rate(params, pops) * (1.0 - 1e-9):
        raise InvalidParamsError(
            f"Nyquist {nyquist:.3g} below {NYQUIST_FACTOR:g}x the widest spectral rate"
        )
    if pops.gamma_p * config.dt > MAX_DECAY_STEP:
        raise InvalidParamsError(
            f"gamma_p dt = {pops.gamma_p * config.dt:.3g} > {MAX_DECAY_STEP:g}; refine the sampling")


# -- draw: one record's Gaussian variates from its own stream ----------------

def _draw_colored(rng: np.random.Generator, row: np.ndarray, amp: np.ndarray | float,
                  scratch: np.ndarray) -> None:
    """Fill a complex row with amp (N(0,1) + i N(0,1)), real parts drawn
    first; each quadrature is drawn into the real row scratch and scaled
    on its way into row. amp is per bin, or 1 for a white drive."""
    for part in (row.real, row.imag):
        rng.standard_normal(out=scratch)
        np.multiply(scratch, amp, out=part)


# -- constants shared by all records; transforms in place on any number of
# -- rows, along the last axis

def _colored_amplitude(spectrum, config: MonteCarloConfig) -> np.ndarray:
    """sqrt(S/2T) on the record bins.

    S is sampled once on config.omegas(), in FFT bin order, the bins on
    which the ensemble evaluates s(omega) too.
    """
    n = config.n_samples
    vals = np.asarray(spectrum(config.omegas()), dtype=float)
    if vals.shape != (n,):
        raise InvalidParamsError(f"spectrum gave shape {vals.shape} on a {n}-sample record")
    if not np.all(np.isfinite(vals)):
        raise InvalidParamsError("spectrum has non-finite samples on the record grid")
    if np.any(vals < 0.0):
        raise InvalidParamsError("spectrum has negative samples on the record grid")
    return np.sqrt(vals / (2.0 * config.duration))


def _ou_constants(pops: Populations, config: MonteCarloConfig):
    """(band, sigma, stationary sd) of the AR(1) path; None without dispersion.

    band is I - rho S in LAPACK's lower band storage, rho = exp(-gamma_p dt):
    a row of ones, the diagonal, then -rho, the subdiagonal, in Fortran
    order, so dtbtrs reads it in place.
    """
    if pops.delta2_ne == 0.0:
        return None
    rho = math.exp(-pops.gamma_p * config.dt)
    band = np.empty((2, config.n_samples), order="F")
    band[0] = 1.0
    band[1] = -rho
    return band, math.sqrt(pops.delta2_ne * (1.0 - rho * rho)), math.sqrt(pops.delta2_ne)


def _ou_series(innov: np.ndarray, ou) -> np.ndarray:
    """AR(1) paths from standard-normal innovations, computed in their place.

    innov holds one path per row along its last axis. x[0] = sd innov[0],
    x[j] = rho x[j-1] + sigma innov[j] is the forward substitution
    (I - rho S) x = b with b = (sd innov[0], sigma innov[1], ...); the rows
    are the columns of one transposed right-hand side, which dtbtrs solves
    in place.
    """
    band, sigma, sd = ou
    first = innov[..., 0] * sd
    innov *= sigma
    innov[..., 0] = first
    paths, info = dtbtrs(band, innov.reshape(-1, innov.shape[-1]).T,
                         uplo="L", diag="U", overwrite_b=1)
    if info:
        raise ModelError(f"dtbtrs refused the AR(1) system (info {info})")
    return paths.T.reshape(innov.shape)


class _Ensemble:
    """What every record of one (params, pops, config) shares, computed once.

    With a population channel (delta2_ne > 0) a record is its channel
    field a_f alone: the zero-order drive a_d is independent of it and
    circular Gaussian with the exact variance drive_var on the record grid,
    so the reducer adds its moments instead of drawing it. Without one the
    drive is the whole field; it is drawn, and drive_var is 0. Either way a
    record draws amp (N(0,1) + i N(0,1)), amp being sqrt(c/2T) or 1.
    """

    def __init__(self, params: ModelParams, pops: Populations, config: MonteCarloConfig):
        self.n_samples = config.n_samples
        s_vals = loop_denominator(params, pops, config.omegas())
        # zero-order drive: flat PSD chosen so the filtered record reproduces
        # the zero-order photon spectrum (kappa gamma_perp^2 / 2 N_th) N_e / |s|^2
        drive_amp = np.sqrt(zero_order_level(params, pops) / config.duration)
        if pops.delta2_ne > 0.0:
            self.amp = _colored_amplitude(lambda w: commutator_spectrum(params, pops, w), config)
            self.ou = _ou_constants(pops, config)
            # Var a_d(t) = sum_m drive_amp^2 / |s_m|^2: the bins are independent
            self.drive_var = float(np.sum(drive_amp ** 2 / np.abs(s_vals) ** 2))
            self.gain = fluctuation_coupling(params) / s_vals
        else:
            self.amp, self.ou = 1.0, None  # the drive, drawn
            self.drive_var = 0.0
            self.gain = drive_amp / _SQRT2 / s_vals

    def buffers(self, rows: int):
        """Complex field and real scratch arrays for a block of rows; the
        scratch holds the OU innovations of a population channel."""
        shape = (rows, self.n_samples)
        return np.empty(shape, dtype=complex), np.empty(shape)

    def draw(self, rng: np.random.Generator, row: int, bufs) -> None:
        """One record's variates into row `row` of the block buffers: the
        noise, already scaled by amp, then the OU innovations of a
        population channel."""
        noise, scratch = bufs
        _draw_colored(rng, noise[row], self.amp, scratch[row])
        if self.ou is not None:
            rng.standard_normal(out=scratch[row])

    def fields(self, bufs) -> np.ndarray:
        """Records a_f(t) of the drawn rows, or a_d(t) without a population
        channel; the buffers are overwritten."""
        noise, innov = bufs
        if self.ou is not None:
            # b(t_j) = sum_m sqrt(c_m/2T) xi_m exp(-i omega_m t_j)
            b = np.fft.fft(noise, axis=-1, out=noise)
            np.conjugate(b, out=b)
            b *= _ou_series(innov, self.ou)
            noise = np.fft.ifft(b, axis=-1, out=b)
        noise *= self.gain
        return np.fft.fft(noise, axis=-1, out=noise)


def synthesize_colored_noise(spectrum, config: MonteCarloConfig,
                             rng: np.random.Generator) -> np.ndarray:
    """Stationary circular complex Gaussian series with power spectrum S.

    ``spectrum`` is S as a function of omega: it is called once with the
    array of record bins omega_m and must return one finite, nonnegative
    sample per bin (InvalidParamsError otherwise). The series
    x(t_j) = sum_m sqrt(S(omega_m)/T) xi_m exp(-i omega_m t_j) has
    Var x = (2 pi)^-1 Int S d omega over the record band, with independent
    real and imaginary quadratures; an all-zero S gives zeros.
    """
    xi = np.empty(config.n_samples, dtype=complex)
    _draw_colored(rng, xi, _colored_amplitude(spectrum, config), np.empty(config.n_samples))
    return np.fft.fft(xi, out=xi)


def ou_population_path(pops: Populations, config: MonteCarloConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Exact stationary OU samples: rate gamma_p, variance delta2_ne.

    The OU process observed at step dt is exactly AR(1) with
    rho = exp(-gamma_p dt), so the recursion introduces no discretization
    bias at any step; no bound on gamma_p dt applies to the path alone. The
    first sample is an exact stationary draw, so no burn-in is needed.
    """
    ou = _ou_constants(pops, config)
    if ou is None:
        return np.zeros(config.n_samples)
    return _ou_series(rng.standard_normal(config.n_samples), ou)


def simulate_field_record(params: ModelParams, pops: Populations,
                          config: MonteCarloConfig,
                          rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One record of the linear below-threshold model as (a, v).

    The record's field is a(t) plus an independent stationary circular
    Gaussian of variance v: a is the population channel a_f and v the
    exact variance of the zero-order drive, or, when the model has no
    population channel, a is the drawn drive and v = 0. The config must
    resolve the model's scales, as for run_monte_carlo (check_config).
    """
    check_config(params, pops, config)
    ensemble = _Ensemble(params, pops, config)
    bufs = ensemble.buffers(1)
    ensemble.draw(rng, 0, bufs)
    return ensemble.fields(bufs)[0], ensemble.drive_var


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


def _record_means(intensity: np.ndarray, drive_var: float) -> tuple[np.ndarray, np.ndarray]:
    """<|a|^2> and <|a|^4> of each record along the last axis of its |a_f|^2.

    The drive of variance v is integrated out: given a_f,
    E|a|^2 = |a_f|^2 + v and E|a|^4 = |a_f|^4 + 4 v |a_f|^2 + 2 v^2.
    ``intensity`` is squared in place, so a block of records needs no
    temporary of its size.
    """
    n = np.mean(intensity, axis=-1)
    intensity *= intensity
    q = np.mean(intensity, axis=-1)
    return n + drive_var, q + 4.0 * drive_var * n + 2.0 * drive_var * drive_var


def _estimate_from_means(nr: np.ndarray, qr: np.ndarray) -> MomentEstimate:
    """n = <<|a|^2>>, g2 = <<|a|^4>> / n^2 from per-record <|a|^2>, <|a|^4>.

    Standard errors come from record-to-record scatter: directly for n,
    leave-one-out jackknife for the ratio estimator g2. The caller has
    applied check_ensemble to the record count.
    """
    n_rec = len(nr)
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
    """n = <<|a|^2>>, g2 = <<|a|^4>> / n^2 over an ensemble of records;
    InvalidParamsError for fewer than _MIN_RECORDS records (check_ensemble)."""
    means = [_record_means(np.abs(np.ravel(rec)) ** 2, 0.0) for rec in records]
    check_ensemble(len(means), seed=0)  # given records carry no seed
    return _estimate_from_means(*np.reshape(means, (-1, 2)).T)


def _cpu_count() -> int:
    """CPUs this process may run on, the most workers an ensemble uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stripes(config: MonteCarloConfig) -> tuple[int, int]:
    """(records per chunk, workers) of an ensemble; the workers take the
    chunks on demand.

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

    W worker threads share the chunks of consecutive records: each takes
    the next chunk in record order as soon as it is free and synthesizes it
    in its own buffers, while the calling thread starts the workers, waits
    for them and stops them. Every record is drawn from its own stream and
    transformed row by row, and its <|a|^2> and <|a|^4>, the zero-order
    drive integrated out, are written at its record index, so a seeded
    ensemble is bit-identical for any number of workers and any order of
    chunks, with nothing to merge. W is the CPU count of the process,
    capped so that the chunks in flight hold at most one block of
    BLOCK_SAMPLES samples for records shorter than a block, and one record
    per worker, at most MAX_RECORD_SAMPLES samples together, otherwise. An error in any worker, or an interrupt of
    the calling thread, stops the other workers before their next chunk;
    the call raises it once every started worker has ended.
    """
    check_config(params, pops, config)
    ensemble = _Ensemble(params, pops, config)
    rows, workers = _stripes(config)
    nr, qr = np.empty((2, config.n_records))  # <|a|^2>, <|a|^4> at each record's index
    starts = iter(range(0, config.n_records, rows))  # first records of the chunks not taken
    take = Lock()
    stop = Event()  # set by a worker that fails or by an interrupted caller
    ended = Semaphore(0)  # released by each worker as it ends
    errors = []

    def work() -> None:
        try:
            block = ensemble.buffers(rows)  # reused, so a worker allocates its arrays once
            bitgen = np.random.Philox()  # re-keyed to each record's stream
            rng = np.random.Generator(bitgen)
            while not stop.is_set():
                with take:
                    start = next(starts, None)
                if start is None:
                    return
                end = min(start + rows, config.n_records)
                bufs = [b[:end - start] for b in block]
                for row, index in enumerate(range(start, end)):
                    _rekey(bitgen, config.seed, index)
                    ensemble.draw(rng, row, bufs)
                # |a|^2 over the scratch, spent once fields() took any OU product
                intensity = np.abs(ensemble.fields(bufs), out=bufs[1])
                intensity *= intensity
                nr[start:end], qr[start:end] = _record_means(intensity, ensemble.drive_var)
        except BaseException as error:  # handed to the caller, which raises it
            errors.append(error)
            stop.set()
        finally:
            ended.release()

    threads = []
    try:
        for _ in range(workers):
            threads.append(Thread(target=work))
            threads[-1].start()
        # not join: in Python 3.11 a join that an interrupt cuts short marks
        # the thread ended while it still runs
        for _ in threads:
            ended.acquire()
    finally:
        # after an interrupt, the workers end before their next chunk; one
        # whose start it cut short finds stop set if it runs at all
        stop.set()
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[0]
    return _estimate_from_means(nr, qr)
