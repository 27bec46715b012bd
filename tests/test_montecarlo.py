"""Stochastic records: synthesis fidelity, OU statistics, moment estimates."""

import dataclasses
import json
import math
import signal
import subprocess
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.signal import lfilter

from srled import (
    InvalidParamsError,
    ModelError,
    ModelParams,
    MomentEstimate,
    MonteCarloConfig,
    RecordTooLongError,
    derive_populations,
    estimate_moments,
    ou_population_path,
    run_monte_carlo,
    simulate_field_record,
    synthesize_colored_noise,
)
from srled import montecarlo
from srled.model import commutator_spectrum, slowest_rate, widest_rate
from srled.montecarlo import (
    MAX_DECAY_STEP,
    MAX_RECORD_SAMPLES,
    MIN_CYCLES,
    check_config,
    record_rng,
)

from conftest import EX1_ORACLE, src_env

# Frozen seeded estimates, the zero-order drive integrated out: EX1 with 37
# records of 4096 samples (seed 9), and gamma_par = 0.01 with 30 records of
# 32768 samples (seed 3); and EX1 without fluctuations, 37 records of the
# drawn drive (seed 9). Seeded ensembles must reproduce them bit for bit.
GOLDEN_EX1 = MomentEstimate(
    n=0.052573379075335394, g2=2.120475036707705, n_se=0.0003182282261024295,
    g2_se=0.010632953152436047, n_records=37)
GOLDEN_LONG = MomentEstimate(
    n=0.0535432472771139, g2=2.1680706546568955, n_se=0.00029550307868510267,
    g2_se=0.00917957886477575, n_records=30)
GOLDEN_DRIVE = MomentEstimate(
    n=0.04215996906324246, g2=1.995256959519159, n_se=0.00034480111439296287,
    g2_se=0.01392372989417229, n_records=37)


def _flat_density(level=1.0):
    return lambda w: np.full(w.shape, level)


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _philox_words(bitgen) -> dict:
    """A Philox state with its arrays as tuples, so that states compare with ==."""
    state = dict(bitgen.state, state={k: tuple(v) for k, v in bitgen.state["state"].items()})
    state["buffer"] = tuple(state["buffer"])
    return state


def _record_events(monkeypatch) -> list:
    """Every Event montecarlo makes, in order of creation."""
    events = []

    def recording_event():
        events.append(threading.Event())
        return events[-1]

    monkeypatch.setattr(montecarlo, "Event", recording_event)
    return events


# minor page faults of a 2-worker ensemble of GOLDEN_LONG's 32768-sample
# records: the least of 3 runs at 30 and at 60 records, after a warm-up
FAULTS = """
import dataclasses
import json
import resource

import srled
from srled import montecarlo
from srled.validation import EX1

montecarlo._cpu_count = lambda: 2
params = dataclasses.replace(EX1, gamma_par=0.01)
pops = srled.derive_populations(params)


def faults(n_records):
    config = srled.MonteCarloConfig.for_model(params, pops, n_records=n_records, seed=3)
    assert config.n_samples == 32768
    counts = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        srled.run_monte_carlo(params, pops, config)
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(counts)


faults(30)
print(json.dumps([faults(30), faults(60)]))
"""


class TestConfig:
    def test_power_of_two_required(self):
        with pytest.raises(InvalidParamsError):
            MonteCarloConfig(duration=100.0, n_samples=1000)
        # counts and seeds are integers; numpy's are accepted as they are
        for field in ({"n_samples": 1024.0}, {"n_records": 30.5}, {"seed": 2.5},
                      {"seed": 2.0}):
            with pytest.raises(InvalidParamsError, match="must be an integer"):
                MonteCarloConfig(duration=100.0, **{"n_samples": 1024, **field})
        config = MonteCarloConfig(duration=100.0, n_samples=np.int64(1024),
                                  n_records=np.int32(30), seed=np.uint64(2))
        assert config.dt == 100.0 / 1024

    def test_ensemble_rule_is_checked_when_built(self, ex1, ex1_pops):
        # the rule run_monte_carlo and SweepSpec need, before any record
        for bad in ({"n_records": 29}, {"n_records": 0}, {"seed": -1}, {"seed": 2 ** 63 + 1}):
            with pytest.raises(InvalidParamsError):
                MonteCarloConfig(duration=100.0, n_samples=1024, **bad)
            with pytest.raises(InvalidParamsError):
                MonteCarloConfig.for_model(ex1, ex1_pops, **bad)
        for good in ({"n_records": 30}, {"seed": 0}, {"seed": 2 ** 63}):
            MonteCarloConfig(duration=100.0, n_samples=1024, **good)

    def test_for_model_resolves_scales(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        assert config.duration >= 50.0 / ex1_pops.gamma_p * (1.0 - 1e-12)
        assert np.pi / config.dt >= 10.0 * max(ex1.kappa, ex1.gamma_perp)
        assert ex1_pops.gamma_p * config.dt <= 0.1

    def test_duration_must_be_finite(self):
        # an infinite T gives dt = inf: a flat spectrum then synthesizes an
        # all-zero series, and check_config misreports a Nyquist of 0
        for duration in (math.inf, math.nan, 0.0):
            with pytest.raises(InvalidParamsError, match="duration"):
                MonteCarloConfig(duration=duration, n_samples=1024)

    def test_record_budget_rejects_long_records(self):
        MonteCarloConfig(duration=1.0, n_samples=MAX_RECORD_SAMPLES)
        with pytest.raises(RecordTooLongError):
            MonteCarloConfig(duration=1.0, n_samples=2 * MAX_RECORD_SAMPLES)

    def test_for_model_refuses_tiny_gamma_par(self, ex1):
        # 50 / gamma_p at gamma_par = 1e-4 needs 2^22 samples per record
        params = dataclasses.replace(ex1, gamma_par=1e-4)
        with pytest.raises(RecordTooLongError):
            MonteCarloConfig.for_model(params, derive_populations(params))

    def test_record_resolves_the_slow_pole(self):
        # 0.97 N_th (2 kappa/gamma_perp = 1, P = 3, N_0 = 9.7), gamma_par =
        # 0.05: 1/s has a pole at x- ~ 0.0076, far slower than gamma_p = 0.2,
        # and a record of 50/gamma_p biases n by about +3 SE
        params = ModelParams(kappa=0.5, gamma_par=0.05, pump=3.0, n_threshold=5.0,
                             n_emitters=9.7)
        pops = derive_populations(params)
        need = MIN_CYCLES / slowest_rate(params, pops)
        assert need > 20.0 * MIN_CYCLES / pops.gamma_p
        config = MonteCarloConfig.for_model(params, pops, n_records=30)
        assert need <= config.duration < 2.0 * need
        check_config(params, pops, config)
        # the same dt, a sixteenth of the length: 50/gamma_p, but not 50/x-
        short = dataclasses.replace(config, duration=config.duration / 16,
                                    n_samples=config.n_samples // 16)
        assert MIN_CYCLES / pops.gamma_p < short.duration < need
        with pytest.raises(InvalidParamsError, match="slowest loop rate"):
            run_monte_carlo(params, pops, short)

    def test_decay_step_guard(self, ex1):
        # gamma_par = 1: dt = 0.2 meets the Nyquist and length bounds, but
        # gamma_p dt = 0.22 > MAX_DECAY_STEP
        params = dataclasses.replace(ex1, gamma_par=1.0)
        pops = derive_populations(params)
        config = MonteCarloConfig(duration=204.8, n_samples=1024, n_records=30)
        assert pops.gamma_p * config.dt == pytest.approx(0.22)
        assert np.pi / config.dt >= 10.0 * widest_rate(params, pops)
        assert config.duration >= MIN_CYCLES / min(pops.gamma_p, slowest_rate(params, pops))
        for run in (run_monte_carlo, check_config):
            with pytest.raises(InvalidParamsError, match="gamma_p dt"):
                run(params, pops, config)

    def test_nyquist_guard_uses_widest_rate(self, ex1, ex1_pops):
        # Nyquist 12 resolves 10 max(kappa, gamma_perp) = 10 but not the
        # loop resonance sqrt(kappa gamma_perp (1 + |N|/N_th)) ~ 1.46
        config = MonteCarloConfig(duration=2048 * np.pi / 12.0, n_samples=2048, n_records=30)
        assert np.pi / config.dt >= 10.0 * max(ex1.kappa, ex1.gamma_perp)
        with pytest.raises(InvalidParamsError, match="Nyquist"):
            check_config(ex1, ex1_pops, config)

    @pytest.mark.parametrize("gamma_par", [1e-3, 0.01, 0.1, 0.45, 1.0, 3.0])
    def test_for_model_config_runs(self, ex1, gamma_par):
        # dt is capped at MAX_DECAY_STEP / gamma_p, so check_config's step
        # bound accepts what for_model picks even where gamma_p is large
        params = dataclasses.replace(ex1, gamma_par=gamma_par)
        pops = derive_populations(params)
        config = MonteCarloConfig.for_model(params, pops, n_records=30, seed=2)
        check_config(params, pops, config)
        assert pops.gamma_p * config.dt <= MAX_DECAY_STEP
        est = run_monte_carlo(params, pops, config)
        assert est.n_records == 30 and np.isfinite(est.n) and np.isfinite(est.g2)

    def test_rng_streams_are_independent(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops, seed=3)
        a = record_rng(config, 0).standard_normal(8)
        b = record_rng(config, 1).standard_normal(8)
        a2 = record_rng(config, 0).standard_normal(8)
        np.testing.assert_array_equal(a, a2)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("seed", [0, 2 ** 63])
    def test_rekeyed_state_is_the_record_stream(self, seed):
        # one Philox, used and then re-keyed, holds each record's stream as
        # record_rng and a Philox built on the key (seed, index) do
        config = MonteCarloConfig(duration=1.0, n_samples=8, seed=seed)
        bitgen = np.random.Philox()
        for index in (0, 1, 36, 2 ** 40):
            np.random.Generator(bitgen).standard_normal(5)  # leaves output buffered
            montecarlo._rekey(bitgen, seed, index)
            built = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
            assert (_philox_words(bitgen)
                    == _philox_words(record_rng(config, index).bit_generator)
                    == _philox_words(built))
            np.testing.assert_array_equal(
                np.random.Generator(bitgen).standard_normal(9),
                record_rng(config, index).standard_normal(9))


class TestColoredNoise:
    def test_flat_spectrum_is_white(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        flat = _flat_density()
        rng = record_rng(config, 0)
        var = np.mean([np.mean(np.abs(synthesize_colored_noise(flat, config, rng)) ** 2)
                       for _ in range(40)])
        # variance = bandwidth / (2 pi) = 1/dt for a unit flat spectrum
        assert var == pytest.approx(1.0 / config.dt, rel=0.02)

    def test_zero_spectrum_gives_zero_series(self, ex1, ex1_pops):
        # drawn like any spectrum, with amplitude 0 in every bin
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        series = synthesize_colored_noise(_flat_density(0.0), config, record_rng(config, 0))
        assert series.shape == (config.n_samples,) and series.dtype == complex
        assert np.all(series == 0.0)

    def test_commutator_variance_is_unity(self, ex1, ex1_pops):
        # wide band so the omega^-2 tails of c are inside the record: the
        # for_model record length at 8x the Nyquist frequency
        base = MonteCarloConfig.for_model(ex1, ex1_pops)
        config = MonteCarloConfig(duration=base.duration, n_samples=8 * base.n_samples)
        dens = partial(commutator_spectrum, ex1, ex1_pops)
        nr = 100
        vals = np.array([
            np.mean(np.abs(synthesize_colored_noise(dens, config, record_rng(config, i))) ** 2)
            for i in range(nr)])
        se = vals.std(ddof=1) / np.sqrt(nr)
        assert abs(vals.mean() - 1.0) <= 3.0 * se

    def test_periodogram_matches_target(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        dens = partial(commutator_spectrum, ex1, ex1_pops)
        acc = np.zeros(config.n_samples)
        nr = 150
        for i in range(nr):
            series = synthesize_colored_noise(dens, config, record_rng(config, i))
            acc += np.abs(np.fft.ifft(series)) ** 2 * config.duration
        est = np.fft.fftshift(acc / nr)
        target = commutator_spectrum(ex1, ex1_pops, np.fft.fftshift(config.omegas()))
        # block-average bins so the per-bin noise (100%/sqrt(nr)) drops
        block = 64
        m = (config.n_samples // block) * block
        est_b = est[:m].reshape(-1, block).mean(axis=1)
        tgt_b = target[:m].reshape(-1, block).mean(axis=1)
        center = slice(int(0.1 * len(est_b)), int(0.9 * len(est_b)))
        rel = np.abs(est_b[center] - tgt_b[center]) / tgt_b[center]
        assert rel.max() < 0.05

    def test_quadratures_independent(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        series = np.concatenate([
            synthesize_colored_noise(_flat_density(), config, record_rng(config, i))
            for i in range(20)])
        re, im = series.real, series.imag
        corr = np.mean(re * im) / np.sqrt(np.mean(re ** 2) * np.mean(im ** 2))
        assert abs(corr) < 0.01
        assert np.mean(re ** 2) == pytest.approx(np.mean(im ** 2), rel=0.02)

    def test_spectra_are_sampled_on_the_record_bins(self, ex1, ex1_pops, monkeypatch):
        # one grid: config.omegas(), where the ensemble takes s(omega) too
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        grids = []

        def flat(w):
            grids.append(w)
            return np.ones(w.shape)

        synthesize_colored_noise(flat, config, record_rng(config, 0))

        def commutator(params, pops, w):
            grids.append(w)
            return commutator_spectrum(params, pops, w)

        monkeypatch.setattr(montecarlo, "commutator_spectrum", commutator)
        ensemble = montecarlo._Ensemble(ex1, ex1_pops, config)
        assert len(grids) == 2
        for grid in grids:
            np.testing.assert_array_equal(grid, config.omegas())
        np.testing.assert_array_equal(ensemble.amp, np.sqrt(
            commutator_spectrum(ex1, ex1_pops, config.omegas()) / (2.0 * config.duration)))

    def test_grid_mismatch(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        for spectrum in (lambda w: np.ones(w.size // 2), lambda w: 1.0):  # not one sample per bin
            with pytest.raises(InvalidParamsError):
                synthesize_colored_noise(spectrum, config, record_rng(config, 0))


class TestOUPath:
    def test_zero_dispersion_gives_zero_path(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        path = ou_population_path(ex1_pops.without_fluctuations(), config, record_rng(config, 0))
        assert np.all(path == 0.0)

    def test_variance_matches_dispersion(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        nr = 200
        vals = np.array([np.mean(ou_population_path(ex1_pops, config, record_rng(config, i)) ** 2)
                         for i in range(nr)])
        se = vals.std(ddof=1) / np.sqrt(nr)
        assert abs(vals.mean() - EX1_ORACLE["delta2_ne"]) <= 3.0 * se

    def test_autocorrelation_time(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        lag = int(round(1.0 / (ex1_pops.gamma_p * config.dt)))
        acc, nr = 0.0, 150
        for i in range(nr):
            x = ou_population_path(ex1_pops, config, record_rng(config, i))
            acc += np.mean(x[:-lag] * x[lag:])
        target = np.exp(-ex1_pops.gamma_p * lag * config.dt) * EX1_ORACLE["delta2_ne"]
        assert acc / nr == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("decay", [MAX_DECAY_STEP, 1e-4])
    @pytest.mark.parametrize("n", [4096, 32768, MAX_RECORD_SAMPLES])
    def test_matches_lfilter_recursion(self, ex1_pops, n, decay):
        # gamma_p dt = decay, less a hair so that MAX_DECAY_STEP cannot round
        # above the cap; lfilter runs y[j] = b[j] + rho y[j-1] on the same
        # innovations, so the two paths differ by rounding alone
        config = MonteCarloConfig(duration=n * decay * (1.0 - 1e-12) / ex1_pops.gamma_p,
                                  n_samples=n)
        rho = math.exp(-ex1_pops.gamma_p * config.dt)
        b = record_rng(config, 0).standard_normal(n)
        b[1:] *= math.sqrt(ex1_pops.delta2_ne * (1.0 - rho * rho))
        b[0] *= math.sqrt(ex1_pops.delta2_ne)
        expected = lfilter([1.0], [1.0, -rho], b)
        path = ou_population_path(ex1_pops, config, record_rng(config, 0))
        assert np.max(np.abs(path - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [4096, MAX_RECORD_SAMPLES])
    def test_block_rows_equal_one_row_paths(self, ex1_pops, n):
        config = MonteCarloConfig(duration=n * 0.05 / ex1_pops.gamma_p, n_samples=n)
        block = np.stack([record_rng(config, i).standard_normal(n) for i in range(3)])
        ou = montecarlo._ou_constants(ex1_pops, config)
        # LAPACK's order, so dtbtrs reads the band without a copy
        assert ou[0].flags.f_contiguous
        paths = montecarlo._ou_series(block, ou)
        for i in range(3):
            assert np.array_equal(
                paths[i], ou_population_path(ex1_pops, config, record_rng(config, i)))

    def test_large_step_is_exact_ar1(self, ex1_pops):
        # gamma_p dt = 0.11, past MAX_DECAY_STEP, which bounds a record
        # (check_config) and not the path: the OU process sampled at any
        # step is AR(1), variance delta2_ne and lag-one correlation
        # exp(-gamma_p dt), from the first sample on
        config = MonteCarloConfig(duration=512.0, n_samples=512)  # dt = 1
        assert ex1_pops.gamma_p * config.dt > MAX_DECAY_STEP
        paths = np.stack([ou_population_path(ex1_pops, config, record_rng(config, i))
                          for i in range(200)]) / math.sqrt(ex1_pops.delta2_ne)
        var = np.mean(paths ** 2, axis=1)
        rho = math.exp(-ex1_pops.gamma_p * config.dt)
        # the correlation as E[x_j x_j+1] - rho E[x_j^2] = 0, unbiased and
        # with a tenth of the scatter of the lag-one mean alone
        for stat in (var - 1.0, np.mean(paths[:, :-1] * paths[:, 1:], axis=1) - rho * var):
            assert abs(stat.mean()) <= 3.0 * stat.std(ddof=1) / math.sqrt(len(stat))


class TestFieldRecords:
    def test_gaussian_limit_without_fluctuations(self, ex1, ex1_pops):
        frozen = ex1_pops.without_fluctuations()
        config = MonteCarloConfig.for_model(ex1, frozen, n_records=150, seed=11)
        est = run_monte_carlo(ex1, frozen, config)
        assert abs(est.g2 - 2.0) <= 3.0 * est.g2_se
        assert abs(est.n - EX1_ORACLE["n0"]) <= 3.0 * est.n_se

    def test_ex1_moments_match_exact_pipeline(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=500, seed=505)
        est = run_monte_carlo(ex1, ex1_pops, config)
        assert est.g2_se <= 0.02
        assert abs(est.n - EX1_ORACLE["n_exact"]) <= 3.0 * est.n_se
        assert abs(est.g2 - EX1_ORACLE["g2_full"]) <= 3.0 * est.g2_se

    def test_seed_determinism(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=40, seed=9)
        a = run_monte_carlo(ex1, ex1_pops, config)
        b = run_monte_carlo(ex1, ex1_pops, config)
        assert a == b

    def test_ensemble_matches_one_record_path(self, ex1, ex1_pops):
        # 33 records of 4096 samples: blocks of 8 rows and a 1-row last block
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=33, seed=21)
        # the record path returns (a_f, v_d); reduce each pair through the
        # ensemble's own conditional reducers
        means = []
        for i in range(config.n_records):
            a_f, drive_var = simulate_field_record(ex1, ex1_pops, config, record_rng(config, i))
            assert drive_var > 0.0
            means.append(montecarlo._record_means(np.abs(a_f) ** 2, drive_var))
        assert run_monte_carlo(ex1, ex1_pops, config) == montecarlo._estimate_from_means(
            *np.transpose(means))

    def test_golden_ex1_partial_block(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        assert config.n_samples == 4096
        assert run_monte_carlo(ex1, ex1_pops, config) == GOLDEN_EX1

    def test_golden_long_records(self, ex1):
        params = dataclasses.replace(ex1, gamma_par=0.01)
        pops = derive_populations(params)
        config = MonteCarloConfig.for_model(params, pops, n_records=30, seed=3)
        assert config.n_samples == 32768
        assert run_monte_carlo(params, pops, config) == GOLDEN_LONG

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_keeps_golden_estimates(self, ex1, ex1_pops, monkeypatch, workers):
        # 3 workers share 19 chunks of 2 records, the last chunk holding 1,
        # each taking the next as soon as it is free; records of 32768
        # samples take one chunk each
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost chunk would show
        try:
            config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
            assert run_monte_carlo(ex1, ex1_pops, config) == GOLDEN_EX1
            # without a population channel the drive itself is drawn
            assert run_monte_carlo(ex1, ex1_pops.without_fluctuations(), config) == GOLDEN_DRIVE
            params = dataclasses.replace(ex1, gamma_par=0.01)
            pops = derive_populations(params)
            config = MonteCarloConfig.for_model(params, pops, n_records=30, seed=3)
            assert montecarlo._stripes(config) == (1, workers)
            assert run_monte_carlo(params, pops, config) == GOLDEN_LONG
        finally:
            sys.setswitchinterval(interval)

    def test_one_philox_per_worker(self, ex1, ex1_pops, monkeypatch):
        # each worker re-keys the one Philox it owns for every record
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        philox = np.random.Philox
        builds = []

        def counting_philox(*args, **kwargs):
            builds.append(threading.current_thread())
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        assert montecarlo._stripes(config) == (4, 2)
        assert run_monte_carlo(ex1, ex1_pops, config) == GOLDEN_EX1
        assert 1 <= len(builds) <= 2 and len(set(builds)) == len(builds)
        assert threading.current_thread() not in builds

    def test_concurrent_callers_share_no_stream(self, ex1, ex1_pops):
        # two calling threads run the same seeded ensemble at once, each with
        # its own workers; a stream shared between them would mix records
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        start = threading.Barrier(2)
        results = [None, None]

        def caller(slot):
            start.wait(timeout=30.0)
            results[slot] = run_monte_carlo(ex1, ex1_pops, config)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared stream would show
        try:
            callers = [threading.Thread(target=caller, args=(slot,)) for slot in (0, 1)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert results == [GOLDEN_EX1, GOLDEN_EX1]

    def test_worker_error_is_raised_and_threads_end(self, ex1, ex1_pops, monkeypatch):
        # two workers over 10 chunks: the first to bring a chunk into fields
        # holds it until the failure is signalled, the other fails on its
        # first chunk, and no other chunk is taken
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        events = _record_events(monkeypatch)
        fields = montecarlo._Ensemble.fields
        failure = ModelError("worker chunk failed")
        chunks = []  # (thread, rows of the field buffer) of each chunk in fields
        holder = threading.Lock()
        held = threading.Event()
        released = []  # whether the holder saw the stop flag set

        def failing_fields(self, bufs):
            chunks.append((threading.current_thread(), len(bufs[0])))
            if holder.acquire(blocking=False):
                held.set()
                released.append(events[0].wait(timeout=30.0))
                return fields(self, bufs)
            # fail only once the other worker holds its chunk, so the two
            # cannot race to the failure
            assert held.wait(timeout=30.0)
            raise failure

        monkeypatch.setattr(montecarlo._Ensemble, "fields", failing_fields)
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        assert montecarlo._stripes(config) == (4, 2)
        before = threading.active_count()
        with pytest.raises(ModelError) as info:
            run_monte_carlo(ex1, ex1_pops, config)
        assert info.value is failure
        assert released == [True]
        assert [rows for _, rows in chunks] == [4, 4]
        workers = {thread for thread, _ in chunks}
        assert len(workers) == 2 and threading.current_thread() not in workers
        assert not any(thread.is_alive() for thread in workers)
        assert threading.active_count() == before

    def test_chunks_are_taken_on_demand(self, ex1, ex1_pops, monkeypatch):
        # two workers over 10 chunks: the first chunk to reach fields is
        # held until the other 9 are reduced, so the other worker must take
        # all of them; with chunks dealt out in fixed turns it would stop
        # after 4 or 5 and the wait would time out
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        fields = montecarlo._Ensemble.fields
        record_means = montecarlo._record_means
        reduced = []
        others_reduced = threading.Event()
        first = threading.Lock()

        def counting_means(intensity, drive_var):
            means = record_means(intensity, drive_var)
            reduced.append(len(intensity))
            if len(reduced) == 9:
                others_reduced.set()
            return means

        def stalling_fields(self, bufs):
            if first.acquire(blocking=False):
                assert others_reduced.wait(timeout=30.0)
            return fields(self, bufs)

        monkeypatch.setattr(montecarlo, "_record_means", counting_means)
        monkeypatch.setattr(montecarlo._Ensemble, "fields", stalling_fields)
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        assert montecarlo._stripes(config) == (4, 2)
        assert run_monte_carlo(ex1, ex1_pops, config) == GOLDEN_EX1
        assert sorted(reduced) == [1] + [4] * 9

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"),
                        reason="signals are sent to a thread on POSIX only")
    @pytest.mark.parametrize("window", ["starting", "waiting"])
    def test_interrupt_stops_every_worker(self, ex1, ex1_pops, monkeypatch, window):
        # a worker in its first chunk sends SIGINT to the calling thread
        # while the caller is still starting the second worker, or once it
        # waits for both; each worker in fields holds its chunk until the
        # stop flag is set
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        events = _record_events(monkeypatch)
        main_ident = threading.main_thread().ident
        threads = []
        in_window = threading.Event()  # the caller is where the signal must land
        sent = threading.Event()

        class SequencedThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                threads.append(self)

            def start(self):
                if window == "starting" and len(threads) == 2:
                    in_window.set()
                    assert sent.wait(timeout=30.0)  # the interrupt lands here
                super().start()
                if window == "waiting" and len(threads) == 2:
                    in_window.set()  # both started: the caller goes on to wait

        fields = montecarlo._Ensemble.fields
        stopped_on_entry = []  # the stop flag as each chunk reached fields
        released = []  # whether each chunk saw the stop flag set
        both_in = threading.Barrier(2)

        def interrupting_fields(self, bufs):
            stopped_on_entry.append(events[0].is_set())
            # waiting: one of the two workers signals once both hold a chunk
            if window == "starting" or both_in.wait(timeout=30.0) == 0:
                assert in_window.wait(timeout=30.0)
                signal.pthread_kill(main_ident, signal.SIGINT)
                sent.set()
            released.append(events[0].wait(timeout=30.0))
            return fields(self, bufs)

        monkeypatch.setattr(montecarlo, "Thread", SequencedThread)
        monkeypatch.setattr(montecarlo._Ensemble, "fields", interrupting_fields)
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        before = threading.active_count()
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_monte_carlo(ex1, ex1_pops, config)
        finally:
            signal.signal(signal.SIGINT, handler)
        started = 1 if window == "starting" else 2
        assert len(threads) == 2 and sum(t.ident is not None for t in threads) == started
        assert stopped_on_entry == [False] * started and released == [True] * started
        assert not any(thread.is_alive() for thread in threads)
        assert threading.active_count() == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults are counted on Linux")
    def test_long_records_fault_no_pages_per_record(self):
        # each 32768-sample FFT allocates about 900 KiB of scratch; a worker
        # that pages it in afresh faults some 224 times per transform, three
        # transforms a record. A fresh interpreter, so that no earlier test
        # has moved the allocator's thresholds
        proc = subprocess.run([sys.executable, "-c", FAULTS], env=src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        at_30, at_60 = json.loads(proc.stdout)
        assert (at_60 - at_30) / 30 < 50.0, (at_30, at_60)

    @pytest.mark.parametrize("cpus", [2, 16, 32, pytest.param(None, id="host")])
    def test_many_cpus_keep_one_block(self, ex1, ex1_pops, monkeypatch, cpus):
        # an ensemble's traced peak stays within one record of a block, on
        # this host and on hosts with more CPUs than a block holds
        # 4096-sample records
        if cpus is None:
            cpus = montecarlo._cpu_count()
        else:
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=64, seed=1)
        assert config.n_samples == 4096
        rows, workers = montecarlo._stripes(config)
        assert rows * workers * config.n_samples <= montecarlo.BLOCK_SAMPLES
        long = dataclasses.replace(config, duration=config.duration * 8, n_samples=2 ** 15)
        ensemble = _traced_peak(lambda: run_monte_carlo(ex1, ex1_pops, config))
        record = _traced_peak(
            lambda: simulate_field_record(ex1, ex1_pops, long, record_rng(long, 0)))
        assert ensemble <= record
        # half-block records: two in flight; records of a block or more: one
        # per worker, MAX_RECORD_SAMPLES together
        half = (1, 2) if cpus > 1 else (2, 1)
        block = (1, min(cpus, MAX_RECORD_SAMPLES // 2 ** 15))
        for n, stripes in ((2 ** 14, half), (2 ** 15, block), (MAX_RECORD_SAMPLES, (1, 1))):
            sized = dataclasses.replace(config, n_samples=n, n_records=500)
            assert montecarlo._stripes(sized) == stripes

    def test_ensemble_keeps_two_floats_per_record(self, ex1, ex1_pops, monkeypatch):
        # one worker, so no two chunks' temporaries overlap and the peak is
        # deterministic; 1000 more records may add their two float64 means,
        # 16 bytes a record, but no per-record Python object (a tuple of two
        # floats and its list slot take about 110)
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
        small = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=64, seed=1)
        large = dataclasses.replace(small, n_records=1064)
        peaks = [_traced_peak(lambda: run_monte_carlo(ex1, ex1_pops, config))
                 for config in (small, large)]
        assert (peaks[1] - peaks[0]) / 1000 < 32.0

    def test_config_check_rejects_short_records(self, ex1, ex1_pops):
        # T = 64 is below MIN_CYCLES / gamma_p = 455: the ensemble and the
        # one-record path both refuse it
        bad = MonteCarloConfig(duration=64.0, n_samples=512, n_records=40)
        with pytest.raises(InvalidParamsError, match="need at least 455"):
            run_monte_carlo(ex1, ex1_pops, bad)
        with pytest.raises(InvalidParamsError, match="need at least 455"):
            simulate_field_record(ex1, ex1_pops, bad, record_rng(bad, 0))


class TestConditionalDrive:
    """The zero-order drive integrated out of each record, against drawn drives."""

    @staticmethod
    def _drives(params, pops, config, count):
        # without fluctuations a record is the drawn drive a_d alone, with the
        # amplitude and loop filter of the fluctuating model; seeded apart from
        # the channel records, which share a record's first normals
        frozen = pops.without_fluctuations()
        config = dataclasses.replace(config, seed=config.seed + 1)
        return [simulate_field_record(params, frozen, config, record_rng(config, i))[0]
                for i in range(count)]

    def test_drive_variance_matches_drawn_drives(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops, seed=4)
        drive_var = simulate_field_record(ex1, ex1_pops, config, record_rng(config, 0))[1]
        vals = np.array([np.mean(np.abs(a_d) ** 2)
                         for a_d in self._drives(ex1, ex1_pops, config, 200)])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - drive_var) <= 3.0 * se
        # the record band holds all but the far tails of n0 = 2/47
        assert drive_var == pytest.approx(EX1_ORACLE["n0"], rel=1e-3)

    def test_moments_given_the_channel(self, ex1, ex1_pops):
        # one fixed a_f: <|a_f + a_d|^2> and <|a_f + a_d|^4> averaged over
        # drawn drives against |a_f|^2 + v_d and |a_f|^4 + 4 v_d |a_f|^2 + 2 v_d^2
        config = MonteCarloConfig.for_model(ex1, ex1_pops, seed=6)
        a_f, drive_var = simulate_field_record(ex1, ex1_pops, config, record_rng(config, 0))
        targets = montecarlo._record_means(np.abs(a_f) ** 2, drive_var)
        intensity = np.array([np.abs(a_f + a_d) ** 2
                              for a_d in self._drives(ex1, ex1_pops, config, 200)])
        for moment, target in zip((intensity, intensity ** 2), targets):
            vals = np.mean(moment, axis=-1)
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - target) <= 3.0 * se

    def test_zero_dispersion_draws_the_drive(self, ex1, ex1_pops):
        frozen = ex1_pops.without_fluctuations()
        config = MonteCarloConfig.for_model(ex1, frozen, n_records=30, seed=2)
        record, drive_var = simulate_field_record(ex1, frozen, config, record_rng(config, 0))
        assert drive_var == 0.0 and np.all(record != 0.0)
        est = run_monte_carlo(ex1, frozen, config)
        assert est.n_se > 0.0 and est.g2_se > 0.0


class TestEstimateMoments:
    def _thermal_records(self, rng, n_records=80, n_samples=256):
        return [rng.standard_normal(n_samples) * 1j + rng.standard_normal(n_samples)
                for _ in range(n_records)]

    def test_gaussian_input_gives_two(self):
        rng = np.random.default_rng(1)
        est = estimate_moments(self._thermal_records(rng))
        assert abs(est.g2 - 2.0) <= 3.0 * est.g2_se

    def test_stabilized_amplitude_gives_one(self):
        rng = np.random.default_rng(2)
        records = []
        for _ in range(60):
            phase = rng.uniform(0.0, 2.0 * np.pi, 256)
            amp = 1.0 + 0.01 * rng.standard_normal(256)  # slight jitter
            records.append(amp * np.exp(1j * phase))
        est = estimate_moments(records)
        assert abs(est.g2 - 1.0) <= 3.0 * est.g2_se + 1e-3

    def test_too_few_records(self):
        # the ensemble rule of MonteCarloConfig: 30 records or more
        rng = np.random.default_rng(3)
        for n_records in (10, 29):
            with pytest.raises(InvalidParamsError, match="at least 30 records"):
                estimate_moments(self._thermal_records(rng, n_records=n_records))
        assert estimate_moments(self._thermal_records(rng, n_records=30)).n_records == 30

    def test_sanity_bound(self):
        rng = np.random.default_rng(4)
        est = estimate_moments(self._thermal_records(rng))
        assert est.g2 >= 1.0 - 3.0 * est.g2_se
        assert est.n_se > 0.0 and est.g2_se > 0.0

    def test_se_scaling_with_records(self):
        # SE(g2) ~ records^(-1/2): fit the exponent over 4 ensemble sizes
        rng = np.random.default_rng(5)
        sizes = (50, 100, 200, 400)
        ses = []
        for size in sizes:
            est = estimate_moments(self._thermal_records(rng, n_records=size))
            ses.append(est.g2_se)
        slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)
