"""Stochastic records: synthesis fidelity, OU statistics, moment estimates."""

import dataclasses
import math
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from srled import (
    InvalidParamsError,
    ModelError,
    MomentEstimate,
    MonteCarloConfig,
    RecordTooLongError,
    StepTooLargeError,
    TooFewRecordsError,
    derive_populations,
    estimate_moments,
    ou_population_path,
    run_monte_carlo,
    simulate_field_record,
    synthesize_colored_noise,
)
from srled import montecarlo
from srled.model import commutator_spectrum
from srled.montecarlo import MAX_DECAY_STEP, MAX_RECORD_SAMPLES, check_config, record_rng

from conftest import EX1_ORACLE


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


class TestConfig:
    def test_power_of_two_required(self):
        with pytest.raises(InvalidParamsError):
            MonteCarloConfig(duration=100.0, n_samples=1000)

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

    def test_nyquist_guard_uses_widest_rate(self, ex1, ex1_pops):
        # Nyquist 12 resolves 10 max(kappa, gamma_perp) = 10 but not the
        # loop resonance sqrt(kappa gamma_perp (1 + |N|/N_th)) ~ 1.46
        config = MonteCarloConfig(duration=2048 * np.pi / 12.0, n_samples=2048, n_records=30)
        assert np.pi / config.dt >= 10.0 * max(ex1.kappa, ex1.gamma_perp)
        with pytest.raises(InvalidParamsError, match="Nyquist"):
            check_config(ex1, ex1_pops, config)

    @pytest.mark.parametrize("gamma_par", [1e-3, 0.01, 0.1, 0.45, 1.0, 3.0])
    def test_for_model_config_runs(self, ex1, gamma_par):
        # dt is capped at MAX_DECAY_STEP / gamma_p, so the AR(1) step check
        # accepts what for_model picks even where gamma_p is large
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
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        series = synthesize_colored_noise(_flat_density(0.0), config, record_rng(config, 0))
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

    def test_step_too_large(self, ex1, ex1_pops):
        config = MonteCarloConfig(duration=512.0, n_samples=512)  # dt = 1
        with pytest.raises(StepTooLargeError):
            ou_population_path(ex1_pops, config, record_rng(config, 0))


class TestFieldRecords:
    def test_zero_field_without_emitters_or_noise(self, ex1):
        params = dataclasses.replace(ex1, pump=0.0)
        pops = derive_populations(params)  # N_e = 0 and delta2_ne = 0
        config = MonteCarloConfig.for_model(params, pops)
        rec = simulate_field_record(params, pops, config, record_rng(config, 0))
        assert np.all(rec == 0.0)

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
        records = (simulate_field_record(ex1, ex1_pops, config, record_rng(config, i))
                   for i in range(config.n_records))
        assert run_monte_carlo(ex1, ex1_pops, config) == estimate_moments(records)

    # Frozen outputs of the per-record loop that block synthesis replaced;
    # seeded ensembles must reproduce them bit for bit.
    def test_golden_ex1_partial_block(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        assert config.n_samples == 4096
        assert run_monte_carlo(ex1, ex1_pops, config) == MomentEstimate(
            n=0.053595462667502876, g2=2.1591545878105176, n_se=0.0005866513469295254,
            g2_se=0.03718569905312106, n_records=37)

    def test_golden_long_records(self, ex1):
        params = dataclasses.replace(ex1, gamma_par=0.01)
        pops = derive_populations(params)
        config = MonteCarloConfig.for_model(params, pops, n_records=30, seed=3)
        assert config.n_samples == 32768
        assert run_monte_carlo(params, pops, config) == MomentEstimate(
            n=0.0536406637766617, g2=2.181550600349273, n_se=0.00035363554060655267,
            g2_se=0.012936052597655713, n_records=30)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_keeps_golden_estimates(self, ex1, ex1_pops, monkeypatch, workers):
        # 3 workers stripe 19 chunks of 2 records unevenly, the last chunk
        # holding 1; records of 32768 samples take one chunk each
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost chunk would show
        try:
            config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
            assert run_monte_carlo(ex1, ex1_pops, config) == MomentEstimate(
                n=0.053595462667502876, g2=2.1591545878105176, n_se=0.0005866513469295254,
                g2_se=0.03718569905312106, n_records=37)
            params = dataclasses.replace(ex1, gamma_par=0.01)
            pops = derive_populations(params)
            config = MonteCarloConfig.for_model(params, pops, n_records=30, seed=3)
            assert montecarlo._stripes(config) == (1, workers)
            assert run_monte_carlo(params, pops, config) == MomentEstimate(
                n=0.0536406637766617, g2=2.181550600349273, n_se=0.00035363554060655267,
                g2_se=0.012936052597655713, n_records=30)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_is_raised_and_threads_end(self, ex1, ex1_pops, monkeypatch):
        # two workers over 10 chunks: the helper thread fails on its first
        # chunk, and the calling thread holds its first chunk until the
        # failure is signalled, then takes no other
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        events = []

        def recording_event():
            events.append(threading.Event())
            return events[-1]

        monkeypatch.setattr(montecarlo, "Event", recording_event)
        fields = montecarlo._Ensemble.fields
        failure = ModelError("helper chunk failed")
        main_chunks = []

        def failing_fields(self, bufs):
            if threading.current_thread() is not threading.main_thread():
                raise failure
            main_chunks.append(len(bufs[0]))
            assert events[0].wait(timeout=30.0)
            return fields(self, bufs)

        monkeypatch.setattr(montecarlo._Ensemble, "fields", failing_fields)
        config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=37, seed=9)
        assert montecarlo._stripes(config) == (4, 2)
        before = threading.active_count()
        with pytest.raises(ModelError) as info:
            run_monte_carlo(ex1, ex1_pops, config)
        assert info.value is failure
        assert main_chunks == [4]
        assert threading.active_count() == before

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
        # a first record loads scipy.signal, which the peaks must not count
        simulate_field_record(ex1, ex1_pops, config, record_rng(config, 0))
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
        # a first record loads scipy.signal, which the peaks must not count
        simulate_field_record(ex1, ex1_pops, small, record_rng(small, 0))
        peaks = [_traced_peak(lambda: run_monte_carlo(ex1, ex1_pops, config))
                 for config in (small, large)]
        assert (peaks[1] - peaks[0]) / 1000 < 32.0

    def test_config_check_rejects_short_records(self, ex1, ex1_pops):
        bad = MonteCarloConfig(duration=64.0, n_samples=512, n_records=40)
        with pytest.raises(InvalidParamsError):
            run_monte_carlo(ex1, ex1_pops, bad)


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
        rng = np.random.default_rng(3)
        with pytest.raises(TooFewRecordsError):
            estimate_moments(self._thermal_records(rng, n_records=10))

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
