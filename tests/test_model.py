"""Populations, loop denominator, commutator and population spectra."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srled import (
    AboveThresholdError,
    FrequencyGrid,
    InvalidParamsError,
    ModelParams,
    MonteCarloConfig,
    commutator_spectrum,
    derive_populations,
    integrate_1d,
    loop_denominator,
    population_spectrum,
    synthesize_colored_noise,
    validity_ratio,
)
from srled.model import (
    MAX_GRID_POINTS,
    loop_abs2,
    loop_coefficients,
    slow_pole_ratio,
    slowest_rate,
)
from srled.montecarlo import record_rng

from conftest import EX1_ORACLE


def dispersion_from_diffusion(params, pops) -> float:
    """gamma_par (P N_g + N_e) / (2 gamma_p): the Langevin diffusion 2 D_NeNe
    over twice the population rate, N_g = N_0 - N_e."""
    n_g = params.n_emitters - pops.n_excited
    return params.gamma_par * (params.pump * n_g + pops.n_excited) / (2.0 * pops.gamma_p)


class TestDerivePopulations:
    def test_symmetric_pump_point(self):
        # P = 1, N_0 = 100: equal populations, zero inversion
        params = ModelParams(kappa=0.5, gamma_par=0.1, pump=1.0,
                             n_threshold=5.0, n_emitters=100.0)
        pops = derive_populations(params)
        assert pops.n_excited == pytest.approx(50.0, rel=1e-15)
        assert pops.inversion == pytest.approx(0.0, abs=1e-12)
        assert pops.delta2_ne == pytest.approx(25.0, rel=1e-15)

    def test_zero_pump(self):
        # at P = 0 no emitter is excited, no light is emitted, and
        # g2 = <n^2>/<n>^2 is 0/0; every pump that is not positive and
        # finite is refused
        for pump in (0.0, -0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParamsError, match="pump must be positive and finite"):
                ModelParams(kappa=0.5, gamma_par=0.1, pump=pump,
                            n_threshold=5.0, n_emitters=20.0)
        params = ModelParams(kappa=0.5, gamma_par=0.1, pump=1e-300,
                             n_threshold=5.0, n_emitters=20.0)
        pops = derive_populations(params)
        assert pops.n_excited == pops.delta2_ne == 2e-299
        assert pops.inversion == -20.0
        assert pops.gamma_p == params.gamma_par

    def test_ex1_rationals(self, ex1, ex1_pops):
        o = EX1_ORACLE
        assert ex1_pops.n_excited == pytest.approx(o["n_excited"], rel=1e-14)
        assert ex1_pops.inversion == pytest.approx(o["inversion"], rel=1e-14)
        assert ex1_pops.delta2_ne == pytest.approx(o["delta2_ne"], rel=1e-14)
        assert ex1_pops.gamma_p == pytest.approx(o["gamma_p"], rel=1e-14)
        # 2 D_NeNe = gamma_par (P N_g + N_e) = 4/11 and gamma_p = 0.11 give
        # delta2_ne = (4/11) / 0.22 = 200/121
        n_g = ex1.n_emitters - ex1_pops.n_excited
        assert n_g == pytest.approx(o["n_ground"], rel=1e-14)
        assert ex1.gamma_par * (ex1.pump * n_g + ex1_pops.n_excited) == pytest.approx(
            o["diffusion"], rel=1e-14)
        assert dispersion_from_diffusion(ex1, ex1_pops) == pytest.approx(o["delta2_ne"], rel=1e-14)
        assert [f.name for f in dataclasses.fields(ex1_pops)] == [
            "n_excited", "inversion", "delta2_ne", "gamma_p"]

    def test_above_threshold_raises(self):
        params = ModelParams(kappa=0.5, gamma_par=0.1, pump=2.0,
                             n_threshold=5.0, n_emitters=100.0)
        with pytest.raises(AboveThresholdError):
            derive_populations(params)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(kappa=-1.0, gamma_par=0.1, pump=0.1,
                        n_threshold=5.0, n_emitters=20.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(kappa=0.5, gamma_par=0.1, pump=-0.1,
                        n_threshold=5.0, n_emitters=20.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                        n_threshold=0.0, n_emitters=20.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                        n_threshold=5.0, n_emitters=np.inf)
        # kappa / n_threshold overflows
        with pytest.raises(InvalidParamsError):
            ModelParams(kappa=1e200, gamma_par=0.1, pump=0.1,
                        n_threshold=1e-200, n_emitters=20.0)

    @pytest.mark.parametrize("bad", [
        {"gamma_p": -0.11}, {"gamma_p": 0.0}, {"gamma_p": math.nan}, {"gamma_p": math.inf},
        {"delta2_ne": -1.0}, {"delta2_ne": math.inf}, {"n_excited": -1.0}, {"n_excited": 0.0},
        {"n_excited": math.nan}, {"inversion": math.nan}, {"inversion": -math.inf},
    ], ids=repr)
    def test_populations_refuse_what_derive_cannot_produce(self, ex1_pops, bad):
        # no state derive_populations produces; let through, they would give
        # a bare ValueError, a frozen population or a dropped population
        # channel downstream
        with pytest.raises(InvalidParamsError, match=next(iter(bad))):
            dataclasses.replace(ex1_pops, **bad)

    def test_gamma_perp_is_the_unit(self, ex1):
        # gamma_perp = 1 is the unit of every rate, not a parameter
        assert ModelParams.gamma_perp == ex1.gamma_perp == 1.0
        with pytest.raises(TypeError):
            ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                        n_threshold=5.0, n_emitters=20.0, gamma_perp=2.0)
        with pytest.raises(TypeError):
            dataclasses.replace(ex1, gamma_perp=2.0)

    @given(pump=st.floats(0.0, 0.99, exclude_min=True), n_emitters=st.floats(1.0, 1e4))
    def test_population_closure(self, pump, n_emitters):
        params = ModelParams(kappa=0.5, gamma_par=0.1, pump=pump,
                             n_threshold=5.0, n_emitters=n_emitters)
        pops = derive_populations(params)
        # N_g is the exact complement N_0 - N_e; the recombined sum can
        # differ from n_emitters by one rounding step at most
        n_g = n_emitters - pops.n_excited
        assert pops.n_excited + n_g == pytest.approx(n_emitters, rel=1e-15)
        assert pops.inversion == pops.n_excited - n_g
        assert pops.delta2_ne >= 0.0
        assert pops.delta2_ne == pytest.approx(dispersion_from_diffusion(params, pops), rel=1e-14)


class TestLoopDenominator:
    def test_dc_value_is_real(self, ex1, ex1_pops):
        s0 = loop_denominator(ex1, ex1_pops, 0.0)
        assert s0.imag == 0.0
        assert s0.real == pytest.approx(EX1_ORACLE["s0"], rel=1e-14)

    def test_dc_formula(self, ex1, ex1_pops):
        expected = 0.5 * ex1.kappa * ex1.gamma_perp * (1.0 - ex1_pops.inversion / ex1.n_threshold)
        assert loop_denominator(ex1, ex1_pops, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_quartic_growth(self, ex1, ex1_pops):
        # |s|^2 -> omega^4 at large omega
        for w in (1e3, 1e4):
            assert loop_abs2(ex1, ex1_pops, w) / w ** 4 == pytest.approx(1.0, rel=1e-4)

    def test_abs2_matches_denominator(self, ex1, ex1_pops):
        w = np.linspace(-7.0, 7.0, 101)
        direct = np.abs(loop_denominator(ex1, ex1_pops, w)) ** 2
        np.testing.assert_allclose(loop_abs2(ex1, ex1_pops, w), direct, rtol=1e-13)

    @pytest.mark.parametrize("n_emitters", [5.0, 9.0, 9.9, 9.999])
    def test_slowest_rate_is_the_slow_root(self, n_emitters):
        # P = 3, N_th = 5: the inversion N_0/2 is 0.5 to 0.9999 N_th, and the
        # roots of x^2 - B x + A are real
        params = ModelParams(kappa=0.5, gamma_par=0.1, pump=3.0, n_threshold=5.0,
                             n_emitters=n_emitters)
        pops = derive_populations(params)
        a, b = loop_coefficients(params, pops)
        roots = np.roots([1.0, -b, a])
        assert slowest_rate(params, pops) == pytest.approx(roots.real.min(), rel=1e-9)

    def test_slowest_rate_of_complex_roots(self, ex1, ex1_pops):
        # EX1: B^2 < 4A, both roots have real part B/2 = kappa/2 + gamma_perp/4
        a, b = loop_coefficients(ex1, ex1_pops)
        assert b * b < 4.0 * a
        assert slowest_rate(ex1, ex1_pops) == 0.5 * b


class TestCommutatorSpectrum:
    def test_dc_value(self, ex1, ex1_pops):
        c0 = commutator_spectrum(ex1, ex1_pops, 0.0)
        assert c0 == pytest.approx(EX1_ORACLE["c0"], rel=1e-14)
        # c(0) = 2 / [kappa (1 - N/N_th)]
        alt = 2.0 / (ex1.kappa * (1.0 - ex1_pops.inversion / ex1.n_threshold))
        assert c0 == pytest.approx(alt, rel=1e-14)

    def test_normalization_ex1(self, ex1, ex1_pops):
        val, _ = integrate_1d(lambda w: commutator_spectrum(ex1, ex1_pops, w), rel_tol=1e-11)
        assert val / (2.0 * np.pi) == pytest.approx(1.0, abs=1e-9)

    def test_even_and_positive(self, ex1, ex1_pops):
        w = np.linspace(0.0, 40.0, 2001)
        plus = commutator_spectrum(ex1, ex1_pops, w)
        minus = commutator_spectrum(ex1, ex1_pops, -w)
        np.testing.assert_array_equal(plus, minus)
        assert np.all(plus > 0.0)

    @settings(max_examples=25, deadline=None)
    @given(ratio=st.floats(0.1, 10.0), pump=st.floats(0.01, 0.9),
           n_th=st.floats(2.0, 20.0), n_emitters=st.floats(5.0, 300.0))
    def test_normalization_property(self, ratio, pump, n_th, n_emitters):
        params = ModelParams.from_ratio(ratio, gamma_par=0.1, pump=pump,
                                        n_threshold=n_th, n_emitters=n_emitters)
        pops = derive_populations(params)
        val, _ = integrate_1d(lambda w: commutator_spectrum(params, pops, w), rel_tol=1e-10)
        assert val / (2.0 * np.pi) == pytest.approx(1.0, abs=1e-6)


class TestPopulationSpectrum:
    def test_dc_value(self, ex1_pops):
        assert population_spectrum(ex1_pops, 0.0) == pytest.approx(
            2.0 * ex1_pops.delta2_ne / ex1_pops.gamma_p, rel=1e-14)

    def test_mass_is_dispersion(self, ex1_pops):
        # analytic Lorentzian integral as the oracle
        val, _ = integrate_1d(lambda w: population_spectrum(ex1_pops, w))
        assert val / (2.0 * np.pi) == pytest.approx(ex1_pops.delta2_ne, rel=1e-8)

    def test_vanishes_without_fluctuations(self, ex1_pops):
        w = np.linspace(-5.0, 5.0, 11)
        assert np.all(population_spectrum(ex1_pops.without_fluctuations(), w) == 0.0)


@pytest.mark.parametrize("evaluate", [
    lambda p, pops, w: loop_abs2(p, pops, w),
    lambda p, pops, w: commutator_spectrum(p, pops, w),
    lambda p, pops, w: population_spectrum(pops, w),
], ids=["loop_abs2", "commutator_spectrum", "population_spectrum"])
def test_evaluator_accepts_float_and_any_shape(ex1, ex1_pops, evaluate):
    assert type(evaluate(ex1, ex1_pops, 0.7)) is float
    w = np.linspace(-6.0, 6.0, 12).reshape(3, 4)
    out = evaluate(ex1, ex1_pops, w)
    assert out.shape == (3, 4)
    scalar = [[evaluate(ex1, ex1_pops, float(x)) for x in row] for row in w]
    np.testing.assert_array_equal(out, scalar)


class TestValidityRatio:
    def test_values(self):
        p1 = ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                         n_threshold=5.0, n_emitters=20.0)
        assert validity_ratio(p1) == pytest.approx(0.1 / np.sqrt(0.5), rel=1e-12)
        p2 = ModelParams(kappa=2.0, gamma_par=0.01, pump=0.1,
                         n_threshold=5.0, n_emitters=20.0)
        assert validity_ratio(p2) == pytest.approx(0.01 / np.sqrt(2.0), rel=1e-12)

    def test_small_gamma_par_limit(self):
        p = ModelParams(kappa=0.5, gamma_par=1e-12, pump=0.1,
                        n_threshold=5.0, n_emitters=20.0)
        assert validity_ratio(p) < 1e-11


class TestSlowPoleRatio:
    @pytest.mark.parametrize("fraction, ratio", [(0.9, 15.589466384404114),
                                                 (0.99, 159.598994968533)])
    def test_near_threshold(self, fraction, ratio):
        # 2 kappa/gamma_perp = 1, P = 3, N_th = 5, N_0 = 10 fraction: the
        # inversion is fraction N_th and gamma_p / x- grows like 1/A
        params = ModelParams.from_ratio(1.0, gamma_par=0.1, pump=3.0, n_threshold=5.0,
                                        n_emitters=10.0 * fraction)
        assert slow_pole_ratio(params, derive_populations(params)) == pytest.approx(
            ratio, rel=1e-12)

    def test_ex1(self, ex1, ex1_pops):
        assert slow_pole_ratio(ex1, ex1_pops) == pytest.approx(0.22, rel=1e-12)


class TestGrids:
    def test_for_model_covers_scales(self, ex1, ex1_pops):
        grid = FrequencyGrid.for_model(ex1, ex1_pops, n_points=101)
        widest = np.sqrt(ex1.kappa * ex1.gamma_perp
                         * (1.0 + abs(ex1_pops.inversion) / ex1.n_threshold))
        assert grid.omega_max >= 20.0 * max(ex1.kappa, ex1.gamma_perp, widest)
        w = grid.omegas()
        assert len(w) == 101
        assert w[0] == -w[-1]
        assert np.allclose(np.diff(w), 2.0 * grid.omega_max / (grid.n_points - 1))

    def test_symmetric_grid_needs_odd_count(self):
        with pytest.raises(InvalidParamsError):
            FrequencyGrid(omega_max=10.0, n_points=100)
        with pytest.raises(InvalidParamsError):
            FrequencyGrid(omega_max=np.inf, n_points=5)

    def test_point_count_must_be_an_integer(self):
        # 5.5 is odd and >= 3 by the other checks; numpy integers pass
        with pytest.raises(InvalidParamsError, match="n_points must be an integer"):
            FrequencyGrid(omega_max=10.0, n_points=5.5)
        grid = FrequencyGrid(omega_max=10.0, n_points=np.int64(5))
        assert grid.omegas().size == 5

    def test_point_count_budget(self):
        # refused before any array is allocated; the budget itself is accepted
        assert FrequencyGrid(omega_max=1.0, n_points=MAX_GRID_POINTS).n_points == MAX_GRID_POINTS
        with pytest.raises(InvalidParamsError, match="budget"):
            FrequencyGrid(omega_max=1.0, n_points=MAX_GRID_POINTS + 2)

    def test_density_validation(self, ex1, ex1_pops):
        config = MonteCarloConfig.for_model(ex1, ex1_pops)
        for level in (-1.0, np.inf, np.nan):
            with pytest.raises(InvalidParamsError):
                synthesize_colored_noise(lambda w, v=level: np.full(w.shape, v),
                                         config, record_rng(config, 0))
