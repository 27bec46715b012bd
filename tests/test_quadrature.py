"""Adaptive integration contracts and the grid half-width rule."""

import numpy as np
import pytest

from srled import (
    IntegrationSpec,
    NonConvergenceError,
    commutator_spectrum,
    integrate_1d,
)
from srled.quadrature import tan_map_rule


class TestIntegrate1D:
    def test_lorentzian_unit_mass(self):
        gamma = 0.11
        val, err = integrate_1d(lambda w: 2.0 * gamma / (w * w + gamma * gamma) / (2.0 * np.pi))
        assert val == pytest.approx(1.0, abs=1e-8)
        assert err < 1e-8

    def test_odd_function_vanishes(self):
        val, _ = integrate_1d(lambda w: w * np.exp(-w * w), IntegrationSpec(abs_tol=1e-12))
        assert abs(val) < 1e-10

    def test_commutator_normalization_ex1(self, ex1, ex1_pops):
        val, _ = integrate_1d(lambda w: commutator_spectrum(ex1, ex1_pops, w))
        assert val / (2.0 * np.pi) == pytest.approx(1.0, abs=1e-6)

    def test_finite_interval(self):
        spec = IntegrationSpec(half_width=1.0)
        val, _ = integrate_1d(lambda w: w * w, spec)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_nonconvergence_on_budget_exhaustion(self):
        spec = IntegrationSpec(rel_tol=1e-12, abs_tol=1e-14, half_width=30.0)
        with pytest.raises(NonConvergenceError):
            integrate_1d(lambda w: np.cos(40.0 * w * w), spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntegrationSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            IntegrationSpec(half_width=0.0)

    def test_grid_half_width_rule_converged(self, ex1, ex1_pops):
        # doubling omega_max beyond the default rule moves the loop-filter
        # integral by less than 1e-6 relative (the tail-mass design rule)
        from srled.model import FrequencyGrid, loop_abs2

        grid = FrequencyGrid.for_model(ex1, ex1_pops, n_points=101)
        integrand = lambda w: 1.0 / loop_abs2(ex1, ex1_pops, w)
        v1, _ = integrate_1d(integrand, IntegrationSpec(half_width=grid.omega_max))
        v2, _ = integrate_1d(integrand, IntegrationSpec(half_width=2.0 * grid.omega_max))
        assert abs(v2 - v1) / v2 < 1e-6


class TestTanMapRule:
    @staticmethod
    def uncached(scale, n_nodes):
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        phi = 0.5 * np.pi * x
        cos = np.cos(phi)
        return scale * np.tan(phi), scale * 0.5 * np.pi * w / (cos * cos)

    @pytest.mark.parametrize("n_nodes", [100, 200, 7])
    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_matches_uncached_rule_exactly(self, scale, n_nodes):
        for _ in range(2):  # the first call may build the unit rule, the second reads it
            omega, weights = tan_map_rule(scale, n_nodes)
            ref_omega, ref_weights = self.uncached(scale, n_nodes)
            assert np.array_equal(omega, ref_omega)
            assert np.array_equal(weights, ref_weights)

    def test_returned_arrays_are_fresh(self):
        omega, weights = tan_map_rule(0.37, 7)
        ref_omega, ref_weights = omega.copy(), weights.copy()
        omega[:] = np.nan
        weights *= 2.0
        again = tan_map_rule(0.37, 7)
        assert np.array_equal(again[0], ref_omega)
        assert np.array_equal(again[1], ref_weights)
