"""Adaptive integration contracts, the grid half-width rule and the fixed
rules of the population-smoothed paths."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate

from srled import (
    InvalidParamsError,
    NonConvergenceError,
    commutator_spectrum,
    derive_populations,
    integrate_1d,
    noise_cumulant,
)
from srled import quadrature
from srled.model import loop_denominator, widest_rate
from srled.quadrature import (
    CUMULANT_NODES,
    EXACT_N_NODES,
    commutator_rule,
    log_ring_rule,
    smoothed_inverse_filter,
    tan_map_rule,
)


class TestIntegrate1D:
    def test_lorentzian_unit_mass(self):
        gamma = 0.11
        val, err = integrate_1d(lambda w: 2.0 * gamma / (w * w + gamma * gamma) / (2.0 * np.pi))
        assert val == pytest.approx(1.0, abs=1e-8)
        assert err < 1e-8

    def test_odd_function_vanishes(self):
        val, _ = integrate_1d(lambda w: w * np.exp(-w * w), abs_tol=1e-12)
        assert abs(val) < 1e-10

    def test_commutator_normalization_ex1(self, ex1, ex1_pops):
        val, _ = integrate_1d(lambda w: commutator_spectrum(ex1, ex1_pops, w))
        assert val / (2.0 * np.pi) == pytest.approx(1.0, abs=1e-6)

    def test_nonconvergence_on_budget_exhaustion(self):
        # reported error about 1.8e7 on a value of -8.2e6
        with pytest.raises(NonConvergenceError):
            integrate_1d(lambda w: np.cos(40.0 * w * w), rel_tol=1e-12, abs_tol=1e-14)

    def test_spec_validation(self):
        # a nonpositive or NaN tolerance is refused before QUADPACK runs
        calls = []

        def func(w):
            calls.append(w)
            return np.exp(-w * w)

        for tols in ({"rel_tol": -1.0}, {"rel_tol": 0.0}, {"abs_tol": 0.0},
                     {"rel_tol": np.nan}, {"abs_tol": np.nan}):
            with pytest.raises(InvalidParamsError, match="tolerances must be positive"):
                integrate_1d(func, **tols)
        assert calls == []
        # the tolerances are keywords only
        with pytest.raises(TypeError):
            integrate_1d(func, 1e-10)

    def test_grid_half_width_rule_converged(self, ex1, ex1_pops):
        # doubling omega_max beyond the default rule moves the loop-filter
        # integral by less than 1e-6 relative (the tail-mass design rule);
        # integrate_1d runs only over the whole line, so QUADPACK is called
        # on the finite ranges directly
        from srled.model import FrequencyGrid, loop_abs2

        grid = FrequencyGrid.for_model(ex1, ex1_pops, n_points=101)
        integrand = lambda w: 1.0 / loop_abs2(ex1, ex1_pops, w)
        v1, _ = integrate.quad(integrand, -grid.omega_max, grid.omega_max,
                               epsabs=1e-13, epsrel=1e-10, limit=200)
        v2, _ = integrate.quad(integrand, -2.0 * grid.omega_max, 2.0 * grid.omega_max,
                               epsabs=1e-13, epsrel=1e-10, limit=200)
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

    @pytest.mark.parametrize("n_nodes", sorted({n for rule in (CUMULANT_NODES, EXACT_N_NODES)
                                                for n in (rule[0], rule[0] // 2)}))
    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_nodes_are_odd(self, scale, n_nodes):
        # the tensor rules' outer grids are their own mirrors, so
        # smoothed_inverse_filter walks the ring for each node only once
        omega, _ = tan_map_rule(scale, n_nodes)
        assert np.array_equal(omega, -omega[::-1])

    def test_returned_arrays_are_fresh(self):
        omega, weights = tan_map_rule(0.37, 7)
        ref_omega, ref_weights = omega.copy(), weights.copy()
        omega[:] = np.nan
        weights *= 2.0
        again = tan_map_rule(0.37, 7)
        assert np.array_equal(again[0], ref_omega)
        assert np.array_equal(again[1], ref_weights)


class TestSmoothedInverseFilter:
    @staticmethod
    def direct(params, pops, omega, per_unit):
        """The ring sum with 1/s evaluated at omega + nu and at omega - nu:
        center G(0) + sum_k w_k [G(nu_k) + G(-nu_k)], no mirror identity."""
        nodes, ring_w, center = log_ring_rule(pops.gamma_p, widest_rate(params, pops),
                                              per_unit)
        nu = np.concatenate((nodes, -nodes))[:, None]
        rows = np.sqrt(np.tile(ring_w, 2))[:, None] / loop_denominator(params, pops, omega + nu)
        inv0 = 1.0 / loop_denominator(params, pops, omega)
        return center * np.outer(np.conj(inv0), inv0) + np.conj(rows).T @ rows

    @pytest.mark.parametrize("gamma_par", [1e-4, 0.1, 1.0])
    @pytest.mark.parametrize("grid", [200, 100, 7, "not mirror-closed"])
    def test_matches_direct_ring_sum(self, ex1, grid, gamma_par):
        params = dataclasses.replace(ex1, gamma_par=gamma_par)
        pops = derive_populations(params)
        if grid == "not mirror-closed":
            omega = np.array([0.7, -0.3, 2.0])
        else:
            omega = tan_map_rule(widest_rate(params, pops), grid)[0]
        for per_unit in (CUMULANT_NODES[1], EXACT_N_NODES[1]):
            ref = self.direct(params, pops, omega, per_unit)
            full = smoothed_inverse_filter(params, pops, omega, per_unit)
            diag = smoothed_inverse_filter(params, pops, omega, per_unit, diagonal=True)
            np.testing.assert_allclose(full, ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(diag, np.diag(ref).real, rtol=1e-12, atol=0.0)

    def test_full_cumulant_shifts_each_outer_node_once_per_ring_node(self, ex1, ex1_pops,
                                                                     monkeypatch):
        evaluated = []

        def counting(params, pops, omega):
            evaluated.append(np.size(omega))
            return loop_denominator(params, pops, omega)

        monkeypatch.setattr(quadrature, "loop_denominator", counting)
        noise_cumulant(ex1, ex1_pops, mode="full")
        # fine and coarse rules of quadrature.refined: one unshifted filter
        # and one per ring node at each outer node, not two (+nu and -nu)
        expected = 0
        for n_outer, per_unit in (CUMULANT_NODES, tuple(n // 2 for n in CUMULANT_NODES)):
            ring = log_ring_rule(ex1_pops.gamma_p, widest_rate(ex1, ex1_pops), per_unit)[0]
            expected += (ring.size + 1) * commutator_rule(ex1, ex1_pops, n_outer)[0].size
        assert sum(evaluated) == expected
