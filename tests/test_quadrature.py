"""Adaptive integration contracts of srled.quadrature and the grid
half-width rule; beside them, the fixed rules of the cumulant in srled.g2:
its outer tan-map rule and the Cauchy-smoothed inverse loop filter."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate

from srled import (
    InvalidParamsError,
    NonConvergenceError,
    commutator_spectrum,
    derive_populations,
    g2_bruteforce,
    integrate_1d,
    mean_photon_quadrature,
)
from srled import g2
from srled.g2 import OUTER_NODES, _outer_rule, smoothed_inverse_filter
from srled.model import loop_coefficients, loop_denominator, widest_rate


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
    # g2._outer_rule: the tan-map nodes omega_j at the widest rate and the
    # weights w_j c(omega_j) of the cumulant's outer rule
    @staticmethod
    def uncached(params, pops, n_nodes):
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        phi = 0.5 * np.pi * x
        cos = np.cos(phi)
        scale = widest_rate(params, pops)
        omega = scale * np.tan(phi)
        return omega, scale * 0.5 * np.pi * w / (cos * cos) * commutator_spectrum(params, pops,
                                                                                    omega)

    @pytest.mark.parametrize("n_nodes", [100, 200, 7])
    @pytest.mark.parametrize("kappa", [1.0, 0.37])  # widest rates 2.07 and 1.26
    def test_matches_uncached_rule_exactly(self, ex1, kappa, n_nodes):
        params = dataclasses.replace(ex1, kappa=kappa)
        pops = derive_populations(params)
        for _ in range(2):  # the first call may build the unit rule, the second reads it
            omega, weights = _outer_rule(params, pops, n_nodes)
            ref_omega, ref_weights = self.uncached(params, pops, n_nodes)
            assert np.array_equal(omega, ref_omega)
            assert np.array_equal(weights, ref_weights)

    @pytest.mark.parametrize("n_nodes", [OUTER_NODES // 2, OUTER_NODES])
    @pytest.mark.parametrize("kappa", [1.0, 0.37])
    def test_nodes_are_odd(self, ex1, kappa, n_nodes):
        # the tensor rules' outer grids are their own mirrors, so
        # noise_cumulant(mode="full") forms the kernel on the rows a > 0 only
        params = dataclasses.replace(ex1, kappa=kappa)
        omega, _ = _outer_rule(params, derive_populations(params), n_nodes)
        assert np.array_equal(omega, -omega[::-1])

    def test_returned_arrays_are_fresh(self, ex1, ex1_pops):
        omega, weights = _outer_rule(ex1, ex1_pops, 7)
        ref_omega, ref_weights = omega.copy(), weights.copy()
        omega[:] = np.nan
        weights *= 2.0
        again = _outer_rule(ex1, ex1_pops, 7)
        assert np.array_equal(again[0], ref_omega)
        assert np.array_equal(again[1], ref_weights)


def _grid(params, pops, grid):
    if grid == "not mirror-closed":
        return np.array([0.7, -0.3, 2.0])
    return _outer_rule(params, pops, grid)[0]


class TestSmoothedInverseFilter:
    @staticmethod
    def direct(params, pops, omega, per_unit):
        """E[conj(1/s(a + X)) / s(b + X)], X ~ Cauchy(gamma_p), as a direct
        sum on a log ring: center G(0) + sum_k w_k [G(nu_k) + G(-nu_k)],
        the trapezoid rule in log nu from gamma_p e^-16 to e^40 beyond the
        widest rate, the Cauchy mass outside it on the center node."""
        gamma = pops.gamma_p
        t_lo = np.log(gamma) - 16.0
        t_hi = np.log(max(widest_rate(params, pops), gamma)) + 40.0
        nu = np.exp(t_lo + np.arange(int(np.ceil((t_hi - t_lo) * per_unit)) + 1) / per_unit)
        ring_w = (gamma / np.pi) / (nu * nu + gamma * gamma) * nu / per_unit
        ring_w[[0, -1]] *= 0.5
        center = 1.0 - 2.0 * (np.sum(ring_w) + np.arctan(gamma / nu[-1]) / np.pi)
        shifts = np.concatenate((nu, -nu))[:, None]
        rows = np.sqrt(np.tile(ring_w, 2))[:, None] / loop_denominator(params, pops,
                                                                       omega + shifts)
        inv0 = 1.0 / loop_denominator(params, pops, omega)
        return center * np.outer(np.conj(inv0), inv0) + np.conj(rows).T @ rows

    @pytest.mark.parametrize("gamma_par", [1e-4, 0.1, 1.0])
    @pytest.mark.parametrize("grid", [200, 100, 7, "not mirror-closed"])
    def test_matches_direct_ring_sum(self, ex1, grid, gamma_par):
        # the residue kernel against an independent quadrature of the same
        # Cauchy average; a log ring resolves 1/s(omega + nu), of width
        # about B, near nu = -omega only while |omega| is small against
        # per_unit B, so the nodes beyond five widest rates are left out
        # (the two agree to 3.4e-15 on the rest)
        params = dataclasses.replace(ex1, gamma_par=gamma_par)
        pops = derive_populations(params)
        omega = _grid(params, pops, grid)
        omega = omega[np.abs(omega) <= 5.0 * widest_rate(params, pops)]
        ref = self.direct(params, pops, omega, 96)
        full = smoothed_inverse_filter(params, pops, omega[:, None], omega)
        diag = smoothed_inverse_filter(params, pops, omega, omega)
        np.testing.assert_allclose(full, ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(diag, np.diag(ref), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma_par", [1e-4, 0.1, 1.0])
    @pytest.mark.parametrize("grid", [200, 100, 7, "not mirror-closed"])
    def test_hermitian_and_mirror(self, ex1, grid, gamma_par):
        # K(b, a) = conj K(a, b) and, as s(-w) = conj s(w), K(-a, -b) =
        # conj K(a, b), to rounding: 2e-15 of the Cauchy-Schwarz bound
        # sqrt(K(a, a) K(b, b)), which |K(a, b)| does not exceed
        params = dataclasses.replace(ex1, gamma_par=gamma_par)
        pops = derive_populations(params)
        omega = _grid(params, pops, grid)
        kmat = smoothed_inverse_filter(params, pops, omega[:, None], omega)
        diag = smoothed_inverse_filter(params, pops, omega, omega).real
        bound = np.sqrt(np.outer(diag, diag))
        assert np.all(np.abs(kmat) <= bound * (1.0 + 1e-15))
        assert np.all(np.abs(kmat - np.conj(kmat).T) <= 2e-15 * bound)
        mirrored = smoothed_inverse_filter(params, pops, -omega[:, None], -omega)
        assert np.all(np.abs(mirrored - np.conj(kmat)) <= 2e-15 * bound)

    @pytest.mark.parametrize("gamma_par", [1e-4, 0.1, 1.0])
    def test_diagonal_is_real_positive_and_on_the_matrix(self, ex1, gamma_par):
        # K(a, a) = E|s(a + X)|^-2; the elementwise call at (omega, omega)
        # is the diagonal of the matrix on omega
        params = dataclasses.replace(ex1, gamma_par=gamma_par)
        pops = derive_populations(params)
        omega = _grid(params, pops, OUTER_NODES)
        diag = smoothed_inverse_filter(params, pops, omega, omega)
        assert np.all(diag.real > 0.0)
        assert np.all(np.abs(diag.imag) <= 1e-15 * diag.real)
        kmat = smoothed_inverse_filter(params, pops, omega[:, None], omega)
        np.testing.assert_allclose(np.diag(kmat), diag, rtol=1e-15, atol=0.0)

    def test_narrow_population_limit(self, ex1):
        # gamma_p -> 0 leaves the unsmoothed conj(1/s(a)) / s(b); the
        # Cauchy tails move K by about gamma_p max(1, omega^2), so the
        # nodes stay within a few widest rates
        omega = np.linspace(-3.0, 3.0, 13)
        for gamma_par, tol in ((1e-6, 1e-3), (1e-12, 1e-9)):
            params = dataclasses.replace(ex1, gamma_par=gamma_par)
            pops = derive_populations(params)
            inv = 1.0 / loop_denominator(params, pops, omega)
            np.testing.assert_allclose(smoothed_inverse_filter(params, pops, omega[:, None], omega),
                                       np.outer(np.conj(inv), inv), rtol=tol, atol=0.0)

    def test_kernel_work_per_refined_level(self, ex1, ex1_pops, monkeypatch):
        # g2_bruteforce(mode="full") forms, at OUTER_NODES and at half as
        # many, the rows a > 0 of the cumulant kernel: n^2 / 2 kernel values
        # per level, nothing more (exact n is a closed form)
        counted = []

        def counting(params, pops, omega_a, omega_b):
            counted.append(np.broadcast(omega_a, omega_b).size)
            return smoothed_inverse_filter(params, pops, omega_a, omega_b)

        monkeypatch.setattr(g2, "smoothed_inverse_filter", counting)
        g2_bruteforce(ex1, ex1_pops, mode="full")
        assert sorted(counted) == sorted(n * n // 2 for n in (OUTER_NODES, OUTER_NODES // 2))

    def test_no_warning_where_poles_meet(self, ex1):
        # P = 1 gives N = 0 and 4A = B^2, a double zero of s*; gamma_par =
        # 5/11 gives gamma_p = B/2, so the Cauchy pole i gamma_p meets a zero
        # z_k - omega_a at omega_a = Re z_k. Neither needs a special case.
        for params in (dataclasses.replace(ex1, pump=1.0),
                       dataclasses.replace(ex1, gamma_par=5.0 / 11.0)):
            pops = derive_populations(params)
            a, b = loop_coefficients(params, pops)
            centre = 0.5 * np.sqrt(max(4.0 * a - b * b, 0.0))
            omega = np.concatenate((_grid(params, pops, OUTER_NODES), [centre, -centre]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kmat = smoothed_inverse_filter(params, pops, omega[:, None], omega)
                g2_full = g2_bruteforce(params, pops, mode="full").g2
                n_exact = mean_photon_quadrature(params, pops, mode="exact").n_total
            assert np.all(np.isfinite(kmat))
            assert 2.0 < g2_full < 6.0 and n_exact > 0.0
