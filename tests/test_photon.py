"""Mean photon number: closed form against the quadrature paths."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srled import (
    AboveThresholdError,
    ModelParams,
    MonteCarloConfig,
    NonConvergenceError,
    derive_populations,
    g2_bruteforce,
    g2_closed,
    integrate_1d,
    mean_photon_closed,
    mean_photon_quadrature,
    photon_number_spectrum,
    run_monte_carlo,
    validity_ratio,
)
from srled.model import loop_coefficients
from srled.photon import METHOD_CLOSED, METHOD_DELTA, METHOD_EXACT, _fluctuation_exact
from srled.validation import EX1

from conftest import EX1_ORACLE, N_EXACT_SCAN
from oracles import reference_exact_n


# points where the exact n is checked against perfbench/reference.py; near
# threshold, 2 kappa/gamma_perp = 1, P = 3, N_th = 5 and N_0 = 10 f put the
# inversion at f N_th
REFERENCE_POINTS = {
    **{f"{f} N_th": dataclasses.replace(EX1, pump=3.0, n_emitters=10.0 * f)
       for f in (0.5, 0.9, 0.99, 0.999)},
    "FOUND point": ModelParams(kappa=0.05, gamma_par=0.01, pump=1.5,
                               n_threshold=5.0, n_emitters=20.0),
    **{f"P = {p!r}": dataclasses.replace(EX1, pump=p) for p in (1.0, 1.0 - 1e-6, 1.0 + 1e-6)},
    **{f"N_0 = {n:g}": dataclasses.replace(EX1, n_emitters=n) for n in (1e5, 1e6)},
}


def _mpmath_exact_n(kappa, gamma_par, pump, n_threshold, n_emitters):
    """Exact-convolution n to 30 digits, written out from the model.

    c(w) = (2 kappa w^2 + A)/|s(w)|^2 and |s(w)|^2 = (w^2 + x+^2)(w^2 + x-^2),
    x+- the roots of x^2 - B x + A, so c is a sum of Lorentzians
    h_j 2 x_j/(w^2 + x_j^2). Its Cauchy(gamma_p) average c * L widens each
    to x_j + gamma_p, and mpmath.quad integrates [z0 + coup^2 delta2_ne
    (c * L)]/|s|^2 at the working precision. The inputs are read as decimal
    strings.
    """
    k, gp, p, nth, n0 = (mpmath.mpf(v) for v in (kappa, gamma_par, pump, n_threshold,
                                                 n_emitters))
    n_e = p * n0 / (p + 1)
    inversion = n_e - (n0 - n_e)
    gamma = gp * (p + 1)
    a = k / 2 * (1 - inversion / nth)
    b = k + mpmath.mpf(1) / 2
    root = mpmath.sqrt(mpmath.mpc(b * b - 4 * a))
    rates = ((b + root) / 2, (b - root) / 2)
    h = [(a - 2 * k * x * x) / (2 * x * (y * y - x * x)) for x, y in (rates, rates[::-1])]

    def integrand(w):
        smoothed_c = sum(hj * 2 * (x + gamma) / (w * w + (x + gamma) ** 2)
                         for hj, x in zip(h, rates))
        zero_order = k * n_e / (2 * nth)
        return (zero_order + (k / nth) ** 2 * n_e / (p + 1) * smoothed_c.real) \
            / ((a - w * w) ** 2 + (b * w) ** 2)

    # the integrand is even in w
    return mpmath.quad(integrand, [0, 0.5, 1, 2, mpmath.inf]) / mpmath.pi


class TestPhotonSpectrum:
    def test_pure_zero_order_line(self, ex1, ex1_pops):
        # fluctuations disabled: n(omega) collapses to the filtered line
        from srled.model import loop_abs2

        frozen = ex1_pops.without_fluctuations()
        w = np.linspace(-10.0, 10.0, 101)
        expected = (0.5 * ex1.kappa * ex1.gamma_perp ** 2 * ex1_pops.n_excited
                    / ex1.n_threshold) / loop_abs2(ex1, ex1_pops, w)
        np.testing.assert_allclose(photon_number_spectrum(ex1, frozen, w), expected, rtol=1e-14)

    def test_zero_order_integral_matches_n0(self, ex1, ex1_pops):
        frozen = ex1_pops.without_fluctuations()
        val, _ = integrate_1d(lambda w: photon_number_spectrum(ex1, frozen, w))
        assert val / (2.0 * np.pi) == pytest.approx(EX1_ORACLE["n0"], rel=1e-6)

    def test_full_integral_ex1(self, ex1, ex1_pops):
        val, _ = integrate_1d(lambda w: photon_number_spectrum(ex1, ex1_pops, w))
        assert val / (2.0 * np.pi) == pytest.approx(EX1_ORACLE["n"], rel=1e-6)

    def test_nonnegative_and_even(self, ex1, ex1_pops):
        w = np.linspace(0.0, 30.0, 601)
        plus = photon_number_spectrum(ex1, ex1_pops, w)
        np.testing.assert_array_equal(plus, photon_number_spectrum(ex1, ex1_pops, -w))
        assert np.all(plus > 0.0)


class TestMeanPhotonClosed:
    def test_ex1_frozen_values(self, ex1, ex1_pops):
        res = mean_photon_closed(ex1, ex1_pops)
        assert res.method == METHOD_CLOSED
        assert res.n0 == pytest.approx(EX1_ORACLE["n0"], rel=1e-14)
        assert res.delta_n == pytest.approx(EX1_ORACLE["delta_n"], rel=1e-14)
        assert res.n_total == pytest.approx(EX1_ORACLE["n"], rel=1e-14)
        assert res.n_total == pytest.approx(res.n0 * (1.0 + res.delta_n), rel=1e-15)

    def test_small_pump_limit(self):
        # P -> 0: the dispersion ratio delta2_ne / N_e = 1/(P+1) -> 1 and
        # N -> -N_0, so with N_th = 4, N_0 = 20 and 2 kappa/gamma_perp = 1,
        # Delta_n -> (1/4) [2 * (1/2) + 2/(1 + 20/4)] = 1/3 while n -> 0;
        # the delta quadrature finds the same
        params = ModelParams(kappa=0.5, gamma_par=0.1, pump=1e-12,
                             n_threshold=4.0, n_emitters=20.0)
        pops = derive_populations(params)
        res = mean_photon_closed(params, pops)
        assert res.delta_n == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert res.n_total == pytest.approx(20e-12 / 48.0 * (4.0 / 3.0), rel=1e-11)
        quad = mean_photon_quadrature(params, pops, mode="delta")
        assert quad.delta_n == pytest.approx(res.delta_n, rel=1e-5)

    def test_fluctuations_disabled(self, ex1, ex1_pops):
        res = mean_photon_closed(ex1, ex1_pops.without_fluctuations())
        assert res.delta_n == 0.0
        assert res.n_total == res.n0

    def test_above_threshold_propagates(self, ex1, ex1_pops):
        bad = dataclasses.replace(ex1_pops, inversion=ex1.n_threshold + 1.0)
        with pytest.raises(AboveThresholdError):
            mean_photon_closed(ex1, bad)

    def test_monotone_in_kappa_ratio(self):
        # fig-3 shape: Delta_n strictly increasing in 2 kappa/gamma_perp
        ratios = np.logspace(-1.0, 1.0, 60)
        for n_th in (5.0, 10.0, 15.0):
            vals = []
            for r in ratios:
                p = ModelParams.from_ratio(float(r), gamma_par=0.1, pump=0.1,
                                           n_threshold=n_th, n_emitters=20.0)
                vals.append(mean_photon_closed(p, derive_populations(p)).delta_n)
            assert np.all(np.diff(vals) > 0.0)

    def test_decreasing_in_threshold(self):
        vals = []
        for n_th in (5.0, 10.0, 15.0):
            p = ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                            n_threshold=n_th, n_emitters=20.0)
            vals.append(mean_photon_closed(p, derive_populations(p)).delta_n)
        assert vals[0] > vals[1] > vals[2]


class TestMeanPhotonQuadrature:
    def test_delta_mode_matches_closed_ex1(self, ex1, ex1_pops):
        closed = mean_photon_closed(ex1, ex1_pops)
        quad = mean_photon_quadrature(ex1, ex1_pops, mode="delta")
        assert quad.method == METHOD_DELTA
        assert quad.n_total == pytest.approx(closed.n_total, rel=1e-10)
        assert quad.n0 == pytest.approx(closed.n0, rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(ratio=st.floats(0.1, 10.0), pump=st.floats(0.02, 1.5),
           n_th=st.floats(2.0, 20.0), n_emitters=st.floats(5.0, 200.0))
    def test_delta_mode_matches_closed_property(self, ratio, pump, n_th, n_emitters):
        params = ModelParams.from_ratio(ratio, gamma_par=0.02 * np.sqrt(0.5 * ratio),
                                        pump=pump, n_threshold=n_th, n_emitters=n_emitters)
        if n_emitters * (pump - 1.0) / (pump + 1.0) >= 0.8 * n_th:
            return
        assert validity_ratio(params) < 0.05
        pops = derive_populations(params)
        closed = mean_photon_closed(params, pops)
        quad = mean_photon_quadrature(params, pops, mode="delta")
        assert quad.n_total == pytest.approx(closed.n_total, rel=1e-8)

    def test_exact_mode_ex1(self, ex1, ex1_pops):
        exact = mean_photon_quadrature(ex1, ex1_pops, mode="exact")
        assert exact.method == METHOD_EXACT
        assert exact.n_total == pytest.approx(EX1_ORACLE["n_exact"], rel=1e-13)

    def test_exact_n_ex1_is_rational(self, ex1, ex1_pops):
        # _fluctuation_exact's closed form in exact arithmetic at EX1, plus
        # n0 = 2/47, is the frozen n_exact
        k, g, n_th = Fraction(1, 2), Fraction(11, 100), Fraction(5)
        inversion, delta2 = Fraction(-180, 11), Fraction(200, 121)
        a, b, coup = k / 2 * (1 - inversion / n_th), k + Fraction(1, 2), k / n_th
        num = 2 * b * b + (4 * k + 2) * a + ((4 * k + 3) * b + (2 * k + 1) * g) * g
        den = 2 * a * b * b * (b + g) * (4 * a + (2 * b + g) * g)
        fluct = delta2 * coup ** 2 * num / den
        assert Fraction(2, 47) + fluct == Fraction(503783834, 9479012499)
        assert EX1_ORACLE["n_exact"] == float(Fraction(503783834, 9479012499))
        value, error = _fluctuation_exact(ex1, ex1_pops)
        assert abs(value - float(fluct)) <= error

    def test_exact_close_to_delta_at_small_gamma_par(self, ex1):
        params = dataclasses.replace(ex1, gamma_par=0.001)
        pops = derive_populations(params)
        delta = mean_photon_quadrature(params, pops, mode="delta").n_total
        exact = mean_photon_quadrature(params, pops, mode="exact").n_total
        assert abs(exact - delta) / delta < 5e-3
        # closed form is gamma_par independent
        assert mean_photon_closed(params, pops).n_total == pytest.approx(delta, rel=1e-9)

    def test_zero_fluctuations_both_modes(self, ex1, ex1_pops):
        frozen = ex1_pops.without_fluctuations()
        for mode in ("delta", "exact"):
            res = mean_photon_quadrature(ex1, frozen, mode=mode)
            assert res.n_total == pytest.approx(EX1_ORACLE["n0"], rel=1e-9)
            assert res.delta_n == 0.0

    def test_exact_discrepancy_grows_with_validity_ratio(self, ex1):
        devs = []
        for gamma_par in (1e-3, 1e-2, 1e-1):
            params = dataclasses.replace(ex1, gamma_par=gamma_par)
            pops = derive_populations(params)
            closed = mean_photon_closed(params, pops).n_total
            exact = mean_photon_quadrature(params, pops, mode="exact").n_total
            devs.append(abs(exact - closed) / closed)
        assert devs[0] < devs[1] < devs[2]

    def test_error_estimate_is_honest_ex1(self, ex1, ex1_pops):
        for mode, oracle in (("delta", "n"), ("exact", "n_exact")):
            quad = mean_photon_quadrature(ex1, ex1_pops, mode=mode)
            assert abs(quad.n_total - EX1_ORACLE[oracle]) <= max(quad.error, 1e-12) * 10.0, mode

    @pytest.mark.parametrize("gamma_par", sorted(N_EXACT_SCAN))
    def test_exact_error_estimate_is_honest_on_scan(self, ex1, gamma_par):
        params = dataclasses.replace(ex1, gamma_par=gamma_par)
        quad = mean_photon_quadrature(params, derive_populations(params), mode="exact")
        assert quad.n_total == pytest.approx(N_EXACT_SCAN[gamma_par], rel=1e-12)
        assert abs(quad.n_total - N_EXACT_SCAN[gamma_par]) <= 10.0 * quad.error
        assert quad.error <= 1e-6 * quad.n_total

    def test_mpmath_backs_smallest_gamma_par_of_scan(self):
        # the nested QUADPACK of perfbench/reference.py is off by 3.7e-8 here
        with mpmath.workdps(30):
            val = _mpmath_exact_n("0.5", "1e-4", "0.1", "5", "20")
            assert abs(val - mpmath.mpf("0.0539108453411917096")) < mpmath.mpf("1e-19")
        assert N_EXACT_SCAN[1e-4] == pytest.approx(float(val), rel=1e-15)

    @pytest.mark.parametrize("name", sorted(REFERENCE_POINTS))
    def test_exact_matches_nested_reference(self, name):
        # near threshold, at the FOUND point, where 4A = B^2 (P = 1) and
        # around it, and at large N_0
        params = REFERENCE_POINTS[name]
        reference, _ = reference_exact_n(params)
        quad = mean_photon_quadrature(params, derive_populations(params), mode="exact")
        assert quad.n_total == pytest.approx(reference, rel=1e-11)
        assert abs(quad.n_total - reference) <= 10.0 * quad.error

    @settings(max_examples=100, deadline=None)
    @given(ratio=st.floats(0.1, 10.0), near=st.booleans(), fraction=st.floats(0.5, 0.999),
           log_ab2=st.floats(-3.0, 3.0), m=st.floats(0.05, 0.9), log_n0=st.floats(0.0, 6.0),
           log_gamma_par=st.floats(-4.0, 0.0))
    def test_exact_above_n0_and_closed_in_narrow_limit(self, ratio, near, fraction, log_ab2,
                                                          m, log_n0, log_gamma_par):
        # the inversion N/N_th is drawn either in 0.5-0.999, or from
        # A/B^2 = kappa (1 - N/N_th) / 2 B^2 in [1e-3, 1e3]
        kappa = 0.5 * ratio
        if not near:
            fraction = 1.0 - 2.0 * 10.0 ** log_ab2 * (kappa + 0.5) ** 2 / kappa
            if fraction == 0.0:
                return
        # P = (1 + m)/(1 - m) gives N = N_0 m, of the sign of the fraction
        m = math.copysign(m, fraction)
        n_emitters = 10.0 ** log_n0
        shape = dict(kappa=kappa, pump=(1.0 + m) / (1.0 - m),
                     n_threshold=n_emitters * m / fraction, n_emitters=n_emitters)
        params = ModelParams(gamma_par=10.0 ** log_gamma_par, **shape)
        quad = mean_photon_quadrature(params, derive_populations(params), mode="exact")
        assert math.isfinite(quad.n_total) and quad.n_total > quad.n0
        # as gamma_p -> 0 the exact term tends to n0 Delta_n; it moves from
        # it at first order by about gamma_p B/(2A), gamma_p over the slow
        # rate x- ~ A/B
        params = ModelParams(gamma_par=1e-12, **shape)
        pops = derive_populations(params)
        quad = mean_photon_quadrature(params, pops, mode="exact")
        closed = mean_photon_closed(params, pops)
        a, b = loop_coefficients(params, pops)
        assert quad.n0 * quad.delta_n == pytest.approx(
            closed.n0 * closed.delta_n, rel=1e-9 + pops.gamma_p * b / a)

    def test_nonpositive_quadrature_n_is_refused(self, ex1):
        # at N_0 = 1e12 QUADPACK misses the resonance of 1/|s|^2 at
        # omega ~ sqrt(A) and n0 came out negative; the closed n is 0.0657
        params = dataclasses.replace(ex1, n_emitters=1e12)
        pops = derive_populations(params)
        assert mean_photon_closed(params, pops).n_total == pytest.approx(0.0657, rel=1e-3)
        for mode in ("delta", "exact"):
            with pytest.raises(NonConvergenceError):
                mean_photon_quadrature(params, pops, mode=mode)

    def test_exact_fluctuation_is_cumulant_kernel_diagonal(self, ex1, ex1_pops):
        # the full cumulant's production kernel on its diagonal, under its
        # outer rule, against the closed form of exact n
        from srled.g2 import OUTER_NODES, _kernel_matrix, _outer_rule
        from srled.model import fluctuation_coupling

        omega, wc = _outer_rule(ex1, ex1_pops, OUTER_NODES)
        kdiag = np.diag(_kernel_matrix(ex1, ex1_pops, omega, omega, "full"))
        expected = fluctuation_coupling(ex1) ** 2 / (2.0 * np.pi) * float(wc @ kdiag.real)
        assert np.all(np.abs(kdiag.imag) <= 1e-14 * kdiag.real)
        quad = mean_photon_quadrature(ex1, ex1_pops, mode="exact")
        assert quad.n_total - quad.n0 == pytest.approx(expected, rel=1e-12)

    def test_exact_mode_peak_memory_below_full_cumulant(self, ex1):
        import tracemalloc

        from srled import noise_cumulant

        params = dataclasses.replace(ex1, gamma_par=1e-4)
        pops = derive_populations(params)
        peaks = {}
        for name, run in (("exact", lambda: mean_photon_quadrature(params, pops, mode="exact")),
                          ("cumulant", lambda: noise_cumulant(params, pops, mode="full"))):
            run()  # first calls also allocate once-only state
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["exact"] < peaks["cumulant"], peaks


def test_result_float_fields_are_python_floats(ex1, ex1_pops):
    # a numpy scalar would print as np.float64(...) in a result's repr
    config = MonteCarloConfig.for_model(ex1, ex1_pops, n_records=30)
    results = [mean_photon_closed(ex1, ex1_pops), g2_closed(ex1, ex1_pops),
               run_monte_carlo(ex1, ex1_pops, config)]
    results += [mean_photon_quadrature(ex1, ex1_pops, mode=mode) for mode in ("delta", "exact")]
    results += [g2_bruteforce(ex1, ex1_pops, mode=mode) for mode in ("delta", "full")]
    for res in results:
        for field in dataclasses.fields(res):
            value = getattr(res, field.name)
            if "float" in field.type and value is not None:
                assert type(value) is float, (res, field.name)
