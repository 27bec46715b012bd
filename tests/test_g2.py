"""g2: closed form, cumulant kernel, and the brute-force two-path check."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srled import (
    G2Result,
    InvalidParamsError,
    ModelParams,
    NonConvergenceError,
    derive_populations,
    g2_bruteforce,
    g2_closed,
    g2_from_delta_n,
    noise_cumulant,
    mean_photon_closed,
)
from srled.g2 import (
    METHOD_CLOSED,
    METHOD_DELTA,
    METHOD_FULL,
    _kernel_matrix,
)
from srled.model import fluctuation_coupling, loop_coefficients
from srled.validation import EX1

from conftest import EX1_ORACLE
from oracles import (
    cumulant_delta_product_form,
    cumulant_full_root_sum,
    kernel_full_adaptive,
    kernel_full_residues,
    mean_term_cancellation,
    reference_exact_n,
)


def kernel(params, pops, omega_a, omega_b, mode):
    """K(omega_a, omega_b) read from the kernel matrix that noise_cumulant
    reduces."""
    kmat = _kernel_matrix(params, pops, np.array([omega_a]), np.array([omega_b]), mode)
    return complex(kmat[0, 0])


def near_threshold(fraction):
    """2 kappa/gamma_perp = 1, P = 3, N_th = 5: the inversion is fraction N_th."""
    return ModelParams.from_ratio(1.0, gamma_par=0.1, pump=3.0, n_threshold=5.0,
                                  n_emitters=10.0 * fraction)


# 2 kappa/gamma_perp = 0.1, P = 1.5, N_th = 5, N_0 = 20, gamma_par = 0.01:
# |s|^-2 has a narrow peak (A/B^2 = 0.0165) that the delta path misses
NARROW_PEAK = ModelParams.from_ratio(0.1, gamma_par=0.01, pump=1.5, n_threshold=5.0,
                                     n_emitters=20.0)


# noise_cumulant (value, error) and g2_bruteforce (g2, error), frozen bit for
# bit, keyed by mode and gamma_par at EX1 otherwise: the tensor rule's
# products keep their order, so a moved operation changes the last bits.
# ROADMAP items 12 and 14, which replace the rule, retire this table.
GOLDEN_CUMULANT = {
    ("delta", 0.1): ((5.160613728711126, 1.0720313525780512e-12),
                     (2.177556086475149, 1.6285560540666308e-11)),
    ("full", 0.1): ((4.158187509003727, 4.6074255521943996e-11),
                    (2.1472115233621327, 1.5232394824303266e-11)),
    ("full", 1e-3): ((5.148487301220352, 8.970602038971265e-13),
                     (2.1771939148397537, 1.6172677315494025e-11)),
    ("full", 1.0): ((1.236212620657443, 3.3435534341208495e-09),
                    (2.0507404965710347, 1.4228431226849872e-10)),
}


class TestG2Closed:
    def test_thermal_without_fluctuations(self, ex1, ex1_pops):
        res = g2_closed(ex1, ex1_pops.without_fluctuations())
        assert res.g2 == 2.0
        assert res.method == METHOD_CLOSED

    def test_ex1_frozen_value(self, ex1, ex1_pops):
        assert g2_closed(ex1, ex1_pops).g2 == pytest.approx(EX1_ORACLE["g2"], rel=1e-14)

    def test_supremum_six(self):
        seq = [g2_from_delta_n(10.0 ** k) for k in range(9)]
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 6.0
        assert 6.0 - seq[-1] < 1e-6

    @given(ratio=st.floats(0.1, 10.0), pump=st.floats(0.001, 1.5),
           n_th=st.floats(1.0, 30.0), n_emitters=st.floats(2.0, 1e3))
    def test_bounds(self, ratio, pump, n_th, n_emitters):
        if n_emitters * (pump - 1.0) / (pump + 1.0) >= 0.9 * n_th:
            return
        params = ModelParams.from_ratio(ratio, gamma_par=0.05, pump=pump,
                                        n_threshold=n_th, n_emitters=n_emitters)
        g2 = g2_closed(params, derive_populations(params)).g2
        assert 2.0 < g2 <= 6.0


class TestCumulantKernel:
    def test_delta_center_value(self, ex1, ex1_pops):
        val = kernel(ex1, ex1_pops, 0.0, 0.0, "delta")
        assert val.real == pytest.approx(EX1_ORACLE["kernel00"], rel=1e-13)
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    def test_conjugate_symmetry(self, ex1, ex1_pops):
        for mode in ("delta", "full"):
            k_ab = kernel(ex1, ex1_pops, 0.7, -0.4, mode)
            k_ba = kernel(ex1, ex1_pops, -0.4, 0.7, mode)
            assert k_ab == pytest.approx(np.conj(k_ba), rel=1e-9)

    def test_full_mode_matches_residue_oracle(self, ex1):
        cases = [dataclasses.replace(ex1, gamma_par=g) for g in (1e-4, 1e-3, 1e-2, 0.1, 1.0)]
        cases += [near_threshold(0.9), near_threshold(0.99), NARROW_PEAK]
        for params in cases:
            pops = derive_populations(params)
            for (a, b) in [(0.0, 0.0), (0.7, -0.3), (2.0, 1.5), (-1.2, 0.4)]:
                exact = kernel(params, pops, a, b, "full")
                res = kernel_full_residues(params, pops, a, b)
                assert exact == pytest.approx(res, rel=1e-12), (params, a, b)

    def test_full_mode_matches_adaptive_oracle_where_poles_meet(self, ex1):
        # 4A = B^2 at P = 1 (N = 0): the zeros of s* coincide; gamma_p = B/2
        # at gamma_par = 5/11: the Cauchy pole meets a zero at omega_a = Re z_k.
        # The residue oracle refuses both; the kernel needs no special case.
        double_root = dataclasses.replace(ex1, pump=1.0)
        pops = derive_populations(double_root)
        a, b = loop_coefficients(double_root, pops)
        assert 4.0 * a == b * b
        meeting = dataclasses.replace(ex1, gamma_par=5.0 / 11.0)
        meeting_pops = derive_populations(meeting)
        a, b = loop_coefficients(meeting, meeting_pops)
        assert meeting_pops.gamma_p == pytest.approx(0.5 * b, rel=1e-15)
        centre = 0.5 * np.sqrt(4.0 * a - b * b)
        for params, points in ((double_root, [(0.0, 0.0), (0.7, -0.3), (-1.2, 0.4)]),
                               (meeting, [(centre, 0.1), (-centre, centre), (0.9045, 0.3)])):
            pops = derive_populations(params)
            for (a, b) in points:
                with pytest.raises(ValueError, match="residue poles"):
                    kernel_full_residues(params, pops, a, b)
                exact = kernel(params, pops, a, b, "full")
                assert exact == pytest.approx(kernel_full_adaptive(params, pops, a, b),
                                              rel=1e-10), (params, a, b)

    def test_full_approaches_delta_for_narrow_population(self, ex1):
        params = dataclasses.replace(ex1, gamma_par=0.007 * np.sqrt(ex1.kappa))
        pops = derive_populations(params)
        for (a, b) in [(0.0, 0.0), (1.0, -0.5)]:
            full = kernel(params, pops, a, b, "full")
            delta = kernel(params, pops, a, b, "delta")
            assert abs(full - delta) / abs(delta) < 0.01

    def test_full_to_delta_error_shrinks(self, ex1):
        devs = []
        for gamma_par in (0.1, 0.01, 0.001):
            params = dataclasses.replace(ex1, gamma_par=gamma_par)
            pops = derive_populations(params)
            full = kernel(params, pops, 0.5, 0.5, "full")
            delta = kernel(params, pops, 0.5, 0.5, "delta")
            devs.append(abs(full - delta) / abs(delta))
        assert devs[0] > devs[1] > devs[2]


class TestNoiseCumulant:
    def test_zero_without_fluctuations(self, ex1, ex1_pops):
        val, err = noise_cumulant(ex1, ex1_pops.without_fluctuations(), mode="delta")
        assert val == 0.0 and err == 0.0

    def test_delta_tensor_matches_product_form(self, ex1, ex1_pops):
        tensor, _ = noise_cumulant(ex1, ex1_pops, mode="delta")
        product = cumulant_delta_product_form(ex1, ex1_pops)
        assert tensor == pytest.approx(product, rel=1e-4)
        # frozen: (2 delta2_ne I_cs)^2 with I_cs = 1518/2209
        frozen = (2.0 * EX1_ORACLE["delta2_ne"] * EX1_ORACLE["i_cs"]) ** 2
        assert tensor == pytest.approx(frozen, rel=1e-10)

    def test_nonnegative_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = ModelParams.from_ratio(float(10 ** rng.uniform(-1, 1)),
                                            gamma_par=0.05, pump=float(rng.uniform(0.05, 1.0)),
                                            n_threshold=float(rng.uniform(2, 20)),
                                            n_emitters=float(rng.uniform(5, 200)))
            val, _ = noise_cumulant(params, derive_populations(params), mode="delta")
            assert val >= 0.0

    def test_refinement_error_is_small(self, ex1, ex1_pops):
        for mode in ("delta", "full"):
            val, err = noise_cumulant(ex1, ex1_pops, mode=mode)
            assert err < 1e-6 * val

    @pytest.mark.parametrize("mode, gamma_par", list(GOLDEN_CUMULANT))
    def test_golden_cumulant(self, ex1, mode, gamma_par):
        params = dataclasses.replace(ex1, gamma_par=gamma_par)
        pops = derive_populations(params)
        res = g2_bruteforce(params, pops, mode=mode)
        assert (noise_cumulant(params, pops, mode=mode), (res.g2, res.error)) \
            == GOLDEN_CUMULANT[mode, gamma_par]

    def test_full_matches_root_sum_ex1(self, ex1, ex1_pops):
        root_sum = cumulant_full_root_sum(ex1, ex1_pops)
        # with the exact n it is the rational full g2 frozen at EX1
        g2 = 2.0 + fluctuation_coupling(ex1) ** 4 * root_sum / EX1_ORACLE["n_exact"] ** 2
        assert g2 == pytest.approx(EX1_ORACLE["g2_full"], rel=1e-12)
        val, _ = noise_cumulant(ex1, ex1_pops, mode="full")
        assert val == pytest.approx(root_sum, rel=1e-9)

    def test_root_sum_tends_to_delta_form(self, ex1):
        params = dataclasses.replace(ex1, gamma_par=1e-12)
        pops = derive_populations(params)
        assert cumulant_full_root_sum(params, pops) \
            == pytest.approx(cumulant_delta_product_form(params, pops), rel=1e-9)

    def test_root_sum_refuses_coincident_roots(self, ex1):
        params = dataclasses.replace(ex1, pump=1.0)  # N = 0, so 4A = B^2
        with pytest.raises(ValueError, match="roots of s"):
            cumulant_full_root_sum(params, derive_populations(params))


class TestCancellationDiagnostic:
    def test_disconnected_terms_cancel(self, ex1, ex1_pops):
        side_a, side_b = mean_term_cancellation(ex1, ex1_pops)
        assert side_a == pytest.approx(side_b, rel=1e-6)


class TestG2Bruteforce:
    def test_delta_matches_closed_ex1(self, ex1, ex1_pops):
        closed = g2_closed(ex1, ex1_pops).g2
        brute = g2_bruteforce(ex1, ex1_pops, mode="delta")
        assert brute.method == METHOD_DELTA
        assert abs(brute.g2 - closed) < 1e-6
        assert brute.g2 == pytest.approx(EX1_ORACLE["g2"], abs=1e-4)

    @pytest.mark.parametrize("mode, method", [("delta", METHOD_DELTA), ("full", METHOD_FULL)],
                             ids=["delta", "full"])
    def test_exactly_two_without_fluctuations(self, ex1, ex1_pops, mode, method):
        # no shortcut: C = 0 and the fluctuation term of n is 0 * (its
        # integral), so the ordinary arithmetic gives 2 with no error
        frozen = ex1_pops.without_fluctuations()
        assert g2_bruteforce(ex1, frozen, mode) == G2Result(2.0, 0.0, method, 0.0)
        with pytest.raises(InvalidParamsError):
            g2_bruteforce(ex1, frozen, mode="bogus")

    @pytest.mark.parametrize("params, modes", [
        # A/B^2 = 53: QUADPACK finds 0.048 of the closed n, and C resolves
        (ModelParams(kappa=563.8167823869059, gamma_par=0.00016632015533627018,
                     pump=0.0016469340762345064, n_threshold=0.10085075560828279,
                     n_emitters=6048.682828471003), ["delta"]),
        # the closed g2 is 5.1940
        (ModelParams(kappa=801.115091456963, gamma_par=0.0028502061246926742,
                     pump=0.00023264220016943054, n_threshold=0.2516067494980492,
                     n_emitters=4.137188780924584), ["delta", "full"]),
    ], ids=["g2-1570", "g2-6.30"])
    def test_refuses_g2_outside_two_to_six(self, params, modes):
        # the model bounds g2 to [2, 6] (g2_bruteforce's docstring); these
        # read 1570 +- 245 and 6.3015 +- 1.08 (delta), 6.2999 +- 1.08 (full)
        pops = derive_populations(params)
        for mode in modes:
            with pytest.raises(NonConvergenceError, match=r"outside the model's \[2, 6\]"):
                g2_bruteforce(params, pops, mode)

    def test_full_mode_ex1(self, ex1, ex1_pops):
        res = g2_bruteforce(ex1, ex1_pops, mode="full")
        assert res.method == METHOD_FULL
        assert res.g2 == pytest.approx(EX1_ORACLE["g2_full"], rel=1e-10)

    @pytest.mark.xfail(strict=True, raises=NonConvergenceError,
                       reason="ROADMAP item 12: the fixed outer rule misses the full cumulant "
                       "near threshold, so noise_cumulant refuses it until items 12 and 14 land")
    def test_full_near_threshold_within_its_error_of_root_sum(self):
        params = dataclasses.replace(near_threshold(0.99), gamma_par=1e-3)
        pops = derive_populations(params)
        n_exact, _ = reference_exact_n(params)
        root_sum_g2 = 2.0 + fluctuation_coupling(params) ** 4 \
            * cumulant_full_root_sum(params, pops) / n_exact ** 2
        # the rule's g2 here is 2.01094 +- 0.0106 against 4.14125: C changes
        # by 0.97 of itself at half the nodes, so noise_cumulant refuses it
        res = g2_bruteforce(params, pops, mode="full")
        assert abs(res.g2 - root_sum_g2) <= res.error

    @pytest.mark.xfail(strict=True, raises=NonConvergenceError,
                       reason="ROADMAP item 14: the fixed outer rule of the delta cumulant misses "
                       "a narrow peak of |s|^-2, so noise_cumulant refuses it until items 12 "
                       "and 14 land")
    @pytest.mark.parametrize("params", [NARROW_PEAK, dataclasses.replace(EX1, n_emitters=1e6)],
                             ids=["narrow-peak", "ex1-n0-1e6"])
    def test_delta_matches_closed_at_narrow_peaks(self, params):
        # the rule's g2 here is 2.16783 +- 0.159 against 2.806037, and
        # 2.000266 +- 0.00027 against 2.094677: C changes by 0.945 and 0.9996
        # of itself at half the nodes, so noise_cumulant refuses it;
        # criterion 3 asks for 1e-4
        pops = derive_populations(params)
        assert abs(g2_bruteforce(params, pops, mode="delta").g2 - g2_closed(params, pops).g2) < 1e-4

    @pytest.mark.parametrize("mode", ["delta", "full"])
    @pytest.mark.parametrize("n_emitters", [1e4, 1e8, 1e12])
    def test_cumulant_refuses_what_its_error_does_not_resolve(self, ex1, mode, n_emitters):
        # the |s|^-2 peak narrows as N_0 grows; at 1e4 and above the
        # node-halving error of C is most of C
        params = dataclasses.replace(ex1, n_emitters=n_emitters)
        with pytest.raises(NonConvergenceError, match="half the 200 outer nodes"):
            noise_cumulant(params, derive_populations(params), mode)
        value, error = noise_cumulant(ex1, derive_populations(ex1), mode)
        assert 0.0 < error < 0.5 * value

    def test_full_within_one_percent_at_small_gamma_par(self, ex1):
        params = dataclasses.replace(ex1, gamma_par=0.001)
        pops = derive_populations(params)
        closed = g2_closed(params, pops).g2
        full = g2_bruteforce(params, pops, mode="full").g2
        assert abs(full - closed) / closed < 0.01

    def test_full_converges_to_closed_monotonically(self, ex1):
        devs = []
        for gamma_par in (0.3, 0.1, 0.03, 0.01):
            params = dataclasses.replace(ex1, gamma_par=gamma_par)
            pops = derive_populations(params)
            closed = g2_closed(params, pops).g2
            full = g2_bruteforce(params, pops, mode="full").g2
            devs.append(abs(full - closed) / closed)
        assert devs[0] > devs[1] > devs[2] > devs[3]

    @settings(max_examples=10, deadline=None)
    @given(ratio=st.floats(0.2, 8.0), pump=st.floats(0.05, 1.2),
           n_th=st.floats(3.0, 15.0), n_emitters=st.floats(5.0, 100.0))
    def test_two_path_property(self, ratio, pump, n_th, n_emitters):
        if n_emitters * (pump - 1.0) / (pump + 1.0) >= 0.8 * n_th:
            return
        params = ModelParams.from_ratio(ratio, gamma_par=0.02 * np.sqrt(0.5 * ratio),
                                        pump=pump, n_threshold=n_th, n_emitters=n_emitters)
        pops = derive_populations(params)
        closed = g2_closed(params, pops).g2
        brute = g2_bruteforce(params, pops, mode="delta").g2
        assert abs(brute - closed) < 1e-4

    def test_pump_monotonicity_with_matched_emitters(self):
        # g2(P) decreasing needs N_0/N_th below (1+2r)/(1+r); use N_0 = N_th
        pumps = np.linspace(0.01, 1.0, 40)
        vals = []
        for p in pumps:
            params = ModelParams.from_ratio(2.0, gamma_par=0.1, pump=float(p),
                                            n_threshold=10.0, n_emitters=10.0)
            vals.append(g2_closed(params, derive_populations(params)).g2)
        assert np.all(np.diff(vals) < 0.0)

    def test_delta_n_relation(self, ex1, ex1_pops):
        # the brute-force pieces recombine to 2 [1 + 2 (Dn/(1+Dn))^2]
        mp = mean_photon_closed(ex1, ex1_pops)
        assert g2_from_delta_n(mp.delta_n) == pytest.approx(EX1_ORACLE["g2"], rel=1e-14)
