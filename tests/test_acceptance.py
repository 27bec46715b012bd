"""Acceptance suite: one test per criterion, each printing its pass line.

Runs the same criterion implementations as `srled validate`. Every
tolerance is pinned inside srled.validation; the printed line carries the
measured quantity so a failure is diagnosable from the log alone.
"""

from srled.validation import (
    criterion_1_commutator_normalization,
    criterion_2_mean_photon_agreement,
    criterion_3_g2_agreement,
    criterion_4_validity_degradation,
    criterion_5_monte_carlo,
    criterion_6_bounds_and_limits,
    criterion_7_figure_shapes,
    criterion_8_reference_point,
)


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_commutator_normalization():
    _check(criterion_1_commutator_normalization())


def test_criterion_2_mean_photon_two_path():
    _check(criterion_2_mean_photon_agreement())


def test_criterion_3_g2_two_path():
    _check(criterion_3_g2_agreement())


def test_criterion_4_validity_degradation():
    _check(criterion_4_validity_degradation())


def test_criterion_5_monte_carlo_oracle():
    _check(criterion_5_monte_carlo())


def test_criterion_6_bounds_and_limits():
    _check(criterion_6_bounds_and_limits())


def test_criterion_7_figure_shapes():
    _check(criterion_7_figure_shapes())


def test_criterion_8_reference_point():
    _check(criterion_8_reference_point())


def test_normalization_criterion_is_sensitive(ex1, ex1_pops):
    # a 1% perturbation of the commutator spectrum must trip criterion 1
    import numpy as np

    from srled import commutator_spectrum, integrate_1d

    val, _ = integrate_1d(lambda w: 1.01 * commutator_spectrum(ex1, ex1_pops, w), rel_tol=1e-11)
    assert abs(val / (2.0 * np.pi) - 1.0) > 1e-5
