"""Acceptance suite: every criterion with its pinned tolerance.

Each criterion function returns a CriterionResult and is deterministic for a
given seed. The reference values for the EX1 configuration (kappa = 0.5,
gamma_par = 0.1, P = 0.1, N_th = 5, N_0 = 20, f = 0.5) were frozen from
independent arbitrary-precision evaluation of the defining integrals
(exact rationals where available) and are cross-checked here against the
quadrature, cumulant and Monte Carlo paths.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .g2 import g2_bruteforce, g2_closed, g2_from_delta_n
from .model import ModelParams, commutator_spectrum, derive_populations, validity_ratio
from .montecarlo import MonteCarloConfig, run_monte_carlo
from .photon import dispersion_ratio, mean_photon_closed, mean_photon_quadrature
from .quadrature import IntegrationSpec, integrate_1d
from .sweep import SweepSpec, run_sweep

EX1 = ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1, n_threshold=5.0, n_emitters=20.0)

# Frozen oracle values for EX1 (exact rationals):
#   n0 = 2/47, Delta_n = 138/517, n = 1310/24299, g2 = 934226/429025
EX1_N0 = 2.0 / 47.0
EX1_DELTA_N = 138.0 / 517.0
EX1_N = 1310.0 / 24299.0
EX1_G2 = 934226.0 / 429025.0
# Exact-convolution references at EX1 (independent nested quadrature; an
# mpmath pole-shift evaluation agrees with n to 16 digits):
EX1_N_EXACT = 0.053147290823083865
EX1_G2_FULL = 2.1472115


def _variant_delta_n(params: ModelParams, pops) -> float:
    """A circulating closed-form variant of the fluctuation bracket,
    3 (r/(1+r))^2 + r/(1 - N/N_th).

    It disagrees with the defining integral everywhere except
    2 kappa/gamma_perp = 2 and fails every numerical oracle here; the
    reference-point report prints its values alongside for comparison.
    """
    r = params.kappa_ratio
    u = 1.0 - pops.inversion / params.n_threshold
    bracket = 3.0 * (r / (1.0 + r)) ** 2 + r / u
    return dispersion_ratio(params, pops) / params.n_threshold * bracket


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    runtime: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.runtime:.1f}s): {self.details}"


def random_params(rng: np.random.Generator, validity_max: float | None = None) -> ModelParams:
    """A random valid below-threshold configuration.

    2k/g in [0.1, 10] log, P in [0.02, 2], N_th in [2, 20], N_0 in [5, 500]
    log; rejects inversions above 0.8 N_th (valid but ill-conditioned and
    outside the LED regime).
    """
    while True:
        ratio = 10.0 ** rng.uniform(-1.0, 1.0)
        kappa = 0.5 * ratio
        if validity_max is not None:
            # keep gamma_p large enough that Monte Carlo records stay short
            gamma_par = rng.uniform(0.2, 1.0) * validity_max * math.sqrt(kappa)
        else:
            gamma_par = 10.0 ** rng.uniform(-3.0, -0.3)
        pump = 10.0 ** rng.uniform(math.log10(0.02), math.log10(2.0))
        n_th = rng.uniform(2.0, 20.0)
        n_emitters = 10.0 ** rng.uniform(math.log10(5.0), math.log10(500.0))
        inversion = n_emitters * (pump - 1.0) / (pump + 1.0)
        if inversion >= 0.8 * n_th:
            continue
        return ModelParams(kappa=kappa, gamma_par=gamma_par, pump=pump,
                           n_threshold=n_th, n_emitters=n_emitters)


def _timed(func):
    t0 = time.perf_counter()
    out = func()
    return out, time.perf_counter() - t0


def criterion_1_commutator_normalization(seed: int = 101, n_sets: int = 200) -> CriterionResult:
    """(2 pi)^-1 Int c = 1 within 1e-5 on random valid sets."""
    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_sets):
            params = random_params(rng)
            pops = derive_populations(params)
            val, _ = integrate_1d(lambda w: commutator_spectrum(params, pops, w),
                                  IntegrationSpec(rel_tol=1e-11, abs_tol=1e-13))
            worst = max(worst, abs(val / (2.0 * np.pi) - 1.0))
        return worst

    worst, dt = _timed(run)
    return CriterionResult(
        "commutator normalization (200 sets, tol 1e-5)",
        worst <= 1e-5 and dt < 10.0,
        f"max |norm - 1| = {worst:.3e}", dt,
    )


def criterion_2_mean_photon_agreement(seed: int = 202, n_sets: int = 100) -> CriterionResult:
    """Quadrature (delta mode) vs closed form within 1e-5 relative."""
    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_sets):
            params = random_params(rng, validity_max=0.05)
            pops = derive_populations(params)
            closed = mean_photon_closed(params, pops).n_total
            quad = mean_photon_quadrature(params, pops, mode="delta").n_total
            worst = max(worst, abs(quad - closed) / closed)
        return worst

    worst, dt = _timed(run)
    return CriterionResult(
        "mean-photon two-path agreement (100 sets, rel tol 1e-5)",
        worst < 1e-5 and dt < 30.0,
        f"max relative gap = {worst:.3e}", dt,
    )


def criterion_3_g2_agreement(seed: int = 303, n_sets: int = 50) -> CriterionResult:
    """Cumulant quadrature (delta mode) vs closed form within 1e-4 absolute."""
    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_sets):
            params = random_params(rng, validity_max=0.05)
            pops = derive_populations(params)
            closed = g2_closed(params, pops).g2
            brute = g2_bruteforce(params, pops, mode="delta").g2
            worst = max(worst, abs(brute - closed))
        return worst

    worst, dt = _timed(run)
    return CriterionResult(
        "g2 two-path agreement (50 sets, abs tol 1e-4)",
        worst < 1e-4 and dt < 120.0,
        f"max absolute gap = {worst:.3e}", dt,
    )


def criterion_4_validity_degradation(n_scan: int = 13) -> CriterionResult:
    """Full-Lorentzian g2 deviates < 1% at validity <= 0.01 and monotonically."""
    def run():
        gammas = np.logspace(-4.0, 0.0, n_scan)
        devs, ratios = [], []
        for g in gammas:
            params = dataclasses.replace(EX1, gamma_par=float(g))
            pops = derive_populations(params)
            closed = g2_closed(params, pops).g2
            full = g2_bruteforce(params, pops, mode="full").g2
            devs.append(abs(full - closed) / closed)
            ratios.append(validity_ratio(params))
        return np.asarray(devs), np.asarray(ratios)

    (devs, ratios), dt = _timed(run)
    small = devs[ratios <= 0.01]
    ok_small = bool(np.all(small < 0.01)) and small.size > 0
    ok_mono = bool(np.all(np.diff(devs) > 0.0))
    return CriterionResult(
        "validity-condition degradation (gamma_par log scan 1e-4..1)",
        ok_small and ok_mono,
        f"dev at validity<=0.01: max {small.max():.2e}; monotone: {ok_mono}", dt,
    )


def criterion_5_monte_carlo(seed: int = 505, n_random: int = 9,
                            records: int = 500) -> CriterionResult:
    """MC n and g2 within 3 SE of the analytic pipeline; SE(g2) <= 0.02.

    The 9 random sets (validity < 0.05) are compared against the closed
    forms. EX1 sits at validity 0.141 where the delta approximation itself
    is off by 1.4% (about 7 SE at this precision), so EX1 is compared
    against the mode-matched exact-convolution analytics; its distance from
    the closed forms is reported alongside.
    """
    def run():
        rng = np.random.default_rng(seed)
        lines = []
        ok = True
        # EX1 against the exact-convolution references
        pops = derive_populations(EX1)
        config = MonteCarloConfig.for_model(EX1, pops, n_records=records, seed=seed)
        est = run_monte_carlo(EX1, pops, config)
        zn = (est.n - EX1_N_EXACT) / est.n_se
        zg = (est.g2 - EX1_G2_FULL) / est.g2_se
        zn_closed = (est.n - EX1_N) / est.n_se
        zg_closed = (est.g2 - EX1_G2) / est.g2_se
        ok &= abs(zn) <= 3.0 and abs(zg) <= 3.0 and est.g2_se <= 0.02
        lines.append(
            f"EX1: n {est.n:.6f} ({zn:+.1f} SE of exact, {zn_closed:+.1f} of closed), "
            f"g2 {est.g2:.4f} ({zg:+.1f} SE of exact, {zg_closed:+.1f} of closed), "
            f"SE(g2) {est.g2_se:.4f}"
        )
        worst_z = max(abs(zn), abs(zg))
        for _ in range(n_random):
            params = random_params(rng, validity_max=0.05)
            pops = derive_populations(params)
            config = MonteCarloConfig.for_model(params, pops, n_records=records,
                                                seed=int(rng.integers(2 ** 32)))
            est = run_monte_carlo(params, pops, config)
            closed_n = mean_photon_closed(params, pops).n_total
            closed_g2 = g2_closed(params, pops).g2
            zn = (est.n - closed_n) / est.n_se
            zg = (est.g2 - closed_g2) / est.g2_se
            worst_z = max(worst_z, abs(zn), abs(zg))
            ok &= abs(zn) <= 3.0 and abs(zg) <= 3.0 and est.g2_se <= 0.02
        lines.append(f"worst |z| over 10 sets = {worst_z:.2f}")
        return ok, "; ".join(lines)

    (ok, detail), dt = _timed(run)
    return CriterionResult(
        f"Monte Carlo oracle (10 sets, {records} records, 3 SE)",
        ok and dt < 180.0, detail, dt,
    )


def criterion_6_bounds_and_limits(seed: int = 606, n_sets: int = 200) -> CriterionResult:
    """g2 = 2 exactly without fluctuations; (2, 6] with; -> 6 as Delta_n grows."""
    def run():
        rng = np.random.default_rng(seed)
        pops = derive_populations(EX1)
        frozen = pops.without_fluctuations()
        exact_two = g2_closed(EX1, frozen).g2 == 2.0 \
            and g2_bruteforce(EX1, frozen, mode="delta").g2 == 2.0
        bounds = True
        for _ in range(n_sets):
            params = random_params(rng)
            g2 = g2_closed(params, derive_populations(params)).g2
            bounds &= 2.0 < g2 <= 6.0
        base = mean_photon_closed(EX1, pops).delta_n
        seq = [g2_from_delta_n(base * 10.0 ** k) for k in range(8)]
        monotone = all(b > a for a, b in zip(seq, seq[1:])) and seq[-1] < 6.0 \
            and (6.0 - seq[-1]) < 1e-5
        return exact_two, bounds, monotone

    (exact_two, bounds, monotone), dt = _timed(run)
    return CriterionResult(
        "bounds and limits (g2 = 2 at zero fluctuations; (2,6]; -> 6)",
        exact_two and bounds and monotone,
        f"exact two: {exact_two}, bounds: {bounds}, limit to 6: {monotone}", dt,
    )


def criterion_7_figure_shapes(n_emitters: float = 30.0) -> CriterionResult:
    """Monotone shapes at P = 0.1, gamma_par = 0.1."""
    def run():
        checks = {}
        ratios = np.logspace(np.log10(0.1), 1.0, 40)
        for n_th in (5.0, 10.0, 15.0):
            base = ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                               n_threshold=n_th, n_emitters=n_emitters)
            spec = SweepSpec(base=base, variable="kappa_ratio",
                             start=0.1, stop=10.0, steps=40, scale="log")
            rows = run_sweep(spec)
            dn = np.array([r.delta_n for r in rows])
            g2 = np.array([r.g2_closed for r in rows])
            checks[f"dn_incr_nth{n_th:g}"] = bool(np.all(np.diff(dn) > 0))
            checks[f"g2_incr_nth{n_th:g}"] = bool(np.all(np.diff(g2) > 0))
        for ratio in ratios[::13]:
            vals = []
            for n_th in (5.0, 10.0, 15.0):
                params = ModelParams.from_ratio(float(ratio), gamma_par=0.1, pump=0.1,
                                                n_threshold=n_th, n_emitters=n_emitters)
                vals.append(mean_photon_closed(params, derive_populations(params)).delta_n)
            checks[f"nth_decr_at_r{ratio:.2g}"] = vals[0] > vals[1] > vals[2]
        # pump sweep at N_0 = N_th (the decrease only holds for small N_0/N_th)
        base = ModelParams.from_ratio(2.0, gamma_par=0.1, pump=0.1,
                                      n_threshold=10.0, n_emitters=10.0)
        spec = SweepSpec(base=base, variable="pump", start=0.01, stop=1.0, steps=60)
        g2p = np.array([r.g2_closed for r in run_sweep(spec)])
        checks["g2_decreasing_in_pump"] = bool(np.all(np.diff(g2p) < 0))
        return checks

    checks, dt = _timed(run)
    bad = [k for k, v in checks.items() if not v]
    return CriterionResult(
        "figure-shape monotonicity",
        not bad and dt < 10.0,
        "all monotone" if not bad else f"failed: {bad}", dt,
    )


def criterion_8_reference_point() -> CriterionResult:
    """EX1 reference values (oracle-frozen) at 1e-4 relative, all paths."""
    def run():
        pops = derive_populations(EX1)
        mp = mean_photon_closed(EX1, pops)
        g2c = g2_closed(EX1, pops).g2
        quad = mean_photon_quadrature(EX1, pops, mode="delta").n_total
        brute = g2_bruteforce(EX1, pops, mode="delta").g2
        rel = {
            "n0": abs(mp.n0 - EX1_N0) / EX1_N0,
            "delta_n": abs(mp.delta_n - EX1_DELTA_N) / EX1_DELTA_N,
            "n": abs(mp.n_total - EX1_N) / EX1_N,
            "g2": abs(g2c - EX1_G2) / EX1_G2,
            "n_quad": abs(quad - EX1_N) / EX1_N,
            "g2_brute": abs(brute - EX1_G2) / EX1_G2,
        }
        return rel, mp, g2c

    (rel, mp, g2c), dt = _timed(run)
    worst = max(rel.values())
    pops = derive_populations(EX1)
    var_dn = _variant_delta_n(EX1, pops)
    detail = (
        f"max rel gap {worst:.2e}; computed n0={mp.n0:.6f} delta_n={mp.delta_n:.6f} "
        f"n={mp.n_total:.6f} g2={g2c:.5f} "
        f"(inconsistent bracket variant would give delta_n={var_dn:.6f} "
        f"n={mp.n0 * (1 + var_dn):.6f} g2={g2_from_delta_n(var_dn):.5f})"
    )
    return CriterionResult("EX1 reference point (tol 1e-4 relative)", worst < 1e-4, detail, dt)


ALL_CRITERIA = (
    criterion_1_commutator_normalization,
    criterion_2_mean_photon_agreement,
    criterion_3_g2_agreement,
    criterion_4_validity_degradation,
    criterion_5_monte_carlo,
    criterion_6_bounds_and_limits,
    criterion_7_figure_shapes,
    criterion_8_reference_point,
)


def run_validation(skip_montecarlo: bool = False, seed: int = 505,
                   records: int = 500) -> list[CriterionResult]:
    results = []
    for crit in ALL_CRITERIA:
        if crit is criterion_5_monte_carlo:
            if skip_montecarlo:
                continue
            results.append(crit(seed=seed, records=records))
        else:
            results.append(crit())
    return results
