"""Acceptance suite: every criterion with its pinned tolerance.

Each criterion is a function without parameters that returns a
CriterionResult. Its seeds, set counts, sample sizes, time limits and
tolerances are fixed in this module, so a run checks the same random sets
every time and cannot be re-rolled or shrunk until it passes. The reference
values for the EX1 configuration (kappa = 0.5, gamma_par = 0.1, P = 0.1,
N_th = 5, N_0 = 20) were frozen from independent arbitrary-precision
evaluation of the defining integrals (exact rationals where available) and
are cross-checked here against the quadrature, cumulant and Monte Carlo
paths.
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
from .photon import mean_photon_closed, mean_photon_quadrature
from .quadrature import integrate_1d
from .sweep import figure_series, run_sweep

EX1 = ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1, n_threshold=5.0, n_emitters=20.0)

# Frozen oracle values for EX1 (exact rationals):
#   n0 = 2/47, Delta_n = 138/517, n = 1310/24299, g2 = 934226/429025
EX1_N0 = 2.0 / 47.0
EX1_DELTA_N = 138.0 / 517.0
EX1_N = 1310.0 / 24299.0
EX1_G2 = 934226.0 / 429025.0
# Exact-convolution references at EX1, exact rationals: n is n0 plus the
# closed-form fluctuation term, and g2 (2.1472115233620812) comes from the
# full cumulant reduced to one rational function, which a 60-digit root sum
# confirms and independent nested quadrature matches to its 9 digits:
EX1_N_EXACT = 503783834 / 9479012499
EX1_G2_FULL = 376475140162010380480828573265962194983 / 175332116126374716062166504705043107029
# Monte Carlo criterion: the seed of its random sets and of the EX1 run,
# the number of random sets besides EX1, and the records per estimate.
MC_SEED = 505
MC_RANDOM_SETS = 9
MC_RECORDS = 500


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


def _criterion(name: str, check, time_limit: float = math.inf) -> CriterionResult:
    """Time `check() -> (passed, details)`; it fails if it takes `time_limit` s or more."""
    t0 = time.perf_counter()
    passed, details = check()
    dt = time.perf_counter() - t0
    return CriterionResult(name, bool(passed) and dt < time_limit, details, dt)


def _worst_gap(seed: int, n_sets: int, gap, validity_max: float | None = None) -> float:
    """Largest `gap(params, pops)` over `n_sets` seeded random sets; NaN if any is NaN."""
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(n_sets):
        params = random_params(rng, validity_max)
        gaps.append(gap(params, derive_populations(params)))
    return float(np.max(gaps))


def criterion_1_commutator_normalization() -> CriterionResult:
    """(2 pi)^-1 Int c = 1 within 1e-5 on random valid sets."""
    def gap(params, pops):
        val, _ = integrate_1d(lambda w: commutator_spectrum(params, pops, w), rel_tol=1e-11)
        return abs(val / (2.0 * np.pi) - 1.0)

    def check():
        worst = _worst_gap(101, 200, gap)
        return worst <= 1e-5, f"max |norm - 1| = {worst:.3e}"

    return _criterion("commutator normalization (200 sets, tol 1e-5)", check, 10.0)


def criterion_2_mean_photon_agreement() -> CriterionResult:
    """Quadrature (delta mode) vs closed form within 1e-5 relative."""
    def gap(params, pops):
        closed = mean_photon_closed(params, pops).n_total
        quad = mean_photon_quadrature(params, pops, mode="delta").n_total
        return abs(quad - closed) / closed

    def check():
        worst = _worst_gap(202, 100, gap, validity_max=0.05)
        return worst < 1e-5, f"max relative gap = {worst:.3e}"

    return _criterion("mean-photon two-path agreement (100 sets, rel tol 1e-5)", check, 30.0)


def criterion_3_g2_agreement() -> CriterionResult:
    """Cumulant quadrature (delta mode) vs closed form within 1e-4 absolute."""
    def gap(params, pops):
        return abs(g2_bruteforce(params, pops, mode="delta").g2 - g2_closed(params, pops).g2)

    def check():
        worst = _worst_gap(303, 50, gap, validity_max=0.05)
        return worst < 1e-4, f"max absolute gap = {worst:.3e}"

    return _criterion("g2 two-path agreement (50 sets, abs tol 1e-4)", check, 120.0)


def criterion_4_validity_degradation() -> CriterionResult:
    """Full-Lorentzian g2 deviates < 1% at validity <= 0.01 and monotonically."""
    def check():
        devs, ratios = [], []
        for g in np.logspace(-4.0, 0.0, 13):
            params = dataclasses.replace(EX1, gamma_par=float(g))
            pops = derive_populations(params)
            closed = g2_closed(params, pops).g2
            full = g2_bruteforce(params, pops, mode="full").g2
            devs.append(abs(full - closed) / closed)
            ratios.append(validity_ratio(params))
        devs, ratios = np.asarray(devs), np.asarray(ratios)
        small = devs[ratios <= 0.01]
        ok_small = bool(np.all(small < 0.01)) and small.size > 0
        ok_mono = bool(np.all(np.diff(devs) > 0.0))
        return ok_small and ok_mono, \
            f"dev at validity<=0.01: max {small.max():.2e}; monotone: {ok_mono}"

    return _criterion("validity-condition degradation (gamma_par log scan 1e-4..1)", check)


def criterion_5_monte_carlo() -> CriterionResult:
    """MC n and g2 within 3 SE of the analytic pipeline; SE(g2) <= 0.02.

    Every set is compared against the mode-matched exact-convolution
    analytics: the exact n and the full-Lorentzian g2 (frozen at EX1,
    computed for the random sets). The delta closed forms are off by up to
    a few SE even at validity < 0.05 (1.4%, about 7 SE, at EX1's 0.141), so
    each set's distance from them is only reported alongside.
    """
    def run(params, pops, seed, exact, closed):
        """The estimate and its (z(n), z(g2)) against the exact and the closed (n, g2)."""
        config = MonteCarloConfig.for_model(params, pops, n_records=MC_RECORDS, seed=seed)
        est = run_monte_carlo(params, pops, config)

        def z(n, g2):
            return (est.n - n) / est.n_se, (est.g2 - g2) / est.g2_se

        return est, z(*exact), z(*closed)

    def check():
        runs = [run(EX1, derive_populations(EX1), MC_SEED,
                    (EX1_N_EXACT, EX1_G2_FULL), (EX1_N, EX1_G2))]
        rng = np.random.default_rng(MC_SEED)
        for _ in range(MC_RANDOM_SETS):
            params = random_params(rng, validity_max=0.05)
            pops = derive_populations(params)
            runs.append(run(params, pops, int(rng.integers(2 ** 32)),
                            (mean_photon_quadrature(params, pops, mode="exact").n_total,
                             g2_bruteforce(params, pops, mode="full").g2),
                            (mean_photon_closed(params, pops).n_total,
                             g2_closed(params, pops).g2)))
        ok = all(max(map(abs, z)) <= 3.0 and est.g2_se <= 0.02 for est, z, _ in runs)
        est = runs[0][0]
        (zn, zg), (zn_closed, zg_closed) = runs[0][1:]
        ex1_line = (
            f"EX1: n {est.n:.6f} ({zn:+.1f} SE of exact, {zn_closed:+.1f} of closed), "
            f"g2 {est.g2:.4f} ({zg:+.1f} SE of full, {zg_closed:+.1f} of closed), "
            f"SE(g2) {est.g2_se:.4f}"
        )
        sets = ", ".join(f"{z[0]:+.1f}/{z[1]:+.1f} (closed {zc[0]:+.1f}/{zc[1]:+.1f})"
                         for _, z, zc in runs[1:])
        worst_z = max(max(map(abs, z)) for _, z, _ in runs)
        return ok, (f"{ex1_line}; z(n)/z(g2) of the random sets: {sets}; "
                    f"worst |z| over {len(runs)} sets = {worst_z:.2f}")

    return _criterion(
        f"Monte Carlo oracle ({MC_RANDOM_SETS + 1} sets, {MC_RECORDS} records, 3 SE)",
        check, 180.0,
    )


def criterion_6_bounds_and_limits() -> CriterionResult:
    """g2 = 2 exactly without fluctuations; (2, 6] with; -> 6 as Delta_n grows."""
    def check():
        rng = np.random.default_rng(606)
        pops = derive_populations(EX1)
        frozen = pops.without_fluctuations()
        exact_two = g2_closed(EX1, frozen).g2 == 2.0 \
            and g2_bruteforce(EX1, frozen, mode="delta").g2 == 2.0
        bounds = True
        for _ in range(200):
            params = random_params(rng)
            g2 = g2_closed(params, derive_populations(params)).g2
            bounds &= 2.0 < g2 <= 6.0
        base = mean_photon_closed(EX1, pops).delta_n
        seq = [g2_from_delta_n(base * 10.0 ** k) for k in range(8)]
        monotone = all(b > a for a, b in zip(seq, seq[1:])) and seq[-1] < 6.0 \
            and (6.0 - seq[-1]) < 1e-5
        return exact_two and bounds and monotone, \
            f"exact two: {exact_two}, bounds: {bounds}, limit to 6: {monotone}"

    return _criterion("bounds and limits (g2 = 2 at zero fluctuations; (2,6]; -> 6)", check)


def criterion_7_figure_shapes() -> CriterionResult:
    """Monotone shapes of the fig3 and fig5 curves of srled.sweep.figure_series.

    fig3 at N_0 = 30 on 40 points: Delta_n and g2 rise with 2 kappa/gamma_perp
    for each N_th, and Delta_n falls with N_th at grid indices 0, 13, 26, 39.
    The fig5 curve 2 kappa/gamma_perp = 2, N_th = 10 at N_0 = N_th on 60
    points: g2 falls with pump (this only holds for small N_0/N_th).
    """
    def check():
        checks, dn = {}, {}
        for _, _, spec in figure_series("fig3", 30.0, 40):
            rows = run_sweep(spec)
            n_th = spec.base.n_threshold
            dn[n_th] = np.array([r.delta_n for r in rows])
            checks[f"dn_incr_nth{n_th:g}"] = bool(np.all(np.diff(dn[n_th]) > 0))
            checks[f"g2_incr_nth{n_th:g}"] = bool(np.all(np.diff([r.g2_closed for r in rows]) > 0))
        for i in range(0, len(rows), 13):
            checks[f"nth_decr_at_r{rows[i].value:.2g}"] = dn[5.0][i] > dn[10.0][i] > dn[15.0][i]
        spec = next(spec for fname, _, spec in figure_series("fig5", 10.0, 60)
                    if fname == "fig5_ratio2_nth10.csv")
        g2p = [r.g2_closed for r in run_sweep(spec)]
        checks["g2_decreasing_in_pump"] = bool(np.all(np.diff(g2p) < 0))
        bad = [k for k, v in checks.items() if not v]
        return not bad, "all monotone" if not bad else f"failed: {bad}"

    return _criterion("figure-shape monotonicity", check, 10.0)


def criterion_8_reference_point() -> CriterionResult:
    """EX1 reference values (oracle-frozen) at 1e-4 relative, all paths."""
    def check():
        pops = derive_populations(EX1)
        mp = mean_photon_closed(EX1, pops)
        g2c = g2_closed(EX1, pops).g2
        quad = mean_photon_quadrature(EX1, pops, mode="delta").n_total
        brute = g2_bruteforce(EX1, pops, mode="delta").g2
        worst = max(
            abs(mp.n0 - EX1_N0) / EX1_N0,
            abs(mp.delta_n - EX1_DELTA_N) / EX1_DELTA_N,
            abs(mp.n_total - EX1_N) / EX1_N,
            abs(g2c - EX1_G2) / EX1_G2,
            abs(quad - EX1_N) / EX1_N,
            abs(brute - EX1_G2) / EX1_G2,
        )
        return worst < 1e-4, (
            f"max rel gap {worst:.2e}; computed n0={mp.n0:.6f} delta_n={mp.delta_n:.6f} "
            f"n={mp.n_total:.6f} g2={g2c:.5f}"
        )

    return _criterion("EX1 reference point (tol 1e-4 relative)", check)


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


def run_validation(skip_montecarlo: bool = False) -> list[CriterionResult]:
    return [crit() for crit in ALL_CRITERIA
            if not (skip_montecarlo and crit is criterion_5_monte_carlo)]
