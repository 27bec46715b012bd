"""The three benchmark workloads: inputs from the seed, operations, checks.

A workload runs in whole rounds. ``run_round(k, ops)`` performs round k,
timing each operation through ``ops``; the inputs of round k depend only on
the seed and k. ``warm_up`` is the first call on every path the workload
uses, part of set-up time. ``check`` runs after the timed rounds and
returns one message per failed correctness check.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from pathlib import Path

import numpy as np

from srled import g2 as g2mod
from srled import model, montecarlo, photon, sweep
from srled.errors import ModelError

import reference

EX1 = dict(kappa=0.5, gamma_par=0.1, pump=0.1, n_threshold=5.0, n_emitters=20.0)
# Frozen nested-quadrature value of the full-Lorentzian g2 at EX1
# (srled.validation.EX1_G2_FULL); eight significant digits.
EX1_G2_FULL = 2.1472115


def ex1(**changes) -> model.ModelParams:
    return model.ModelParams(**dict(EX1, **changes))


class Ops:
    """Times each operation and counts attempts and failures.

    A failed operation raised a ModelError or returned an output that
    ``failed`` flags; its time is not a latency sample.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args, failed=None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except ModelError as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        if failed is not None and failed(out):
            self.failed += 1
            self.errors.append(f"flagged output: {out}")
            return None
        self.latencies.append(dt)
        return out


# ---------------------------------------------------------------------------
# full-scan
# ---------------------------------------------------------------------------

class FullScan:
    """g2_bruteforce(mode="full") along a log scan of gamma_par around EX1.

    A round is four scan points: EX1 itself and one point drawn from each
    of log10(gamma_par) in [-4, -3.5], [-2.75, -2.25] and [-0.5, 0]. The
    two low points have validity ratio <= 0.008, the high one >= 0.45.
    """

    name = "full-scan"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.scans = []  # per round: (params, G2Result) per successful operation

    def warm_up(self):
        p = ex1()
        pops = model.derive_populations(p)
        g2mod.g2_closed(p, pops)
        g2mod.noise_cumulant(p, pops, "full")
        photon.mean_photon_quadrature(p, pops, "delta")

    def points(self, k: int) -> list[float]:
        rng = np.random.default_rng([self.seed, k])
        lows = [(-4.0, -3.5), (-2.75, -2.25), (-0.5, 0.0)]
        return [EX1["gamma_par"]] + [10.0 ** rng.uniform(a, b) for a, b in lows]

    @staticmethod
    def _point(p):
        return p, g2mod.g2_bruteforce(p, model.derive_populations(p), mode="full")

    def run_round(self, k: int, ops: Ops):
        outs = [ops.run(self._point, ex1(gamma_par=g)) for g in self.points(k)]
        self.scans.append([out for out in outs if out is not None])

    def check(self) -> list[str]:
        bad = []
        n_ref, _ = reference.exact_mean_photon(**EX1)
        for scan in self.scans:
            devs = []
            for p, res in sorted(scan, key=lambda r: r[0].gamma_par):
                closed = g2mod.g2_closed(p, model.derive_populations(p)).g2
                devs.append(abs(res.g2 - closed) / closed)
                if not 2.0 < res.g2 <= 6.0:
                    bad.append(f"g2_full={res.g2} outside (2, 6] at gamma_par={p.gamma_par}")
                if model.validity_ratio(p) <= 0.01 and devs[-1] >= 0.01:
                    bad.append(f"g2_full deviates >= 1% from closed at gamma_par={p.gamma_par}")
                if p.gamma_par == EX1["gamma_par"]:
                    # g2 = 2 + coup^4 C / n^2 (srled.g2); recover the exact-convolution n
                    coup = p.kappa * p.gamma_perp / p.n_threshold
                    n_exact = math.sqrt(coup ** 4 * res.cumulant / (res.g2 - 2.0))
                    if abs(n_exact - n_ref) > 1e-6 * n_ref:
                        bad.append(f"exact n at EX1 {n_exact!r} != reference {n_ref!r}")
                    if abs(res.g2 - EX1_G2_FULL) > 1e-6:
                        bad.append(f"g2_full at EX1 {res.g2!r} != {EX1_G2_FULL}")
            if not all(b > a for a, b in zip(devs, devs[1:])):
                bad.append(f"deviation from closed form not increasing in gamma_par: {devs}")
        return bad


# ---------------------------------------------------------------------------
# sweep-delta
# ---------------------------------------------------------------------------

METHODS = ("closed", "quadrature", "cumulant")
# A round is SPECS_PER_ROUND specs of STEPS rows: rows of one spec share a
# base and cost about the same, so many short specs make the work of a run,
# and its time, depend little on the seed.
SPECS_PER_ROUND = 4
STEPS = 4


def random_base(rng: np.random.Generator) -> model.ModelParams:
    """A valid below-threshold configuration with validity ratio < 0.05.

    2k/g in [0.1, 10] log, P in [0.02, 2] log, N_th in [2, 20],
    N_0 in [5, 500] log, gamma_par = U(0.2, 1) * 0.05 sqrt(kappa);
    inversions at or above 0.8 N_th are redrawn.
    """
    while True:
        kappa = 0.5 * 10.0 ** rng.uniform(-1.0, 1.0)
        gamma_par = rng.uniform(0.2, 1.0) * 0.05 * math.sqrt(kappa)
        pump = 10.0 ** rng.uniform(math.log10(0.02), math.log10(2.0))
        n_th = rng.uniform(2.0, 20.0)
        n_emitters = 10.0 ** rng.uniform(math.log10(5.0), math.log10(500.0))
        if n_emitters * (pump - 1.0) / (pump + 1.0) < 0.8 * n_th:
            return model.ModelParams(kappa=kappa, gamma_par=gamma_par, pump=pump,
                                     n_threshold=n_th, n_emitters=n_emitters)


def loop_shape(p: model.ModelParams) -> float:
    """A / B^2 of |s(w)|^2 = (A - w^2)^2 + (B w)^2, from the formulas of srled.model.

    Small values mean a narrow peak of |s|^-2 at w = 0 (inversion close to
    threshold), large values a sharp resonance at w^2 = A.
    """
    n_e = p.pump * p.n_emitters / (p.pump + 1.0)
    inversion = 2.0 * n_e - p.n_emitters
    a = 0.5 * p.kappa * p.gamma_perp * (1.0 - inversion / p.n_threshold)
    return a / (p.kappa + 0.5 * p.gamma_perp) ** 2


# g2_bruteforce(mode="delta") misses g2_closed by more than 1e-4 when the
# loop filter has a narrow peak (A/B^2 below about 0.1 or above about 30);
# random sweeps stay inside SHAPE_RANGE, where the gap is below 2e-7, and
# KNOWN_BAD keeps one failing row in every round.
SHAPE_RANGE = (0.1, 10.0)
KNOWN_BAD = sweep.SweepSpec(
    base=model.ModelParams(kappa=0.25, gamma_par=0.01, pump=1.5, n_threshold=5.0,
                           n_emitters=20.0),
    variable="pump", start=1.4, stop=1.5, steps=2, methods=METHODS)


def random_spec(rng: np.random.Generator) -> sweep.SweepSpec:
    """A sweep from a random base in the direction that keeps every row valid.

    Raising kappa or N_th, or lowering pump, gamma_par or N_0, never raises
    the inversion (relative to N_th) nor the validity ratio, so every row
    stays below 0.8 N_th and below validity 0.05. Specs with a row whose
    loop shape leaves SHAPE_RANGE are redrawn.
    """
    while True:
        base = random_base(rng)
        variable = sweep.SWEEPABLE[int(rng.integers(len(sweep.SWEEPABLE)))]
        u = rng.uniform(0.0, 1.0)
        if variable == "kappa_ratio":
            lo = base.kappa_ratio
            hi = 10.0 ** (math.log10(lo) + u * (1.0 - math.log10(lo)))
        elif variable == "n_th":
            lo = base.n_threshold
            hi = lo + u * (20.0 - lo)
        else:
            hi, floor = {"pump": (base.pump, 0.02),
                         "gamma_par": (base.gamma_par, 0.01 * base.gamma_par),
                         "n_emitters": (base.n_emitters, 5.0)}[variable]
            lo = 10.0 ** (math.log10(hi) - u * (math.log10(hi) - math.log10(floor)))
        spec = sweep.SweepSpec(base=base, variable=variable, start=lo, stop=hi, steps=STEPS,
                               scale="log", methods=METHODS)
        shapes = [loop_shape(spec.params_at(v)) for v in spec.grid()]
        if SHAPE_RANGE[0] <= min(shapes) and max(shapes) <= SHAPE_RANGE[1]:
            return spec


def _row_failed(row) -> bool:
    """An error flag, or a quadrature or cumulant column off the closed form
    by more than the acceptance tolerances (1e-5 relative, 1e-4 absolute).
    A validity flag marks a row outside the closed forms' range, not a failure."""
    if any(f and not f.startswith("validity") for f in row.flags.split(";")):
        return True
    return abs(row.n_quad - row.n_closed) > 1e-5 * row.n_closed \
        or abs(row.g2_cumulant - row.g2_closed) > 1e-4


class SweepDelta:
    """Seeded delta-mode sweeps written as CSV and as records, then read back.

    A round is SPECS_PER_ROUND random SweepSpecs of STEPS rows each, with
    methods closed,quadrature,cumulant, plus the KNOWN_BAD row; one
    operation is one row. The rows of each random spec are written and
    read back.
    """

    name = "sweep-delta"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.specs = []  # (spec, rows, csv read back, records read back)

    def spec(self, k: int, j: int) -> sweep.SweepSpec:
        return random_spec(np.random.default_rng([self.seed, k, j]))

    def paths(self, tag):
        return self.workdir / f"sweep-{tag}.csv", self.workdir / f"sweep-{tag}.jsonl"

    def warm_up(self):
        spec = sweep.SweepSpec(base=ex1(gamma_par=0.01), variable="pump", start=0.05,
                               stop=0.1, steps=2, methods=METHODS)
        self._rows_io(spec, [sweep.compute_row(spec, v) for v in spec.grid()], "warm")

    def _rows_io(self, spec, rows, tag):
        csv_path, rec_path = self.paths(tag)
        sweep.write_rows(rows, spec, csv_path, "csv")
        sweep.write_rows(rows, spec, rec_path, "records")
        return sweep.read_rows(csv_path), sweep.read_rows(rec_path)

    def run_round(self, k: int, ops: Ops):
        for j in range(SPECS_PER_ROUND):
            spec = self.spec(k, j)
            rows = [ops.run(sweep.compute_row, spec, v, failed=_row_failed)
                    for v in spec.grid()]
            rows = [r for r in rows if r is not None]
            back_csv, back_rec = self._rows_io(spec, rows, f"{k}-{j}")
            self.specs.append((spec, rows, back_csv, back_rec))
        ops.run(sweep.compute_row, KNOWN_BAD, KNOWN_BAD.stop, failed=_row_failed)

    def check(self) -> list[str]:
        bad = []
        cols = ["value", "n0", "delta_n", "n_closed", "g2_closed", "n_quad", "g2_cumulant",
                "validity_ratio", "flags"]
        for spec, rows, back_csv, back_rec in self.specs:
            written = [{c: getattr(r, c) for c in cols} for r in rows]
            for fmt, back in (("csv", back_csv), ("records", back_rec)):
                got = [{c: rec.get(c) for c in cols} for rec in back]
                if got != written or any(rec["swept_var"] != spec.variable for rec in back):
                    bad.append(f"{fmt} read-back differs from the written rows")
        # a second run of the first spec must write byte-identical files
        spec = self.spec(0, 0)
        self._rows_io(spec, [sweep.compute_row(spec, v) for v in spec.grid()], "repeat")
        for first, second in zip(self.paths("0-0"), self.paths("repeat")):
            if first.read_bytes() != second.read_bytes():
                bad.append(f"{first.name} and {second.name} differ")
        return bad


# ---------------------------------------------------------------------------
# mc-ensemble
# ---------------------------------------------------------------------------

# Both ensembles hold 2^22 samples: 1024 records of 4096 at EX1 and 128
# records of 32768 at gamma_par = 0.01 (validity 0.014), so the two differ
# only in record length, per-record overhead and working set.
ENSEMBLES = ((0.1, 4096, 1024), (0.01, 32768, 128))
Z_MAX = 5.0
SE_G2_MAX = 0.02


class McEnsemble:
    """Seeded run_monte_carlo ensembles; a round is one of each ENSEMBLES."""

    name = "mc-ensemble"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.results = []  # (params, config, MomentEstimate)

    def warm_up(self):
        p = ex1()
        pops = model.derive_populations(p)
        montecarlo.run_monte_carlo(p, pops, montecarlo.MonteCarloConfig.for_model(p, pops, n_records=30))

    def configs(self, k: int):
        seeds = np.random.default_rng([self.seed, k]).integers(2 ** 32, size=len(ENSEMBLES))
        out = []
        for (gamma_par, samples, records), s in zip(ENSEMBLES, seeds):
            p = ex1(gamma_par=gamma_par)
            config = montecarlo.MonteCarloConfig.for_model(
                p, model.derive_populations(p), n_records=records, seed=int(s))
            if config.n_samples != samples:
                raise SystemExit(f"MonteCarloConfig.for_model now picks {config.n_samples} "
                                 f"samples at gamma_par={gamma_par}, not {samples}; "
                                 "the mc-ensemble workload no longer measures what it states")
            out.append((p, config))
        return out

    @staticmethod
    def _ensemble(p, config):
        return montecarlo.run_monte_carlo(p, model.derive_populations(p), config)

    def run_round(self, k: int, ops: Ops):
        for p, config in self.configs(k):
            est = ops.run(self._ensemble, p, config)
            if est is not None:
                self.results.append((p, config, est))

    def samples(self) -> int:
        return sum(config.n_samples * config.n_records for _, config, _ in self.results)

    def record_mb(self) -> float:
        """Peak bytes allocated while synthesizing one long record, in MiB."""
        p, config = self.configs(0)[-1]
        pops = model.derive_populations(p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            montecarlo.simulate_field_record(p, pops, config, montecarlo.record_rng(config, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / 2 ** 20

    def check(self) -> list[str]:
        bad = []
        n_ex1, _ = reference.exact_mean_photon(**EX1)
        for p, config, est in self.results:
            if p.gamma_par == EX1["gamma_par"]:
                n_ref, g2_ref = n_ex1, EX1_G2_FULL
            else:
                pops = model.derive_populations(p)
                n_ref = photon.mean_photon_closed(p, pops).n_total
                g2_ref = g2mod.g2_closed(p, pops).g2
            zn = (est.n - n_ref) / est.n_se
            zg = (est.g2 - g2_ref) / est.g2_se
            if max(abs(zn), abs(zg)) > Z_MAX or est.g2_se > SE_G2_MAX:
                bad.append(f"gamma_par={p.gamma_par} seed={config.seed}: z(n)={zn:+.2f}, "
                           f"z(g2)={zg:+.2f}, SE(g2)={est.g2_se:.4f}")
        if self.results:
            p, config, est = self.results[0]
            if self._ensemble(p, config) != est:
                bad.append(f"repeated seed {config.seed} gave different estimates")
        return bad


WORKLOADS = {cls.name: cls for cls in (FullScan, SweepDelta, McEnsemble)}
