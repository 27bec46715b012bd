"""Parameter sweeps, figure datasets, and flat-file output.

Sweeps vary exactly one model field over a linear or log range and compute
the requested method columns per point. Rows never abort the sweep: model
errors (for example crossing threshold mid-range) land in the row's flag
column, and their messages in the ``error`` key of a JSON record. Output
is CSV (a units comment line plus a header row) or line-delimited JSON
records, both built from one record per row with the same keys in the
same order; CSV leaves out ``error``. Identical spec and seed give
byte-identical files, so no timestamps or environment data are written.

The curves of the source paper's Figs. 3-5 are defined once, by
``figure_series``; ``reproduce_figure``, the figure-shape acceptance
criterion and the ``reproduce-fig*`` commands all take them from there.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParamsError, ModelError, _require_integers
from .g2 import g2_bruteforce, g2_closed
from .model import ModelParams, derive_populations, validity_ratio
from .montecarlo import MonteCarloConfig, check_ensemble, run_monte_carlo
from .photon import mean_photon_closed, mean_photon_quadrature

SWEEPABLE = ("kappa_ratio", "pump", "n_th", "gamma_par", "n_emitters")
METHODS = ("closed", "quadrature", "cumulant", "montecarlo")

_VALIDITY_WARN = 0.1


def set_params(base: ModelParams, values: dict[str, float]) -> ModelParams:
    """``base`` with the SWEEPABLE names in ``values`` set.

    n_th sets n_threshold, kappa_ratio = 2 kappa / gamma_perp sets kappa, and
    the other names set the field of the same name.
    """
    fields = {"n_threshold" if name == "n_th" else name: v for name, v in values.items()}
    if "kappa_ratio" in fields:
        fields["kappa"] = 0.5 * fields.pop("kappa_ratio")
    return dataclasses.replace(base, **fields)


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep description."""

    base: ModelParams
    variable: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"
    methods: tuple[str, ...] = ("closed",)
    seed: int = 0
    records: int = 500

    def __post_init__(self):
        if self.variable not in SWEEPABLE:
            raise InvalidParamsError(f"swept variable must be one of {SWEEPABLE}")
        _require_integers(steps=self.steps, records=self.records, seed=self.seed)
        if self.steps < 2:
            raise InvalidParamsError("steps must be >= 2")
        if self.scale not in ("linear", "log"):
            raise InvalidParamsError("scale must be 'linear' or 'log'")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise InvalidParamsError(f"unknown methods {sorted(unknown)}")
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise InvalidParamsError("start and stop must be finite")
        check_ensemble(self.records, self.seed)  # here, not once per Monte Carlo row
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise InvalidParamsError("log scale needs positive endpoints")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(np.log10(self.start), np.log10(self.stop), self.steps)
        return np.linspace(self.start, self.stop, self.steps)

    def params_at(self, value: float) -> ModelParams:
        return set_params(self.base, {self.variable: value})


@dataclass
class SweepRow:
    value: float
    n0: float | None = None
    delta_n: float | None = None
    n_closed: float | None = None
    g2_closed: float | None = None
    n_quad: float | None = None
    g2_cumulant: float | None = None
    g2_mc: float | None = None
    g2_mc_se: float | None = None
    validity_ratio: float | None = None
    flags: str = ""
    error: str = ""  # message of the ModelError that flagged the row


def _columns(methods) -> list[str]:
    cols = ["n0", "delta_n", "n_closed", "g2_closed"]
    if "quadrature" in methods:
        cols.append("n_quad")
    if "cumulant" in methods:
        cols.append("g2_cumulant")
    if "montecarlo" in methods:
        cols += ["g2_mc", "g2_mc_se"]
    return cols


def compute_row(spec: SweepSpec, value: float) -> SweepRow:
    row = SweepRow(value=float(value))
    flags = []
    try:
        params = spec.params_at(value)
        row.validity_ratio = validity_ratio(params)
        if row.validity_ratio > _VALIDITY_WARN:
            flags.append(f"validity_ratio_above_{_VALIDITY_WARN}")
        pops = derive_populations(params)
        mp = mean_photon_closed(params, pops)
        row.n0, row.delta_n, row.n_closed = mp.n0, mp.delta_n, mp.n_total
        row.g2_closed = g2_closed(params, pops).g2
        if "quadrature" in spec.methods:
            row.n_quad = mean_photon_quadrature(params, pops, mode="delta").n_total
        if "cumulant" in spec.methods:
            row.g2_cumulant = g2_bruteforce(params, pops, mode="delta").g2
        if "montecarlo" in spec.methods:
            config = MonteCarloConfig.for_model(params, pops,
                                                n_records=spec.records, seed=spec.seed)
            est = run_monte_carlo(params, pops, config)
            row.g2_mc, row.g2_mc_se = est.g2, est.g2_se
    except ModelError as exc:
        flags.append(type(exc).__name__.removesuffix("Error"))
        row.error = str(exc)
    row.flags = ";".join(flags)
    return row


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid point; row errors are flagged, never raised."""
    return [compute_row(spec, v) for v in spec.grid()]


# ---------------------------------------------------------------------------
# Flat-file output
# ---------------------------------------------------------------------------

_UNITS_COMMENT = "# rates and frequencies in units of gamma_perp; n, delta_n, g2 dimensionless"


def _cell(x) -> str:
    if x is None:
        return ""
    return x if isinstance(x, str) else repr(float(x))


def write_rows(rows: list[SweepRow], spec: SweepSpec, path: Path, fmt: str = "csv") -> None:
    """Write sweep rows as CSV or line-delimited JSON records.

    Both formats write one record per row, with the keys in file order:
    swept_var, value, the method columns, validity_ratio, flags, error.
    CSV leaves out error.
    """
    if fmt not in ("csv", "records"):
        raise InvalidParamsError(f"unknown format {fmt!r}")
    keys = ["swept_var", "value", *_columns(spec.methods), "validity_ratio", "flags", "error"]
    with Path(path).open("w") as fh:
        if fmt == "csv":
            fh.write(_UNITS_COMMENT + "\n" + ",".join(keys[:-1]) + "\n")
        for row in rows:
            rec = {k: spec.variable if k == "swept_var" else getattr(row, k) for k in keys}
            if fmt == "csv":
                del rec["error"]
                fh.write(",".join(map(_cell, rec.values())) + "\n")
            else:
                fh.write(json.dumps(rec) + "\n")


def read_rows(path: Path) -> list[dict]:
    """Parse a file written by write_rows back into dicts (exact floats)."""
    path = Path(path)
    text = path.read_text().splitlines()
    if text and text[0].startswith("{"):
        # one document, so that the records share their key strings
        return json.loads("[" + ",".join(line for line in text if line.strip()) + "]")
    rows = []
    header = None
    for line in text:
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        cells = line.split(",")
        rec = {}
        for key, cell in zip(header, cells):
            if key in ("swept_var", "flags"):
                rec[key] = cell
            else:
                rec[key] = float(cell) if cell else None
        rows.append(rec)
    return rows


# ---------------------------------------------------------------------------
# Figure datasets
# ---------------------------------------------------------------------------

# plot layout of each source figure: y column, x scale, x label, y label
FIGURES = {
    "fig3": ("delta_n", "log", "2*kappa/gamma_perp", "Delta_n"),
    "fig4": ("g2_closed", "log", "2*kappa/gamma_perp", "g2"),
    "fig5": ("g2_closed", "linear", "pump P", "g2"),
}

_PLOT_TEMPLATE = '''"""Plot {figure} from the emitted datasets (run: python {script})."""
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).parent
SERIES = {series!r}
XCOL, YCOL = 'value', {ycol!r}

fig, ax = plt.subplots(figsize=(6, 4))
for fname, label in SERIES:
    xs, ys = [], []
    with open(HERE / fname) as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        for rec in reader:
            if rec[YCOL]:
                xs.append(float(rec[XCOL]))
                ys.append(float(rec[YCOL]))
    ax.plot(xs, ys, label=label)
ax.set_xscale({xscale!r})
ax.set_xlabel({xlabel!r})
ax.set_ylabel({ylabel!r})
ax.legend()
fig.tight_layout()
fig.savefig(HERE / "{figure}.png", dpi=160)
print("wrote", HERE / "{figure}.png")
'''


def figure_series(which: str, n_emitters: float,
                  steps: int) -> list[tuple[str, str, SweepSpec]]:
    """(file name, legend label, sweep) of each curve of a source figure.

    All curves are at P = 0.1 and gamma_par = 0.1:
    fig3: Delta_n vs 2 kappa/gamma_perp for N_th in {15, 10, 5}
    fig4: g2 vs 2 kappa/gamma_perp for N_th in {15, 10, 5}
    fig5: g2 vs pump for (2 kappa/gamma_perp, N_th) in {6, 2, 0.2} x {5, 10}

    The emitter count never appears in the source figures, so it is an
    explicit input here.
    """
    if which not in FIGURES:
        raise InvalidParamsError(f"figure must be one of {', '.join(FIGURES)}")
    fixed = dict(gamma_par=0.1, pump=0.1, n_emitters=n_emitters)
    if which == "fig5":
        return [(f"fig5_ratio{ratio:g}_nth{n_th:g}.csv",
                 f"2k/g = {ratio:g}, N_th = {n_th:g} ({'solid' if n_th == 5.0 else 'dashed'})",
                 SweepSpec(base=ModelParams.from_ratio(ratio, n_threshold=n_th, **fixed),
                           variable="pump", start=0.01, stop=1.0, steps=steps))
                for ratio in (6.0, 2.0, 0.2) for n_th in (5.0, 10.0)]
    return [(f"{which}_nth{n_th:g}.csv", f"N_th = {n_th:g}",
             SweepSpec(base=ModelParams(kappa=0.5, n_threshold=n_th, **fixed),
                       variable="kappa_ratio", start=0.1, stop=10.0, steps=steps, scale="log"))
            for n_th in (15.0, 10.0, 5.0)]


def reproduce_figure(which: str, n_emitters: float, out_dir: Path,
                     steps: int = 50) -> list[Path]:
    """Emit the sweep dataset of each curve of ``figure_series`` plus a plotting script.

    Every curve is checked before ``out_dir`` is created, so bad inputs
    leave no directory behind.
    """
    series = figure_series(which, n_emitters, steps)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fname, _, spec in series:
        write_rows(run_sweep(spec), spec, out_dir / fname)
    ycol, xscale, xlabel, ylabel = FIGURES[which]
    script = out_dir / f"plot_{which}.py"
    script.write_text(_PLOT_TEMPLATE.format(
        figure=which, script=script.name, series=[(f, label) for f, label, _ in series],
        ycol=ycol, xscale=xscale, xlabel=xlabel, ylabel=ylabel,
    ))
    return [out_dir / fname for fname, _, _ in series] + [script]
