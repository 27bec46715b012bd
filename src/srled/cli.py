"""Command line front end.

Model parameters come from flags, an optional key=value config file, or the
defaults, with precedence flags > file > defaults. The defaults are the
reference configuration ``srled.validation.EX1``. All rates are in units of
gamma_perp; the cavity is specified by the ratio 2*kappa/gamma_perp.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from .errors import InvalidParamsError, ModelError
from .g2 import g2_bruteforce, g2_closed
from .model import (
    GRID_SAFETY,
    FrequencyGrid,
    ModelParams,
    commutator_spectrum,
    derive_populations,
    population_spectrum,
    slow_pole_ratio,
    validity_ratio,
)
from .montecarlo import MonteCarloConfig, _stripes, run_monte_carlo
from .photon import mean_photon_closed, mean_photon_quadrature, photon_number_spectrum
from .sweep import (
    FIGURES,
    METHODS,
    SWEEPABLE,
    SweepSpec,
    reproduce_figure,
    run_sweep,
    set_params,
    write_rows,
)
from .validation import EX1, run_validation


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("model parameters (units of gamma_perp)")
    g.add_argument("--kappa-ratio", type=float, help="2*kappa/gamma_perp")
    g.add_argument("--pump", type=float, help="dimensionless pump P")
    g.add_argument("--n-th", type=float, help="threshold inversion N_th")
    g.add_argument("--gamma-par", type=float, help="population decay rate")
    g.add_argument("--n-emitters", type=float, help="total emitter count N_0")
    g.add_argument("--config", type=Path, help="key=value file with the same names")


def _resolve_params(args) -> ModelParams:
    values = {}
    if args.config is not None:
        # plain key=value lines; '#' starts a comment
        for raw in args.config.read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParamsError(f"bad config line {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name not in SWEEPABLE:
                raise InvalidParamsError(f"unknown config key {key!r}")
            if name in values:
                raise InvalidParamsError(f"config key {key!r} sets {name} a second time")
            try:
                values[name] = float(val)
            except ValueError:
                raise InvalidParamsError(f"config key {key!r} needs a number, got {val!r}") from None
    for name in SWEEPABLE:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return set_params(EX1, values)


def _cmd_spectrum(args) -> int:
    params = _resolve_params(args)
    pops = derive_populations(params)
    if args.grid_omega_max is not None:
        grid = FrequencyGrid(omega_max=args.grid_omega_max, n_points=args.grid_points)
    else:
        grid = FrequencyGrid.for_model(params, pops, n_points=args.grid_points)
    w = grid.omegas()
    # every column is computed before --out is opened, so an error leaves no file
    columns = (w, commutator_spectrum(params, pops, w), population_spectrum(pops, w),
               photon_number_spectrum(params, pops, w))
    out = open(args.out, "w") if args.out is not None else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write("# omega in units of gamma_perp\nomega,commutator,population,photon\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def _cmd_mean_photon(args) -> int:
    params = _resolve_params(args)
    pops = derive_populations(params)
    results = []
    if args.method in ("closed", "both"):
        results.append(mean_photon_closed(params, pops))
    if args.method in ("quadrature", "both"):
        results.append(mean_photon_quadrature(params, pops, mode=args.mode))
    for res in results:
        print(f"n0 = {res.n0:.8g}  delta_n = {res.delta_n:.8g}  "
              f"n = {res.n_total:.8g}  [{res.method}]")
    print(f"validity_ratio = {validity_ratio(params):.6g}")
    print(f"slow_pole_ratio = {slow_pole_ratio(params, pops):.6g}")
    return 0


def _cmd_g2(args) -> int:
    params = _resolve_params(args)
    pops = derive_populations(params)
    if args.method in ("closed", "both"):
        res = g2_closed(params, pops)
        print(f"g2 = {res.g2:.8g}  [{res.method}]")
    if args.method in ("cumulant", "both"):
        res = g2_bruteforce(params, pops, mode=args.mode)
        print(f"g2 = {res.g2:.8g}  cumulant = {res.cumulant:.8g}  "
              f"error ~ {res.error:.2g}  [{res.method}]")
    print(f"validity_ratio = {validity_ratio(params):.6g}")
    print(f"slow_pole_ratio = {slow_pole_ratio(params, pops):.6g}")
    return 0


def _cmd_mc(args) -> int:
    params = _resolve_params(args)
    pops = derive_populations(params)
    config = MonteCarloConfig.for_model(params, pops, n_records=args.records, seed=args.seed)
    t0 = time.perf_counter()
    est = run_monte_carlo(params, pops, config)
    wall = time.perf_counter() - t0
    print(f"records = {est.n_records}  samples/record = {config.n_samples}  "
          f"duration = {config.duration:.4g}")
    print(f"wall = {wall:.3g} s  samples/s = {config.n_samples * config.n_records / wall:.3g}  "
          f"threads = {_stripes(config)[1]}")
    print(f"n  = {est.n:.6g} +- {est.n_se:.2g}")
    print(f"g2 = {est.g2:.6g} +- {est.g2_se:.2g}")
    return 0


def _cmd_sweep(args) -> int:
    params = _resolve_params(args)
    # fail before the rows are computed, not when they are written
    if args.out.is_dir():
        raise IsADirectoryError(f"--out is a directory: {args.out}")
    if not args.out.parent.is_dir():
        raise FileNotFoundError(f"directory of --out does not exist: {args.out.parent}")
    spec = SweepSpec(
        base=params,
        variable=args.var.replace("-", "_"),
        start=args.start, stop=args.stop, steps=args.steps, scale=args.scale,
        methods=tuple(args.methods.split(",")),
        seed=args.seed, records=args.records,
    )
    rows = run_sweep(spec)
    write_rows(rows, spec, args.out, fmt=args.format)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_figure(which: str, args) -> int:
    paths = reproduce_figure(which, n_emitters=args.n_emitters,
                             out_dir=args.out_dir, steps=args.steps)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_validate(args) -> int:
    results = run_validation(skip_montecarlo=args.skip_montecarlo)
    failed = 0
    for res in results:
        print(res.line())
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srled",
        description="Below-threshold photon statistics of a small superradiant LED",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="emit photon, commutator and population spectra")
    _add_param_flags(p)
    p.add_argument("--grid-omega-max", type=float,
                   help=f"grid half-width (default {GRID_SAFETY:g}x the widest spectral rate)")
    p.add_argument("--grid-points", type=int, default=8193)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("mean-photon", help="mean photon number")
    _add_param_flags(p)
    p.add_argument("--method", choices=("closed", "quadrature", "both"), default="both")
    p.add_argument("--mode", choices=("delta", "exact"), default="delta")
    p.set_defaults(func=_cmd_mean_photon)

    p = sub.add_parser("g2", help="second-order autocorrelation")
    _add_param_flags(p)
    p.add_argument("--method", choices=("closed", "cumulant", "both"), default="both")
    p.add_argument("--mode", choices=("delta", "full"), default="delta")
    p.set_defaults(func=_cmd_g2)

    p = sub.add_parser("mc", help="Monte Carlo moment estimates")
    _add_param_flags(p)
    p.add_argument("--records", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("sweep", help="parameter sweep to CSV or JSON records")
    _add_param_flags(p)
    p.add_argument("--var", required=True,
                   choices=[v.replace("_", "-") for v in SWEEPABLE] + list(SWEEPABLE))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--methods", default="closed",
                   help=f"comma list from {','.join(METHODS)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--records", type=int, default=500)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("csv", "records"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    for which in FIGURES:
        p = sub.add_parser(f"reproduce-{which}",
                           help=f"emit the {which} dataset and plot script")
        p.add_argument("--n-emitters", type=float, required=True,
                       help="emitter count N_0 (not stated by the source figures)")
        p.add_argument("--out-dir", type=Path, default=Path(f"{which}_data"))
        p.add_argument("--steps", type=int, default=50)
        p.set_defaults(func=lambda args, w=which: _cmd_figure(w, args))

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--skip-montecarlo", action="store_true")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
