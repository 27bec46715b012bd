"""Sweeps, flat files and figure datasets."""

import dataclasses

import numpy as np
import pytest

from srled import ModelParams, reproduce_figure, run_sweep
from srled.errors import InvalidParamsError
from srled.montecarlo import _MIN_RECORDS
from srled.sweep import (
    SWEEPABLE,
    SweepRow,
    SweepSpec,
    read_rows,
    set_params,
    write_rows,
)


@pytest.fixture
def base():
    return ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                       n_threshold=5.0, n_emitters=20.0)


@pytest.fixture
def pump_base():
    # N_0 = N_th so the pump sweep stays monotone over [0.01, 1]
    return ModelParams.from_ratio(2.0, gamma_par=0.1, pump=0.1,
                                  n_threshold=10.0, n_emitters=10.0)


class TestSweepSpec:
    def test_validation(self, base):
        with pytest.raises(InvalidParamsError):
            SweepSpec(base=base, variable="bogus", start=1, stop=2, steps=3)
        for steps in (1, 2.5, 3.0):
            with pytest.raises(InvalidParamsError):
                SweepSpec(base=base, variable="pump", start=1, stop=2, steps=steps)
        with pytest.raises(InvalidParamsError):
            SweepSpec(base=base, variable="pump", start=1, stop=2, steps=3,
                      methods=("closed", "bogus"))
        with pytest.raises(InvalidParamsError):
            SweepSpec(base=base, variable="pump", start=0.0, stop=2, steps=3, scale="log")
        for start, stop, scale in ((0.1, float("nan"), "linear"), (float("nan"), 2, "linear"),
                                   (0.1, float("inf"), "log"), (-float("inf"), 2, "linear")):
            with pytest.raises(InvalidParamsError):
                SweepSpec(base=base, variable="pump", start=start, stop=stop, steps=3, scale=scale)
        # Monte Carlo settings no row could use: rows flag model errors, so a
        # record count or seed that is not an integer is refused up front
        for records, seed in ((_MIN_RECORDS - 1, 0), (0, 0), (500, -1), (500, 2 ** 63 + 1),
                              (30.5, 0), (500, 2.5), (500.0, 0)):
            with pytest.raises(InvalidParamsError):
                SweepSpec(base=base, variable="pump", start=0.1, stop=0.2, steps=2,
                          methods=("montecarlo",), records=records, seed=seed)

    @pytest.mark.parametrize("variable", SWEEPABLE)
    def test_params_at_sets_one_field(self, base, variable):
        spec = SweepSpec(base=base, variable=variable, start=1.0, stop=3.0, steps=2)
        params = spec.params_at(3.0)
        changed = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)
                   if getattr(params, f.name) != getattr(base, f.name)}
        field = {"kappa_ratio": "kappa", "n_th": "n_threshold"}.get(variable, variable)
        # kappa_ratio is 2 kappa / gamma_perp
        assert changed == {field: 1.5 if variable == "kappa_ratio" else 3.0}

    def test_sweepable_names_map_onto_model_fields(self, base):
        # every model parameter can be set from the flags, the config file
        # and sweeps, and no two names set the same one
        changed = []
        for variable in SWEEPABLE:
            params = set_params(base, {variable: 7.0})
            changed += [f.name for f in dataclasses.fields(params)
                        if getattr(params, f.name) != getattr(base, f.name)]
        assert sorted(changed) == sorted(f.name for f in dataclasses.fields(ModelParams))

    def test_grid_scales(self, base):
        lin = SweepSpec(base=base, variable="pump", start=0.1, stop=1.0, steps=10)
        assert np.allclose(np.diff(lin.grid()), lin.grid()[1] - lin.grid()[0])
        log = SweepSpec(base=base, variable="pump", start=0.1, stop=1.0, steps=10, scale="log")
        assert np.allclose(np.diff(np.log(log.grid())), np.log(log.grid()[1] / log.grid()[0]))


class TestRunSweep:
    def test_delta_n_increases_with_kappa_ratio(self, base):
        spec = SweepSpec(base=base, variable="kappa_ratio",
                         start=0.1, stop=10.0, steps=25, scale="log")
        rows = run_sweep(spec)
        dn = [r.delta_n for r in rows]
        assert all(b > a for a, b in zip(dn, dn[1:]))

    def test_g2_decreases_with_pump(self, pump_base):
        spec = SweepSpec(base=pump_base, variable="pump", start=0.01, stop=1.0, steps=25)
        g2 = [r.g2_closed for r in run_sweep(spec)]
        assert all(b < a for a, b in zip(g2, g2[1:]))

    def test_collapsed_range_gives_identical_rows(self, base):
        spec = SweepSpec(base=base, variable="pump", start=0.3, stop=0.3, steps=2)
        rows = run_sweep(spec)
        assert rows[0] == rows[1]

    def test_error_rows_flagged_not_raised(self, base):
        # pump values beyond threshold inversion must flag, not abort
        spec = SweepSpec(base=base, variable="pump", start=0.5, stop=50.0,
                         steps=8, scale="log")
        rows = run_sweep(spec)
        flagged = [r for r in rows if "AboveThreshold" in r.flags]
        clean = [r for r in rows if r.n_closed is not None]
        assert flagged and clean
        assert all(r.n_closed is None for r in flagged)

    def test_overlong_monte_carlo_record_flags_row(self, base):
        # gamma_par = 1e-4 needs 2^22-sample records: flagged, not simulated
        spec = SweepSpec(base=base, variable="gamma_par", start=1e-4, stop=0.1, steps=2,
                         scale="log", methods=("closed", "montecarlo"), records=30)
        long_row, ex1_row = run_sweep(spec)
        assert "RecordTooLong" in long_row.flags
        assert long_row.g2_closed is not None and long_row.g2_mc is None
        assert "RecordTooLong" not in ex1_row.flags and ex1_row.g2_mc is not None

    def test_records_carry_error_message(self, base, tmp_path):
        # the row past threshold names its reason in records, not in CSV
        spec = SweepSpec(base=base, variable="pump", start=0.5, stop=50.0,
                         steps=5, scale="log")
        rows = run_sweep(spec)
        path = tmp_path / "sweep.jsonl"
        write_rows(rows, spec, path, fmt="records")
        recs = read_rows(path)
        assert "AboveThreshold" in recs[-1]["flags"]
        assert recs[-1]["error"].startswith("inversion ")
        assert recs[0]["flags"] == "validity_ratio_above_0.1" and recs[0]["error"] == ""
        write_rows(rows, spec, tmp_path / "sweep.csv")
        assert all("error" not in rec for rec in read_rows(tmp_path / "sweep.csv"))

    def test_records_print_plain_floats(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="n_emitters", start=0.5, stop=2.0, steps=2)
        path = tmp_path / "sweep.jsonl"
        write_rows(run_sweep(spec), spec, path, fmt="records")
        assert read_rows(path)[0]["error"] == "n_emitters must be >= 1 and finite, got 0.5"

    def test_quadrature_column(self, base):
        spec = SweepSpec(base=base, variable="pump", start=0.05, stop=0.5, steps=3,
                         methods=("closed", "quadrature"))
        for row in run_sweep(spec):
            assert row.n_quad == pytest.approx(row.n_closed, rel=1e-8)

    def test_validity_flag(self, base):
        spec = SweepSpec(base=base, variable="gamma_par", start=0.01, stop=0.5,
                         steps=4, scale="log")
        rows = run_sweep(spec)
        assert rows[0].flags == ""
        assert "validity_ratio_above_0.1" in rows[-1].flags


class TestFlatFiles:
    def test_csv_round_trip(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="pump", start=0.05, stop=0.5, steps=5,
                         methods=("closed", "quadrature"))
        rows = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        write_rows(rows, spec, path)
        parsed = read_rows(path)
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
            assert rec["swept_var"] == "pump"
            assert rec["value"] == row.value          # exact float round trip
            assert rec["n_closed"] == row.n_closed
            assert rec["n_quad"] == row.n_quad
            assert rec["g2_closed"] == row.g2_closed

    def test_records_round_trip(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="pump", start=0.05, stop=0.5, steps=4)
        rows = run_sweep(spec)
        path = tmp_path / "sweep.jsonl"
        write_rows(rows, spec, path, fmt="records")
        parsed = read_rows(path)
        assert [r["value"] for r in parsed] == [r.value for r in rows]
        assert [r["g2_closed"] for r in parsed] == [r.g2_closed for r in rows]

    def test_byte_identical_runs(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="kappa_ratio", start=0.1, stop=10.0,
                         steps=7, scale="log")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(run_sweep(spec), spec, p1)
        write_rows(run_sweep(spec), spec, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_error_rows_serialize_empty(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="pump", start=0.5, stop=50.0,
                         steps=5, scale="log")
        path = tmp_path / "sweep.csv"
        write_rows(run_sweep(spec), spec, path)
        parsed = read_rows(path)
        assert any(rec["n_closed"] is None and "AboveThreshold" in rec["flags"]
                   for rec in parsed)

    def test_file_schema(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="pump", start=0.05, stop=0.5, steps=2,
                         methods=("closed", "quadrature", "cumulant", "montecarlo"))
        header = ["swept_var", "value", "n0", "delta_n", "n_closed", "g2_closed", "n_quad",
                  "g2_cumulant", "g2_mc", "g2_mc_se", "validity_ratio", "flags"]
        rows = [SweepRow(value=0.05, n0=0.1, flags="RecordTooLong", error="too long")]
        write_rows(rows, spec, tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[1] == ",".join(header)
        assert lines[2] == "pump,0.05,0.1,,,,,,,,,RecordTooLong"
        write_rows(rows, spec, tmp_path / "s.jsonl", fmt="records")
        (rec,) = read_rows(tmp_path / "s.jsonl")
        assert list(rec) == header + ["error"]
        assert rec["error"] == "too long"

    def test_empty_row_list(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="pump", start=0.05, stop=0.5, steps=2)
        write_rows([], spec, tmp_path / "s.csv")
        comment, header = (tmp_path / "s.csv").read_text().splitlines()
        assert comment.startswith("# ")
        assert header == "swept_var,value,n0,delta_n,n_closed,g2_closed,validity_ratio,flags"
        write_rows([], spec, tmp_path / "s.jsonl", fmt="records")
        assert (tmp_path / "s.jsonl").read_text() == ""

    def test_unknown_format_writes_nothing(self, base, tmp_path):
        spec = SweepSpec(base=base, variable="pump", start=0.05, stop=0.5, steps=2)
        with pytest.raises(InvalidParamsError):
            write_rows(run_sweep(spec), spec, tmp_path / "s.txt", fmt="tsv")
        assert not (tmp_path / "s.txt").exists()


class TestReproduceFigures:
    @pytest.mark.parametrize("which,n_emitters,steps",
                             [("fig6", 30.0, 10), ("fig3", 0.5, 10), ("fig5", 10.0, 1)])
    def test_bad_input_creates_no_directory(self, tmp_path, which, n_emitters, steps):
        out_dir = tmp_path / "out"
        with pytest.raises(InvalidParamsError):
            reproduce_figure(which, n_emitters=n_emitters, out_dir=out_dir, steps=steps)
        assert not out_dir.exists()

    def test_fig4_bounds_and_ordering(self, tmp_path):
        paths = reproduce_figure("fig4", n_emitters=30.0, out_dir=tmp_path, steps=12)
        series = {}
        for p in paths:
            if p.suffix == ".csv":
                rows = read_rows(p)
                series[p.name] = [r["g2_closed"] for r in rows]
                assert all(2.0 < g <= 6.0 for g in series[p.name])
        for g5, g10, g15 in zip(series["fig4_nth5.csv"], series["fig4_nth10.csv"],
                               series["fig4_nth15.csv"]):
            assert g5 > g10 > g15
        assert (tmp_path / "plot_fig4.py").exists()

    def test_fig5_solid_above_dashed(self, tmp_path):
        paths = reproduce_figure("fig5", n_emitters=10.0, out_dir=tmp_path, steps=8)
        series = {p.name: [r["g2_closed"] for r in read_rows(p)]
                  for p in paths if p.suffix == ".csv"}
        for ratio in ("6", "2", "0.2"):
            solid = series[f"fig5_ratio{ratio}_nth5.csv"]
            dashed = series[f"fig5_ratio{ratio}_nth10.csv"]
            assert all(s > d for s, d in zip(solid, dashed))

    def test_fig3_dataset_shape(self, tmp_path):
        paths = reproduce_figure("fig3", n_emitters=30.0, out_dir=tmp_path, steps=10)
        rows = read_rows(tmp_path / "fig3_nth5.csv")
        dn = [r["delta_n"] for r in rows]
        assert all(b > a for a, b in zip(dn, dn[1:]))

    def test_plot_script_names_every_dataset(self, tmp_path):
        paths = reproduce_figure("fig3", n_emitters=20.0, out_dir=tmp_path, steps=6)
        script = tmp_path / "plot_fig3.py"
        assert script in paths
        source = script.read_text()
        compile(source, str(script), "exec")
        csvs = [p.name for p in paths if p.suffix == ".csv"]
        assert len(csvs) == 3
        for name in csvs:
            assert repr(name) in source, name

    def test_plot_script_runs(self, tmp_path):
        import subprocess
        import sys

        pytest.importorskip("matplotlib")
        reproduce_figure("fig3", n_emitters=20.0, out_dir=tmp_path, steps=6)
        proc = subprocess.run([sys.executable, str(tmp_path / "plot_fig3.py")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fig3.png").exists()
