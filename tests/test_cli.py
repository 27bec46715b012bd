"""CLI subcommands exercised through main()."""

import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest

from srled import InvalidParamsError, ModelParams
from srled.cli import _resolve_params, build_parser, main
from srled.model import MAX_GRID_POINTS
from srled.sweep import read_rows
from srled.validation import EX1

from conftest import EX1_ORACLE


def test_mean_photon_defaults_are_reference_point(capsys):
    assert main(["mean-photon", "--method", "closed"]) == 0
    out = capsys.readouterr().out
    assert f"{EX1_ORACLE['n']:.8g}"[:8] in out
    assert "closed-form" in out


def test_defaults_are_ex1():
    assert _resolve_params(build_parser().parse_args(["g2"])) == EX1


def test_mean_photon_quadrature_paths(capsys):
    assert main(["mean-photon"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("[closed-form]")
    assert lines[1].endswith("[quadrature-delta-approx]")
    assert main(["mean-photon", "--mode", "exact"]) == 0
    assert "n = 0.053147291  [quadrature-exact-convolution]" in capsys.readouterr().out


def test_g2_both_paths(capsys):
    assert main(["g2", "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert out.count("g2 = 2.1775561") == 2
    assert "cumulant-delta" in out


def test_slow_pole_ratio_below_validity_ratio(capsys):
    # 0.99 N_th of the near-threshold family: validity 0.14, but the slow
    # pole x- is 160 times narrower than the population Lorentzian
    for command in ("g2", "mean-photon"):
        assert main([command, "--method", "closed", "--kappa-ratio", "1", "--pump", "3",
                     "--n-th", "5", "--n-emitters", "9.9", "--gamma-par", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["validity_ratio = 0.141421", "slow_pole_ratio = 159.599"]


def test_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--grid-points", "257", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "omega,commutator,population,photon"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert rows.shape == (257, 4)
    assert np.all(rows[:, 1:] >= 0.0)
    # even spectra on the symmetric grid
    np.testing.assert_allclose(rows[:, 3], rows[::-1, 3], rtol=1e-12)


def test_spectrum_without_out_writes_stdout(capsys):
    assert main(["spectrum", "--grid-points", "5"]) == 0
    assert not sys.stdout.closed
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "omega,commutator,population,photon"
    assert len(lines) == 7 and lines[4].startswith("0.0,")


def test_spectrum_grid_flags_apply_alone(tmp_path):
    # each grid flag takes effect without the other, which keeps its default
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--grid-omega-max", "3", "--out", str(out)]) == 0
    omega = [float(line.split(",")[0]) for line in out.read_text().splitlines()[2:]]
    assert len(omega) == 8193
    assert omega[0] == -3.0 and omega[-1] == 3.0


def test_spectrum_refuses_grid_over_budget(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--grid-points", str(MAX_GRID_POINTS + 2), "--out", str(out)]
    assert main(argv) == 2
    assert "budget" in capsys.readouterr().err
    assert not out.exists()
    # an input above threshold writes no file either
    assert main(["spectrum", "--pump", "5.0", "--n-emitters", "100", "--out", str(out)]) == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_streams_rows(tmp_path):
    # rows go out one by one: the traced peak stays below twice the file
    out = tmp_path / "spec.csv"
    tracemalloc.start()
    try:
        assert main(["spectrum", "--grid-points", "65537", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.stat().st_size


def test_sweep_and_config_precedence(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("pump = 0.4\nn-emitters = 10\nn-th = 10\nkappa-ratio = 2\n")
    out = tmp_path / "rows.csv"
    # the flag overrides the config pump; config fills the rest
    argv = ["sweep", "--var", "pump", "--start", "0.05", "--stop", "0.5",
            "--steps", "4", "--config", str(cfg), "--pump", "0.1", "--out", str(out)]
    assert _resolve_params(build_parser().parse_args(argv)) == ModelParams(
        kappa=1.0, gamma_par=0.1, pump=0.1, n_threshold=10.0, n_emitters=10.0)
    assert main(argv) == 0
    rows = read_rows(out)
    assert len(rows) == 4
    g2 = [r["g2_closed"] for r in rows]
    assert all(b < a for a, b in zip(g2, g2[1:]))


def test_config_file_syntax(tmp_path, capsys):
    # comments, an inline '#', blank lines and spaces around '='
    cfg = tmp_path / "model.cfg"
    cfg.write_text("# comment\nkappa-ratio = 2.0\npump=0.3\n\nn-th = 10 # inline\n")
    argv = ["g2", "--method", "closed", "--config", str(cfg)]
    assert _resolve_params(build_parser().parse_args(argv)) == dataclasses.replace(
        EX1, kappa=1.0, pump=0.3, n_threshold=10.0)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_config_line_without_equals(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("pump 0.3\n")
    assert main(["g2", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "bad config line" in err


def test_sweep_missing_out_directory_fails_first(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("srled.cli.run_sweep", lambda spec: calls.append(spec) or [])
    # a missing directory, or a directory where the file should go
    for out in (tmp_path / "missing" / "rows.csv", tmp_path):
        assert main(["sweep", "--var", "pump", "--start", "0.05", "--stop", "0.5",
                     "--steps", "3", "--out", str(out)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_records_format(tmp_path):
    out = tmp_path / "rows.jsonl"
    assert main(["sweep", "--var", "kappa-ratio", "--start", "0.5", "--stop", "2.0",
                 "--steps", "3", "--scale", "log", "--format", "records",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3 and rows[0]["swept_var"] == "kappa_ratio"


def test_mc_command(capsys):
    assert main(["mc", "--records", "60", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "g2 =" in out and "+-" in out
    assert "wall = " in out and "samples/s = " in out
    assert re.search(r"samples/s = \S+  threads = [1-9]\d*\n", out)


def test_mc_refuses_too_few_records_before_running(monkeypatch, capsys):
    # the config refuses the ensemble when built; no ensemble is started
    runs = []
    monkeypatch.setattr("srled.cli.run_monte_carlo", lambda *args: runs.append(args))
    assert main(["mc", "--records", "29"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "29" in err
    assert runs == []


def test_reproduce_figure(tmp_path, capsys):
    assert main(["reproduce-fig5", "--n-emitters", "10",
                 "--out-dir", str(tmp_path), "--steps", "5"]) == 0
    assert (tmp_path / "plot_fig5.py").exists()
    assert len(list(tmp_path.glob("fig5_*.csv"))) == 6


def test_reproduce_figure_bad_input_leaves_no_directory(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["reproduce-fig3", "--n-emitters", "0.5", "--out-dir", str(out_dir)]) == 2
    assert "n_emitters must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_skip_montecarlo(capsys):
    # the analytic criteria run and pass without the stochastic one
    assert main(["validate", "--skip-montecarlo"]) == 0
    out = capsys.readouterr().out
    assert "7/7 criteria passed" in out
    assert "Monte Carlo" not in out


def test_zero_pump_is_refused(capsys):
    # at P = 0 no emitter is excited and g2 = <n^2>/<n>^2 is 0/0
    assert main(["g2", "--pump", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error:") and err.count("\n") == 1 and "pump" in err


def test_above_threshold_is_clean_error(capsys):
    assert main(["mean-photon", "--pump", "5.0", "--n-emitters", "100"]) == 2
    assert "error:" in capsys.readouterr().err


def test_nonpositive_quadrature_n_is_clean_error(capsys):
    # at N_0 = 1e12 the adaptive n0 misses its resonance and comes out negative
    assert main(["mean-photon", "--n-emitters", "1e12"]) == 2
    assert ": not positive" in capsys.readouterr().err


def test_unresolved_cumulant_is_clean_error(capsys):
    # at N_0 = 1e6 the cumulant's node-halving error is nearly all of it,
    # and the g2 it gives, 2.0002658 +- 0.00027, misses the closed 2.0946765
    assert main(["g2", "--n-emitters", "1e6"]) == 2
    captured = capsys.readouterr()
    assert "cumulant-delta" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: delta cumulant")


def test_invalid_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["g2", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key 'bogus'")
    with pytest.raises(InvalidParamsError):
        _resolve_params(build_parser().parse_args(["g2", "--config", str(cfg)]))
    cfg.write_text("pump = abc\n")
    assert main(["g2", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
    # one parameter set twice, by one key or by two spellings of it
    for text, key in (("pump = 0.2\npump = 0.4\n", "'pump'"), ("n-th = 7\nn_th = 9\n", "'n_th'")):
        cfg.write_text(text)
        assert main(["g2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
    # a missing file is one error line, not a traceback
    assert main(["g2", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error:")
