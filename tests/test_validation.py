"""The acceptance suite's inputs are pinned in srled.validation."""

import inspect
import math

import pytest

from srled.cli import main
from srled.validation import ALL_CRITERIA, _worst_gap, run_validation


def test_criteria_take_no_parameters(capsys):
    # seeds, set counts and record counts are module constants, so no caller
    # can shrink a criterion or re-roll it on another seed
    for crit in ALL_CRITERIA:
        assert not inspect.signature(crit).parameters, crit.__name__
    assert list(inspect.signature(run_validation).parameters) == ["skip_montecarlo"]
    for flag in ("--seed", "--records"):
        with pytest.raises(SystemExit):
            main(["validate", flag, "1"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_worst_gap_keeps_nan():
    # a NaN gap on any set must fail the tolerance check, not be skipped by max
    gaps = iter([1e-9, math.nan, 1e-9])
    assert math.isnan(_worst_gap(101, 3, lambda params, pops: next(gaps)))
