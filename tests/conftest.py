import os
from pathlib import Path

import pytest
from hypothesis import settings

from srled import ModelParams, derive_populations

settings.register_profile("srled", derandomize=True, deadline=None)
settings.load_profile("srled")

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a
    fresh interpreter that imports srled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env

# Reference configuration used throughout: kappa = 0.5, gamma_par = 0.1,
# P = 0.1, N_th = 5, N_0 = 20 (rates in units of gamma_perp).
# Frozen oracle values are exact rationals from the closed-form populations
# and the quartic loop integrals, verified against arbitrary-precision
# quadrature of the defining spectra.
EX1_ORACLE = {
    "n_excited": 20.0 / 11.0,
    "n_ground": 200.0 / 11.0,
    "inversion": -180.0 / 11.0,
    "delta2_ne": 200.0 / 121.0,
    "gamma_p": 11.0 / 100.0,
    "diffusion": 4.0 / 11.0,
    "s0": 47.0 / 44.0,
    "c0": 44.0 / 47.0,
    "n0": 2.0 / 47.0,
    "delta_n": 138.0 / 517.0,
    "n": 1310.0 / 24299.0,
    "g2": 934226.0 / 429025.0,
    "i_cs": 1518.0 / 2209.0,          # (2pi)^-1 Int c/|s|^2
    "kernel00": 3200.0 / 2209.0,      # delta2_ne / s(0)^2
    # exact-convolution n, n0 plus the closed-form fluctuation term; nested
    # QUADPACK and an mpmath pole-shift evaluation agree to 16 digits
    "n_exact": 503783834 / 9479012499,
    # full-Lorentzian g2 from the cumulant as one rational function; a
    # 60-digit root sum confirms it, nested quadrature to its 9 digits
    "g2_full": 376475140162010380480828573265962194983
               / 175332116126374716062166504705043107029,
}

# Exact-convolution n along the gamma_par scan, other parameters as EX1:
# independent nested QUADPACK (perfbench/reference.py, error estimates
# about 2e-14); the adaptive per-node path agreed with each to 4e-12
# relative. At gamma_par = 1e-4, where the nested rule is off by about
# 4e-8, the value is a 30-digit mpmath evaluation in test_photon.py.
N_EXACT_SCAN = {
    1e-4: 0.05391084534119170959,
    1e-3: 0.053903308370418644,
    1e-2: 0.05382866602501524,
    1e-1: EX1_ORACLE["n_exact"],
    1.0: 0.04935932704269321,
}


@pytest.fixture(scope="session")
def ex1():
    return ModelParams(kappa=0.5, gamma_par=0.1, pump=0.1,
                       n_threshold=5.0, n_emitters=20.0)


@pytest.fixture(scope="session")
def ex1_pops(ex1):
    return derive_populations(ex1)
