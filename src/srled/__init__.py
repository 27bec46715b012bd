"""Below-threshold photon statistics of a small superradiant two-level LED.

Closed forms for the mean photon number and the zero-delay second-order
autocorrelation g2, cross-validated by adaptive quadrature, brute-force
cumulant integration, and Monte Carlo synthesis of the underlying
Langevin noise.
"""

from .errors import (
    AboveThresholdError,
    InvalidParamsError,
    ModelError,
    NonConvergenceError,
    RecordTooLongError,
)
from .g2 import (
    G2Result,
    g2_bruteforce,
    g2_closed,
    g2_from_delta_n,
    noise_cumulant,
)
from .model import (
    FrequencyGrid,
    ModelParams,
    Populations,
    commutator_spectrum,
    derive_populations,
    loop_denominator,
    population_spectrum,
    validity_ratio,
)
from .montecarlo import (
    MomentEstimate,
    MonteCarloConfig,
    estimate_moments,
    ou_population_path,
    run_monte_carlo,
    simulate_field_record,
    synthesize_colored_noise,
)
from .photon import (
    MeanPhotonResult,
    mean_photon_closed,
    mean_photon_quadrature,
    photon_number_spectrum,
)
from .quadrature import integrate_1d
from .sweep import SweepRow, SweepSpec, reproduce_figure, run_sweep
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "AboveThresholdError",
    "FrequencyGrid",
    "G2Result",
    "InvalidParamsError",
    "MeanPhotonResult",
    "ModelError",
    "ModelParams",
    "MomentEstimate",
    "MonteCarloConfig",
    "NonConvergenceError",
    "Populations",
    "RecordTooLongError",
    "SweepRow",
    "SweepSpec",
    "commutator_spectrum",
    "derive_populations",
    "estimate_moments",
    "g2_bruteforce",
    "g2_closed",
    "g2_from_delta_n",
    "integrate_1d",
    "loop_denominator",
    "mean_photon_closed",
    "mean_photon_quadrature",
    "noise_cumulant",
    "ou_population_path",
    "photon_number_spectrum",
    "population_spectrum",
    "reproduce_figure",
    "run_monte_carlo",
    "run_sweep",
    "run_validation",
    "simulate_field_record",
    "synthesize_colored_noise",
    "validity_ratio",
]
