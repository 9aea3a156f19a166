"""Classical simulation of low-depth amplitude and phase estimation.

Depth-limited hardware caps the precision one estimation run can reach;
averaging many independent runs of a *weakly biased* estimator buys the
missing precision with extra queries instead of extra depth.  This package
simulates that trade end to end: synthetic black boxes that realise bias /
variance / failure contracts exactly, the aggregation protocols, circular
(phase) aggregation over arcs, an iterative interval-shrinking estimator
built from bounded polynomials, and a harness that measures success rates
and depth/query scaling.
"""

from .core import (
    Amplitude,
    ResourceLedger,
    SeedSpec,
    SimulationError,
    TargetSpec,
    derive_stream,
)
from .oracle import PolyOracle, poly_sample
from .blackbox import (
    Uqae1Contract,
    Uqae2Contract,
    Uqpe2Contract,
    apeldoorn_phase_params,
    cornelissen_amp_params,
    cornelissen_phase_params,
    monkey_sample,
    synth_uqae1_sample,
    synth_uqae2_sample,
    synth_uqpe2_sample,
)
from .aggregate import (
    Type1Plan,
    Type2Plan,
    aggregate_type1,
    aggregate_type2,
    bias_variance_floor,
    boost_repetitions,
    median_boost,
)
from .circphase import Angle, circ_diff, lowdepth_phase_estimate
from .rallfuller import (
    ConfidenceInterval,
    SemiPellianPoly,
    coin_test,
    erf_poly,
    kappa,
    phase_threshold,
    rall_fuller_estimate,
    rf_params,
    semi_pellian,
)
from .harness import ExperimentConfig, TrialReport, export_report, run_experiment, scaling_study

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "Angle",
    "ConfidenceInterval",
    "ExperimentConfig",
    "PolyOracle",
    "ResourceLedger",
    "SeedSpec",
    "SemiPellianPoly",
    "SimulationError",
    "TargetSpec",
    "TrialReport",
    "Type1Plan",
    "Type2Plan",
    "Uqae1Contract",
    "Uqae2Contract",
    "Uqpe2Contract",
    "aggregate_type1",
    "aggregate_type2",
    "apeldoorn_phase_params",
    "bias_variance_floor",
    "boost_repetitions",
    "circ_diff",
    "coin_test",
    "cornelissen_amp_params",
    "cornelissen_phase_params",
    "derive_stream",
    "erf_poly",
    "export_report",
    "kappa",
    "lowdepth_phase_estimate",
    "median_boost",
    "monkey_sample",
    "phase_threshold",
    "poly_sample",
    "rall_fuller_estimate",
    "rf_params",
    "run_experiment",
    "scaling_study",
    "semi_pellian",
    "synth_uqae1_sample",
    "synth_uqae2_sample",
    "synth_uqpe2_sample",
]
