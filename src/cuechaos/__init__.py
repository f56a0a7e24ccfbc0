"""cuechaos: a numerical laboratory for circular-ensemble characteristic
polynomials, Gaussian multiplicative chaos on the unit circle, and Toeplitz
determinants with Fisher-Hartwig singularities.

The package has three layers:

* exact machinery -- special functions (`log_barnes_g`, `fh_constant`),
  finite-size moment formulas (`exact_mean_f`), Toeplitz determinants
  (`toeplitz_logdet`) and their closed-form asymptotics (`fh_prediction`);
* sampling machinery -- circular-ensemble draws (`sample_cue`), as
  eigenangles or as Verblunsky coefficients evaluated by the Szego recursion,
  powers-of-traces statistics, chaos measures built from Gaussian Fourier
  fields (`chaos_measure`), all driven by counter-based reproducible
  streams and one serial Monte Carlo engine (`RngStream`, `mc_map_blocks`
  for draws in blocks, `mc_map` for one draw at a time);
* verification harness -- the experiment registry (`run_experiment`)
  that pits estimates against oracles and emits deterministic reports.
"""

__version__ = "0.1.0"

from .asymptotics import (
    DomainError,
    FHPrediction,
    fh_prediction,
    variance_integral,
    variance_kernel,
)
from .cue import (
    EigenSample,
    ExponentPair,
    SingularityError,
    TraceVector,
    VerblunskySample,
    charpoly_log,
    exact_mean_f,
    f_block,
    f_truncated,
    f_value,
    integrate_f,
    sample_cue,
    sample_verblunsky_block,
    total_mass_block,
    trace_powers,
)
from .gmc import (
    GaussianDraw,
    GridMeasure,
    chaos_measure,
    field_coeffs_from_traces,
    field_partial_sum,
    field_variance,
    gaussian_draw,
    integrate_measure,
    sobolev_norm,
)
from .grids import TWO_PI, grid_series, grid_step, trig_series, uniform_grid
from .montecarlo import (
    MCEstimate,
    MCFailureError,
    MCRunStats,
    RetryableSampleError,
    RngStream,
    as_generator,
    ks_distance,
    mc_map,
    mc_map_blocks,
    run_mc_detailed,
)
from .special import PoleError, fh_constant, log_barnes_g, log_gamma
from .toeplitz import (
    FourierCoeffs,
    Singularity,
    SymbolSpec,
    ToeplitzResult,
    fourier_coeffs,
    heine_szego_check,
    make_sigma,
    symbol_eval,
    toeplitz_logdet,
)

from .experiments import (  # noqa: E402  (needs __version__ above)
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    build_identifier,
    run_experiment,
    write_report,
)

__all__ = [
    "__version__",
    # special
    "PoleError",
    "log_gamma",
    "log_barnes_g",
    "fh_constant",
    # grids
    "TWO_PI",
    "uniform_grid",
    "grid_step",
    "trig_series",
    "grid_series",
    # montecarlo
    "RngStream",
    "MCEstimate",
    "MCRunStats",
    "RetryableSampleError",
    "MCFailureError",
    "as_generator",
    "mc_map",
    "mc_map_blocks",
    "run_mc_detailed",
    "ks_distance",
    # cue
    "EigenSample",
    "VerblunskySample",
    "ExponentPair",
    "TraceVector",
    "SingularityError",
    "sample_cue",
    "sample_verblunsky_block",
    "charpoly_log",
    "trace_powers",
    "f_value",
    "f_block",
    "f_truncated",
    "exact_mean_f",
    "integrate_f",
    "total_mass_block",
    # gmc
    "GaussianDraw",
    "GridMeasure",
    "gaussian_draw",
    "field_variance",
    "field_partial_sum",
    "chaos_measure",
    "integrate_measure",
    "field_coeffs_from_traces",
    "sobolev_norm",
    # toeplitz
    "Singularity",
    "SymbolSpec",
    "ToeplitzResult",
    "FourierCoeffs",
    "symbol_eval",
    "make_sigma",
    "fourier_coeffs",
    "toeplitz_logdet",
    "heine_szego_check",
    # asymptotics
    "DomainError",
    "FHPrediction",
    "fh_prediction",
    "variance_kernel",
    "variance_integral",
    # experiments
    "ExperimentConfig",
    "ConfigError",
    "EXPERIMENTS",
    "run_experiment",
    "write_report",
    "build_identifier",
]
