"""Expected K-level crossings of random polynomials with stationary
dependent standard-normal coefficients.

Exact Kac-Rice quadrature, asymptotic predictions, and an independent
Monte Carlo simulator for cross-validation.
"""

from .asymptotics import (
    AsymptoticPrediction,
    EdgeZoom,
    edge_moment_approx,
    fit_log_slope,
    interval_prediction,
    theorem_prediction,
)
from .moments import (
    MomentTriple,
    PolynomialEnsemble,
    intensity,
    moments_direct,
    moments_outer_scaled,
    moments_spectral,
    unscale_moments,
)
from .montecarlo import (
    MCEstimate,
    SampleBatch,
    count_crossings_bisect_batch,
    count_level_crossings,
    empirical_covariance,
    estimate_crossings,
    sample_coefficients,
)
from .quadrature import (
    Breakpoints,
    CrossingEstimate,
    CrossingRow,
    FULL_LINE,
    IntervalSpec,
    breakpoints,
    crossing_table,
    expected_crossings,
)
from .spectrum import (
    CovarianceModel,
    CovarianceSequence,
    SpectralDensity,
    covariance_from_density,
    density_from_covariance,
    geometric_density,
    independent_density,
    positivity_bounds,
    raised_cosine_density,
)

__version__ = "0.1.0"
