"""Expected K-level crossings of random polynomials with stationary
dependent standard-normal coefficients.

Exact Kac-Rice quadrature, asymptotic predictions, and an independent
Monte Carlo simulator for cross-validation.
"""

from .asymptotics import (
    fit_log_slope,
    interval_prediction,
    theorem_prediction,
)
from .moments import PolynomialEnsemble, intensity
from .montecarlo import (
    MCEstimate,
    SampleBatch,
    count_crossings_bisect_batch,
    count_level_crossings,
    estimate_crossings,
    estimate_crossings_per_interval,
    sample_coefficients,
)
from .quadrature import (
    CrossingEstimate,
    FULL_LINE,
    IntervalSpec,
    expected_crossings,
)
from .spectrum import CovarianceModel

__version__ = "0.1.0"
