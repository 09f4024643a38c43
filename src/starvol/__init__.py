"""Monte Carlo local-volume estimation for star-domain neighborhoods.

The package measures how much parameter space around an anchor point keeps
a cost function below a cutoff, under Lebesgue or Gaussian reference
measures, with importance-shaped direction sampling for high dimensions.
"""

from .geometry import (
    CostEvaluationError,
    EstimationError,
    MeasureSpec,
    NeighborhoodSpec,
    RadialSample,
    RadiusSearchError,
    SearchOptions,
    VolumeEstimate,
    estimate_local_volume,
    find_radius,
    gaussian_radial_log_integral,
    sample_directions,
)
from .logspace import log_sphere_area, log_sum_exp
from .precondition import DEFAULT_EPS, Preconditioner, PreconditionerError, from_diagonal, from_hessian

__version__ = "0.1.0"

__all__ = [
    "CostEvaluationError",
    "DEFAULT_EPS",
    "EstimationError",
    "MeasureSpec",
    "NeighborhoodSpec",
    "Preconditioner",
    "PreconditionerError",
    "RadialSample",
    "RadiusSearchError",
    "SearchOptions",
    "VolumeEstimate",
    "estimate_local_volume",
    "find_radius",
    "from_diagonal",
    "from_hessian",
    "gaussian_radial_log_integral",
    "log_sphere_area",
    "log_sum_exp",
    "sample_directions",
    "__version__",
]
