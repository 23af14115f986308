"""Differentially private geodesic regression on Riemannian manifolds."""

from .errors import (
    ConfigError,
    CutLocusError,
    DataFormatError,
    DegenerateCovariates,
    DegenerateInput,
    DegenerateShape,
    FitWarning,
    GeodpError,
    MalformedRow,
    ManifoldMismatch,
    NonpositiveBudget,
    PrivacyWarning,
)
from .geometry import Manifold
from .manifolds import SPD, KendallPreshape, Sphere, c_coeff, manifold_from_spec, s_coeff

__version__ = "0.1.0"
