"""Exception and warning types, and the type predicates of settings checks."""

import math
import numbers


class GeodpError(Exception):
    """Base class for all package errors."""


class DomainError(GeodpError):
    """Tangent vector norm exceeds the manifold's injectivity guard."""


class InvalidTangent(GeodpError):
    """Tangent vector is not based where the operation requires."""


class CutLocusError(GeodpError):
    """Target point lies at or beyond the cut locus of the base point."""


class ManifoldMismatch(GeodpError):
    """Operands live on different manifolds."""


class BaseMismatch(GeodpError):
    """Tangent vectors are based at different points."""


class DegenerateInput(GeodpError):
    """Raw coordinates cannot be projected onto the manifold."""


class DegenerateCovariates(GeodpError):
    """All covariates coincide, so rescaling to [0, 1] is impossible."""


class NonpositiveBudget(GeodpError):
    """Privacy budgets must be strictly positive and finite."""


class MalformedRow(GeodpError):
    """A landmark-file row does not parse to the expected layout."""


class DegenerateShape(GeodpError):
    """A landmark configuration collapses to a single point."""


class ConfigError(GeodpError, ValueError):
    """A run setting or experiment configuration is out of range or mistyped."""


class DataFormatError(GeodpError):
    """Dataset file does not parse or fails validation."""


class PrivacyWarning(UserWarning):
    """A data-dependent quantity weakens the formal privacy guarantee."""


class FitWarning(UserWarning):
    """A fitted model violates a soft modelling assumption."""


# JSON true/false decode to bool, a subclass of int, so the settings checks
# exclude it explicitly.
def is_integer(val) -> bool:
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def is_number(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def is_positive_finite(val) -> bool:
    return is_number(val) and math.isfinite(val) and val > 0.0
