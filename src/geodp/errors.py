"""Exception and warning types, and the type predicates of settings checks.

Every error carries the CLI exit code it maps to: 1 for a usage or
configuration error, 2 for a data error, 3 (the default) for a numerical
failure.
"""

import math
import numbers


class GeodpError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class CutLocusError(GeodpError):
    """Target point lies at or beyond the cut locus of the base point."""


class ManifoldMismatch(GeodpError):
    """Operands live on different manifolds."""

    exit_code = 2


class DegenerateInput(GeodpError):
    """Raw coordinates cannot be projected onto the manifold."""

    exit_code = 2


class DegenerateCovariates(GeodpError):
    """All covariates coincide, so rescaling to [0, 1] is impossible."""

    exit_code = 2


class NonpositiveBudget(GeodpError):
    """Privacy budgets must be strictly positive and finite."""

    exit_code = 1


class MalformedRow(GeodpError):
    """A landmark-file row does not parse to the expected layout."""

    exit_code = 2


class DegenerateShape(GeodpError):
    """A landmark configuration collapses to a single point."""

    exit_code = 2


class ConfigError(GeodpError, ValueError):
    """A run setting or experiment configuration is out of range or mistyped."""

    exit_code = 1


class DataFormatError(GeodpError):
    """Dataset file does not parse or fails validation."""

    exit_code = 2


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
