"""Sensitivity bounds, the tau policy, budget composition, and noise scales.

The mechanism releases a value z with density proportional to
exp(-||grad E(z; D)||_z / sigma).  The noise scale sigma = factor * Delta / eps
uses the curvature-dependent gradient sensitivity Delta; factor 2 is the
conservative variant for the case where the normalizing constant varies with
the footpoint.

This module is the one home of the mechanism's inputs.  `check_tau` and
`check_factor` state the rules for a public tau and for the factor, which
`experiments.ExperimentConfig` applies too; `SensitivitySpec` and `PrivacyBudget`
check their fields on construction, so no caller repeats a check.  The bounds
are the Jacobi-field coefficients c_kappa and s_kappa of
`manifolds.curvature`, evaluated at min(kappa_l, 0) over 2 (tau_m + tau):
under positive curvature the Jacobi factors are at most 1, so both bounds
are the flat 2 tau / n.  `sensitivity_spec` is the one place that decides
which residual bound tau a release uses and builds its `SensitivitySpec`.  It
refuses an empirical tau at or below `_TAU_FLOOR`, the mark of a noiseless
fit, because the bound built on it is vacuous.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    ConfigError,
    NonpositiveBudget,
    PrivacyWarning,
    is_integer,
    is_number,
    is_positive_finite,
)
from .geometry import Manifold
from .manifolds.curvature import c_coeff, s_coeff
from .regression import FitReport

# A measured tau at or below this is a noiseless fit: arccos/log rounding
# leaves about 1e-8, while noisy data measures far more.
_TAU_FLOOR = 1e-6


def check_tau(tau):
    """A public residual bound: a positive, finite number; booleans refused."""
    if not is_positive_finite(tau):
        raise ConfigError(f"tau must be a positive, finite number, got {tau!r}")
    return tau


def check_factor(factor):
    """The noise-scale factor: the integer 1 or 2; booleans refused."""
    if not (is_integer(factor) and factor in (1, 2)):
        raise ConfigError(f"factor must be 1 or 2, got {factor!r}")
    return factor


def _check_eps(**budgets):
    """Each budget is a positive, finite number; booleans and strings refused."""
    for name, eps in budgets.items():
        if not is_positive_finite(eps):
            raise NonpositiveBudget(
                f"{name} must be a strictly positive, finite number, got {eps!r}")


@dataclass(frozen=True)
class SensitivitySpec:
    """Inputs to the gradient-sensitivity bounds.

    n: number of records; tau: bound on residual norms; tau_m: bound on the
    data radius about its mean (only used under negative curvature);
    kappa_l: lower sectional curvature bound of the manifold.
    """

    n: int
    tau: float
    kappa_l: float
    tau_m: float = 0.0

    def __post_init__(self):
        if not (is_integer(self.n) and self.n >= 1):
            raise ConfigError(f"n must be an integer of at least 1, got {self.n!r}")
        check_tau(self.tau)
        if not (is_number(self.tau_m) and math.isfinite(self.tau_m) and self.tau_m >= 0.0):
            raise ConfigError(f"tau_m must be a finite number of at least 0, got {self.tau_m!r}")


def _warn_empirical(what: str, name: str) -> None:
    warnings.warn(f"using the empirical {what} as {name}; the release is only "
                  f"differentially private if {name} is a public constant",
                  PrivacyWarning, stacklevel=3)


def sensitivity_spec(man: Manifold, n: int, report: FitReport,
                     tau: float | None = None) -> tuple[SensitivitySpec, str]:
    """Build the sensitivity spec of a release and name its tau policy.

    A given tau is a public bound and must pass `check_tau`.  Without one the
    fit's empirical residual bound is used, under a PrivacyWarning, and the
    policy is "empirical"; one at or below _TAU_FLOOR raises ConfigError.  The
    fit's data radius enters as tau_m only under negative curvature
    (kappa_l < 0), the one case whose bound uses it.  It is measured on the
    data, so it raises a PrivacyWarning too, and the policy names it: "public
    tau, empirical tau_m" or "empirical tau, empirical tau_m".
    """
    if tau is None:
        tau, tau_policy = report.tau_empirical, "empirical"
        if not tau > _TAU_FLOOR:
            raise ConfigError(
                f"the fit has zero residuals (empirical tau {tau:.3g}, at most the "
                f"floor {_TAU_FLOOR:g}), so its sensitivity bound is vacuous; pass a tau")
        _warn_empirical("residual bound", "tau")
    else:
        tau, tau_policy = check_tau(tau), "public"
    kappa_l = man.curvature_bounds[0]
    if kappa_l < 0.0:
        tau_policy += " tau, empirical tau_m"
        _warn_empirical("data radius", "tau_m")
    spec = SensitivitySpec(n=n, tau=float(tau), kappa_l=kappa_l,
                           tau_m=report.tau_m_empirical if kappa_l < 0.0 else 0.0)
    return spec, tau_policy


@dataclass(frozen=True)
class PrivacyBudget:
    eps_p: float
    eps_v: float

    def __post_init__(self):
        _check_eps(eps_p=self.eps_p, eps_v=self.eps_v)

    @property
    def total(self) -> float:
        return self.eps_p + self.eps_v


@dataclass(frozen=True)
class NoiseScales:
    sigma_p: float
    sigma_v: float
    factor: int


def sensitivity_p(spec: SensitivitySpec) -> float:
    """Worst-case change of the footpoint gradient under one record swap."""
    reach = 2.0 * (spec.tau_m + spec.tau)
    return 2.0 * spec.tau / spec.n * c_coeff(min(spec.kappa_l, 0.0), reach)


def sensitivity_v(spec: SensitivitySpec) -> float:
    """Worst-case change of the shooting-vector gradient under one record swap."""
    radius = spec.tau_m + spec.tau
    return (spec.tau / spec.n) * (s_coeff(min(spec.kappa_l, 0.0), 2.0 * radius) / radius)


def compose_budget(eps_p: float, eps_v: float) -> PrivacyBudget:
    """Sequential composition of the two release stages."""
    _check_eps(eps_p=eps_p, eps_v=eps_v)  # before float(), which takes True and "0.5"
    return PrivacyBudget(float(eps_p), float(eps_v))


def noise_scales(spec: SensitivitySpec, budget: PrivacyBudget, factor: int = 1) -> NoiseScales:
    """Per-stage noise scales sigma = factor * Delta / eps."""
    check_factor(factor)
    return NoiseScales(
        sigma_p=factor * sensitivity_p(spec) / budget.eps_p,
        sigma_v=factor * sensitivity_v(spec) / budget.eps_v,
        factor=factor,
    )
