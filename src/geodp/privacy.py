"""Sensitivity bounds, the tau policy, budget composition, and noise scales.

The mechanism releases a value z with density proportional to
exp(-||grad E(z; D)||_z / sigma).  The noise scale sigma = factor * Delta / eps
uses the curvature-dependent gradient sensitivity Delta; factor 2 is the
conservative variant for the case where the normalizing constant varies with
the footpoint.  `sensitivity_spec` is the one place that decides which
residual bound tau a release uses and builds its `SensitivitySpec`.  It
refuses an empirical tau at or below `_TAU_FLOOR`, the mark of a noiseless
fit, because the bound built on it is vacuous.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonpositiveBudget, PrivacyWarning
from .geometry import Manifold
from .regression import FitReport

_FLAT_TOL = 1e-12
# A measured tau at or below this is a noiseless fit: arccos/log rounding
# leaves about 1e-8, while noisy data measures far more.
_TAU_FLOOR = 1e-6


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
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.tau < 0.0 or self.tau_m < 0.0:
            raise ValueError("tau and tau_m must be nonnegative")
        if not np.isfinite(self.tau) or not np.isfinite(self.tau_m):
            raise ValueError("tau and tau_m must be finite")


def sensitivity_spec(man: Manifold, n: int, report: FitReport,
                     tau: float | None = None) -> tuple[SensitivitySpec, str]:
    """Build the sensitivity spec of a release and name its tau policy.

    A given tau is a public bound and must be positive and finite.  Without
    one the fit's empirical residual bound is used, under a PrivacyWarning,
    and the policy is "empirical"; one at or below _TAU_FLOOR raises
    ConfigError.  The fit's data radius enters as tau_m only under negative
    curvature (kappa_l < 0), the one case whose bound uses it.
    """
    if tau is None:
        tau, tau_policy = report.tau_empirical, "empirical"
        if not tau > _TAU_FLOOR:
            raise ConfigError(
                f"the fit has zero residuals (empirical tau {tau:.3g}, at most the "
                f"floor {_TAU_FLOOR:g}), so its sensitivity bound is vacuous; pass a tau")
        warnings.warn(
            "using the empirical residual bound as tau; the release is only "
            "differentially private if tau is a public constant",
            PrivacyWarning,
            stacklevel=2,
        )
    elif not (np.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"tau must be positive and finite, got {tau!r}")
    else:
        tau_policy = "public"
    kappa_l = man.curvature_bounds[0]
    spec = SensitivitySpec(n=n, tau=float(tau), kappa_l=kappa_l,
                           tau_m=report.tau_m_empirical if kappa_l < 0.0 else 0.0)
    return spec, tau_policy


@dataclass(frozen=True)
class PrivacyBudget:
    eps_p: float
    eps_v: float

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
    base = 2.0 * spec.tau / spec.n
    if spec.kappa_l >= -_FLAT_TOL:
        return base
    a = np.sqrt(-spec.kappa_l)
    return base * float(np.cosh(2.0 * a * (spec.tau_m + spec.tau)))


def sensitivity_v(spec: SensitivitySpec) -> float:
    """Worst-case change of the shooting-vector gradient under one record swap."""
    if spec.kappa_l >= -_FLAT_TOL:
        return 2.0 * spec.tau / spec.n
    a = np.sqrt(-spec.kappa_l)
    s = spec.tau_m + spec.tau
    x = a * s
    if x < 1e-8:
        ratio = 2.0 + (4.0 / 3.0) * x * x
    else:
        ratio = float(np.sinh(2.0 * x)) / x
    return (spec.tau / spec.n) * ratio


def compose_budget(eps_p: float, eps_v: float) -> PrivacyBudget:
    """Sequential composition of the two release stages."""
    for name, eps in (("eps_p", eps_p), ("eps_v", eps_v)):
        if not np.isfinite(eps) or eps <= 0.0:
            raise NonpositiveBudget(f"{name} must be strictly positive, got {eps!r}")
    return PrivacyBudget(float(eps_p), float(eps_v))


def noise_scales(spec: SensitivitySpec, budget: PrivacyBudget, factor: int = 1) -> NoiseScales:
    """Per-stage noise scales sigma = factor * Delta / eps."""
    if factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    if budget.eps_p <= 0.0 or budget.eps_v <= 0.0:
        raise NonpositiveBudget("budget stages must be strictly positive")
    return NoiseScales(
        sigma_p=factor * sensitivity_p(spec) / budget.eps_p,
        sigma_v=factor * sensitivity_v(spec) / budget.eps_v,
        factor=factor,
    )
