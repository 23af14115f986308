"""Geodesic regression: model, least-squares energy, Riemannian gradients,
and the L-BFGS fitter.

The model predicts Exp(p, x_i * v) for scalar covariates x_i in [0, 1].  The
energy is the mean squared geodesic residual with a 1/2 factor,

    E(p, v) = 1/(2n) * sum_i d(Exp(p, x_i v), y_i)^2,

so the reported mean squared error is exactly twice the energy.  Each
manifold has one gradient route, the exact fused kernel every manifold
writes (``Manifold._grad_energy_rows``).

The fitter takes joint quasi-Newton steps in (p, v) (Riemannian L-BFGS) and
evaluates each line-search trial point with one fused pass of that kernel,
which returns the energy, both gradients and the validity mask together; the
gradients of an accepted trial carry into the next step, so the line search
evaluates no gradient twice and no energy from predictions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    CutLocusError,
    DegenerateCovariates,
    FitWarning,
    ManifoldMismatch,
    is_integer,
    is_positive_finite,
)
from .geometry import MEMBERSHIP_TOL, Manifold, ManifoldPoint, TangentVec

_STALL_STEP = 1e-14
# Line search of the fit: Armijo sufficient-decrease constant, shrink factor,
# first step.  Once the decrease Armijo asks for is below _ROUNDING * E, the
# approximate Wolfe test with curvature constant _WOLFE_SIGMA decides.
_ARMIJO_C = 1e-4
_WOLFE_SIGMA = 0.9
_ROUNDING = 4.0 * np.finfo(float).eps
_SHRINK = 0.5
_INIT_STEP = 1.0
# L-BFGS memory: (s, y) pairs kept, and the floor on <s, y> / (|s| |y|) below
# which a new pair is dropped.
_MEMORY = 5
_CURVATURE_FLOOR = 1e-12
# Karcher-mean iteration of frechet_mean: stop once the mean step is this
# short, or after this many steps.
_MEAN_TOL = 1e-10
_MEAN_MAX_ITER = 1000


def scale_covariates(x) -> np.ndarray:
    """Affinely rescale covariates so min maps to 0 and max maps to 1."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("covariates must be a 1-D array")
    if not np.all(np.isfinite(x)):
        raise DegenerateCovariates("covariates must be finite")
    lo = float(x.min())
    span = float(x.max()) - lo
    if span == 0.0:
        raise DegenerateCovariates("all covariates are equal; cannot rescale")
    return (x - lo) / span


@dataclass(eq=False)
class Dataset:
    """Covariate/response pairs on one manifold; x must already be rescaled
    to span [0, 1]."""

    x: np.ndarray
    y: np.ndarray
    manifold: Manifold

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1:
            raise ValueError("x must be 1-D")
        if self.y.shape != (self.x.size, self.manifold.ambient_dim):
            raise ValueError(
                f"y must have shape ({self.x.size}, {self.manifold.ambient_dim}), "
                f"got {self.y.shape}"
            )
        if self.x.size < 2:
            raise ValueError("a dataset needs at least two records")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise ValueError("dataset contains non-finite values")
        if abs(float(self.x.min())) > 1e-9 or abs(float(self.x.max()) - 1.0) > 1e-9:
            raise ValueError("covariates must be rescaled to span [0, 1]")
        defect = self.manifold._point_defect(self.y)
        if float(np.max(defect)) > MEMBERSHIP_TOL:
            raise ValueError("a response violates manifold membership")

    @property
    def n(self) -> int:
        return int(self.x.size)


@dataclass(eq=False)
class GeodesicModel:
    """Footpoint and shooting vector of a fitted geodesic."""

    p: ManifoldPoint
    v: TangentVec

    def __post_init__(self):
        if not (self.v.base == self.p):
            raise ValueError("shooting vector must be based at the footpoint")

    @classmethod
    def project(cls, man: Manifold, p, v) -> "GeodesicModel":
        """The model at raw coordinates: p projected onto the manifold and v
        onto the tangent space at the projected point."""
        point = man.point(man._project(p))
        return cls(point, TangentVec(point, man._project_tangent(point.coords, v)))

    @property
    def manifold(self) -> Manifold:
        return self.p.manifold

    def predict(self, x) -> np.ndarray:
        """Predicted coordinates at the 1-D covariates x, one row each."""
        return _predictions(self.manifold, self.p.coords[None], self.v.components[None],
                            np.asarray(x, dtype=float))[0]


@dataclass
class FitConfig:
    """Stopping rule of the fit; the CLI's `fit` flags read these defaults."""

    tol: float = 1e-6
    max_iter: int = 2000

    def __post_init__(self):
        # An infinite tol reports the start guess as converged, a NaN one
        # never converges, and a negative cap takes no step.
        if not is_positive_finite(self.tol):
            raise ConfigError("tol must be a positive finite number")
        if not (is_integer(self.max_iter) and self.max_iter >= 0):
            raise ConfigError("max_iter must be an integer of at least 0")


@dataclass
class FitReport:
    model: GeodesicModel
    energy: float
    iterations: int
    converged: bool
    stop: str  # "converged", "stalled" or "max_iter"; see fit
    tau_empirical: float
    tau_m_empirical: float
    gradient_norms: tuple[float, float]
    ball_ok: bool = True
    energy_trace: list[float] = field(default_factory=list)


# --- batched evaluation kernels ----------------------------------------------
# p, v have shape (B, ambient); x is (n,), Y is (n, ambient).  These are the
# hot paths shared with the samplers, so they stay on raw arrays.


def _predictions(man: Manifold, p: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    t = x[None, :, None] * v[:, None, :]
    base = np.broadcast_to(p[:, None, :], t.shape)
    return man._exp(base, t)


def _energy_rows(man: Manifold, p, v, x, Y) -> np.ndarray:
    d = man._residual_dists(p, v, x, Y)
    return 0.5 * np.mean(d * d, axis=-1)


def _grad_rows(man: Manifold, p, v, x, Y, wrt: str) -> tuple[np.ndarray, ...]:
    """Riemannian gradient rows and a per-row validity mask.

    wrt is "p" or "v" for one gradient, giving (rows, mask), or "pv" for
    both from one pass, giving (footpoint rows, shooting rows, mask, energy
    rows), from the manifold's fused kernel.
    """
    return man._grad_energy_rows(p, v, x, Y, wrt)


# --- public single-model API ---------------------------------------------------


def _check_pair(model: GeodesicModel, data: Dataset) -> None:
    if model.manifold != data.manifold:
        raise ManifoldMismatch("model and dataset live on different manifolds")


def energy(model: GeodesicModel, data: Dataset) -> float:
    """Least-squares geodesic energy of the model on the data."""
    _check_pair(model, data)
    return float(_energy_rows(data.manifold, model.p.coords[None],
                              model.v.components[None], data.x, data.y)[0])


def mse(model: GeodesicModel, data: Dataset) -> float:
    """Mean squared geodesic prediction error; exactly twice the energy."""
    return 2.0 * energy(model, data)


# --- auxiliary statistics -------------------------------------------------------


def frechet_mean(man: Manifold, Y: np.ndarray) -> np.ndarray:
    """Karcher-mean fixed point iteration over response coordinates."""
    m = Y[0].copy()
    for _ in range(_MEAN_MAX_ITER):
        logs = man._log(np.broadcast_to(m, Y.shape), Y)
        step = logs.mean(axis=0)
        m = man._exp(m, step)
        if float(np.linalg.norm(step)) <= _MEAN_TOL:
            break
    return m


def _ball_radius_limit(man: Manifold) -> float:
    kappa_h = man.curvature_bounds[1]
    if kappa_h > 0.0:
        return np.pi / (8.0 * np.sqrt(kappa_h))
    return np.inf


def _pair_inner(man: Manifold, p, a, b):
    """Inner product of (p, v) tangent pairs at p: the metric summed over both
    parts.  a and b have shape (..., 2, ambient)."""
    return man._inner(p, a, b).sum(axis=-1)


def _lbfgs_direction(man: Manifold, p, g, S, Yk, h0):
    """Two-loop recursion: minus the L-BFGS inverse Hessian applied to g, from
    the (s, y) pairs in S and Yk (oldest first, all at p).  The initial
    inverse Hessian is h0, a 2x2 matrix acting on the (p, v) parts, scaled by
    <s, y>/<y, h0 y> of the newest pair."""
    if not len(S):
        return -(h0 @ g)
    rho = 1.0 / _pair_inner(man, p, S, Yk)
    q = g.copy()
    a = np.empty(len(S))
    for i in reversed(range(len(S))):
        a[i] = rho[i] * _pair_inner(man, p, S[i], q)
        q -= a[i] * Yk[i]
    r = (h0 @ q) / (rho[-1] * _pair_inner(man, p, Yk[-1], h0 @ Yk[-1]))
    for i in range(len(S)):
        r += (a[i] - rho[i] * _pair_inner(man, p, Yk[i], r)) * S[i]
    return -r


def fit(data: Dataset, config: FitConfig | None = None) -> FitReport:
    """Fit a geodesic by Riemannian L-BFGS on the pair (p, v).

    One iteration is one joint step along the L-BFGS direction (Huang,
    Gallivan & Absil, SIAM J. Optim. 2015), whose initial inverse Hessian is
    the flat-space one, so the first step solves the least-squares problem
    exactly where the curvature vanishes.  The trial footpoint is
    Exp(p, a d_p) and the trial shooting vector is v + a d_v transported to
    it.  Every trial point costs one fused pass that returns its energy, both
    gradients and the validity mask.  A trial is accepted by the Armijo test
    on the energy; once the decrease that test asks for falls below the
    energy's rounding, by the approximate Wolfe test on the trial's own
    gradients (Hager & Zhang, SIAM J. Optim. 2005).  A trial off the validity
    mask is shrunk like a failed one.  The memory and the last gradient are
    transported to each accepted point.

    report.stop says why the fit ended: "converged" when both gradient norms
    are at most config.tol, "stalled" when no step down to _STALL_STEP passes
    either test, "max_iter" after config.max_iter steps.  Only the first sets
    converged; the other two do not raise.
    """
    cfg = config or FitConfig()
    man = data.manifold
    x, Y = data.x, data.y

    def evaluate(p, v):
        # One fused pass: energy, both gradients and the validity mask.
        gp, gv, ok, e = _grad_rows(man, p[None], v[None], x, Y, "pv")
        return float(e[0]), np.stack([gp[0], gv[0]]), bool(ok[0])

    p = Y[int(np.argmin(x))].copy()
    v = man._log(p, Y[int(np.argmax(x))])
    e_cur, g, ok = evaluate(p, v)
    if not ok:
        raise CutLocusError("fit start predicts onto a response's cut locus")
    trace = [e_cur]
    S = Yk = np.empty((0, 2, man.ambient_dim))
    # The initial inverse Hessian: on flat space the energy's Hessian is
    # M = [[1, mean x], [mean x, mean x^2]] on the (p, v) parts, so h0 = M^-1
    # makes the first step the exact least-squares solve there.
    m1, m2 = float(np.mean(x)), float(np.mean(x * x))
    h0 = np.array([[m2, -m1], [-m1, 1.0]]) / (m2 - m1 * m1)

    iterations = 0
    stop = "max_iter"
    while True:
        ngp, ngv = (float(n) for n in man._norm(p, g))
        if max(ngp, ngv) <= cfg.tol:
            stop = "converged"
            break
        if iterations >= cfg.max_iter:
            break
        d = _lbfgs_direction(man, p, g, S, Yk, h0)
        slope = float(_pair_inner(man, p, g, d))
        if not slope < 0.0:
            S = Yk = S[:0]
            d = -(h0 @ g)
            slope = float(_pair_inner(man, p, g, d))

        rounding = _ROUNDING * abs(e_cur)
        alpha = _INIT_STEP
        while alpha >= _STALL_STEP:
            p_new = man._exp(p, alpha * d[0])
            # v + a d_v and the direction itself, carried to p_new together.
            moved = man._transport(p, p_new, np.stack([v + alpha * d[1], d[0], d[1]]))
            e_new, g_new, ok = evaluate(p_new, moved[0])
            if ok:
                if -_ARMIJO_C * alpha * slope > rounding:
                    accept = e_new <= e_cur + _ARMIJO_C * alpha * slope
                else:
                    slope_new = float(_pair_inner(man, p_new, g_new, moved[1:]))
                    accept = (_WOLFE_SIGMA * slope <= slope_new
                              <= (2.0 * _ARMIJO_C - 1.0) * slope)
                if accept:
                    break
            alpha *= _SHRINK
        else:
            stop = "stalled"
            break

        # The memory and the old gradient move to p_new in one call.
        carried = man._transport(p, p_new, np.concatenate([g[None], S, Yk]))
        s_new = alpha * moved[1:]
        y_new = g_new - carried[0]
        S, Yk = carried[1:1 + len(S)], carried[1 + len(S):]
        sy, ss, yy = _pair_inner(man, p_new, np.stack([s_new, s_new, y_new]),
                                 np.stack([y_new, s_new, y_new]))
        if sy > _CURVATURE_FLOOR * np.sqrt(ss * yy):
            S = np.concatenate([S, s_new[None]])[-_MEMORY:]
            Yk = np.concatenate([Yk, y_new[None]])[-_MEMORY:]
        p, v, e_cur, g = p_new, moved[0], e_new, g_new
        iterations += 1
        trace.append(e_cur)

    # The reported energy is the one energy() computes, from the residual
    # distances.  The fused energies the line search compared agree with it
    # to rounding, but on an exact sphere fit they read the arccos rounding
    # floor (about 3e-17) where this one reads 0.  The same distances give
    # tau.
    d = man._residual_dists(p[None], v[None], x, Y)
    e_cur = float(0.5 * np.mean(d * d, axis=-1)[0])
    tau = float(np.max(d))

    model = GeodesicModel.project(man, p, v)

    mean = frechet_mean(man, Y)
    tau_m = float(np.max(man._dist(np.broadcast_to(mean, Y.shape), Y)))
    limit = _ball_radius_limit(man)
    ball_ok = bool(tau_m <= limit)
    if not ball_ok:
        warnings.warn(
            f"data radius {tau_m:.4g} exceeds the curvature ball bound {limit:.4g}; "
            "the sensitivity analysis may not apply",
            FitWarning,
            stacklevel=2,
        )

    return FitReport(
        model=model,
        energy=e_cur,
        iterations=iterations,
        converged=stop == "converged",
        stop=stop,
        tau_empirical=tau,
        tau_m_empirical=tau_m,
        gradient_norms=(ngp, ngv),
        ball_ok=ball_ok,
        energy_trace=trace,
    )
