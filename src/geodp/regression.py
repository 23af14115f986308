"""Geodesic regression: model, least-squares energy, Riemannian gradients,
and the alternating gradient-descent fitter.

The model predicts Exp(p, x_i * v) for scalar covariates x_i in [0, 1].  The
energy is the mean squared geodesic residual with a 1/2 factor,

    E(p, v) = 1/(2n) * sum_i d(Exp(p, x_i v), y_i)^2,

so the reported mean squared error is exactly twice the energy.  Each
manifold has one gradient route.  The sphere, SPD(2) and Kendall preshapes
provide an exact fused kernel (``Manifold._grad_energy_rows``);
orthonormal-frame central differences (``_grad_rows_fd``) serve only as the
fallback for manifolds that do not, and as the tests' reference.

The fitter evaluates each Armijo trial point with one fused pass of that
kernel, which returns the energy, both gradients and the validity mask
together; the gradients of an accepted trial carry into the next step, so the
line search evaluates no gradient twice and no energy from predictions.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import CutLocusError, DegenerateCovariates, FitWarning, ManifoldMismatch
from .geometry import MEMBERSHIP_TOL, Manifold, ManifoldPoint, TangentVec

_FD_STEP = 1e-6
_STALL_STEP = 1e-14
# Armijo backtracking: sufficient-decrease constant, shrink factor, first step.
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_INIT_STEP = 1.0


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
    """Covariate/response pairs on one manifold.

    x is expected to be already rescaled to span [0, 1]; pass
    validate=False only for constructions that deliberately break the
    invariants (single-point formula checks, for instance).
    """

    x: np.ndarray
    y: np.ndarray
    manifold: Manifold
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        self.x = np.asarray(self.x, dtype=float)
        if isinstance(self.y, (list, tuple)) and self.y and isinstance(self.y[0], ManifoldPoint):
            self.y = np.stack([p.coords for p in self.y])
        self.y = np.asarray(self.y, dtype=float)
        if validate:
            self._check()

    def _check(self):
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

    def points(self) -> list[ManifoldPoint]:
        return [self.manifold.point(row) for row in self.y]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.x[idx], self.y[idx], self.manifold)


@dataclass(eq=False)
class GeodesicModel:
    """Footpoint and shooting vector of a fitted geodesic."""

    p: ManifoldPoint
    v: TangentVec

    def __post_init__(self):
        if not (self.v.base == self.p):
            raise ValueError("shooting vector must be based at the footpoint")

    @property
    def manifold(self) -> Manifold:
        return self.p.manifold

    def predict(self, x) -> np.ndarray:
        """Predicted coordinates at covariates x (array in, array out)."""
        x = np.asarray(x, dtype=float)
        man = self.manifold
        t = x[..., None] * self.v.components
        base = np.broadcast_to(self.p.coords, t.shape)
        return man._exp(base, t)


@dataclass
class FitConfig:
    """Stopping rule of the fit; the CLI's `fit` flags read these defaults."""

    tol: float = 1e-6
    max_iter: int = 2000


@dataclass
class FitReport:
    model: GeodesicModel
    energy: float
    iterations: int
    converged: bool
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
    preds = _predictions(man, p, v, x)
    d = man._dist(preds, Y[None, :, :])
    return 0.5 * np.mean(d * d, axis=-1)


def _grad_rows(man: Manifold, p, v, x, Y, wrt: str) -> tuple[np.ndarray, ...]:
    """Riemannian gradient rows and a per-row validity mask.

    wrt is "p" or "v" for one gradient, giving (rows, mask), or "pv" for
    both from one pass, giving (footpoint rows, shooting rows, mask, energy
    rows).
    """
    fused = man._grad_energy_rows(p, v, x, Y, wrt)
    if fused is not None:
        return fused
    if wrt == "pv":
        gp, valid = _grad_rows_fd(man, p, v, x, Y, "p")
        gv, _ = _grad_rows_fd(man, p, v, x, Y, "v")
        return gp, gv, valid, _energy_rows(man, p, v, x, Y)
    return _grad_rows_fd(man, p, v, x, Y, wrt)


def _grad_rows_fd(man, p, v, x, Y, wrt, step: float = _FD_STEP):
    B, amb = p.shape
    frames = man._frame_many(p)  # (B, dim, amb)
    coeffs = np.empty((B, man.dim))
    for j in range(man.dim):
        b = frames[:, j]
        if wrt == "p":
            pp = man._exp(p, step * b)
            pm = man._exp(p, -step * b)
            ep = _energy_rows(man, pp, man._transport(p, pp, v), x, Y)
            em = _energy_rows(man, pm, man._transport(p, pm, v), x, Y)
        else:
            ep = _energy_rows(man, p, man._project_tangent(p, v + step * b), x, Y)
            em = _energy_rows(man, p, man._project_tangent(p, v - step * b), x, Y)
        coeffs[:, j] = (ep - em) / (2.0 * step)
    g = np.einsum("bj,bja->ba", coeffs, frames)
    if np.isfinite(man.cut_locus_radius):
        dists = man._dist(_predictions(man, p, v, x), Y[None, :, :])
        valid = np.all(dists < man.cut_locus_radius, axis=-1)
    else:
        valid = np.ones(B, dtype=bool)
    return man._project_tangent(p, g), valid


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


def residuals(model: GeodesicModel, data: Dataset) -> list[TangentVec]:
    """Per-record error vectors Log(prediction_i, y_i) at the predictions."""
    _check_pair(model, data)
    man = data.manifold
    preds = _predictions(man, model.p.coords[None], model.v.components[None], data.x)[0]
    d = man._dist(preds, data.y)
    if np.any(d >= man.cut_locus_radius):
        raise CutLocusError("a prediction reaches the cut locus of its response")
    eps = man._log(preds, data.y)
    return [TangentVec(man.point(preds[i]), eps[i]) for i in range(data.n)]


def _grad_at(model: GeodesicModel, data: Dataset, wrt: str) -> TangentVec:
    _check_pair(model, data)
    g, valid = _grad_rows(data.manifold, model.p.coords[None],
                          model.v.components[None], data.x, data.y, wrt)
    if not valid[0]:
        raise CutLocusError("a prediction reaches the cut locus of its response")
    return TangentVec(model.p, g[0])


def grad_p(model: GeodesicModel, data: Dataset) -> TangentVec:
    """Riemannian gradient of the energy with respect to the footpoint."""
    return _grad_at(model, data, "p")


def grad_v(model: GeodesicModel, data: Dataset) -> TangentVec:
    """Riemannian gradient of the energy with respect to the shooting vector."""
    return _grad_at(model, data, "v")


# --- auxiliary statistics -------------------------------------------------------


def frechet_mean(man: Manifold, Y: np.ndarray, tol: float = 1e-10,
                 max_iter: int = 1000) -> np.ndarray:
    """Karcher-mean fixed point iteration over response coordinates."""
    m = Y[0].copy()
    for _ in range(max_iter):
        logs = man._log(np.broadcast_to(m, Y.shape), Y)
        step = logs.mean(axis=0)
        m = man._exp(m, step)
        if float(np.linalg.norm(step)) <= tol:
            break
    return m


def _ball_radius_limit(man: Manifold) -> float:
    kappa_h = man.curvature_bounds[1]
    if kappa_h > 0.0:
        return np.pi / (8.0 * np.sqrt(kappa_h))
    return np.inf


def fit(data: Dataset, config: FitConfig | None = None) -> FitReport:
    """Fit a geodesic by alternating Riemannian gradient descent.

    Each iteration takes an Armijo-backtracked descent step in the footpoint
    (transporting the shooting vector along) and then in the shooting vector.
    Every trial point costs one fused pass that returns its energy and both
    gradients, so an accepted trial's gradients drive the next step.  Stops
    when both gradient norms fall below config.tol, when the step size
    stalls, or at config.max_iter; the report carries converged=False rather
    than raising on the last two.
    """
    cfg = config or FitConfig()
    man = data.manifold
    x, Y = data.x, data.y

    def evaluate(p, v):
        # One fused pass: energy, both gradients and the validity mask.
        gp, gv, ok, e = _grad_rows(man, p[None], v[None], x, Y, "pv")
        return float(e[0]), gp[0], gv[0], bool(ok[0])

    p = Y[int(np.argmin(x))].copy()
    v = man._log(p, Y[int(np.argmax(x))])
    e_cur, gp, gv, ok = evaluate(p, v)
    trace = [e_cur]

    converged = False
    iterations = 0
    ngp = ngv = np.inf
    for iterations in range(1, cfg.max_iter + 1):
        if not ok:
            raise CutLocusError("fit iterate predicts onto a response's cut locus")
        ngp = float(man._norm(p, gp))
        ngv = float(man._norm(p, gv))
        if max(ngp, ngv) <= cfg.tol:
            converged = True
            iterations -= 1
            break

        moved = False
        if ngp > cfg.tol:
            alpha = _INIT_STEP
            while alpha >= _STALL_STEP:
                p_new = man._exp(p, -alpha * gp)
                v_new = man._transport(p, p_new, v)
                e_new, *grads = evaluate(p_new, v_new)
                if e_new <= e_cur - _ARMIJO_C * alpha * ngp * ngp:
                    p, v, e_cur = p_new, v_new, e_new
                    gp, gv, ok = grads
                    moved = True
                    break
                alpha *= _SHRINK
        if ngv > cfg.tol:
            ngv = float(man._norm(p, gv))
            alpha = _INIT_STEP
            while alpha >= _STALL_STEP and ngv > cfg.tol:
                v_new = man._project_tangent(p, v - alpha * gv)
                e_new, *grads = evaluate(p, v_new)
                if e_new <= e_cur - _ARMIJO_C * alpha * ngv * ngv:
                    v, e_cur = v_new, e_new
                    gp, gv, ok = grads
                    moved = True
                    break
                alpha *= _SHRINK
        trace.append(e_cur)
        if not moved:
            break
    else:
        iterations = cfg.max_iter

    if not converged:
        # gp and gv were evaluated at the final (p, v) by the last accepted pass.
        ngp = float(man._norm(p, gp))
        ngv = float(man._norm(p, gv))
        converged = max(ngp, ngv) <= cfg.tol

    # The reported energy is the one energy() computes, from the predictions.
    # The fused energies the line search compared agree with it to rounding,
    # but on an exact sphere fit they read the arccos rounding floor (about
    # 3e-17) where this one reads 0.
    e_cur = float(_energy_rows(man, p[None], v[None], x, Y)[0])

    point = man.point(man._project(p))
    model = GeodesicModel(point, TangentVec(point, man._project_tangent(point.coords, v)))

    preds = _predictions(man, p[None], v[None], x)[0]
    tau = float(np.max(man._dist(preds, Y)))
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
        converged=converged,
        tau_empirical=tau,
        tau_m_empirical=tau_m,
        gradient_norms=(ngp, ngv),
        ball_ok=ball_ok,
        energy_trace=trace,
    )
