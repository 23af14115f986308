"""Core Riemannian interface: the manifold identity and its batched
kernels.

Coordinates are extrinsic: a point or tangent vector is a dense float array
in the manifold's ambient representation.  The underscore kernels (``_exp``,
``_log``, ``_dist``, ``_transport``, ``_frame``, the exact energy gradient
``_grad_energy_rows``, ...) are the whole manifold contract: they take raw
arrays with arbitrary leading batch dimensions, broadcast like a ufunc and
check nothing.  Their callers keep inputs inside the guards: the chain
kernels keep proposals within the injectivity and cut-locus radii, and the
regression's validity mask refuses a prediction on the cut locus of its
response.  ``regression.GeodesicModel`` checks membership and tangency,
to these tolerances, where a model is built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

MEMBERSHIP_TOL = 1e-10
TANGENCY_TOL = 1e-10
# How far inside the injectivity radius the cut-locus guard sits.
_CUT_MARGIN = 1e-6


class Manifold(ABC):
    """Abstract manifold: identity attributes and batched array kernels.

    A subclass sets the four identity attributes (on the class, or in
    ``__init__`` when they depend on a parameter), ``kind`` (and ``spec`` when
    the kind alone does not identify an instance) and writes the abstract
    underscore kernels on raw arrays, among them the exact fused energy
    gradient ``_grad_energy_rows`` and the closed-form exp volume factor
    ``_log_exp_jacobian``; ``_residual_dists`` is optional.  An identity
    attribute left out raises AttributeError at its first use.  Every kernel
    broadcasts over leading batch dimensions and validates nothing.
    ``cut_locus_radius``, equality, hashing and ``_random_point`` are
    inherited.
    """

    kind: str = ""

    # --- identity ----------------------------------------------------------

    dim: int  # intrinsic dimension
    ambient_dim: int  # length of the coordinate representation
    curvature_bounds: tuple[float, float]  # (kappa_l, kappa_h): sectional curvature bounds
    # Tangent norm below which exp is injective (may be inf).  The chain
    # kernels cap their random-walk radius and the independence kernel's
    # length scale by it.
    injectivity_radius: float

    @property
    def cut_locus_radius(self) -> float:
        """Distance below which log and transport are taken as well defined:
        the injectivity radius less _CUT_MARGIN (inf when that is inf).  The
        regression's validity mask refuses a prediction at least this far
        from its response, and the chain kernels refuse footpoints and
        proposal steps that reach it."""
        return self.injectivity_radius - _CUT_MARGIN

    def _residual_dists(self, p, v, x, Y):
        # Residual distances d(Exp(p, x_i v), y_i) of the models (p, v), shape
        # (B, n); the regression's energy and the fit's tau both read them.
        # A manifold with a direct form overrides this: SPD, whose
        # predictions and distances lose accuracy that form keeps, and
        # Kendall, whose form skips the (B, n, ambient) predictions.
        return self._dist(_predictions(self, p, v, x), Y[None, :, :])

    def spec(self) -> dict:
        """JSON-friendly identity used in files and provenance blocks."""
        return {"kind": self.kind}

    def __eq__(self, other):
        return isinstance(other, Manifold) and self.spec() == other.spec()

    def __hash__(self):
        return hash(tuple(sorted(self.spec().items())))

    def __repr__(self):
        return f"{type(self).__name__}()"

    # --- raw kernels --------------------------------------------------------

    @abstractmethod
    def _point_defect(self, x: np.ndarray) -> np.ndarray:
        """Scalar membership defect per point; 0 on the manifold."""

    @abstractmethod
    def _project(self, raw: np.ndarray) -> np.ndarray:
        """Nearest-point style projection of raw coordinates."""

    @abstractmethod
    def _tangent_defect(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Scalar tangency defect per vector; 0 when u is tangent at x."""

    @abstractmethod
    def _project_tangent(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Metric-orthogonal projection of u onto the tangent space at x."""

    @abstractmethod
    def _exp(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Geodesic exponential (re-projected to the manifold)."""

    @abstractmethod
    def _log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Inverse exponential; unguarded, caller masks cut-locus rows."""

    @abstractmethod
    def _dist(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Geodesic distance."""

    @abstractmethod
    def _transport(self, x: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Parallel transport of u from x to y along the connecting geodesic."""

    @abstractmethod
    def _inner(self, x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Riemannian inner product at x."""

    def _norm(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self._inner(x, u, u), 0.0))

    @abstractmethod
    def _frame(self, x: np.ndarray) -> np.ndarray:
        """Metric-orthonormal tangent basis at x, shape (..., dim, ambient)."""

    @abstractmethod
    def _gaussian_tangent(self, x: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Map ambient standard normals to a metric-isotropic Gaussian at x."""

    @abstractmethod
    def _grad_energy_rows(self, p, v, x, Y, wrt):
        """Exact, fused Riemannian gradient of the regression energy at the
        models (p, v), shape (B, ambient), for covariates x (n,) and
        responses Y (n, ambient).

        wrt = "p" or "v" returns (gradient rows, validity mask); wrt = "pv"
        shares one pass between both and returns (footpoint rows, shooting
        rows, mask, energy rows), the energy taken from the residuals the
        pass already holds.  The mask is False for a model that predicts
        onto a response's cut locus.
        """

    @abstractmethod
    def _log_exp_jacobian(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """log det of the differential of exp_x at u, between the orthonormal
        frames at x and at exp_x(u): the log volume factor of the exponential,
        shape u.shape[:-1].  Valid for |u| below the injectivity radius."""

    def _random_point(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Random point coordinates for tests and generators: standard normal
        ambient coordinates, projected onto the manifold."""
        shape = (self.ambient_dim,) if size is None else (size, self.ambient_dim)
        return self._project(rng.standard_normal(shape))


def _predictions(man: Manifold, p: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Predictions Exp(p, x_i v), shape (B, n, ambient), of the models whose
    rows p and v have shape (B, ambient), at the covariates x (n,)."""
    t = x[None, :, None] * v[:, None, :]
    return man._exp(np.broadcast_to(p[:, None, :], t.shape), t)


def _arc_weights(c, cut):
    """The arc lengths, validity mask and residual weights that the fused
    kernels of the sphere and Kendall share, from cosines c (B, n) already
    clipped to [-1, 1].

    Returns d = arccos c, the per-model mask that every d is below the
    cut-locus radius cut, and w = d / sin d with sin d = sqrt((1 - c)(1 + c))
    taken from the clipped cosine, 1 where that root is 0 (d = 0; d = pi is
    masked).
    """
    d = np.arccos(c)
    valid = (d < cut).all(-1)
    sd = np.sqrt((1.0 - c) * (1.0 + c))
    return d, valid, np.divide(d, sd, out=np.ones_like(d), where=sd > 0.0)
