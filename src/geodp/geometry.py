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


class Manifold(ABC):
    """Abstract manifold: identity properties and batched array kernels.

    A subclass writes the identity properties, ``kind`` (and ``spec`` when the
    kind alone does not identify an instance) and the abstract underscore
    kernels on raw arrays, among them the exact fused energy gradient
    ``_grad_energy_rows`` and the closed-form exp volume factor
    ``_log_exp_jacobian``; ``cut_locus_radius`` and ``_residual_dists`` are
    optional.  Every kernel broadcasts over leading batch dimensions and
    validates nothing.  Equality, hashing and ``_random_point`` are
    inherited.
    """

    kind: str = ""

    # --- identity ----------------------------------------------------------

    @property
    @abstractmethod
    def dim(self) -> int:
        """Intrinsic dimension."""

    @property
    @abstractmethod
    def ambient_dim(self) -> int:
        """Length of the coordinate representation."""

    @property
    @abstractmethod
    def curvature_bounds(self) -> tuple[float, float]:
        """(kappa_l, kappa_h): lower and upper sectional curvature bounds."""

    @property
    @abstractmethod
    def injectivity_radius(self) -> float:
        """Tangent norm below which exp is injective (may be inf).  The chain
        kernels cap their random-walk radius and the independence kernel's
        length scale by it."""

    @property
    def cut_locus_radius(self) -> float:
        """Distance below which log and transport are taken as well defined
        (may be inf).  The regression's validity mask refuses a prediction at
        least this far from its response, and the chain kernels refuse
        footpoints and proposal steps that reach it."""
        return np.inf

    def _residual_dists(self, p, v, x, Y):
        # Residual distances d(Exp(p, x_i v), y_i) of the models (p, v), shape
        # (B, n); the regression's energy and the fit's tau both read them.
        # A manifold with a direct form overrides this: SPD, whose
        # predictions and distances lose accuracy that form keeps, and
        # Kendall, whose form skips the (B, n, ambient) predictions.
        t = x[None, :, None] * v[:, None, :]
        preds = self._exp(np.broadcast_to(p[:, None, :], t.shape), t)
        return self._dist(preds, Y[None, :, :])

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
