"""Core Riemannian interface: points, tangent vectors, and the manifold
operations built on top of them.

Coordinates are extrinsic: a point or tangent vector is a dense 1-D float
array in the manifold's ambient representation.  Every private kernel method
(``_exp``, ``_log``, ``_frame``, ...) accepts arbitrary leading batch
dimensions and broadcasts like a ufunc; the public wrappers add the contract
checks (membership, tangency, guards) and work on single points.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseMismatch,
    CutLocusError,
    DomainError,
    InvalidTangent,
    ManifoldMismatch,
)

MEMBERSHIP_TOL = 1e-10
TANGENCY_TOL = 1e-10


@dataclass(eq=False)
class ManifoldPoint:
    """A point on a manifold, stored as ambient coordinates."""

    manifold: "Manifold"
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (self.manifold.ambient_dim,):
            raise ValueError(
                f"expected coords of shape ({self.manifold.ambient_dim},), "
                f"got {self.coords.shape}"
            )
        defect = float(self.manifold._point_defect(self.coords))
        if not defect <= MEMBERSHIP_TOL:
            raise ValueError(f"coords violate membership (defect {defect:.3e})")

    def __eq__(self, other):
        return (
            isinstance(other, ManifoldPoint)
            and self.manifold == other.manifold
            and np.array_equal(self.coords, other.coords)
        )


@dataclass(eq=False)
class TangentVec:
    """A tangent vector attached to a base point, in ambient coordinates."""

    base: ManifoldPoint
    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        man = self.base.manifold
        if self.components.shape != (man.ambient_dim,):
            raise ValueError(
                f"expected components of shape ({man.ambient_dim},), "
                f"got {self.components.shape}"
            )
        defect = float(man._tangent_defect(self.base.coords, self.components))
        scale = max(1.0, float(np.linalg.norm(self.components)))
        if not defect <= TANGENCY_TOL * scale:
            raise ValueError(f"components violate tangency (defect {defect:.3e})")

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    def __eq__(self, other):
        return (
            isinstance(other, TangentVec)
            and self.base == other.base
            and np.array_equal(self.components, other.components)
        )


class Manifold(ABC):
    """Abstract manifold with batched array kernels and checked wrappers.

    A subclass writes the identity properties, ``kind`` (and ``spec`` when the
    kind alone does not identify an instance) and the abstract underscore
    kernels on raw arrays; ``cut_locus_radius``, ``_grad_energy_rows``,
    ``_energy_rows`` and ``_log_exp_jacobian`` are optional.  Every kernel
    broadcasts over leading batch dimensions.  Kernels do not validate
    membership or guards; the public wrappers do.  Equality, hashing and
    ``_random_point`` are inherited, and so are the regression's
    central-difference gradient when ``_grad_energy_rows`` is not written
    and the finite-difference exp Jacobian when ``_log_exp_jacobian`` is not.
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
        """Norm guard for exp_map inputs (may be inf)."""

    @property
    def cut_locus_radius(self) -> float:
        """Distance guard for log_map and parallel_transport (may be inf)."""
        return np.inf

    def _grad_energy_rows(self, p, v, x, Y, wrt):
        # Exact, fused gradient of the regression energy.  wrt = "p" or "v"
        # returns a (gradient rows, validity mask) pair; wrt = "pv" shares one
        # pass between both and returns (footpoint rows, shooting rows, mask,
        # energy rows), the energy taken from the residuals the pass already
        # holds.  Every built-in manifold overrides it.  None, the default for
        # an extension manifold, makes the regression fall back to
        # orthonormal-frame central differences, which the tests also use as
        # the reference for the fused kernels.
        return None

    def _energy_rows(self, p, v, x, Y):
        # The regression energy per row, for a manifold whose predictions and
        # distances lose accuracy that a direct form keeps (SPD).  None, the
        # default, makes the regression take it from them.
        return None

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

    def _log_exp_jacobian(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """log det of the differential of exp_x at u, between the orthonormal
        frames at x and at exp_x(u): the log volume factor of the exponential.

        Valid for |u| below the injectivity radius.  This default is central
        differences of `_exp` along the `_frame` basis at x; the built-in
        manifolds override it with a closed form, and the tests use it as the
        reference for theirs.
        """
        step = 1e-5
        frames = self._frame(x)
        xs, us = x[..., None, :], u[..., None, :]
        cols = (self._exp(xs, us + step * frames) - self._exp(xs, us - step * frames)) / (2.0 * step)
        y = self._exp(x, u)[..., None, None, :]
        m = self._inner(y, self._frame(y[..., 0, 0, :])[..., None, :, :], cols[..., :, None, :])
        return np.linalg.slogdet(m)[1]

    def _random_point(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Random point coordinates for tests and generators: standard normal
        ambient coordinates, projected onto the manifold."""
        shape = (self.ambient_dim,) if size is None else (size, self.ambient_dim)
        return self._project(rng.standard_normal(shape))

    # --- checked public API ---------------------------------------------------

    def point(self, coords) -> ManifoldPoint:
        """Wrap coordinates that already satisfy membership."""
        return ManifoldPoint(self, np.asarray(coords, dtype=float))

    def project_to_manifold(self, raw) -> ManifoldPoint:
        """Project raw ambient coordinates onto the manifold."""
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (self.ambient_dim,):
            raise ValueError(f"expected shape ({self.ambient_dim},), got {raw.shape}")
        return ManifoldPoint(self, self._project(raw))

    def tangent(self, p: ManifoldPoint, components) -> TangentVec:
        """Wrap components that already satisfy tangency at p."""
        self._require_point(p)
        return TangentVec(p, np.asarray(components, dtype=float))

    def zero_tangent(self, p: ManifoldPoint) -> TangentVec:
        self._require_point(p)
        return TangentVec(p, np.zeros(self.ambient_dim))

    def project_to_tangent(self, p: ManifoldPoint, raw) -> TangentVec:
        """Project raw ambient components onto the tangent space at p."""
        self._require_point(p)
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (self.ambient_dim,):
            raise ValueError(f"expected shape ({self.ambient_dim},), got {raw.shape}")
        return TangentVec(p, self._project_tangent(p.coords, raw))

    def exp_map(self, p: ManifoldPoint, v: TangentVec) -> ManifoldPoint:
        """Follow the geodesic from p with initial velocity v for unit time."""
        self._require_point(p)
        if not (v.base == p):
            raise InvalidTangent("tangent vector is not based at p")
        speed = float(self._norm(p.coords, v.components))
        if not speed < self.injectivity_radius:
            raise DomainError(
                f"tangent norm {speed:.6g} exceeds the injectivity guard "
                f"{self.injectivity_radius:.6g}"
            )
        return ManifoldPoint(self, self._exp(p.coords, v.components))

    def log_map(self, p: ManifoldPoint, q: ManifoldPoint) -> TangentVec:
        """Initial velocity of the minimizing geodesic from p to q."""
        self._require_reachable(p, q)
        return TangentVec(p, self._log(p.coords, q.coords))

    def dist(self, p: ManifoldPoint, q: ManifoldPoint) -> float:
        self._require_point(p)
        self._require_point(q)
        return float(self._dist(p.coords, q.coords))

    def parallel_transport(self, v: TangentVec, q: ManifoldPoint) -> TangentVec:
        """Transport v along the minimizing geodesic from its base to q."""
        self._require_reachable(v.base, q)
        return TangentVec(q, self._transport(v.base.coords, q.coords, v.components))

    def inner(self, u: TangentVec, w: TangentVec) -> float:
        if not (u.base == w.base):
            raise BaseMismatch("tangent vectors are based at different points")
        return float(self._inner(u.base.coords, u.components, w.components))

    def norm(self, u: TangentVec) -> float:
        self._require_point(u.base)
        return float(self._norm(u.base.coords, u.components))

    def tangent_basis(self, p: ManifoldPoint) -> list[TangentVec]:
        """Metric-orthonormal basis of the tangent space at p."""
        self._require_point(p)
        frame = self._frame(p.coords)
        return [TangentVec(p, row) for row in frame]

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        return ManifoldPoint(self, self._random_point(rng))

    def random_tangent(self, p: ManifoldPoint, rng: np.random.Generator,
                       scale: float = 1.0) -> TangentVec:
        """Metric-isotropic Gaussian tangent vector at p."""
        self._require_point(p)
        normals = rng.standard_normal(self.ambient_dim)
        return TangentVec(p, scale * self._gaussian_tangent(p.coords, normals))

    # --- helpers ---------------------------------------------------------------

    def _require_point(self, p: ManifoldPoint) -> None:
        if p.manifold != self:
            raise ManifoldMismatch(
                f"point lives on {p.manifold.kind!r}, expected {self.kind!r}"
            )

    def _require_reachable(self, p: ManifoldPoint, q: ManifoldPoint) -> None:
        """The guard of log_map and parallel_transport: q within the cut-locus
        radius of p."""
        self._require_point(p)
        self._require_point(q)
        d = float(self._dist(p.coords, q.coords))
        if not d < self.cut_locus_radius:
            raise CutLocusError(
                f"distance {d:.6g} reaches the cut-locus guard "
                f"{self.cut_locus_radius:.6g}"
            )
