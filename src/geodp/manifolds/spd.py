"""2x2 symmetric positive-definite matrices with the affine-invariant metric.

Coordinates are the row-major flattening [a, b, b, c]; kernels reshape to
(..., 2, 2) and use a closed-form symmetric eigendecomposition, so batched
matrix functions never call into LAPACK loops.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Manifold

_EIG_FLOOR = 1e-10
_TINY = 1e-14

# Orthonormal basis of symmetric 2x2 matrices at the identity.
_FRAME_BASIS = np.array([
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0 / np.sqrt(2.0)], [1.0 / np.sqrt(2.0), 0.0]],
])


def _sym_eig2(m):
    """Eigendecomposition of symmetric (..., 2, 2) matrices, ascending."""
    a = m[..., 0, 0]
    b = m[..., 0, 1]
    c = m[..., 1, 1]
    half = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    lam = np.stack([half - disc, half + disc], axis=-1)
    # Eigenvector of the larger eigenvalue; the row with the larger residual
    # is numerically reliable whenever disc > 0.
    r1 = np.stack([b, lam[..., 1] - a], axis=-1)
    r2 = np.stack([lam[..., 1] - c, b], axis=-1)
    n1 = np.linalg.norm(r1, axis=-1)
    n2 = np.linalg.norm(r2, axis=-1)
    vmax = np.where((n1 >= n2)[..., None], r1, r2)
    nn = np.linalg.norm(vmax, axis=-1, keepdims=True)
    fallback = np.zeros_like(vmax)
    fallback[..., 0] = 1.0
    vmax = np.where(nn > 0.0, vmax / np.where(nn > 0.0, nn, 1.0), fallback)
    vmin = np.stack([-vmax[..., 1], vmax[..., 0]], axis=-1)
    vecs = np.stack([vmin, vmax], axis=-1)  # columns match lam order
    return lam, vecs


def _apply_sym(m, fn):
    """fn applied to the eigenvalues of symmetric (..., 2, 2) matrices."""
    lam, vecs = _sym_eig2(m)
    return np.einsum("...ij,...j,...kj->...ik", vecs, fn(lam), vecs)


class SPD(Manifold):
    """SPD(2) with metric <U, W>_P = tr(P^-1 U P^-1 W)."""

    kind = "spd"

    @property
    def dim(self) -> int:
        return 3

    @property
    def ambient_dim(self) -> int:
        return 4

    @property
    def curvature_bounds(self) -> tuple[float, float]:
        return (-0.5, 0.0)

    @property
    def injectivity_radius(self) -> float:
        return np.inf

    def __eq__(self, other):
        return isinstance(other, SPD)

    def __hash__(self):
        return hash(self.kind)

    # --- matrix helpers ------------------------------------------------------

    @staticmethod
    def _mat(x):
        return x.reshape(x.shape[:-1] + (2, 2))

    @staticmethod
    def _vec(m):
        return m.reshape(m.shape[:-2] + (4,))

    @staticmethod
    def _inv(m):
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        out = np.empty_like(m)
        out[..., 0, 0] = m[..., 1, 1]
        out[..., 1, 1] = m[..., 0, 0]
        out[..., 0, 1] = -m[..., 0, 1]
        out[..., 1, 0] = -m[..., 1, 0]
        return out / det[..., None, None]

    # --- kernels -----------------------------------------------------------

    def _point_defect(self, x):
        m = self._mat(x)
        sym = np.abs(m[..., 0, 1] - m[..., 1, 0])
        lam, _ = _sym_eig2(0.5 * (m + np.swapaxes(m, -1, -2)))
        return np.where(lam[..., 0] > 0.0, sym, np.inf)

    def _project(self, raw):
        m = self._mat(raw)
        m = 0.5 * (m + np.swapaxes(m, -1, -2))
        out = _apply_sym(m, lambda lam: np.maximum(lam, _EIG_FLOOR))
        return self._vec(out)

    def _tangent_defect(self, x, u):
        m = self._mat(u)
        return np.abs(m[..., 0, 1] - m[..., 1, 0])

    def _project_tangent(self, x, u):
        m = self._mat(u)
        return self._vec(0.5 * (m + np.swapaxes(m, -1, -2)))

    def _exp(self, x, u):
        p = self._mat(x)
        half = _apply_sym(p, np.sqrt)
        ihalf = _apply_sym(p, lambda lam: 1.0 / np.sqrt(lam))
        inner = ihalf @ self._mat(u) @ ihalf
        inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
        out = half @ _apply_sym(inner, np.exp) @ half
        return self._vec(0.5 * (out + np.swapaxes(out, -1, -2)))

    def _log(self, x, y):
        p = self._mat(x)
        half = _apply_sym(p, np.sqrt)
        ihalf = _apply_sym(p, lambda lam: 1.0 / np.sqrt(lam))
        inner = ihalf @ self._mat(y) @ ihalf
        inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
        out = half @ _apply_sym(inner, np.log) @ half
        return self._vec(0.5 * (out + np.swapaxes(out, -1, -2)))

    def _dist(self, x, y):
        # Eigenvalues of P^-1 Q are those of P^-1/2 Q P^-1/2, so the distance
        # follows from the trace and determinant alone.
        p = self._mat(x)
        q = self._mat(y)
        m = self._inv(p) @ q
        tr = m[..., 0, 0] + m[..., 1, 1]
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        disc = np.sqrt(np.maximum(0.25 * tr * tr - det, 0.0))
        lam1 = np.maximum(0.5 * tr - disc, 1e-300)
        lam2 = np.maximum(0.5 * tr + disc, 1e-300)
        return np.sqrt(np.log(lam1) ** 2 + np.log(lam2) ** 2)

    def _transport(self, x, y, u):
        p = self._mat(x)
        half = _apply_sym(p, np.sqrt)
        ihalf = _apply_sym(p, lambda lam: 1.0 / np.sqrt(lam))
        inner = ihalf @ self._mat(y) @ ihalf
        inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
        e = half @ _apply_sym(inner, np.sqrt) @ ihalf
        out = e @ self._mat(u) @ np.swapaxes(e, -1, -2)
        return self._vec(0.5 * (out + np.swapaxes(out, -1, -2)))

    def _inner(self, x, u, w):
        pi = self._inv(self._mat(x))
        a = pi @ self._mat(u) @ pi @ self._mat(w)
        return a[..., 0, 0] + a[..., 1, 1]

    def _frame(self, x):
        # sqrt(P)-congruence of the identity-orthonormal basis; batched.
        half = _apply_sym(self._mat(x), np.sqrt)[..., None, :, :]
        return self._vec(half @ _FRAME_BASIS @ half)

    _frame_many = _frame

    def _gaussian_tangent(self, x, normals):
        # Coefficients in a sqrt(P)-congruent orthonormal frame are iid N(0,1),
        # which makes the result isotropic for the affine-invariant metric.
        g = np.empty(normals.shape[:-1] + (2, 2))
        g[..., 0, 0] = normals[..., 0]
        g[..., 1, 1] = normals[..., 1]
        g[..., 0, 1] = normals[..., 2] / np.sqrt(2.0)
        g[..., 1, 0] = g[..., 0, 1]
        half = _apply_sym(self._mat(x), np.sqrt)
        return self._vec(half @ g @ half)

    def _grad_energy_rows(self, p, v, x, Y, wrt):
        # Fused exact gradient in whitened coordinates.  With P^-1/2 v P^-1/2
        # = R diag(mu) R^T, the residual Log_{yhat_i} y_i transported back to
        # P is C L_i C^T, where C = P^1/2 R and L_i = log(D_i Z_i D_i) with
        # Z_i = A^T Y_i A, A = P^-1/2 R and D_i = diag(exp(-x_i mu / 2)).
        # SPD is a symmetric space: along x_i v the Jacobi fields keep the
        # diagonal of the R basis and scale its off-diagonal entry by
        # cosh(x_i a) (footpoint) or sinh(x_i a) / a (shooting vector), with
        # a = |mu_1 - mu_2| / 2, so the adjoint differentials scale L_i's
        # entries.  The contractions use einsum rather than BLAS so a row is
        # bit-identical alone or in a batch.  There is no cut locus.
        lam, q = _sym_eig2(self._mat(p))
        root = np.sqrt(lam)
        half = np.einsum("bij,bj,bkj->bik", q, root, q)
        ihalf = np.einsum("bij,bj,bkj->bik", q, 1.0 / root, q)
        inner = np.einsum("bij,bjk,bkl->bil", ihalf, self._mat(v), ihalf)
        mu, r = _sym_eig2(0.5 * (inner + np.swapaxes(inner, -1, -2)))
        a = np.einsum("bij,bjk->bik", ihalf, r)
        z = np.einsum("bnik,bkl->bnil", np.einsum("bji,njk->bnik", a, self._mat(Y)), a)
        d = np.exp(-0.5 * x[None, :, None] * mu[:, None, :])
        logs = _apply_sym(d[..., :, None] * z * d[..., None, :], np.log)
        t = x[None, :] * (0.5 * np.abs(mu[:, 1] - mu[:, 0]))[:, None]
        if wrt == "p":
            on, off = 1.0, np.cosh(t)
        else:
            on, off = x, x * np.where(t > _TINY, np.sinh(t) / np.where(t > _TINY, t, 1.0), 1.0)
        g = np.empty(p.shape[:1] + (2, 2))
        g[:, 0, 0] = np.sum(on * logs[..., 0, 0], axis=-1)
        g[:, 1, 1] = np.sum(on * logs[..., 1, 1], axis=-1)
        g[:, 0, 1] = g[:, 1, 0] = np.sum(off * logs[..., 0, 1], axis=-1)
        c = np.einsum("bij,bjk->bik", half, r)
        out = np.einsum("bij,bjk,blk->bil", c, g, c) / -x.size
        out = 0.5 * (out + np.swapaxes(out, -1, -2))
        return self._vec(out), np.ones(p.shape[0], dtype=bool)

    def _random_point(self, rng, size=None):
        shape = () if size is None else (size,)
        g = np.empty(shape + (2, 2))
        g[..., 0, 0] = rng.standard_normal(shape)
        g[..., 1, 1] = rng.standard_normal(shape)
        g[..., 0, 1] = rng.standard_normal(shape) / np.sqrt(2.0)
        g[..., 1, 0] = g[..., 0, 1]
        return self._vec(_apply_sym(0.6 * g, np.exp))
