"""2x2 symmetric positive-definite matrices with the affine-invariant metric.

Coordinates are the row-major flattening [a, b, b, c]; kernels reshape to
(..., 2, 2). Eigendecompositions are closed-form Jacobi rotations, so batched
matrix functions never call into LAPACK loops. Every kernel at a footpoint P
eigendecomposes P once: one whitening gives P^1/2, P^-1/2 and
P^-1/2 M P^-1/2, and the kernel is a function of the whitened matrix's
eigenvalues (Pennec, Fillard & Ayache, IJCV 2006).
"""

from __future__ import annotations

import numpy as np

from ..geometry import Manifold

# Largest condition number a point may have.  The kernels lose about
# cond * eps relative: at this bound the fused gradient still agrees with an
# isometrically moved well-conditioned problem to 1e-6 relative, and the
# exp/dist energy to 1e-4; at 1e10 they are off by 4e-5 and 5e-2.  Points
# past it fail membership, so such a dataset is refused as a data error.
MAX_CONDITION = 1e8
_FLOOR_CONDITION = (1.0 - 1e-6) * MAX_CONDITION

_EIG_FLOOR = 1e-10
_TINY = 1e-14

# Orthonormal basis of symmetric 2x2 matrices at the identity.
_FRAME_BASIS = np.array([
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0 / np.sqrt(2.0)], [1.0 / np.sqrt(2.0), 0.0]],
])


def _sym(m):
    """Symmetric part of (..., 2, 2) matrices."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _sym_eig2(m):
    """Eigendecomposition of symmetric (..., 2, 2) matrices, ascending.

    The Jacobi rotation by phi = atan2(2b, a - c) / 2 diagonalizes m, so the
    eigenvector columns (-sin phi, cos phi) and (cos phi, sin phi) are
    orthonormal for every input, repeated eigenvalues included.
    """
    a = m[..., 0, 0]
    b = m[..., 0, 1]
    c = m[..., 1, 1]
    half = 0.5 * (a + c)
    dev = 0.5 * (a - c)
    disc = np.hypot(dev, b)
    phi = 0.5 * np.arctan2(b, dev)
    lam = np.empty(m.shape[:-1])
    lam[..., 0], lam[..., 1] = half - disc, half + disc
    vecs = np.empty(m.shape)
    vecs[..., 0, 1] = vecs[..., 1, 0] = np.cos(phi)
    vecs[..., 1, 1] = np.sin(phi)
    vecs[..., 0, 0] = -vecs[..., 1, 1]
    return lam, vecs


def _compose(vecs, lam):
    """V diag(lam) V^T for (..., 2, 2) eigenvectors V."""
    return np.einsum("...ij,...j,...kj->...ik", vecs, lam, vecs)


def _apply_sym(m, fn):
    """fn applied to the eigenvalues of symmetric (..., 2, 2) matrices."""
    lam, vecs = _sym_eig2(m)
    return _compose(vecs, fn(lam))


def _roots(m):
    """P^1/2 and P^-1/2 of SPD (..., 2, 2) matrices from one eigendecomposition."""
    lam, vecs = _sym_eig2(m)
    root = np.sqrt(lam)
    return _compose(vecs, root), _compose(vecs, 1.0 / root)


def _log_sinhc(a):
    """log(sinh(a) / a) for a >= 0: a series below 1e-3, else
    a + log(1 - exp(-2a)) - log(2a), which cannot overflow."""
    small = a < 1e-3
    big = np.where(small, 1.0, a)
    far = big + np.log(-np.expm1(-2.0 * big)) - np.log(2.0 * big)
    return np.where(small, a * a * (1.0 / 6.0 - a * a / 180.0), far)


def _sq_lengths(logs):
    """Squared residual lengths: the squared Frobenius norms of the L_i."""
    return logs[..., 0, 0] ** 2 + logs[..., 1, 1] ** 2 + 2.0 * logs[..., 0, 1] ** 2


def _whiten(p, m):
    """P^1/2, P^-1/2 and the whitened P^-1/2 M P^-1/2 (symmetrized)."""
    half, ihalf = _roots(p)
    return half, ihalf, _sym(ihalf @ m @ ihalf)


class SPD(Manifold):
    """SPD(2) with metric <U, W>_P = tr(P^-1 U P^-1 W)."""

    kind = "spd"
    dim = 3
    ambient_dim = 4
    curvature_bounds = (-0.5, 0.0)
    injectivity_radius = np.inf

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
        lam, _ = _sym_eig2(_sym(m))
        ok = (lam[..., 0] > 0.0) & (lam[..., 1] <= MAX_CONDITION * lam[..., 0])
        return np.where(ok, sym, np.inf)

    def _project(self, raw):
        # Floors the eigenvalues at _EIG_FLOOR and the smallest at
        # 1 / _FLOOR_CONDITION of the largest, so only points past
        # MAX_CONDITION, or within 1e-6 of it, move.  Recomposing shifts the
        # condition number by about cond * eps = 2e-8 relative, so that
        # margin keeps the recomposed matrix inside the bound.  The outer
        # _sym makes the result exactly symmetric: _compose rounds the two
        # off-diagonal entries apart, which for entries near 1e8 exceeds
        # MEMBERSHIP_TOL.
        def floor(lam):
            return np.maximum(lam, np.maximum(_EIG_FLOOR, lam[..., 1:] / _FLOOR_CONDITION))

        return self._vec(_sym(_apply_sym(_sym(self._mat(raw)), floor)))

    def _tangent_defect(self, x, u):
        m = self._mat(u)
        return np.abs(m[..., 0, 1] - m[..., 1, 0])

    def _project_tangent(self, x, u):
        return self._vec(_sym(self._mat(u)))

    def _exp(self, x, u):
        return self._unwhiten(x, u, np.exp)

    def _log(self, x, y):
        return self._unwhiten(x, y, np.log)

    def _unwhiten(self, x, m, fn):
        # Exp and Log at P are P^1/2 fn(P^-1/2 M P^-1/2) P^1/2 with fn = exp, log.
        half, _, w = _whiten(self._mat(x), self._mat(m))
        return self._vec(_sym(half @ _apply_sym(w, fn) @ half))

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
        # E u E^T with E = P^1/2 (P^-1/2 Q P^-1/2)^1/2 P^-1/2.
        half, ihalf, w = _whiten(self._mat(x), self._mat(y))
        e = half @ _apply_sym(w, np.sqrt) @ ihalf
        return self._vec(_sym(e @ self._mat(u) @ np.swapaxes(e, -1, -2)))

    def _inner(self, x, u, w):
        pi = self._inv(self._mat(x))
        a = pi @ self._mat(u) @ pi @ self._mat(w)
        return a[..., 0, 0] + a[..., 1, 1]

    def _frame(self, x):
        # sqrt(P)-congruence of the identity-orthonormal basis; batched.
        half = _apply_sym(self._mat(x), np.sqrt)[..., None, :, :]
        return self._vec(half @ _FRAME_BASIS @ half)

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

    def _log_exp_jacobian(self, x, u):
        # Along u the Jacobi fields keep the diagonal of the eigenbasis of the
        # whitened P^-1/2 U P^-1/2 and scale its off-diagonal direction by
        # sinh(a) / a, with a half the gap of its eigenvalues.
        _, _, w = _whiten(self._mat(x), self._mat(u))
        return _log_sinhc(np.hypot(0.5 * (w[..., 0, 0] - w[..., 1, 1]), w[..., 0, 1]))

    def _residual_logs(self, p, v, x, Y):
        # The residuals in whitened coordinates.  With P^-1/2 v P^-1/2
        # = R diag(mu) R^T, the residual Log_{yhat_i} y_i transported back to
        # P is C L_i C^T, where C = P^1/2 R and L_i = log(D_i Z_i D_i) with
        # Z_i = A^T Y_i A, A = P^-1/2 R and D_i = diag(exp(-x_i mu / 2)).
        # Returns P^1/2, mu, R and the (B, n, 2, 2) logs L_i.  The
        # contractions use einsum rather than BLAS so a row is bit-identical
        # alone or in a batch, and a single footpoint row broadcasts over the
        # rows of v.
        half, ihalf = _roots(self._mat(p))
        w = np.einsum("...ij,...jk,...kl->...il", ihalf, self._mat(v), ihalf)
        mu, r = _sym_eig2(_sym(w))
        a = np.einsum("...ij,...jk->...ik", ihalf, r)
        z = np.einsum("bnik,bkl->bnil", np.einsum("bji,njk->bnik", a, self._mat(Y)), a)
        d = np.exp(-0.5 * x[None, :, None] * mu[:, None, :])
        return half, mu, r, _apply_sym(d[..., :, None] * z * d[..., None, :], np.log)

    def _residual_dists(self, p, v, x, Y):
        # From the whitened residuals, whose error stays near cond * eps;
        # predictions followed by `_dist` drift far more at ill-conditioned
        # footpoints.
        return np.sqrt(_sq_lengths(self._residual_logs(p, v, x, Y)[3]))

    def _grad_energy_rows(self, p, v, x, Y, wrt):
        # Fused exact gradient from the whitened residuals L_i of
        # `_residual_logs`.  SPD is a symmetric space: along x_i v the Jacobi
        # fields keep the diagonal of the R basis and scale its off-diagonal
        # entry by cosh(x_i a) (footpoint) or sinh(x_i a) / a (shooting
        # vector), with a = |mu_1 - mu_2| / 2, so the adjoint differentials
        # scale L_i's entries.  There is no cut locus.
        half, mu, r, logs = self._residual_logs(p, v, x, Y)
        t = x[None, :] * (0.5 * np.abs(mu[:, 1] - mu[:, 0]))[:, None]
        c = np.einsum("...ij,...jk->...ik", half, r)
        grads = []
        for var in wrt:
            if var == "p":
                on, off = 1.0, np.cosh(t)
            else:
                sinhc = np.where(t > _TINY, np.sinh(t) / np.where(t > _TINY, t, 1.0), 1.0)
                on, off = x, x * sinhc
            g = np.empty(mu.shape[:1] + (2, 2))
            g[:, 0, 0] = np.sum(on * logs[..., 0, 0], axis=-1)
            g[:, 1, 1] = np.sum(on * logs[..., 1, 1], axis=-1)
            g[:, 0, 1] = g[:, 1, 0] = np.sum(off * logs[..., 0, 1], axis=-1)
            out = np.einsum("bij,bjk,blk->bil", c, g, c) / -x.size
            grads.append(self._vec(_sym(out)))
        valid = np.ones(mu.shape[0], dtype=bool)
        if len(grads) == 1:
            return grads[0], valid
        return grads[0], grads[1], valid, 0.5 * np.mean(_sq_lengths(logs), axis=-1)

    def _random_point(self, rng, size=None):
        shape = () if size is None else (size,)
        g = np.empty(shape + (2, 2))
        g[..., 0, 0] = rng.standard_normal(shape)
        g[..., 1, 1] = rng.standard_normal(shape)
        g[..., 0, 1] = rng.standard_normal(shape) / np.sqrt(2.0)
        g[..., 1, 0] = g[..., 0, 1]
        return self._vec(_apply_sym(0.6 * g, np.exp))
