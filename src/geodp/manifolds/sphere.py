"""Unit sphere S^2 embedded in R^3 with the round metric."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInput
from ..geometry import Manifold

_TINY = 1e-14
_NEAR = 1e-6  # |x + y| below which x and y are past the cut-locus guard


class Sphere(Manifold):
    """Unit two-sphere; curvature 1, injectivity radius pi."""

    kind = "sphere"

    @property
    def dim(self) -> int:
        return 2

    @property
    def ambient_dim(self) -> int:
        return 3

    @property
    def curvature_bounds(self) -> tuple[float, float]:
        return (1.0, 1.0)

    @property
    def injectivity_radius(self) -> float:
        return np.pi

    @property
    def cut_locus_radius(self) -> float:
        return np.pi - 1e-6

    # --- kernels -----------------------------------------------------------

    def _point_defect(self, x):
        return np.abs(np.linalg.norm(x, axis=-1) - 1.0)

    def _project(self, raw):
        n = np.linalg.norm(raw, axis=-1, keepdims=True)
        if np.any(n < 1e-12):
            raise DegenerateInput("cannot project the origin onto the sphere")
        return raw / n

    def _tangent_defect(self, x, u):
        return np.abs(np.einsum("...i,...i->...", x, u))

    def _project_tangent(self, x, u):
        return u - np.einsum("...i,...i->...", x, u)[..., None] * x

    def _exp(self, x, u):
        theta = np.linalg.norm(u, axis=-1, keepdims=True)
        safe = np.where(theta > _TINY, theta, 1.0)
        out = np.cos(theta) * x + np.sin(theta) * (u / safe)
        out = np.where(theta > _TINY, out, x + u)
        return out / np.linalg.norm(out, axis=-1, keepdims=True)

    def _log(self, x, y):
        # theta = atan2(|y - cx|, c) rather than arccos(c): accurate at both
        # ends, where arccos of the rounded dot product errs by sqrt(eps).
        c = np.clip(np.einsum("...i,...i->...", x, y), -1.0, 1.0)[..., None]
        w = y - c * x
        wn = np.linalg.norm(w, axis=-1, keepdims=True)
        theta = np.arctan2(wn, c)
        out = theta * w / np.where(wn > _TINY, wn, 1.0)
        return np.where(wn > _TINY, out, np.zeros_like(out))

    def _dist(self, x, y):
        c = np.clip(np.einsum("...i,...i->...", x, y), -1.0, 1.0)
        return np.arccos(c)

    def _transport(self, x, y, u):
        # Parallel transport along the minimising great circle in reflection
        # form: with s = x + y it is u - 2<u,s>/<s,s> s, exact for unit x, y
        # and u tangent at x, since <s,s> = 2(1 + <x,y>) and <u,s> = <u,y>.
        # It needs no log map, and unlike the spelling
        # u - <u,y>/(1+<x,y>) (x+y) it does not cancel near the antipode.
        # Where |s| <= _TINY, at the antipode up to rounding, the path is
        # undefined and u is returned.
        s = x + y
        ss = np.einsum("...i,...i->...", s, s)[..., None]
        us = np.einsum("...i,...i->...", u, s)[..., None]
        ok = ss > _TINY * _TINY
        out = np.where(ok, u - (2.0 * us / np.where(ok, ss, 1.0)) * s, u)
        out = self._project_tangent(y, out)
        # Past the cut-locus guard (|s| < 1e-6) the rounding of |x| and |y|
        # tilts the reflection off the tangent space at y by about eps/|s|, so
        # the projection shortens the result by the square of that; restore
        # the norm of u there.  Other rows keep their bits.
        near = ss < _NEAR * _NEAR
        if np.any(near):
            scale = self._norm(x, u) / np.maximum(self._norm(y, out), np.finfo(float).tiny)
            out = np.where(near, scale[..., None] * out, out)
        return out

    def _inner(self, x, u, w):
        return np.einsum("...i,...i->...", u, w)

    def _frame(self, x):
        # The axis where |x| is smallest, made tangent, then its cross product
        # with x.  The norm is a stacked dot product, which rounds like the
        # norm of a single vector, so a frame is the same alone or in a batch.
        k = np.argmin(np.abs(x), axis=-1)[..., None]
        b1 = (np.arange(3) == k) - np.take_along_axis(x, k, axis=-1) * x
        b1 = b1 / np.sqrt(b1[..., None, :] @ b1[..., :, None])[..., 0]
        return np.stack([b1, np.cross(x, b1)], axis=-2)

    def _gaussian_tangent(self, x, normals):
        return self._project_tangent(x, normals)

    def _log_exp_jacobian(self, x, u):
        # Curvature 1: the Jacobi field normal to the geodesic scales by
        # sin r / r at r = |u|.
        return np.log(np.sinc(np.linalg.norm(u, axis=-1) / np.pi))

    def _grad_energy_rows(self, p, v, x, Y, wrt):
        # Fused energy gradient.  Differentiating cos d_i = <exp_p(x_i v), y_i>
        # directly needs only (B, n) dot-product arrays and three contractions,
        # with no (B, n, 3) prediction / log / transport intermediates; this
        # dominates the sampler's step cost.  The contractions are stacked
        # matmuls, one BLAS call per row, so a row is bit-identical alone or
        # in a batch.  The rest is elementwise on (B, n) arrays.  The passes
        # reuse dead temporaries: "p" the cosines c, and "v", always the
        # last, ct, st and b.
        nv = np.linalg.norm(v, axis=-1, keepdims=True)
        safe = np.where(nv > _TINY, nv, 1.0)
        u = v / safe
        a = (p[:, None, :] @ Y.T)[:, 0]
        b = (u[:, None, :] @ Y.T)[:, 0]
        theta = x[None, :] * nv
        ct = np.cos(theta)
        st = np.sin(theta, out=theta)
        c = np.clip(ct * a + st * b, -1.0, 1.0)
        d = np.arccos(c)
        valid = np.all(d < self.cut_locus_radius, axis=-1)
        # w = d / sin(d) with sin(d) = sqrt((1 - c)(1 + c)) from the clipped
        # cosine, and 1 where that root is 0 (d = 0; d = pi is masked).
        sd = np.sqrt((1.0 - c) * (1.0 + c))
        w = np.divide(d, sd, out=np.ones_like(d), where=sd > 0.0)
        grads = []
        for var in wrt:
            if var == "p":
                coef_y = w * ct
                coef_u = -np.sum(np.multiply(w, st, out=c) * a, axis=-1)
            else:
                sc = np.where(nv > _TINY, st / safe, x[None, :])  # sin(theta) / |v|
                coef_y = w * sc
                ct *= b
                ct -= np.multiply(st, a, out=st)
                ct *= x[None, :]
                ct -= np.multiply(sc, b, out=b)
                coef_u = np.sum(np.multiply(w, ct, out=ct), axis=-1)
            g = -((coef_y[:, None, :] @ Y)[:, 0] + coef_u[:, None] * u) / x.size
            grads.append(self._project_tangent(p, g))
        if len(grads) == 1:
            return grads[0], valid
        return grads[0], grads[1], valid, 0.5 * np.mean(d * d, axis=-1)
