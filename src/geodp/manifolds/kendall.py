"""Kendall shape space for k planar landmarks, worked in preshape coordinates.

A preshape is a centered, unit-norm configuration of k complex landmarks.
Points are stored as interleaved real coordinates (re0, im0, re1, im1, ...).
All operations act modulo rotation: distances use the phase-aligned
representative, tangent vectors are horizontal (orthogonal to the base and to
the vertical rotation direction i*base), and transports re-phase their output
to the caller's representative.  This realizes the shape manifold without ever
leaving preshape coordinates.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DegenerateInput, is_integer
from ..geometry import Manifold

_TINY = 1e-14


def _as_complex(x):
    return np.ascontiguousarray(x).view(np.complex128)


def _as_real(z):
    return np.ascontiguousarray(z).view(np.float64)


def _center(z):
    """z less its centroid over the landmark axis.  sum / k rounds exactly as
    np.mean does and skips its Python-level wrapper, which costs more than
    the sum at chain-step sizes."""
    return z - z.sum(axis=-1, keepdims=True) / z.shape[-1]


def _herm(z, w):
    """Hermitian inner product sum(conj(z) * w) over the landmark axis."""
    return np.einsum("...i,...i->...", np.conj(z), w)


def _align(z, w):
    """Phase-align w to z so the geodesic between them is horizontal.

    Returns the unit phase of <z, w>, the distance, and the offset of the
    aligned target from z together with its norm.  The distance is
    atan2(|offset|, |<z, w>|): arccos of the rounded |<z, w>| would read a
    rounding of a few eps below 1 as an angle of sqrt(2 * few * eps).
    """
    s = _herm(z, w)[..., None]
    r = np.abs(s)
    phase = np.where(r > _TINY, s / np.where(r > _TINY, r, 1.0), 1.0)
    rc = np.clip(r, 0.0, 1.0)
    perp = w * np.conj(phase) - rc * z
    pn = np.linalg.norm(perp, axis=-1, keepdims=True)
    return phase, np.arctan2(pn, rc), perp, pn


class KendallPreshape(Manifold):
    """Shape space of k >= 4 planar landmarks; curvature in [1, 4]."""

    kind = "kendall"

    def __init__(self, landmarks: int):
        if not (is_integer(landmarks) and landmarks >= 4):
            raise ConfigError("kendall shape space needs an integer of at least 4 "
                              f"landmarks, got {landmarks!r}")
        self.landmarks = int(landmarks)

    @property
    def dim(self) -> int:
        return 2 * self.landmarks - 4

    @property
    def ambient_dim(self) -> int:
        return 2 * self.landmarks

    @property
    def curvature_bounds(self) -> tuple[float, float]:
        return (1.0, 4.0)

    @property
    def injectivity_radius(self) -> float:
        return np.pi / 2

    @property
    def cut_locus_radius(self) -> float:
        return np.pi / 2 - 1e-6

    def spec(self) -> dict:
        return {"kind": self.kind, "landmarks": self.landmarks}

    def __repr__(self):
        return f"KendallPreshape({self.landmarks})"

    # --- kernels -----------------------------------------------------------

    def _point_defect(self, x):
        z = _as_complex(x)
        centroid = np.abs(np.sum(z, axis=-1))
        unit = np.abs(np.linalg.norm(z, axis=-1) - 1.0)
        return np.maximum(centroid, unit)

    def _project(self, raw):
        z = _as_complex(raw)
        z = _center(z)
        n = np.linalg.norm(z, axis=-1, keepdims=True)
        if np.any(n < 1e-12):
            raise DegenerateInput("landmarks coincide; no shape after centering")
        return _as_real(z / n)

    def _tangent_defect(self, x, u):
        z = _as_complex(x)
        w = _as_complex(u)
        centroid = np.abs(np.sum(w, axis=-1))
        return np.maximum(centroid, np.abs(_herm(z, w)))

    def _project_tangent(self, x, u):
        z = _as_complex(x)
        w = _as_complex(u)
        w = _center(w)
        w = w - _herm(z, w)[..., None] * z
        return _as_real(w)

    def _exp(self, x, u):
        z = _as_complex(x)
        w = _as_complex(u)
        theta = np.linalg.norm(w, axis=-1, keepdims=True)
        safe = np.where(theta > _TINY, theta, 1.0)
        out = np.cos(theta) * z + np.sin(theta) * (w / safe)
        out = np.where(theta > _TINY, out, z + w)
        out = _center(out)
        out = out / np.linalg.norm(out, axis=-1, keepdims=True)
        return _as_real(out)

    def _log(self, x, y):
        z = _as_complex(x)
        _, theta, perp, pn = _align(z, _as_complex(y))
        out = theta * perp / np.where(pn > _TINY, pn, 1.0)
        out = np.where(pn > _TINY, out, np.zeros_like(out))
        return _as_real(out)

    def _dist(self, x, y):
        z = _as_complex(x)
        w = _as_complex(y)
        return np.arccos(np.clip(np.abs(_herm(z, w)), 0.0, 1.0))

    def _transport(self, x, y, u):
        z = _as_complex(x)
        v = _as_complex(u)
        phase, theta, perp, pn = _align(z, _as_complex(y))
        e = perp / np.where(pn > _TINY, pn, 1.0)
        # Complex coefficient moves both the e and i*e components at once.
        coeff = _herm(e, v)[..., None]
        moved = v + coeff * ((np.cos(theta) - 1.0) * e - np.sin(theta) * z)
        moved = np.where(pn > _TINY, moved, v)
        out = _as_real(moved * phase)
        return self._project_tangent(y, out)

    def _inner(self, x, u, w):
        return np.einsum("...i,...i->...", u, w)

    def _frame(self, x):
        # Leading singular vectors of the projector onto the complement of
        # the four normal directions; one SVD per point.
        k = self.landmarks
        normals = np.zeros(x.shape[:-1] + (4, 2 * k))
        normals[..., 0, 0::2] = 1.0 / np.sqrt(k)  # real translation
        normals[..., 1, 1::2] = 1.0 / np.sqrt(k)  # imaginary translation
        normals[..., 2, :] = x                    # radial direction
        normals[..., 3, 0::2] = -x[..., 1::2]     # vertical rotation direction
        normals[..., 3, 1::2] = x[..., 0::2]
        proj = np.eye(2 * k) - np.swapaxes(normals, -1, -2) @ normals
        u, _, _ = np.linalg.svd(proj)
        return np.swapaxes(u[..., : self.dim], -1, -2)

    def _gaussian_tangent(self, x, normals):
        return self._project_tangent(x, normals)

    def _log_exp_jacobian(self, x, u):
        # CP^(k-2) with holomorphic curvature 4: along u the Jacobi field in
        # the direction i u scales by sin 2r / 2r at r = |u|, the other 2k - 6
        # normal ones by sin r / r.
        r = np.linalg.norm(u, axis=-1) / np.pi
        return (2 * self.landmarks - 6) * np.log(np.sinc(r)) + np.log(np.sinc(2.0 * r))

    def _products(self, p, v, x, Y):
        """The (B, n) Hermitian products of the fused kernels.  With
        u = v / |v| and theta_i = x_i |v| the prediction exp_p(x_i v) is
        cos(theta_i) p + sin(theta_i) u, so s_i = <exp_p(x_i v), y_i> is
        cos(theta_i) a_i + sin(theta_i) b_i for a_i = <p, y_i> and
        b_i = <u, y_i>.  The contractions are stacked matmuls, one BLAS
        call per row, so a row is bit-identical alone or in a batch.  Returns
        |v| (B, 1), u, a, b, cos(theta), sin(theta) and s."""
        Yt = np.ascontiguousarray(_as_complex(Y).T)  # a faster BLAS layout than the view
        nv = np.sqrt((v * v).sum(-1, keepdims=True))  # np.linalg.norm's rounding
        u = _as_complex(v / np.where(nv > _TINY, nv, 1.0))
        a = (np.conj(_as_complex(p))[:, None, :] @ Yt)[:, 0]
        b = (np.conj(u)[:, None, :] @ Yt)[:, 0]
        theta = x * nv
        ct = np.cos(theta)
        st = np.sin(theta, out=theta)
        return nv, u, a, b, ct, st, ct * a + st * b

    def _residual_dists(self, p, v, x, Y):
        # arccos|s_i| from the products alone, as the fused gradient takes it,
        # with no (B, n, 2k) predictions.
        r = np.abs(self._products(p, v, x, Y)[-1])
        return np.arccos(np.minimum(r, 1.0, out=r))

    def _grad_energy_rows(self, p, v, x, Y, wrt):
        # Fused energy gradient, as on the sphere: the residual is
        # d_i = arccos|s_i| (`_products`), and differentiating |s_i| needs
        # only the (B, n) products.  The weight ws_i = -w_i conj(s_i) / (n |s_i|)
        # with w_i = d_i / sin(d_i) carries the phase that aligns each
        # response with its prediction, 1 where |s_i| <= _TINY, and the
        # energy's -1/n.  The rows combine the centred y_i and u, so one
        # Hermitian removal of <p, g> p makes them tangent.
        z = _as_complex(p)
        Yc = _as_complex(Y)
        nv, u, a, b, ct, st, s = self._products(p, v, x, Y)
        r = np.minimum(np.abs(s), 1.0)
        d = np.arccos(r)
        valid = (d < self.cut_locus_radius).all(-1)
        # w = d / sin(d) with sin(d) = sqrt((1 - |s|)(1 + |s|)) from the
        # clipped |s|, and 1 where that root is 0 (d = 0).
        sd = np.sqrt((1.0 - r) * (1.0 + r))
        w = np.divide(d, sd, out=np.ones_like(d), where=sd > 0.0)
        tiny = r <= _TINY
        np.copyto(s, 1.0, where=tiny)
        np.copyto(r, 1.0, where=tiny)
        w *= -1.0 / x.size
        ws = np.conj(s, out=s)
        ws *= w / r
        wa = ws * a
        grads = []
        for var in wrt:
            if var == "p":
                coef_y = ct * ws
                coef_u = -np.conj((st * wa).sum(-1))
            else:
                sc = np.where(nv > _TINY, st / np.where(nv > _TINY, nv, 1.0), x)
                sb = (ws * b).real
                coef_y = sc * ws
                coef_u = (x * (ct * sb - st * wa.real) - sc * sb).sum(-1)
            g = (coef_y[:, None, :] @ Yc)[:, 0] + coef_u[:, None] * u
            g -= (np.conj(z)[:, None, :] @ g[:, :, None])[:, 0] * z
            grads.append(_as_real(g))
        if len(grads) == 1:
            return grads[0], valid
        return grads[0], grads[1], valid, 0.5 * ((d * d).sum(-1) / x.size)
