"""Finite-difference references for the exact manifold kernels.

A manifold writes its energy gradient (`_grad_energy_rows`) and its exp
volume factor (`_log_exp_jacobian`) in closed form.  These central
differences, built from its other kernels alone, are what the tests compare
them against; a new manifold's kernels can be checked the same way.
"""

import numpy as np

from geodp.regression import _energy_rows

_FD_STEP = 1e-6


def _grad_rows_fd(man, p, v, x, Y, wrt, step: float = _FD_STEP):
    """Central differences of the energy in the `_frame` basis at p, in the
    fused kernels' protocol: (rows, mask) for one gradient, (footpoint rows,
    shooting rows, mask, energy rows) for "pv"."""
    frames = man._frame(p)  # (B, dim, amb)
    grads = []
    for var in wrt:
        coeffs = np.empty(p.shape[:1] + (man.dim,))
        for j in range(man.dim):
            b = frames[:, j]
            if var == "p":
                pp = man._exp(p, step * b)
                pm = man._exp(p, -step * b)
                ep = _energy_rows(man, pp, man._transport(p, pp, v), x, Y)
                em = _energy_rows(man, pm, man._transport(p, pm, v), x, Y)
            else:
                ep = _energy_rows(man, p, man._project_tangent(p, v + step * b), x, Y)
                em = _energy_rows(man, p, man._project_tangent(p, v - step * b), x, Y)
            coeffs[:, j] = (ep - em) / (2.0 * step)
        grads.append(man._project_tangent(p, np.einsum("bj,bja->ba", coeffs, frames)))
    d = man._residual_dists(p, v, x, Y)
    valid = np.all(d < man.cut_locus_radius, axis=-1)
    if len(grads) == 1:
        return grads[0], valid
    return grads[0], grads[1], valid, 0.5 * np.mean(d * d, axis=-1)


def log_exp_jacobian_fd(man, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """log det of the differential of exp_x at u, between the orthonormal
    frames at x and at exp_x(u), from central differences of `_exp` along
    the `_frame` basis at x.  Valid for |u| below the injectivity radius."""
    step = 1e-5
    frames = man._frame(x)
    xs, us = x[..., None, :], u[..., None, :]
    cols = (man._exp(xs, us + step * frames) - man._exp(xs, us - step * frames)) / (2.0 * step)
    y = man._exp(x, u)[..., None, None, :]
    m = man._inner(y, man._frame(y[..., 0, 0, :])[..., None, :, :], cols[..., :, None, :])
    return np.linalg.slogdet(m)[1]
