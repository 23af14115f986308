"""The Jacobi-field coefficients: generalized cosine and sine of the curvature.

`privacy.sensitivity_p` and `privacy.sensitivity_v` build the KNG
sensitivity bounds from them, and the package exports both.  Both functions
treat |kappa| <= 1e-12 as flat and switch to the polynomial limit, which
keeps them continuous across the sign change.
"""

from __future__ import annotations

import numpy as np

FLAT_TOL = 1e-12


def c_coeff(kappa: float, s):
    """Generalized cosine: cos(sqrt(k)s), 1, or cosh(sqrt(-k)s) by sign of k."""
    s = np.asarray(s, dtype=float)
    if kappa > FLAT_TOL:
        out = np.cos(np.sqrt(kappa) * s)
    elif kappa < -FLAT_TOL:
        out = np.cosh(np.sqrt(-kappa) * s)
    else:
        out = np.ones_like(s)
    return out if out.ndim else float(out)


def s_coeff(kappa: float, s):
    """Generalized sine: sin(sqrt(k)s)/sqrt(k), s, or sinh(sqrt(-k)s)/sqrt(-k)."""
    s = np.asarray(s, dtype=float)
    if kappa > FLAT_TOL:
        r = np.sqrt(kappa)
        out = np.sin(r * s) / r
    elif kappa < -FLAT_TOL:
        r = np.sqrt(-kappa)
        out = np.sinh(r * s) / r
    else:
        out = s.copy()
    return out if out.ndim else float(out)
