"""Kernels at edge inputs: Kendall shapes up to the cut-locus guard, tangent
vectors down to 1e-12, and sphere points near the antipode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.sampling import _steps

EPS = np.finfo(float).eps
SPHERE = Sphere()
KENDALL = KendallPreshape(6)
MANIFOLDS = {"sphere": SPHERE, "spd": SPD(), "kendall": KENDALL}
SEED = st.integers(0, 2**32 - 1)


def unit_tangent(man, x, rng):
    u = man._gaussian_tangent(x, rng.standard_normal(man.ambient_dim))
    return u / man._norm(x, u)


@settings(max_examples=300, deadline=None)
@given(SEED, st.floats(min_value=-6.0, max_value=0.0),
       st.floats(min_value=-12.0, max_value=3.0))
def test_kendall_log_exp_and_transport_up_to_the_guard(seed, log_gap, log_size):
    """At distances d = pi/2 - gap from about 0.57 up to the guard
    pi/2 - 1e-6, _log inverts _exp and _transport is an isometry into the
    horizontal space at the target.  Near pi/2 the rounded <z, w> fixes the
    aligning phase only to about eps / cos d, so the round trip's bound
    carries that factor."""
    rng = np.random.default_rng(seed)
    x = KENDALL._random_point(rng)
    d = np.pi / 2 - 10.0 ** log_gap
    u = d * unit_tangent(KENDALL, x, rng)
    y = KENDALL._exp(x, u)
    assert np.linalg.norm(KENDALL._log(x, y) - u) <= 16 * EPS / np.cos(d)

    w = 10.0 ** log_size * unit_tangent(KENDALL, x, rng)
    size = np.linalg.norm(w)
    moved = KENDALL._transport(x, y, w)
    assert abs(np.linalg.norm(moved) - size) <= 8 * EPS * size
    assert KENDALL._tangent_defect(y, moved) <= 8 * EPS * size


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
@settings(max_examples=100, deadline=None)
@given(seed=SEED, log_r=st.floats(min_value=-12.0, max_value=-6.0))
def test_tiny_tangents_stay_finite(name, seed, log_r):
    """For tangent vectors from 1e-12 to 1e-6, _exp, _log and the proposal
    increments of sampling._steps are finite."""
    man = MANIFOLDS[name]
    rng = np.random.default_rng(seed)
    r = 10.0 ** log_r
    x = man._random_point(rng)
    y = man._exp(x, r * unit_tangent(man, x, rng))
    steps = _steps(man, x[None], r * rng.standard_normal((1, man.ambient_dim)),
                   np.array([r]))
    assert np.all(np.isfinite(y))
    assert np.all(np.isfinite(man._log(x, y)))
    assert np.all(np.isfinite(steps))


@settings(max_examples=200, deadline=None)
@given(SEED, st.floats(min_value=-12.0, max_value=-6.0))
def test_kendall_log_exp_floor_at_tiny_tangents(seed, log_r):
    """For |u| from 1e-12 to 1e-6, _log(x, _exp(x, u)) returns u to a few
    eps absolute, with no floor: _align takes the angle as atan2 of the
    offset's norm and |<z, w>|, as the sphere's _log does.  arccos of the
    rounded |<z, w>| read a rounding of a few eps below 1 as an angle of
    sqrt(2 * few * eps), off by up to 2.6e-8."""
    rng = np.random.default_rng(seed)
    x = KENDALL._random_point(rng)
    u = 10.0 ** log_r * unit_tangent(KENDALL, x, rng)
    got = KENDALL._log(x, KENDALL._exp(x, u))
    assert np.linalg.norm(got - u) <= 64 * EPS


@settings(max_examples=300, deadline=None)
@given(SEED, st.floats(min_value=-17.0, max_value=-3.0),
       st.floats(min_value=0.0, max_value=2 * np.pi),
       st.floats(min_value=-12.0, max_value=3.0), st.booleans())
def test_sphere_transport_is_an_isometry_near_the_antipode(seed, log_gap, phi, log_size,
                                                           exact):
    """Within 1e-3 of the antipode of x, the exact antipode included,
    _transport returns a finite vector tangent at y with the length of u.
    Past the cut-locus guard the rounding of x and y leaves the reflection
    off the tangent space at y by about eps / |x + y|, which the kernel's
    norm restoration undoes."""
    rng = np.random.default_rng(seed)
    x = SPHERE._random_point(rng)
    e2 = unit_tangent(SPHERE, x, rng)
    d = np.pi - 10.0 ** log_gap
    y = -x if exact else np.cos(d) * x + np.sin(d) * e2
    size = 10.0 ** log_size
    u = size * (np.cos(phi) * e2 + np.sin(phi) * np.cross(x, e2))
    got = SPHERE._transport(x, y, u)
    assert np.all(np.isfinite(got))
    assert abs(np.dot(got, y)) <= 8 * EPS * size
    assert abs(np.linalg.norm(got) - np.linalg.norm(u)) <= 8 * EPS * size
