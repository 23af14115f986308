"""Sphere geometry kernels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodp.manifolds import Sphere

RNG = np.random.default_rng(8821)
MAN = Sphere()


def random_state(rng, scale=0.8):
    p = MAN._random_point(rng)
    v = MAN._gaussian_tangent(p, rng.standard_normal(3))
    norm = float(MAN._norm(p, v))
    v = v / norm * rng.uniform(0.0, scale * MAN.injectivity_radius)
    return p, v


def test_roundtrip_and_speed():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p, v = random_state(rng)
        q = MAN._exp(p, v)
        back = MAN._log(p, q)
        nv = float(MAN._norm(p, v))
        assert np.linalg.norm(back - v) <= 1e-8 * max(1.0, nv)
        assert MAN._dist(p, q) == pytest.approx(nv, abs=1e-8)
        for t in np.linspace(0.1, 1.0, 10):
            assert MAN._dist(p, MAN._exp(p, t * v)) == pytest.approx(t * nv, abs=1e-8)


def test_dist_matches_atan2_form():
    # arccos form of the implementation vs the numerically independent atan2 form
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y = MAN._random_point(rng), MAN._random_point(rng)
        expect = np.arctan2(np.linalg.norm(np.cross(x, y)), np.dot(x, y))
        assert MAN._dist(x, y) == pytest.approx(expect, abs=1e-12)


def test_transport_matches_rotation_matrix():
    # transport along the great circle equals the rotation about x cross y
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = MAN._random_point(rng)
        y = MAN._random_point(rng)
        if MAN._dist(x, y) >= MAN.cut_locus_radius - 1e-3:
            continue
        u = MAN._gaussian_tangent(x, rng.standard_normal(3))
        axis = np.cross(x, y)
        na = np.linalg.norm(axis)
        if na < 1e-12:
            continue
        k = axis / na
        ang = MAN._dist(x, y)
        rotated = (u * np.cos(ang) + np.cross(k, u) * np.sin(ang)
                   + k * np.dot(k, u) * (1 - np.cos(ang)))
        got = MAN._transport(x, y, u)
        assert np.linalg.norm(got - rotated) <= 1e-10 * max(1.0, np.linalg.norm(u))


def test_transport_isometry_and_own_velocity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p, v = random_state(rng)
        q = MAN._exp(p, v)
        u = MAN._gaussian_tangent(p, rng.standard_normal(3))
        w = MAN._gaussian_tangent(p, rng.standard_normal(3))
        gu, gw = MAN._transport(p, q, u), MAN._transport(p, q, w)
        assert MAN._inner(q, gu, gw) == pytest.approx(MAN._inner(p, u, w), abs=1e-8)
        # the geodesic's own velocity arrives as minus the return direction
        moved = MAN._transport(p, q, v)
        assert np.linalg.norm(moved + MAN._log(q, p)) <= 1e-9 * max(1.0, float(MAN._norm(p, v)))


EPS = np.finfo(float).eps


def rotation_oracle(k, ang, u):
    """u rotated by ang about the unit axis k (Rodrigues)."""
    return (u * np.cos(ang) + np.cross(k, u) * np.sin(ang)
            + k * np.dot(k, u) * (1 - np.cos(ang)))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=np.pi - 1e-7), st.integers(0, 2**32 - 1),
       st.floats(min_value=0.0, max_value=2 * np.pi), st.integers(-100, 3))
def test_transport_properties(d, seed, phi, log_scale):
    """Transport from x to y at distance d is tangent at y, an isometry, maps
    log_x(y) to -log_y(x) and matches the rotation about x cross y.  Near the
    antipode the inputs, rounded to doubles, fix the great circle only to
    about eps / (pi - d), so the tolerance widens by that much there."""
    rng = np.random.default_rng(seed)
    e1 = MAN._random_point(rng)
    e2 = MAN._gaussian_tangent(e1, rng.standard_normal(3))
    e2 /= np.linalg.norm(e2)
    k = np.cross(e1, e2)
    x, y = e1, np.cos(d) * e1 + np.sin(d) * e2
    size = 10.0 ** log_scale
    u = size * (np.cos(phi) * e2 + np.sin(phi) * k)
    tol = 1e-12 + 8 * EPS / (np.pi - d)

    got = MAN._transport(x, y, u)
    assert abs(np.dot(got, y)) <= 4 * EPS * size
    assert abs(np.linalg.norm(got) - np.linalg.norm(u)) <= 4 * EPS * size
    assert np.linalg.norm(got - rotation_oracle(k, d, u)) <= tol * size
    # log_x(y) and -log_y(x) from the geodesic t -> cos(t) e1 + sin(t) e2, since
    # the arccos in _log errs by up to sqrt(eps) at small d
    moved = MAN._transport(x, y, d * e2)
    assert np.linalg.norm(moved - d * (np.cos(d) * e2 - np.sin(d) * e1)) <= tol * max(d, 1.0)


@pytest.mark.parametrize("where", ["same", "antipode"])
def test_transport_fixed_points_return_u(where):
    """At x = y (the constant path) and at the exact antipode (no unique
    path) transport returns u itself, with no NaN and no floating-point
    warning."""
    rng = np.random.default_rng(7)
    x = MAN._random_point(rng, 20)
    y = x if where == "same" else -x
    u = MAN._gaussian_tangent(x, rng.standard_normal((20, 3)))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = MAN._transport(x, y, u)
    assert np.all(np.isfinite(got))
    assert np.abs(got - u).max() <= 4 * EPS * np.abs(u).max()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(min_value=0.0, max_value=2 * np.pi),
       st.floats(min_value=np.log(1e-12), max_value=np.log(3.0)))
def test_log_inverts_exp_at_every_length(seed, phi, log_r):
    """_log(x, _exp(x, u)) returns u to rounding for |u| from 1e-12 to 3.  An
    arccos of the rounded <x, y> errs by sqrt(eps) at short lengths.  Near
    the antipode the rounding of y is amplified by |u| / sin|u| across the
    geodesic, so the relative part of the bound carries that factor."""
    x = MAN._random_point(np.random.default_rng(seed))
    r = float(np.exp(log_r))
    b1, b2 = MAN._frame(x)
    u = r * (np.cos(phi) * b1 + np.sin(phi) * b2)
    got = MAN._log(x, MAN._exp(x, u))
    eps = np.finfo(float).eps
    assert np.linalg.norm(got - u) <= 1e-15 + 8 * eps * r * max(1.0, r / np.sin(r))


def test_membership_and_tangency_maintained():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p, v = random_state(rng)
        q = MAN._exp(p, v)
        assert MAN._point_defect(q) <= 1e-10
        moved = MAN._transport(p, q, v)
        assert MAN._tangent_defect(q, moved) <= 1e-10


def test_frame_orthonormal_and_reconstructs():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = MAN._random_point(rng)
        frame = MAN._frame(p)
        assert frame.shape == (2, 3)
        gram = frame @ frame.T
        assert np.abs(gram - np.eye(2)).max() <= 1e-10
        assert np.abs(frame @ p).max() <= 1e-10
        u = MAN._gaussian_tangent(p, rng.standard_normal(3))
        coeff = frame @ u
        assert np.linalg.norm(coeff @ frame - u) <= 1e-10


def test_exp_log_dist_closed_form_spot_values():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert MAN._dist(x, y) == pytest.approx(np.pi / 2, abs=1e-15)
    v = MAN._log(x, y)
    assert np.allclose(v, [0.0, np.pi / 2, 0.0], atol=1e-15)
    q = MAN._exp(x, np.array([0.0, np.pi, 0.0]) / 2)
    assert np.allclose(q, y, atol=1e-15)


def test_projection_normalizes():
    raw = np.array([3.0, 4.0, 0.0])
    assert np.allclose(MAN._project(raw), [0.6, 0.8, 0.0], atol=1e-15)


def test_zero_tangent_and_exp_identity():
    p = np.array([0.0, 0.0, 1.0])
    q = MAN._exp(p, np.zeros(3))
    assert MAN._dist(p, q) <= 1e-15
