"""Kendall preshape space of planar landmark configurations.

Points are centered, unit-norm complex k-vectors stored as interleaved
(re, im) pairs; the metric quotients out a global rotation, so every
operation must be invariant under a common unit-complex phase.
"""

import numpy as np
import pytest

from geodp.manifolds import KendallPreshape
from geodp.regression import _grad_rows, _predictions

K = 6
MAN = KendallPreshape(K)


def to_complex(flat):
    return flat[0::2] + 1j * flat[1::2]


def to_flat(z):
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def rotate(flat, phi):
    return to_flat(np.exp(1j * phi) * to_complex(flat))


def random_state(rng, scale=0.8):
    p = MAN._random_point(rng)
    v = MAN._gaussian_tangent(p, rng.standard_normal(MAN.ambient_dim))
    norm = float(MAN._norm(p, v))
    v = v / norm * rng.uniform(0.0, scale * MAN.injectivity_radius)
    return p, v


def test_constructor_rejects_small_configurations():
    with pytest.raises(ValueError):
        KendallPreshape(3)
    assert KendallPreshape(4).dim == 4
    assert MAN.dim == 2 * K - 4
    assert MAN.ambient_dim == 2 * K


def test_membership_centered_unit_norm():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = MAN._random_point(rng)
        z = to_complex(p)
        assert abs(z.sum()) <= 1e-10
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-10
        assert MAN._point_defect(p) <= 1e-10


def test_roundtrip_and_speed():
    rng = np.random.default_rng(22)
    for _ in range(200):
        p, v = random_state(rng)
        q = MAN._exp(p, v)
        nv = float(MAN._norm(p, v))
        assert MAN._point_defect(q) <= 1e-10
        assert np.linalg.norm(MAN._log(p, q) - v) <= 1e-8 * max(1.0, nv)
        assert MAN._dist(p, q) == pytest.approx(nv, abs=1e-8)


def test_rotation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p, v = random_state(rng)
        q = MAN._exp(p, v)
        phi = rng.uniform(0, 2 * np.pi)
        rp, rq = rotate(p, phi), rotate(q, phi)
        assert MAN._dist(rp, rq) == pytest.approx(MAN._dist(p, q), abs=1e-8)
        # exp commutes with the rotation when the tangent rotates too
        assert np.linalg.norm(MAN._exp(rp, rotate(v, phi)) - rotate(q, phi)) <= 1e-8
        # log from a rotated base is the rotated log
        assert np.linalg.norm(MAN._log(rp, rq) - rotate(MAN._log(p, q), phi)) <= 1e-8


def test_dist_ignores_representative_phase():
    rng = np.random.default_rng(24)
    p = MAN._random_point(rng)
    # arccos near 1 floors the absolute error around sqrt(eps)
    for phi in (0.3, 1.2, np.pi / 2):
        assert MAN._dist(p, rotate(p, phi)) <= 5e-8


def test_log_is_horizontal():
    rng = np.random.default_rng(25)
    for _ in range(100):
        p, v = random_state(rng)
        q = MAN._exp(p, v)
        u = MAN._log(p, q)
        z = to_complex(p)
        w = to_complex(u)
        assert abs(w.sum()) <= 1e-8                       # centered
        assert abs(np.vdot(z, w).real) <= 1e-8            # tangent to the sphere
        assert abs(np.vdot(z, w).imag) <= 1e-8            # orthogonal to i*base
        assert MAN._tangent_defect(p, u) <= 1e-8


def test_transport_isometry_and_horizontality():
    rng = np.random.default_rng(26)
    for _ in range(100):
        p, v = random_state(rng, scale=0.6)
        q = MAN._exp(p, v)
        u = MAN._gaussian_tangent(p, rng.standard_normal(MAN.ambient_dim))
        w = MAN._gaussian_tangent(p, rng.standard_normal(MAN.ambient_dim))
        gu = MAN._transport(p, q, u)
        gw = MAN._transport(p, q, w)
        assert MAN._inner(q, gu, gw) == pytest.approx(MAN._inner(p, u, w), abs=1e-8)
        assert MAN._tangent_defect(q, gu) <= 1e-8


def test_transport_to_rotated_target_rotates_output():
    rng = np.random.default_rng(27)
    p, v = random_state(rng, scale=0.5)
    q = MAN._exp(p, v)
    u = MAN._gaussian_tangent(p, rng.standard_normal(MAN.ambient_dim))
    phi = 0.9
    direct = MAN._transport(p, q, u)
    to_rotated = MAN._transport(p, rotate(q, phi), u)
    assert np.linalg.norm(to_rotated - rotate(direct, phi)) <= 1e-8


def test_frame_spans_horizontal_space():
    rng = np.random.default_rng(28)
    for _ in range(20):
        p = MAN._random_point(rng)
        frame = MAN._frame(p)
        assert frame.shape == (2 * K - 4, 2 * K)
        gram = frame @ frame.T
        assert np.abs(gram - np.eye(2 * K - 4)).max() <= 1e-10
        for row in frame:
            assert MAN._tangent_defect(p, row) <= 1e-10
        u = MAN._gaussian_tangent(p, rng.standard_normal(2 * K))
        coeff = frame @ u
        assert np.linalg.norm(coeff @ frame - u) <= 1e-10


def test_cut_locus_guard():
    """A response within 1e-9 of pi/2 from its prediction is past the guard,
    so the regression's validity mask refuses the model; one 1e-3 inside
    pi/2 is within it."""
    rng = np.random.default_rng(30)
    p = MAN._random_point(rng)
    v = MAN._gaussian_tangent(p, rng.standard_normal(MAN.ambient_dim))
    unit = v / MAN._norm(p, v)
    zero = np.zeros((1, MAN.ambient_dim))
    for gap, ok in ((1e-9, False), (1e-3, True)):
        Y = np.stack([p, MAN._exp(p, (np.pi / 2 - gap) * unit)])
        assert (MAN._dist(p, Y[1]) < MAN.cut_locus_radius) == ok
        for wrt in ("p", "v"):
            _, valid = _grad_rows(MAN, p[None], zero, np.array([0.0, 1.0]), Y, wrt)
            assert valid.tolist() == [ok]


def test_residual_dists_match_predictions_at_50_landmarks():
    """The fused residual distances, taken from two Hermitian products per
    record, agree with the distances from the predictions to 1e-12 on
    Kendall-50: at x = 0, at |v| = 0, and for a response 1e-7 short of pi/2
    from its prediction."""
    man = KendallPreshape(50)
    rng = np.random.default_rng(32)
    p = man._random_point(rng, 4)
    v = man._gaussian_tangent(p, rng.standard_normal(p.shape))
    v *= np.array([0.3, 0.0, 1.0, 1.4])[:, None] / man._norm(p, v)[:, None]
    x = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 18), [1.0]])
    preds = _predictions(man, p, v, x)
    noise = man._gaussian_tangent(preds[0], rng.standard_normal(preds[0].shape))
    noise /= man._norm(preds[0], noise)[:, None]
    noise *= np.where(np.arange(20) == 7, np.pi / 2 - 1e-7, 0.05)[:, None]
    Y = man._exp(preds[0], noise)
    got = man._residual_dists(p, v, x, Y)
    ref = man._dist(preds, Y[None])
    assert got.shape == (4, 20)
    assert abs(ref[0, 7] - (np.pi / 2 - 1e-7)) <= 1e-9
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_projection_centers_and_normalizes():
    rng = np.random.default_rng(31)
    raw = rng.standard_normal(2 * K) + 3.0
    z = to_complex(MAN._project(raw))
    assert abs(z.sum()) <= 1e-12
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
