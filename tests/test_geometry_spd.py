"""SPD(2) manifold under the affine-invariant metric.

Oracles: scipy matrix functions for exp/log, eigenvalues of P^{-1}Q for the
distance, an RK4 integration of the geodesic equation, and a Schild's ladder
for parallel transport.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm, sqrtm

from geodp.manifolds import SPD
from geodp.manifolds.spd import MAX_CONDITION, _sym_eig2

MAN = SPD()


def as_matrix(flat):
    a, b, b2, c = flat
    return np.array([[a, b], [b2, c]])


def as_flat(mat):
    return np.array([mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]])


def random_spd(rng, scale=0.6):
    g = rng.standard_normal((2, 2))
    sym = 0.5 * (g + g.T) * scale
    return as_flat(expm(sym))


def random_tangent_at(rng, p, scale=0.6):
    return MAN._gaussian_tangent(p, rng.standard_normal(4)) * scale


def scipy_exp(p, v):
    P, V = as_matrix(p), as_matrix(v)
    ph = sqrtm(P)
    phi = np.linalg.inv(ph)
    return as_flat(ph @ expm(phi @ V @ phi) @ ph)


def scipy_log(p, q):
    P, Q = as_matrix(p), as_matrix(q)
    ph = sqrtm(P)
    phi = np.linalg.inv(ph)
    return as_flat(ph @ logm(phi @ Q @ phi) @ ph)


def test_exp_log_match_matrix_functions():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = random_spd(rng)
        v = random_tangent_at(rng, p)
        q = MAN._exp(p, v)
        assert np.linalg.norm(q - scipy_exp(p, v)) <= 1e-10 * max(1.0, np.linalg.norm(q))
        back = MAN._log(p, q)
        assert np.linalg.norm(back - v) <= 1e-9 * max(1.0, np.linalg.norm(v))
        assert np.linalg.norm(back - scipy_log(p, q)) <= 1e-9 * max(1.0, np.linalg.norm(v))


def test_dist_matches_eigenvalue_form():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p, q = random_spd(rng), random_spd(rng)
        lam = np.linalg.eigvals(np.linalg.inv(as_matrix(p)) @ as_matrix(q))
        expect = np.sqrt(np.sum(np.log(lam.real) ** 2))
        assert MAN._dist(p, q) == pytest.approx(expect, abs=1e-10)


def test_known_geodesic_endpoint():
    p = as_flat(np.eye(2))
    v = as_flat(np.diag([np.log(2.0), 0.0]))
    q = MAN._exp(p, v)
    assert np.allclose(as_matrix(q), np.diag([2.0, 1.0]), atol=1e-12)


def test_geodesic_equation_rk4():
    """Integrate gamma'' = gamma' gamma^{-1} gamma' and compare endpoints."""
    rng = np.random.default_rng(13)
    h = 1e-4
    for _ in range(3):
        p = random_spd(rng)
        v = random_tangent_at(rng, p, scale=0.5)
        G = as_matrix(p)
        V = as_matrix(v)

        def rhs(state):
            g, dg = state
            inv = np.linalg.inv(g)
            return dg, dg @ inv @ dg

        g, dg = G.copy(), V.copy()
        for _ in range(int(round(1.0 / h))):
            k1 = rhs((g, dg))
            k2 = rhs((g + 0.5 * h * k1[0], dg + 0.5 * h * k1[1]))
            k3 = rhs((g + 0.5 * h * k2[0], dg + 0.5 * h * k2[1]))
            k4 = rhs((g + h * k3[0], dg + h * k3[1]))
            g = g + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            dg = dg + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        assert np.linalg.norm(as_flat(g) - MAN._exp(p, v)) <= 1e-8


def test_affine_invariance():
    rng = np.random.default_rng(14)
    for _ in range(100):
        p, q = random_spd(rng), random_spd(rng)
        A = rng.standard_normal((2, 2))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.standard_normal((2, 2))
        cp = as_flat(A.T @ as_matrix(p) @ A)
        cq = as_flat(A.T @ as_matrix(q) @ A)
        assert MAN._dist(cp, cq) == pytest.approx(MAN._dist(p, q), abs=1e-8)


@pytest.mark.slow
def test_transport_isometry_and_ladder():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(50):
        p = random_spd(rng)
        q = MAN._exp(p, random_tangent_at(rng, p, scale=0.4))
        u = random_tangent_at(rng, p)
        w = random_tangent_at(rng, p)
        gu = MAN._transport(p, q, u)
        gw = MAN._transport(p, q, w)
        assert MAN._inner(q, gu, gw) == pytest.approx(MAN._inner(p, u, w), abs=1e-8)
        worst = max(worst, ladder_error(p, q, u))
    assert worst <= 1e-2


def ladder_error(p, q, u, steps=400):
    """Relative gap between the transport kernel and a Schild's ladder."""
    v = MAN._log(p, q)
    scale = float(MAN._norm(p, u))
    if scale == 0.0:
        return 0.0
    cur_p, cur_u, rung = p, u, 1e-2
    for i in range(steps):
        nxt = MAN._exp(p, v * (i + 1) / steps)
        a = MAN._exp(cur_p, cur_u / scale * rung)
        mid = MAN._exp(a, 0.5 * MAN._log(a, nxt))
        b = MAN._exp(cur_p, 2.0 * MAN._log(cur_p, mid))
        cur_u = MAN._log(nxt, b) / rung * scale
        cur_p = nxt
    got = MAN._transport(p, q, u)
    return float(MAN._norm(q, got - cur_u)) / max(1.0, scale)


def test_membership_projection_floors_eigenvalues():
    nearly_singular = as_flat(np.array([[1.0, 1.0], [1.0, 1.0]]))
    proj = MAN._project(nearly_singular)
    assert np.linalg.eigvalsh(as_matrix(proj)).min() > 0.0
    assert MAN._point_defect(proj) <= 1e-10


def test_membership_refuses_points_past_max_condition():
    """Kernels lose about cond * eps at a footpoint, so points past
    MAX_CONDITION fail membership, and the projection brings them back.
    Points inside the bound, up to its 1e-6 margin, stay where they are."""
    inside = as_flat(rotated(0.5 * MAX_CONDITION))
    for cond in (0.5 * MAX_CONDITION, 0.999 * MAX_CONDITION):
        member = as_flat(rotated(cond))
        assert np.linalg.norm(MAN._project(member) - member) <= 4 * np.finfo(float).eps
    past = as_flat(rotated(2.0 * MAX_CONDITION))
    assert MAN._point_defect(inside) <= 1e-10
    assert MAN._point_defect(past) == np.inf
    with pytest.raises(ValueError, match="membership"):
        MAN.point(past)
    proj = MAN._project(past)
    assert np.linalg.cond(as_matrix(proj)) <= MAX_CONDITION
    assert MAN._point_defect(proj) <= 1e-10
    assert np.linalg.norm(proj - past) <= 2.0 / MAX_CONDITION  # the largest eigenvalue is 1


def test_projection_keeps_members_members():
    """The projection of a member passes membership, whatever its scale: over
    20 000 rotated members with smallest eigenvalue 1e-3 to 1e3 and
    condition number 1 to 10**7.9, and at eigenvalues 1e8 and 3e8, where
    recomposing rounds the two off-diagonal entries 1.5e-8 apart."""
    rng = np.random.default_rng(17)
    n = 20_000
    low = 10.0 ** rng.uniform(-3.0, 3.0, n)
    lam = np.stack([low, low * 10.0 ** rng.uniform(0.0, 7.9, n)], axis=-1)
    lam = np.concatenate([lam, [[1e8, 3e8]]])
    angle = np.append(rng.uniform(0.0, np.pi, n), 0.3)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    m = rot @ (lam[..., None] * np.swapaxes(rot, -1, -2))
    m[:, 1, 0] = m[:, 0, 1]
    members = m.reshape(n + 1, 4)
    assert np.all(MAN._point_defect(members) == 0.0)
    assert np.all(MAN._point_defect(MAN._project(members)) <= 1e-10)


def test_tangent_space_is_symmetric_matrices():
    rng = np.random.default_rng(16)
    p = random_spd(rng)
    raw = rng.standard_normal(4)
    t = MAN._project_tangent(p, raw)
    assert t[1] == pytest.approx(t[2], abs=1e-15)
    assert MAN._tangent_defect(p, t) <= 1e-10


def test_frame_orthonormal_under_metric():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = random_spd(rng)
        frame = MAN._frame(p)
        assert frame.shape == (3, 4)
        for i in range(3):
            for j in range(3):
                got = MAN._inner(p, frame[i], frame[j])
                assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)
        u = random_tangent_at(rng, p)
        coeff = np.array([MAN._inner(p, u, b) for b in frame])
        assert np.linalg.norm(coeff @ frame - u) <= 1e-9


def test_no_cut_locus():
    rng = np.random.default_rng(18)
    p = random_spd(rng)
    far = MAN._exp(p, MAN._project_tangent(p, 20.0 * np.eye(2).reshape(4)))
    v = MAN._log(p, far)
    assert MAN.cut_locus_radius == np.inf
    assert MAN._dist(p, far) == pytest.approx(float(MAN._norm(p, v)), rel=1e-10)


EPS = np.finfo(float).eps


def check_sym_eig2(m):
    """Ascending eigenvalues, orthonormal eigenvectors to a few ulp, and
    V diag(lam) V^T equal to m to a few ulp of its norm."""
    lam, vecs = _sym_eig2(m)
    assert lam[0] <= lam[1]
    assert np.abs(vecs.T @ vecs - np.eye(2)).max() <= 4 * EPS
    rebuilt = vecs @ np.diag(lam) @ vecs.T
    assert np.linalg.norm(rebuilt - m) <= 4 * EPS * np.linalg.norm(m) + 1e-300


def rotated(cond, angle=0.3):
    r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    m = r @ np.diag([1.0, 1.0 / cond]) @ r.T
    m[1, 0] = m[0, 1]
    return m


@pytest.mark.parametrize("m", [
    3.0 * np.eye(2),
    np.diag([1.0, 5.0]),
    np.diag([5.0, 1.0]),
    np.array([[2.0, 1e-300], [1e-300, 2.0]]),
    np.array([[2.0, -1e-300], [-1e-300, 2.0]]),
    rotated(1e4),
    rotated(1e8),
    rotated(1e12),
    np.array([[1.0, 2.0], [2.0, -3.0]]),
], ids=["scalar", "diag_a_lt_c", "diag_a_gt_c", "offdiag_+1e-300", "offdiag_-1e-300",
        "cond_1e4", "cond_1e8", "cond_1e12", "indefinite"])
def test_sym_eig2_cases(m):
    check_sym_eig2(m)


ENTRY = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(ENTRY, ENTRY, ENTRY)
def test_sym_eig2_property(a, b, c):
    check_sym_eig2(np.array([[a, b], [b, c]]))


@pytest.mark.parametrize("kernel", ["exp", "log", "transport"])
def test_kernel_batch_row_matches_single_call(kernel):
    """Row b of a batched kernel equals the batch-of-one call bit for bit:
    the footpoint chain steps with these kernels, so its path must not
    depend on the batch it runs in."""
    rng = np.random.default_rng(19)
    p = MAN._random_point(rng, 40)
    q = MAN._random_point(rng, 40)
    u = MAN._gaussian_tangent(p, rng.standard_normal((40, 3)))
    calls = {
        "exp": lambda s: MAN._exp(p[s], u[s]),
        "log": lambda s: MAN._log(p[s], q[s]),
        "transport": lambda s: MAN._transport(p[s], q[s], u[s]),
    }
    batch = calls[kernel](slice(None))
    for b in range(40):
        assert batch[b].tobytes() == calls[kernel](slice(b, b + 1))[0].tobytes()
