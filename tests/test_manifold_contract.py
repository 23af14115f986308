"""The Manifold contract: what a subclass writes and what it inherits."""

import numpy as np
import pytest

from geodp.experiments import generate
from geodp.geometry import Manifold
from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.regression import Dataset, _energy_rows, _grad_rows, fit

MANIFOLDS = [Sphere(), SPD(), KendallPreshape(5)]


class BareSphere(Manifold):
    """An extension manifold that writes only the abstract members, with the
    sphere's kernels: no __eq__, __hash__, _random_point, cut-locus guard or
    fused gradient."""

    kind = "bare-sphere"

    dim = Sphere.dim
    ambient_dim = Sphere.ambient_dim
    curvature_bounds = Sphere.curvature_bounds
    injectivity_radius = Sphere.injectivity_radius

    _point_defect = Sphere._point_defect
    _project = Sphere._project
    _tangent_defect = Sphere._tangent_defect
    _project_tangent = Sphere._project_tangent
    _exp = Sphere._exp
    _log = Sphere._log
    _dist = Sphere._dist
    _transport = Sphere._transport
    _inner = Sphere._inner
    _frame = Sphere._frame
    _gaussian_tangent = Sphere._gaussian_tangent


def test_instances_compare_and_hash_equal():
    a, b = BareSphere(), BareSphere()
    assert a == b and hash(a) == hash(b)
    assert a != Sphere()


def test_point_passes_another_instance_checked_api():
    a, b = BareSphere(), BareSphere()
    rng = np.random.default_rng(201)
    p = a.random_point(rng)
    q = a.random_point(rng)
    v = b.log_map(p, q)
    assert b.dist(b.exp_map(p, v), q) <= 1e-12


def test_inherited_random_point():
    man = BareSphere()
    rng = np.random.default_rng(202)
    one = man._random_point(rng)
    many = man._random_point(rng, 5)
    assert one.shape == (3,) and many.shape == (5, 3)
    assert np.all(man._point_defect(np.vstack([one, many])) <= 1e-12)


def test_fallback_pv_matches_single_calls_and_energy():
    man = BareSphere()
    data, _ = generate(man, 12, 0.01, seed=203)
    rng = np.random.default_rng(204)
    p = man._random_point(rng, 4)
    v = 0.3 * man._gaussian_tangent(p, rng.standard_normal((4, 3)))
    gp, gv, valid, e = _grad_rows(man, p, v, data.x, data.y, "pv")
    gp1, valid_p = _grad_rows(man, p, v, data.x, data.y, "p")
    gv1, valid_v = _grad_rows(man, p, v, data.x, data.y, "v")
    assert np.array_equal(gp, gp1) and np.array_equal(gv, gv1)
    assert np.array_equal(valid, valid_p) and np.array_equal(valid, valid_v)
    assert np.array_equal(e, _energy_rows(man, p, v, data.x, data.y))


def test_fit_converges_through_fallback():
    man = BareSphere()
    data, _ = generate(man, 20, 0.01, seed=205)
    report = fit(data)
    ref = fit(Dataset(data.x, data.y, Sphere()))
    assert report.converged
    assert Sphere()._dist(report.model.p.coords, ref.model.p.coords) <= 1e-6


@pytest.mark.parametrize("man", MANIFOLDS, ids=[m.kind for m in MANIFOLDS])
def test_frame_is_batched(man):
    """_frame broadcasts over a batch, gives metric-orthonormal rows, and
    gives each point the frame it gets alone."""
    X = man._random_point(np.random.default_rng(206), 7)
    F = man._frame(X)
    assert F.shape == (7, man.dim, man.ambient_dim)
    gram = man._inner(X[:, None, None, :], F[:, :, None, :], F[:, None, :, :])
    assert np.max(np.abs(gram - np.eye(man.dim))) <= 1e-12
    assert np.array_equal(F, np.stack([man._frame(x) for x in X]))
