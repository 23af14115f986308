"""The Manifold contract: what a subclass writes and what it inherits."""

import warnings

import numpy as np
import pytest

from geodp.errors import ManifoldMismatch
from geodp.experiments import generate
from geodp.geometry import Manifold
from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.regression import Dataset, GeodesicModel, energy, mse

from oracles import log_exp_jacobian_fd

MANIFOLDS = [Sphere(), SPD(), KendallPreshape(5)]


class BareSphere(Manifold):
    """An extension manifold that writes only the abstract members, with the
    sphere's kernels: no __eq__, __hash__, _random_point, cut-locus guard or
    residual distances."""

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
    _grad_energy_rows = Sphere._grad_energy_rows
    _log_exp_jacobian = Sphere._log_exp_jacobian


@pytest.mark.parametrize("kernel", ["_grad_energy_rows", "_log_exp_jacobian"])
def test_manifold_without_exact_kernel_cannot_be_instantiated(kernel):
    """The exact gradient and the exp volume factor are required kernels: a
    subclass that leaves one out fails at construction, before any density
    or fit could reach a missing kernel."""
    members = {k: v for k, v in vars(BareSphere).items()
               if not k.startswith("__") and k != kernel}
    partial = type(Manifold)("Partial", (Manifold,), members)
    with pytest.raises(TypeError, match=kernel):
        partial()


def test_instances_compare_and_hash_equal():
    a, b = BareSphere(), BareSphere()
    assert a == b and hash(a) == hash(b)
    assert a != Sphere()


def test_point_passes_another_instance_checked_api():
    """A model whose footpoint comes from one instance fits data on another,
    equal instance: energy() and mse() accept the pair."""
    a, b = BareSphere(), BareSphere()
    rng = np.random.default_rng(201)
    p = a._random_point(rng)
    q = a._random_point(rng)
    model = GeodesicModel(p, b._log(p, q), a)
    data = Dataset(np.array([0.0, 1.0]), np.stack([p, q]), b)
    assert b._dist(model.predict(data.x)[1], q) <= 1e-12
    assert mse(model, data) == 2.0 * energy(model, data) <= 1e-15


def test_energy_refuses_model_and_data_on_different_manifolds():
    """energy() and mse() refuse a model and a dataset on manifolds that are
    not equal, even where the coordinates have the same shape."""
    data, model = generate(Sphere(), 6, 0.01, seed=208)
    other = Dataset(data.x, data.y, BareSphere())
    for fn in (energy, mse):
        assert fn(model, data) > 0.0
        with pytest.raises(ManifoldMismatch, match="different manifolds"):
            fn(model, other)


def test_inherited_random_point():
    man = BareSphere()
    rng = np.random.default_rng(202)
    one = man._random_point(rng)
    many = man._random_point(rng, 5)
    assert one.shape == (3,) and many.shape == (5, 3)
    assert np.all(man._point_defect(np.vstack([one, many])) <= 1e-12)


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


@pytest.mark.parametrize("man", MANIFOLDS, ids=[m.kind for m in MANIFOLDS])
def test_log_exp_jacobian_matches_finite_differences(man):
    """The closed-form log volume factor of exp agrees with the
    finite-difference determinant to 7 digits: at random lengths, at zero
    and tiny tangents, on SPD with equal whitened eigenvalues (u along x,
    where sinh(a)/a takes its a -> 0 branch), at long tangents, and near
    the cut-locus guard, where the factor tends to zero.  Closer to the
    guard than 1e-4 the differences themselves lose digits, so there the
    closed form is only checked to stay finite.  No case may raise a numpy
    warning."""
    rng = np.random.default_rng(207)
    x = man._random_point(rng, 40)
    u = man._gaussian_tangent(x, rng.standard_normal(x.shape))
    u /= man._norm(x, u)[:, None]
    guard = man.cut_locus_radius
    far = guard - 1e-4 if np.isfinite(guard) else 8.0
    edge = np.nextafter(guard, 0.0) if np.isfinite(guard) else 50.0
    lengths = np.concatenate([[0.0, 1e-12, 1e-6, far, 0.9 * far],
                              rng.uniform(0.0, min(far, 3.0), 35)])
    u *= lengths[:, None]
    if isinstance(man, SPD):
        u[5:10] = rng.uniform(-2.0, 2.0, 5)[:, None] * x[5:10]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = man._log_exp_jacobian(x, u)
        ref = log_exp_jacobian_fd(man, x, u)
        at_edge = man._log_exp_jacobian(x[3], u[3] * (edge / far))
    assert got.shape == (40,) and np.all(np.isfinite(got)) and np.all(np.isfinite(at_edge))
    assert np.all(np.abs(got - ref) <= 1e-7 * np.maximum(1.0, np.abs(ref)))
    assert got[0] == 0.0 and abs(got[1]) <= 1e-20
    if isinstance(man, SPD):
        assert np.max(np.abs(got[5:10])) <= 1e-15
    else:
        assert got[3] < -5.0  # the factor vanishes at the cut locus
