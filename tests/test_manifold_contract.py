"""The Manifold contract: what a subclass writes and what it inherits."""

import warnings

import numpy as np
import pytest

from geodp.errors import ManifoldMismatch
from geodp.experiments import generate
from geodp.geometry import Manifold, _arc_weights
from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.regression import Dataset, GeodesicModel, energy, mse

from oracles import log_exp_jacobian_fd

MANIFOLDS = [Sphere(), SPD(), KendallPreshape(5)]


class BareSphere(Manifold):
    """An extension manifold that sets only the identity attributes and
    writes only the abstract kernels, with the sphere's values and kernels:
    it inherits __eq__, __hash__, _random_point, the residual distances and
    the cut-locus guard derived from its injectivity radius."""

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


IDENTITY = ("dim", "ambient_dim", "curvature_bounds", "injectivity_radius")


@pytest.mark.parametrize("attr", IDENTITY)
def test_manifold_without_identity_attribute_fails_at_first_use(attr):
    """The identity is four plain attributes, not abstract members: a
    subclass that leaves one out is built, and fails where it is read."""
    members = {k: v for k, v in vars(BareSphere).items()
               if not k.startswith("__") and k != attr}
    partial = type(Manifold)("Partial", (Manifold,), members)()
    with pytest.raises(AttributeError, match=attr):
        getattr(partial, attr)


@pytest.mark.parametrize("man, identity", [
    (Sphere(), (2, 3, (1.0, 1.0), np.pi)),
    (SPD(), (3, 4, (-0.5, 0.0), np.inf)),
    (KendallPreshape(5), (6, 10, (1.0, 4.0), np.pi / 2)),
    (KendallPreshape(7), (10, 14, (1.0, 4.0), np.pi / 2)),
], ids=["sphere", "spd", "kendall-5", "kendall-7"])
def test_identity_attributes_are_plain_numbers(man, identity):
    """dim, ambient_dim, curvature_bounds and injectivity_radius are plain
    attributes holding Python numbers; the Manifold contract declares no
    abstract property, and no manifold class defines one of them as a
    property."""
    assert tuple(getattr(man, attr) for attr in IDENTITY) == identity
    assert type(man.dim) is int and type(man.ambient_dim) is int
    assert all(type(k) is float for k in (*man.curvature_bounds, man.injectivity_radius))
    assert not any(isinstance(getattr(Manifold, name, None), property)
                   for name in Manifold.__abstractmethods__)
    own = vars(type(man))
    assert not any(isinstance(own.get(name), property)
                   for name in (*IDENTITY, "cut_locus_radius"))


@pytest.mark.parametrize("man, guard", [
    (Sphere(), np.pi - 1e-6),
    (BareSphere(), np.pi - 1e-6),
    (KendallPreshape(5), np.pi / 2 - 1e-6),
    (SPD(), np.inf),
], ids=["sphere", "bare-sphere", "kendall", "spd"])
def test_cut_locus_radius_is_derived(man, guard):
    """Every manifold inherits one cut-locus guard, the injectivity radius
    less 1e-6, with the bits of the constants it replaces; inf on SPD."""
    assert man.cut_locus_radius == man.injectivity_radius - 1e-6 == guard


def test_arc_weights():
    """The residual weight of the positive-curvature fused kernels:
    w = d / sin d is 1 at c = 1 (d = 0), a model with a residual at c = -1
    (d = pi) is masked, and inside w matches d / sin d.  No case raises a
    numpy warning."""
    c = np.array([[1.0, 0.5, -0.3, np.cos(3.0), 1.0 - 1e-12],
                  [0.9, -1.0, 0.2, -0.999, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, valid, w = _arc_weights(c, Sphere().cut_locus_radius)
    assert np.array_equal(d, np.arccos(c))
    assert valid.tolist() == [True, False]
    assert w[0, 0] == w[1, -1] == 1.0 and np.all(np.isfinite(w))
    inside = np.abs(c) < 1.0
    assert np.allclose(w[inside], d[inside] / np.sin(d[inside]), rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("man", MANIFOLDS, ids=[m.kind for m in MANIFOLDS])
@pytest.mark.parametrize("wrt", ["p", "v", "pv"])
def test_grad_rows_broadcast_one_footpoint(man, wrt):
    """The fused gradient broadcasts a single footpoint row over 37 shooting
    rows and gives the bytes of that footpoint repeated 37 times, as
    independence shooting chains call it."""
    rng = np.random.default_rng(208)
    p = man._random_point(rng)
    V = 0.3 * man._gaussian_tangent(p, rng.standard_normal((37, man.ambient_dim)))
    x = np.linspace(0.0, 1.0, 20)
    at = np.broadcast_to(p, (20, man.ambient_dim))
    Y = man._exp(at, 0.2 * man._gaussian_tangent(at, rng.standard_normal(at.shape)))
    one = man._grad_energy_rows(p[None], V, x, Y, wrt)
    many = man._grad_energy_rows(np.broadcast_to(p, V.shape).copy(), V, x, Y, wrt)
    assert len(one) == len(many)
    for got, ref in zip(one, many):
        assert got.shape == ref.shape == (37,) + ref.shape[1:]
        assert got.tobytes() == ref.tobytes()
