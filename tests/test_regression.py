"""Geodesic regression: energy, gradients, and the L-BFGS fitter."""

import math
import warnings

import numpy as np
import pytest

from geodp.errors import ConfigError, CutLocusError, DegenerateCovariates
from geodp.experiments import gen_kendall, gen_spd, gen_sphere
from geodp.geometry import TANGENCY_TOL
from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.manifolds.spd import MAX_CONDITION
from geodp.manifolds.sphere import _TINY
from geodp.regression import (
    Dataset,
    FitConfig,
    GeodesicModel,
    energy,
    fit,
    frechet_mean,
    mse,
    scale_covariates,
    _energy_rows,
    _grad_rows,
    _predictions,
)

from oracles import _grad_rows_fd

MANIFOLDS = [Sphere(), SPD(), KendallPreshape(5)]
IDS = [m.kind for m in MANIFOLDS]


def make_dataset(man, n, noise, seed, spread=0.6):
    rng = np.random.default_rng(seed)
    p0 = man._random_point(rng)
    v0 = man._gaussian_tangent(p0, rng.standard_normal(man.ambient_dim))
    v0 = v0 / float(man._norm(p0, v0)) * spread * min(man.injectivity_radius, 2.0)
    x = np.linspace(0.0, 1.0, n)
    model = GeodesicModel(p0, v0, man)
    Y = model.predict(x)
    if noise > 0.0:
        Y = np.stack([man._exp(row, noise * man._gaussian_tangent(
            row, rng.standard_normal(man.ambient_dim))) for row in Y])
    return Dataset(x, Y, man), model


def test_two_point_energy_value():
    man = Sphere()
    model = GeodesicModel(np.array([1.0, 0.0, 0.0]), np.zeros(3), man)
    data = Dataset([0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], man)
    # both predictions sit at p, so only the quarter-circle residual counts
    assert energy(model, data) == pytest.approx(math.pi**2 / 16, rel=1e-14)
    assert mse(model, data) == pytest.approx(math.pi**2 / 8, rel=1e-14)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_mse_is_exactly_twice_energy(man):
    data, model = make_dataset(man, 12, 0.05, seed=101)
    assert mse(model, data) == 2.0 * energy(model, data)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_energy_matches_residual_norms(man):
    data, model = make_dataset(man, 15, 0.08, seed=102)
    preds = model.predict(data.x)
    total = sum(float(r) ** 2 for r in man._norm(preds, man._log(preds, data.y)))
    assert energy(model, data) == pytest.approx(total / (2 * data.n), rel=1e-12)


def test_single_record_energy_formula():
    man = Sphere()
    rng = np.random.default_rng(103)
    p = man._random_point(rng)
    v = 0.4 * man._gaussian_tangent(p, rng.standard_normal(3))
    y = man._random_point(rng)
    e = _energy_rows(man, p[None], v[None], np.array([1.0]), y[None, :])[0]
    assert e == pytest.approx(0.5 * man._dist(man._exp(p, v), y) ** 2, rel=1e-13)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_gradients_match_finite_differences(man):
    """Independent central differences of the energy in the frame at p."""
    h = 1e-5
    for seed in (104, 105, 106):
        data, model = make_dataset(man, 8, 0.1, seed=seed, spread=0.4)
        p, v = model.p, model.v

        def e(pp, vv):
            return _energy_rows(man, pp[None], vv[None], data.x, data.y)[0]

        (gp,), valid_p = _grad_rows(man, p[None], v[None], data.x, data.y, "p")
        (gv,), valid_v = _grad_rows(man, p[None], v[None], data.x, data.y, "v")
        assert valid_p[0] and valid_v[0]
        basis = man._frame(p)
        fd_p = np.zeros(len(basis))
        fd_v = np.zeros(len(basis))
        for j, b in enumerate(basis):
            pp, pm = man._exp(p, h * b), man._exp(p, -h * b)
            fd_p[j] = (e(pp, man._transport(p, pp, v)) - e(pm, man._transport(p, pm, v))) / (2 * h)
            vp = man._project_tangent(p, v + h * b)
            vm = man._project_tangent(p, v - h * b)
            fd_v[j] = (e(p, vp) - e(p, vm)) / (2 * h)
        got_p = man._inner(p, gp, basis)
        got_v = man._inner(p, gv, basis)
        assert np.linalg.norm(got_p - fd_p) <= 1e-4 * max(1.0, np.linalg.norm(fd_p))
        assert np.linalg.norm(got_v - fd_v) <= 1e-4 * max(1.0, np.linalg.norm(fd_v))


@pytest.mark.parametrize("man", [Sphere(), SPD(), KendallPreshape(50)],
                         ids=["sphere", "spd", "kendall"])
def test_grad_rows_batch_row_matches_single_call(man):
    """Row b of a batched gradient equals the batch-of-one call bit for bit,
    so a chain's path does not depend on the batch it runs in."""
    data, model = make_dataset(man, 10, 0.1, seed=110, spread=0.4)
    rng = np.random.default_rng(111)
    base = np.broadcast_to(model.p, (6, man.ambient_dim))
    p = man._exp(base, 0.2 * man._gaussian_tangent(base, rng.standard_normal(base.shape)))
    v = man._gaussian_tangent(p, rng.standard_normal(p.shape))
    for wrt in ("p", "v"):
        g, valid = _grad_rows(man, p, v, data.x, data.y, wrt)
        for b in range(6):
            g1, valid1 = _grad_rows(man, p[b:b + 1], v[b:b + 1], data.x, data.y, wrt)
            assert g[b].tobytes() == g1[0].tobytes()
            assert valid[b] == valid1[0]


@pytest.mark.parametrize("wrt", ["p", "v", "pv"])
def test_kendall_grad_rows_batch_exact_at_benchmark_sizes(wrt):
    """Kendall-50 at n = 50, the benchmark's sizes: every row of a batch of
    B = 1, 4, 16 or 100 equals its batch-of-one call bit for bit, with the
    batch's rows read from offset slices of a larger buffer so that their
    memory alignment varies.  The prefetch tree relies on this."""
    man = KendallPreshape(50)
    data, model = make_dataset(man, 50, 0.1, seed=117, spread=0.4)
    rng = np.random.default_rng(118)
    amb = man.ambient_dim
    for batch in (1, 4, 16, 100):
        base = np.broadcast_to(model.p, (batch, amb))
        p = man._exp(base, 0.2 * man._gaussian_tangent(base, rng.standard_normal(base.shape)))
        v = man._gaussian_tangent(p, rng.standard_normal(p.shape))
        for offset in (0, 1, 3):
            buf = np.empty(2 * batch * amb + offset + 5)
            p_off = buf[offset:offset + batch * amb].reshape(batch, amb)
            v_off = buf[batch * amb + offset + 5:].reshape(batch, amb)
            p_off[:], v_off[:] = p, v
            rows = _grad_rows(man, p_off, v_off, data.x, data.y, wrt)
            for b in range(batch):
                ones = _grad_rows(man, p[b:b + 1].copy(), v[b:b + 1].copy(), data.x, data.y,
                                  wrt)
                for got, one in zip(rows, ones):
                    assert got[b].tobytes() == one[0].tobytes(), (batch, offset, b)


@pytest.mark.parametrize("wrt", ["p", "v", "pv"])
def test_sphere_grad_rows_batch_exact_at_benchmark_sizes(wrt):
    """The sphere at n = 50: every row of a batch of B = 1, 16 or 218 (the
    rows of one independence-kernel call) equals its batch-of-one call bit
    for bit, with the batch read from offset slices of a larger buffer, as
    for Kendall above."""
    man = Sphere()
    data, model = make_dataset(man, 50, 0.1, seed=117, spread=0.4)
    rng = np.random.default_rng(118)
    for batch in (1, 16, 218):
        base = np.broadcast_to(model.p, (batch, 3))
        p = man._exp(base, 0.2 * man._gaussian_tangent(base, rng.standard_normal(base.shape)))
        v = man._gaussian_tangent(p, rng.standard_normal(p.shape))
        for offset in (0, 1, 3):
            buf = np.empty(6 * batch + offset + 5)
            p_off = buf[offset:offset + 3 * batch].reshape(batch, 3)
            v_off = buf[3 * batch + offset + 5:].reshape(batch, 3)
            p_off[:], v_off[:] = p, v
            rows = _grad_rows(man, p_off, v_off, data.x, data.y, wrt)
            for b in range(batch):
                ones = _grad_rows(man, p[b:b + 1].copy(), v[b:b + 1].copy(), data.x, data.y,
                                  wrt)
                for got, one in zip(rows, ones):
                    assert got[b].tobytes() == one[0].tobytes(), (batch, offset, b)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_joint_grad_rows_match_single_variable_calls(man):
    """The joint pass that fit takes per trial point gives both gradients bit
    for bit as the single-variable calls and the batch-of-one call, and the
    energy from the residuals it holds to rounding."""
    data, model = make_dataset(man, 10, 0.1, seed=115, spread=0.4)
    rng = np.random.default_rng(116)
    base = np.broadcast_to(model.p, (5, man.ambient_dim))
    p = man._exp(base, 0.2 * man._gaussian_tangent(base, rng.standard_normal(base.shape)))
    v = man._gaussian_tangent(p, rng.standard_normal(p.shape))
    gp, gv, valid, e = _grad_rows(man, p, v, data.x, data.y, "pv")
    for g, wrt in ((gp, "p"), (gv, "v")):
        single, valid_single = _grad_rows(man, p, v, data.x, data.y, wrt)
        assert g.tobytes() == single.tobytes()
        assert valid.tobytes() == valid_single.tobytes()
    for b in range(5):
        gp1, gv1, valid1, e1 = _grad_rows(man, p[b:b + 1], v[b:b + 1], data.x, data.y, "pv")
        assert gp[b].tobytes() == gp1[0].tobytes() and gv[b].tobytes() == gv1[0].tobytes()
        assert valid[b] == valid1[0] and e[b] == e1[0]
    ref = _energy_rows(man, p, v, data.x, data.y)
    assert np.all(np.abs(e - ref) <= 1e-13 * ref)


def reference_armijo_fit(data, cfg):
    """The alternating Armijo loop with one gradient per call and energies
    from predictions: single-variable gradients at the top of every
    iteration and again before the shooting step, `_energy_rows` for every
    trial point.  Returns the raw (p, v), the iteration count, the energy and
    the trace."""
    man = data.manifold
    x, Y = data.x, data.y
    p = Y[int(np.argmin(x))].copy()
    v = man._log(p, Y[int(np.argmax(x))])
    e_cur = float(_energy_rows(man, p[None], v[None], x, Y)[0])
    trace = [e_cur]
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        gp, ok_p = _grad_rows(man, p[None], v[None], x, Y, "p")
        gv, ok_v = _grad_rows(man, p[None], v[None], x, Y, "v")
        if not (ok_p[0] and ok_v[0]):
            raise CutLocusError("reference iterate on the cut locus")
        gp, gv = gp[0], gv[0]
        ngp = float(man._norm(p, gp))
        ngv = float(man._norm(p, gv))
        if max(ngp, ngv) <= cfg.tol:
            iterations -= 1
            break
        moved = False
        if ngp > cfg.tol:
            alpha = 1.0
            while alpha >= 1e-14:
                p_new = man._exp(p, -alpha * gp)
                v_new = man._transport(p, p_new, v)
                e_new = float(_energy_rows(man, p_new[None], v_new[None], x, Y)[0])
                if e_new <= e_cur - 1e-4 * alpha * ngp * ngp:
                    p, v, e_cur = p_new, v_new, e_new
                    moved = True
                    break
                alpha *= 0.5
        if ngv > cfg.tol:
            gv = _grad_rows(man, p[None], v[None], x, Y, "v")[0][0]
            ngv = float(man._norm(p, gv))
            alpha = 1.0
            while alpha >= 1e-14 and ngv > cfg.tol:
                v_new = man._project_tangent(p, v - alpha * gv)
                e_new = float(_energy_rows(man, p[None], v_new[None], x, Y)[0])
                if e_new <= e_cur - 1e-4 * alpha * ngv * ngv:
                    v, e_cur = v_new, e_new
                    moved = True
                    break
                alpha *= 0.5
        trace.append(e_cur)
        if not moved:
            break
    else:
        iterations = cfg.max_iter
    return p, v, iterations, e_cur, np.array(trace)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_fit_improves_on_reference_armijo_loop(man):
    """fit's joint L-BFGS steps reach an energy no higher than the alternating
    Armijo loop's, at a footpoint within 1e-4 of it, in at most a fifth of
    its iterations.  The second config stops at max_iter, before the 7 steps
    the SPD fit needs to reach its tol."""
    data, _ = make_dataset(man, 20, 0.1, seed=117, spread=0.4)
    cfg = FitConfig()
    report = fit(data, cfg)
    p, v, iterations, e_ref, _ = reference_armijo_fit(data, cfg)
    assert report.converged and report.stop == "converged"
    assert report.energy <= e_ref * (1.0 + 1e-12)
    assert man._dist(report.model.p, man._project(p)) <= 1e-4
    assert report.iterations <= iterations / 5

    data, _ = make_dataset(man, 20, 0.1, seed=118, spread=0.4)
    report = fit(data, FitConfig(tol=1e-12, max_iter=3))
    assert report.iterations == 3
    assert not report.converged and report.stop == "max_iter"
    assert len(report.energy_trace) == 4


@pytest.mark.parametrize("setting, value", [
    ("tol", math.inf), ("tol", math.nan), ("tol", 0.0), ("tol", -1e-6), ("tol", True),
    ("max_iter", -3), ("max_iter", 2.0), ("max_iter", True)])
def test_fit_config_refuses_bad_settings(setting, value):
    """tol is a positive finite number and max_iter an integer of at least 0.
    An infinite tol would report the start guess as converged, a NaN one
    would never converge, and a negative cap would take no step."""
    with pytest.raises(ConfigError, match=setting):
        FitConfig(**{setting: value})
    assert FitConfig(tol=1, max_iter=0).max_iter == 0


@pytest.mark.parametrize("gen", [lambda s: gen_sphere(50, 0.01, s),
                                 lambda s: gen_spd(50, 0.1, s),
                                 lambda s: gen_kendall(50, 0.001, s, landmarks=50)],
                         ids=IDS)
def test_fit_converges_within_40_fused_passes(gen, monkeypatch):
    """Each default-tol fit of ten n=50 datasets per built-in manifold
    converges within 40 fused passes; the alternating loop took 189-250."""
    for seed in range(1000, 1010):
        data, _ = gen(seed)
        cls = type(data.manifold)
        kernel = cls._grad_energy_rows
        calls = []

        def counted(self, *args):
            calls.append(1)
            return kernel(self, *args)

        monkeypatch.setattr(cls, "_grad_energy_rows", counted)
        report = fit(data)
        monkeypatch.undo()
        assert report.converged and report.stop == "converged"
        assert len(calls) <= 40, (seed, len(calls))


def test_fit_shrinks_trials_off_the_validity_mask():
    """A trial whose validity mask is False is shrunk like a failed one, never
    accepted.  Here the mask fences the footpoint into a ball that stops short
    of the minimiser, so the fit creeps to the fence and reports a stall."""
    data, _ = make_dataset(Sphere(), 20, 0.05, seed=119, spread=0.4)
    start = data.y[0]
    radius = 0.5 * Sphere()._dist(fit(data).model.p, start)

    class Fenced(Sphere):
        def _grad_energy_rows(self, p, v, x, Y, wrt):
            *out, valid, e = Sphere._grad_energy_rows(self, p, v, x, Y, wrt)
            return (*out, valid & (self._dist(p, start) < radius), e)

    report = fit(Dataset(data.x, data.y, Fenced()))
    assert report.stop == "stalled" and not report.converged
    assert Sphere()._dist(report.model.p, start) < radius
    assert np.all(np.diff(report.energy_trace) <= 0.0)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_builtin_manifold_has_fused_gradient(man):
    """Every built-in manifold's fused kernel answers a single-gradient call
    with one row per model and a mask of the batch's shape."""
    data, model = make_dataset(man, 6, 0.1, seed=112, spread=0.4)
    for wrt in ("p", "v"):
        g, valid = man._grad_energy_rows(model.p[None], model.v[None],
                                         data.x, data.y, wrt)
        assert g.shape == (1, man.ambient_dim) and valid.shape == (1,)


class _LogDist:
    """Residual lengths from the log map, whose atan2 form stays accurate
    near the cut locus, where arccos of a rounded dot product errs by about
    eps / sin(d) and spoils a central difference."""

    def _residual_dists(self, p, v, x, Y):
        preds = _predictions(self, p, v, x)
        return self._norm(preds, self._log(preds, np.broadcast_to(Y, preds.shape)))


class _LogDistSphere(_LogDist, Sphere):
    pass


class _LogDistKendall(_LogDist, KendallPreshape):
    pass


@pytest.mark.parametrize("case", ["zero_residual", "zero_v", "tiny_v", "near_cut"])
@pytest.mark.parametrize("man", [Sphere(), KendallPreshape(50)], ids=["sphere", "kendall"])
def test_fused_gradient_edge_cases(man, case):
    """The sphere and Kendall fused kernels where their closed forms meet a
    guard, against the frame central differences: record 0 has x = 0 and
    y = p with <p, p> = 1 exactly, so its cosine is 1 and sin(d) = 0; v of
    length 0 or below _TINY; and one residual 1e-6 inside the cut-locus
    guard, where d / sin(d) is about 1e6 on the sphere.  Each gradient is
    finite and raises no RuntimeWarning.  Near the cut locus the reference
    takes its residuals from the log map and a step of 1e-8, and the
    tolerance is criterion 2's 1e-4."""
    rng = np.random.default_rng(119)
    p = np.zeros(man.ambient_dim)
    if man.kind == "sphere":
        p[2] = 1.0
    else:
        p[:8] = [0.5, 0.0, -0.5, 0.0, 0.0, 0.5, 0.0, -0.5]  # landmarks 1/2, -1/2, i/2, -i/2
    assert p @ p == 1.0
    v = man._gaussian_tangent(p, rng.standard_normal(man.ambient_dim))
    v *= 0.4 / man._norm(p, v)
    x = np.linspace(0.0, 1.0, 50)
    t = x[:, None] * v
    preds = man._exp(np.broadcast_to(p, t.shape), t)
    Y = man._exp(preds, 0.1 * man._gaussian_tangent(preds, rng.standard_normal(preds.shape)))
    Y[0] = p
    ref_man, step, tol = man, 1e-6, 1e-6
    if case == "zero_v":
        v = np.zeros_like(v)
    elif case == "tiny_v":
        v *= 0.5 * _TINY / man._norm(p, v)
    elif case == "near_cut":
        u = man._gaussian_tangent(preds[30], rng.standard_normal(man.ambient_dim))
        reach = man.cut_locus_radius - 1e-6
        Y[30] = man._exp(preds[30], reach * u / man._norm(preds[30], u))
        ref_man = _LogDistSphere() if man.kind == "sphere" else _LogDistKendall(50)
        step, tol = 1e-8, 1e-4
    for wrt in ("p", "v"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g, valid = man._grad_energy_rows(p[None], v[None], x, Y, wrt)
        ref, _ = _grad_rows_fd(ref_man, p[None], v[None], x, Y, wrt, step=step)
        assert np.all(np.isfinite(g)) and valid[0]
        assert man._norm(p, g[0] - ref[0]) <= tol * man._norm(p, ref[0]), wrt


@pytest.mark.parametrize("case", ["generic", "zero_v", "v_along_p"])
def test_spd_fused_gradient_edge_cases(case):
    """The fused SPD kernel against frame central differences, including the
    states where its closed forms degenerate: v = 0, and v proportional to p
    (equal whitened eigenvalues, so sinh(a)/a takes its a -> 0 guard)."""
    man = SPD()
    data, model = make_dataset(man, 12, 0.1, seed=113, spread=0.4)
    p, v = model.p, model.v
    if case == "zero_v":
        v = np.zeros_like(v)
    elif case == "v_along_p":
        v = 0.7 * p
    for wrt in ("p", "v"):
        g, valid = man._grad_energy_rows(p[None], v[None], data.x, data.y, wrt)
        ref, _ = _grad_rows_fd(man, p[None], v[None], data.x, data.y, wrt)
        assert np.all(np.isfinite(g)) and valid[0]
        assert man._norm(p, g[0] - ref[0]) <= 1e-6 * man._norm(p, ref[0])


@pytest.mark.parametrize("cond", [1e4, 1e6, MAX_CONDITION])
def test_spd_fused_gradient_ill_conditioned(cond):
    """A congruence T is an isometry of the affine-invariant metric, so moving
    the whole problem by T moves the gradient to T g T^T.  T sends the
    footpoint to one of condition number cond.  Central differences there
    lose about cond * eps / step, so the reference is taken at the original,
    well-conditioned problem and moved.  The bound holds up to MAX_CONDITION,
    the largest condition number an SPD point may have.  The energy is
    invariant too: the moved problem's energy rows, the body of energy(),
    match energy() of the original to 1e-7, which predictions followed by
    distances missed by 5.6e-6 at MAX_CONDITION.  A fit of the moved problem
    reports the energy and tau of the whitened residuals to about cond * eps,
    so its energy is energy() of its model; predictions followed by
    distances missed them by 5.5e-9 at cond 1e6."""
    man = SPD()
    data, model = make_dataset(man, 12, 0.1, seed=113, spread=0.4)
    p, v = model.p, model.v
    angle = np.random.default_rng(114).uniform(0.0, np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    lam, vecs = np.linalg.eigh(p.reshape(2, 2))
    t = (rot @ np.diag([cond ** 0.25, cond ** -0.25]) @ rot.T
         @ vecs @ np.diag(lam ** -0.5) @ vecs.T)

    def move(a):
        return (t @ a.reshape(2, 2) @ t.T).reshape(-1)

    p_ill = move(p)
    assert np.linalg.cond(p_ill.reshape(2, 2)) == pytest.approx(cond, rel=1e-6)
    Y_ill = np.stack([move(y) for y in data.y])
    for wrt in ("p", "v"):
        g, valid = man._grad_energy_rows(p_ill[None], move(v)[None], data.x, Y_ill, wrt)
        assert np.all(np.isfinite(g)) and valid[0]
        ref, _ = _grad_rows_fd(man, p[None], v[None], data.x, data.y, wrt)
        ref = move(ref[0])
        assert man._norm(p_ill, g[0] - ref) <= 1e-6 * man._norm(p_ill, ref)
    e_ill = _energy_rows(man, p_ill[None], move(v)[None], data.x, Y_ill)[0]
    assert abs(e_ill - energy(model, data)) <= 1e-7 * energy(model, data)

    # The fitted footpoint's condition number is below MAX_CONDITION, so
    # GeodesicModel.project keeps it and the model is the fit's.
    ill = Dataset(data.x, Y_ill, man)
    report = fit(ill)
    fitted = report.model
    logs = man._residual_logs(fitted.p[None], fitted.v[None],
                              ill.x, ill.y)[3]
    whitened = np.sqrt(logs[..., 0, 0] ** 2 + logs[..., 1, 1] ** 2
                       + 2.0 * logs[..., 0, 1] ** 2)
    tol = 10.0 * cond * np.finfo(float).eps
    assert abs(report.energy - energy(fitted, ill)) <= tol * report.energy
    assert abs(report.tau_empirical - np.max(whitened)) <= tol * report.tau_empirical


def test_spd_gradient_flat_limit():
    """For data in a tiny ball the footpoint gradient degenerates to the
    Euclidean least-squares form: minus the mean back-transported residual."""
    man = SPD()
    rng = np.random.default_rng(107)
    p0 = np.eye(2).reshape(-1)
    v0 = 0.01 * man._gaussian_tangent(p0, rng.standard_normal(4))
    x = np.linspace(0.0, 1.0, 10)
    preds = man._exp(p0, x[:, None] * v0)
    Y = np.stack([man._exp(q, 0.005 * man._gaussian_tangent(q, rng.standard_normal(4)))
                  for q in preds])
    (gp,), valid = _grad_rows(man, p0[None], v0[None], x, Y, "p")
    assert valid[0]
    back = man._transport(preds, np.broadcast_to(p0, preds.shape), man._log(preds, Y))
    expected = -back.mean(axis=0)
    assert np.linalg.norm(gp - expected) <= 1e-3 * np.linalg.norm(expected)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_fit_recovers_noiseless_geodesic(man):
    data, truth = make_dataset(man, 20, 0.0, seed=108)
    report = fit(data)
    assert report.converged
    assert report.energy <= 1e-12
    assert man._dist(report.model.p, truth.p) <= 1e-6
    assert np.linalg.norm(report.model.v - truth.v) <= 1e-6
    assert max(report.gradient_norms) <= 1e-6


def test_fit_energy_never_increases():
    data, _ = make_dataset(Sphere(), 30, 0.15, seed=109)
    report = fit(data)
    trace = np.asarray(report.energy_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) <= 1e-15)
    assert report.energy == pytest.approx(trace[-1], rel=1e-15)


def test_fit_report_consistency():
    data, _ = make_dataset(Sphere(), 25, 0.05, seed=110)
    report = fit(data, FitConfig(tol=1e-8))
    assert report.converged
    assert max(report.gradient_norms) <= 1e-8
    assert report.energy == pytest.approx(energy(report.model, data), rel=1e-12)
    man = data.manifold
    dists = man._dist(report.model.predict(data.x), data.y)
    assert report.tau_empirical == pytest.approx(float(np.max(dists)), rel=1e-12)
    assert report.tau_m_empirical >= 0.0


def test_fit_reversed_covariates_traces_same_curve():
    man = Sphere()
    data, _ = make_dataset(man, 30, 0.01, seed=111)
    rev = Dataset(1.0 - data.x, data.y, man)
    cfg = FitConfig(tol=1e-10)
    fwd_report, bwd_report = fit(data, cfg), fit(rev, cfg)
    assert fwd_report.converged and bwd_report.converged
    fwd, bwd = fwd_report.model, bwd_report.model
    pf = fwd.predict(data.x)
    pb = bwd.predict(1.0 - data.x)
    assert float(np.max(man._dist(pf, pb))) <= 1e-6


def test_dataset_validation():
    man = Sphere()
    good = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="at least two"):
        Dataset([0.5], good[:1], man)
    with pytest.raises(ValueError, match="shape"):
        Dataset([0.0, 1.0], np.ones((2, 4)), man)
    with pytest.raises(ValueError, match="span"):
        Dataset([0.2, 0.9], good, man)
    with pytest.raises(ValueError, match="membership"):
        Dataset([0.0, 1.0], 2.0 * good, man)
    with pytest.raises(ValueError, match="finite"):
        Dataset([0.0, np.nan], good, man)
    data = Dataset([0.0, 1.0], good, man)
    assert data.n == 2 and data.y.tolist() == good.tolist()


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_model_refuses_bad_coordinates(man):
    """GeodesicModel refuses p or v of the wrong shape, a p off the manifold
    (on SPD also one past MAX_CONDITION) and a v off the tangent space at p.
    The tangency tolerance grows with |v| above 1, so a long v with a small
    off-tangent part passes; project() cleans raw coordinates instead."""
    rng = np.random.default_rng(112)
    p = man._random_point(rng)
    raw = rng.standard_normal(man.ambient_dim)
    normal = raw - man._project_tangent(p, raw)
    normal /= float(man._tangent_defect(p, normal))
    v = man._project_tangent(p, raw)
    v /= np.linalg.norm(v)
    with pytest.raises(ValueError, match="shape"):
        GeodesicModel(p[:-1], v, man)
    with pytest.raises(ValueError, match="shape"):
        GeodesicModel(p, np.append(v, 0.0), man)
    if man.kind == "spd":
        off = [p + np.array([0.0, 1e-6, 0.0, 0.0]),
               np.array([1.0, 0.0, 0.0, 0.5 / MAX_CONDITION])]
    else:
        off = [1.5 * p]
    for q in off:
        with pytest.raises(ValueError, match="membership"):
            GeodesicModel(q, np.zeros(man.ambient_dim), man)
    with pytest.raises(ValueError, match="tangency"):
        GeodesicModel(p, v + 1e-3 * normal, man)
    with pytest.raises(ValueError, match="tangency"):
        GeodesicModel(p, v + 5e-9 * normal, man)
    long = 100.0 * v + 5e-9 * normal
    assert TANGENCY_TOL < man._tangent_defect(p, long) < TANGENCY_TOL * np.linalg.norm(long)
    GeodesicModel(p, long, man)
    model = GeodesicModel.project(man, off[-1], raw)
    assert np.array_equal(model.v, man._project_tangent(model.p, raw))


def test_scale_covariates():
    assert scale_covariates([2.0, 4.0, 6.0]).tolist() == [0.0, 0.5, 1.0]
    out = scale_covariates([-1.0, 0.0, 3.0])
    assert out.min() == 0.0 and out.max() == 1.0
    with pytest.raises(DegenerateCovariates):
        scale_covariates([3.0, 3.0, 3.0])
    with pytest.raises(DegenerateCovariates):
        scale_covariates([0.0, np.inf])
    with pytest.raises(ValueError):
        scale_covariates([[0.0, 1.0]])


def test_scale_covariates_refuses_span_past_float_range():
    """Covariates that span more than the float range are refused before the
    rescaling subtracts, with no overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateCovariates, match="float range"):
            scale_covariates([1e308, -1e308, 0.0])
        assert scale_covariates([8e307, -8e307]).tolist() == [1.0, 0.0]


def test_frechet_mean_sphere_midpoint():
    man = Sphere()
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    m = frechet_mean(man, np.stack([a, b]))
    mid = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.linalg.norm(m - mid) <= 1e-8


def test_frechet_mean_spd_geometric():
    # commuting matrices reduce the Karcher mean to the geometric mean
    man = SPD()
    a = np.diag([1.0, 4.0]).reshape(-1)
    b = np.diag([4.0, 1.0]).reshape(-1)
    m = frechet_mean(man, np.stack([a, b]))
    assert np.linalg.norm(m - np.diag([2.0, 2.0]).reshape(-1)) <= 1e-8
