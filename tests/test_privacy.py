"""Sensitivity bounds, tau policy, budget composition, noise scales, and
the stage log-densities."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodp.errors import ConfigError, NonpositiveBudget, PrivacyWarning
from geodp.experiments import GridSpec, gen_sphere, run_grid
from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.privacy import (
    NoiseScales,
    PrivacyBudget,
    SensitivitySpec,
    compose_budget,
    noise_scales,
    sensitivity_p,
    sensitivity_spec,
    sensitivity_v,
)
from geodp.regression import GeodesicModel, _grad_rows, fit
from geodp.sampling import ChainConfig, _footpoint_logdens, _shooting_logdens

from test_regression import make_dataset


# --- closed-form substitutions ------------------------------------------------


def test_positive_curvature_footpoint_bound():
    spec = SensitivitySpec(n=50, tau=0.1, kappa_l=1.0)
    assert sensitivity_p(spec) == 2.0 * 0.1 / 50
    assert sensitivity_v(spec) == 2.0 * 0.1 / 50


def test_flat_bound():
    spec = SensitivitySpec(n=100, tau=0.2, kappa_l=0.0, tau_m=3.7)
    assert sensitivity_p(spec) == 0.004
    assert sensitivity_v(spec) == 0.004


def test_kendall_curvature_range_bound():
    spec = SensitivitySpec(n=100, tau=0.05, kappa_l=1.0)
    assert sensitivity_v(spec) == 0.001


def test_negative_curvature_bounds_exact():
    # kappa_l = -1/2, n = 20, tau = 0.1, tau_m = 0.5
    spec = SensitivitySpec(n=20, tau=0.1, kappa_l=-0.5, tau_m=0.5)
    arg = 2.0 * math.sqrt(0.5) * 0.6
    assert sensitivity_p(spec) == pytest.approx(0.01 * math.cosh(arg), rel=1e-12)
    assert sensitivity_v(spec) == pytest.approx(
        0.005 * math.sinh(arg) / (math.sqrt(0.5) * 0.6), rel=1e-12
    )
    # cosh/sinh inflation strictly enlarges the flat-case bounds
    assert sensitivity_p(spec) > 0.01
    assert sensitivity_v(spec) > 0.01


def test_flat_limit_continuity():
    for tau, tau_m in ((0.1, 0.5), (0.3, 0.0), (0.05, 2.0)):
        flat = SensitivitySpec(n=10, tau=tau, kappa_l=0.0, tau_m=tau_m)
        near = SensitivitySpec(n=10, tau=tau, kappa_l=-1e-10, tau_m=tau_m)
        at_tol = SensitivitySpec(n=10, tau=tau, kappa_l=-1e-12, tau_m=tau_m)
        for f in (sensitivity_p, sensitivity_v):
            assert f(near) == pytest.approx(f(flat), rel=1e-6)
            assert f(at_tol) == f(flat)


def test_sensitivity_monotonicity():
    taus = np.linspace(0.01, 0.5, 8)
    for kappa_l in (1.0, 0.0, -0.5, -2.0):
        vals_p = [sensitivity_p(SensitivitySpec(10, t, kappa_l, 0.3)) for t in taus]
        vals_v = [sensitivity_v(SensitivitySpec(10, t, kappa_l, 0.3)) for t in taus]
        assert np.all(np.diff(vals_p) > 0)
        assert np.all(np.diff(vals_v) > 0)
        by_n = [sensitivity_p(SensitivitySpec(n, 0.2, kappa_l, 0.3)) for n in (5, 10, 50, 200)]
        assert np.all(np.diff(by_n) < 0)
    tms = np.linspace(0.0, 2.0, 6)
    grow_p = [sensitivity_p(SensitivitySpec(10, 0.2, -0.5, tm)) for tm in tms]
    grow_v = [sensitivity_v(SensitivitySpec(10, 0.2, -0.5, tm)) for tm in tms]
    assert np.all(np.diff(grow_p) > 0)
    assert np.all(np.diff(grow_v) > 0)
    flat_p = {sensitivity_p(SensitivitySpec(10, 0.2, 1.0, tm)) for tm in tms}
    assert len(flat_p) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        SensitivitySpec(n=0, tau=0.1, kappa_l=0.0)
    with pytest.raises(ValueError):
        SensitivitySpec(n=5, tau=-0.1, kappa_l=0.0)
    with pytest.raises(ValueError):
        SensitivitySpec(n=5, tau=0.1, kappa_l=0.0, tau_m=np.inf)


def test_spec_refuses_fractional_n_and_zero_tau():
    for bad in (dict(n=2.5, tau=0.1), dict(n=True, tau=0.1), dict(n=5, tau=0.0),
                dict(n=5, tau=True), dict(n=5, tau=0.1, tau_m=-0.1)):
        with pytest.raises(ConfigError):
            SensitivitySpec(kappa_l=0.0, **bad)


_ULP = 2.0 ** -52


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10_000),
       tau=st.floats(1e-6, 10.0, exclude_min=True, exclude_max=True),
       tau_m=st.floats(0.0, 10.0),
       kappa_l=st.floats(-4.0, 4.0),
       drop=st.floats(0.0, 8.0))
def test_bounds_property(n, tau, tau_m, kappa_l, drop):
    """Both bounds are built-in finite floats of at least 2 tau / n, exactly
    2 tau / n when kappa_l is not below -1e-12, and they do not decrease as
    kappa_l falls.  The sinh route rounds three times, so the lower bound and
    the monotonicity hold to a few ulps near the flat limit."""
    flat = 2.0 * tau / n
    spec = SensitivitySpec(n, tau, kappa_l, tau_m)
    lower = SensitivitySpec(n, tau, max(kappa_l - drop, -4.0), tau_m)
    for f in (sensitivity_p, sensitivity_v):
        val = f(spec)
        assert type(val) is float and math.isfinite(val)
        assert val >= flat * (1.0 - _ULP)
        if kappa_l >= -1e-12:
            assert val == flat
        assert f(lower) >= val * (1.0 - 4.0 * _ULP)


# --- composition and noise scales ----------------------------------------------


def test_compose_budget():
    assert compose_budget(0.3, 0.3).total == pytest.approx(0.6, abs=1e-15)
    assert compose_budget(0.02, 2.0).total == pytest.approx(2.02, abs=1e-15)
    b = compose_budget(1.5, 0.5)
    assert (b.eps_p, b.eps_v) == (1.5, 0.5)
    # float() would read True as 1.0 and "0.5" as 0.5
    for bad in (0.0, -1.0, np.nan, np.inf, True, "0.5", None):
        with pytest.raises(NonpositiveBudget):
            compose_budget(1.0, bad)
        with pytest.raises(NonpositiveBudget):
            compose_budget(bad, 1.0)


def test_noise_scales_substitution():
    spec = SensitivitySpec(n=50, tau=0.1, kappa_l=1.0)
    scales = noise_scales(spec, compose_budget(1.0, 1.0))
    assert scales.sigma_p == 0.004
    assert scales.sigma_v == 0.004
    doubled = noise_scales(spec, compose_budget(1.0, 1.0), factor=2)
    assert doubled.sigma_p == 2.0 * scales.sigma_p
    assert doubled.sigma_v == 2.0 * scales.sigma_v
    tight = noise_scales(spec, compose_budget(0.01, 1.0))
    assert tight.sigma_p == pytest.approx(100.0 * scales.sigma_p, rel=1e-12)
    with pytest.raises(ValueError):
        noise_scales(spec, compose_budget(1.0, 1.0), factor=3)
    with pytest.raises(NonpositiveBudget):
        noise_scales(spec, PrivacyBudget(1.0, 0.0))
    assert isinstance(scales, NoiseScales)


def test_budget_checks_itself():
    for bad in ((1.0, 0.0), (-0.5, 1.0), (np.nan, 1.0), (1.0, np.inf), (True, 0.5),
                (0.5, False), ("0.5", 1.0)):
        with pytest.raises(NonpositiveBudget):
            PrivacyBudget(*bad)


def test_noise_scales_refuses_non_integer_factor():
    spec = SensitivitySpec(n=50, tau=0.1, kappa_l=1.0)
    for bad in (True, 1.0, 2.0, "1"):
        with pytest.raises(ConfigError, match="factor"):
            noise_scales(spec, compose_budget(1.0, 1.0), factor=bad)


# --- tau policy ----------------------------------------------------------------------


def test_sensitivity_spec_public_and_empirical_tau():
    data, _ = make_dataset(Sphere(), 20, 0.05, seed=308)
    report = fit(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrivacyWarning)  # a public tau is silent
        spec, policy = sensitivity_spec(data.manifold, data.n, report, 0.3)
    assert policy == "public"
    assert spec == SensitivitySpec(n=20, tau=0.3, kappa_l=1.0, tau_m=0.0)
    with pytest.warns(PrivacyWarning, match="empirical residual bound"):
        spec, policy = sensitivity_spec(data.manifold, 7, report)
    assert policy == "empirical"
    assert spec.tau == report.tau_empirical and spec.n == 7


def test_sensitivity_spec_tau_m_only_under_negative_curvature():
    for man in (Sphere(), SPD()):
        data, _ = make_dataset(man, 12, 0.05, seed=309)
        report = fit(data)
        assert report.tau_m_empirical > 0.0
        spec, _ = sensitivity_spec(man, data.n, report, 0.3)
        kappa_l = man.curvature_bounds[0]
        assert spec.kappa_l == kappa_l
        assert spec.tau_m == (report.tau_m_empirical if kappa_l < 0.0 else 0.0)
    assert SPD().curvature_bounds[0] < 0.0


def test_sensitivity_spec_names_and_warns_empirical_tau_m():
    """SPD's bound takes the fit's data radius as tau_m, a number measured
    on the data: the policy names it and a PrivacyWarning says so, with a
    public tau as with an empirical one.  The sphere and Kendall bounds take
    no tau_m, so a public tau there stays silent and "public"."""
    data, _ = make_dataset(SPD(), 12, 0.05, seed=309)
    report = fit(data)
    with pytest.warns(PrivacyWarning, match="data radius as tau_m"):
        spec, policy = sensitivity_spec(data.manifold, data.n, report, 0.3)
    assert policy == "public tau, empirical tau_m"
    assert spec.tau == 0.3 and spec.tau_m == report.tau_m_empirical > 0.0
    with pytest.warns(PrivacyWarning, match="data radius as tau_m"):
        _, policy = sensitivity_spec(data.manifold, data.n, report)
    assert policy == "empirical tau, empirical tau_m"
    for man in (Sphere(), KendallPreshape(5)):
        data, _ = make_dataset(man, 12, 0.05, seed=309)
        report = fit(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrivacyWarning)
            spec, policy = sensitivity_spec(man, data.n, report, 0.3)
        assert policy == "public" and spec.tau_m == 0.0


def test_sensitivity_spec_rejects_bad_public_tau():
    data, _ = make_dataset(Sphere(), 10, 0.05, seed=310)
    report = fit(data)
    for bad in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="tau"):
            sensitivity_spec(data.manifold, data.n, report, bad)


def test_bool_public_tau_is_refused(monkeypatch):
    """JSON true is not a tau: the library and the grid refuse it as the
    config parser does, instead of releasing with tau 1.0."""
    monkeypatch.setenv("GEODP_THREADS", "1")
    data, _ = make_dataset(Sphere(), 10, 0.05, seed=311)
    with pytest.raises(ConfigError, match="tau"):
        sensitivity_spec(data.manifold, data.n, fit(data), True)
    grid = GridSpec(mode="equal", budget_list=[(0.5, 0.5)], m=1)
    with pytest.raises(ConfigError, match="tau"):
        run_grid(data, grid, ChainConfig(seed=1, chain_length=20, burn_in=5), tau=True)


@pytest.mark.parametrize("n", [4, 20])
def test_sensitivity_spec_refuses_noiseless_empirical_tau(n, monkeypatch):
    """Noiseless data measures tau 0 (n=4) or arccos rounding (n=20, about
    1e-8); an empirical bound that small is refused, in a single release and
    in a grid alike, while a public tau still applies."""
    monkeypatch.setenv("GEODP_THREADS", "1")
    data, _ = gen_sphere(n, 0.0, 1)
    report = fit(data)
    assert report.tau_empirical <= 1e-6
    with pytest.raises(ConfigError, match="floor"):
        sensitivity_spec(data.manifold, data.n, report)
    grid = GridSpec(mode="equal", budget_list=[(0.5, 0.5)], m=1)
    cfg = ChainConfig(seed=1, chain_length=20, burn_in=5)
    with pytest.raises(ConfigError, match="floor"):
        run_grid(data, grid, cfg)
    spec, policy = sensitivity_spec(data.manifold, data.n, report, 0.3)
    assert policy == "public" and spec.tau == 0.3
    assert run_grid(data, grid, cfg, tau=0.3).tau_policy == "public"


# --- log-densities ---------------------------------------------------------------
# The stage log-densities live with the samplers; these checks pin their value.


def ld_p(model, data, sigma, at=None):
    """Footpoint log-density at the coordinates `at` (default: the model's
    footpoint), with the model's shooting vector transported there."""
    point = model.p if at is None else at
    ld = _footpoint_logdens(model.manifold, data, model.p, model.v, sigma)
    return float(ld(point[None], None)[0])


def ld_v(model, data, sigma):
    """Shooting-vector log-density of the model's v at its footpoint."""
    ld = _shooting_logdens(model.manifold, data, sigma)
    return float(ld(model.v[None], model.p[None])[0])


def one_record(y):
    """The record (1, y) as the plain x and y arrays the stage closures read;
    a Dataset needs at least two records spanning [0, 1]."""
    return SimpleNamespace(x=np.array([1.0]), y=y[None, :])


def test_logdensity_peaks_at_fit():
    data, _ = make_dataset(Sphere(), 20, 0.05, seed=301)
    model = fit(data).model
    assert -1e-3 <= ld_p(model, data, 0.01) <= 0.0
    assert -1e-3 <= ld_v(model, data, 0.01) <= 0.0


def test_logdensity_nonpositive_everywhere():
    man = Sphere()
    data, model = make_dataset(man, 10, 0.1, seed=302)
    rng = np.random.default_rng(303)
    for _ in range(20):
        p = man._random_point(rng)
        if man._dist(p, model.p) > 1.0:
            continue
        at = GeodesicModel(p, 0.3 * man._gaussian_tangent(p, rng.standard_normal(3)), man)
        assert ld_p(model, data, 0.05, at=p) <= 0.0
        assert ld_v(at, data, 0.05) <= 0.0


def test_logdensity_scales_inversely_with_sigma():
    data, model = make_dataset(Sphere(), 10, 0.1, seed=304)
    ld1 = ld_v(model, data, 0.02)
    ld2 = ld_v(model, data, 0.04)
    assert ld1 < 0.0
    assert ld2 == pytest.approx(0.5 * ld1, rel=1e-12)


def test_logdensity_collinear_single_record():
    """One record on the model's own geodesic makes the residual radial, so
    the gradient norm equals the residual distance for both variations."""
    man = Sphere()
    p = np.array([1.0, 0.0, 0.0])
    vhat = np.array([0.0, 1.0, 0.0])
    model = GeodesicModel(p, 0.3 * vhat, man)
    data = one_record(man._exp(p, 0.8 * vhat))
    sigma = 0.07
    assert ld_v(model, data, sigma) == pytest.approx(-0.5 / sigma, rel=1e-9)
    assert ld_p(model, data, sigma) == pytest.approx(-0.5 / sigma, rel=1e-9)


def test_logdensity_is_scaled_gradient_norm():
    man = Sphere()
    data, model = make_dataset(man, 6, 0.2, seed=305, spread=0.3)
    sigma = 0.11
    p, v = model.p, model.v
    for wrt, ld in (("v", ld_v(model, data, sigma)), ("p", ld_p(model, data, sigma))):
        (g,), valid = _grad_rows(man, p[None], v[None], data.x, data.y, wrt)
        assert valid[0]
        assert ld == pytest.approx(-float(man._norm(p, g)) / sigma, rel=1e-12)


@pytest.mark.parametrize("man", [Sphere(), KendallPreshape(5)], ids=["sphere", "kendall"])
def test_logdensity_cut_locus(man):
    """A prediction on the cut locus leaves the gradient undefined; the
    density is zero there, so a chain never accepts such a state.  On the
    sphere the response is the footpoint's antipode; on Kendall preshapes it
    is Hermitian-orthogonal to the footpoint, at distance pi/2."""
    rng = np.random.default_rng(306)
    p = man._random_point(rng)
    if man.kind == "sphere":
        y = -p
    else:
        o = man._project_tangent(p, rng.standard_normal(man.ambient_dim))
        y = o / np.linalg.norm(o)
    assert man._dist(p, y) >= man.cut_locus_radius
    model = GeodesicModel(p, np.zeros(man.ambient_dim), man)
    assert ld_p(model, one_record(y), 0.1) == -np.inf
