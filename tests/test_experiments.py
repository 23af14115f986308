"""Data generators, budget grids, the release harness, and bound validation."""

import warnings

import numpy as np
import pytest

from geodp.errors import ConfigError, PrivacyWarning
from geodp.experiments import (
    AdjacentPair,
    _worker_count,
    GridSpec,
    SensitivityReport,
    SensitivityRow,
    equal_split_budgets,
    gen_kendall,
    gen_spd,
    gen_sphere,
    make_adjacent_pairs,
    run_grid,
    unequal_split_budgets,
    validate_sensitivity,
)
from geodp.regression import Dataset, fit
from geodp.sampling import ChainConfig

GENS = {
    "sphere": lambda n, seed: gen_sphere(n, 0.01, seed),
    "spd": lambda n, seed: gen_spd(n, 0.05, seed),
    "kendall": lambda n, seed: gen_kendall(n, 0.01, seed, landmarks=8),
}


@pytest.mark.parametrize("name", sorted(GENS))
def test_generator_membership_and_span(name):
    data, model = GENS[name](25, 42)
    man = data.manifold
    assert data.n == 25
    assert data.x.min() == 0.0 and data.x.max() == 1.0
    assert float(np.max(man._point_defect(data.y))) <= 1e-10
    assert float(man._point_defect(model.p)) <= 1e-10
    assert float(man._tangent_defect(model.p, model.v)) <= 1e-10


@pytest.mark.parametrize("name", sorted(GENS))
def test_generator_noiseless_responses_sit_on_the_curve(name):
    gen = {
        "sphere": lambda: gen_sphere(20, 0.0, 7),
        "spd": lambda: gen_spd(20, 0.0, 7),
        "kendall": lambda: gen_kendall(20, 0.0, 7, landmarks=6),
    }[name]
    data, model = gen()
    preds = model.predict(data.x)
    # compare coordinates: geodesic distance has an absolute error floor of
    # about sqrt(eps) near zero, which would mask nothing and fail everything
    assert np.allclose(preds, data.y, atol=1e-12)
    # the record at x=0 is the footpoint itself
    i0 = int(np.argmin(data.x))
    assert np.allclose(model.p, data.y[i0], atol=1e-12)


def test_generator_determinism():
    a1, m1 = gen_sphere(15, 0.02, 99)
    a2, m2 = gen_sphere(15, 0.02, 99)
    b, _ = gen_sphere(15, 0.02, 100)
    assert np.array_equal(a1.x, a2.x) and np.array_equal(a1.y, a2.y)
    assert np.array_equal(m1.p, m2.p)
    assert not np.array_equal(a1.y, b.y)


def test_spd_responses_are_positive_definite():
    data, _ = gen_spd(30, 0.1, 5)
    for row in data.y:
        mat = row.reshape(2, 2)
        assert mat[0, 1] == mat[1, 0]
        assert np.min(np.linalg.eigvalsh(mat)) > 0.0


@pytest.mark.parametrize("name", sorted(GENS))
@pytest.mark.parametrize("n, noise", [(10, float("nan")), (10, -0.1), (10, True), (1, 0.01)],
                         ids=["noise-nan", "noise-negative", "noise-bool", "n-1"])
def test_generator_rejects_bad_size_and_noise(name, n, noise):
    gen = {"sphere": gen_sphere, "spd": gen_spd,
           "kendall": lambda n, noise, seed: gen_kendall(n, noise, seed, landmarks=6)}[name]
    with pytest.raises(ConfigError, match="noise" if n > 1 else "n must"):
        gen(n, noise, 1)


def test_kendall_trajectory_stays_inside_guard():
    data, model = gen_kendall(40, 0.0, 11, landmarks=12)
    man = data.manifold
    dists = man._dist(np.broadcast_to(model.p, data.y.shape), data.y)
    assert float(np.max(dists)) < man.cut_locus_radius


# --- budget grids ----------------------------------------------------------------


def test_equal_split_budgets():
    grid = equal_split_budgets()
    assert len(grid) == 10
    assert grid[0] == (0.1, 0.1)
    assert grid[-1] == (1.0, 1.0)
    totals = [p + v for p, v in grid]
    assert np.allclose(totals, np.linspace(0.2, 2.0, 10), atol=1e-15)
    assert all(p == v for p, v in grid)


def test_unequal_split_budgets():
    grid = unequal_split_budgets()
    assert len(grid) == 10
    eps_p = [p for p, _ in grid]
    assert eps_p[0] == 0.02 and eps_p[-1] == 2.0
    assert np.all(np.diff(eps_p) > 0)
    for p, v in grid:
        assert abs((p + v) - 2.02) <= 1e-15


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(mode="diagonal", budget_list=[(0.1, 0.1)])
    with pytest.raises(ValueError):
        GridSpec(mode="equal", budget_list=[])
    with pytest.raises(ValueError):
        GridSpec(mode="equal", budget_list=[(0.1, 0.1)], m=0)


# --- release harness ---------------------------------------------------------------


def small_grid(tau=None, seed=5):
    data, _ = gen_sphere(15, 0.01, seed)
    grid = GridSpec(mode="equal", budget_list=equal_split_budgets(steps=3), m=2)
    cfg = ChainConfig(seed=seed, chain_length=40, burn_in=10)
    return data, grid, cfg, tau


def test_run_grid_smoke(monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "1")
    data, grid, cfg, _ = small_grid()
    with pytest.warns(PrivacyWarning, match="empirical"):
        result = run_grid(data, grid, cfg)
    assert result.tau_policy == "empirical"
    assert result.n == 15 and result.m == 2 and result.mode == "equal"
    assert result.manifold == {"kind": "sphere"}
    assert len(result.cells) == 3
    assert np.isfinite(result.baseline_ln_mse)
    for cell, (ep, ev) in zip(result.cells, grid.budget_list):
        assert (cell.eps_p, cell.eps_v) == (ep, ev)
        assert cell.baseline_ln_mse == result.baseline_ln_mse
        assert 0 <= cell.excluded <= grid.m * grid.m
        assert 0.0 <= cell.acceptance_p <= 1.0
        assert 0.0 <= cell.acceptance_v <= 1.0
        if np.isfinite(cell.mean_mse):
            assert cell.ln_mse == pytest.approx(np.log(cell.mean_mse), rel=1e-12)


def test_run_grid_public_tau_and_determinism(monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "1")
    data, grid, cfg, _ = small_grid()
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error", PrivacyWarning)  # public tau must not warn
        r1 = run_grid(data, grid, cfg, tau=0.5)
        r2 = run_grid(data, grid, cfg, tau=0.5)
    assert r1.tau_policy == "public"
    assert r1.tau == 0.5
    assert r1.cells == r2.cells


def test_run_grid_worker_split_matches_serial(monkeypatch):
    data, grid, cfg, _ = small_grid()
    monkeypatch.setenv("GEODP_THREADS", "1")
    serial = run_grid(data, grid, cfg, tau=0.5)
    monkeypatch.setenv("GEODP_THREADS", "2")
    parallel = run_grid(data, grid, cfg, tau=0.5)
    assert serial.cells == parallel.cells


def test_run_grid_rejects_nonpositive_public_tau(monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "1")
    data, grid, cfg, _ = small_grid()
    for bad in (0.0, -0.1):
        with pytest.raises(ConfigError, match="tau"):
            run_grid(data, grid, cfg, tau=bad)


def test_run_grid_exact_fit_baseline_without_runtime_warning(monkeypatch):
    """A noiseless fit has energy 0: its baseline ln MSE is -inf, recorded
    without a numpy divide-by-zero warning."""
    monkeypatch.setenv("GEODP_THREADS", "1")
    data, _ = gen_sphere(4, 0.0, 1)
    grid = GridSpec(mode="equal", budget_list=[(0.5, 0.5)], m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_grid(data, grid, ChainConfig(seed=1, chain_length=20, burn_in=5), tau=0.3)
    assert result.baseline_ln_mse == -np.inf
    assert result.cells[0].baseline_ln_mse == -np.inf


def test_worker_count_reads_geodp_threads(monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", " 2 ")
    assert _worker_count(5) == 2
    assert _worker_count(1) == 1
    monkeypatch.delenv("GEODP_THREADS")
    assert 1 <= _worker_count(3) <= 3
    for bad in ("two", "0", "-1", "1.5", "²"):
        monkeypatch.setenv("GEODP_THREADS", bad)
        with pytest.raises(ConfigError, match="GEODP_THREADS"):
            _worker_count(3)


# --- adjacency and bound validation ---------------------------------------------


def test_make_adjacent_pairs_structure():
    n, trials = 10, 5
    pairs = make_adjacent_pairs(n, GENS["sphere"], trials, seed=314)
    assert len(pairs) == trials
    for pair in pairs:
        assert pair.d.n == n and pair.d_prime.n == n and pair.union.n == n + 1
        # the n-1 shared records are bit-identical, offset by one position
        assert np.array_equal(pair.d.x[:-1], pair.d_prime.x[1:])
        assert np.array_equal(pair.d.y[:-1], pair.d_prime.y[1:])
        for ds in (pair.d, pair.d_prime, pair.union):
            assert ds.x.min() == 0.0 and ds.x.max() == 1.0
        # the swapped-out records genuinely differ
        assert pair.d.x[-1] != pair.d_prime.x[0] or not np.array_equal(
            pair.d.y[-1], pair.d_prime.y[0])


def test_make_adjacent_pairs_rejects_tiny_n():
    with pytest.raises(ValueError):
        make_adjacent_pairs(2, GENS["sphere"], 1, seed=0)


def test_zero_trials_are_refused():
    """No pairs would report every bound as holding over zero trials."""
    with pytest.raises(ConfigError, match="trials"):
        make_adjacent_pairs(5, GENS["sphere"], 0, 1)
    with pytest.raises(ConfigError, match="at least one adjacent pair"):
        validate_sensitivity([])


def test_adjacent_pair_size_mismatch():
    d, _ = gen_sphere(10, 0.01, 1)
    d7, _ = gen_sphere(7, 0.01, 2)
    with pytest.raises(ValueError):
        AdjacentPair(d=d, d_prime=d7, union=d)


def test_identical_pair_gives_infinite_ratio():
    data, _ = gen_sphere(6, 0.01, 21)
    keep = np.ones(6, dtype=bool)
    inner = [i for i in range(6) if i not in (np.argmin(data.x), np.argmax(data.x))]
    keep[inner[0]] = False
    d = Dataset(data.x[keep], data.y[keep], data.manifold)
    report = validate_sensitivity([AdjacentPair(d=d, d_prime=d, union=data)])
    assert report.min_ratio == np.inf
    assert report.all_bounded()


def test_noiseless_pairs_raise_zero_tau_error():
    """Noiseless data fits with zero residuals; the measured tau is 0 and
    the bound vacuous, which gets its own message naming the trial."""
    pairs = make_adjacent_pairs(4, lambda n, s: gen_sphere(n, 0.0, s), 3, 1)
    with pytest.raises(ConfigError, match=r"trial 0: the union fit has zero residuals"):
        validate_sensitivity(pairs)


def test_noiseless_pairs_with_rounding_tau_raise_zero_tau_error():
    """At n=20 a noiseless union fit stops with a tau of arccos/log rounding
    (about 1e-8), not exactly 0; the bound is just as vacuous."""
    pairs = make_adjacent_pairs(20, lambda n, s: gen_sphere(n, 0.0, s), 2, 1)
    assert 0.0 < fit(pairs[0].union).tau_empirical <= 1e-6
    with pytest.raises(ConfigError, match=r"trial 0: the union fit has zero residuals"):
        validate_sensitivity(pairs)


def test_validated_bounds_dominate_observed_swings():
    pairs = make_adjacent_pairs(8, GENS["sphere"], 4, seed=2718)
    report = validate_sensitivity(pairs)
    assert len(report.rows) == 4
    assert report.all_bounded()
    assert report.min_ratio >= 1.0
    for row in report.rows:
        assert row.delta_p_theory >= row.delta_p_empirical
        assert row.delta_v_theory >= row.delta_v_empirical
        assert row.tau > 0.0 and row.tau_m == 0.0  # positive curvature


def test_spd_audit_raises_no_privacy_warning():
    """validate_sensitivity measures tau and tau_m on purpose and releases
    nothing, so it stays quiet where a release on SPD warns about tau_m."""
    pairs = make_adjacent_pairs(8, GENS["spd"], 2, seed=2719)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrivacyWarning)
        report = validate_sensitivity(pairs)
    assert len(report.rows) == 2 and all(row.tau_m > 0.0 for row in report.rows)


def test_report_aggregates():
    def row(rp, rv):
        return SensitivityRow(0, 5, 0.1, 0.0, 1.0, 0.5, rp, 1.0, 0.5, rv)

    good = SensitivityReport([row(2.0, 1.5), row(1.2, 3.0)])
    assert good.min_ratio == 1.2
    assert good.all_bounded()
    bad = SensitivityReport([row(2.0, 0.9)])
    assert not bad.all_bounded()
    assert bad.min_ratio == 0.9
