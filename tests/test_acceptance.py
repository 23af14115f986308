"""Acceptance gate: eight end-to-end criteria with stated tolerances.

Each test records one PASS/FAIL line (with its runtime) before asserting;
the conftest hook prints them as an "acceptance criteria" section at the
end of the run.  Criteria 4 and 5 run full-size release grids and take a
few minutes combined; everything else is fast.
"""

import time
import warnings

import numpy as np
import pytest
from scipy import stats

from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.privacy import SensitivitySpec, compose_budget, sensitivity_p, sensitivity_v
from geodp.regression import _energy_rows, _grad_rows, fit
from geodp.sampling import ChainConfig, _run_chains, release_pair
from geodp.experiments import (
    GridSpec,
    equal_split_budgets,
    gen_kendall,
    gen_spd,
    gen_sphere,
    make_adjacent_pairs,
    run_grid,
    unequal_split_budgets,
    validate_sensitivity,
)

MANIFOLDS = [Sphere(), SPD(), KendallPreshape(6)]

VERDICTS: list[str] = []


def verdict(num: int, ok: bool, t0: float, detail: str) -> None:
    VERDICTS.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} "
                    f"({time.perf_counter() - t0:.1f} s) {detail}")


def batch_state(man, rng, size, scale):
    p = man._random_point(rng, size=size)
    v = man._gaussian_tangent(p, rng.standard_normal(p.shape))
    nv = man._norm(p, v)[:, None]
    v = v / nv * (scale * rng.uniform(0.05, 1.0, size=size)[:, None])
    return p, v


def test_criterion_1_geometry_suite():
    t0 = time.perf_counter()
    cases = 1000
    tol = 1e-8
    worst = 0.0
    for man in MANIFOLDS:
        rng = np.random.default_rng(12001)
        reach = min(man.injectivity_radius, np.pi) * 0.8
        p, v = batch_state(man, rng, cases, reach)
        q = man._exp(p, v)
        nv = man._norm(p, v)
        worst = max(worst, float(np.max(man._point_defect(q))))
        worst = max(worst, float(np.max(np.abs(man._dist(p, q) - nv))))
        back = man._log(p, q)
        rt = np.linalg.norm(back - v, axis=-1) / np.maximum(nv, 1.0)
        worst = max(worst, float(np.max(rt)))
        u = man._gaussian_tangent(p, rng.standard_normal(p.shape))
        w = man._gaussian_tangent(p, rng.standard_normal(p.shape))
        gu = man._transport(p, q, u)
        gw = man._transport(p, q, w)
        scale = np.maximum(man._norm(p, u) * man._norm(p, w), 1.0)
        iso = np.abs(man._inner(q, gu, gw) - man._inner(p, u, w)) / scale
        worst = max(worst, float(np.max(iso)))
        worst = max(worst, float(np.max(man._tangent_defect(q, gu))))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 10.0
    verdict(1, ok, t0, f"geometry invariants on {cases} cases x 3 manifolds, "
                       f"worst defect {worst:.2e} (tol {tol:g})")
    assert worst <= tol
    assert elapsed < 10.0


def fd_grad(man, p, v, x, Y, wrt, step=1e-5):
    frame = man._frame(p)
    coeffs = []
    for b in frame:
        if wrt == "p":
            pp, pm = man._exp(p, step * b), man._exp(p, -step * b)
            ep = _energy_rows(man, pp[None], man._transport(p, pp, v)[None], x, Y)[0]
            em = _energy_rows(man, pm[None], man._transport(p, pm, v)[None], x, Y)[0]
        else:
            ep = _energy_rows(man, p[None], man._project_tangent(p, v + step * b)[None], x, Y)[0]
            em = _energy_rows(man, p[None], man._project_tangent(p, v - step * b)[None], x, Y)[0]
        coeffs.append((ep - em) / (2 * step))
    return np.einsum("j,ja->a", np.array(coeffs), frame)


def test_criterion_2_gradient_oracle():
    t0 = time.perf_counter()
    gens = {
        "sphere": lambda s: gen_sphere(10, 0.01, s),
        "spd": lambda s: gen_spd(10, 0.05, s),
        "kendall": lambda s: gen_kendall(10, 0.01, s, landmarks=50),
    }
    worst = 0.0
    for gen in gens.values():
        for i in range(100):
            data, truth = gen(1000 + i)
            man = data.manifold
            p, v = truth.p, truth.v
            for wrt in ("p", "v"):
                got, _ = _grad_rows(man, p[None], v[None], data.x, data.y, wrt)
                ora = fd_grad(man, p, v, data.x, data.y, wrt)
                rel = float(man._norm(p, got[0] - ora)) / max(float(man._norm(p, ora)), 1e-12)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    verdict(2, ok, t0, f"exact vs central-difference gradients, 100 "
                       f"instances x 3 manifolds, worst rel err {worst:.2e} (tol 1e-04)")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_3_sensitivity_formulas():
    t0 = time.perf_counter()
    checks = []
    # flat and positive-curvature branches reduce to 2 tau / n exactly
    checks.append(sensitivity_p(SensitivitySpec(50, 0.1, 1.0)) == 0.004)
    checks.append(sensitivity_v(SensitivitySpec(100, 0.2, 0.0)) == 0.004)
    checks.append(sensitivity_v(SensitivitySpec(100, 0.05, 1.0)) == 0.001)
    # negative-curvature branch: cosh / sinh inflation at kappa_l = -1/2
    spec = SensitivitySpec(20, 0.1, -0.5, 0.5)
    arg = 2.0 * np.sqrt(0.5) * 0.6
    dp = sensitivity_p(spec)
    dv = sensitivity_v(spec)
    checks.append(abs(dp - 0.01 * np.cosh(arg)) <= 1e-12 * dp)
    checks.append(abs(dv - 0.005 * np.sinh(arg) / (np.sqrt(0.5) * 0.6)) <= 1e-12 * dv)
    # continuity across the flat boundary
    cont = 0.0
    for f in (sensitivity_p, sensitivity_v):
        flat = f(SensitivitySpec(10, 0.2, 0.0, 0.3))
        near = f(SensitivitySpec(10, 0.2, -1e-10, 0.3))
        cont = max(cont, abs(near - flat) / flat)
    checks.append(cont <= 1e-6)
    ok = all(checks)
    verdict(3, ok, t0, f"exact bound substitutions plus flat-limit continuity "
                       f"(worst rel jump {cont:.2e}, tol 1e-06)")
    assert ok


@pytest.mark.slow
def test_criterion_4_bound_validation():
    t0 = time.perf_counter()
    ratios = []
    for gen, noise in ((gen_sphere, 0.001), (gen_spd, 0.01)):
        for n in (20, 50, 100):
            pairs = make_adjacent_pairs(
                n, lambda nn, s: gen(nn, noise, s), 20, seed=314159 + n)
            report = validate_sensitivity(pairs)
            ratios.append((report.min_ratio, report.all_bounded()))
    elapsed = time.perf_counter() - t0
    min_ratio = min(r for r, _ in ratios)
    ok = all(b for _, b in ratios) and min_ratio >= 1.0 and elapsed < 300.0
    verdict(4, ok, t0, f"120 adjacent pairs (sphere + spd, n in 20/50/100), "
                       f"min theory/observed ratio {min_ratio:.3f} (>= 1 required)")
    assert all(b for _, b in ratios)
    assert min_ratio >= 1.0
    assert elapsed < 300.0


SEEDS = (101, 202, 303)


@pytest.mark.slow
def test_criterion_5_budget_grid_trends():
    t0 = time.perf_counter()
    cfg = lambda seed: ChainConfig(seed=seed)  # M=5000, burn-in 1000
    mean_ln = {}
    min_margin = np.inf
    for n in (20, 50, 100):
        per_seed = []
        for seed in SEEDS:
            data, _ = gen_sphere(n, 0.001, seed)
            grid = GridSpec("equal", equal_split_budgets(), m=10)
            res = run_grid(data, grid, cfg(seed))
            per_seed.append(np.mean([c.ln_mse for c in res.cells]))
            min_margin = min(min_margin, min(c.ln_mse - c.baseline_ln_mse
                                             for c in res.cells))
        mean_ln[n] = float(np.mean(per_seed))
    ordered = mean_ln[20] > mean_ln[50] > mean_ln[100]
    dominated = min_margin >= 0.0

    gaps = []
    for seed in SEEDS:
        data, _ = gen_sphere(50, 0.001, seed)
        grid = GridSpec("unequal", unequal_split_budgets(), m=10)
        res = run_grid(data, grid, cfg(seed))
        lns = np.array([c.ln_mse for c in res.cells])
        gaps.append(float(min(lns[0], lns[-1]) - lns[1:-1].min()))
    endpoint_gap = min(gaps)

    elapsed = time.perf_counter() - t0
    ok = ordered and dominated and endpoint_gap >= 0.5 and elapsed < 900.0
    verdict(5, ok, t0,
            f"ln-error ordering n=20/50/100: {mean_ln[20]:.3f} > {mean_ln[50]:.3f} "
            f"> {mean_ln[100]:.3f} ({ordered}); min margin over baseline "
            f"{min_margin:.3f}; unequal endpoint gap {endpoint_gap:.3f} nats (>= 0.5)")
    assert ordered
    assert dominated
    assert endpoint_gap >= 0.5
    assert elapsed < 900.0


def test_criterion_6_noise_spread_trend():
    t0 = time.perf_counter()
    baselines = []
    for delta in (0.001, 0.01, 0.1):
        data, _ = gen_sphere(50, delta, 404)
        report = fit(data)
        baselines.append(float(np.log(2.0 * report.energy)))
    ok = baselines[0] < baselines[1] < baselines[2]
    verdict(6, ok, t0, "non-private baseline ln error rises with noise: "
                       + " < ".join(f"{b:.3f}" for b in baselines))
    assert ok


def test_criterion_7_sampler_sanity():
    t0 = time.perf_counter()
    man = Sphere()
    z0 = np.array([0.0, 0.0, 1.0])
    sigma = 0.15

    def ld(points, base):
        return -man._dist(points, z0[None]) / sigma

    M = 5000
    ss, ss_ref = np.random.SeedSequence(20260816).spawn(2)
    chain = ChainConfig(seed=1, chain_length=M)
    ref = ChainConfig(seed=1, chain_length=10 * M)
    _, _, samp = _run_chains(man, z0[None].copy(), ld, 0.25, chain, [ss],
                             keep_samples=True)
    _, _, samp_ref = _run_chains(man, z0[None].copy(), ld, 0.25, ref, [ss_ref],
                                 keep_samples=True)
    # each chain's first fifth is its burn-in
    ks = stats.ks_2samp(man._dist(samp[0, M // 5:], z0[None]),
                        man._dist(samp_ref[0, 2 * M:], z0[None])).statistic

    data, _ = gen_sphere(30, 0.001, 7)
    report = fit(data)
    spec = SensitivitySpec(n=30, tau=report.tau_empirical, kappa_l=1.0)
    cfg = ChainConfig(seed=20260816, chain_length=400, burn_in=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        r1 = release_pair(data, report, spec, compose_budget(1.0, 1.0), cfg)
        r2 = release_pair(data, report, spec, compose_budget(1.0, 1.0), cfg)
    identical = (np.array_equal(r1.model.p, r2.model.p)
                 and np.array_equal(r1.model.v, r2.model.v))

    ok = ks <= 0.05 and identical
    verdict(7, ok, t0, f"KS vs 10x-longer reference chain {ks:.4f} (<= 0.05); "
                       f"fixed-seed releases bit-identical: {identical}")
    assert ks <= 0.05
    assert identical


def test_criterion_8_generator_recovery():
    t0 = time.perf_counter()
    gens = {
        "sphere": lambda s: gen_sphere(40, 0.0, s),
        "spd": lambda s: gen_spd(40, 0.0, s),
        "kendall": lambda s: gen_kendall(40, 0.0, s),
    }
    worst_e, worst_d = 0.0, 0.0
    for gen in gens.values():
        data, truth = gen(505)
        report = fit(data)
        worst_e = max(worst_e, report.energy)
        worst_d = max(worst_d, float(data.manifold._dist(report.model.p,
                                                         truth.p)))
    ok = worst_e <= 1e-12 and worst_d <= 1e-6
    verdict(8, ok, t0, f"zero-noise recovery on 3 manifolds: worst energy "
                       f"{worst_e:.2e} (<= 1e-12), worst footpoint error "
                       f"{worst_d:.2e} (<= 1e-06)")
    assert worst_e <= 1e-12
    assert worst_d <= 1e-6
