"""Metropolis samplers: proposal law, reproducibility, and release statistics."""

import warnings

import numpy as np
import pytest
from scipy import stats

from geodp import sampling
from geodp.errors import ConfigError
from geodp.experiments import equal_split_budgets, gen_kendall, gen_spd, gen_sphere
from geodp.geometry import TANGENCY_TOL
from geodp.manifolds import SPD, KendallPreshape, Sphere
from geodp.privacy import NoiseScales, SensitivitySpec, compose_budget, noise_scales
from geodp.regression import fit
from geodp.sampling import (
    ChainConfig,
    PrivateRelease,
    _diagnostics,
    _footpoint_grad,
    _footpoint_logdens,
    _kernel,
    _linearize,
    _LinearLaw,
    _release_batch,
    _resolve_eta,
    _run_chains,
    _shooting_grad,
    _shooting_logdens,
    release_pair,
)

from test_regression import make_dataset


def sphere_fit(seed=401, n=30, noise=0.05):
    data, _ = make_dataset(Sphere(), n, noise, seed=seed)
    return data, fit(data)


def scales(sigma_p, sigma_v=None):
    return NoiseScales(sigma_p=sigma_p, sigma_v=sigma_v or sigma_p, factor=1)


def release(data, report, sc, cfg, seeds, k=1):
    """Run the release engine from the fit, one footpoint chain per seed and
    k shooting chains per footpoint."""
    model = report.model
    fp = [np.random.SeedSequence(s) for s in seeds]
    sh = [np.random.SeedSequence([s, j]) for s in seeds for j in range(k)]
    return _release_batch(data, model.p, model.v, sc, cfg, fp, sh)


def flat_walk(man, start, eta, length, n_chains, seed):
    """Samples of a walk on a flat log-density: log u < 0 = delta, so every
    proposal is accepted and consecutive states are one proposal apart."""
    cfg = ChainConfig(seed=0, chain_length=length, burn_in=0)
    flat = lambda points, base: np.zeros(points.shape[0])
    starts = np.broadcast_to(start, (n_chains, start.shape[0])).copy()
    seeds = np.random.SeedSequence(seed).spawn(n_chains)
    _, diags, samples = _run_chains(man, starts, flat, eta, cfg, seeds,
                                    keep_samples=True)
    assert all(d.accepted == length for d in diags)
    return np.concatenate([starts[:, None], samples], axis=1)


# --- proposal law -----------------------------------------------------------------


def test_proposal_mean_radius():
    """Uniform-ball radii r = eta * U^(1/dim) have mean eta * dim / (dim + 1)."""
    man = Sphere()
    p = man._random_point(np.random.default_rng(402))
    eta = 0.05
    path = flat_walk(man, p, eta, 1000, 60, seed=402)
    dists = man._dist(path[:, :-1], path[:, 1:]).ravel()
    assert dists.size == 60_000
    expected = eta * man.dim / (man.dim + 1)
    assert np.max(dists) <= eta * (1 + 1e-12)
    assert abs(dists.mean() - expected) <= 0.01 * expected


def test_proposal_tiny_radius_degenerates():
    man = Sphere()
    p = man._random_point(np.random.default_rng(403))
    path = flat_walk(man, p, 1e-12, 1, 1, seed=403)
    assert np.linalg.norm(path[0, 1] - p) <= 1e-11


def test_resolve_eta_cap_and_collapse():
    man = Sphere()
    cfg = ChainConfig(seed=0, chain_length=10, burn_in=0)
    # large sigma is capped at a tenth of the injectivity radius
    assert _resolve_eta(man, 99.0, cfg) == pytest.approx(0.1 * np.pi)
    assert _resolve_eta(man, 0.02, cfg) == pytest.approx(0.02)
    scaled = ChainConfig(seed=0, chain_length=10, burn_in=0, eta_factor=0.35)
    assert _resolve_eta(man, 0.02, scaled) == pytest.approx(0.007)
    with pytest.raises(ValueError, match="collapsed"):
        _resolve_eta(man, 0.0, cfg)
    # no cap without a finite injectivity radius
    assert _resolve_eta(SPD(), 99.0, cfg) == pytest.approx(99.0)


def test_proposal_volume_distortion_within_band():
    """The exp map shrinks sphere volumes by sin(r)/r; within the proposal cap
    the distortion stays small enough to treat the walk as symmetric."""
    inj = Sphere().injectivity_radius
    distortion = lambda r: 1.0 - np.sin(r) / r
    assert distortion(0.1 * inj) <= 2e-2
    assert distortion(0.078 * inj) <= 1e-2


# --- chain mechanics ----------------------------------------------------------------


def test_chain_matches_synthetic_target():
    """Two-sample KS between a short and a long run of the same chain on a
    synthetic exponential target; catches detailed-balance bugs."""
    man = Sphere()
    z0 = np.array([0.0, 0.0, 1.0])
    sigma = 0.15

    def ld(points, base):
        return -man._dist(points, z0[None, :]) / sigma

    eta = 0.25

    def run(length, ss):
        cfg = ChainConfig(seed=0, chain_length=length, burn_in=0)
        _, _, samples = _run_chains(man, z0[None], ld, eta, cfg, [ss],
                                    keep_samples=True)
        return man._dist(samples[0, length // 5:], z0[None, :])

    ss_short, ss_long = np.random.SeedSequence(11).spawn(2)
    short = run(4000, ss_short)
    long = run(40_000, ss_long)
    ks = stats.ks_2samp(short, long).statistic
    assert ks <= 0.05


def test_single_chain_bit_identical_across_runs():
    data, report = sphere_fit()
    sc = scales(0.05)
    cfg = ChainConfig(seed=777, chain_length=200, burn_in=50)
    p1, v1, dp1, dv1 = release(data, report, sc, cfg, [777])
    p2, v2, dp2, dv2 = release(data, report, sc, cfg, [777])
    assert np.array_equal(p1, p2)
    assert np.array_equal(v1, v2)
    assert dp1 == dp2 and dv1 == dv2


def test_release_is_a_batch_of_one():
    """Row 0 of an m=2, k=2 engine call equals an m=1, k=1 call given the
    same first seeds, bit for bit."""
    data, report = sphere_fit()
    sc = scales(0.05)
    cfg = ChainConfig(seed=0, chain_length=200, burn_in=50)
    p_big, v_big, dp_big, dv_big = release(data, report, sc, cfg, [41, 42], k=2)
    p_one, v_one, dp_one, dv_one = release(data, report, sc, cfg, [41], k=1)
    assert p_big.shape == v_big.shape == (4, 3)
    assert len(dp_big) == 2 and len(dv_big) == 4
    assert np.array_equal(p_big[0], p_one[0])
    assert np.array_equal(p_big[1], p_one[0])  # both shooting rows of footpoint 0
    assert np.array_equal(v_big[0], v_one[0])
    assert dp_big[0] == dp_one[0] and dv_big[0] == dv_one[0]
    assert not np.array_equal(p_big[0], p_big[2])


def test_chain_alone_matches_chain_in_batch():
    data, report = sphere_fit()
    man = data.manifold
    model = report.model
    ld = _footpoint_logdens(man, data, model.p, model.v, 0.05)
    cfg = ChainConfig(seed=0, chain_length=300, burn_in=0)
    rng = np.random.default_rng(405)
    starts = np.stack([model.p, man._random_point(rng)])
    seeds = [np.random.SeedSequence(9001), np.random.SeedSequence(9002)]
    batch, batch_diag, _ = _run_chains(man, starts, ld, 0.05, cfg, seeds)
    for b in range(2):
        alone, alone_diag, _ = _run_chains(
            man, starts[b][None], ld, 0.05, cfg, [seeds[b]])
        assert np.array_equal(alone[0], batch[b])
        assert alone_diag[0] == batch_diag[b]


def step_by_step_chains(man, state, logdens, eta, cfg, seed_seqs, linear_base=None):
    """The chain loop with all proposal work done at its own step and one
    log-density call per step: the reference that _run_chains, which hoists
    state-independent proposal work and prefetches step trees, must
    reproduce bit for bit.  Returns the final states and the states after
    every step, shaped (B, chain_length, ambient)."""
    gens = [np.random.Generator(np.random.PCG64(ss)) for ss in seed_seqs]
    cur = np.array(state, dtype=float)
    cur_ld = logdens(cur, linear_base)
    kept = []
    done = 0
    while done < cfg.chain_length:
        mb = min(512, cfg.chain_length - done)
        normals = np.stack([g.standard_normal((mb, cur.shape[1])) for g in gens])
        radii = np.stack([g.random(mb) for g in gens])
        log_u = np.log(np.stack([g.random(mb) for g in gens]))
        for j in range(mb):
            anchors = cur if linear_base is None else linear_base
            dirs = man._gaussian_tangent(anchors, normals[:, j])
            dirs = dirs / np.maximum(man._norm(anchors, dirs)[:, None], 1e-300)
            step = (eta * radii[:, j] ** (1.0 / man.dim))[:, None] * dirs
            prop = man._exp(cur, step) if linear_base is None else cur + step
            ld = logdens(prop, linear_base)
            with np.errstate(invalid="ignore"):
                accept = log_u[:, j] < ld - cur_ld
            cur = np.where(accept[:, None], prop, cur)
            cur_ld = np.where(accept, ld, cur_ld)
            kept.append(cur)
        done += mb
    return cur, np.stack(kept, axis=1)


CHAIN_MANIFOLDS = [Sphere(), SPD(), KendallPreshape(20)]
CHAIN_IDS = ["sphere", "spd", "kendall"]
_REFERENCE = {}


def chain_case(man, stage, length):
    """Two chains of either stage on a small dataset; the step-by-step
    reference run is cached per case."""
    data, model = make_dataset(man, 10, 0.1, seed=406, spread=0.4)
    p, v = model.p, model.v
    rng = np.random.default_rng(407)
    base = np.broadcast_to(p, (2, man.ambient_dim))
    points = man._exp(base, 0.05 * man._gaussian_tangent(base, rng.standard_normal(base.shape)))
    cfg = ChainConfig(seed=0, chain_length=length, burn_in=0)
    seeds = [np.random.SeedSequence(4080), np.random.SeedSequence(4081)]
    if stage == "footpoint":
        args = (points, _footpoint_logdens(man, data, p, v, 0.05), 0.05, cfg, seeds)
        kwargs = {}
    else:
        vs = man._transport(base, points, np.broadcast_to(v, base.shape))
        args = (vs, _shooting_logdens(man, data, 0.05), 0.05, cfg, seeds)
        kwargs = {"linear_base": points}
    key = (man.kind, stage, length)
    if key not in _REFERENCE:
        _REFERENCE[key] = step_by_step_chains(man, *args, **kwargs)
    return data, args, kwargs, _REFERENCE[key]


@pytest.mark.parametrize("man", CHAIN_MANIFOLDS, ids=CHAIN_IDS)
@pytest.mark.parametrize("stage", ["footpoint", "shooting"])
def test_run_chains_matches_step_by_step_loop(man, stage, monkeypatch):
    """Prefetch depths 1, 2 and 4 all walk the chains of the step-by-step
    loop, the state after every step included.  600 steps cross the 64-step
    proposal batches of the shooting stage and the 512-step blocks of random
    draws; 1031 steps end in a partial prefetch group and a partial block."""
    for length in (600, 1031):
        data, args, kwargs, (ref, ref_samples) = chain_case(man, stage, length)
        for depth in (1, 2, 4):
            monkeypatch.setattr(sampling, "_prefetch_depth", lambda batch, records: depth)
            got, diags, samples = _run_chains(man, *args, **kwargs, keep_samples=True,
                                              records=data.n)
            case = f"length {length}, depth {depth}"
            assert all(0 < d.accepted < length for d in diags), case
            assert got.tobytes() == ref.tobytes(), case
            assert samples.shape == (2, length, man.ambient_dim), case
            assert samples.tobytes() == ref_samples.tobytes(), case


@pytest.mark.parametrize("man", CHAIN_MANIFOLDS, ids=CHAIN_IDS)
def test_fixed_base_walk_stays_tangent(man):
    """Fixed-base proposals are state + step with no re-projection: after
    5000 accepted steps every state of a shooting walk is still tangent at
    its base within TANGENCY_TOL * max(1, |v|)."""
    rng = np.random.default_rng(410)
    bases = man._random_point(rng, 3)
    starts = man._gaussian_tangent(bases, rng.standard_normal(bases.shape))
    cfg = ChainConfig(seed=0, chain_length=5000, burn_in=0)
    flat = lambda rows, base: np.zeros(rows.shape[0])
    seeds = np.random.SeedSequence(410).spawn(3)
    final, diags, samples = _run_chains(man, starts, flat, 0.3, cfg, seeds,
                                        linear_base=bases, keep_samples=True)
    assert all(d.accepted == 5000 for d in diags)
    states = np.concatenate([samples, final[:, None]], axis=1)
    at = np.broadcast_to(bases[:, None], states.shape)
    defect = man._tangent_defect(at, states)
    scale = np.maximum(1.0, np.linalg.norm(states, axis=-1))
    assert np.max(np.linalg.norm(states[:, -1], axis=-1)) > 3.0
    assert np.all(defect <= TANGENCY_TOL * scale)


def test_prefetch_depth_ignores_data_values():
    """The depth, and with it every log-density call's row count, follows
    from (B, n, ambient) alone: two datasets of one size make the same
    calls."""
    man = Sphere()
    calls = []
    for seed in (408, 409):
        data, model = make_dataset(man, 50, 0.1, seed=seed, spread=0.4)
        inner = _footpoint_logdens(man, data, model.p, model.v, 0.05)
        sizes = []

        def ld(points, base):
            sizes.append(points.shape[0])
            return inner(points, base)

        cfg = ChainConfig(seed=0, chain_length=100, burn_in=0)
        _run_chains(man, model.p[None].copy(), ld, 0.05, cfg,
                    [np.random.SeedSequence(seed)], records=data.n)
        calls.append(sizes)
    depth = sampling._prefetch_depth(1, 50)
    assert depth > 1
    assert calls[0] == calls[1]
    assert calls[0][1] == 2 ** depth - 1


def test_prefetch_depth_rule():
    """A row is priced by its records alone, so at n = 50 every manifold
    takes the depths chosen from tools/bench_chains.py's walk table: four
    steps per call for one chain, two for the four footpoint chains of a
    grid cell with m = 4 (Kendall-50 included) and one for its sixteen
    shooting chains."""
    assert [sampling._prefetch_depth(b, 50) for b in (1, 2, 4, 5, 6, 16, 100)] == \
        [4, 3, 2, 2, 1, 1, 1]
    # larger datasets price each row higher
    assert [sampling._prefetch_depth(1, n) for n in (20, 100, 200, 300)] == [5, 3, 2, 1]


@pytest.mark.parametrize("kind", ["sphere", "spd", "kendall"])
def test_default_release_raises_no_numpy_warning(kind):
    """A prefetch group also evaluates tree nodes the chain never visits,
    proposals made from rejected proposals.  With default chain settings
    none of them may raise or emit a numpy warning where the step-by-step
    chain does not, on any manifold."""
    data = {"sphere": lambda: gen_sphere(50, 0.01, 0),
            "spd": lambda: gen_spd(50, 0.1, 0),
            "kendall": lambda: gen_kendall(20, 0.01, 0, landmarks=6)}[kind]()[0]
    assert sampling._prefetch_depth(1, data.n) > 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = fit(data)
    spec = SensitivitySpec(n=data.n, tau=report.tau_empirical, kappa_l=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", RuntimeWarning)
        rel = release_pair(data, report, spec, compose_budget(0.5, 0.5), ChainConfig(seed=11))
    assert not (rel.diagnostics_p.stuck or rel.diagnostics_v.stuck)


def test_release_outputs_live_on_manifold():
    data, report = sphere_fit()
    man = data.manifold
    cfg = ChainConfig(seed=31, chain_length=300, burn_in=100)
    # the engine's raw chain states already sit on the manifold
    bases, vecs, _, _ = release(data, report, scales(0.05), cfg, [31, 32])
    assert np.max(man._point_defect(bases)) <= 1e-10
    assert np.max(man._tangent_defect(bases, vecs)) <= 1e-10
    spec = SensitivitySpec(n=data.n, tau=report.tau_empirical, kappa_l=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rel = release_pair(data, report, spec, compose_budget(0.5, 0.5), cfg)
    p_tilde, v_tilde = rel.model.p, rel.model.v
    assert float(man._point_defect(p_tilde)) <= 1e-10
    assert float(man._tangent_defect(p_tilde, v_tilde)) <= 1e-10


def test_shooting_rejects_unreachable_footpoint():
    """Footpoints beyond the cut-locus guard of the fit have log-density -inf,
    so even a nearly flat footpoint density never hands the shooting stage a
    footpoint that the fitted shooting vector cannot be transported to."""
    data, report = sphere_fit()
    man = data.manifold
    model = report.model
    ld = _footpoint_logdens(man, data, model.p, model.v, 1e6)
    assert ld(-model.p[None], None)[0] == -np.inf
    # a random-walk radius of 0.3 on both stages
    cfg = ChainConfig(seed=1, chain_length=300, burn_in=0, eta_factor=0.3 / 1e6)
    bases, vecs, _, _ = release(data, report, scales(1e6), cfg, range(8))
    dists = man._dist(np.broadcast_to(report.model.p, bases.shape), bases)
    assert np.max(dists) > 1.0  # the walk did roam
    assert np.max(dists) < man.cut_locus_radius
    assert np.all(np.isfinite(vecs))


def test_footpoint_spread_grows_with_sigma():
    data, report = sphere_fit()
    man = data.manifold
    p_hat = report.model.p

    def median_dist(sigma_p):
        # a random-walk radius of 0.05 wherever a stage walks
        cfg = ChainConfig(seed=0, chain_length=400, burn_in=100, eta_factor=0.05 / sigma_p)
        bases, _, _, _ = release(data, report, scales(sigma_p), cfg, range(12))
        return float(np.median(man._dist(np.broadcast_to(p_hat, bases.shape),
                                         bases)))

    assert median_dist(0.01) < median_dist(0.3)


def test_random_walk_radius_follows_sigma():
    """On a random-walk stage the default proposal radius is eta_factor *
    sigma (eta_factor 1), below the cap; sigma 0.06 is past the sphere's
    independence threshold."""
    data, report = sphere_fit()
    sigma = 0.06
    assert _kernel(data.manifold, sigma) == "random_walk"
    cfg = ChainConfig(seed=0, chain_length=400, burn_in=100)
    _, _, diags_p, diags_v = release(data, report, scales(sigma), cfg, range(8))
    assert all(d.kernel == "random_walk" and d.eta == pytest.approx(sigma)
               for d in diags_p + diags_v)


def test_small_sigma_concentrates_near_fit():
    data, report = sphere_fit()
    man = data.manifold
    sigma = 0.003
    cfg = ChainConfig(seed=0, chain_length=400, burn_in=100)
    bases, _, diags, _ = release(data, report, scales(sigma), cfg, range(8))
    assert all(d.kernel == "independence" and d.eta is None for d in diags)
    dists = man._dist(np.broadcast_to(report.model.p, bases.shape), bases)
    # the target is exp(-|grad E|/sigma) and |grad E| ~ H d near the fit, so
    # the length scale is sigma over the local Hessian scale, not sigma itself
    assert np.median(dists) <= 5 * sigma


def test_shooting_spread_grows_with_sigma():
    data, report = sphere_fit()
    man = data.manifold
    model = report.model

    def median_dev(sigma_v):
        # a random-walk radius of 0.05 on the shooting stage; the footpoint
        # stage at sigma 0.05 runs the independence kernel
        cfg = ChainConfig(seed=0, chain_length=400, burn_in=100, eta_factor=0.05 / sigma_v)
        bases, vecs, _, _ = release(data, report, scales(0.05, sigma_v), cfg, range(10))
        # deviation from each chain's start: v_hat transported to its footpoint
        starts = man._transport(np.broadcast_to(model.p, bases.shape), bases,
                                np.broadcast_to(model.v, bases.shape))
        return float(np.median(np.linalg.norm(vecs - starts, axis=1)))

    assert median_dev(0.01) < median_dev(0.5)


def test_degenerate_chain_lengths():
    data, report = sphere_fit()
    cfg = ChainConfig(seed=5, chain_length=2, burn_in=1)
    _, _, (diag,), (diag_v,) = release(data, report, scales(0.05), cfg, [5])
    assert diag.proposals == diag_v.proposals == 2
    one = ChainConfig(seed=5, chain_length=1, burn_in=0)
    _, _, (diag1,), _ = release(data, report, scales(0.05), one, [5])
    assert diag1.proposals == 1


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(seed=1, chain_length=0)
    with pytest.raises(ValueError):
        ChainConfig(seed=1, chain_length=10, burn_in=10)
    with pytest.raises(ValueError):
        ChainConfig(seed=1, chain_length=10, burn_in=-1)
    with pytest.raises(ValueError):
        ChainConfig(seed=1, chain_length=10, burn_in=0, eta_factor=0.0)
    for bad in ({"chain_length": True}, {"chain_length": 10.0}, {"burn_in": False},
                {"burn_in": 1.0}, {"eta_factor": True}, {"eta_factor": "0.1"}):
        with pytest.raises(ConfigError):
            ChainConfig(seed=1, **{"chain_length": 10, "burn_in": 0, **bad})


@pytest.mark.parametrize("setting", ["eta_factor"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_chain_config_refuses_non_finite(setting, value):
    """An infinite radius would reject every proposal where the manifold has
    no injectivity radius to cap it, leaving the fitted value as the release."""
    with pytest.raises(ConfigError, match=setting):
        ChainConfig(seed=1, **{setting: value})


def test_diagnostics_flags():
    """A random walk is healthy within (0.1, 0.9); an independence chain (eta
    None) at 0.1 and up, since accepting every proposal means its
    linearization fits the target."""
    for eta, kernel in ((0.1, "random_walk"), (None, "independence")):
        stuck = _diagnostics(0, 10, eta)
        assert stuck.stuck and not stuck.healthy
        mid = _diagnostics(5, 10, eta)
        assert mid.healthy and not mid.stuck
        assert mid.kernel == kernel and mid.eta == eta
        assert not _diagnostics(1, 20, eta).healthy
        assert _diagnostics(10, 10, eta).healthy == (eta is None)


def test_release_pair_structure_and_determinism():
    data, report = sphere_fit()
    spec = SensitivitySpec(n=data.n, tau=report.tau_empirical, kappa_l=1.0)
    budget = compose_budget(0.5, 0.5)
    cfg = ChainConfig(seed=99, chain_length=300, burn_in=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rel1 = release_pair(data, report, spec, budget, cfg)
        rel2 = release_pair(data, report, spec, budget, cfg)
    assert isinstance(rel1, PrivateRelease)
    assert np.array_equal(rel1.model.p, rel2.model.p)
    assert np.array_equal(rel1.model.v, rel2.model.v)
    assert rel1.budget.total == pytest.approx(1.0)
    assert rel1.chain_config.seed == 99
    assert rel1.scales.sigma_p > 0 and rel1.scales.sigma_v > 0
    # the two stages consume independent substreams of the master seed
    ss_p, ss_v = np.random.SeedSequence(99).spawn(2)
    bases, vecs, _, _ = _release_batch(data, report.model.p, report.model.v, rel1.scales,
                                       cfg, [ss_p], [ss_v])
    assert np.allclose(bases[0], rel1.model.p, rtol=0.0, atol=1e-15)
    assert np.allclose(vecs[0], rel1.model.v, rtol=0.0, atol=1e-15)


def test_release_pair_warns_on_unhealthy_acceptance():
    """A random walk that accepts nearly every proposal is unhealthy, and the
    warning names each stage's kernel.  A tiny budget gives a nearly flat
    target, and a sigma far past the independence threshold."""
    data, report = sphere_fit()
    spec = SensitivitySpec(n=data.n, tau=report.tau_empirical, kappa_l=1.0)
    budget = compose_budget(1e-3, 1e-3)
    # a footpoint random-walk radius of 0.01
    sigma_p = noise_scales(spec, budget).sigma_p
    cfg = ChainConfig(seed=7, chain_length=60, burn_in=10, eta_factor=0.01 / sigma_p)
    with pytest.warns(UserWarning, match="acceptance rates.*random_walk.*random_walk"):
        release_pair(data, report, spec, budget, cfg)


def test_footpoint_logdens_infinite_outside_guard():
    data, report = sphere_fit()
    man = data.manifold
    model = report.model
    ld = _footpoint_logdens(man, data, model.p, model.v, 0.05)
    assert ld(-model.p[None], None)[0] == -np.inf
    assert np.isfinite(ld(model.p[None], None)[0])


# --- independence kernel ------------------------------------------------------------


def stage_setup(man, stage, sigma, n=20):
    """A small fitted problem and one stage's (start, base, logdens, grad)."""
    data, _ = make_dataset(man, n, 0.05, seed=411, spread=0.4)
    model = fit(data).model
    p, v = model.p, model.v
    if stage == "footpoint":
        return (data, p, p, None, _footpoint_logdens(man, data, p, v, sigma),
                _footpoint_grad(man, data, p, v))
    return data, p, v, p, _shooting_logdens(man, data, sigma), _shooting_grad(man, data)


def stage_chains(man, data, start, base, ld, grad, sigma, eta, chains, length, seed):
    """The states of `chains` chains from start after their first tenth: the
    independence kernel when eta is None, else the random walk of radius eta."""
    state = np.broadcast_to(start, (chains, start.size)).copy()
    bases = None if base is None else np.broadcast_to(base, state.shape).copy()
    law = None if eta is not None else _linearize(man, grad, state, bases, sigma)
    cfg = ChainConfig(seed=0, chain_length=length, burn_in=0)
    seeds = np.random.SeedSequence(seed).spawn(chains)
    _, diags, samples = _run_chains(man, state, ld, eta, cfg, seeds, linear_base=bases,
                                    keep_samples=True, records=data.n, law=law)
    return samples[:, length // 10:].reshape(-1, start.size), diags


def tangent_coords(man, anchor, rows, start, stage):
    """Frame coordinates at anchor of log_anchor(rows) (footpoint) or of
    rows - start (shooting), with their length as a last column."""
    t = man._log(anchor[None], rows) if stage == "footpoint" else rows - start
    c = man._inner(anchor[None, None], man._frame(anchor)[None], t[:, None])
    return np.column_stack([c, np.linalg.norm(c, axis=1)])


def max_ks(a, b):
    return max(stats.ks_2samp(x, y).statistic for x, y in zip(a.T, b.T))


@pytest.mark.parametrize("man", [Sphere(), SPD()], ids=["sphere", "spd"])
@pytest.mark.parametrize("stage", ["footpoint", "shooting"])
def test_independence_law_matches_random_walk(man, stage, monkeypatch):
    """In criterion 7's KS style: four independence chains of 2000 steps
    against eight random-walk chains of 10 000, ten times the samples, per
    tangent coordinate and for the length, bound 0.05.  The footpoint sigma
    puts the chain where the exp map's volume factor matters: the same
    chains without it (log factor 0) fail the bound on the length."""
    sigma, eta = {("sphere", "footpoint"): (0.4, 1.0), ("spd", "footpoint"): (0.6, 1.5),
                  ("sphere", "shooting"): (0.05, 0.3), ("spd", "shooting"): (0.3, 1.6)}[
        (man.kind, stage)]
    data, anchor, start, base, ld, grad = stage_setup(man, stage, sigma)
    ind, diags = stage_chains(man, data, start, base, ld, grad, sigma, None, 4, 2000, 412)
    ref, _ = stage_chains(man, data, start, base, ld, grad, sigma, eta, 8, 10_000, 413)
    assert all(d.kernel == "independence" and d.acceptance_rate > 0.8 for d in diags)
    ref_c = tangent_coords(man, anchor, ref, start, stage)
    assert max_ks(tangent_coords(man, anchor, ind, start, stage), ref_c) <= 0.05
    if stage == "footpoint":
        monkeypatch.setattr(type(man), "_log_exp_jacobian",
                            lambda self, x, u: np.zeros(u.shape[:-1]))
        flat, _ = stage_chains(man, data, start, base, ld, grad, sigma, None, 4, 2000, 412)
        length = tangent_coords(man, anchor, flat, start, stage)[:, -1]
        assert stats.ks_2samp(length, ref_c[:, -1]).statistic > 0.05


@pytest.mark.parametrize("man", [Sphere(), SPD(), KendallPreshape(6)],
                         ids=["sphere", "spd", "kendall"])
@pytest.mark.parametrize("stage", ["footpoint", "shooting"])
def test_linearized_target_accepts_every_proposal(man, stage):
    """When the target is the linearized law itself, pushed through the exp
    map with its volume factor on the manifold, every weight is zero up to
    rounding and every proposal is accepted."""
    rng = np.random.default_rng(414)
    x0 = man._random_point(rng)
    dim, sigma = man.dim, 0.05
    frame = man._frame(x0)
    h = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    g0 = 0.02 * rng.standard_normal(dim)
    law = _LinearLaw(frame[None], g0[None], np.linalg.inv(h)[None], sigma)
    v0 = 0.3 * frame[0]

    def ld(rows, base):
        if stage == "footpoint":
            xi = man._log(x0[None], rows)
            extra = -man._log_exp_jacobian(x0[None], xi)
        else:
            xi, extra = rows - v0, 0.0
        z = man._inner(x0[None, None], frame[None], xi[:, None])
        return -np.linalg.norm(g0 + z @ h.T, axis=1) / sigma + extra

    start = x0 if stage == "footpoint" else v0
    base = None if stage == "footpoint" else x0[None]
    cfg = ChainConfig(seed=0, chain_length=3000, burn_in=0)
    _, (diag,), _ = _run_chains(man, start[None], ld, None, cfg, [np.random.SeedSequence(415)],
                                linear_base=base, law=law)
    assert diag.accepted == 3000


def test_kernel_rule_on_benchmark_settings():
    """The rule reads public inputs only.  At release-sphere's settings (S^2,
    n 50, tau 0.25, eps 0.5 per stage) both stages take the independence
    kernel; at grid-kendall's (50 landmarks, n 50, tau 0.25, totals 1 and 2
    split evenly) every stage keeps the random walk."""
    spec = SensitivitySpec(n=50, tau=0.25, kappa_l=1.0)
    sc = noise_scales(spec, compose_budget(0.5, 0.5))
    assert _kernel(Sphere(), sc.sigma_p) == _kernel(Sphere(), sc.sigma_v) == "independence"
    for eps_p, eps_v in equal_split_budgets(1.0, 2.0, 2):
        sc = noise_scales(spec, compose_budget(eps_p, eps_v))
        for sigma in (sc.sigma_p, sc.sigma_v):
            assert _kernel(KendallPreshape(50), sigma) == "random_walk"
    # Past the threshold the sphere keeps the random walk too, and SPD's
    # longer length scale (no injectivity radius, curvature -1/2) admits more.
    assert _kernel(Sphere(), 0.06) == "random_walk"
    assert _kernel(SPD(), 0.04) == "independence"


@pytest.mark.parametrize("man", [Sphere(), SPD()], ids=["sphere", "spd"])
@pytest.mark.parametrize("stage", ["footpoint", "shooting"])
def test_independence_chain_alone_matches_chain_in_batch(man, stage, monkeypatch):
    """Each chain of a batch of three, its linearization included, is the
    chain run alone, bit for bit, also when the batch's proposals take
    several log-density calls."""
    data, p, start, base, ld, grad = stage_setup(man, stage, 0.02)
    rng = np.random.default_rng(416)
    pts = man._exp(np.broadcast_to(p, (3, p.size)),
                   0.05 * man._gaussian_tangent(p, rng.standard_normal((3, p.size))))
    if stage == "footpoint":
        states, bases = pts, None
    else:
        states, bases = man._transport(np.broadcast_to(p, pts.shape), pts,
                                       np.broadcast_to(start, pts.shape)), pts
    monkeypatch.setattr(sampling, "_INDEPENDENCE_BLOCK", 700 * data.n * man.ambient_dim)
    cfg = ChainConfig(seed=0, chain_length=1000, burn_in=0)
    seeds = [np.random.SeedSequence([417, b]) for b in range(3)]
    law = _linearize(man, grad, states, bases, 0.02)
    batch, batch_diag, _ = _run_chains(man, states, ld, None, cfg, seeds, linear_base=bases,
                                       records=data.n, law=law)
    for b in range(3):
        one = slice(b, b + 1)
        one_base = None if bases is None else bases[one]
        alone, alone_diag, _ = _run_chains(
            man, states[one], ld, None, cfg, seeds[one], linear_base=one_base,
            records=data.n, law=_linearize(man, grad, states[one], one_base, 0.02))
        assert alone.tobytes() == batch[b].tobytes()
        assert alone_diag[0] == batch_diag[b]
        assert alone_diag[0].acceptance_rate > 0.5
