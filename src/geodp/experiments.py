"""Experiment harness: synthetic data, privacy-budget grids, and the
empirical validation of the sensitivity bounds.

`generate` is the one synthetic-data generator.  It applies the data rules
`check_size` and `check_noise`, as `ExperimentConfig` does, and it alone
knows what the noise level means on each manifold.

Grid cells are embarrassingly parallel; every cell derives its chain streams
from (chain seed, cell index) alone, so results are identical no matter how
work is scheduled.  The GEODP_THREADS environment variable, an integer of at
least 1, caps the worker processes (default: the machine's CPU count).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PrivacyWarning, is_integer, is_number, is_positive_finite
from .geometry import Manifold
from .manifolds import KendallPreshape, SPD, Sphere, manifold_from_spec
from .privacy import (
    _TAU_FLOOR,
    check_factor,
    check_tau,
    compose_budget,
    noise_scales,
    sensitivity_p,
    sensitivity_spec,
    sensitivity_v,
)
from .regression import (
    Dataset,
    FitConfig,
    GeodesicModel,
    _energy_rows,
    _grad_rows,
    _predictions,
    fit,
)
from .sampling import CHAIN_SETTINGS, ChainConfig, _release_batch


# --- data inputs -----------------------------------------------------------------


# Defaults of the data inputs, read by the CLI and by an experiment config.
DEFAULT_MANIFOLD = "sphere"
DEFAULT_N = 50
DEFAULT_NOISE = 0.001
DEFAULT_LANDMARKS = 50

_KENDALL_SPREAD = 0.5  # geodesic length of generated shape trajectories


def check_size(n, name="n", least=2):
    """A count: an integer of at least `least`; booleans refused."""
    if not (is_integer(n) and n >= least):
        raise ConfigError(f"{name} must be an integer of at least {least}, got {n!r}")
    return n


def check_noise(noise):
    """A noise level: a finite number of at least 0; booleans refused."""
    if not (is_number(noise) and math.isfinite(noise) and noise >= 0.0):
        raise ConfigError(f"noise must be a finite number of at least 0, got {noise!r}")
    return noise


# --- synthetic data -------------------------------------------------------------


def generate(man: Manifold, n: int, noise: float, seed) -> tuple[Dataset, GeodesicModel]:
    """Sample a ground-truth geodesic, covariates, and noisy responses.

    noise is the tangent noise variance on the sphere and on Kendall shape
    space, and the standard deviation of the frame coefficients on SPD.  Draw
    order: anchor point, unit shooting direction, covariates, noise.  The
    returned model is the ground truth re-anchored at the scaled covariates,
    so x=0 maps to its footpoint exactly.
    """
    check_size(n)
    check_noise(noise)
    noise_std = float(noise) if isinstance(man, SPD) else float(np.sqrt(noise))
    spread = _KENDALL_SPREAD if isinstance(man, KendallPreshape) else 1.0
    rng = np.random.default_rng(seed)
    anchor = man._random_point(rng)
    zeta = man._gaussian_tangent(anchor, rng.standard_normal(man.ambient_dim))
    zeta *= spread / float(man._norm(anchor, zeta))
    t = rng.uniform(0.0, 1.0, size=n)
    lo, hi = float(t.min()), float(t.max())
    x = (t - lo) / (hi - lo)
    # Effective model on the scaled covariates.
    p0 = man._exp(anchor, lo * zeta)
    v0 = (hi - lo) * man._transport(anchor, p0, zeta)
    preds = _predictions(man, p0[None], v0[None], x)[0]
    if noise_std > 0.0:
        normals = rng.standard_normal((n, man.ambient_dim))
        Y = man._exp(preds, noise_std * man._gaussian_tangent(preds, normals))
    else:
        Y = preds
    return Dataset(x, Y, man), GeodesicModel.project(man, p0, v0)


def gen_sphere(n: int, delta: float, seed) -> tuple[Dataset, GeodesicModel]:
    """Spherical regression data; see `generate`."""
    return generate(Sphere(), n, delta, seed)


def gen_spd(n: int, sigma_noise: float, seed) -> tuple[Dataset, GeodesicModel]:
    """SPD(2) regression data; see `generate`."""
    return generate(SPD(), n, sigma_noise, seed)


def gen_kendall(n: int, delta: float, seed,
                landmarks: int = DEFAULT_LANDMARKS) -> tuple[Dataset, GeodesicModel]:
    """Shape regression data; see `generate`."""
    return generate(KendallPreshape(landmarks), n, delta, seed)


# --- budget grids ---------------------------------------------------------------


# The default budget grid of each split mode, in the keys of an experiment
# config's `budgets` block.
DEFAULT_BUDGETS = {
    "equal": {"lo": 0.2, "hi": 2.0, "steps": 10},
    "unequal": {"total": 2.02, "lo": 0.02, "hi": 2.0, "steps": 10},
}
_EQUAL, _UNEQUAL = DEFAULT_BUDGETS["equal"], DEFAULT_BUDGETS["unequal"]


def equal_split_budgets(lo: float = _EQUAL["lo"], hi: float = _EQUAL["hi"],
                        steps: int = _EQUAL["steps"]):
    """Total budgets from lo to hi, split evenly between the two stages."""
    totals = np.linspace(lo, hi, steps)
    return [(float(t) / 2.0, float(t) / 2.0) for t in totals]


def unequal_split_budgets(total: float = _UNEQUAL["total"], lo: float = _UNEQUAL["lo"],
                          hi: float = _UNEQUAL["hi"], steps: int = _UNEQUAL["steps"]):
    """Fixed total budget traded between the stages, eps_p from lo to hi."""
    eps_p = np.linspace(lo, hi, steps)
    return [(float(e), float(total - e)) for e in eps_p]


@dataclass
class GridSpec:
    mode: str
    budget_list: list[tuple[float, float]]
    m: int = 10

    def __post_init__(self):
        if self.mode not in ("equal", "unequal"):
            raise ConfigError("mode must be 'equal' or 'unequal'")
        if not self.budget_list:
            raise ConfigError("budget_list must not be empty")
        check_size(self.m, "m", least=1)


@dataclass
class ExperimentConfig:
    """The settings of a budget-grid experiment, keyed as in a config file.

    These defaults are the only ones: a setting left out of a config file or
    off the command line takes its default here.  A block (manifold,
    budgets, chain) given as None, a JSON null, is left out.  budgets=None
    means the mode's `DEFAULT_BUDGETS` block, and an unequal block without
    `total` takes the default total.  The checks run on construction, so a
    bad value raises ConfigError before any data is generated.
    """

    manifold: dict | None = None
    n: int = DEFAULT_N
    noise: float = DEFAULT_NOISE
    mode: str = "equal"
    budgets: dict | None = None
    m: int = GridSpec.m
    chain: dict | None = None
    tau: float | None = None
    factor: int = 1
    replicates: int = 1

    def __post_init__(self):
        if self.manifold is None:
            self.manifold = {"kind": DEFAULT_MANIFOLD}
        if self.chain is None:
            self.chain = {}
        manifold_from_spec(self.manifold)
        if self.mode not in ("equal", "unequal"):
            raise ConfigError("mode must be 'equal' or 'unequal'")
        default = DEFAULT_BUDGETS[self.mode]
        budgets = dict(default) if self.budgets is None else self.budgets
        if self.mode == "unequal" and isinstance(budgets, dict):
            budgets = {"total": default["total"], **budgets}
        if not isinstance(budgets, dict) or set(budgets) != set(default):
            raise ConfigError(f"budgets for mode {self.mode!r} must have keys {sorted(default)}")
        self.budgets = budgets
        for key, val in budgets.items():
            if key == "steps":
                check_size(val, "budgets.steps", least=1)
            elif not is_positive_finite(val):
                raise ConfigError(f"budgets.{key} must be a positive finite number")
        if self.mode == "unequal" and not budgets["hi"] < budgets["total"]:
            raise ConfigError("unequal mode needs hi < total so both stages stay positive")
        if not isinstance(self.chain, dict) or set(self.chain) - set(CHAIN_SETTINGS):
            raise ConfigError(f"chain keys must be a subset of {sorted(CHAIN_SETTINGS)}")
        ChainConfig(seed=0, **self.chain)
        check_size(self.n)
        self.noise = float(check_noise(self.noise))
        if self.tau is not None:
            check_tau(self.tau)
        check_factor(self.factor)
        self.grid()
        check_size(self.replicates, "replicates", least=1)

    def grid(self) -> GridSpec:
        """The budget grid these settings describe."""
        split = equal_split_budgets if self.mode == "equal" else unequal_split_budgets
        return GridSpec(mode=self.mode, budget_list=split(**self.budgets), m=self.m)


@dataclass
class GridCell:
    seed: int
    eps_p: float
    eps_v: float
    mean_mse: float
    ln_mse: float
    baseline_ln_mse: float
    excluded: int
    acceptance_p: float
    acceptance_v: float


@dataclass
class GridResult:
    manifold: dict
    n: int
    mode: str
    m: int
    tau: float
    tau_policy: str
    factor: int
    chain_length: int
    burn_in: int
    baseline_ln_mse: float
    fit_converged: bool
    cells: list[GridCell]


def _ln_mse(mse: float) -> float:
    """ln of an MSE: -inf for an exact fit, nan when no pair was counted."""
    with np.errstate(divide="ignore"):
        return float(np.log(mse))


def _run_cell(data, p_hat, v_hat, spec, cfg, m, cell_index, eps_p, eps_v, factor,
              baseline_ln):
    budget = compose_budget(eps_p, eps_v)
    scales = noise_scales(spec, budget, factor)
    cell_ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cell_index,))
    fp_ss, sh_ss = cell_ss.spawn(2)
    bases, vecs, diags_p, diags_v = _release_batch(
        data, p_hat, v_hat, scales, cfg, fp_ss.spawn(m), sh_ss.spawn(m * m))

    pair_mse = 2.0 * _energy_rows(data.manifold, bases, vecs, data.x, data.y).reshape(m, m)
    fp_ok = np.array([not d.stuck for d in diags_p])
    sh_ok = np.array([not d.stuck for d in diags_v]).reshape(m, m)
    ok = fp_ok[:, None] & sh_ok
    excluded = int((~ok).sum())
    if ok.any():
        with np.errstate(invalid="ignore"):
            per_fp = np.array([pair_mse[i, ok[i]].mean() if ok[i].any() else np.nan
                               for i in range(m)])
        mean_mse = float(np.nanmean(per_fp))
    else:
        mean_mse = float("nan")
    return GridCell(
        seed=int(cfg.seed),
        eps_p=float(eps_p),
        eps_v=float(eps_v),
        mean_mse=mean_mse,
        ln_mse=_ln_mse(mean_mse),
        baseline_ln_mse=baseline_ln,
        excluded=excluded,
        acceptance_p=float(np.mean([d.acceptance_rate for d in diags_p])),
        acceptance_v=float(np.mean([d.acceptance_rate for d in diags_v])),
    )


def _run_cell_task(args):
    return args[0], _run_cell(*args[1])


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("GEODP_THREADS", "").strip()
    if not env:
        workers = os.cpu_count() or 1
    elif env.isascii() and env.isdigit() and int(env) >= 1:
        workers = int(env)
    else:
        raise ConfigError(f"GEODP_THREADS must be an integer of at least 1, got {env!r}")
    return max(1, min(workers, n_tasks))


def run_grid(data: Dataset, grid: GridSpec, cfg: ChainConfig, tau: float | None = None,
             factor: int = 1) -> GridResult:
    """Fit once, then release private pairs over the budget grid.

    Every cell samples grid.m footpoint chains and m shooting chains per
    footpoint, all seeded from cfg.seed and the cell index; the cell
    statistic is the mean released MSE over the m*m pairs, excluding stuck
    chains.  A given tau must be a positive, finite number.  When tau is not
    given, the empirical residual bound of the fit is used and a privacy
    warning is emitted, because that bound is itself data-dependent; a
    noiseless fit's bound is refused with ConfigError.  An exact fit records
    a baseline ln MSE of -inf.
    """
    man = data.manifold
    report = fit(data)
    spec, tau_policy = sensitivity_spec(man, data.n, report, tau)

    baseline_ln = _ln_mse(2.0 * report.energy)
    p_hat = report.model.p
    v_hat = report.model.v
    tasks = [(ci, (data, p_hat, v_hat, spec, cfg, grid.m, ci, ep, ev, factor, baseline_ln))
             for ci, (ep, ev) in enumerate(grid.budget_list)]

    workers = _worker_count(len(tasks))
    if workers > 1:
        # Imported here: a single release never pays for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = [cell for _, cell in pool.map(_run_cell_task, tasks)]
    else:
        cells = [cell for _, cell in map(_run_cell_task, tasks)]

    return GridResult(
        manifold=man.spec(),
        n=data.n,
        mode=grid.mode,
        m=grid.m,
        tau=spec.tau,
        tau_policy=tau_policy,
        factor=factor,
        chain_length=cfg.chain_length,
        burn_in=cfg.burn_in,
        baseline_ln_mse=baseline_ln,
        fit_converged=report.converged,
        cells=cells,
    )


# --- sensitivity validation --------------------------------------------------------


@dataclass
class AdjacentPair:
    """Datasets differing in one record, sharing the remaining n-1 records."""

    d: Dataset
    d_prime: Dataset
    union: Dataset

    def __post_init__(self):
        if self.d.n != self.d_prime.n:
            raise ValueError("adjacent datasets must have equal size")


def make_adjacent_pairs(n: int, generator, trials: int, seed) -> list[AdjacentPair]:
    """Build adjacent dataset pairs by dropping one of n+1 generated records.

    The covariate extremes are placed among the shared records, so dropping
    either end record leaves both datasets spanning [0, 1] and their shared
    n-1 records bit-identical.  Adjacent pairs need an integer n of at least
    3 and an integer count of trials of at least 1.
    """
    check_size(n, least=3)
    check_size(trials, "trials", least=1)
    root = np.random.SeedSequence(seed)
    pairs = []
    for child in root.spawn(trials):
        ds, _ = generator(n + 1, child)
        imin = int(np.argmin(ds.x))
        imax = int(np.argmax(ds.x))
        rest = [i for i in range(n + 1) if i not in (imin, imax)]
        order = np.array([rest[0], imin, imax] + rest[1:])
        x, Y = ds.x[order], ds.y[order]
        pairs.append(AdjacentPair(
            d=Dataset(x[1:], Y[1:], ds.manifold),
            d_prime=Dataset(x[:-1], Y[:-1], ds.manifold),
            union=Dataset(x, Y, ds.manifold),
        ))
    return pairs


@dataclass
class SensitivityRow:
    trial: int
    n: int
    tau: float
    tau_m: float
    delta_p_theory: float
    delta_p_empirical: float
    ratio_p: float
    delta_v_theory: float
    delta_v_empirical: float
    ratio_v: float


@dataclass
class SensitivityReport:
    rows: list[SensitivityRow]

    @property
    def min_ratio(self) -> float:
        return min(min(r.ratio_p, r.ratio_v) for r in self.rows)

    def all_bounded(self) -> bool:
        return all(r.ratio_p >= 1.0 and r.ratio_v >= 1.0 for r in self.rows)


def validate_sensitivity(pairs: list[AdjacentPair],
                         fit_config: FitConfig | None = None) -> SensitivityReport:
    """Compare theoretical sensitivities against realized gradient swings.

    For each adjacent pair the model is fitted on the union dataset, tau and
    tau_m are measured there, and the gradient difference between the two
    datasets is evaluated at that common model.  Ratios of at least 1 mean
    the theoretical bound dominates the observed change.  A union fit with
    zero residuals measures tau at or below _TAU_FLOOR (exactly 0, or
    rounding in arccos/log), which makes the bound vacuous; that raises
    ConfigError naming the trial.  An empty list of pairs raises ConfigError
    too, because it would report every bound as holding.
    """
    if not pairs:
        raise ConfigError("validate_sensitivity needs at least one adjacent pair")
    rows = []
    for trial, pair in enumerate(pairs):
        man = pair.union.manifold
        report = fit(pair.union, fit_config)
        if not report.tau_empirical > _TAU_FLOOR:
            raise ConfigError(
                f"trial {trial}: the union fit has zero residuals (measured tau "
                f"{report.tau_empirical:.3g}, at most {_TAU_FLOOR:g}), so the "
                "sensitivity bound is vacuous; validate on noisy data")
        p = report.model.p
        v = report.model.v
        # The audit measures tau and tau_m on purpose and releases nothing,
        # so the empirical-tau_m warning of a release does not apply.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrivacyWarning)
            spec, _ = sensitivity_spec(man, pair.d.n, report, report.tau_empirical)

        gp_d, gv_d, *_ = _grad_rows(man, p[None], v[None], pair.d.x, pair.d.y, "pv")
        gp_dp, gv_dp, *_ = _grad_rows(man, p[None], v[None], pair.d_prime.x,
                                      pair.d_prime.y, "pv")
        diffs = {"p": float(man._norm(p, gp_d[0] - gp_dp[0])),
                 "v": float(man._norm(p, gv_d[0] - gv_dp[0]))}

        thy_p = sensitivity_p(spec)
        thy_v = sensitivity_v(spec)
        rows.append(SensitivityRow(
            trial=trial,
            n=pair.d.n,
            tau=spec.tau,
            tau_m=spec.tau_m,
            delta_p_theory=thy_p,
            delta_p_empirical=diffs["p"],
            ratio_p=thy_p / diffs["p"] if diffs["p"] > 0.0 else float("inf"),
            delta_v_theory=thy_v,
            delta_v_empirical=diffs["v"],
            ratio_v=thy_v / diffs["v"] if diffs["v"] > 0.0 else float("inf"),
        ))
    return SensitivityReport(rows)
