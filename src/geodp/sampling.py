"""Riemannian random-walk Metropolis sampling of the private release densities.

A release runs in two stages (the K-norm gradient mechanism applied twice):
footpoint chains on the manifold, then shooting-vector chains in the tangent
space at each private footpoint.  Both stages target exp(-||grad E|| / sigma)
for their own variable.  Proposals are drawn uniformly from a metric ball of
radius eta in the tangent space at the current state and mapped through the
exponential (footpoint stage) or added directly (shooting stage).  The
released value is the final chain state, so a release consumes its whole
chain.

One engine, `_release_batch`, runs both stages for m footpoint chains and k
shooting chains per footpoint.  A single release (`release_pair`) is a batch
of one; a grid cell of the experiments is a batch of m with k = m.  Chains run
in lockstep as one batched numpy computation, but every chain consumes
randomness only from its own seeded stream, in a fixed block order.  A chain
therefore produces bit-identical output whether it runs alone or inside a
batch.

`ChainConfig` holds the chain settings' only defaults and checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, is_integer, is_positive_finite
from .geometry import Manifold, ManifoldPoint, TangentVec
from .privacy import NoiseScales, PrivacyBudget, SensitivitySpec, noise_scales
from .regression import Dataset, FitReport, GeodesicModel, _grad_rows

_BLOCK = 512
_HOIST = 64
_ETA_CAP_FRACTION = 0.1
_TINY = 1e-300


@dataclass
class ChainConfig:
    """Metropolis chain settings; seed is the master seed of the release.

    The CLI's flags and an experiment's `chain` block read these defaults.
    """

    seed: int
    chain_length: int = 5000
    burn_in: int = 1000
    proposal_radius: float | None = None
    eta_factor: float = 1.0

    def __post_init__(self):
        if not (is_integer(self.chain_length) and self.chain_length >= 1):
            raise ConfigError("chain_length must be an integer of at least 1")
        if not (is_integer(self.burn_in) and 0 <= self.burn_in < self.chain_length):
            raise ConfigError("burn_in must be an integer in [0, chain_length)")
        radius = self.proposal_radius
        if radius is not None and not is_positive_finite(radius):
            raise ConfigError("proposal_radius must be a positive finite number or null")
        if not is_positive_finite(self.eta_factor):
            raise ConfigError("eta_factor must be a positive finite number")

    def settings(self) -> dict:
        """The chain settings without the seed, keyed by CHAIN_SETTINGS."""
        return {name: getattr(self, name) for name in CHAIN_SETTINGS}


# Chain setting names, as config files and release files spell them.
CHAIN_SETTINGS = tuple(f.name for f in fields(ChainConfig) if f.name != "seed")


@dataclass
class ChainDiagnostics:
    acceptance_rate: float
    accepted: int
    proposals: int
    final_logdensity: float
    samples_kept: int
    eta: float
    stuck: bool
    healthy: bool


def _resolve_eta(man: Manifold, sigma: float, cfg: ChainConfig) -> float:
    eta = cfg.proposal_radius if cfg.proposal_radius is not None else cfg.eta_factor * sigma
    if np.isfinite(man.injectivity_radius):
        eta = min(eta, _ETA_CAP_FRACTION * man.injectivity_radius)
    if not eta > 0.0:
        raise ConfigError(f"proposal radius collapsed to zero: eta_factor {cfg.eta_factor!r} "
                          f"times sigma {sigma!r}; raise eta_factor or set proposal_radius")
    return float(eta)


def _diagnostics(accepted, steps, final_ld, cfg, eta):
    rate = accepted / steps
    return ChainDiagnostics(
        acceptance_rate=float(rate),
        accepted=int(accepted),
        proposals=int(steps),
        final_logdensity=float(final_ld),
        samples_kept=int(cfg.chain_length - cfg.burn_in),
        eta=float(eta),
        stuck=bool(accepted == 0),
        healthy=bool(0.1 < rate < 0.9),
    )


def _steps(man, anchors, normals, scales):
    """Proposal increments: the isotropic directions of normals at anchors,
    made unit length and multiplied by scales."""
    dirs = man._gaussian_tangent(anchors, normals)
    nd = man._norm(anchors, dirs)[..., None]
    return scales[..., None] * (dirs / np.maximum(nd, _TINY))


def _run_chains(man, state, logdens, eta, cfg, seed_seqs, linear_base=None,
                keep_samples=False):
    """Lockstep Metropolis walk for a batch of chains.

    state is (B, ambient).  With linear_base=None the walk moves on the
    manifold through the exponential map; otherwise state rows are tangent
    components at the fixed base rows and proposals are straight increments.

    Each block of _BLOCK steps draws every chain's normals, radii and
    uniforms at once, so the random stream does not depend on how the steps
    are computed.  Proposal radii are computed once per block.  With a fixed
    base the proposal increments do not depend on the chain state either and
    are computed _HOIST steps at a time; a whole block at once would hold
    (B, _BLOCK, ambient) temporaries.
    """
    B, amb = state.shape
    gens = [np.random.Generator(np.random.PCG64(ss)) for ss in seed_seqs]
    cur = np.array(state, dtype=float)
    cur_ld = logdens(cur)
    accepted = np.zeros(B, dtype=np.int64)
    inv_dim = 1.0 / man.dim
    kept = [] if keep_samples else None

    done = 0
    while done < cfg.chain_length:
        mb = min(_BLOCK, cfg.chain_length - done)
        normals = np.stack([g.standard_normal((mb, amb)) for g in gens])
        radii = np.stack([g.random(mb) for g in gens])
        log_u = np.log(np.stack([g.random(mb) for g in gens]))
        scales = eta * radii ** inv_dim
        for j in range(mb):
            if linear_base is None:
                prop = man._exp(cur, _steps(man, cur, normals[:, j], scales[:, j]))
            else:
                if j % _HOIST == 0:
                    steps = _steps(man, linear_base[:, None], normals[:, j:j + _HOIST],
                                   scales[:, j:j + _HOIST])
                prop = man._project_tangent(linear_base, cur + steps[:, j % _HOIST])
            ld = logdens(prop)
            # -inf proposals are never accepted; a (-inf) - (-inf) delta is
            # nan and the comparison is False, which is the right outcome.
            with np.errstate(invalid="ignore"):
                accept = log_u[:, j] < (ld - cur_ld)
            cur = np.where(accept[:, None], prop, cur)
            cur_ld = np.where(accept, ld, cur_ld)
            accepted += accept
            if keep_samples and done + j >= cfg.burn_in:
                kept.append(cur.copy())
        done += mb

    diags = [_diagnostics(accepted[b], cfg.chain_length, cur_ld[b], cfg, eta)
             for b in range(B)]
    samples = np.stack(kept, axis=1) if keep_samples else None
    return cur, diags, samples


# --- stage densities -----------------------------------------------------------


def _footpoint_logdens(man, data, p_hat, v_hat, sigma):
    guard = man.cut_locus_radius

    def ld(points):
        base = np.broadcast_to(p_hat, points.shape)
        reachable = man._dist(base, points) < guard
        moved = man._transport(base, points, np.broadcast_to(v_hat, points.shape))
        g, valid = _grad_rows(man, points, moved, data.x, data.y, "p")
        out = -man._norm(points, g) / sigma
        return np.where(valid & reachable, out, -np.inf)

    return ld


def _shooting_logdens(man, data, bases, sigma):
    def ld(vs):
        g, valid = _grad_rows(man, bases, vs, data.x, data.y, "v")
        out = -man._norm(bases, g) / sigma
        return np.where(valid, out, -np.inf)

    return ld


# --- the two-stage release engine ---------------------------------------------------


def _release_batch(data: Dataset, p_hat, v_hat, scales: NoiseScales, cfg: ChainConfig,
                   fp_seeds, sh_seeds):
    """Run m footpoint chains, then k shooting chains at each private footpoint.

    Every footpoint chain starts at the fitted footpoint p_hat.  The shooting
    chains of footpoint i start from v_hat parallel-transported from p_hat to
    it, and walk in its tangent space.  fp_seeds holds m seed sequences and
    sh_seeds m*k, one per chain.

    Returns (bases, vecs, diags_p, diags_v): bases and vecs have m*k rows,
    bases[i*k + j] is final footpoint i and vecs[i*k + j] the final state of
    its j-th shooting chain; diags_p has m entries and diags_v m*k.
    """
    man = data.manifold
    m = len(fp_seeds)
    k = len(sh_seeds) // m

    eta_p = _resolve_eta(man, scales.sigma_p, cfg)
    ld_p = _footpoint_logdens(man, data, p_hat, v_hat, scales.sigma_p)
    inits = np.broadcast_to(p_hat, (m, man.ambient_dim)).copy()
    points, diags_p, _ = _run_chains(man, inits, ld_p, eta_p, cfg, fp_seeds)

    bases = np.repeat(points, k, axis=0)
    v_init = man._transport(np.broadcast_to(p_hat, bases.shape), bases,
                            np.broadcast_to(v_hat, bases.shape))
    eta_v = _resolve_eta(man, scales.sigma_v, cfg)
    ld_v = _shooting_logdens(man, data, bases, scales.sigma_v)
    vecs, diags_v, _ = _run_chains(man, v_init, ld_v, eta_v, cfg, sh_seeds,
                                   linear_base=bases)
    return bases, vecs, diags_p, diags_v


@dataclass
class PrivateRelease:
    """A privately released geodesic model with full provenance."""

    model: GeodesicModel
    budget: PrivacyBudget
    scales: NoiseScales
    spec: SensitivitySpec
    chain_config: ChainConfig
    diagnostics_p: ChainDiagnostics
    diagnostics_v: ChainDiagnostics


def release_pair(data: Dataset, fit_report: FitReport, spec: SensitivitySpec,
                 budget: PrivacyBudget, cfg: ChainConfig, factor: int = 1) -> PrivateRelease:
    """Release a private (footpoint, shooting vector) pair.

    The two stages compose sequentially: the footpoint chain spends
    budget.eps_p, the shooting chain spends budget.eps_v conditioned on the
    released footpoint.  Each stage gets an independent substream of the
    master seed; the release is a batch of one chain per stage.
    """
    man = data.manifold
    model = fit_report.model
    scales = noise_scales(spec, budget, factor)
    ss_p, ss_v = np.random.SeedSequence(cfg.seed).spawn(2)
    bases, vecs, (diag_p,), (diag_v,) = _release_batch(
        data, model.p.coords, model.v.components, scales, cfg, [ss_p], [ss_v])
    p_tilde = ManifoldPoint(man, man._project(bases[0]))
    v_tilde = TangentVec(p_tilde, man._project_tangent(p_tilde.coords, vecs[0]))
    if not (diag_p.healthy and diag_v.healthy):
        warnings.warn(
            f"chain acceptance rates ({diag_p.acceptance_rate:.3f}, "
            f"{diag_v.acceptance_rate:.3f}) fall outside (0.1, 0.9)",
            UserWarning,
            stacklevel=2,
        )
    return PrivateRelease(
        model=GeodesicModel(p_tilde, v_tilde),
        budget=budget,
        scales=scales,
        spec=spec,
        chain_config=cfg,
        diagnostics_p=diag_p,
        diagnostics_v=diag_v,
    )
