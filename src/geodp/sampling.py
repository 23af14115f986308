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

At batch size one a step costs numpy dispatch more than arithmetic, so the
step loop prefetches (Brockwell, "Parallel Markov chain Monte Carlo
simulation by pre-fetching", J. Comput. Graph. Stat. 2006).  It runs K steps
at a time: from the current states it builds the tree of every state those
steps can reach, where a rejected step keeps the state and an accepted one
moves to the proposal made from that step's pre-drawn normal and radius,
evaluates the log-density of all 2**K - 1 proposals per chain in one call,
and walks the tree with the pre-drawn uniforms.  The draws are the ones the
step-by-step chain makes, each proposal comes from its state by the same
operations, and the kernels give a row the same bits alone or in a batch,
so every chain, acceptance count and release is the step-by-step one, bit
for bit.  K is the largest depth with B * (2**K - 1) * n * ambient at most
_PREFETCH for B chains reading n records: public sizes, never data values.

`ChainConfig` holds the chain settings' only defaults and checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, is_integer, is_positive_finite
from .geometry import Manifold
from .privacy import NoiseScales, PrivacyBudget, SensitivitySpec, noise_scales
from .regression import Dataset, FitReport, GeodesicModel, _grad_rows

_BLOCK = 512
_HOIST = 64
# Prefetch budget: a group of K chain steps evaluates B * (2**K - 1) proposal
# rows of `records` data records and `ambient` numbers each in one
# log-density call, and K is the largest depth that keeps that product
# within this bound.  Measured with tools/bench_chains.py at n = 50 it gives
# K = 4 for one sphere chain, 3 for one SPD(2) chain, 2 for four of either
# and 1 for Kendall preshapes with 50 landmarks.
_PREFETCH = 2560
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


def _prefetch_depth(batch, records, ambient):
    """Chain steps per log-density call: the largest K >= 1 with
    batch * (2**K - 1) * records * ambient <= _PREFETCH."""
    width = batch * records * ambient
    depth = 1
    while width * (2 ** (depth + 1) - 1) <= _PREFETCH:
        depth += 1
    return depth


def _tree(depth):
    """Tables of the heap-numbered step tree of a prefetch group.

    Node h is the chain state after level[h] steps of the group; its reject
    child 2h + 1 keeps that state and its accept child 2h + 2 moves to the
    proposal made from it.  The state at node h is row src[h] of the group's
    [start state, proposal of node 0, proposal of node 1, ...] stack, and
    accepts[h] counts the accept moves on the way to h.  level covers the
    2**depth - 1 nodes that make proposals, src and accepts the leaves too.
    """
    size = 2 ** (depth + 1) - 1
    level = np.repeat(np.arange(depth), 2 ** np.arange(depth))
    src = np.zeros(size, dtype=np.intp)
    accepts = np.zeros(size, dtype=np.int64)
    for k in range(depth):
        h = np.arange(2 ** k - 1, 2 ** (k + 1) - 1)
        src[2 * h + 1], src[2 * h + 2] = src[h], h + 1
        accepts[2 * h + 1], accepts[2 * h + 2] = accepts[h], accepts[h] + 1
    return level, src, accepts


def _run_chains(man, state, logdens, eta, cfg, seed_seqs, linear_base=None,
                keep_samples=False, records=1):
    """Lockstep Metropolis walk for a batch of chains.

    state is (B, ambient).  With linear_base=None the walk moves on the
    manifold through the exponential map; otherwise state rows are tangent
    components at the fixed base rows and proposals are straight increments.
    logdens(rows, base) gives the log-density of state rows; base is None on
    the manifold and holds each row's base row otherwise.  records is the
    number of data records it reads per row, which with B and the ambient
    dimension sets the prefetch depth.

    Each block of _BLOCK steps draws every chain's normals, radii and
    uniforms at once, so the random stream does not depend on how the steps
    are computed.  Proposal radii are computed once per block.  With a fixed
    base the proposal increments do not depend on the chain state either and
    are computed _HOIST steps at a time; a whole block at once would hold
    (B, _BLOCK, ambient) temporaries.

    Steps run in groups of K (`_prefetch_depth`).  A group builds the tree of
    every state its K steps can reach from the current states (`_tree`),
    evaluates all 2**K - 1 proposals per chain in one logdens call, and then
    walks the tree with the uniforms.  Groups stay inside _HOIST-step chunks,
    so a chunk that K does not divide ends in a shallower group.  Each
    proposal comes from its state by the operations a single step applies
    and the kernels are batch-exact, so the chains are the ones the
    step-by-step walk produces, bit for bit.
    """
    B, amb = state.shape
    gens = [np.random.Generator(np.random.PCG64(ss)) for ss in seed_seqs]
    depth = _prefetch_depth(B, records, amb)
    level, src, accepts = _tree(depth)
    width = 2 ** depth - 1
    # A group's states, node-major: row b is chain b's current state and row
    # (h + 1) * B + b its proposal at heap node h, so row r of a logdens call
    # is chain r % B.  lds holds their log-densities.
    stack = np.empty(((width + 1) * B, amb))
    stack[:B] = state
    lds = np.empty((width + 1) * B)
    lds[:B] = logdens(stack[:B], linear_base)
    bases = None if linear_base is None else np.tile(linear_base, (width, 1))
    # The heap tables spread over the chains, in the same row layout.
    rows = np.arange(B)
    src_at = (src[:, None] * B + rows).ravel()
    accepts_at = np.repeat(accepts, B)
    reject_at = ((2 * np.arange(width)[:, None] + 1) * B + rows).ravel()
    accept_at = reject_at + B
    row_chain = np.tile(rows, 2 ** (depth - 1))
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
        for c0 in range(0, mb, _HOIST):
            c1 = min(c0 + _HOIST, mb)
            # Step-major views of the chunk's draws: index i is step c0 + i.
            sc = scales[:, c0:c1].T
            if linear_base is None:
                moves = normals[:, c0:c1].transpose(1, 0, 2)
            else:
                moves = _steps(man, linear_base[:, None], normals[:, c0:c1],
                               scales[:, c0:c1]).transpose(1, 0, 2)
            # Each group's uniforms in the row layout; a short last group
            # reads only the rows of its own depth.
            starts = range(0, c1 - c0, depth)
            draw = np.minimum(np.array(starts)[:, None] + level, c1 - c0 - 1)
            lu = log_u[:, c0:c1].T[draw].reshape(len(starts), -1)
            for g, i in enumerate(starts):
                d = min(depth, c1 - c0 - i)
                m = (2 ** d - 1) * B
                for k in range(d):
                    lo, hi = (2 ** k - 1) * B, (2 ** (k + 1) - 1) * B
                    if k == 0:
                        at, rep = stack[:B], slice(None)
                    else:
                        at, rep = stack[src_at[lo:hi]], row_chain[:hi - lo]
                    step = moves[i + k][rep]
                    if linear_base is None:
                        prop = man._exp(at, _steps(man, at, step, sc[i + k][rep]))
                    else:
                        prop = man._project_tangent(bases[:hi - lo], at + step)
                    stack[B + lo:B + hi] = prop
                lds[B:B + m] = logdens(stack[B:B + m],
                                       None if linear_base is None else bases[:m])
                # -inf proposals are never accepted; a (-inf) - (-inf) delta is
                # nan and the comparison is False, which is the right outcome.
                with np.errstate(invalid="ignore"):
                    accept = lu[g, :m] < lds[B:B + m] - lds[src_at[:m]]
                child = np.where(accept, accept_at[:m], reject_at[:m])
                h = child[:B]
                path = [h]
                for k in range(1, d):
                    h = child[h]
                    path.append(h)
                if keep_samples:
                    skip = max(cfg.burn_in - done - c0 - i, 0)
                    if skip < d:
                        kept.append(stack[src_at[np.stack(path[skip:])]])
                at = src_at[h]
                stack[:B] = stack.take(at, axis=0)
                lds[:B] = lds[at]
                accepted += accepts_at[h]
        done += mb

    cur, cur_ld = stack[:B].copy(), lds[:B]
    diags = [_diagnostics(accepted[b], cfg.chain_length, cur_ld[b], cfg, eta)
             for b in range(B)]
    samples = np.concatenate(kept).transpose(1, 0, 2).copy() if keep_samples else None
    return cur, diags, samples


# --- stage densities -----------------------------------------------------------


def _footpoint_logdens(man, data, p_hat, v_hat, sigma):
    guard = man.cut_locus_radius
    p_row, v_row = p_hat[None], v_hat[None]

    def ld(points, base):
        reachable = man._dist(p_row, points) < guard
        moved = man._transport(p_row, points, v_row)
        g, valid = _grad_rows(man, points, moved, data.x, data.y, "p")
        out = man._norm(points, g) / -sigma
        return np.where(valid & reachable, out, -np.inf)

    return ld


def _shooting_logdens(man, data, sigma):
    # Row r of vs is a tangent vector at base[r].
    def ld(vs, base):
        g, valid = _grad_rows(man, base, vs, data.x, data.y, "v")
        out = man._norm(base, g) / -sigma
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
    points, diags_p, _ = _run_chains(man, inits, ld_p, eta_p, cfg, fp_seeds,
                                     records=data.n)

    bases = np.repeat(points, k, axis=0)
    v_init = man._transport(np.broadcast_to(p_hat, bases.shape), bases,
                            np.broadcast_to(v_hat, bases.shape))
    eta_v = _resolve_eta(man, scales.sigma_v, cfg)
    ld_v = _shooting_logdens(man, data, scales.sigma_v)
    vecs, diags_v, _ = _run_chains(man, v_init, ld_v, eta_v, cfg, sh_seeds,
                                   linear_base=bases, records=data.n)
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
    model = fit_report.model
    scales = noise_scales(spec, budget, factor)
    ss_p, ss_v = np.random.SeedSequence(cfg.seed).spawn(2)
    bases, vecs, (diag_p,), (diag_v,) = _release_batch(
        data, model.p.coords, model.v.components, scales, cfg, [ss_p], [ss_v])
    released = GeodesicModel.project(data.manifold, bases[0], vecs[0])
    if not (diag_p.healthy and diag_v.healthy):
        warnings.warn(
            f"chain acceptance rates ({diag_p.acceptance_rate:.3f}, "
            f"{diag_v.acceptance_rate:.3f}) fall outside (0.1, 0.9)",
            UserWarning,
            stacklevel=2,
        )
    return PrivateRelease(
        model=released,
        budget=budget,
        scales=scales,
        spec=spec,
        chain_config=cfg,
        diagnostics_p=diag_p,
        diagnostics_v=diag_v,
    )
