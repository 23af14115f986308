"""Metropolis-Hastings sampling of the private release densities.

A release runs in two stages (the K-norm gradient mechanism applied twice):
footpoint chains on the manifold, then shooting-vector chains in the tangent
space at each private footpoint.  Both stages target exp(-||grad E|| / sigma)
for their own variable.  The released value is the final chain state, so a
release consumes its whole chain.

Each stage runs one of two kernels, picked by `_kernel` from public inputs
alone (sigma, the dimension, the curvature bounds and the injectivity
radius):

- independence Metropolis-Hastings (`_independence_chains`) when dim * sigma
  is small against the manifold's length scale.  Proposals come from the
  K-norm law of the gradient linearized at the chain's start (`_LinearLaw`),
  exact on flat space (Reimherr & Awan, NeurIPS 2019), pushed through the
  exponential with its volume factor on the footpoint stage.  They do not
  depend on the chain state, so a chain is a few batched log-density calls
  and one scalar pass over the weights.
- the random walk otherwise.  Proposals are drawn uniformly from a metric
  ball of radius eta in the tangent space at the current state and mapped
  through the exponential (footpoint stage) or added directly (shooting
  stage).

One engine, `_release_batch`, runs both stages for m footpoint chains and k
shooting chains per footpoint.  A single release (`release_pair`) is a batch
of one; a grid cell of the experiments is a batch of m with k = m.  Chains run
in lockstep as one batched numpy computation, but every chain consumes
randomness only from its own seeded stream, in a fixed block order.  A chain
therefore produces bit-identical output whether it runs alone or inside a
batch.

At batch size one a random-walk step costs numpy dispatch more than
arithmetic, so the step loop prefetches (Brockwell, "Parallel Markov chain
Monte Carlo simulation by pre-fetching", J. Comput. Graph. Stat. 2006).  It
runs K steps at a time: from the current states it builds the tree of every state those
steps can reach, where a rejected step keeps the state and an accepted one
moves to the proposal made from that step's pre-drawn normal and radius,
evaluates the log-density of all 2**K - 1 proposals per chain in one call,
and walks the tree with the pre-drawn uniforms.  The draws are the ones the
step-by-step chain makes, each proposal comes from its state by the same
operations, and the kernels give a row the same bits alone or in a batch,
so every chain, acceptance count and release is the step-by-step one, bit
for bit.  K is the largest depth with B * (2**K - 1) * n at most _PREFETCH
for B chains reading n records: public sizes, never data values.

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
# rows of `records` data records each in one log-density call, and K is the
# largest depth that keeps that product within this bound.  A row is priced
# by its records alone: with the kernels' contractions on BLAS, a Kendall
# row with 50 landmarks costs about 2.7 sphere rows (the "p" gradient's
# marginal row cost between B = 16 and 48), not the 33 its ambient size
# would say.  853 is 2560 / 3, which gives the sphere (ambient 3) the
# depths of a budget of 2560 numbers per call, the best measured for it.
# At n = 50 (tools/bench_chains.py --parts walk) it gives K = 4 for one
# chain, 2 for four and 1 for sixteen, on every manifold.  For Kendall-50
# chains at B = 1, 4 and 16 that depth is the fastest forced depth or ties
# it within 1% (BENCH_24.json).  An SPD(2) row costs about 12 sphere rows,
# so one or two SPD chains step 4-19% slower here than at one level less.
_PREFETCH = 853
_ETA_CAP_FRACTION = 0.1
_TINY = 1e-300
# A stage runs the independence kernel when dim * sigma, the mean radius of
# its K-norm law, is at most this fraction of the manifold's length scale
# (`_kernel`).  Chosen from the acceptance table of tools/bench_chains.py.
_INDEPENDENCE_REACH = 0.1
# Central-difference step of `_linearize` along each frame vector.
_FD_STEP = 1e-6
# An independence chain evaluates its proposals in log-density calls of at
# most this many rows * records * ambient numbers.  On perfbench's
# release-sphere (n = 50, 218 rows a call; 2-CPU host) 2**15 read 0.85 and
# 0.83 ref and 85.5 MB peak RSS, against 0.92 and 0.91 ref and 85.2 MB at
# 2**14 and 1.11 and 1.13 ref and 86.2 MB at 2**16, where the kernels'
# (rows, n) temporaries outgrow the cache.
_INDEPENDENCE_BLOCK = 2 ** 15


@dataclass
class ChainConfig:
    """Metropolis chain settings; seed is the master seed of the release.

    The CLI's flags and an experiment's `chain` block read these defaults.
    The burn-in length is checked and recorded, but no chain reads it: a
    release is the final state of its chain.
    """

    seed: int
    chain_length: int = 5000
    burn_in: int = 1000
    eta_factor: float = 1.0

    def __post_init__(self):
        if not (is_integer(self.chain_length) and self.chain_length >= 1):
            raise ConfigError("chain_length must be an integer of at least 1")
        if not (is_integer(self.burn_in) and 0 <= self.burn_in < self.chain_length):
            raise ConfigError("burn_in must be an integer in [0, chain_length)")
        if not is_positive_finite(self.eta_factor):
            raise ConfigError("eta_factor must be a positive finite number")

    def settings(self) -> dict:
        """The chain settings without the seed, keyed by CHAIN_SETTINGS."""
        return {name: getattr(self, name) for name in CHAIN_SETTINGS}


# Chain setting names, as config files and release files spell them.
CHAIN_SETTINGS = tuple(f.name for f in fields(ChainConfig) if f.name != "seed")


@dataclass
class ChainDiagnostics:
    """One chain's outcome.  kernel is "random_walk" or "independence"; eta is
    the random walk's proposal radius and None for an independence chain.  A
    random walk is healthy when it accepts within (0.1, 0.9), an independence
    chain when it accepts at least 0.1: it proposes from the target's
    linearization, so a high rate means a good fit, not a timid step."""

    acceptance_rate: float
    accepted: int
    proposals: int
    kernel: str
    eta: float | None
    stuck: bool
    healthy: bool


def _resolve_eta(man: Manifold, sigma: float, cfg: ChainConfig) -> float:
    eta = min(cfg.eta_factor * sigma, _ETA_CAP_FRACTION * man.injectivity_radius)
    if not eta > 0.0:
        raise ConfigError(f"proposal radius collapsed to zero: eta_factor {cfg.eta_factor!r} "
                          f"times sigma {sigma!r}; raise eta_factor")
    return float(eta)


def _kernel(man: Manifold, sigma: float) -> str:
    """The proposal kernel of a stage with noise scale sigma, from public
    inputs alone.

    The stage's K-norm law has mean radius dim * sigma in gradient units; the
    linearization that the independence kernel proposes from holds while
    that stays within _INDEPENDENCE_REACH times the manifold's length scale,
    the smaller of its injectivity radius and 1 / sqrt(max |curvature|).
    Farther out its proposals leave the support or miss an improper target,
    and the stage keeps the random walk.
    """
    kappa = max(abs(k) for k in man.curvature_bounds)
    scale = min(man.injectivity_radius, 1.0 / np.sqrt(kappa) if kappa > 0.0 else np.inf)
    if man.dim * sigma <= _INDEPENDENCE_REACH * scale:
        return "independence"
    return "random_walk"


def _diagnostics(accepted, steps, eta):
    """A chain's diagnostics; eta None marks an independence chain."""
    rate = accepted / steps
    return ChainDiagnostics(
        acceptance_rate=float(rate),
        accepted=int(accepted),
        proposals=int(steps),
        kernel="independence" if eta is None else "random_walk",
        eta=None if eta is None else float(eta),
        stuck=bool(accepted == 0),
        healthy=bool(rate >= 0.1 if eta is None else 0.1 < rate < 0.9),
    )


def _steps(man, anchors, normals, scales):
    """Proposal increments: the isotropic directions of normals at anchors,
    made unit length and multiplied by scales."""
    dirs = man._gaussian_tangent(anchors, normals)
    nd = man._norm(anchors, dirs)[..., None]
    return scales[..., None] * (dirs / np.maximum(nd, _TINY))


def _prefetch_depth(batch, records):
    """Chain steps per log-density call: the largest K >= 1 with
    batch * (2**K - 1) * records <= _PREFETCH."""
    width = batch * records
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
                keep_samples=False, records=1, law=None):
    """Lockstep Metropolis walk for a batch of chains.

    With law=None this is the random walk below; with a `_LinearLaw` it is the
    independence kernel (`_independence_chains`) and eta is None.

    state is (B, ambient).  With linear_base=None the walk moves on the
    manifold through the exponential map; otherwise state rows are tangent
    components at the fixed base rows and proposals are straight increments,
    tangent there without a projection.
    logdens(rows, base) gives the log-density of state rows; base is None on
    the manifold and holds each row's base row otherwise.  records is the
    number of data records it reads per row, which with B sets the prefetch
    depth.  Returns the final states, one `ChainDiagnostics` per chain and,
    with keep_samples, the state after every step, (B, chain_length,
    ambient); the release reads only the final states.

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
    if law is not None:
        return _independence_chains(man, state, logdens, law, cfg, seed_seqs, linear_base,
                                    keep_samples, records)
    B, amb = state.shape
    gens = [np.random.Generator(np.random.PCG64(ss)) for ss in seed_seqs]
    depth = _prefetch_depth(B, records)
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
                    step, out = moves[i + k][rep], stack[B + lo:B + hi]
                    if linear_base is None:
                        out[:] = man._exp(at, _steps(man, at, step, sc[i + k][rep]))
                    else:
                        # Both terms are tangent at the base, to rounding.
                        np.add(at, step, out=out)
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
                    kept.append(stack[src_at[np.stack(path)]])
                at = src_at[h]
                stack[:B] = stack.take(at, axis=0)
                lds[:B] = lds[at]
                accepted += accepts_at[h]
        done += mb

    cur = stack[:B].copy()
    diags = [_diagnostics(accepted[b], cfg.chain_length, eta) for b in range(B)]
    samples = np.concatenate(kept).transpose(1, 0, 2).copy() if keep_samples else None
    return cur, diags, samples


@dataclass
class _LinearLaw:
    """The K-norm law of each chain's gradient, linearized at its start.

    In coordinates z of the orthonormal frame at a chain's anchor (its start
    state on the manifold, its base in a tangent space) the gradient reads
    G(z) ~ g0 + H z.  Drawing w from the K-norm law, density proportional to
    exp(-|w| / sigma), and setting z = H^-1 (w - g0) samples the target
    exactly where G is affine (Reimherr & Awan, NeurIPS 2019).  frames is
    (B, dim, ambient), g0 (B, dim) and h_inv (B, dim, dim).
    """

    frames: np.ndarray
    g0: np.ndarray
    h_inv: np.ndarray
    sigma: float


def _linearize(man, grad, state, linear_base, sigma):
    """The `_LinearLaw` of a batch of chains at their start states.

    grad(rows, base) is the stage's gradient, as in its log-density.  H comes
    from central differences of it, step _FD_STEP along each frame vector;
    on the manifold the moved gradients are transported back to the anchor
    first.
    """
    anchors = state if linear_base is None else linear_base
    B, amb = state.shape
    dim = man.dim
    frames = man._frame(anchors)
    offsets = np.concatenate([np.zeros((B, 1, amb)), _FD_STEP * frames, -_FD_STEP * frames],
                             axis=1).reshape(-1, amb)
    at = np.repeat(anchors, 2 * dim + 1, axis=0)
    if linear_base is None:
        points = man._exp(at, offsets)
        g = man._transport(points, at, grad(points, None)[0])
    else:
        moved = np.repeat(state, 2 * dim + 1, axis=0) + offsets
        g = grad(man._project_tangent(at, moved), at)[0]
    coords = man._inner(at[:, None], np.repeat(frames, 2 * dim + 1, axis=0), g[:, None])
    coords = coords.reshape(B, 2 * dim + 1, dim)
    # h[b, j, i] is the derivative of G_i along z_j.
    h = (coords[:, 1:dim + 1] - coords[:, dim + 1:]) / (2.0 * _FD_STEP)
    return _LinearLaw(frames, coords[:, 0], np.linalg.inv(np.swapaxes(h, 1, 2)), float(sigma))


def _independence_chains(man, state, logdens, law, cfg, seed_seqs, linear_base,
                         keep_samples, records):
    """Independence Metropolis-Hastings from the linearized K-norm law.

    Each chain draws all its proposals up front from its own stream: w as a
    Gamma(dim, sigma) radius times a uniform direction, then the chain's
    uniforms.  A proposal is z = H^-1 (w - g0) mapped from the anchor's frame
    through the exponential (on the manifold) or added to the start state (in
    a tangent space), and its log proposal density is -|w| / sigma, less the
    exp map's log volume factor on the manifold.  Steps that reach the
    cut-locus guard fold over and are refused.  One logdens call takes the
    start states; then each chain's proposals go through in blocks of at
    most _INDEPENDENCE_BLOCK rows * records * ambient numbers, and a scalar
    pass walks each block's weights log pi - log q: a proposal is accepted
    when log u is below its weight less the current state's (Mengersen &
    Tweedie, Ann. Stat. 1996).  Memory stays at one chain's proposals plus
    one block's temporaries.  A chain's draws and rows do not depend on the
    rest of the batch and the kernels are batch-exact, so a chain is
    bit-identical alone and in a batch.
    """
    B, amb = state.shape
    T, sigma = cfg.chain_length, law.sigma
    anchors = state if linear_base is None else linear_base
    per = max(1, _INDEPENDENCE_BLOCK // (records * amb))
    cur = state.copy()
    cur_w = logdens(state, linear_base) + np.linalg.norm(law.g0, axis=1) / sigma
    accepted = np.zeros(B, dtype=np.int64)
    kept = []
    for b, ss in enumerate(seed_seqs):
        gen = np.random.Generator(np.random.PCG64(ss))
        dirs = gen.standard_normal((T, man.dim))
        radii = gen.gamma(man.dim, sigma, T)
        log_u = np.log(gen.random(T)).tolist()
        w = (radii / np.linalg.norm(dirs, axis=1))[:, None] * dirs
        steps = ((w - law.g0[b]) @ law.h_inv[b].T) @ law.frames[b]
        log_q = radii / -sigma
        at = np.broadcast_to(anchors[b], steps.shape)
        if linear_base is None:
            inside = man._norm(at, steps) < man.cut_locus_radius
            steps = np.where(inside[:, None], steps, 0.0)
            props = man._exp(at, steps)
            log_q -= np.where(inside, man._log_exp_jacobian(at, steps), -np.inf)
        else:
            props = man._project_tangent(at, state[b] + steps)
        w_cur, n_acc, path = float(cur_w[b]), 0, []
        for lo in range(0, T, per):
            hi = min(lo + per, T)
            lds = logdens(props[lo:hi], None if linear_base is None else anchors[b][None])
            # A proposal off the support has weight -inf, a folded one too
            # (log q = +inf); a (-inf) - (-inf) difference is nan and never
            # accepts.
            with np.errstate(invalid="ignore"):
                weights = (lds - log_q[lo:hi]).tolist()
            last = -1
            for t, w_t in enumerate(weights, lo):
                if log_u[t] < w_t - w_cur:
                    w_cur, last, n_acc = w_t, t, n_acc + 1
                    if keep_samples:
                        path.append(props[t])
                elif keep_samples:
                    path.append(path[-1] if path else state[b])
            if last >= 0:
                cur[b] = props[last]
        accepted[b] = n_acc
        if keep_samples:
            kept.append(np.array(path))
    diags = [_diagnostics(accepted[b], T, None) for b in range(B)]
    return cur, diags, np.stack(kept) if keep_samples else None


# --- stage densities -----------------------------------------------------------


def _footpoint_grad(man, data, p_hat, v_hat):
    """The footpoint stage's gradient at points, with v_hat transported from
    p_hat, and a mask of the points whose density is finite: valid residuals
    within the cut-locus guard of p_hat."""
    guard = man.cut_locus_radius
    p_row, v_row = p_hat[None], v_hat[None]

    def grad(points, base):
        reachable = man._dist(p_row, points) < guard
        moved = man._transport(p_row, points, v_row)
        g, valid = _grad_rows(man, points, moved, data.x, data.y, "p")
        return g, valid & reachable

    return grad


def _footpoint_logdens(man, data, p_hat, v_hat, sigma):
    grad = _footpoint_grad(man, data, p_hat, v_hat)

    def ld(points, base):
        g, ok = grad(points, base)
        return np.where(ok, man._norm(points, g) / -sigma, -np.inf)

    return ld


def _shooting_grad(man, data):
    # Row r of vs is a tangent vector at base[r].
    def grad(vs, base):
        return _grad_rows(man, base, vs, data.x, data.y, "v")

    return grad


def _shooting_logdens(man, data, sigma):
    grad = _shooting_grad(man, data)

    def ld(vs, base):
        g, valid = grad(vs, base)
        return np.where(valid, man._norm(base, g) / -sigma, -np.inf)

    return ld


def _run_stage(man, state, logdens, grad, sigma, cfg, seed_seqs, linear_base, records):
    """Run one stage's chains with the kernel `_kernel` picks.

    The random walk's radius is resolved for either kernel, so a chain
    setting that cannot run is refused whatever the budget.
    """
    eta, law = _resolve_eta(man, sigma, cfg), None
    if _kernel(man, sigma) == "independence":
        eta, law = None, _linearize(man, grad, state, linear_base, sigma)
    return _run_chains(man, state, logdens, eta, cfg, seed_seqs, linear_base=linear_base,
                       records=records, law=law)


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

    sigma_p, sigma_v = scales.sigma_p, scales.sigma_v
    inits = np.broadcast_to(p_hat, (m, man.ambient_dim)).copy()
    points, diags_p, _ = _run_stage(
        man, inits, _footpoint_logdens(man, data, p_hat, v_hat, sigma_p),
        _footpoint_grad(man, data, p_hat, v_hat), sigma_p, cfg, fp_seeds, None, data.n)

    bases = np.repeat(points, k, axis=0)
    v_init = man._transport(np.broadcast_to(p_hat, bases.shape), bases,
                            np.broadcast_to(v_hat, bases.shape))
    vecs, diags_v, _ = _run_stage(
        man, v_init, _shooting_logdens(man, data, sigma_v), _shooting_grad(man, data),
        sigma_v, cfg, sh_seeds, bases, data.n)
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
        data, model.p, model.v, scales, cfg, [ss_p], [ss_v])
    released = GeodesicModel.project(data.manifold, bases[0], vecs[0])
    if not (diag_p.healthy and diag_v.healthy):
        warnings.warn(
            f"chain acceptance rates (footpoint {diag_p.acceptance_rate:.3f} "
            f"{diag_p.kernel}, shooting {diag_v.acceptance_rate:.3f} {diag_v.kernel}) "
            "are unhealthy: a random walk should accept within (0.1, 0.9), an "
            "independence chain at least 0.1",
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
