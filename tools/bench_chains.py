"""Time the gradient rows, the stage log-densities and the Metropolis step loop,
and tabulate the independence kernel's acceptance.

    python3 tools/bench_chains.py [--batches 1,4,16,100] [--depths 1-5]
                                  [--manifolds sphere,spd,kendall]
                                  [--parts rows,walk,loop,independence,acceptance]
                                  [--reaches 0.01,0.02,...] [--src DIR]

Every part runs at the benchmark's sizes (n = 50 records; S^2, SPD(2) and
Kendall preshapes with 50 landmarks) from the fitted model, for both stages
(footpoint chains on the manifold, shooting chains in a tangent space).

- rows: for each batch size B it times one `regression._grad_rows` call of
  B rows per `wrt` ("p", "v", "pv") and one call of each stage's
  log-density, at states near the fit.
- walk: for each batch size B and each prefetch depth K, it forces K
  by replacing `sampling._prefetch_depth` and times the random walk of
  `sampling._run_chains` with the benchmark's privacy settings (eps 0.5 per
  stage, tau 0.25, eta factor 3).
- loop: the walk table with each stage's log-density replaced by a constant
  (zeros, so every proposal is accepted): the step loop and its proposal
  maps alone, which read apart from the walk table gives the log-density's
  share.
- independence: for each B it times `sampling._run_chains` running the
  independence kernel at the same settings, the linearization included.
- acceptance: for each dim * sigma in --reaches it runs four independence
  chains of 2000 steps and reports their mean acceptance rate, with the
  kernel `sampling._kernel` picks at that sigma.  This is the table behind
  `sampling._INDEPENDENCE_REACH`.

A timed run takes about --seconds; each figure is the median and the
quartiles (q1, q3) of --repeats runs, in microseconds per call (rows) or per
chain step (one step of all B chains).  The runs of a table go in --repeats
rounds, and each round times every cell of the table once, so a drift of
the host's speed moves all cells together and widens their quartiles
instead of landing on one cell.  Between two runs a whole table still moves
with the host's speed: compare cells within one table, and two tables by
their medians against their spreads.  It prints the `layers` block of a
BENCH_*.json file as JSON.

--src imports geodp from another checkout's src/ directory.  BLAS is
pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
N_RECORDS = 50
LANDMARKS = 50


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batches", default="1,4,16,100")
    ap.add_argument("--depths", default="1-5", help="a range lo-hi or a comma list")
    ap.add_argument("--manifolds", default="sphere,spd,kendall")
    ap.add_argument("--parts", default="rows,walk,loop,independence,acceptance")
    ap.add_argument("--reaches", default="0.01,0.02,0.05,0.1,0.2,0.5,1,2",
                    help="dim * sigma values of the acceptance table")
    ap.add_argument("--seconds", type=float, default=0.2)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args(argv)
    args.batches = [int(b) for b in args.batches.split(",")]
    if "-" in args.depths:
        lo, hi = (int(d) for d in args.depths.split("-"))
        args.depths = list(range(lo, hi + 1))
    else:
        args.depths = [int(d) for d in args.depths.split(",")]
    args.manifolds = args.manifolds.split(",")
    args.parts = args.parts.split(",")
    args.reaches = [float(r) for r in args.reaches.split(",")]
    return args


def fitted(name):
    """The benchmark-sized dataset of a manifold and its fitted model."""
    from geodp.experiments import gen_kendall, gen_spd, gen_sphere
    from geodp.regression import fit

    gen = {"sphere": lambda: gen_sphere(N_RECORDS, 0.01, 1),
           "spd": lambda: gen_spd(N_RECORDS, 0.1, 1),
           "kendall": lambda: gen_kendall(N_RECORDS, 0.001, 1, landmarks=LANDMARKS)}[name]
    data, _ = gen()
    return data, fit(data).model


def independence_runs(data, model, batch, sigma_p, sigma_v):
    """(stage, run(steps)) pairs running the independence kernel; run returns
    the chains' diagnostics."""
    import numpy as np
    from geodp import sampling

    man = data.manifold
    p, v = model.p, model.v
    bases = np.broadcast_to(p, (batch, man.ambient_dim)).copy()
    vs = np.broadcast_to(v, bases.shape).copy()
    seeds = [np.random.SeedSequence([7, b]) for b in range(batch)]
    stages = {
        "footpoint": (bases, None, sigma_p,
                      sampling._footpoint_logdens(man, data, p, v, sigma_p),
                      sampling._footpoint_grad(man, data, p, v)),
        "shooting": (vs, bases, sigma_v, sampling._shooting_logdens(man, data, sigma_v),
                     sampling._shooting_grad(man, data)),
    }

    def runner(state, base, sigma, ld, grad):
        def run(steps):
            cfg = sampling.ChainConfig(seed=0, chain_length=steps, burn_in=0)
            law = sampling._linearize(man, grad, state, base, sigma)
            return sampling._run_chains(man, state, ld, None, cfg, seeds, linear_base=base,
                                        records=data.n, law=law)[1]
        return run

    return [(stage, runner(*args)) for stage, args in stages.items()]


def stage_runs(name, batch, flat=False):
    """(stage, run(steps)) pairs for one manifold and batch size; flat
    replaces each stage's log-density by a constant one."""
    import numpy as np
    from geodp import sampling

    data, model = fitted(name)
    man = data.manifold
    p, v = model.p, model.v
    scales = benchmark_scales(data)
    bases = np.broadcast_to(p, (batch, man.ambient_dim)).copy()
    vs = np.broadcast_to(v, bases.shape).copy()
    seeds = [np.random.SeedSequence([7, b]) for b in range(batch)]

    def const(rows, base):
        return np.zeros(rows.shape[0])

    def run_p(steps):
        cfg = sampling.ChainConfig(seed=0, chain_length=steps, burn_in=0, eta_factor=3.0)
        eta = sampling._resolve_eta(man, scales.sigma_p, cfg)
        ld = const if flat else sampling._footpoint_logdens(man, data, p, v, scales.sigma_p)
        sampling._run_chains(man, bases, ld, eta, cfg, seeds, records=data.n)

    def run_v(steps):
        cfg = sampling.ChainConfig(seed=0, chain_length=steps, burn_in=0, eta_factor=3.0)
        eta = sampling._resolve_eta(man, scales.sigma_v, cfg)
        ld = const if flat else sampling._shooting_logdens(man, data, scales.sigma_v)
        sampling._run_chains(man, vs, ld, eta, cfg, seeds, linear_base=bases, records=data.n)

    return [("footpoint", run_p), ("shooting", run_v)]


def benchmark_scales(data):
    """Noise scales at the benchmark's privacy settings."""
    from geodp.privacy import SensitivitySpec, compose_budget, noise_scales

    spec = SensitivitySpec(n=data.n, tau=0.25, kappa_l=1.0)
    return noise_scales(spec, compose_budget(0.5, 0.5), 1)


def calibrated_steps(run, seconds):
    """The steps of run(steps) that take about `seconds`, from a 16-step run."""
    t0 = time.perf_counter()
    run(16)
    guess = (time.perf_counter() - t0) / 16
    return int(min(max(seconds / max(guess, 1e-9), 16), 2048))


def interleaved_us(cells, seconds, repeats):
    """Median and quartiles of `repeats` runs of each cell's run(steps), in
    microseconds per step.  cells maps a key tuple to its run; each round
    runs every cell once.  Returns the figures nested by the key tuples."""
    import numpy as np

    steps = {key: calibrated_steps(run, seconds) for key, run in cells.items()}
    times = {key: [] for key in cells}
    for _ in range(repeats):
        for key, run in cells.items():
            t0 = time.perf_counter()
            run(steps[key])
            times[key].append((time.perf_counter() - t0) / steps[key])
    table = {}
    for key, ts in times.items():
        q1, median, q3 = np.percentile(ts, [25, 50, 75]) * 1e6
        node = table
        for part in key[:-1]:
            node = node.setdefault(part, {})
        node[key[-1]] = {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}
    return table


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    from geodp import sampling

    host = {"python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count()}
    sizes = {"n": N_RECORDS, "kendall_landmarks": LANDMARKS}
    layers = {}
    if "rows" in args.parts:
        layers["rows_us_per_call"] = {
            "what": "wall time of one call on B rows, median and quartiles of repeated "
                    "runs: regression._grad_rows by wrt, and each stage's log-density; "
                    "keys: manifold, grad_rows wrt or stage, batch size",
            "sizes": sizes, "host": host, "values": rows_table(args)}
    if "walk" in args.parts:
        layers["run_chains_us_per_step"] = {
            "what": "sampling._run_chains random-walk wall time per chain step (all B "
                    "chains), median and quartiles of repeated runs; keys: manifold, "
                    "stage, batch size, prefetch depth",
            "sizes": sizes, "host": host,
            "prefetch_constant": sampling._PREFETCH,
            "prefetch_rule": inspect.getdoc(sampling._prefetch_depth),
            "values": walk_table(args, sampling)}
    if "loop" in args.parts:
        layers["run_chains_loop_us_per_step"] = {
            "what": "sampling._run_chains random-walk wall time per chain step (all B "
                    "chains) with a constant log-density, so every proposal is "
                    "accepted: the step loop and its proposal maps without the "
                    "log-density's cost, median and quartiles of repeated runs; keys "
                    "as run_chains_us_per_step",
            "sizes": sizes, "host": host, "values": walk_table(args, sampling, flat=True)}
    if "independence" in args.parts:
        cells = {}
        for name in args.manifolds:
            data, model = fitted(name)
            sc = benchmark_scales(data)
            for batch in args.batches:
                for stage, run in independence_runs(data, model, batch, sc.sigma_p,
                                                    sc.sigma_v):
                    cells[name, stage, f"B={batch}"] = run
        table = interleaved_us(cells, args.seconds, args.repeats)
        layers["independence_us_per_step"] = {
            "what": "sampling._run_chains independence-kernel wall time per chain step "
                    "(all B chains), linearization included, median and quartiles of "
                    "repeated runs; keys: manifold, stage, batch size",
            "sizes": sizes, "host": host, "values": table}
    if "acceptance" in args.parts:
        table = {}
        for name in args.manifolds:
            data, model = fitted(name)
            man = data.manifold
            for reach in args.reaches:
                sigma = reach / man.dim
                for stage, run in independence_runs(data, model, 4, sigma, sigma):
                    diags = run(2000)
                    rate = sum(d.acceptance_rate for d in diags) / len(diags)
                    table.setdefault(name, {}).setdefault(stage, {})[str(reach)] = {
                        "acceptance": round(rate, 4),
                        "kernel": sampling._kernel(man, sigma)}
        layers["independence_acceptance"] = {
            "what": "mean acceptance rate of four 2000-step independence chains from the "
                    "fit, and the kernel sampling._kernel picks; keys: manifold, stage, "
                    "dim * sigma",
            "sizes": sizes, "reach_constant": sampling._INDEPENDENCE_REACH,
            "values": table}
    print(json.dumps({"layers": layers}, indent=1))


def at_depth(sampling, run, depth):
    """run(steps) with `sampling._prefetch_depth` forced to depth while it runs."""
    def forced(steps):
        rule = sampling._prefetch_depth
        sampling._prefetch_depth = lambda *sizes: depth
        try:
            run(steps)
        finally:
            sampling._prefetch_depth = rule
    return forced


def walk_table(args, sampling, flat=False):
    """Random-walk microseconds per step by manifold, stage, batch and depth;
    flat uses a constant log-density (`stage_runs`)."""
    cells = {}
    for name in args.manifolds:
        for batch in args.batches:
            for stage, run in stage_runs(name, batch, flat):
                for depth in args.depths:
                    cells[name, stage, f"B={batch}", str(depth)] = at_depth(sampling, run, depth)
    table = interleaved_us(cells, args.seconds, args.repeats)
    for name in args.manifolds:
        for batch in args.batches:
            for row in table[name].values():
                row[f"B={batch}"]["default_depth"] = sampling._prefetch_depth(batch, N_RECORDS)
    return table


def row_runs(data, model, batch, rng):
    """(key, run(steps)) pairs for one manifold and batch size: each run makes
    `steps` gradient-row or stage log-density calls on B rows near the fit."""
    import numpy as np
    from geodp import sampling
    from geodp.regression import _grad_rows

    man = data.manifold
    scales = benchmark_scales(data)
    p, v = model.p, model.v
    base = np.broadcast_to(p, (batch, man.ambient_dim))
    points = man._exp(base, 0.01 * man._gaussian_tangent(
        base, rng.standard_normal(base.shape)))
    vs = man._transport(base, points, np.broadcast_to(v, base.shape))
    foot = sampling._footpoint_logdens(man, data, p, v, scales.sigma_p)
    shoot = sampling._shooting_logdens(man, data, scales.sigma_v)
    calls = {f"grad_rows_{wrt}": lambda wrt=wrt: _grad_rows(
                 man, points, vs, data.x, data.y, wrt)
             for wrt in ("p", "v", "pv")}
    calls["logdens_footpoint"] = lambda: foot(points, None)
    calls["logdens_shooting"] = lambda: shoot(vs, points)
    return [(key, lambda steps, call=call: [call() for _ in range(steps)])
            for key, call in calls.items()]


def rows_table(args):
    """Microseconds per gradient-row call by wrt, and per stage log-density
    call, by manifold and batch size."""
    import numpy as np

    cells = {}
    for name in args.manifolds:
        data, model = fitted(name)
        rng = np.random.default_rng(7)
        for batch in args.batches:
            for key, run in row_runs(data, model, batch, rng):
                cells[name, key, f"B={batch}"] = run
    return interleaved_us(cells, args.seconds, args.repeats)

if __name__ == "__main__":
    main()
