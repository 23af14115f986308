"""The benchmark's three workloads, each a closed loop of one operation kind.

Every workload builds its inputs from the workload seed during set-up; the
operations then see only those generated inputs.  `op(i)` is the timed
operation and `check(i, out)` its output check, run outside the timing.
Why each workload exists, and which layer figures should move which
end-to-end figures on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

# Layer entry points are called through their modules, never bound here by
# value, so that the traced run's probes see every call.
from geodp import cli, dataio, experiments, regression
from geodp.experiments import (
    GridSpec,
    equal_split_budgets,
    gen_kendall,
    gen_spd,
    gen_sphere,
    make_adjacent_pairs,
)
from geodp.manifolds import Sphere
from geodp.regression import FitConfig
from geodp.sampling import ChainConfig

MEMBERSHIP_TOL = 1e-10
WARMUP = 2**32 - 1  # operation index of the set-up warm-up, never a timed op

# Sizes of the measured runs.  Changing any of them changes the benchmark.
# A chain started at the fitted mode accepts about 7% of its proposals until it
# leaves the mode, so grid-kendall's 200-step chains all move with probability
# above 1 - 1e-6; at 100 steps about one operation in 150 had a chain that
# never moved, and its cell excluded pairs.
PARAMS = {
    "release-sphere": {"n": 50, "delta": 0.01, "eps_p": 0.5, "eps_v": 0.5, "tau": 0.25,
                       "eta_factor": 3.0, "chain_length": 5000, "burn_in": 1000,
                       "warmup_chain_length": 200},
    "grid-kendall": {"n": 50, "delta": 0.001, "landmarks": 50, "m": 4, "chain_length": 200,
                     "burn_in": 40, "eps_lo": 1.0, "eps_hi": 2.0, "cells": 2, "workers": 2,
                     "tau": 0.25, "eta_factor": 3.0},
    "audit-spd": {"n": 50, "sigma_noise": 0.1, "pairs": 32, "warmup_max_iter": 3},
}


def op_seed(seed: int, i: int) -> int:
    """The chain seed of operation i, derived from the workload seed alone."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def sha256(obj) -> str:
    raw = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()


class Workload:
    name = ""
    chain_steps_per_op = 0

    def __init__(self, seed: int, params: dict, workdir: Path):
        self.seed = seed
        self.p = params
        # Digests of every output of each operation; its inputs are fixed by
        # the seed, so every repeat must reproduce the first.
        self.digests: dict[int, list[str]] = {}

    def _record(self, i: int, output) -> None:
        self.digests.setdefault(i, []).append(sha256(output))

    def close(self) -> None:
        pass


class ReleaseSphere(Workload):
    """`geodp privatize` in-process, one release per operation (B=1 chains)."""

    name = "release-sphere"

    def __init__(self, seed, params, workdir):
        super().__init__(seed, params, workdir)
        self.data_path = workdir / "data.json"
        self.out_path = workdir / "release.json"
        self.chain_steps_per_op = 2 * params["chain_length"]

    def _privatize(self, seed: int, chain_length: int, burn_in: int) -> int:
        p = self.p
        argv = ["privatize", "--data", str(self.data_path),
                "--eps-p", repr(p["eps_p"]), "--eps-v", repr(p["eps_v"]),
                "--tau", repr(p["tau"]), "--eta-factor", repr(p["eta_factor"]),
                "--chain-length", str(chain_length), "--burn-in", str(burn_in),
                "--seed", str(seed), "--out", str(self.out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self) -> None:
        data, _ = gen_sphere(self.p["n"], self.p["delta"], self.seed)
        dataio.write_dataset(self.data_path, data)
        warm = self.p["warmup_chain_length"]
        if self._privatize(op_seed(self.seed, WARMUP), warm, warm // 5) != 0:
            raise RuntimeError("warm-up release failed")

    def op(self, i: int):
        return self._privatize(op_seed(self.seed, i), self.p["chain_length"], self.p["burn_in"])

    def check(self, i: int, code) -> bool:
        if code != 0:
            return False
        raw = self.out_path.read_bytes()
        self._record(i, raw)
        doc = json.loads(raw)
        man = Sphere()
        p, v = np.array(doc["p"]), np.array(doc["v"])
        return bool(man._point_defect(p) <= MEMBERSHIP_TOL
                    and man._tangent_defect(p, v) <= MEMBERSHIP_TOL
                    and not doc["diagnostics"]["p"]["stuck"]
                    and not doc["diagnostics"]["v"]["stuck"])


class GridKendall(Workload):
    """One `run_grid` call per operation on Kendall preshapes, one cell per worker."""

    name = "grid-kendall"

    def __init__(self, seed, params, workdir):
        super().__init__(seed, params, workdir)
        m = params["m"]
        self.chain_steps_per_op = params["cells"] * (m + m * m) * params["chain_length"]
        self._threads = os.environ.get("GEODP_THREADS")

    def _grid(self, seed: int, m: int, budgets, chain_length: int, burn_in: int):
        cfg = ChainConfig(seed=seed, chain_length=chain_length, burn_in=burn_in,
                          eta_factor=self.p["eta_factor"])
        return experiments.run_grid(self.data, GridSpec(mode="equal", budget_list=budgets,
                                                        m=m), cfg, tau=self.p["tau"])

    def setup(self) -> None:
        p = self.p
        self.data, _ = gen_kendall(p["n"], p["delta"], self.seed, landmarks=p["landmarks"])
        self.budgets = equal_split_budgets(p["eps_lo"], p["eps_hi"], p["cells"])
        os.environ["GEODP_THREADS"] = "1"
        self._grid(op_seed(self.seed, WARMUP), 1, self.budgets[:1], 10, 2)
        os.environ["GEODP_THREADS"] = str(p["workers"])

    def op(self, i: int):
        p = self.p
        return self._grid(op_seed(self.seed, i), p["m"], self.budgets, p["chain_length"],
                          p["burn_in"])

    def check(self, i: int, result) -> bool:
        self._record(i, dataclasses.asdict(result))
        return len(result.cells) == self.p["cells"] and all(
            math.isfinite(c.ln_mse) and c.excluded == 0 for c in result.cells)

    def close(self) -> None:
        if self._threads is None:
            os.environ.pop("GEODP_THREADS", None)
        else:
            os.environ["GEODP_THREADS"] = self._threads


class AuditSpd(Workload):
    """`validate_sensitivity([pair])` per operation on SPD(2) adjacent pairs."""

    name = "audit-spd"

    def __init__(self, seed, params, workdir):
        super().__init__(seed, params, workdir)
        self.converged: list[bool] = []
        # validate_sensitivity does not return its fit reports; capture their
        # convergence flags.  The fit is looked up per call, so a traced fit
        # stays traced.
        self._fit = experiments.fit

        def fit_and_record(data, config=None):
            report = regression.fit(data, config)
            self.converged.append(report.converged)
            return report

        experiments.fit = fit_and_record

    def setup(self) -> None:
        p = self.p
        sigma = p["sigma_noise"]
        self.pairs = make_adjacent_pairs(p["n"], lambda count, s: gen_spd(count, sigma, s),
                                         p["pairs"], self.seed)
        experiments.validate_sensitivity(self.pairs[:1],
                                         FitConfig(max_iter=p["warmup_max_iter"]))

    def op(self, i: int):
        self.converged.clear()
        return experiments.validate_sensitivity([self.pairs[i % len(self.pairs)]])

    def check(self, i: int, report) -> bool:
        self._record(i, [dataclasses.asdict(r) for r in report.rows])
        return bool(len(report.rows) == 1 and self.converged == [True]
                    and report.all_bounded())

    def close(self) -> None:
        experiments.fit = self._fit


WORKLOADS = {cls.name: cls for cls in (ReleaseSphere, GridKendall, AuditSpd)}
