"""Command-line interface.

Commands print a small JSON result on stdout and report failures as a JSON
object on stderr.  The exit code is the error class's `exit_code`: 1 (usage
or configuration), 2 (data), or 3 (numerical failure).
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import dataio
from .errors import ConfigError, DataFormatError, GeodpError, PrivacyWarning
from .experiments import (
    DEFAULT_BUDGETS,
    DEFAULT_LANDMARKS,
    DEFAULT_MANIFOLD,
    DEFAULT_N,
    DEFAULT_NOISE,
    generate,
    make_adjacent_pairs,
    run_grid,
    validate_sensitivity,
)
from .manifolds import manifold_from_spec
from .privacy import compose_budget, sensitivity_spec
from .regression import FitConfig, fit, mse
from .sampling import ChainConfig, release_pair


_RANDOM_WALK_ONLY = ("Proposal scale of random-walk stages; a stage that runs the "
                     "independence kernel ignores it.")


def _emit(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _manifold_spec(kind: str, landmarks: int) -> dict:
    """The manifold spec that --manifold and --landmarks name."""
    return {"kind": kind, "landmarks": landmarks} if kind == "kendall" else {"kind": kind}


@click.group()
def cli():
    """Differentially private geodesic regression."""


@cli.command("gen-data")
@click.option("--manifold", type=click.Choice(["sphere", "spd", "kendall"]),
              default=DEFAULT_MANIFOLD, show_default=True)
@click.option("--n", type=int, default=DEFAULT_N, show_default=True)
@click.option("--delta", "--noise", "noise", type=float, default=DEFAULT_NOISE,
              show_default=True,
              help="Tangent noise covariance (sphere, kendall) or frame std (spd).")
@click.option("--landmarks", type=int, default=DEFAULT_LANDMARKS, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--from-landmarks", "landmark_file", type=click.Path(), default=None,
              help="Ingest a landmark CSV instead of generating synthetic data.")
@click.option("--covariate-column", default="0",
              help="Covariate column name or index in the landmark CSV.")
@click.option("--out", type=click.Path(), required=True)
def gen_data(manifold, n, noise, landmarks, seed, landmark_file, covariate_column, out):
    """Write a dataset file, synthetic or ingested from landmarks."""
    if landmark_file is not None:
        column = covariate_column
        if column.isascii() and column.isdigit():
            column = int(column)
        data = dataio.ingest_landmarks(landmark_file, column)
        truth = None
    else:
        data, truth = generate(manifold_from_spec(_manifold_spec(manifold, landmarks)),
                               n, noise, seed)
    dataio.write_dataset(out, data)
    doc = {"path": str(out), "manifold": data.manifold.spec(), "n": data.n}
    if truth is not None:
        doc["truth"] = {
            "p": dataio._row_to_file(data.manifold, truth.p),
            "v": dataio._row_to_file(data.manifold, truth.v),
        }
    _emit(doc)


@cli.command("fit")
@click.option("--data", "data_path", type=click.Path(), required=True)
@click.option("--tol", type=float, default=FitConfig.tol, show_default=True)
@click.option("--max-iter", type=int, default=FitConfig.max_iter, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Optional path for the fitted model JSON.")
def fit_cmd(data_path, tol, max_iter, out):
    """Fit a geodesic to a dataset and print the report."""
    cfg = FitConfig(tol=tol, max_iter=max_iter)
    report = fit(dataio.read_dataset(data_path), cfg)
    doc = dataio.encode_model(report.model, report)
    if out:
        dataio.write_model(out, report.model, report)
        doc["path"] = str(out)
    _emit(doc)


@cli.command("privatize")
@click.option("--data", "data_path", type=click.Path(), required=True)
@click.option("--eps-p", type=float, required=True)
@click.option("--eps-v", type=float, required=True)
@click.option("--tau", type=float, default=None,
              help="Public residual bound; defaults to the empirical bound "
                   "with a privacy warning.")
@click.option("--factor", type=click.Choice(["1", "2"]), default="1", show_default=True)
@click.option("--chain-length", type=int, default=ChainConfig.chain_length,
              show_default=True)
@click.option("--burn-in", type=int, default=ChainConfig.burn_in, show_default=True)
@click.option("--eta-factor", type=float, default=ChainConfig.eta_factor,
              show_default=True, help=_RANDOM_WALK_ONLY)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
def privatize(data_path, eps_p, eps_v, tau, factor, chain_length, burn_in,
              eta_factor, seed, out):
    """Release a differentially private geodesic model."""
    cfg = ChainConfig(seed=seed, chain_length=chain_length, burn_in=burn_in,
                      eta_factor=eta_factor)
    budget = compose_budget(eps_p, eps_v)
    data = dataio.read_dataset(data_path)
    report = fit(data)
    spec, tau_policy = sensitivity_spec(data.manifold, data.n, report, tau)
    release = release_pair(data, report, spec, budget, cfg, factor=int(factor))
    dataio.write_release(out, release, tau_policy)
    _emit({
        "path": str(out),
        "eps_p": budget.eps_p,
        "eps_v": budget.eps_v,
        "total": budget.total,
        "tau_policy": tau_policy,
        "mse": mse(release.model, data),
        "acceptance_p": release.diagnostics_p.acceptance_rate,
        "acceptance_v": release.diagnostics_v.acceptance_rate,
    })


def _parse_eps_range(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--eps must look like LO:HI:STEPS")
    try:
        return {"lo": float(parts[0]), "hi": float(parts[1]), "steps": int(parts[2])}
    except ValueError as exc:
        raise ConfigError(f"bad --eps range {text!r}") from exc


def _block(doc: dict, key: str, default: dict | None = None) -> dict:
    """The config block that flags merge into, which must be a JSON object.
    A block left out or given as null reads as `default`, an empty block
    unless given, as `ExperimentConfig` reads it."""
    block = doc.get(key)
    if block is None:
        block = {} if default is None else default
    if not isinstance(block, dict):
        raise ConfigError(f"config key {key!r} must be a JSON object")
    return block


@cli.command("experiment")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config; explicit flags override its keys.")
@click.option("--manifold", type=click.Choice(["sphere", "spd", "kendall"]), default=None)
@click.option("--n", type=int, default=None)
@click.option("--delta", "--noise", "noise", type=float, default=None)
@click.option("--landmarks", type=int, default=None)
@click.option("--mode", type=click.Choice(["equal", "unequal"]), default=None)
@click.option("--eps", default=None, help="Budget range LO:HI:STEPS.")
@click.option("--total", type=float, default=None,
              help="Fixed total budget for unequal mode.")
@click.option("--m", type=int, default=None)
@click.option("--tau", type=float, default=None)
@click.option("--factor", type=click.Choice(["1", "2"]), default=None)
@click.option("--replicates", type=int, default=None)
@click.option("--chain-length", type=int, default=None)
@click.option("--burn-in", type=int, default=None)
@click.option("--eta-factor", type=float, default=None, help=_RANDOM_WALK_ONLY)
@click.option("--seed", type=int, required=True)
@click.option("--out-dir", type=click.Path(), required=True)
def experiment(config_path, manifold, n, noise, landmarks, mode, eps, total, m,
               tau, factor, replicates, chain_length, burn_in, eta_factor, seed, out_dir):
    """Run a budget-grid experiment from a config file and/or flags."""
    doc = dataio.load_experiment_doc(config_path) if config_path else {}
    if manifold is not None:
        doc["manifold"] = _manifold_spec(
            manifold, DEFAULT_LANDMARKS if landmarks is None else landmarks)
    elif landmarks is not None and _block(doc, "manifold").get("kind") == "kendall":
        doc["manifold"]["landmarks"] = landmarks
    scalar_flags = {"n": n, "noise": noise, "mode": mode, "m": m, "tau": tau,
                    "factor": None if factor is None else int(factor),
                    "replicates": replicates}
    doc.update({k: v for k, v in scalar_flags.items() if v is not None})
    if eps is not None:
        doc["budgets"] = _parse_eps_range(eps)
    if total is not None:
        doc["budgets"] = {**_block(doc, "budgets", DEFAULT_BUDGETS["unequal"]), "total": total}
    chain_flags = {"chain_length": chain_length, "burn_in": burn_in, "eta_factor": eta_factor}
    given = {k: v for k, v in chain_flags.items() if v is not None}
    if given:
        doc["chain"] = {**_block(doc, "chain"), **given}

    cfg = dataio.parse_experiment_config(doc)
    grid = cfg.grid()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    man = manifold_from_spec(cfg.manifold)
    seeds = [int(s.generate_state(1)[0]) for s in
             np.random.SeedSequence(seed).spawn(cfg.replicates)]
    results = []
    for rep_seed in seeds:
        data, _ = generate(man, cfg.n, cfg.noise, rep_seed)
        chain_cfg = ChainConfig(seed=rep_seed, **cfg.chain)
        results.append(run_grid(data, grid, chain_cfg, tau=cfg.tau, factor=cfg.factor))

    (out / "grid.csv").write_text(dataio.grid_csv_text(results))
    (out / "plot.csv").write_text(dataio.plot_csv_text(results))
    summary = {
        "manifold": cfg.manifold,
        "n": cfg.n,
        "mode": cfg.mode,
        "m": cfg.m,
        "replicates": cfg.replicates,
        "seeds": seeds,
        "tau_policy": results[0].tau_policy,
        "cells_per_replicate": len(results[0].cells),
        "baseline_ln_mse": [r.baseline_ln_mse for r in results],
        "config_hash": dataio.config_hash(
            {**asdict(cfg), "chain": chain_cfg.settings(), "seed": seed}),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _emit({"out_dir": str(out), "replicates": cfg.replicates,
           "cells": sum(len(r.cells) for r in results)})


@cli.command("validate-sensitivity")
@click.option("--manifold", type=click.Choice(["sphere", "spd", "kendall"]),
              default=DEFAULT_MANIFOLD, show_default=True)
@click.option("--n", type=int, default=20, show_default=True)
@click.option("--delta", "--noise", "noise", type=float, default=DEFAULT_NOISE,
              show_default=True)
@click.option("--landmarks", type=int, default=DEFAULT_LANDMARKS, show_default=True)
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
def validate_sensitivity_cmd(manifold, n, noise, landmarks, trials, seed, out):
    """Check the sensitivity bounds against adjacent-dataset gradient swings."""
    man = manifold_from_spec(_manifold_spec(manifold, landmarks))
    pairs = make_adjacent_pairs(n, lambda count, s: generate(man, count, noise, s),
                                trials, seed)
    report = validate_sensitivity(pairs)
    Path(out).write_text(dataio.sensitivity_csv_text(report))
    _emit({
        "path": str(out),
        "trials": trials,
        "min_ratio": report.min_ratio,
        "all_bounded": report.all_bounded(),
    })


def main(argv=None) -> int:
    # Every privacy warning reaches the user unless the caller's own filters
    # say otherwise: the filter goes last, and only while the command runs.
    with warnings.catch_warnings():
        warnings.simplefilter("always", PrivacyWarning, append=True)
        try:
            cli.main(args=argv, standalone_mode=False)
            return 0
        except click.exceptions.Exit as exc:
            return int(exc.exit_code)
        except click.ClickException as exc:
            name = "UsageError" if isinstance(exc, click.UsageError) else type(exc).__name__
            return _fail(name, exc.format_message(), ConfigError.exit_code)
        except GeodpError as exc:
            return _fail(type(exc).__name__, str(exc), exc.exit_code)
        except OSError as exc:
            return _fail(type(exc).__name__, str(exc), DataFormatError.exit_code)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            return _fail(type(exc).__name__, str(exc), GeodpError.exit_code)


def _fail(name: str, message: str, code: int) -> int:
    print(json.dumps({"error": name, "message": message, "exit_code": code}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
