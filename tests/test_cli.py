"""Command line interface: pipelines, exit codes, flag/config precedence."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import geodp
from geodp import dataio
from geodp.cli import main
from geodp.errors import (
    ConfigError,
    CutLocusError,
    DataFormatError,
    DegenerateCovariates,
    DegenerateInput,
    DegenerateShape,
    GeodpError,
    MalformedRow,
    ManifoldMismatch,
    NonpositiveBudget,
    PrivacyWarning,
)
from geodp.manifolds.spd import MAX_CONDITION


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(text):
    return json.loads(text)


def err_json(text):
    return json.loads(text.strip().splitlines()[-1])


def gen_args(path, n="12", seed="3", extra=()):
    return ("gen-data", "--manifold", "sphere", "--n", n, "--delta", "0.01",
            "--seed", seed, "--out", str(path), *extra)


# --- happy paths ------------------------------------------------------------------


def test_gen_fit_privatize_pipeline(tmp_path, capsys):
    data = tmp_path / "data.json"
    code, out, _ = run_cli(capsys, *gen_args(data))
    assert code == 0
    doc = out_json(out)
    assert doc["n"] == 12 and doc["manifold"] == {"kind": "sphere"}
    assert len(doc["truth"]["p"]) == 3
    assert data.exists()

    model = tmp_path / "model.json"
    code, out, _ = run_cli(capsys, "fit", "--data", str(data), "--out", str(model))
    assert code == 0
    doc = out_json(out)
    assert doc["fit"]["converged"] is True and doc["fit"]["stop"] == "converged"
    assert doc["path"] == str(model)
    assert model.exists()
    assert json.loads(model.read_text())["fit"]["stop"] == "converged"

    code, out, _ = run_cli(capsys, "fit", "--data", str(data), "--max-iter", "1")
    assert code == 0
    doc = out_json(out)["fit"]
    assert doc["stop"] == "max_iter" and doc["converged"] is False and doc["iterations"] == 1

    release = tmp_path / "release.json"
    with pytest.warns(PrivacyWarning):
        code, out, _ = run_cli(
            capsys, "privatize", "--data", str(data), "--eps-p", "1.0",
            "--eps-v", "1.0", "--chain-length", "50", "--burn-in", "10",
            "--seed", "5", "--out", str(release))
    assert code == 0
    doc = out_json(out)
    assert doc["total"] == 2.0
    assert doc["tau_policy"] == "empirical"
    assert doc["mse"] >= 0.0
    saved = json.loads(release.read_text())
    assert saved["format"] == "geodp-release"
    assert saved["tau_policy"] == "empirical"
    # the mse is a non-private statistic of the data; the file leaves it out
    assert "mse" not in saved and "fit_mse" not in saved


def test_privatize_public_tau_and_factor(tmp_path, capsys):
    data = tmp_path / "data.json"
    assert run_cli(capsys, *gen_args(data))[0] == 0

    def release(path, *extra):
        code, out, _ = run_cli(
            capsys, "privatize", "--data", str(data), "--eps-p", "0.5",
            "--eps-v", "0.5", "--tau", "0.3", "--chain-length", "40",
            "--burn-in", "10", "--seed", "9", "--out", str(path), *extra)
        assert code == 0
        return json.loads(path.read_text())

    import warnings

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        doc1 = release(tmp_path / "r1.json")
    # public tau must not trigger the privacy warning
    assert not any(issubclass(w.category, PrivacyWarning) for w in rec)
    doc2 = release(tmp_path / "r2.json", "--factor", "2")
    assert doc1["tau_policy"] == "public"
    assert doc1["sensitivity"]["tau"] == 0.3
    assert doc2["scales"]["sigma_p"] == 2.0 * doc1["scales"]["sigma_p"]
    # same seed and inputs, so the stage-one chain differs only through sigma
    assert doc1["seed"] == doc2["seed"] == 9


def test_gen_data_determinism_and_delta_alias(tmp_path, capsys):
    a, b, c = (tmp_path / f"{k}.json" for k in "abc")
    run_cli(capsys, *gen_args(a))
    run_cli(capsys, *gen_args(b))
    assert a.read_bytes() == b.read_bytes()
    run_cli(capsys, "gen-data", "--manifold", "sphere", "--n", "12", "--noise",
            "0.01", "--seed", "3", "--out", str(c))
    assert c.read_bytes() == a.read_bytes()


def test_gen_data_from_landmarks(tmp_path, capsys):
    csv = tmp_path / "shapes.csv"
    rows = ["t,x0,y0,x1,y1,x2,y2,x3,y3"]
    for t in range(5):
        s = 1.0 + 0.1 * t
        rows.append(f"{t}," + ",".join(
            f"{c}" for xy in [(0, 0), (s, 0), (s, s), (0, s)] for c in xy))
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "shapes.json"
    code, text, _ = run_cli(
        capsys, "gen-data", "--from-landmarks", str(csv), "--covariate-column",
        "t", "--seed", "0", "--out", str(out))
    assert code == 0
    doc = out_json(text)
    assert doc["manifold"] == {"kind": "kendall", "landmarks": 4}
    assert doc["n"] == 5
    assert "truth" not in doc


SQUARE_ROWS = ["0,0,0,1,0,1,1,0,1", "1,0,0,2,0,2,2,0,2", "2,0,0,1,0,1,3,0,1"]


@pytest.mark.parametrize("header, column, code", [
    ("t,x0,y0,x1,y1,x2,y2,x3,y3", "\u00b2", 2),
    ("\u00b2,x0,y0,x1,y1,x2,y2,x3,y3", "\u00b2", 0),
], ids=["missing", "present"])
def test_non_ascii_digit_covariate_column_is_a_name(tmp_path, capsys, header, column, code):
    """A column argument that is a digit outside ASCII (str.isdigit() says yes
    to it) names a header column, and a name missing from the header is a
    one-line data error."""
    csv = tmp_path / "shapes.csv"
    csv.write_text("\n".join([header, *SQUARE_ROWS]) + "\n")
    out = tmp_path / "shapes.json"
    got, _, err = run_cli(capsys, "gen-data", "--from-landmarks", str(csv),
                          "--covariate-column", column, "--seed", "0", "--out", str(out))
    assert got == code and out.exists() == (code == 0)
    if code:
        assert len(err.strip().splitlines()) == 1
        assert err_json(err)["error"] == "DataFormatError"


@pytest.mark.parametrize("value", ["inf", "nan", "1e200"])
def test_landmark_row_out_of_range_exits_2(tmp_path, capsys, value):
    """A non-finite coordinate, or one whose squared norm overflows, is a
    malformed row that names its line, with no RuntimeWarning."""
    csv = tmp_path / "shapes.csv"
    rows = [*SQUARE_ROWS[:2], f"2,0,0,{value},0,1,1,0,1"]
    csv.write_text("\n".join(["t,x0,y0,x1,y1,x2,y2,x3,y3", *rows]) + "\n")
    out = tmp_path / "shapes.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, text, err = run_cli(capsys, "gen-data", "--from-landmarks", str(csv),
                                  "--covariate-column", "t", "--seed", "0", "--out", str(out))
    assert (code, text) == (2, "")
    assert len(err.strip().splitlines()) == 1
    doc = err_json(err)
    assert doc["error"] == "MalformedRow" and "line 4" in doc["message"]
    assert not out.exists()


def test_validate_sensitivity_command(tmp_path, capsys):
    out = tmp_path / "sens.csv"
    code, text, _ = run_cli(
        capsys, "validate-sensitivity", "--manifold", "sphere", "--n", "6",
        "--delta", "0.01", "--trials", "2", "--seed", "5", "--out", str(out))
    assert code == 0
    doc = out_json(text)
    assert doc["all_bounded"] is True
    assert doc["min_ratio"] >= 1.0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("trial,n,tau")


@pytest.mark.parametrize("manifold,noise", [("sphere", "0.01"), ("spd", "0.05"),
                                           ("kendall", "0.01")])
def test_validate_sensitivity_csv_holds_plain_numbers(tmp_path, capsys, manifold, noise):
    out = tmp_path / "bounds.csv"
    code, _, _ = run_cli(
        capsys, "validate-sensitivity", "--manifold", manifold, "--n", "8", "--delta",
        noise, "--landmarks", "5", "--trials", "2", "--seed", "5", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        for field in row.split(","):
            float(field)


def test_validate_sensitivity_noiseless_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "validate-sensitivity", "--manifold", "sphere", "--n", "4",
        "--noise", "0", "--trials", "3", "--seed", "1", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "ConfigError"
    assert "zero residuals" in doc["message"]
    assert "tau must be positive" not in doc["message"]


def test_validate_sensitivity_noiseless_default_n_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "validate-sensitivity", "--manifold", "sphere", "--noise", "0",
        "--trials", "2", "--seed", "1", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "ConfigError"
    assert "trial 0: the union fit has zero residuals" in doc["message"]
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("n", ["4", "20"])
def test_privatize_noiseless_empirical_tau_exits_1(tmp_path, capsys, n):
    data = tmp_path / "data.json"
    assert run_cli(capsys, "gen-data", "--n", n, "--noise", "0", "--seed", "3",
                   "--out", str(data))[0] == 0
    release = tmp_path / "release.json"
    args = ("privatize", "--data", str(data), "--eps-p", "1.0", "--eps-v", "1.0",
            "--chain-length", "40", "--burn-in", "10", "--seed", "5",
            "--out", str(release))
    code, _, err = run_cli(capsys, *args)
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "ConfigError" and "floor" in doc["message"]
    assert not release.exists()
    code, out, _ = run_cli(capsys, *args, "--tau", "0.3")
    assert code == 0
    assert out_json(out)["tau_policy"] == "public" and release.exists()


# --- experiment command ---------------------------------------------------------------


EXP_FLAGS = ("--n", "10", "--delta", "0.01", "--m", "2", "--chain-length", "30",
             "--burn-in", "5", "--seed", "4")


def test_experiment_flags_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "1")
    out_dir = tmp_path / "exp"
    with pytest.warns(PrivacyWarning):
        code, text, _ = run_cli(
            capsys, "experiment", *EXP_FLAGS, "--eps", "0.5:1.0:2",
            "--out-dir", str(out_dir))
    assert code == 0
    assert out_json(text)["cells"] == 2
    grid = (out_dir / "grid.csv").read_text().strip().splitlines()
    assert len(grid) == 3
    plot = (out_dir / "plot.csv").read_text().strip().splitlines()
    assert plot[0] == "eps_p,eps_v,ln_mse,baseline,n,seed"
    assert len(plot) == 3
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n"] == 10
    assert summary["cells_per_replicate"] == 2
    assert summary["tau_policy"] == "empirical"
    # pinned, so these settings keep the same hash whatever builds the config
    assert summary["config_hash"] == (
        "a8988eb9fb2315d7f88ce0c01ec5e3ca2c48d1443322c1f940d7ab84a6d0bb5f")
    # equal mode splits each total in half
    for line in plot[1:]:
        ep, ev = map(float, line.split(",")[:2])
        assert ep == ev


def test_experiment_unequal_mode_backfills_total(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "1")
    out_dir = tmp_path / "exp"
    with pytest.warns(PrivacyWarning):
        code, _, _ = run_cli(
            capsys, "experiment", *EXP_FLAGS, "--mode", "unequal",
            "--eps", "0.1:1.0:3", "--out-dir", str(out_dir))
    assert code == 0
    plot = (out_dir / "plot.csv").read_text().strip().splitlines()
    eps = [tuple(map(float, line.split(",")[:2])) for line in plot[1:]]
    assert [p for p, _ in eps] == [0.1, 0.55, 1.0]
    assert all(abs(p + v - 2.02) <= 1e-15 for p, v in eps)


def test_experiment_null_blocks_read_as_absent(tmp_path, capsys, monkeypatch):
    """A block given as null is a block left out, whether flags merge into it
    or not: {"budgets": null} with --mode unequal --total runs the default
    unequal grid at that total, and null manifold and chain blocks take
    their defaults, as the config parser reads the same document."""
    monkeypatch.setenv("GEODP_THREADS", "1")
    doc = {"budgets": None, "manifold": None, "chain": None, "n": 10, "noise": 0.01,
           "m": 1, "tau": 0.3}
    cfg = dataio.parse_experiment_config(dict(doc))
    assert cfg.manifold == {"kind": "sphere"} and cfg.chain == {}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "exp"
    code, _, err = run_cli(capsys, "experiment", "--config", str(config), "--mode", "unequal",
                           "--total", "2.5", "--chain-length", "20", "--burn-in", "5",
                           "--landmarks", "6", "--seed", "4", "--out-dir", str(out_dir))
    assert code == 0, err
    plot = (out_dir / "plot.csv").read_text().strip().splitlines()
    eps = [tuple(map(float, line.split(",")[:2])) for line in plot[1:]]
    assert len(eps) == 10 and eps[0][0] == 0.02 and eps[-1][0] == 2.0
    assert all(abs(p + v - 2.5) <= 1e-15 for p, v in eps)
    assert json.loads((out_dir / "summary.json").read_text())["manifold"] == {"kind": "sphere"}


def test_experiment_kendall_defaults_landmarks(tmp_path, capsys, monkeypatch):
    """--manifold kendall without --landmarks uses the gen-data default; a
    config file's kendall block must still name its landmarks."""
    monkeypatch.setenv("GEODP_THREADS", "1")
    out_dir = tmp_path / "exp"
    code, _, err = run_cli(
        capsys, "experiment", "--manifold", "kendall", "--n", "10", "--delta", "0.001",
        "--m", "1", "--eps", "1.0:1.0:1", "--chain-length", "20", "--burn-in", "5",
        "--tau", "0.3", "--seed", "4", "--out-dir", str(out_dir))
    assert code == 0, err
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["manifold"] == {"kind": "kendall", "landmarks": 50}

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"manifold": {"kind": "kendall"}}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(config), *EXP_FLAGS,
                           "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err_json(err)["error"] == "ConfigError" and "landmarks" in err_json(err)["message"]


def test_experiment_flags_override_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "manifold": {"kind": "sphere"},
        "n": 30,
        "noise": 0.01,
        "mode": "equal",
        "budgets": {"lo": 0.2, "hi": 2.0, "steps": 4},
        "m": 2,
        "chain": {"chain_length": 30, "burn_in": 5},
        "tau": 0.4,
    }))
    out_dir = tmp_path / "exp"
    code, _, _ = run_cli(
        capsys, "experiment", "--config", str(config), "--n", "8",
        "--eps", "0.5:1.0:2", "--seed", "4", "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n"] == 8  # flag wins over config
    assert summary["cells_per_replicate"] == 2  # --eps wins over budgets
    assert summary["tau_policy"] == "public"  # config tau kept


def test_experiment_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "1")
    texts = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        with pytest.warns(PrivacyWarning):
            code, _, _ = run_cli(
                capsys, "experiment", *EXP_FLAGS, "--eps", "0.5:1.0:2",
                "--replicates", "2", "--out-dir", str(out_dir))
        assert code == 0
        texts.append((out_dir / "grid.csv").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].decode().count("\n") == 5  # header + 2 replicates x 2 cells


# --- failure modes -------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen-data", "--out", str(tmp_path / "x.json"))
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "UsageError" and doc["exit_code"] == 1

    code, _, err = run_cli(capsys, "experiment", "--eps", "nonsense", "--seed",
                           "1", "--out-dir", str(tmp_path))
    assert code == 1
    assert err_json(err)["error"] == "ConfigError"

    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1


SPD_DATA = object()
PRIV_FLAGS = ("--eps-p", "0.5", "--eps-v", "0.5", "--tau", "0.3", "--chain-length", "30",
              "--burn-in", "5", "--seed", "1")


@pytest.mark.parametrize("argv", [
    ("gen-data", "--manifold", "kendall", "--landmarks", "3", "--seed", "1", "--out"),
    ("validate-sensitivity", "--manifold", "kendall", "--landmarks", "3", "--seed", "1",
     "--out"),
    ("experiment", *EXP_FLAGS, "--manifold", "kendall", "--landmarks", "3", "--out-dir"),
    ("validate-sensitivity", "--n", "2", "--seed", "1", "--out"),
    ("experiment", *EXP_FLAGS, "--chain-length", "0", "--out-dir"),
    ("experiment", *EXP_FLAGS, "--chain-length", "30", "--burn-in", "50", "--out-dir"),
    ("experiment", *EXP_FLAGS, "--eta-factor", "0", "--out-dir"),
    # a dict stands for a config file holding it
    ("experiment", "--config", {"chain": [1]}, *EXP_FLAGS, "--out-dir"),
    ("experiment", "--config", {"manifold": []}, "--landmarks", "5", "--seed", "1",
     "--out-dir"),
    ("experiment", "--config", {"budgets": []}, "--mode", "unequal", "--total", "2.0",
     "--seed", "1", "--out-dir"),
    ("gen-data", "--delta", "nan", "--seed", "1", "--out"),
    ("gen-data", "--delta", "inf", "--seed", "1", "--out"),
    ("gen-data", "--delta", "-1", "--seed", "1", "--out"),
    ("experiment", *EXP_FLAGS, "--noise", "nan", "--out-dir"),
    # JSON reads 1e999 as inf
    ("experiment", "--config", {"noise": 1e999}, "--n", "10", "--seed", "1", "--out-dir"),
    ("validate-sensitivity", "--noise", "-1", "--seed", "1", "--out"),
    ("validate-sensitivity", "--noise", "nan", "--seed", "1", "--out"),
    ("validate-sensitivity", "--trials", "0", "--seed", "1", "--out"),
    # SPD_DATA stands for an SPD dataset file; SPD has no injectivity radius
    # to cap an infinite proposal radius
    ("privatize", "--data", SPD_DATA, *PRIV_FLAGS, "--eta-factor", "inf", "--out"),
    ("experiment", *EXP_FLAGS, "--eps", "0.5:inf:2", "--tau", "0.3", "--out-dir"),
    ("experiment", "--config", {"budgets": {"lo": 0.5, "hi": 1e999, "steps": 2}},
     *EXP_FLAGS, "--tau", "0.3", "--out-dir"),
], ids=["gen-data-landmarks", "validate-landmarks", "experiment-landmarks", "validate-n",
        "experiment-chain-length", "experiment-burn-in", "experiment-eta-factor",
        "experiment-chain-block", "experiment-manifold-block", "experiment-budgets-block",
        "gen-data-noise-nan", "gen-data-noise-inf", "gen-data-noise-negative",
        "experiment-noise-nan", "experiment-noise-inf-config", "validate-noise-negative",
        "validate-noise-nan", "validate-trials", "privatize-eta-factor-inf",
        "experiment-budget-inf", "experiment-budget-inf-config"])
def test_bad_sizes_exit_1(tmp_path, capsys, argv):
    config = tmp_path / "config.json"
    data = tmp_path / "data.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
        if arg is SPD_DATA:
            run_cli(capsys, "gen-data", "--manifold", "spd", "--n", "12", "--delta", "0.1",
                    "--seed", "3", "--out", str(data))
    argv = [str(config) if isinstance(a, dict) else str(data) if a is SPD_DATA else a
            for a in argv]
    code, _, err = run_cli(capsys, *argv, str(tmp_path / "out"))
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "ConfigError"
    if "--noise" in argv:
        assert "noise" in doc["message"]
    assert not (tmp_path / "out").exists()


def test_experiment_infinite_tau_exits_1(tmp_path, capsys):
    """JSON reads 1e999 as inf; the tau rule refuses it before --out-dir exists."""
    config = tmp_path / "config.json"
    config.write_text('{"tau": 1e999}')
    code, _, err = run_cli(capsys, "experiment", "--config", str(config), *EXP_FLAGS,
                           "--out-dir", str(tmp_path / "out"))
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "ConfigError" and "tau" in doc["message"]
    assert not (tmp_path / "out").exists()


def test_bad_thread_count_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEODP_THREADS", "two")
    code, _, err = run_cli(capsys, "experiment", *EXP_FLAGS, "--eps", "0.5:1.0:2",
                           "--tau", "0.4", "--out-dir", str(tmp_path / "exp"))
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "ConfigError" and "GEODP_THREADS" in doc["message"]


def test_privatize_collapsed_eta_exits_1(tmp_path, capsys):
    """An eta_factor that underflows eta_factor * sigma to 0 is a setting error."""
    data = tmp_path / "data.json"
    run_cli(capsys, *gen_args(data))
    release = tmp_path / "r.json"
    code, _, err = run_cli(
        capsys, "privatize", "--data", str(data), "--eps-p", "1.0", "--eps-v", "1.0",
        "--tau", "0.3", "--eta-factor", "5e-324", "--chain-length", "20", "--burn-in",
        "5", "--seed", "1", "--out", str(release))
    assert code == 1
    doc = err_json(err)
    assert doc["error"] == "ConfigError" and "eta_factor" in doc["message"]
    assert not release.exists()


@pytest.mark.parametrize("argv", [
    ("privatize", "--data", "data.json", *PRIV_FLAGS, "--out"),
    ("experiment", *EXP_FLAGS, "--out-dir"),
], ids=["privatize", "experiment"])
def test_retired_proposal_radius_flag_exits_1(tmp_path, capsys, argv):
    """eta_factor is the only proposal-scale setting; the retired flag is a
    usage error before any file is read or written."""
    out = tmp_path / "out"
    code, text, err = run_cli(capsys, *argv, str(out), "--proposal-radius", "0.05")
    assert (code, text) == (1, "")
    assert len(err.strip().splitlines()) == 1
    doc = err_json(err)
    assert doc["error"] == "UsageError" and doc["exit_code"] == 1
    assert "--proposal-radius" in doc["message"]
    assert not out.exists()


def test_nonpositive_budget_exits_1(tmp_path, capsys):
    data = tmp_path / "data.json"
    run_cli(capsys, *gen_args(data))
    code, _, err = run_cli(
        capsys, "privatize", "--data", str(data), "--eps-p", "0.0", "--eps-v",
        "1.0", "--seed", "1", "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert err_json(err)["error"] == "NonpositiveBudget"


def test_nonpositive_budget_exits_before_fitting(tmp_path, capsys, monkeypatch):
    """The budgets are checked before the data is read: no fit runs and no
    PrivacyWarning about the empirical tau is printed."""
    data = tmp_path / "data.json"
    run_cli(capsys, *gen_args(data))

    def no_fit(*args, **kwargs):
        raise AssertionError("privatize fitted before checking its budgets")

    monkeypatch.setattr("geodp.cli.fit", no_fit)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            capsys, "privatize", "--data", str(data), "--eps-p", "0", "--eps-v", "1.0",
            "--seed", "1", "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert err_json(err)["error"] == "NonpositiveBudget"
    assert not any(issubclass(w.category, PrivacyWarning) for w in caught)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag, value", [("--tol", "inf"), ("--tol", "nan"),
                                         ("--max-iter", "-3")])
def test_fit_bad_stopping_rule_exits_1(tmp_path, capsys, flag, value):
    """A stopping rule that cannot end the fit as asked is a setting error,
    not a fit reported as converged or stalled."""
    data = tmp_path / "data.json"
    run_cli(capsys, *gen_args(data))
    code, out, err = run_cli(capsys, "fit", "--data", str(data), flag, value)
    assert code == 1 and out == ""
    doc = err_json(err)
    assert doc["error"] == "ConfigError" and flag[2:].replace("-", "_") in doc["message"]


def test_data_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path / "missing.json"))
    assert code == 2
    assert err_json(err)["error"] == "FileNotFoundError"

    bad = tmp_path / "bad.json"
    bad.write_text("{proudly not json")
    code, _, err = run_cli(capsys, "fit", "--data", str(bad))
    assert code == 2
    assert err_json(err)["error"] == "DataFormatError"

    # valid JSON that is not an object: one JSON error line, not a traceback
    for text in ("[1, 2]", '"x"'):
        bad.write_text(text)
        for argv in (["fit"], ["privatize", "--eps-p", "1", "--eps-v", "1", "--seed", "1",
                               "--out", str(tmp_path / "r.json")]):
            code, _, err = run_cli(capsys, *argv, "--data", str(bad))
            assert code == 2
            assert len(err.strip().splitlines()) == 1
            assert err_json(err)["error"] == "DataFormatError"

    # a bad manifold block is a data error in a data file
    for spec in ({"kind": "torus"}, {"kind": "kendall", "landmarks": 3}):
        bad.write_text(json.dumps({
            "format": "geodp-dataset", "version": 1, "manifold": spec,
            "n": 2, "x": [0.0, 1.0], "y": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}))
        code, _, err = run_cli(capsys, "fit", "--data", str(bad))
        assert code == 2
        assert err_json(err)["error"] == "DataFormatError"

    # an SPD response past MAX_CONDITION fails membership
    bad.write_text(json.dumps({
        "format": "geodp-dataset", "version": 1, "manifold": {"kind": "spd"},
        "n": 2, "x": [0.0, 1.0], "y": [[1.0, 0.0, 1.0], [1.0, 0.0, 0.5 / MAX_CONDITION]]}))
    code, _, err = run_cli(capsys, "fit", "--data", str(bad))
    assert code == 2
    doc = err_json(err)
    assert doc["error"] == "DataFormatError" and "membership" in doc["message"]

    csv = tmp_path / "bad.csv"
    csv.write_text("t,x0,y0,x1,y1,x2,y2,x3,y3\n0,0,0,1,0,1,1,0,1\n1,2,3\n")
    code, _, err = run_cli(capsys, "gen-data", "--from-landmarks", str(csv),
                           "--covariate-column", "t", "--seed", "0",
                           "--out", str(tmp_path / "o.json"))
    assert code == 2
    doc = err_json(err)
    assert doc["error"] == "MalformedRow" and "line 3" in doc["message"]


# A directory where a file belongs, or a file that is not text.
FILE_ERRORS = {
    "privatize-data-dir": (["privatize", "--eps-p", "1", "--eps-v", "1", "--seed", "1",
                            "--data", "{dir}", "--out", "{out}"], "IsADirectoryError", 2),
    "experiment-config-dir": (["experiment", "--config", "{dir}", "--seed", "1",
                               "--out-dir", "{dir}"], "IsADirectoryError", 2),
    "landmarks-dir": (["gen-data", "--from-landmarks", "{dir}", "--seed", "1",
                       "--out", "{out}"], "IsADirectoryError", 2),
    "gen-data-out-dir": (list(gen_args("{dir}")), "IsADirectoryError", 2),
    "fit-data-binary": (["fit", "--data", "{bin}"], "DataFormatError", 2),
    "landmarks-binary": (["gen-data", "--from-landmarks", "{bin}", "--seed", "1",
                          "--out", "{out}"], "DataFormatError", 2),
    "experiment-config-binary": (["experiment", "--config", "{bin}", "--seed", "1",
                                  "--out-dir", "{dir}"], "ConfigError", 1),
}


@pytest.mark.parametrize("argv, error, code", list(FILE_ERRORS.values()), ids=list(FILE_ERRORS))
def test_file_errors_are_one_json_line(tmp_path, capsys, argv, error, code):
    """An unreadable path ends in the one-line JSON error, not a traceback:
    an OSError exits 2 under its own class name, and an undecodable file is
    a data error, or a config error for a config file."""
    binary = tmp_path / "binary"
    binary.write_bytes(bytes(range(256)))
    paths = {"dir": str(tmp_path), "bin": str(binary), "out": str(tmp_path / "out.json")}
    got, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, out) == (code, "")
    assert len(err.strip().splitlines()) == 1
    doc = err_json(err)
    assert doc["error"] == error and doc["exit_code"] == code


def test_numeric_errors_exit_3(tmp_path, capsys):
    # antipodal responses put the initial iterate on the cut locus
    data = tmp_path / "antipodal.json"
    data.write_text(json.dumps({
        "format": "geodp-dataset", "version": 1, "manifold": {"kind": "sphere"},
        "n": 2, "x": [0.0, 1.0], "y": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    }))
    code, _, err = run_cli(capsys, "fit", "--data", str(data))
    assert code == 3
    assert err_json(err)["error"] == "CutLocusError"


# The README's rule: 1 for usage or configuration, 2 for data, 3 for numeric failures.
EXIT_CODES = {
    ConfigError: 1, NonpositiveBudget: 1,
    DataFormatError: 2, MalformedRow: 2, DegenerateShape: 2, DegenerateInput: 2,
    DegenerateCovariates: 2, ManifoldMismatch: 2,
    GeodpError: 3, CutLocusError: 3,
}


def all_error_classes():
    classes = [GeodpError]
    for cls in classes:
        classes.extend(sub for sub in cls.__subclasses__() if sub not in classes)
    return set(classes)


def test_exit_code_rule_names_every_error_class():
    assert set(EXIT_CODES) == all_error_classes()


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_error_class_sets_exit_code(tmp_path, capsys, monkeypatch, cls):
    def read_dataset(path):
        raise cls("raised on purpose")

    monkeypatch.setattr(dataio, "read_dataset", read_dataset)
    code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path / "data.json"))
    assert code == cls.exit_code == EXIT_CODES[cls]
    assert err_json(err) == {"error": cls.__name__, "message": "raised on purpose",
                             "exit_code": EXIT_CODES[cls]}


# --- console entry point ----------------------------------------------------------------


def test_module_entry_point_runs_end_to_end(tmp_path):
    # the subprocess imports the same geodp as this test, installed or not
    src = str(Path(geodp.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = tmp_path / "data.json"
    gen = subprocess.run(
        [sys.executable, "-m", "geodp.cli", *gen_args(data)],
        capture_output=True, text=True, env=env)
    assert gen.returncode == 0
    json.loads(gen.stdout)

    release = tmp_path / "release.json"
    priv = subprocess.run(
        [sys.executable, "-m", "geodp.cli", "privatize", "--data", str(data),
         "--eps-p", "1.0", "--eps-v", "1.0", "--chain-length", "40",
         "--burn-in", "10", "--seed", "2", "--out", str(release)],
        capture_output=True, text=True, env=env)
    assert priv.returncode == 0
    assert "empirical residual bound" in priv.stderr  # privacy warning is visible
    assert json.loads(priv.stdout)["tau_policy"] == "empirical"


def test_main_leaves_warning_filters_unchanged(capsys):
    """main shows privacy warnings while a command runs, but leaves the
    process-wide warning filters of an in-process caller as it found them."""
    before = list(warnings.filters)
    assert main(["--help"]) == 0
    assert warnings.filters == before
