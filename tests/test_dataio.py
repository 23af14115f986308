"""File formats: datasets, models, releases, landmark CSVs, configs, tables."""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from geodp.cli import main
from geodp.dataio import (
    config_hash,
    decode_dataset,
    decode_model,
    encode_dataset,
    encode_model,
    encode_release,
    grid_csv_text,
    ingest_landmarks,
    load_experiment_doc,
    parse_experiment_config,
    plot_csv_text,
    read_dataset,
    sensitivity_csv_text,
    write_dataset,
    write_model,
)
from geodp.errors import (
    ConfigError,
    DataFormatError,
    DegenerateShape,
    MalformedRow,
)
from geodp.experiments import (
    ExperimentConfig,
    GridCell,
    GridResult,
    gen_kendall,
    gen_spd,
    gen_sphere,
)
from geodp.manifolds import SPD
from geodp.privacy import SensitivitySpec, compose_budget, sensitivity_p, sensitivity_v
from geodp.regression import fit
from geodp.sampling import CHAIN_SETTINGS, ChainConfig, release_pair

GENS = {
    "sphere": lambda: gen_sphere(12, 0.01, 61),
    "spd": lambda: gen_spd(12, 0.05, 62),
    "kendall": lambda: gen_kendall(12, 0.01, 63, landmarks=7),
}


# --- dataset files --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GENS))
def test_dataset_roundtrip_is_exact(name, tmp_path):
    data, _ = GENS[name]()
    path = tmp_path / "data.json"
    write_dataset(path, data)
    back = read_dataset(path)
    assert back.manifold == data.manifold
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)
    # a second trip through the codec is byte-stable
    first = path.read_bytes()
    write_dataset(path, back)
    assert path.read_bytes() == first


def test_spd_rows_store_upper_triangle():
    data, _ = GENS["spd"]()
    doc = encode_dataset(data)
    assert all(len(row) == 3 for row in doc["y"])
    for flat, row in zip(data.y, doc["y"]):
        assert row == [flat[0], flat[1], flat[3]]
    back = decode_dataset(doc)
    assert np.array_equal(back.y[:, 1], back.y[:, 2])


def test_kendall_rows_interleave_coordinates():
    data, _ = GENS["kendall"]()
    doc = encode_dataset(data)
    assert all(len(row) == 14 for row in doc["y"])


def test_dataset_decode_errors():
    data, _ = GENS["sphere"]()
    doc = encode_dataset(data)
    with pytest.raises(DataFormatError, match="format"):
        decode_dataset({**doc, "format": "something-else"})
    with pytest.raises(DataFormatError, match="version"):
        decode_dataset({**doc, "version": 99})
    with pytest.raises(DataFormatError, match="declared n"):
        decode_dataset({**doc, "n": 5})
    with pytest.raises(DataFormatError):
        decode_dataset({**doc, "y": [row[:2] for row in doc["y"]]})
    bad_spd = {**encode_dataset(GENS["spd"]()[0])}
    with pytest.raises(DataFormatError, match="3 entries"):
        decode_dataset({**bad_spd, "y": [r + [1.0] for r in bad_spd["y"]]})
    for doc in ([1, 2], "x", 3, None):
        with pytest.raises(DataFormatError, match="JSON object"):
            decode_dataset(doc)


def test_read_dataset_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError, match="JSON"):
        read_dataset(path)


# --- model files ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GENS))
def test_model_roundtrip(name, tmp_path):
    data, model = GENS[name]()
    path = tmp_path / "model.json"
    report = fit(data)
    write_model(path, report.model, report)
    doc = json.loads(path.read_text())
    assert doc["fit"]["mse"] == 2.0 * doc["fit"]["energy"]
    assert doc["fit"]["converged"] == report.converged
    assert doc["fit"]["stop"] == report.stop == "converged"
    back = decode_model(doc)
    assert back.manifold == data.manifold
    assert np.allclose(back.p, report.model.p, atol=1e-14)
    assert np.allclose(back.v, report.model.v, atol=1e-14)


def test_model_decode_rejects_dataset_doc():
    data, _ = GENS["sphere"]()
    with pytest.raises(DataFormatError, match="model"):
        decode_model(encode_dataset(data))
    with pytest.raises(DataFormatError, match="JSON object"):
        decode_model([1])


def test_model_decode_rejects_unknown_version():
    _, model = GENS["sphere"]()
    doc = encode_model(model)
    with pytest.raises(DataFormatError, match="version"):
        decode_model({**doc, "version": 99})


# --- release files ------------------------------------------------------------------


def make_release(seed=71):
    data, _ = gen_sphere(15, 0.01, seed)
    report = fit(data)
    spec = SensitivitySpec(n=data.n, tau=report.tau_empirical, kappa_l=1.0)
    cfg = ChainConfig(seed=seed, chain_length=50, burn_in=10)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return release_pair(data, report, spec, compose_budget(0.5, 0.5), cfg), spec


def test_release_encoding_carries_provenance():
    release, spec = make_release()
    doc = encode_release(release, "empirical")
    assert doc["format"] == "geodp-release"
    assert doc["budget"]["total"] == release.budget.total
    assert doc["sensitivity"]["delta_p"] == sensitivity_p(spec)
    assert doc["sensitivity"]["delta_v"] == sensitivity_v(spec)
    assert doc["tau_policy"] == "empirical"
    assert doc["seed"] == 71
    # the data enter the release only through the chains: no fit statistics
    assert "mse" not in doc and "fit_mse" not in doc
    assert doc["diagnostics"]["p"]["proposals"] == 50
    assert isinstance(doc["diagnostics"]["v"]["acceptance_rate"], float)
    assert len(doc["config_hash"]) == 64
    # only the settings a chain reads or records, and each chain's outcome
    assert set(doc["chain"]) == set(CHAIN_SETTINGS) == {"chain_length", "burn_in", "eta_factor"}
    for stage in ("p", "v"):
        assert set(doc["diagnostics"][stage]) == {
            "acceptance_rate", "accepted", "proposals", "kernel", "eta", "stuck", "healthy"}


def test_release_config_hash_tracks_inputs():
    r1, _ = make_release(seed=71)
    r1b, _ = make_release(seed=71)
    r2, _ = make_release(seed=72)
    h = lambda r: encode_release(r, "public")["config_hash"]
    assert h(r1) == h(r1b)
    assert h(r1) != h(r2)


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": [1, 2]}) == config_hash({"b": [1, 2], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# --- landmark ingestion -----------------------------------------------------------


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def write_csv(path, rows, header="t,x0,y0,x1,y1,x2,y2,x3,y3"):
    path.write_text("\n".join([header] + rows) + "\n")


def shape_row(t, pts):
    return ",".join([str(t)] + [f"{c}" for xy in pts for c in xy])


def translate(pts, dx, dy):
    return [(x + dx, y + dy) for x, y in pts]


def scale(pts, s):
    return [(s * x, s * y) for x, y in pts]


def test_ingest_centers_and_normalizes(tmp_path):
    path = tmp_path / "shapes.csv"
    write_csv(path, [shape_row(0.0, SQUARE), shape_row(2.0, scale(SQUARE, 2.0))])
    data = ingest_landmarks(path, "t")
    assert data.manifold.landmarks == 4
    assert data.x.tolist() == [0.0, 1.0]
    for row in data.y:
        z = row.reshape(4, 2)
        assert np.abs(z.sum(axis=0)).max() <= 1e-12
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
    # the two rows are the same shape
    assert np.allclose(data.y[0], data.y[1], atol=1e-15)


def test_ingest_is_translation_and_scale_invariant(tmp_path):
    base = tmp_path / "base.csv"
    moved = tmp_path / "moved.csv"
    write_csv(base, [shape_row(0, SQUARE), shape_row(1, translate(SQUARE, 0.3, -2.0))])
    write_csv(moved, [shape_row(0, translate(SQUARE, 5.0, 5.0)),
                      shape_row(1, scale(translate(SQUARE, 0.3, -2.0), 3.0))])
    d0 = ingest_landmarks(base, "t")
    d1 = ingest_landmarks(moved, "t")
    assert np.allclose(d0.y, d1.y, atol=1e-14)


def test_ingest_covariate_by_index_and_position(tmp_path):
    # covariate sits in the third column, between landmark coordinates
    path = tmp_path / "mid.csv"
    rows = []
    for t, pts in ((4.0, SQUARE), (8.0, translate(SQUARE, 1.0, 0.0))):
        flat = [c for xy in pts for c in xy]
        rows.append(",".join(map(str, flat[:2] + [t] + flat[2:])))
    path.write_text("x0,y0,age,x1,y1,x2,y2,x3,y3\n" + "\n".join(rows) + "\n")
    by_name = ingest_landmarks(path, "age")
    by_index = ingest_landmarks(path, 2)
    assert np.array_equal(by_name.y, by_index.y)
    assert by_name.x.tolist() == [0.0, 1.0]
    # same shapes as the covariate-first layout
    plain = path.with_name("plain.csv")
    write_csv(plain, [shape_row(4.0, SQUARE), shape_row(8.0, translate(SQUARE, 1, 0))])
    assert np.allclose(ingest_landmarks(plain, "t").y, by_name.y, atol=1e-15)


def test_ingest_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(
        "t,x0,y0,x1,y1,x2,y2,x3,y3\n"
        + shape_row(0.0, SQUARE) + "\n\n"
        + shape_row(1.0, scale(SQUARE, 2.0)) + "\n   \n"
    )
    assert ingest_landmarks(path, "t").n == 2


def test_ingest_malformed_rows_report_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, [shape_row(0.0, SQUARE), "1.0,2.0,3.0"])
    with pytest.raises(MalformedRow, match="line 3"):
        ingest_landmarks(path, "t")
    write_csv(path, [shape_row(0.0, SQUARE),
                     shape_row(1.0, SQUARE).replace("1.0", "oops", 1)])
    with pytest.raises(MalformedRow, match="line 3"):
        ingest_landmarks(path, "t")


def test_ingest_degenerate_shape(tmp_path):
    path = tmp_path / "flat.csv"
    write_csv(path, [shape_row(0.0, SQUARE),
                     shape_row(1.0, [(2.0, 2.0)] * 4)])
    with pytest.raises(DegenerateShape, match="line 3"):
        ingest_landmarks(path, "t")


def test_ingest_header_errors(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        ingest_landmarks(path, "t")
    write_csv(path, [shape_row(0.0, SQUARE)], header="t,x0,y0,x1,y1,x2,y2,x3")
    with pytest.raises(DataFormatError, match="pairs"):
        ingest_landmarks(path, "t")
    path.write_text("t,x0,y0,x1,y1,x2,y2\n0,0,0,1,0,1,1\n")
    with pytest.raises(DataFormatError, match="4 landmarks"):
        ingest_landmarks(path, "t")
    write_csv(path, [shape_row(0.0, SQUARE)])
    with pytest.raises(DataFormatError, match="not in header"):
        ingest_landmarks(path, "age")
    with pytest.raises(DataFormatError, match="out of range"):
        ingest_landmarks(path, 9)
    with pytest.raises(DataFormatError, match="two data rows"):
        ingest_landmarks(path, "t")


# --- experiment configs ---------------------------------------------------------------


def minimal_config(**over):
    doc = {
        "manifold": {"kind": "sphere"},
        "n": 50,
        "noise": 0.001,
        "mode": "equal",
        "budgets": {"lo": 0.2, "hi": 2.0, "steps": 10},
    }
    doc.update(over)
    return doc


def test_parse_config_defaults():
    cfg = parse_experiment_config(minimal_config())
    assert cfg.m == 10 and cfg.factor == 1 and cfg.replicates == 1
    assert cfg.tau is None and cfg.chain == {}
    grid = cfg.grid()
    assert grid.mode == "equal" and grid.m == 10
    budgets = grid.budget_list
    assert len(budgets) == 10
    assert budgets[0] == (0.1, 0.1) and budgets[-1] == (1.0, 1.0)


def test_parse_config_unequal_budgets():
    cfg = parse_experiment_config(minimal_config(
        mode="unequal",
        budgets={"total": 2.02, "lo": 0.02, "hi": 2.0, "steps": 10},
    ))
    budgets = cfg.grid().budget_list
    assert budgets[0][0] == 0.02 and budgets[-1][0] == 2.0
    assert all(abs(p + v - 2.02) <= 1e-15 for p, v in budgets)


def bad_configs():
    return [
        minimal_config(extra_key=1),
        minimal_config(mode="triangular"),
        minimal_config(budgets={"lo": 0.2, "hi": 2.0}),
        minimal_config(budgets={"lo": 0.2, "hi": 2.0, "steps": 0}),
        minimal_config(budgets={"lo": -0.1, "hi": 2.0, "steps": 5}),
        minimal_config(mode="unequal",
                       budgets={"total": 2.0, "lo": 0.02, "hi": 2.0, "steps": 5}),
        minimal_config(n=1),
        minimal_config(n=2.5),
        minimal_config(noise=-0.1),
        minimal_config(tau=0.0),
        minimal_config(factor=3),
        minimal_config(m=0),
        minimal_config(replicates=0),
        minimal_config(chain={"bogus": 1}),
        minimal_config(manifold={"kind": "torus"}),
        minimal_config(manifold={"kind": "kendall"}),
        minimal_config(manifold={"kind": "kendall", "landmarks": 3}),
        minimal_config(manifold={"kind": "kendall", "landmarks": 5.9}),
        minimal_config(manifold={"kind": "kendall", "landmarks": "7"}),
        minimal_config(manifold={"kind": "kendall", "landmarks": 4.0}),
        minimal_config(manifold={"kind": "kendall", "landmarks": True}),
        minimal_config(n=True),
        minimal_config(noise=True),
        minimal_config(m=True),
        minimal_config(replicates=True),
        minimal_config(tau=True),
        minimal_config(factor=True),
        minimal_config(budgets={"lo": True, "hi": 2.0, "steps": 5}),
        minimal_config(budgets={"lo": 0.2, "hi": 2.0, "steps": True}),
        minimal_config(mode="unequal",
                       budgets={"total": True, "lo": 0.02, "hi": 0.5, "steps": 5}),
        minimal_config(chain={"chain_length": True}),
        minimal_config(chain={"burn_in": False}),
        minimal_config(chain={"eta_factor": True}),
        minimal_config(noise=float("inf")),
        minimal_config(noise=float("nan")),
        minimal_config(budgets={"lo": 0.2, "hi": float("inf"), "steps": 5}),
        minimal_config(budgets={"lo": float("nan"), "hi": 2.0, "steps": 5}),
        minimal_config(mode="unequal",
                       budgets={"total": float("inf"), "lo": 0.02, "hi": 0.5, "steps": 5}),
        minimal_config(chain={"eta_factor": float("inf")}),
        # a retired setting, refused as an unknown chain key
        minimal_config(chain={"proposal_radius": 0.05}),
    ]


def test_parse_config_rejections(tmp_path, capsys):
    """The parser and `geodp experiment --config` refuse the same documents,
    the CLI before --out-dir exists."""
    path, out_dir = tmp_path / "config.json", tmp_path / "out"
    for doc in bad_configs():
        with pytest.raises(ConfigError):
            parse_experiment_config(doc)
        path.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(path), "--seed", "1",
                     "--out-dir", str(out_dir)]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "ConfigError"
    assert not out_dir.exists()


def test_experiment_config_checks_itself():
    """Built directly, the config refuses every bad value that the parser does."""
    names = {f.name for f in fields(ExperimentConfig)}
    checked = 0
    for doc in bad_configs():
        if set(doc) <= names:
            checked += 1
            with pytest.raises(ConfigError):
                ExperimentConfig(**doc)
    assert checked == len(bad_configs()) - 1  # all but the unknown key


def test_parse_config_tau_and_factor_rules():
    """A float factor and an infinite tau (JSON reads 1e999 as inf) are refused."""
    for doc in (minimal_config(factor=1.0), minimal_config(factor=2.0),
                minimal_config(tau=json.loads("1e999"))):
        with pytest.raises(ConfigError):
            parse_experiment_config(doc)
    assert parse_experiment_config(minimal_config(tau=0.3, factor=2)).factor == 2


# Settings that keep a run of `geodp experiment` small.
SMALL = {"m": 1, "chain": {"chain_length": 20, "burn_in": 5}, "tau": 0.3}


@pytest.mark.parametrize("doc", [
    {"manifold": {"kind": "sphere"}, "mode": "equal",
     "budgets": {"lo": 0.5, "hi": 1.0, "steps": 2}, **SMALL},
    {k: v for k, v in minimal_config(**SMALL).items() if k != "budgets"},
    minimal_config(mode="unequal", budgets={"lo": 0.02, "hi": 1.0, "steps": 5}, **SMALL),
], ids=["no-n-noise", "no-budgets", "unequal-no-total"])
def test_cli_and_parser_fill_the_same_defaults(doc, tmp_path, capsys, monkeypatch):
    """A config that leaves settings out gets one verdict and one
    ExperimentConfig, whether `geodp experiment --config` or
    parse_experiment_config reads it: the summary's config hash covers
    every setting."""
    monkeypatch.setenv("GEODP_THREADS", "1")
    cfg = parse_experiment_config(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--seed", "4",
                 "--out-dir", str(out_dir)]) == 0, capsys.readouterr().err
    summary = json.loads((out_dir / "summary.json").read_text())
    chain = ChainConfig(seed=0, **cfg.chain).settings()
    assert summary["config_hash"] == config_hash({**asdict(cfg), "chain": chain, "seed": 4})
    assert summary["cells_per_replicate"] == len(cfg.grid().budget_list)
    assert summary["n"] == cfg.n == 50 and cfg.noise == 0.001


def test_load_config_files(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(minimal_config()))
    assert load_experiment_doc(path)["n"] == 50
    assert parse_experiment_config(load_experiment_doc(path)).n == 50
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_experiment_doc(path)
    path.write_text("{oops")
    with pytest.raises(ConfigError, match="JSON"):
        load_experiment_doc(path)


# --- result tables -----------------------------------------------------------------------


def fake_result():
    cell = GridCell(seed=3, eps_p=0.1 + 0.2, eps_v=0.3, mean_mse=0.0123,
                    ln_mse=float(np.log(0.0123)), baseline_ln_mse=-4.5,
                    excluded=1, acceptance_p=0.41, acceptance_v=0.52)
    return GridResult(
        manifold={"kind": "sphere"}, n=50, mode="equal", m=10, tau=0.1,
        tau_policy="public", factor=1, chain_length=100, burn_in=10,
        baseline_ln_mse=-4.5, fit_converged=True, cells=[cell],
    )


def test_grid_csv_roundtrips_floats():
    text = grid_csv_text([fake_result()])
    lines = text.strip().split("\n")
    assert lines[0].startswith("manifold,n,mode,seed,eps_p,eps_v")
    fields = lines[1].split(",")
    assert fields[0] == "sphere"
    assert float(fields[4]) == 0.1 + 0.2  # 17-significant-digit round trip
    assert float(fields[7]) == float(np.log(0.0123))


def test_plot_csv_columns():
    text = plot_csv_text([fake_result()])
    lines = text.strip().split("\n")
    assert lines[0] == "eps_p,eps_v,ln_mse,baseline,n,seed"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.1 + 0.2
    assert float(fields[3]) == -4.5
    assert fields[4] == "50" and fields[5] == "3"


def test_sensitivity_csv_shape():
    from geodp.experiments import SensitivityReport, SensitivityRow

    row = SensitivityRow(0, 8, 0.1, 0.0, 0.025, 0.01, 2.5, 0.025, 0.02, 1.25)
    text = sensitivity_csv_text(SensitivityReport([row]))
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:4] == ["trial", "n", "tau", "tau_m"]
    assert float(lines[1].split(",")[6]) == 2.5
