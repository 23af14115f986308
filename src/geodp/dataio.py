"""File formats: dataset JSON, release JSON, experiment configs, result CSVs,
and raw landmark ingestion.

Floats are serialized with Python's shortest round-trip representation, so a
write/read cycle reproduces coordinates bit for bit and rewriting an unchanged
object reproduces the file byte for byte.  SPD rows are stored as the three
free entries (a, b, c) of the symmetric matrix; Kendall rows store landmarks
as interleaved (re, im) pairs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, DegenerateShape, MalformedRow
from .experiments import ExperimentConfig, GridCell, SensitivityRow
from .geometry import Manifold
from .manifolds import KendallPreshape, SPD, manifold_from_spec
from .privacy import sensitivity_p, sensitivity_v
from .regression import Dataset, FitReport, GeodesicModel, scale_covariates
from .sampling import PrivateRelease

_DATASET_FORMAT = "geodp-dataset"
_MODEL_FORMAT = "geodp-model"
_RELEASE_FORMAT = "geodp-release"
_VERSION = 1


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def config_hash(obj) -> str:
    """Stable hash of a JSON-serializable object."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# --- coordinate row codecs ---------------------------------------------------------


def _row_to_file(man: Manifold, row: np.ndarray) -> list[float]:
    if isinstance(man, SPD):
        return [float(row[0]), float(row[1]), float(row[3])]
    return [float(c) for c in row]


def _row_from_file(man: Manifold, vals) -> np.ndarray:
    vals = [float(v) for v in vals]
    if isinstance(man, SPD):
        if len(vals) != 3:
            raise DataFormatError(f"spd rows need 3 entries (a, b, c), got {len(vals)}")
        a, b, c = vals
        return np.array([a, b, b, c])
    if len(vals) != man.ambient_dim:
        raise DataFormatError(
            f"{man.kind} rows need {man.ambient_dim} entries, got {len(vals)}"
        )
    return np.array(vals)


# --- dataset files -----------------------------------------------------------------


def encode_dataset(data: Dataset) -> dict:
    return {
        "format": _DATASET_FORMAT,
        "version": _VERSION,
        "manifold": data.manifold.spec(),
        "n": data.n,
        "x": [float(v) for v in data.x],
        "y": [_row_to_file(data.manifold, row) for row in data.y],
    }


def _check_header(doc, fmt: str, what: str) -> None:
    """Refuse a document that is not a JSON object of format fmt and version
    _VERSION, before any of it is decoded."""
    if not isinstance(doc, dict):
        raise DataFormatError(f"a {what} file must hold a JSON object, got {type(doc).__name__}")
    if doc.get("format") != fmt:
        raise DataFormatError(f"not a {what} file: format={doc.get('format')!r}")
    if doc.get("version") != _VERSION:
        raise DataFormatError(f"unsupported {what} version {doc.get('version')!r}")


def decode_dataset(doc: dict) -> Dataset:
    _check_header(doc, _DATASET_FORMAT, "dataset")
    try:
        man = manifold_from_spec(doc["manifold"])
        x = np.array([float(v) for v in doc["x"]])
        y = np.stack([_row_from_file(man, row) for row in doc["y"]])
        if doc.get("n") != len(x):
            raise DataFormatError("declared n does not match the covariate count")
        return Dataset(x, y, man)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed dataset file: {exc}") from exc


def write_dataset(path, data: Dataset) -> None:
    Path(path).write_text(_dumps(encode_dataset(data)))


def read_dataset(path) -> Dataset:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"dataset file is not valid JSON: {exc}") from exc
    return decode_dataset(doc)


# --- model and release files ----------------------------------------------------------


def encode_model(model: GeodesicModel, report: FitReport | None = None) -> dict:
    doc = {
        "format": _MODEL_FORMAT,
        "version": _VERSION,
        "manifold": model.manifold.spec(),
        "p": _row_to_file(model.manifold, model.p),
        "v": _row_to_file(model.manifold, model.v),
    }
    if report is not None:
        doc["fit"] = {
            "energy": report.energy,
            "mse": 2.0 * report.energy,
            "iterations": report.iterations,
            "converged": report.converged,
            "stop": report.stop,
            "tau_empirical": report.tau_empirical,
            "tau_m_empirical": report.tau_m_empirical,
            "gradient_norm_p": report.gradient_norms[0],
            "gradient_norm_v": report.gradient_norms[1],
            "ball_ok": report.ball_ok,
        }
    return doc


def decode_model(doc: dict) -> GeodesicModel:
    _check_header(doc, _MODEL_FORMAT, "model")
    try:
        man = manifold_from_spec(doc["manifold"])
        return GeodesicModel.project(man, _row_from_file(man, doc["p"]),
                                     _row_from_file(man, doc["v"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed model file: {exc}") from exc


def write_model(path, model: GeodesicModel, report: FitReport | None = None) -> None:
    Path(path).write_text(_dumps(encode_model(model, report)))


def encode_release(release: PrivateRelease, tau_policy: str) -> dict:
    man = release.model.manifold
    spec, budget = release.spec, release.budget
    inputs = {
        "manifold": man.spec(),
        "budget": asdict(budget),
        "sensitivity": asdict(spec),
        "factor": release.scales.factor,
        "chain": release.chain_config.settings(),
        "seed": release.chain_config.seed,
    }
    return {
        "format": _RELEASE_FORMAT,
        "version": _VERSION,
        "manifold": man.spec(),
        "p": _row_to_file(man, release.model.p),
        "v": _row_to_file(man, release.model.v),
        "budget": {**inputs["budget"], "total": budget.total},
        "sensitivity": {**inputs["sensitivity"], "delta_p": sensitivity_p(spec),
                        "delta_v": sensitivity_v(spec)},
        "scales": asdict(release.scales),
        "chain": inputs["chain"],
        "seed": inputs["seed"],
        "tau_policy": tau_policy,
        "diagnostics": {"p": asdict(release.diagnostics_p),
                        "v": asdict(release.diagnostics_v)},
        "config_hash": config_hash(inputs),
    }


def write_release(path, release: PrivateRelease, tau_policy: str) -> None:
    Path(path).write_text(_dumps(encode_release(release, tau_policy)))


# --- landmark ingestion -----------------------------------------------------------------


def ingest_landmarks(path, covariate_column) -> Dataset:
    """Read a landmark CSV into a Kendall shape dataset.

    The file needs a header row.  One column (by name or index) holds the
    covariate; the remaining columns are landmark coordinates in
    (x0, y0, x1, y1, ...) order.  Every row is centered and scaled to a
    preshape, and the covariates are rescaled to span [0, 1].  A row with a
    non-finite value, or with coordinates too large to scale, is malformed.
    """
    try:
        with Path(path).open(newline="") as fh:
            lines = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"landmark file is not valid text: {exc}") from exc
    if not lines:
        raise DataFormatError("landmark file is empty")
    header = [h.strip() for h in lines[0]]
    if isinstance(covariate_column, int):
        cov_idx = covariate_column
        if not 0 <= cov_idx < len(header):
            raise DataFormatError(f"covariate column {covariate_column} out of range")
    else:
        if covariate_column not in header:
            raise DataFormatError(f"covariate column {covariate_column!r} not in header")
        cov_idx = header.index(covariate_column)
    coord_count = len(header) - 1
    if coord_count % 2 != 0:
        raise DataFormatError("landmark columns must come in (x, y) pairs")
    k = coord_count // 2
    if k < 4:
        raise DataFormatError("kendall shapes need at least 4 landmarks")

    man = KendallPreshape(k)
    covs, rows = [], []
    for lineno, row in enumerate(lines[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise MalformedRow(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: {exc}") from exc
        covs.append(vals[cov_idx])
        z = np.array(vals[:cov_idx] + vals[cov_idx + 1:]).reshape(k, 2)
        # A non-finite value, or a squared norm past the float range (from
        # about 1e154), leaves a non-finite norm instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            z = z - z.mean(axis=0)
            norm = float(np.linalg.norm(z))
        if not (math.isfinite(norm) and math.isfinite(covs[-1])):
            raise MalformedRow(f"line {lineno}: values must be finite, with coordinates "
                               "small enough to normalize")
        if norm < 1e-12:
            raise DegenerateShape(f"line {lineno}: landmarks coincide")
        rows.append((z / norm).reshape(-1))

    if len(rows) < 2:
        raise DataFormatError("landmark file needs at least two data rows")
    try:
        return Dataset(scale_covariates(np.array(covs)), np.stack(rows), man)
    except ValueError as exc:
        raise DataFormatError(f"malformed landmark file: {exc}") from exc


# --- experiment configuration --------------------------------------------------------------


def parse_experiment_config(doc: dict) -> ExperimentConfig:
    """An experiment config from its JSON object; `ExperimentConfig` fills
    the defaults and checks the values, this only the key set."""
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**doc)


def load_experiment_doc(path) -> dict:
    """Raw config dict from a JSON file, before schema validation."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    return doc


# --- result tables ------------------------------------------------------------------------


_PLOT_COLUMNS = ["eps_p", "eps_v", "ln_mse", "baseline", "n", "seed"]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def grid_csv_text(results) -> str:
    """Full result table for one or more grid runs."""
    header = ["manifold", "n", "mode"] + [f.name for f in fields(GridCell)]
    return _csv_text(header, ([res.manifold["kind"], res.n, res.mode, *astuple(cell)]
                              for res in results for cell in res.cells))


def plot_csv_text(results) -> str:
    """Compact table with exactly the columns the summary plots consume."""
    return _csv_text(_PLOT_COLUMNS, ([cell.eps_p, cell.eps_v, cell.ln_mse,
                                      cell.baseline_ln_mse, res.n, cell.seed]
                                     for res in results for cell in res.cells))


def sensitivity_csv_text(report) -> str:
    return _csv_text([f.name for f in fields(SensitivityRow)],
                     (astuple(row) for row in report.rows))
