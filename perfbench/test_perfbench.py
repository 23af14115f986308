"""Tests of the benchmark itself: the tracer's arithmetic, the tail rule, and
every workload at toy size through the same code path as a measured run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY = {
    "release-sphere": {"n": 12, "delta": 0.01, "eps_p": 0.5, "eps_v": 0.5, "tau": 0.25,
                       "eta_factor": 3.0, "chain_length": 300, "burn_in": 50,
                       "warmup_chain_length": 50},
    "grid-kendall": {"n": 12, "delta": 0.001, "landmarks": 6, "m": 2, "chain_length": 30,
                     "burn_in": 5, "eps_lo": 1.0, "eps_hi": 2.0, "cells": 2, "workers": 2,
                     "tau": 0.25, "eta_factor": 3.0},
    "audit-spd": {"n": 8, "sigma_noise": 0.1, "pairs": 2, "warmup_max_iter": 2},
}


def test_self_time_subtracts_union_of_child_intervals():
    # 0: root [0, 10]; 1 and 2 overlap inside it; 3 runs past the root's end;
    # 4 is a grandchild inside 2.
    start = [0.0, 1.0, 2.0, 7.0, 3.0]
    end = [10.0, 3.0, 5.0, 12.0, 4.0]
    parent = [-1, 0, 0, 0, 2]
    own = tracing.self_times(start, end, parent)
    # Root: children cover [1, 5] and [7, 10] -> 7 of 10 seconds.
    np.testing.assert_allclose(own, [3.0, 2.0, 2.0, 5.0, 1.0])


def test_absorbed_worker_spans_hang_under_the_given_parent():
    parent_tracer, worker = tracing.Tracer(), tracing.Tracer()
    outer = parent_tracer.wrap(lambda: None, "experiments.run_grid")
    outer()
    cell = worker.wrap(worker.wrap(lambda: None, "manifolds.exp"), "experiments.cell")
    cell()
    worker.add("sampling.run_chains.steps", 7)
    parent_tracer.absorb(worker.export(), parent=0)
    names = [parent_tracer.names[i] for i in parent_tracer.name]
    assert names == ["experiments.run_grid", "experiments.cell", "manifolds.exp"]
    assert list(parent_tracer.parent) == [-1, 0, 1]
    assert parent_tracer.counts == {"sampling.run_chains.steps": 7}


def test_tail_leaves_ten_samples_above_and_never_drops_below_the_median():
    assert run.tail(list(range(1, 31))) == (20, 100.0 * 20 / 30)
    assert run.tail(list(range(1, 14))) == (7, 100.0 * 7 / 13)


def test_reference_units_fill_their_share_of_the_last_operation(monkeypatch):
    monkeypatch.setattr(run, "reference_unit_s", lambda inputs, workers: 0.01)
    reference = []
    run.reference_units(None, 1, [], reference)
    assert reference == [0.01]  # no operation yet: one unit
    reference.clear()
    run.reference_units(None, 1, [1.0], reference)
    assert len(reference) == round(run.REFERENCE_SHARE / 0.01)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TOY))
def test_workload_at_toy_size(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)], params=TOY)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert record["output_digest_op0"]
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["manifolds.exp.calls"] > 0 and layers["trace.spans"] > 0
        if workload == "grid-kendall":  # spans recorded in pool workers came back
            assert record["tracing"]["pool_spans_returned"]
            assert layers["experiments.cell.s_p50"] > 0
            assert layers["sampling.run_chains.steps"] == 2 * (2 + 4) * 30
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_the_same_outputs(capsys):
    digests = []
    for _ in range(2):
        run.main(["--workload", "audit-spd", "--seed", "5", "--seconds", "0.01"],
                 params=TOY)
        digests.append(json.loads(capsys.readouterr().out.splitlines()[-2])
                       ["output_digest_op0"])
    assert digests[0] == digests[1]


def test_exits_nonzero_without_printing_when_sources_are_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "release-sphere", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_names_only_existing_workloads():
    from workloads import WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert Path(run.ROOT, *BENCHMARK["command"][1].split("/")) == Path(run.__file__)
