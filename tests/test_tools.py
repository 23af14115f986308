"""The measurement tools under tools/ run end to end."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Timed layers blocks of tools/bench_chains.py and the cells each holds on
# one manifold (the sphere), one batch size and one prefetch depth.
TIMED = {"rows_us_per_call": 5, "run_chains_us_per_step": 2,
         "run_chains_loop_us_per_step": 2, "independence_us_per_step": 2}


def timed_cells(node):
    """The timed cells below a table node: the dicts that hold a median."""
    if "median" in node:
        yield node
        return
    for child in node.values():
        if isinstance(child, dict):
            yield from timed_cells(child)


def test_bench_chains_smoke():
    """bench_chains.py on a tiny setting prints all five layers blocks; every
    timed cell holds a median within its quartiles, and the acceptance table
    a rate and a kernel per stage."""
    argv = [sys.executable, str(ROOT / "tools" / "bench_chains.py"), "--manifolds", "sphere",
            "--batches", "1", "--depths", "1", "--reaches", "0.05", "--seconds", "0.01",
            "--repeats", "1"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    layers = json.loads(run.stdout)["layers"]
    assert set(layers) == {*TIMED, "independence_acceptance"}
    for name, count in TIMED.items():
        cells = list(timed_cells(layers[name]["values"]))
        assert len(cells) == count, name
        assert all(0.0 < c["q1"] <= c["median"] <= c["q3"] for c in cells), name
    stages = layers["independence_acceptance"]["values"]["sphere"]
    assert set(stages) == {"footpoint", "shooting"}
    for row in stages.values():
        assert 0.0 <= row["0.05"]["acceptance"] <= 1.0
        assert row["0.05"]["kernel"] in ("independence", "random_walk")
