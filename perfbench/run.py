"""Run one geodp benchmark workload and print its figures as JSON.

    python3 perfbench/run.py --workload release-sphere --seed 1 --seconds 40 --trace 0

The workload runs as a closed loop (one caller; the next operation starts when
the previous one has finished) for about --seconds, ending with a repeat of
operation 0.  Reference units of fixed numpy work, timed between operations,
give the host's speed; the gated operation cost is operation time over
reference time.  With --trace 0 the last line of stdout carries the end-to-end
figures; with --trace 1 it carries the per-layer figures of traced twins of
the operations (see tracing.py).  The line before it
holds the full record: environment, latencies with their percentiles and
sample counts, output checks and the digest of the fixed-seed outputs.
geodp is imported from the src/ directory next to this one; without it the
run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# Pin BLAS to one thread per process before numpy is imported anywhere, so
# pool workers do not oversubscribe the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END_UNITS = {"setup_s": "s", "op_cost_mean": "ref", "peak_rss_mb": "MB"}
# The reference unit, timed between operations: a walk on the sphere in small
# numpy steps (the dispatch-bound work geodp does at batch size 1) and a few
# passes over arrays of the size a Kendall batch makes (B=16, n=50, 2k=100).
# It uses no geodp code, and runs in as many processes at once as the workload
# has pool workers.  Its runs take about REFERENCE_SHARE of the time the
# operations take.
REFERENCE_STEPS = 3000
REFERENCE_PASSES = 15
REFERENCE_SHARE = 0.15
# User-facing names of each workload's median and tail operation latency.
LATENCY_NAMES = {"release-sphere": ("release_s_p50", "release_s_tail"),
                 "grid-kendall": ("grid_s", "grid_s_tail"),
                 "audit-spd": ("audit_pair_s_p50", "audit_pair_s_tail")}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def tail(values):
    """(value, percentile) at the highest rank that leaves at least ten samples
    above it, but never below the median rank."""
    xs = sorted(values)
    k = max(len(xs) - 10, (len(xs) + 1) // 2)
    return xs[k - 1], 100.0 * k / len(xs)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / MB


def reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.standard_normal((REFERENCE_STEPS, 3)),
            rng.standard_normal((2, 16, 50, 100)))


def reference_work(inputs) -> None:
    import numpy as np

    normals, (a, b) = inputs
    x = np.array([0.0, 0.0, 1.0])
    for v in normals:
        v = v - x * (x @ v)
        n = np.sqrt(v @ v)
        x = np.cos(n) * x + np.sin(n) * (v / n)
    for _ in range(REFERENCE_PASSES):
        c = a * b + a
        np.sin(c, out=c)
        x = x + np.einsum("bij,bij->b", c, b).sum()


def reference_unit_s(inputs, workers: int = 1) -> float:
    """Wall time of one reference unit: the host's speed right now.

    With several workers, each runs the unit in a forked child at the same
    time, as the pool workers of a parallel operation do.  The mean operation
    time over the mean reference time, both taken over the same run, cancels
    the drift of the host's speed, which moves both alike.
    """
    t = time.perf_counter()
    if workers == 1:
        reference_work(inputs)
        return time.perf_counter() - t
    pids = []
    try:
        for _ in range(workers):
            pid = os.fork()
            if pid == 0:
                try:
                    reference_work(inputs)
                finally:
                    os._exit(0)
            pids.append(pid)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    return time.perf_counter() - t


def import_times() -> list[float]:
    """Wall times of importing geodp, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import geodp.cli"], env=env, check=True)
        times.append(time.perf_counter() - t)
    return times


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "workload_seed": seed,
        "geodp_threads": os.environ.get("GEODP_THREADS"),
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def timed_op(wl, i: int, failures: list) -> float:
    """Run and time operation i, then check its output outside the timing."""
    t = time.perf_counter()
    try:
        out = wl.op(i)
        elapsed = time.perf_counter() - t
        if not wl.check(i, out):
            failures.append({"op": i, "error": "output check failed"})
    except Exception as exc:  # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - t
        failures.append({"op": i, "error": f"{type(exc).__name__}: {exc}"})
    return elapsed


def reference_units(inputs, workers: int, latencies: list, reference: list) -> None:
    """Time reference units for about REFERENCE_SHARE of the last latency."""
    budget = REFERENCE_SHARE * latencies[-1] if latencies else 0.0
    spent = 0.0
    while True:
        reference.append(reference_unit_s(inputs, workers))
        spent += reference[-1]
        if spent >= budget:
            return


def closed_loop(wl, seconds: float, ref_inputs, workers: int, tracer=None,
                probes=None) -> dict:
    """Run operations back to back for about `seconds`.

    Before every untraced operation, reference units run for about
    REFERENCE_SHARE of the previous operation's time, and at least once.
    The loop ends by repeating operation 0, whose output must match the
    first; it stops early enough for that repeat to end near the deadline.
    With a tracer, every operation runs once untraced and then once more,
    on the same inputs, with the probes installed; neighbouring runs of the
    same work give the tracing overhead.
    """
    latencies, reference, traced, failures, steps = [], [], [], [], []
    begin = time.perf_counter()
    i = 0
    while True:
        t = time.perf_counter()
        reference_units(ref_inputs, workers, latencies, reference)
        latencies.append(timed_op(wl, i, failures))
        if tracer is not None:
            tracer.op = i
            probes.install(tracer)
            try:
                traced.append(timed_op(wl, i, failures))
            finally:
                probes.restore()
        i += 1
        steps.append(time.perf_counter() - t)
        if time.perf_counter() - begin + 2 * statistics.median(steps) > seconds:
            break
    reference_units(ref_inputs, workers, latencies, reference)
    latencies.append(timed_op(wl, 0, failures))
    return {"latencies": latencies, "reference": reference, "traced": traced,
            "failures": failures}


def main(argv=None, params=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geodp" / "__init__.py").is_file():
        print(f"geodp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geodp
    import tracing
    import workloads

    if Path(geodp.__file__).resolve().parent != SRC / "geodp":
        print(f"geodp imported from {geodp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    # Fit radius, privacy-policy and chain-health warnings are part of normal
    # operation on these inputs; printing them would only add noise.
    warnings.simplefilter("ignore")
    p = dict((params or workloads.PARAMS)[args.workload])
    traced_pool = True
    if args.trace and "workers" in p:
        # Worker spans come back only from forked workers, which inherit the probes.
        traced_pool = multiprocessing.get_start_method() == "fork"
        if not traced_pool:
            p["workers"] = 1

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, p, work)
    try:
        imports = import_times()
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t)
        setup_s = statistics.median(imports) + statistics.median(setups)

        env = environment(args.seed)
        tracer = tracing.Tracer() if args.trace else None
        ref_inputs = reference_inputs()
        workers = p.get("workers", 1)
        reference_unit_s(ref_inputs, workers)  # warm-up
        run = closed_loop(wl, args.seconds, ref_inputs, workers, tracer, tracing.Probes())
        checks = {"repeated_outputs_identical":
                  all(len(set(d)) == 1 for d in wl.digests.values())}
        peak = peak_rss_mb()
    finally:
        wl.close()
        for path in sorted(work.glob("*")):
            path.unlink()
        work.rmdir()

    lat, ref = run["latencies"], run["reference"]
    failures = run["failures"] + [{"check": k} for k, ok in checks.items() if not ok]
    attempted = len(lat) + len(run["traced"]) + len(checks)
    p50 = statistics.median(lat)
    tail_s, tail_pct = tail(lat)
    ops_per_s = len(lat) / sum(lat)
    op_cost = statistics.fmean(lat) / statistics.fmean(ref)
    e2e = {"setup_s": setup_s, "op_cost_mean": op_cost, "peak_rss_mb": peak}

    p50_name, tail_name = LATENCY_NAMES[args.workload]
    named = {
        "setup_s": {"value": setup_s, "unit": "s"},
        p50_name: {"value": p50, "unit": "s", "percentile": 50.0, "samples": len(lat)},
        tail_name: {"value": tail_s, "unit": "s", "percentile": tail_pct,
                    "samples": len(lat)},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
        "failed_frac": {"value": len(failures) / attempted, "unit": "frac"},
    }
    if wl.chain_steps_per_op:
        named["chain_steps_per_s"] = {"value": wl.chain_steps_per_op * ops_per_s,
                                      "unit": "1/s"}

    if args.trace:
        layers = tracing.layer_metrics(tracer, len(run["traced"]), p.get("workers", 1))
        twins = lat[:len(run["traced"])]  # the closing repeat has no traced twin
        layers["trace.overhead_frac"] = sum(run["traced"]) / sum(twins) - 1.0
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in tracing.PER_LAYER_UNITS.items()}
        spans_path = OUT / f"trace-{args.workload}.npz"
        tracer.save(spans_path)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": p,
        "environment": env,
        "reference_unit_s": ref,
        "setup": {"import_s": imports, "setup_s": setups},
        "named_metrics": named,
        "latencies_s": lat,
        "failures": failures,
        "checks": checks,
        "output_digest_op0": wl.digests[0][0] if 0 in wl.digests else None,
    }
    if args.trace:
        record["tracing"] = {"spans_file": str(spans_path.relative_to(ROOT)),
                             "pool_spans_returned": traced_pool,
                             "traced_latencies_s": run["traced"]}
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
