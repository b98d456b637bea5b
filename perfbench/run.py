"""Benchmark runner for qsteer.

Run from the repository root:

    python3 perfbench/run.py --workload mub_scan --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times the workload's items for ``--seconds`` seconds
(and at least 100 items) and reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` it runs the workload's fixed traced item
list twice, untraced and then with span wrappers installed, and reports the
per-layer metrics.  The last line of standard output is the result object;
earlier lines record the environment and details of the run.  Every item's
result is checked, and a failed check counts the item as failed.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ITEMS = 100
SETUP_PROBES = 4  # fresh processes besides this one; setup_s is the median of all
PROBE_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 20


def import_package():
    """Make the checkout's ``src/qsteer`` importable; refuse any other copy."""
    if not (SRC / "qsteer" / "__init__.py").is_file():
        sys.exit(f"benchmark: no qsteer package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsteer

    if Path(qsteer.__file__).resolve().parent != SRC / "qsteer":
        sys.exit(f"benchmark: imported qsteer from {qsteer.__file__}, not from {SRC}")


def set_up(name):
    """Import the package, build the workload's inputs and fill per-process
    caches with one small fixed call.  Returns the workload and the seconds
    since this process started running this file."""
    import_package()
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.warm_up()
    speed.kernel_seconds()
    return workload, time.perf_counter() - _T0


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


@dataclass
class Run:
    """Wall time of each item, the calibration kernel's time before each item
    and after the last, failures, and the duration of the whole body."""

    times: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    body_s: float = 0.0


def run_items(items, done):
    """Run items until ``done(n_items, elapsed_s)``; time each call alone."""
    run = Run(kernel_s=[speed.kernel_seconds()])
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            result = item.run()
        except Exception:  # an item that raises is a failed item; keep going
            reason = traceback.format_exc(limit=3)
        else:
            reason = None
        run.times.append(time.perf_counter() - t0)
        run.kernel_s.append(speed.kernel_seconds())
        if reason is None:
            reason = item.check(result)
        if reason is not None:
            run.failures.append({"item": item.label, "reason": reason})
        if done(len(run.times), time.perf_counter() - start):
            break
    run.body_s = time.perf_counter() - start
    return run


def run_timed(workload, seed, seconds, min_items=MIN_ITEMS):
    return run_items(workload.items(seed), lambda n, elapsed: elapsed >= seconds and n >= min_items)


def run_traced(workload, seed, n_items):
    """Untraced then traced pass over the same ``n_items`` items."""
    import spans

    fixed = lambda n, _elapsed: n >= n_items  # noqa: E731
    untraced = run_items(workload.items(seed), fixed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_items(workload.items(seed), fixed)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced.body_s / untraced.body_s - 1.0
    return values, tracer.span_tree(), untraced, traced


def setup_probe_seconds(name, seed):
    """Set-up time of ``SETUP_PROBES`` fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def item_metrics(times):
    ms = [t * 1e3 for t in times]
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(ms),
        "item_p90_ms": statistics.quantiles(ms, n=10)[-1],
    }


def end_to_end_metrics(run, setup_samples):
    """Item metrics at reference speed (see ``speed.py``), set-up and memory."""
    return {
        **item_metrics(speed.scaled(run.times, run.kernel_s)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment():
    import numpy as np
    import qsteer

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "qsteer": qsteer.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def select(values, declared):
    missing = sorted(set(declared) - set(values))
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    args = parser.parse_args(argv)

    workload, setup_s = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    declared = declared_metrics()
    print(json.dumps({"environment": environment()}))

    if args.trace:
        values, tree, *runs = run_traced(workload, args.seed, workload.trace_items)
        print(json.dumps({"span_tree": tree}))
        metrics = select(values, declared["per_layer"])
    else:
        run = run_timed(workload, args.seed, args.seconds)
        setup_samples = [setup_s] + setup_probe_seconds(args.workload, args.seed)
        details = {
            "items": len(run.times),
            "body_s": run.body_s,
            "unscaled": item_metrics(run.times),
            "kernel_ms": {
                "median": statistics.median(run.kernel_s) * 1e3,
                "min": min(run.kernel_s) * 1e3,
            },
            "setup_samples_s": setup_samples,
        }
        print(json.dumps(details))
        metrics = select(end_to_end_metrics(run, setup_samples), declared["end_to_end"])
        runs = [run]

    failures = [f for r in runs for f in r.failures]
    if failures:
        print(json.dumps({"failures": failures[:MAX_REPORTED_FAILURES]}))
    attempted = sum(len(r.times) for r in runs)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
