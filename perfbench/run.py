"""kcge benchmark: closed-loop request cycles from one client in one process.

    python3 perfbench/run.py --workload haar-scan --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload's inputs are generated from the seed. Its request
cycle (46 or 108 requests, see ``workloads.py``) then runs whole cycles back
to back until ``--seconds`` have passed, and at least MIN_CYCLES times.
Every output is checked.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1`` they are the per-layer
ones, from cycles that alternate traced and untraced, starting traced. The
line before the result is a record with the machine facts and the details
behind each number. ``--smoke`` swaps in tiny inputs and the fewest cycles,
for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("haar-scan", "zoo-prep")
SETUP_RUNS = 3
# A run has at least MIN_CYCLES cycles: request medians need several
# samples, and with >= 46 requests per cycle >= 10 samples lie beyond p90.
MIN_CYCLES = 3
TAIL_PERCENTILE = 90

# One set-up, in a fresh interpreter: import kcge, then write the inputs.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
root, bench, workload, seed, work, tiny = sys.argv[1:]
sys.path[:0] = [root + "/src", bench]
import kcge
import workloads
workloads.build(workload, int(seed), work, tiny == "1")
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def timed_setup(args, work):
    """Wall times of SETUP_RUNS fresh set-ups, each in its own process."""
    times = []
    for i in range(SETUP_RUNS):
        run_dir = work / f"setup-{i}"
        run_dir.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT), str(BENCH), args.workload,
             str(args.seed), str(run_dir), "1" if args.smoke else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(run_dir)
    return times


def machine_facts(args):
    import networkx
    import numpy

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(numpy),
        "kcge_threads": "unset",
        "git_revision": git_revision(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        facts["blas"] = None
    return facts


def blas_threads(numpy):
    """Thread count OpenBLAS reports, when numpy bundles it; else None."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def run_cycle(requests, tracer, failures):
    """One pass over the request cycle. Returns the latency of each request
    (None where it raised) and the number of failed requests."""
    latencies, failed = [], 0
    for rid, req in enumerate(requests):
        if tracer is not None:
            tracer.request = rid
            tracer.begin("request")
        start = time.perf_counter()
        try:
            out = req.call()
            latencies.append(time.perf_counter() - start)
            error = None
        except Exception as exc:  # a request that raises is a failed request
            latencies.append(None)
            error = f"raised {exc!r}"
        finally:
            if tracer is not None:
                tracer.end()
        if error is None:
            error = check_error(req, out)
        if error is not None:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{req.kind} {req.label} (request {rid}): {error}")
    return latencies, failed


def check_error(req, out):
    try:
        return None if req.check(out) else "output check failed"
    except Exception as exc:  # a malformed output fails its check
        return f"output check raised {exc!r}"


def quantile(values, q):
    """Linear-interpolation percentile, q in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "kcge" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no kcge sources under {ROOT / 'src'}\n")
        return 2
    os.environ.pop("KCGE_THREADS", None)  # workers=1, as users get it
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    setup_times = timed_setup(args, work)

    import tracing
    import workloads

    inputs = work / "inputs"
    inputs.mkdir()
    requests = workloads.build(args.workload, args.seed, str(inputs), args.smoke)
    facts = machine_facts(args)

    tracer = tracing.Tracer()
    failures = []
    cycles = []  # (traced, latencies, failed, counts, self_ms)
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(cycles) % 2 == 0
        uninstall = tracing.install(tracer) if traced else None
        try:
            latencies, failed = run_cycle(requests, tracer if traced else None, failures)
        finally:
            if uninstall is not None:
                uninstall()
        counts, self_ms = ({}, {})
        if traced:
            counts, self_ms = tracer.summary()
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}-cycle{len(cycles)}.jsonl")
            tracer.reset()
        cycles.append((traced, latencies, failed, counts, self_ms))
        if args.smoke and len(cycles) >= (3 if args.trace else 1):
            break
        if time.perf_counter() - start >= args.seconds and len(cycles) >= MIN_CYCLES:
            break

    attempted = len(requests) * len(cycles)
    failed = sum(c[2] for c in cycles)
    correct = failed == 0
    record = {"facts": facts, "requests_per_cycle": len(requests), "cycles": len(cycles),
              "elapsed_s": time.perf_counter() - start, "setup_runs_s": setup_times,
              "failures": failures}

    if args.trace:
        metrics, exact, repeat = layer_metrics(cycles)
        correct = correct and repeat
        record.update(counts_per_cycle=exact, counts_repeat=repeat)
    else:
        pooled = [x for c in cycles for x in c[1] if x is not None]
        metrics = {
            "throughput_rps": (len(requests) / typical_cycle_s(cycles), "1/s"),
            "latency_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
            "latency_tail_ms": (quantile(pooled, TAIL_PERCENTILE) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        record.update(tail_percentile=TAIL_PERCENTILE, latency_samples=len(pooled),
                      p50_ms_by_request=p50_by_request(requests, cycles),
                      cycle_latencies_ms=[[None if x is None else round(x * 1e3, 3) for x in c[1]]
                                          for c in cycles])

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def typical_cycle_s(cycles):
    """Sum over the cycle's requests of each request's median latency across
    the given cycles. The machine is shared, so a slow spell that hits a
    minority of the cycles does not move it."""
    per_request = ([x for x in lat if x is not None] for lat in zip(*(c[1] for c in cycles)))
    return sum(statistics.median(xs) for xs in per_request if xs)


def p50_by_request(requests, cycles):
    """Median latency in ms of each request kind and input label."""
    by_label = {}
    for _traced, latencies, _failed, _c, _s in cycles:
        for req, x in zip(requests, latencies):
            if x is not None:
                by_label.setdefault(f"{req.kind} {req.label}".strip(), []).append(x * 1e3)
    return {k: statistics.median(v) for k, v in sorted(by_label.items())}


def layer_metrics(cycles):
    """Per-layer metrics per cycle, medians over the traced cycles; exact
    counts must be identical in every traced cycle."""
    import tracing

    traced = [c for c in cycles if c[0]]
    plain = [c for c in cycles if not c[0]]
    counts = [c[3] for c in traced]
    repeat = all(c == counts[0] for c in counts)
    exact = {name: counts[0].get(name, 0) for name in tracing.COUNTS}
    metrics = {}
    for metric, span in tracing.SELF_TIME.items():
        metrics[metric] = (statistics.median(c[4].get(span, 0.0) for c in traced), "ms")
    metrics["classify.subsets_scanned"] = (exact["classify.subsets_scanned"], "count")
    metrics["classify.scan_fraction"] = (
        exact["classify.subsets_scanned"] / exact["classify.subsets_in_levels"]
        if exact["classify.subsets_in_levels"] else 0.0, "ratio")
    metrics["core.rank_calls"] = (exact["core.rank_calls"], "count")
    metrics["core.reshape_bytes_computed"] = (exact["core.reshape_bytes_computed"], "B")
    overhead = typical_cycle_s(traced) / typical_cycle_s(plain) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics, exact, repeat


if __name__ == "__main__":
    sys.exit(main())
