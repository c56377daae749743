"""Library ``classify`` of a parent revision against the working tree, in one process.

    python3 bench/kernel_ab.py [--parent HEAD]

Exports the committed files of the parent revision with ``git archive``, as
``bench/pairs.py`` does, and imports both trees' ``kcge`` side by side under
the package names ``kcge_parent`` and ``kcge_change``. Then it times
``classify`` on one Haar state of each haar-scan size, weighted by the
number of requests of that size in one haar-scan cycle, and on three Haar
states at larger rank cutoffs, where the rank certificate fails more often.
Each repeat builds a fresh state on each side from the same amplitudes
(outside the timed region, so facts a state keeps are computed inside it),
times the two sides back to back with the first side alternating, and
checks that both reports are equal, REPEATS times per case. Interleaving
in one process cancels the drift of a shared machine's speed between runs.

The result goes to ``BENCH_kernel.json``: both revisions, the machine facts
that ``bench/pairs.py`` records, per case the best and median milliseconds
of each side and the ratio of the medians, and per side the haar-scan cycle
sum of weight times best and of weight times median.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from pairs import ROOT, export, git

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from run import machine_facts  # noqa: E402

# (dims, rank cutoff): larger cutoffs than the default 1e-9, where the
# certificate's margin rho = 2 cutoff outgrows a square block's sigma_min.
EXTRA_CASES = (((3,) * 8, 1e-4), ((2,) * 14, 1e-6), ((2, 3) * 5, 1e-4))
REPEATS = 15
SEED = 2100  # of the amplitudes and of the haar-scan request cycle


def load(tree: str, name: str):
    """Import ``tree``'s src/kcge as the package ``name``."""
    package = Path(tree) / "src" / "kcge"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def haar_mix(seed: int) -> list[tuple[tuple[int, ...], int]]:
    """(dims, requests per cycle) of the haar-scan workload, read off the
    labels of its request cycle."""
    with tempfile.TemporaryDirectory(prefix="kcge-ab-") as work:
        labels = Counter(req.label for req in workloads.build("haar-scan", seed, work))
    return [(tuple(int(d) for d in label.split("x")), count) for label, count in labels.items()]


def time_case(sides, amps, dims, cutoff):
    """Milliseconds of each side's ``classify`` per repeat."""
    times = {name: [] for name in sides}
    for i in range(REPEATS):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        reports = {}
        for name in order:
            kcge = sides[name]
            state = kcge.PureState(dims, amps)
            tol = kcge.Tolerance(rank_cutoff=cutoff)
            start = time.perf_counter()
            report = kcge.classify(state, tol)
            times[name].append((time.perf_counter() - start) * 1e3)
            reports[name] = json.dumps(report.to_dict(), sort_keys=True)
        if len(set(reports.values())) != 1:
            raise RuntimeError(f"reports differ on {dims} at cutoff {cutoff}: {reports}")
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    args = parser.parse_args(argv)
    parent_rev = git("rev-parse", args.parent).decode().strip()
    change = {
        "head": git("rev-parse", "HEAD").decode().strip(),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
    }
    rng = np.random.default_rng(SEED)
    cases = [(dims, 1e-9, weight) for dims, weight in haar_mix(SEED)]
    cases += [(dims, cutoff, 0) for dims, cutoff in EXTRA_CASES]

    results = []
    with tempfile.TemporaryDirectory(prefix="kcge-parent-") as parent_tree:
        export(parent_rev, parent_tree)
        sides = {"parent": load(parent_tree, "kcge_parent"), "change": load(str(ROOT), "kcge_change")}
        for dims, cutoff, weight in cases:
            size = int(np.prod(dims))
            amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            amps /= np.linalg.norm(amps)
            times = time_case(sides, amps, dims, cutoff)
            row = {"dims": list(dims), "rank_cutoff": cutoff, "weight": weight}
            for name, values in times.items():
                row[name] = {"best_ms": min(values), "median_ms": statistics.median(values)}
            row["median_ratio"] = row["change"]["median_ms"] / row["parent"]["median_ms"]
            results.append(row)
            print(json.dumps(row), file=sys.stderr, flush=True)

    cycle = {
        name: {
            stat: sum(r["weight"] * r[name][stat] for r in results)
            for stat in ("best_ms", "median_ms")
        }
        for name in ("parent", "change")
    }
    facts = machine_facts(SimpleNamespace(workload="haar-scan", seed=SEED))
    report = {
        "parent_revision": parent_rev,
        "change": change,
        "repeats": REPEATS,
        "seed": SEED,
        "facts": {k: v for k, v in facts.items() if k not in ("workload", "seed", "git_revision")},
        "haar_scan_cycle_ms": cycle,
        "cases": results,
    }
    (ROOT / "BENCH_kernel.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
