"""Library calls of a parent revision against the working tree, in one process.

    python3 bench/kernel_ab.py [--parent HEAD]

Exports the committed files of the parent revision with ``git archive``, as
``bench/pairs.py`` does, and imports both trees' ``kcge`` side by side under
the package names ``kcge_parent`` and ``kcge_change``. Then it times
``classify`` on five groups of states:

* ``haar-scan``: one Haar state of each haar-scan size, weighted by the
  number of requests of that size in one haar-scan cycle;
* ``cutoffs``: three Haar states at larger rank cutoffs, where the rank
  certificate fails more often;
* ``zoo classify``: the 15 family states that zoo-prep generates and
  classifies;
* ``zoo cross-check``: the joint states of zoo-prep's 10 ``cross-check``
  requests, half with random edge states;
* ``one zero``: Haar 2^10 and 2^12 with one amplitude set to zero, which
  sends every cut down the kernel's path for states with zeros;
* ``large``: Haar 2^13 and 2^14, sizes that haar-scan leaves out, where
  building each cut's matrix costs most against the rank kernel.

Haar states never reach that path, and at the default cutoff they never
need the certificate of full rows, so the cutoff, zoo and one-zero groups
show a change there. The zoo-prep states are built from the inputs that
``perfbench/workloads.py`` writes at SEED, each side with its own
``kcge``.

It also times the array JSON encoder, ``cli._json_text``, in two groups:

* ``array json zoo``: every object that zoo-prep's ``generate``,
  ``disentangle`` and ``decompose`` requests pass to ``_emit_json`` in one
  cycle at SEED, captured once from the working tree's CLI. Most of their
  states are sparse, so most pairs are all-zero;
* ``array json dense``: a normalized complex Gaussian (Haar) vector of
  2^16 amplitudes and a dense 256x256 complex matrix, with no zero pair.

Each repeat builds a fresh state on each side for ``classify`` (outside the
timed region, so facts a state keeps are computed inside it), times the two
sides back to back with the first side alternating, and checks that both
results are equal (reports, or JSON texts byte for byte), REPEATS times per
case.
Interleaving in one process cancels the drift of a shared machine's speed
between runs.

The result goes to ``BENCH_kernel.json``: both revisions, the machine facts
that ``bench/pairs.py`` records, per case the best and median milliseconds
of each side and the ratio of the medians, per side the haar-scan cycle
sum of weight times best and of weight times median, and per group and
side the sum of the case medians.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
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
ONE_ZERO_DIMS = ((2,) * 10, (2,) * 12)
LARGE_DIMS = ((2,) * 13, (2,) * 14)
ARRAY_COMMANDS = ("generate", "disentangle", "decompose")
DENSE_SHAPES = ((2**16,), (256, 256))
REPEATS = 15
SEED = 2100  # of the amplitudes and of both workloads' inputs


def load(tree: str, name: str):
    """Import ``tree``'s src/kcge as the package ``name``."""
    package = Path(tree) / "src" / "kcge"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")
    return module


def haar_mix(seed: int) -> list[tuple[tuple[int, ...], int]]:
    """(dims, requests per cycle) of the haar-scan workload, read off the
    labels of its request cycle."""
    with tempfile.TemporaryDirectory(prefix="kcge-ab-") as work:
        labels = Counter(req.label for req in workloads.build("haar-scan", seed, work))
    return [(tuple(map(int, label.split("x"))), count) for label, count in labels.items()]


def zoo_inputs(seed: int):
    """(label, build(kcge)) of zoo-prep's classified family states and its
    cross-check joint states, from the JSON inputs the workload writes."""
    cases = {"zoo classify": [], "zoo cross-check": []}
    with tempfile.TemporaryDirectory(prefix="kcge-ab-") as work:
        workloads.build("zoo-prep", seed, work)
        index = lambda path: int(re.search(r"-(\d+)\.", path.name)[1])  # noqa: E731
        for path in sorted(Path(work).glob("*.family.json"), key=index):
            spec = json.loads(path.read_text())
            label = path.name.split("-")[0]
            cases["zoo classify"].append(
                (label, lambda kcge, spec=spec: kcge.family_from_dict(spec).build())
            )
        for path in sorted(Path(work).glob("cross-*[0-9].json"), key=index):
            graph = json.loads(path.read_text())
            states_path = path.with_suffix(".states.json")
            states = json.loads(states_path.read_text()) if states_path.exists() else None

            def build(kcge, graph=graph, states=states):
                edges = None if states is None else [kcge.state_from_dict(s) for s in states]
                return kcge.network_joint_state(kcge.NetworkGraph.from_dict(graph), edges)

            label = f"cross{index(path)}" + ("-states" if states else "")
            cases["zoo cross-check"].append((label, build))
    return cases


def time_case(sides, prepare, text, label):
    """Milliseconds of each side's call per repeat. ``prepare(kcge)`` builds
    a side's inputs outside the timed region and returns the call to time;
    ``text`` of both sides' results must be equal."""
    times = {name: [] for name in sides}
    for i in range(REPEATS):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        results = {}
        for name in order:
            call = prepare(sides[name])
            start = time.perf_counter()
            result = call()
            times[name].append((time.perf_counter() - start) * 1e3)
            results[name] = text(result)
        if len(set(results.values())) != 1:
            raise RuntimeError(f"results differ on {label}")
    return times


def classify_case(build, cutoff):
    """(prepare, text) of ``classify`` on a fresh state at ``cutoff``."""
    def prepare(kcge):
        state, tol = build(kcge), kcge.Tolerance(rank_cutoff=cutoff)
        return lambda: kcge.classify(state, tol)

    return prepare, lambda report: json.dumps(report.to_dict(), sort_keys=True)


def json_case(obj):
    """(prepare, text) of ``cli._json_text`` on an object ``_emit_json`` takes."""
    return (lambda kcge: lambda: kcge.cli._json_text(obj, 0)), str


def zoo_emits(seed: int):
    """(label, object) of every object that zoo-prep's array-writing
    commands pass to ``_emit_json`` in one request cycle."""
    emitted = []
    real = workloads.cli._emit_json
    workloads.cli._emit_json = lambda obj, out: emitted.append(obj)
    try:
        with tempfile.TemporaryDirectory(prefix="kcge-ab-") as work:
            for req in workloads.build("zoo-prep", seed, work):
                if req.kind in ARRAY_COMMANDS:
                    req.call()
                    yield f"{req.kind} {req.label}".strip(), emitted.pop()
    finally:
        workloads.cli._emit_json = real


def haar_build(rng, dims, zero=False):
    size = int(np.prod(dims))
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if zero:
        amps[rng.integers(size)] = 0.0
    amps /= np.linalg.norm(amps)
    return lambda kcge: kcge.PureState(dims, amps)


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
    # (group, label, (prepare, text), rank cutoff, haar-scan weight)
    cases = [("haar-scan", "x".join(map(str, dims)), classify_case(haar_build(rng, dims), 1e-9),
              1e-9, weight) for dims, weight in haar_mix(SEED)]
    cases += [("cutoffs", "x".join(map(str, dims)), classify_case(haar_build(rng, dims), cutoff),
               cutoff, 0) for dims, cutoff in EXTRA_CASES]
    for group, items in zoo_inputs(SEED).items():
        cases += [(group, label, classify_case(build, 1e-9), 1e-9, 0) for label, build in items]
    cases += [("one zero", "x".join(map(str, dims)),
               classify_case(haar_build(rng, dims, zero=True), 1e-9), 1e-9, 0)
              for dims in ONE_ZERO_DIMS]
    cases += [("large", "x".join(map(str, dims)), classify_case(haar_build(rng, dims), 1e-9),
               1e-9, 0) for dims in LARGE_DIMS]
    cases += [("array json zoo", label, json_case(obj), None, 0) for label, obj in zoo_emits(SEED)]
    for shape in DENSE_SHAPES:
        dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dense /= np.linalg.norm(dense)
        label = "x".join(map(str, shape))
        cases.append(("array json dense", label, json_case({"a": dense}), None, 0))

    results = []
    with tempfile.TemporaryDirectory(prefix="kcge-parent-") as parent_tree:
        export(parent_rev, parent_tree)
        sides = {"parent": load(parent_tree, "kcge_parent"), "change": load(str(ROOT), "kcge_change")}
        for group, label, (prepare, text), cutoff, weight in cases:
            times = time_case(sides, prepare, text, label)
            row = {"group": group, "label": label, "rank_cutoff": cutoff, "weight": weight}
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
    groups = {}
    for r in results:
        group = groups.setdefault(r["group"], {"cases": 0, "parent": 0.0, "change": 0.0})
        group["cases"] += 1
        for name in ("parent", "change"):
            group[name] += r[name]["median_ms"]
    for group in groups.values():
        group["ratio"] = group["change"] / group["parent"]
    facts = machine_facts(SimpleNamespace(workload="haar-scan", seed=SEED))
    report = {
        "parent_revision": parent_rev,
        "change": change,
        "repeats": REPEATS,
        "seed": SEED,
        "facts": {k: v for k, v in facts.items() if k not in ("workload", "seed", "git_revision")},
        "haar_scan_cycle_ms": cycle,
        "group_median_sum_ms": groups,
        "cases": results,
    }
    (ROOT / "BENCH_kernel.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
