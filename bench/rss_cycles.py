"""Peak RSS of zoo-prep cycle by cycle, parent revision against the working tree.

    python3 bench/rss_cycles.py [--parent HEAD] [--cycles 6]

``perfbench/run.py`` reads ``peak_rss_mb`` once, after as many request
cycles as fit in its run. A faster tree completes more cycles, and the peak
grows with them, so that number mixes the memory a cycle needs with the
number of cycles run. This script compares the two trees at equal work.

It exports the committed files of the parent revision with ``git archive``,
as ``bench/pairs.py`` does. Then, for each tree in a fresh interpreter, it
imports the tree's ``kcge`` from ``src/``, writes zoo-prep's inputs at SEED,
and runs the request cycle ``--cycles`` times in that process. It
checks every output and records ``ru_maxrss`` after each cycle. Each of the
ROUNDS rounds runs both trees, and the side that runs first alternates from
round to round.

The result goes to ``BENCH_rss.json``: both revisions, the machine facts
that ``bench/pairs.py`` records, every round's per-cycle peaks in MB, and
per side and cycle the median over rounds with the ratio change / parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from pairs import ROOT, export, git

sys.path.insert(0, str(ROOT / "perfbench"))
from run import machine_facts  # noqa: E402

ROUNDS = 3
SEED = 1  # of zoo-prep's inputs

# One run, in a fresh interpreter: peak RSS in MB after each request cycle.
CYCLES_SNIPPET = """
import json, resource, sys, tempfile
tree, seed, cycles = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import workloads
peaks = []
with tempfile.TemporaryDirectory(prefix="kcge-rss-") as work:
    requests = workloads.build("zoo-prep", seed, work)
    for _ in range(cycles):
        for req in requests:
            if not req.check(req.call()):
                raise SystemExit(f"{req.kind} {req.label}: output check failed")
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps(peaks))
"""


def peaks(tree: str, seed: int, cycles: int) -> list[float]:
    done = subprocess.run(
        [sys.executable, "-c", CYCLES_SNIPPET, tree, str(seed), str(cycles)],
        cwd=tree, capture_output=True, text=True, timeout=600 + 120 * cycles,
    )
    if done.returncode != 0:
        raise RuntimeError(f"zoo-prep cycles failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--cycles", type=int, default=6)
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")
    parent_rev = git("rev-parse", args.parent).decode().strip()
    change = {
        "head": git("rev-parse", "HEAD").decode().strip(),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
    }

    rounds = []
    with tempfile.TemporaryDirectory(prefix="kcge-parent-") as parent_tree:
        export(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": str(ROOT)}
        for i in range(ROUNDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            row = {"first": order[0]}
            for side in order:
                row[side] = peaks(trees[side], SEED, args.cycles)
            rounds.append(row)
            print(json.dumps(row), file=sys.stderr, flush=True)

    median = {side: [statistics.median(r[side][c] for r in rounds) for c in range(args.cycles)]
              for side in ("parent", "change")}
    facts = machine_facts(SimpleNamespace(workload="zoo-prep", seed=SEED))
    report = {
        "parent_revision": parent_rev,
        "change": change,
        "seed": SEED,
        "cycles": args.cycles,
        "facts": {k: v for k, v in facts.items() if k not in ("workload", "seed", "git_revision")},
        "median_peak_mb": {
            **median,
            "ratio": [c / p for p, c in zip(median["parent"], median["change"])],
        },
        "rounds": rounds,
    }
    (ROOT / "BENCH_rss.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
