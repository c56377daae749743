"""Interleaved parent/change pairs of the kcge benchmark.

    python3 bench/pairs.py --workload haar-scan --pairs 10 [--parent HEAD]

Runs ``perfbench/run.py --trace 0`` on the committed files of a parent
revision, exported with ``git archive`` into a temporary directory, and on
the working tree. Each pair uses a fresh seed for both sides, and the side
that runs first alternates from pair to pair. The run length is
``run_seconds`` from ``BENCHMARK.json``. The result goes to
``BENCH_<workload>.json``: both revisions, the machine facts of the record
line, every pair's metrics and per-request median latencies, per metric the
median and quartiles of each side and the number of pairs the change won,
and per request the median over pairs of each side's median latency. Per
metric and per request it also writes ``pair_ratio_median``, the median
over pairs of the within-pair ratio change / parent: the two runs of a
pair are close in time, so drift of the machine's speed between pairs
cancels in it. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(revision, dest):
    """Write the committed files of ``revision`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", revision))) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=60 * seconds + 600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"benchmark failed in {tree}:\n{done.stderr}")
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    return record["facts"], {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "p50_ms_by_request": record["p50_ms_by_request"],
    }


def summarize(pairs):
    """Median, quartiles and wins of the change, and the median within-pair
    ratio, per end-to-end metric."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        side = {}
        for label, values in (("parent", parent), ("change", change)):
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            side[label] = {"median": median, "q1": q1, "q3": q3}
        delta = side["change"]["median"] - side["parent"]["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **side,
            "change_wins": wins,
            "change_losses": losses,
            "median_ratio": side["change"]["median"] / side["parent"]["median"],
            "pair_ratio_median": statistics.median(c / p for p, c in zip(parent, change)),
            "median_gap_exceeds_parent_iqr": abs(delta) > side["parent"]["q3"] - side["parent"]["q1"],
        }
    return out


def summarize_requests(pairs):
    """Per request kind and label: median over pairs of each side's median
    latency in ms, their ratio and the median within-pair ratio. A request
    with no successful run on a side in some pair is left out."""
    out = {}
    for label in pairs[0]["change"]["p50_ms_by_request"]:
        parent = [p["parent"]["p50_ms_by_request"].get(label) for p in pairs]
        change = [p["change"]["p50_ms_by_request"].get(label) for p in pairs]
        if None in parent or None in change:
            continue
        within = statistics.median(c / p for p, c in zip(parent, change))
        parent, change = statistics.median(parent), statistics.median(change)
        out[label] = {"parent": parent, "change": change, "ratio": change / parent,
                      "pair_ratio_median": within}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    seconds = SPEC["run_seconds"]
    parent_rev = git("rev-parse", args.parent).decode().strip()
    change = {
        "head": git("rev-parse", "HEAD").decode().strip(),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
    }

    pairs, facts = [], None
    with tempfile.TemporaryDirectory(prefix="kcge-parent-") as parent_tree:
        export(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": str(ROOT)}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run_facts, pair[side] = run_once(trees[side], args.workload, seed, seconds)
                if side == "change":
                    facts = run_facts
            pairs.append(pair)
            print(json.dumps(pair), file=sys.stderr, flush=True)

    facts = {k: v for k, v in facts.items() if k not in ("seed", "git_revision")}
    report = {
        "workload": args.workload,
        "run_seconds": seconds,
        "parent_revision": parent_rev,
        "change": change,
        "facts": facts,
        "summary": summarize(pairs),
        "p50_ms_by_request": summarize_requests(pairs),
        "pairs": pairs,
    }
    (ROOT / f"BENCH_{args.workload}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
