"""Byte-identity check of every benchmark CLI request against a parent revision.

    python3 bench/same_output.py --parent HEAD [--seeds 1,2,9]

Exports the committed files of the parent revision with ``git archive``
into a temporary directory, as ``bench/pairs.py`` does. Then, for that tree
and for the working tree, in a fresh interpreter each, builds the request
cycles of both workloads of ``perfbench/workloads.py`` at every seed and
runs each request that calls ``kcge.cli.main``. For each one it records
the exit code, a hash of stdout and a hash of every file in the cycle's
directory that the request created or changed. Prints one line per request
that differs and a summary; exits 1 when any request differs. Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, export, git

WORKLOADS = ("haar-scan", "zoo-prep")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stats(directory: Path) -> dict[Path, tuple[int, int]]:
    """Modification time and size of every file under ``directory``."""
    out = {}
    for p in directory.rglob("*"):
        if p.is_file():
            st = p.stat()
            out[p] = (st.st_mtime_ns, st.st_size)
    return out


def hash_tree(seeds: list[int]) -> dict[str, dict]:
    """Run the CLI requests of this checkout; keyed by workload, seed,
    position in the cycle, kind and label. Run with ``src/`` and
    ``perfbench/`` on the import path."""
    import workloads

    results = {}
    for workload in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="kcge-same-") as work:
                work = Path(work)
                requests = workloads.build(workload, seed, str(work))
                for i, req in enumerate(requests):
                    # cli_request wraps ``lambda: run_cli(argv)``.
                    argv = inspect.getclosurevars(req.call).nonlocals.get("argv")
                    if argv is None:
                        continue
                    before = stats(work)
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout):
                        try:
                            code = workloads.cli.main(argv)
                        except Exception as exc:  # noqa: BLE001  (recorded, then compared)
                            code = f"raised {type(exc).__name__}"
                    written = sorted(p for p, st in stats(work).items() if before.get(p) != st)
                    key = f"{workload} seed={seed} #{i} {req.kind} {req.label}".rstrip()
                    results[key] = {
                        "exit": code,
                        "stdout": digest(stdout.getvalue().encode()),
                        "files": {str(p.relative_to(work)): digest(p.read_bytes()) for p in written},
                    }
    return results


def run_tree(tree: str, seeds: list[int]) -> dict[str, dict]:
    done = subprocess.run(
        [sys.executable, __file__, "--hash-tree", tree, "--seeds", ",".join(map(str, seeds))],
        cwd=tree, capture_output=True, text=True, timeout=3600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"request run failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seeds", default="1,2,9", help="comma-separated workload seeds")
    parser.add_argument("--hash-tree", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    if args.hash_tree is not None:
        sys.path[:0] = [str(Path(args.hash_tree) / "src"), str(Path(args.hash_tree) / "perfbench")]
        json.dump(hash_tree(seeds), sys.stdout)
        return 0

    parent_rev = git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="kcge-parent-") as parent_tree:
        export(parent_rev, parent_tree)
        parent = run_tree(parent_tree, seeds)
    change = run_tree(str(ROOT), seeds)

    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    for key in differ:
        fields = [f for f in ("exit", "stdout", "files")
                  if (parent.get(key) or {}).get(f) != (change.get(key) or {}).get(f)]
        print(f"DIFFERS {key}: {', '.join(fields)}")
    print(f"{len(change)} CLI requests against {parent_rev[:12]} (seeds {args.seeds}): "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
