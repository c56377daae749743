"""Byte-identity check of every benchmark CLI request against a parent revision.

    python3 bench/same_output.py --parent HEAD [--seeds 1,2,9]

Exports the committed files of the parent revision with ``git archive``
into a temporary directory, as ``bench/pairs.py`` does. Then, for that tree
and for the working tree, in a fresh interpreter each, builds the request
cycles of both workloads of ``perfbench/workloads.py`` at every seed and
runs each request. For one that calls ``kcge.cli.main`` it records the
exit code, a hash of stdout and a hash of every file in the cycle's
directory that the request created or changed; for a library request
(``werner``, ``channel``) it records a hash of its result, the ``repr`` of
a float or the bytes of a density matrix. It then runs ``kcge
classify`` on a fixed near-cutoff corpus of even-n states (see
``near_cutoff_states``), at the default cutoff and at 1e-6, and records
the same. Prints one line per request that differs and a summary; exits 1
when any request differs. Standard library only, apart from numpy in the
corpus.

What it does not catch: a rank kernel that also stores the ranks its SVD
decided in ``PureState.rank_certificates`` changes no request here, near-cutoff
corpus included (a kernel that stored ``(rank, min(mat.shape))`` after its
SVD gave 0 differing requests). Two tests in ``tests/test_classify.py``
fail on it: ``TestClassify::test_top_level_first_matches_upward_scan`` and
``TestCertificateRecord::test_a_pass_decided_by_the_svd_is_never_stored``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from pairs import ROOT, export, git

WORKLOADS = ("haar-scan", "zoo-prep")
NEAR_CUTOFF_SEED = 2200
NEAR_CUTOFF_TOLS = (1e-9, 1e-6)
NEAR_CUTOFF = "near-cutoff"  # key prefix of the corpus's requests
LIBRARY = "result"  # the one field of a library request's record


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


def near_cutoff_states():
    """(label, dims, amplitudes) of fixed even-n states whose cuts sit at the
    rank cutoff: a product of Haar states on ``split`` random parties and
    on the rest, plus a Haar admixture of 0.5 to 2 times a cutoff in
    NEAR_CUTOFF_TOLS, for (2,)*6, (2, 3)*3 and (3,)*4 with split 2 and
    n/2. Built with numpy alone, so both trees classify the same bytes."""
    import numpy as np

    rng = np.random.default_rng(NEAR_CUTOFF_SEED)

    def haar(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z / np.linalg.norm(z)

    out = []
    for dims in ((2,) * 6, (2, 3) * 3, (3,) * 4):
        n = len(dims)
        for split in sorted({2, n // 2}):
            for scale in NEAR_CUTOFF_TOLS:
                for factor in (0.5, 0.9, 1.1, 2.0):
                    perm = rng.permutation(n)
                    left = [dims[p] for p in perm[:split]]
                    right = [dims[p] for p in perm[split:]]
                    planted = np.multiply.outer(
                        haar(math.prod(left)).reshape(left), haar(math.prod(right)).reshape(right)
                    ).transpose(np.argsort(perm))
                    amps = planted.reshape(-1) + factor * scale * haar(math.prod(dims))
                    amps /= np.linalg.norm(amps)
                    label = f"{'x'.join(map(str, dims))} split={split} {factor}x{scale:g}"
                    out.append((label, dims, amps))
    return out


def run_request(argv, work: Path) -> dict:
    """Exit code, stdout hash and hashes of the files written under ``work``
    of one ``kcge.cli.main(argv)``."""
    from kcge import cli

    before = stats(work)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001  (recorded, then compared)
            code = f"raised {type(exc).__name__}"
    written = sorted(p for p, st in stats(work).items() if before.get(p) != st)
    return {
        "exit": code,
        "stdout": digest(stdout.getvalue().encode()),
        "files": {str(p.relative_to(work)): digest(p.read_bytes()) for p in written},
    }


def run_library(call) -> dict:
    """Hash of the result of one library request: the ``repr`` of a float,
    or the bytes of a density matrix."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001  (recorded, then compared)
        return {LIBRARY: f"raised {type(exc).__name__}"}
    matrix = getattr(value, "matrix", None)
    return {LIBRARY: digest(repr(float(value)).encode() if matrix is None else matrix.tobytes())}


def hash_tree(seeds: list[int]) -> dict[str, dict]:
    """Run the CLI and library requests of this checkout, keyed by workload,
    seed, position in the cycle, kind and label, then the near-cutoff corpus,
    keyed by NEAR_CUTOFF, state label and cutoff. Run with ``src/`` and
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
                    key = f"{workload} seed={seed} #{i} {req.kind} {req.label}".rstrip()
                    if argv is None:
                        results[key] = run_library(req.call)
                    else:
                        results[key] = run_request(argv, work)
    with tempfile.TemporaryDirectory(prefix="kcge-same-") as work:
        work = Path(work)
        for label, dims, amps in near_cutoff_states():
            path = work / "state.json"
            amps = [[float(a.real), float(a.imag)] for a in amps]
            path.write_text(json.dumps({"dims": list(dims), "amps": amps}))
            for tol in NEAR_CUTOFF_TOLS:
                argv = ["classify", "--state", str(path), "--tol", repr(tol)]
                results[f"{NEAR_CUTOFF} {label} tol={tol:g}"] = run_request(argv, work)
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
        fields = [f for f in ("exit", "stdout", "files", LIBRARY)
                  if (parent.get(key) or {}).get(f) != (change.get(key) or {}).get(f)]
        print(f"DIFFERS {key}: {', '.join(fields)}")

    def kind(key):
        if key.startswith(NEAR_CUTOFF):
            return NEAR_CUTOFF
        return LIBRARY if LIBRARY in (change.get(key) or parent.get(key)) else "cli"

    total, differing = Counter(map(kind, change)), Counter(map(kind, differ))
    print(f"{total['cli']} CLI requests against {parent_rev[:12]} (seeds {args.seeds}): "
          f"{differing['cli']} differ; {total[NEAR_CUTOFF]} near-cutoff classify requests: "
          f"{differing[NEAR_CUTOFF]} differ; {total[LIBRARY]} library requests: "
          f"{differing[LIBRARY]} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
