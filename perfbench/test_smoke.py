"""Smoke test of the benchmark on tiny inputs. It runs every request kind,
every output check and the traced path, and asserts no timing.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    record, result = result_of(run(workload, 0))
    assert result["correct"] is True and result["failed"] == 0, record["failures"]
    assert result["attempted"] == record["requests_per_cycle"] * record["cycles"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert record["facts"]["seed"] == 3 and record["facts"]["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_counts_repeat(workload):
    record, result = result_of(run(workload, 1))
    again, _ = result_of(run(workload, 1))
    assert result["correct"] is True and record["counts_repeat"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert record["counts_per_cycle"] == again["counts_per_cycle"]


def test_layers_are_seen_where_predicted():
    _, haar = result_of(run("haar-scan", 1))
    assert haar["metrics"]["classify.scan_fraction"]["value"] == 1.0
    assert haar["metrics"]["core.rank_calls"]["value"] > 0
    _, zoo = result_of(run("zoo-prep", 1))
    for name in ("states.build_ms", "states.assemble_ms", "network.bound_ms", "core.decode_ms",
                 "core.basis_completion_ms", "core.expand_ms", "disentangle.channel_ms",
                 "witness.werner_ms", "witness.curves_ms"):
        assert zoo["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("haar-scan", 0, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def _spoil(kind, out):
    """A wrong answer of the same shape as the request's real output."""
    if kind == "werner":
        return out + 1e-6
    if kind == "channel":
        return type("Rho", (), {"matrix": out.matrix + 1e-6})()
    code, text = out
    if kind == "fig4":
        head, first, *rest = text.split("\n")
        cells = first.split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        return code, "\n".join([head, ",".join(cells)] + rest)
    if kind == "generate":
        return 1, text
    obj = json.loads(text)
    spoilers = {
        "classify": lambda o: o.update(max_cge_level=o["max_cge_level"] + 1),
        "network": lambda o: o.update(cge_upper_bound=-1),
        "cross-check": lambda o: o.update(classifier_level=o["classifier_level"] + 1),
        "disentangle": lambda o: o.update(freed_fidelity=0.5),
        "decompose": lambda o: o.update(reconstruction_error=1e-3),
        "witness": lambda o: o.update(radius=o["radius"] + 1e-6),
    }
    spoilers[kind](obj)
    return code, json.dumps(obj)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_check_rejects_a_wrong_output(workload, tmp_path):
    seen = set()
    for req in workloads.build(workload, 5, str(tmp_path), tiny=True):
        out = req.call()
        assert req.check(out), req.kind
        if req.kind not in seen:
            seen.add(req.kind)
            assert not req.check(_spoil(req.kind, out)), req.kind
            if isinstance(out, tuple):
                assert not req.check((2, out[1])), req.kind
    assert seen


def test_workload_names_agree():
    import run as runner

    assert WORKLOADS == list(runner.WORKLOADS) == list(workloads.WORKLOAD_INPUTS)


def test_expected_levels_match_known_values():
    import expect

    assert expect.haar_level((2,) * 12) == 6
    assert expect.haar_level((2, 3) * 5) < 5
    assert expect.dicke_level(16, 2, 8) == 2
    assert expect.dicke_support(4, 2, 2) == 6
    # A 4-cycle of pairs: adjacent parties share 2 crossing edges of rank 2
    # against a threshold of 16 / 4.
    n, edges = workloads.cycle(4)
    assert workloads.network_level(n, edges) == 1
    u = workloads.unitary(np.random.default_rng(0), 4)
    assert np.allclose(u.conj().T @ u, np.eye(4))
