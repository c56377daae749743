"""Command-line interface: outputs, exit codes, determinism."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kcge import (
    __version__,
    PartySubset,
    PureState,
    Tolerance,
    apply_local_operator,
    build_disentangling_unitary,
    family_from_dict,
    ghz,
    haar_state,
    haar_unitary,
    network_joint_state,
    partial_trace,
    schmidt,
    state_from_dict,
    state_to_dict,
    two_depth_decompose,
)
from kcge import cli
from kcge.cli import _COMMANDS, _emit_json, main
from kcge.network import NetworkGraph


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GHZ3_FAMILY = {"family": "ghz", "n": 3, "d": 2, "a": [2**-0.5, 2**-0.5]}
CHAIN4 = {"n": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}
K6 = {"n": 6, "edges": [[i, j, 1] for i in range(6) for j in range(i + 1, 6)]}
SPECIAL = (-0.0, 1.0, 1e-300, 5e-324, 1e16, 1 / 3)
TOL = Tolerance(rank_cutoff=1e-9)


# The oracle for array output: json.dumps of the nested-list forms, which
# is how the CLI wrote states and matrices before it rendered them itself.


def legacy_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def legacy_matrix(mat):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat)]


def legacy_state(dims, amps):
    return state_to_dict(SimpleNamespace(dims=tuple(dims), amps=np.asarray(amps)))


def legacy_disentangle(state, cut, free):
    unitary = build_disentangling_unitary(state, cut, free, TOL)
    output = apply_local_operator(state, unitary, cut)
    fidelity = float(np.real(partial_trace(output, PartySubset((free,), state.n)).matrix[0, 0]))
    gram = unitary.conj().T @ unitary
    return {
        "cut": list(cut.members),
        "free": free,
        "unitary": legacy_matrix(unitary),
        "residual": 1.0 - fidelity,
        "freed_fidelity": fidelity,
        "unitarity_error": float(np.max(np.abs(gram - np.eye(gram.shape[0])))),
        "output_state": state_to_dict(output),
    }


def legacy_decompose(state):
    dec = two_depth_decompose(state, TOL, pivot=0, freed=1)
    layers = {
        name: {"parties": list(parties.members), "matrix": legacy_matrix(mat)}
        for name, parties, mat in (
            ("layer1", dec.layer1_parties, dec.layer1),
            ("layer2", dec.layer2_parties, dec.layer2),
        )
    }
    return {
        "pivot": dec.pivot,
        "freed": dec.freed,
        "degenerate": dec.degenerate,
        **layers,
        "reconstruction_error": float(np.max(np.abs(dec.prepare(state.dims).amps - state.amps))),
    }


class TestGenerateClassify:
    def test_generate_then_classify(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", GHZ3_FAMILY)
        code, out, err = run(capsys, ["generate", "--family", fam])
        assert code == 0 and err == ""
        state_obj = json.loads(out)
        assert state_from_dict(state_obj).allclose(ghz(3, 2, [2**-0.5, 2**-0.5]))
        state_path = write_json(tmp_path / "state.json", state_obj)
        code, out, _ = run(capsys, ["classify", "--state", state_path])
        assert code == 0
        report = json.loads(out)
        assert report["max_cge_level"] == 1

    def test_emitted_state_reingests_losslessly(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", {"family": "dicke", "n": 4, "d": 2, "s": 2})
        code, out, _ = run(capsys, ["generate", "--family", fam])
        first = state_from_dict(json.loads(out))
        round_tripped = state_from_dict(json.loads(json.dumps(state_to_dict(first))))
        assert np.array_equal(first.amps, round_tripped.amps)

    def test_classify_zeros(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", {"family": "product", "dims": [2, 2, 2]})
        code, out, _ = run(capsys, ["generate", "--family", fam])
        state_path = write_json(tmp_path / "state.json", json.loads(out))
        code, out, _ = run(capsys, ["classify", "--state", state_path])
        assert code == 0
        assert json.loads(out)["max_cge_level"] == 0

    def test_byte_deterministic_output(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", GHZ3_FAMILY)
        _, out, _ = run(capsys, ["generate", "--family", fam])
        state_path = write_json(tmp_path / "state.json", json.loads(out))
        _, out1, _ = run(capsys, ["classify", "--state", state_path])
        _, out2, _ = run(capsys, ["classify", "--state", state_path])
        assert out1 == out2

    def test_generate_network_with_edge_states(self, tmp_path, capsys):
        rng = np.random.default_rng(2718)
        graph = {"n": 3, "edges": [[0, 1, 1, 3], [1, 2, 2]]}
        states = [state_to_dict(haar_state(dims, rng)) for dims in ((3, 3), (2, 2), (2, 2))]
        spec = {"family": "network", "graph": graph, "edge_states": states}
        code, out, err = run(capsys, ["generate", "--family", write_json(tmp_path / "fam.json", spec)])
        assert code == 0 and err == ""
        want = network_joint_state(
            NetworkGraph.from_dict(graph), [state_from_dict(s) for s in states]
        )
        obj = json.loads(out)
        assert obj["dims"] == list(want.dims) == [3, 12, 4]
        assert np.array_equal(np.array(obj["amps"]), np.column_stack([want.amps.real, want.amps.imag]))

    def test_out_flag_writes_file(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", GHZ3_FAMILY)
        target = tmp_path / "state.json"
        code, out, _ = run(capsys, ["generate", "--family", fam, "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["dims"] == [2, 2, 2]

    def test_generate_honours_budget(self, tmp_path, capsys):
        # Each family is 256-dimensional, so --budget-dim 16 refuses it; the
        # 2^40 product is refused at the default budget before allocating.
        families = [
            {"family": "ghz", "n": 8, "d": 2, "a": [2**-0.5, 2**-0.5]},
            {"family": "w_type", "n": 8, "a": [1 / 3] * 9},
            {"family": "dicke", "n": 8, "d": 2, "s": 4},
            {"family": "product", "dims": [2] * 8},
        ]
        for spec in families:
            fam = write_json(tmp_path / "fam.json", spec)
            code, out, err = run(capsys, ["generate", "--family", fam])
            assert code == 0 and len(json.loads(out)["amps"]) == 256
            code, out, err = run(capsys, ["generate", "--family", fam, "--budget-dim", "16"])
            assert code == 3 and out == ""
            assert f"{spec['family']}: total dimension exceeds budget 16" in err
        fam = write_json(tmp_path / "fam.json", {"family": "product", "dims": [2] * 40})
        code, out, err = run(capsys, ["generate", "--family", fam])
        assert code == 3 and out == ""
        assert f"total dimension exceeds budget {2**16} (the first 17 dims already give {2**17})" in err

    def test_huge_family_is_refused_at_once(self, tmp_path, capsys):
        spec = {"family": "ghz", "n": 10**6, "d": 2, "a": [2**-0.5, 2**-0.5]}
        fam = write_json(tmp_path / "fam.json", spec)
        start = time.perf_counter()
        code, out, err = run(capsys, ["generate", "--family", fam])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "ghz: total dimension exceeds budget" in err


class TestBudgetDim:
    """One --budget-dim bounds generate, classify and cross-check, and a
    refusal names the budget that was passed."""

    # Each family is 2^17-dimensional, except the network, whose squared
    # edge dims cannot make 2^17: four qutrit and two qubit edges give
    # 3^8 * 2^4 = 104976. All exceed the default 2^16.
    FAMILIES = [
        {"family": "ghz", "n": 17, "d": 2, "a": [2**-0.5, 2**-0.5]},
        {"family": "w_type", "n": 17, "a": [18**-0.5] * 18},
        {"family": "dicke", "n": 17, "d": 2, "s": 1},
        {
            "family": "network",
            "graph": {
                "n": 7,
                "edges": [[i, i + 1, 1, 3 if i < 4 else 2] for i in range(6)],
            },
        },
        {"family": "product", "dims": [2] * 17},
    ]

    def test_generate_uses_the_budget_given(self, tmp_path, capsys):
        target = tmp_path / "state.json"
        for spec in self.FAMILIES:
            fam = write_json(tmp_path / "fam.json", spec)
            argv = ["generate", "--family", fam, "--out", str(target)]
            code, out, err = run(capsys, argv)
            assert code == 3 and out == ""
            assert f"total dimension exceeds budget {2**16} " in err
            code, out, err = run(capsys, argv + ["--budget-dim", str(2**17)])
            assert code == 0 and out == "" and err == ""
            state = json.loads(target.read_text())
            assert 2**16 < math.prod(state["dims"]) == len(state["amps"]) <= 2**17

    def test_cross_check_classifies_under_the_budget_given(self, tmp_path, capsys):
        chain10 = {"n": 10, "edges": [[i, i + 1, 1] for i in range(9)]}
        graph = write_json(tmp_path / "g.json", chain10)
        code, out, err = run(capsys, ["cross-check", "--graph", graph])
        assert code == 3 and f"exceeds budget {2**16} " in err
        code, out, _ = run(capsys, ["cross-check", "--graph", graph, "--budget-dim", str(2**18)])
        assert code == 0
        record = json.loads(out)
        assert record["classifier_level"] == 1 and record["consistent"] is True

    def test_refusal_names_the_budget_passed(self, tmp_path, capsys):
        ghz5 = {"family": "ghz", "n": 5, "d": 2, "a": [2**-0.5, 2**-0.5]}
        fam = write_json(tmp_path / "fam.json", ghz5)
        state = write_json(tmp_path / "state.json", state_to_dict(family_from_dict(ghz5).build()))
        graph = write_json(tmp_path / "g.json", CHAIN4)
        for argv, what in (
            (["generate", "--family", fam], "ghz"),
            (["classify", "--state", state], "classify"),
            (["cross-check", "--graph", graph], "network_joint_state"),
        ):
            code, out, err = run(capsys, argv + ["--budget-dim", "16"])
            assert code == 3 and out == ""
            assert err.startswith(f"budget refused: {what}: total dimension exceeds budget 16 ")


class TestDisentangleDecompose:
    def test_disentangle_ghz(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", GHZ3_FAMILY)
        _, out, _ = run(capsys, ["generate", "--family", fam])
        state_path = write_json(tmp_path / "state.json", json.loads(out))
        code, out, _ = run(
            capsys, ["disentangle", "--state", state_path, "--cut", "1,2", "--free", "1"]
        )
        assert code == 0
        result = json.loads(out)
        assert result["residual"] < 1e-9
        assert result["unitarity_error"] < 1e-9
        freed_state = state_from_dict(result["output_state"])
        assert freed_state.dims == (2, 2, 2)

    def test_disentangle_rank_violation_is_validation_error(self, tmp_path, capsys):
        # Crossing pairs: cut {0, 1} cannot free party 0.
        net = {"family": "network", "graph": {"n": 4, "edges": [[0, 2, 1], [1, 3, 1]]}}
        fam = write_json(tmp_path / "fam.json", net)
        _, out, _ = run(capsys, ["generate", "--family", fam])
        state_path = write_json(tmp_path / "state.json", json.loads(out))
        code, _, err = run(
            capsys, ["disentangle", "--state", state_path, "--cut", "0,1", "--free", "0"]
        )
        assert code == 2
        assert "not disentanglable" in err

    def test_decompose_reconstructs(self, tmp_path, capsys):
        fam = write_json(tmp_path / "fam.json", GHZ3_FAMILY)
        _, out, _ = run(capsys, ["generate", "--family", fam])
        state_path = write_json(tmp_path / "state.json", json.loads(out))
        code, out, _ = run(capsys, ["decompose", "--state", state_path])
        assert code == 0
        result = json.loads(out)
        assert result["reconstruction_error"] < 1e-9
        assert result["layer1"]["parties"] == [0, 2]
        assert result["layer2"]["parties"] == [1, 2]


    def test_decompose_rank_two_state_with_round_off_tail(self, tmp_path, capsys):
        # Rank 2 across party 0 fits the capacity dim(rest) = 2, though the
        # SVD returns four positive coefficients.
        rng = np.random.default_rng(5)
        u, v = haar_unitary(4, rng), haar_unitary(4, rng)
        mat = u[:, :2] @ np.diag(np.sqrt([0.64, 0.36])) @ v[:, :2].T
        state = PureState((4, 2, 2), mat.reshape(-1))
        path = write_json(tmp_path / "state.json", state_to_dict(state))
        loaded = state_from_dict(json.loads(Path(path).read_text()))
        assert schmidt(loaded, PartySubset((0,), 3)).coefficients.size == 4
        code, out, _ = run(capsys, ["decompose", "--state", path])
        assert code == 0
        assert json.loads(out)["reconstruction_error"] <= 1e-12

    def test_decompose_refuses_a_freed_party_out_of_range(self, tmp_path, capsys):
        ghz2 = {"family": "ghz", "n": 2, "d": 2, "a": [2**-0.5, 2**-0.5]}
        _, out, _ = run(capsys, ["generate", "--family", write_json(tmp_path / "f.json", ghz2)])
        path = write_json(tmp_path / "state.json", json.loads(out))
        for freed in ("7", "-1", "0"):
            code, out, err = run(capsys, ["decompose", "--state", path, "--freed", freed])
            assert code == 2
            assert out == ""
            assert "invalid roles" in err


class TestArrayJson:
    """States and matrices are written from numpy, and the text must equal
    the oracle's byte for byte."""

    def emitted(self, capsys, obj):
        _emit_json(obj, None)
        return capsys.readouterr().out

    def test_special_values_in_both_parts(self, capsys):
        values = SPECIAL + tuple(-x for x in SPECIAL)
        amps = np.array([complex(re, im) for re in values for im in values])
        text = self.emitted(capsys, {"dims": [amps.size], "amps": amps})
        assert text == legacy_text(legacy_state([amps.size], amps))
        mat = amps.reshape(len(values), len(values))
        assert self.emitted(capsys, {"unitary": mat}) == legacy_text({"unitary": legacy_matrix(mat)})
        for value in ("-0.0", "1.0", "1e-300", "5e-324", "1e+16", repr(1 / 3)):
            assert f" {value},\n" in text and f" {value}\n" in text
        for x in amps.tolist():
            assert self.emitted(capsys, {"z": np.array(x)}) == legacy_text({"z": [x.real, x.imag]})

    def test_state_shapes(self, capsys):
        sparse = np.zeros(24, dtype=complex)
        sparse[[0, 1, 2, 7, 22, 23]] = [0.5, -0.0, 1e-300, complex(0.0, -0.0), 0.5j, -0.5]
        states = [
            SimpleNamespace(dims=(1,), amps=np.array([1.0 + 0j])),
            SimpleNamespace(dims=(0,), amps=np.zeros(0, dtype=complex)),
            haar_state((2, 3, 4), np.random.default_rng(7)),
            ghz(3, 2, [2**-0.5, 2**-0.5]),
            SimpleNamespace(dims=(2, 3, 4), amps=sparse),
            SimpleNamespace(dims=(2, 3, 4), amps=np.zeros(24, dtype=complex)),
            SimpleNamespace(dims=(2, 2), amps=np.array([0j, 1.0, complex(-0.0, 0.0), 0j])),
            SimpleNamespace(dims=(2,), amps=np.array([1e-300 + 0j, 0j])),
        ]
        for st in states:
            text = self.emitted(capsys, {"dims": list(st.dims), "amps": st.amps})
            assert text == legacy_text(state_to_dict(st))

    def test_real_non_square_and_empty_matrices(self, capsys):
        rng = np.random.default_rng(8)
        for shape in ((3, 5), (5, 2), (1, 4), (4, 1), (1, 1), (0, 3), (3, 0)):
            mat = rng.standard_normal(shape)
            text = self.emitted(capsys, {"matrix": mat})
            assert text == legacy_text({"matrix": legacy_matrix(mat)})
            assert text.count("\n        0.0\n") == mat.size
            mat[rng.random(shape) < 0.5] = 0.0
            for sparse in (mat, np.zeros(shape)):
                text = self.emitted(capsys, {"matrix": sparse})
                assert text == legacy_text({"matrix": legacy_matrix(sparse)})

    def test_non_finite_entries_print_as_json_does(self, capsys):
        nan, inf = float("nan"), float("inf")
        mat = np.array(
            [[nan, inf, -inf], [complex(1.0, nan), complex(-inf, inf), 0.5], [0.0, nan, 0.0]]
        )
        text = self.emitted(capsys, {"m": mat})
        assert text == legacy_text({"m": legacy_matrix(mat)})
        numbers = {line.strip().rstrip(",") for line in text.splitlines()}
        assert {"NaN", "Infinity", "-Infinity"} <= numbers
        assert not numbers & {"nan", "inf", "-inf"}

    def test_other_values_go_through_json_dumps(self, capsys):
        other = {"z": [1, {"b": None, "a": True}], "x": 0.1, "s": 'é"\n', "cut": [], "e": {}}
        for mat in (
            np.array([[0.5 + 0.25j, -1j], [1 / 3, 2.0]]),
            np.array([[0, 0.5, 0], [complex(0.0, -0.0), 0, 0], [0, 0, 1e-300], [0, 0, 0]]),
        ):
            obj = {**other, "layer": {"parties": [0, 2], "matrix": mat}}
            legacy = {**other, "layer": {"parties": [0, 2], "matrix": legacy_matrix(mat)}}
            assert self.emitted(capsys, obj) == legacy_text(legacy)


class TestArrayCommandBytes:
    """generate, disentangle and decompose print the oracle's bytes, and
    --out writes the same bytes."""

    def outputs(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        target = tmp_path / "out.json"
        code, silent, _ = run(capsys, argv + ["--out", str(target)])
        assert code == 0 and silent == ""
        assert target.read_bytes() == out.encode("utf-8")
        return out

    def state_file(self, tmp_path, state):
        path = write_json(tmp_path / "state.json", state_to_dict(state))
        return path, state_from_dict(json.loads(Path(path).read_text()))

    def test_generate(self, tmp_path, capsys):
        families = [
            GHZ3_FAMILY,
            {"family": "dicke", "n": 4, "d": 3, "s": 2},
            {"family": "product", "dims": [2, 3, 4]},
            {"family": "network", "graph": CHAIN4},
            {"family": "w_type", "n": 8, "a": [1 / 3] * 9},
        ]
        for spec in families:
            fam = write_json(tmp_path / "fam.json", spec)
            out = self.outputs(capsys, tmp_path, ["generate", "--family", fam])
            assert out == legacy_text(state_to_dict(family_from_dict(spec).build()))

    def test_disentangle(self, tmp_path, capsys):
        mixed = np.zeros(24, dtype=complex)
        mixed[[0, 17]] = 2**-0.5  # |000> + |111> on dims (2, 3, 4)
        cases = [
            (ghz(3, 2, [2**-0.5, 2**-0.5]), [1, 2], 1),
            (PureState((2, 3, 4), mixed), [1, 2], 1),
            (PureState((2, 3, 4), mixed), [0, 2], 2),
        ]
        for state, cut, free in cases:
            path, loaded = self.state_file(tmp_path, state)
            argv = ["disentangle", "--state", path, "--cut", ",".join(map(str, cut))]
            out = self.outputs(capsys, tmp_path, argv + ["--free", str(free)])
            legacy = legacy_disentangle(loaded, PartySubset.of(cut, loaded.n), free)
            assert out == legacy_text(legacy)

    def test_decompose(self, tmp_path, capsys):
        for state in (ghz(3, 2, [2**-0.5, 2**-0.5]), haar_state((2, 3, 4), np.random.default_rng(9))):
            path, loaded = self.state_file(tmp_path, state)
            out = self.outputs(capsys, tmp_path, ["decompose", "--state", path])
            assert out == legacy_text(legacy_decompose(loaded))


class TestWitnessCommands:
    GHZ_A, W4_A = ["--a", "0.6,0.8"], ["--a", ",".join([repr(5**-0.5)] * 5)]

    def test_ghz_witness_with_werner(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "witness", "ghz",
                "--n", "3", "--d", "2",
                "--a", f"{2**-0.5},{2**-0.5}",
                "--werner",
            ],
        )
        assert code == 0
        result = json.loads(out)
        assert result["radius"] == 0.5
        assert abs(result["werner_visibility_threshold"] - (8 * 0.5 + 1) / 9) < 1e-15

    def test_w4_witness_radius(self, capsys):
        theta = math.pi / 4
        a = [math.cos(theta) / 2] * 4 + [math.sin(theta)]
        code, out, _ = run(
            capsys,
            ["witness", "w4", "--level", "2", "--a", ",".join(str(x) for x in a)],
        )
        assert code == 0
        result = json.loads(out)
        assert abs(result["radius"] - 0.75) < 1e-12

    def test_w4_witness_reports_exact_radius(self, capsys):
        # At equal weights the level-1 closed form (0.4) is below the exact
        # radius (0.6, a product state across party 0); at level 2 they agree.
        equal = ",".join([repr(5**-0.5)] * 5)
        radii = {}
        for level in (1, 2):
            code, out, _ = run(capsys, ["witness", "w4", "--level", str(level), "--a", equal])
            assert code == 0
            result = json.loads(out)
            radii[level] = (result["radius"], result["exact_radius"])
        assert abs(radii[1][0] - 0.4) < 1e-12 and abs(radii[1][1] - 0.6) < 1e-12
        assert abs(radii[2][0] - radii[2][1]) < 1e-12

    def test_ghz_needs_n(self, capsys):
        code, _, err = run(capsys, ["witness", "ghz", "--a", "1.0,0.0"])
        assert code == 2
        assert "needs --n" in err

    def test_non_finite_coefficient_is_named_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["witness", "ghz", "--n", "3", "--a", "nan,1"])
        assert code == 2 and out == ""
        assert "non-finite entries a[0]=nan" in err

    def test_fig4_header_and_quarter_pi_row(self, capsys):
        code, out, _ = run(capsys, ["fig4", "--grid", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,r2,r1,v2,v1"
        theta, r2, r1, v2, v1 = (float(x) for x in lines[1].split(","))
        assert abs(theta - math.pi / 4) < 1e-12
        assert abs(r2 - 0.75) < 1e-12
        assert abs(v2 - 13.0 / 17.0) < 1e-12

    def test_flags_of_the_other_family_are_refused(self, tmp_path, capsys):
        ghz_a, w4_a = self.GHZ_A, self.W4_A
        target = tmp_path / "w.json"
        for argv, flag in (
            (["ghz", "--n", "3", *ghz_a, "--level", "7"], "--level"),
            (["ghz", "--n", "3", *ghz_a, "--level", "2"], "--level"),
            (["w4", *w4_a, "--n", "9"], "--n"),
            (["w4", *w4_a, "--d", "5"], "--d"),
            (["w4", *w4_a, "--level", "1", "--d", "2"], "--d"),
        ):
            code, out, err = run(capsys, ["witness", *argv, "--out", str(target)])
            assert code == 2 and out == "" and not target.exists(), argv
            assert f"{flag} does not apply to the {argv[0]} witness" in err

    def test_unset_d_and_level_default_to_two(self, capsys):
        ghz_a, w4_a = self.GHZ_A, self.W4_A
        for short, full in (
            (["ghz", "--n", "3", *ghz_a], ["ghz", "--n", "3", *ghz_a, "--d", "2"]),
            (["w4", *w4_a], ["w4", *w4_a, "--level", "2"]),
        ):
            code, out, _ = run(capsys, ["witness", *short])
            assert code == 0 and (code, out) == run(capsys, ["witness", *full])[:2]

    def test_fig4_deterministic(self, capsys):
        _, a, _ = run(capsys, ["fig4", "--grid", "25"])
        _, b, _ = run(capsys, ["fig4", "--grid", "25"])
        assert a == b

    def test_fig4_grid_over_the_budget_is_refused(self, tmp_path, capsys, monkeypatch):
        rows = []
        monkeypatch.setattr(cli, "w4_visibility_curves", lambda thetas: rows.append(thetas))
        target = tmp_path / "curves.csv"
        over = cli.GRID_BUDGET + 1
        code, out, err = run(capsys, ["fig4", "--grid", str(over), "--out", str(target)])
        assert (code, out, rows) == (3, "", []) and not target.exists()
        assert f"grid of {over} points exceeds budget {cli.GRID_BUDGET}" in err

    def test_fig4_default_grid_runs(self, capsys):
        code, out, _ = run(capsys, ["fig4"])
        assert code == 0 and len(out.strip().split("\n")) == 201


class TestNetworkCommands:
    def test_chain_bound(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", CHAIN4)
        code, out, _ = run(capsys, ["network", "--graph", graph])
        assert code == 0
        assert json.loads(out)["cge_upper_bound"] == 1

    def test_network_with_cross_check(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", CHAIN4)
        code, out, _ = run(capsys, ["cross-check", "--graph", graph])
        assert code == 0
        record = json.loads(out)
        assert record["classifier_level"] == 1
        assert record["consistent"] is True

    def test_cross_check_command_with_explicit_states(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", {"n": 2, "edges": [[0, 1, 1]]})
        pair = {
            "dims": [2, 2],
            "amps": [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]],
        }
        states = write_json(tmp_path / "s.json", [pair])
        code, out, _ = run(
            capsys, ["cross-check", "--graph", graph, "--states", states]
        )
        assert code == 0
        assert json.loads(out)["classifier_level"] == 1

    def test_k6_cross_check_budget_refusal(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", K6)
        code, out, err = run(capsys, ["cross-check", "--graph", graph])
        assert code == 3
        assert "budget" in err
        # The bound itself is still available without the joint state.
        code, out, _ = run(capsys, ["network", "--graph", graph])
        assert code == 0
        assert json.loads(out)["cge_upper_bound"] == 2


    def test_refusals_come_before_the_unit_matrix(self, tmp_path, capsys, monkeypatch):
        def untouched(*_args):
            raise AssertionError("refusal must come before the edge units")

        monkeypatch.setattr(NetworkGraph, "units", property(untouched))
        monkeypatch.setattr(NetworkGraph, "edge_units", untouched)
        wide = write_json(tmp_path / "wide.json", {"n": 10**6, "edges": [[0, 1, 1]]})
        for command in ("network", "cross-check"):
            code, out, err = run(capsys, [command, "--graph", wide])
            assert code == 3
            assert out == ""
            assert "n=1000000 parties: its 1000000x1000000 edge-unit matrix" in err
        heavy = write_json(tmp_path / "heavy.json", {"n": 2, "edges": [[0, 1, 200000]]})
        code, out, err = run(capsys, ["cross-check", "--graph", heavy])
        assert code == 3
        assert out == ""
        assert "network_joint_state: total dimension exceeds budget" in err
        wide_edges = write_json(tmp_path / "bits.json", {"n": 2, "edges": [[0, 1, 10**5, 9]]})
        for command in ("network", "cross-check"):
            code, out, err = run(capsys, [command, "--graph", wide_edges])
            assert code == 3
            assert out == ""
            assert "exceeds budget 262144 (the first 1 edges already give 400000)" in err

    def test_mixed_dimension_k4_is_consistent(self, tmp_path, capsys):
        edges = [[0, 1, 1, 2], [0, 2, 1, 3], [0, 3, 2, 2], [1, 2, 2, 2], [1, 3, 1, 3], [2, 3, 1, 2]]
        graph = write_json(tmp_path / "g.json", {"n": 4, "edges": edges})
        code, out, _ = run(capsys, ["cross-check", "--graph", graph, "--budget-dim", "524288"])
        assert code == 0
        record = json.loads(out)
        assert record["classifier_level"] == 2
        assert record["network_bound"]["cge_upper_bound"] == 2
        assert record["consistent"] is True


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 64
        assert "usage" in err

    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 64

    def test_help(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "classify" in out

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2,\n  "amps": []}')
        code, _, err = run(capsys, ["classify", "--state", str(bad)])
        assert code == 2
        assert "line" in err and "column" in err

    def test_json_decode_pauses_and_restores_the_collector(self, tmp_path, capsys, monkeypatch):
        good = write_json(tmp_path / "state.json", state_to_dict(ghz(3, 2, [2**-0.5, 2**-0.5])))
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2,')
        during = []
        real_load = json.load

        def spy(*args, **kwargs):
            during.append(gc.isenabled())
            return real_load(*args, **kwargs)

        monkeypatch.setattr(json, "load", spy)
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                assert run(capsys, ["classify", "--state", good])[0] == 0
                assert gc.isenabled() == enabled
                assert run(capsys, ["classify", "--state", str(bad)])[0] == 2
                assert gc.isenabled() == enabled
        finally:
            gc.enable() if was_enabled else gc.disable()
        assert during == [False] * 4

    def test_bad_normalization(self, tmp_path, capsys):
        state = write_json(
            tmp_path / "state.json",
            {"dims": [2], "amps": [[0.5, 0.0], [0.0, 0.0]]},
        )
        code, _, err = run(capsys, ["classify", "--state", state])
        assert code == 2
        assert "norm" in err
        for bad in ([float("nan"), 0.0], [float("inf"), 0.0], [0.0, float("-inf")]):
            state = write_json(
                tmp_path / "state.json", {"dims": [2], "amps": [bad, [0.0, 0.0]]}
            )
            code, _, err = run(capsys, ["classify", "--state", state])
            assert code == 2
            assert "non-finite amplitudes" in err

    def raw(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def refused(self, capsys, argv, names):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert names in err and "Traceback" not in err

    def test_classify_huge_dim(self, tmp_path, capsys):
        state = self.raw(tmp_path, "s.json", '{"dims": [1e400], "amps": [[1, 0], [0, 0]]}')
        self.refused(capsys, ["classify", "--state", state], "state JSON dims entry")

    def test_classify_huge_amplitude(self, tmp_path, capsys):
        state = self.raw(
            tmp_path, "s.json", '{"dims": [2], "amps": [[1' + "0" * 400 + ', 0], [0, 0]]}'
        )
        self.refused(capsys, ["classify", "--state", state], "too large")

    def test_network_huge_n(self, tmp_path, capsys):
        graph = self.raw(tmp_path, "g.json", '{"n": 1e400, "edges": [[0, 1, 1]]}')
        self.refused(capsys, ["network", "--graph", graph], "network n")

    def test_cross_check_huge_multiplicity(self, tmp_path, capsys):
        graph = self.raw(tmp_path, "g.json", '{"n": 2, "edges": [[0, 1, 1e400]]}')
        self.refused(capsys, ["cross-check", "--graph", graph], "edge [0, 1, inf] entry")

    def test_generate_product_huge_dim(self, tmp_path, capsys):
        spec = self.raw(tmp_path, "f.json", '{"family": "product", "dims": [1e400]}')
        self.refused(capsys, ["generate", "--family", spec], "product dims entry")

    def test_classify_fractional_dim(self, tmp_path, capsys):
        state = write_json(tmp_path / "s.json", {"dims": [2.7], "amps": [[1, 0], [0, 0]]})
        self.refused(capsys, ["classify", "--state", state], "state JSON dims entry")
        state = write_json(tmp_path / "s.json", {"dims": [2.0], "amps": [[1, 0], [0, 0]]})
        code, out, _ = run(capsys, ["classify", "--state", state])
        assert code == 0 and json.loads(out)["dims"] == [2]

    def test_network_fractional_edge_entry(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", {"n": 3, "edges": [[0, 1, 1], [1, 2.5, 1]]})
        self.refused(capsys, ["network", "--graph", graph], "edge [1, 2.5, 1] entry")
        graph = write_json(tmp_path / "g.json", {"n": 3.0, "edges": [[0, 1, 1], [1, 2.0, 1]]})
        code, out, _ = run(capsys, ["network", "--graph", graph])
        assert code == 0 and json.loads(out)["n"] == 3

    # (field name in the refusal, its integer value, the spec around it)
    FAMILY_INTEGERS = [
        ("ghz n", 3, lambda v: {"family": "ghz", "n": v, "d": 2, "a": [2**-0.5] * 2}),
        ("ghz d", 2, lambda v: {"family": "ghz", "n": 3, "d": v, "a": [2**-0.5] * 2}),
        ("w_type n", 3, lambda v: {"family": "w_type", "n": v, "a": [0.5] * 4}),
        ("dicke n", 4, lambda v: {"family": "dicke", "n": v, "d": 2, "s": 2}),
        ("dicke d", 2, lambda v: {"family": "dicke", "n": 4, "d": v, "s": 2}),
        ("dicke s", 2, lambda v: {"family": "dicke", "n": 4, "d": 2, "s": v}),
        ("party index", 1, lambda v: {"family": "cluster", "edges": [[0, 1, 0.6], [v, 2, 0.7]]}),
        ("phase party", 1, lambda v: {
            "family": "cluster", "edges": [[0, 1, 0.6], [1, 2, 0.7]], "phases": [[v, 0, 1, 0.3]]}),
        ("party index", 2, lambda v: {
            "family": "graph", "epr_edges": [[0, 1, 0.6]], "ghz_edges": [[[0, 1, v], 0.7]]}),
        ("phase slot", 1, lambda v: {
            "family": "graph", "epr_edges": [[0, 1, 0.6]], "ghz_edges": [[[0, 1, 2], 0.7]],
            "phases": [[1, [0, v], 0.3]]}),
    ]

    @pytest.mark.parametrize(
        "name, value, spec", FAMILY_INTEGERS,
        ids=[f"{spec(0)['family']}-{name.split()[-1]}" for name, _v, spec in FAMILY_INTEGERS],
    )
    def test_family_integer_field(self, tmp_path, capsys, name, value, spec):
        def generate(v):
            return run(capsys, ["generate", "--family", write_json(tmp_path / "f.json", spec(v))])

        code, expected, _ = generate(value)
        assert code == 0
        assert generate(float(value)) == (0, expected, "")
        self.refused(
            capsys,
            ["generate", "--family", write_json(tmp_path / "f.json", spec(value + 0.5))],
            f"{name} must be an integer, got {value + 0.5}",
        )

    # (field name in the refusal, the size of its range, the spec around it);
    # party 1 of each spec holds two qubit slots.
    PHASE_INDICES = [
        ("phase party", 3, lambda v: {
            "family": "cluster", "edges": [[0, 1, 0.6], [1, 2, 0.7]], "phases": [[v, 0, 1, 0.3]]}),
        ("phase slot", 2, lambda v: {
            "family": "cluster", "edges": [[0, 1, 0.6], [1, 2, 0.7]], "phases": [[1, 0, v, 0.3]]}),
        ("phase party", 3, lambda v: {
            "family": "graph", "epr_edges": [[0, 1, 0.6]], "ghz_edges": [[[0, 1, 2], 0.7]],
            "phases": [[v, [0], 0.3]]}),
        ("phase slot", 2, lambda v: {
            "family": "graph", "epr_edges": [[0, 1, 0.6]], "ghz_edges": [[[0, 1, 2], 0.7]],
            "phases": [[1, [0, v], 0.3]]}),
    ]

    @pytest.mark.parametrize(
        "name, size, spec", PHASE_INDICES,
        ids=[f"{spec(0)['family']}-{name.split()[-1]}" for name, _s, spec in PHASE_INDICES],
    )
    def test_phase_index_out_of_range(self, tmp_path, capsys, name, size, spec):
        # Python indexing would take a negative index from the end and raise
        # IndexError past it; both are refused with the field and its range.
        def generate(v):
            return ["generate", "--family", write_json(tmp_path / "f.json", spec(v))]

        assert run(capsys, generate(1))[0] == 0
        for v in (size, size + 4, -1, -size):
            self.refused(capsys, generate(v), f"{name} {v} out of range [0, {size})")

    def test_generate_product_fractional_dim(self, tmp_path, capsys):
        spec = write_json(tmp_path / "f.json", {"family": "product", "dims": [2.5, 2]})
        self.refused(capsys, ["generate", "--family", spec], "product dims entry")

    def test_max_k_below_one_is_rejected(self, tmp_path, capsys):
        state = write_json(
            tmp_path / "state.json", state_to_dict(haar_state((2,) * 6, np.random.default_rng(3)))
        )
        for max_k in ("0", "-2"):
            code, out, err = run(capsys, ["classify", "--state", state, "--max-k", max_k])
            assert code == 2 and out == ""
            assert "max_k" in err
        code, out, _ = run(capsys, ["classify", "--state", state])
        assert code == 0 and json.loads(out)["max_cge_level"] == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["classify", "--state", "/nonexistent.json"])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, ["classify"])
        assert code == 2


class TestCommandTable:
    """``_COMMANDS`` is the CLI's one description of itself: each row's
    parser, the README's synopsis and the parser built per call."""

    @pytest.fixture
    def full_argv(self, tmp_path):
        """(command, argv) pairs that exit 0 and, per command, set every flag
        of its row but ``--out`` between them. The witness takes two runs,
        since each family refuses the other's flags."""
        half = [2**-0.5, 2**-0.5]
        fam = write_json(tmp_path / "fam.json", GHZ3_FAMILY)
        state = write_json(tmp_path / "state.json", state_to_dict(ghz(3, 2, half)))
        graph = write_json(tmp_path / "g.json", CHAIN4)
        edges = write_json(tmp_path / "edges.json", [state_to_dict(ghz(2, 2, half))] * 3)
        tol, budget = ["--tol", "1e-9"], ["--budget-dim", "64"]
        w4_a = ",".join([repr(5**-0.5)] * 5)
        return [
            ("generate", ["--family", fam, *budget]),
            ("classify", ["--state", state, "--max-k", "2", *budget, *tol]),
            ("disentangle", ["--state", state, "--cut", "1,2", "--free", "1", *tol]),
            ("decompose", ["--state", state, "--pivot", "0", "--freed", "1", *tol]),
            ("witness", ["ghz", "--a", "0.6,0.8", "--n", "3", "--d", "2", "--werner"]),
            ("witness", ["w4", "--a", w4_a, "--level", "2", "--werner"]),
            ("fig4", ["--grid", "2"]),
            ("network", ["--graph", graph]),
            ("cross-check", ["--graph", graph, "--states", edges, *budget, *tol]),
        ]

    @staticmethod
    def flags(name):
        return {o for o in _COMMANDS[name].options if o.startswith("--")} | {"--out"}

    def test_every_row_runs_with_every_flag(self, full_argv, tmp_path, capsys):
        assert list(dict(full_argv)) == list(_COMMANDS)
        seen = {name: set() for name in _COMMANDS}
        for i, (name, argv) in enumerate(full_argv):
            target = tmp_path / f"{i}.out"
            argv = [name, *argv, "--out", str(target)]
            seen[name] |= {a for a in argv if a.startswith("--")}
            code, out, err = run(capsys, argv)
            assert (code, out, err) == (0, "", "") and target.stat().st_size > 0
        assert seen == {name: self.flags(name) for name in _COMMANDS}

    def test_a_flag_prefix_is_refused(self, full_argv, tmp_path, capsys):
        # "--a", "--n" and "--d" have no prefix but "--", which ends the options.
        for name, base in full_argv:
            target = tmp_path / f"{name}.out"
            base = [name, *base, "--out", str(target)]
            for i, flag in enumerate(base):
                if not flag.startswith("--") or len(flag) <= 3:
                    continue
                prefix = flag[:-1]
                assert prefix not in self.flags(name)
                code, out, err = run(capsys, base[:i] + [prefix] + base[i + 1 :])
                assert code == 2 and out == "", (name, prefix)
                assert prefix in err and not target.exists()

    def test_every_command_has_help(self, capsys):
        for name in _COMMANDS:
            code, out, _ = run(capsys, [name, "--help"])
            assert code == 0 and out.startswith(f"usage: kcge {name} ")
            assert "--out" in out

    def test_one_parser_per_call(self, full_argv, monkeypatch, capsys):
        # The names the benchmark's tracer leaves on kcge.cli for argparse and json.
        built = []

        class Counting(cli.argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
        monkeypatch.setattr(cli, "json", SimpleNamespace(
            load=json.load, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
        ))
        for name, argv in full_argv:
            for call, want in (([name, *argv], 0), ([name, "--bogus"], 2)):
                built.clear()
                assert run(capsys, call)[0] == want
                assert built == [f"kcge {name}"]

    def test_readme_synopsis_lists_every_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```\n(kcge generate .*?)```", readme, re.S).group(1)
        synopsis = [line.split(maxsplit=2) for line in block.splitlines()]
        assert [name for _kcge, name, _rest in synopsis] == list(_COMMANDS)
        for _kcge, name, rest in synopsis:
            assert set(re.findall(r"--[a-z][a-z-]*", rest)) == self.flags(name), name

    def test_module_entry_point_exit_codes(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

        def kcge(*argv):
            return subprocess.run(
                [sys.executable, "-m", "kcge", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )

        done = kcge("--version")
        assert (done.returncode, done.stdout) == (0, f"kcge {__version__}\n")
        done = kcge("frobnicate")
        assert done.returncode == 64 and done.stdout == "" and "usage" in done.stderr
        state = write_json(tmp_path / "s.json", state_to_dict(ghz(3, 2, [2**-0.5, 2**-0.5])))
        done = kcge("classify", "--state", state, "--budget-dim", "4")
        assert done.returncode == 3 and done.stdout == ""
        assert "exceeds budget 4" in done.stderr
