"""Command-line interface: outputs, exit codes, determinism."""

import json
import math

import numpy as np

from kcge import state_from_dict, state_to_dict, ghz
from kcge.cli import main


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
            assert f"{spec['family']}: total dimension 256 exceeds budget 16" in err
        fam = write_json(tmp_path / "fam.json", {"family": "product", "dims": [2] * 40})
        code, out, err = run(capsys, ["generate", "--family", fam])
        assert code == 3 and out == ""
        assert f"total dimension {2**40} exceeds budget {2**16}" in err


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


class TestWitnessCommands:
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

    def test_fig4_header_and_quarter_pi_row(self, capsys):
        code, out, _ = run(capsys, ["fig4", "--grid", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,r2,r1,v2,v1"
        theta, r2, r1, v2, v1 = (float(x) for x in lines[1].split(","))
        assert abs(theta - math.pi / 4) < 1e-12
        assert abs(r2 - 0.75) < 1e-12
        assert abs(v2 - 13.0 / 17.0) < 1e-12

    def test_fig4_deterministic(self, capsys):
        _, a, _ = run(capsys, ["fig4", "--grid", "25"])
        _, b, _ = run(capsys, ["fig4", "--grid", "25"])
        assert a == b


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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["classify", "--state", "/nonexistent.json"])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, ["classify"])
        assert code == 2
