"""Graph-level bounds: degree profiles, connectivity, greedy search."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kcge import (
    PartySubset,
    network_bound,
    chain_connectivity,
    chain_network,
    classify,
    complete_network,
    cross_check,
    cubic_network,
    cycle_network,
    degree_profile,
    grid_network,
    degree_condition_fires,
    connectivity_bound,
    network_joint_state,
    star_network,
)
import kcge.network as network_module
from kcge.errors import BudgetExceededError
from kcge.network import NetworkGraph, connectivity_biseparable_size

from oracles import min_pair_connectivity

RNG = np.random.default_rng(55)


def sub(members, n):
    return PartySubset.of(members, n)


def test_import_does_not_load_networkx():
    src = str(Path(network_module.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import kcge; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


class TestNetworkGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkGraph(3, ((0, 0, 1),))
        with pytest.raises(ValueError):
            NetworkGraph(3, ((0, 3, 1),))
        with pytest.raises(ValueError):
            NetworkGraph(3, ((0, 1, 0),))

    def test_canonicalization_merges_parallel_entries(self):
        g = NetworkGraph(3, ((1, 0, 1), (0, 1, 2)))
        assert g.edges == ((0, 1, 3, 2),)
        assert g.degree(0) == 3
        assert g.units_between(1, 0) == 3
        # Entries of different local dims stay apart; the unit matrix sums them.
        g = NetworkGraph(3, ((0, 1, 2, 2), (1, 0, 1, 3), (1, 2, 1, 3)))
        assert g.edges == ((0, 1, 2, 2), (0, 1, 1, 3), (1, 2, 1, 3))
        assert g.units.tolist() == [[0, 3, 0], [3, 0, 1], [0, 1, 0]]
        assert not g.units.flags.writeable
        assert (g.degree(0), g.degree(1), g.units_between(1, 0)) == (3, 4, 3)

    def test_party_count_is_refused_before_the_unit_matrix(self, monkeypatch):
        def untouched(*_args):
            raise AssertionError("refusal must come before the unit matrix")

        monkeypatch.setattr(NetworkGraph, "units", property(untouched))
        monkeypatch.setattr(NetworkGraph, "edge_units", untouched)
        side = int(network_module.UNITS_BUDGET**0.5)
        assert side * side == network_module.UNITS_BUDGET
        for n in (side + 1, 10**9):
            with pytest.raises(BudgetExceededError, match=f"n={n} parties: its {n}x{n}"):
                NetworkGraph(n, ((0, 1, 1),))
        NetworkGraph(side, ((0, side - 1, 1),))

    def test_edge_units_expand_multiplicity(self):
        g = NetworkGraph(3, ((0, 1, 2), (1, 2, 1)))
        assert g.edge_units() == [(0, 1, 2), (0, 1, 2), (1, 2, 2)]

    def test_json_round_trip(self):
        g = NetworkGraph(4, ((0, 1, 1), (2, 3, 2, 3)))
        assert NetworkGraph.from_dict(g.to_dict()) == g
        assert NetworkGraph.from_dict({"n": 2, "edges": [[0, 1, 1]]}).degree(1) == 1


class TestDegreeProfile:
    def test_complete_four(self):
        g = complete_network(4)
        p = degree_profile(g, sub([0, 1, 2], 4), 0)
        assert (p.s_in, p.s_out, p.t) == (2, 1, 1)

    def test_chain_prefix(self):
        g = chain_network(4)
        p = degree_profile(g, sub([0, 1], 4), 0)
        assert (p.s_in, p.s_out, p.t) == (1, 0, 0)

    def test_singleton_subset(self):
        g = star_network(5)
        p = degree_profile(g, sub([0], 5), 0)
        assert (p.s_in, p.t) == (0, 0)
        assert p.s_out == g.degree(0) == 4

    def test_party_must_be_inside(self):
        with pytest.raises(ValueError):
            degree_profile(chain_network(3), sub([0, 1], 3), 2)

    def test_counts_match_independent_rescan(self):
        g = NetworkGraph(5, ((0, 1, 2), (1, 2, 1), (0, 3, 1), (3, 4, 2), (1, 4, 1)))
        subset = sub([0, 1, 4], 5)
        for party in subset.members:
            p = degree_profile(g, subset, party)
            s_in = s_out = t = 0
            for i, j, dim in g.edge_units():
                touches = party in (i, j)
                inside_i, inside_j = i in subset.members, j in subset.members
                if touches:
                    other_in = (j if i == party else i) in subset.members
                    s_in += int(other_in)
                    s_out += int(not other_in)
                elif inside_i and inside_j:
                    t += 1
            assert (p.s_in, p.s_out, p.t) == (s_in, s_out, t)


class TestDegreeCondition:
    def test_chain_pair_fires(self):
        p = degree_profile(chain_network(4), sub([0, 1], 4), 0)
        assert degree_condition_fires(p)

    def test_complete_triple_fires(self):
        p = degree_profile(complete_network(4), sub([0, 1, 2], 4), 0)
        assert degree_condition_fires(p)

    def test_isolated_party_with_out_edges_does_not_fire(self):
        p = degree_profile(star_network(4), sub([0], 4), 0)
        assert not degree_condition_fires(p)

    def test_adding_inner_edge_never_unfires(self):
        g = NetworkGraph(4, ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)))
        subset = sub([0, 1, 2], 4)
        base = degree_profile(g, subset, 0)
        assert degree_condition_fires(base)
        for extra in ((0, 1, 1), (1, 2, 1)):
            grown = NetworkGraph(4, g.edges + (extra,))
            p = degree_profile(grown, subset, 0)
            assert p.s_in >= base.s_in and p.t >= base.t
            assert degree_condition_fires(p)


class TestConnectivity:
    def test_chain(self):
        assert chain_connectivity(chain_network(4)) == 1

    def test_cycle(self):
        assert chain_connectivity(cycle_network(4)) == 2

    def test_complete(self):
        assert chain_connectivity(complete_network(4)) == 3

    def test_disconnected(self):
        g = NetworkGraph(4, ((0, 1, 1), (2, 3, 1)))
        assert chain_connectivity(g) == 0

    def test_multiplicity_counts_as_parallel_paths(self):
        g = NetworkGraph(2, ((0, 1, 3),))
        assert chain_connectivity(g) == 3

    def test_matches_augmenting_path_oracle(self):
        graphs = [
            chain_network(5),
            cycle_network(5),
            complete_network(5),
            star_network(4),
            cubic_network(),
            NetworkGraph(4, ((0, 1, 2), (1, 2, 1), (2, 3, 2), (0, 3, 1))),
        ]
        for g in graphs:
            assert chain_connectivity(g) == min_pair_connectivity(g.n, g.edge_units())

    def test_random_multigraphs_match_oracle(self):
        # The minimum cut must give the all-pairs minimum, also on
        # disconnected graphs, on two parties and on one. A pair may carry
        # entries of different local dims, which the unit matrix must sum.
        rng = np.random.default_rng(56)
        seen_zero = seen_positive = seen_mixed = 0
        for _ in range(120):
            n = int(rng.integers(1, 13))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.9)
            edges = []
            for (i, j), k in zip(pairs, keep):
                if k:
                    for dim in rng.choice([2, 3], size=int(rng.integers(1, 3)), replace=False):
                        edges.append((i, j, int(rng.integers(1, 4)), int(dim)))
            g = NetworkGraph(n, tuple(edges))
            value = chain_connectivity(g)
            assert value == min_pair_connectivity(n, g.edge_units())
            for i, j in pairs:
                count = sum(1 for a, b, _d in g.edge_units() if (a, b) == (i, j))
                assert g.units_between(i, j) == g.units_between(j, i) == count
            seen_zero += value == 0 and n > 1
            seen_positive += value > 0
            seen_mixed += len(g.edges) > len({(i, j) for i, j, _m, _d in g.edges})
        assert seen_zero and seen_positive and seen_mixed
        assert chain_connectivity(NetworkGraph(2, ())) == 0
        assert chain_connectivity(NetworkGraph(1, ())) == 0


class TestConnectivityBound:
    def test_complete_five(self):
        g = complete_network(5)
        assert chain_connectivity(g) == 4
        assert connectivity_biseparable_size(4) == 3
        assert connectivity_bound(g) == 2

    def test_chain_is_flagged_not_applied(self):
        report = network_bound(chain_network(4))
        assert report.connectivity == 1
        assert not report.connectivity_applies
        assert report.cge_upper_bound == 1  # from the degree condition

    def test_complete_four_discrepancy_is_reported_not_enforced(self):
        # The connectivity bound claims level <= 1 but the joint state is
        # genuinely level 2; the report keeps the two values separate.
        report = network_bound(complete_network(4))
        assert report.connectivity_level_bound == 1
        assert report.cge_upper_bound == 2
        assert cross_check(complete_network(4)).classifier_level == 2


class TestNetworkBound:
    def test_corpus_bounds(self):
        cases = [
            (chain_network(4), 1),
            (star_network(5), 1),
            (cycle_network(4), 1),
            (grid_network(3, 3), 1),
            (complete_network(4), 2),
            (cubic_network(), 2),
            (complete_network(6), 2),
        ]
        for g, expected in cases:
            assert network_bound(g).cge_upper_bound == expected

    def test_not_two_cge_certificates(self):
        for g in (chain_network(4), star_network(5), cycle_network(4)):
            report = network_bound(g)
            assert report.degree_condition_size == 2
            assert report.cge_upper_bound == 1

    def test_two_party_edge(self):
        report = network_bound(NetworkGraph(2, ((0, 1, 1),)))
        assert report.cge_upper_bound == 1

    def test_disconnected_party_gives_zero(self):
        g = NetworkGraph(3, ((0, 1, 1),))
        report = network_bound(g)
        assert report.cge_upper_bound == 0

    def test_bound_capped_at_half_n(self):
        for g in (complete_network(4), complete_network(5), cubic_network()):
            report = network_bound(g)
            assert 0 <= report.cge_upper_bound <= g.n // 2

    def test_deterministic_and_replayable(self):
        g = NetworkGraph(6, ((0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 4, 2), (4, 5, 1), (0, 5, 1), (1, 4, 1)))
        a = network_bound(g)
        b = network_bound(g)
        assert a == b
        # The recorded trace replays: recompute each check from the growth
        # prefix and compare.
        for tr in a.trace:
            members = [tr.seed]
            for check, nxt in zip(tr.checks, list(tr.growth) + [None]):
                prof = degree_profile(g, sub(members, g.n), tr.seed)
                assert (prof.s_in, prof.s_out, prof.t) == (
                    check.s_in,
                    check.s_out,
                    check.t,
                )
                assert degree_condition_fires(prof) == check.fires
                if nxt is not None and check is not tr.checks[-1]:
                    members.append(nxt)

    def test_report_serialization(self):
        d = network_bound(chain_network(4)).to_dict()
        assert d["cge_upper_bound"] == 1
        assert d["trace"][0]["checks"][0]["size"] == 1


class TestCrossCheck:
    def test_three_party_chain(self):
        rec = cross_check(chain_network(3))
        assert rec.classifier_level == 1
        assert rec.consistent

    def test_complete_four_reproduces_level_two(self):
        rec = cross_check(complete_network(4))
        assert rec.classifier_level == 2
        assert rec.report.cge_upper_bound == 2
        assert rec.consistent

    def test_two_party_edge(self):
        rec = cross_check(NetworkGraph(2, ((0, 1, 1),)))
        assert rec.classifier_level == 1
        assert rec.report.cge_upper_bound == 1

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            cross_check(complete_network(6))

    def test_multiplicity_is_refused_before_units_are_expanded(self, monkeypatch):
        g = NetworkGraph(2, ((0, 1, 200000),))

        def untouched(*_args):
            raise AssertionError("refusal must come before the edge units")

        monkeypatch.setattr(NetworkGraph, "edge_units", untouched)
        monkeypatch.setattr(NetworkGraph, "units", property(untouched))
        with pytest.raises(BudgetExceededError, match="first 17 dims already give 131072"):
            network_joint_state(g)
        with pytest.raises(BudgetExceededError, match="network_joint_state"):
            cross_check(g)

    def test_bound_below_the_classifier_is_recorded_not_raised(self, monkeypatch):
        g = complete_network(4)
        report = network_bound(g)
        low = dataclasses.replace(report, cge_upper_bound=1)
        monkeypatch.setattr(network_module, "network_bound", lambda graph: low)
        rec = cross_check(g)
        assert rec.classifier_level == 2
        assert rec.report is low
        assert rec.consistent is False
        assert rec.to_dict()["consistent"] is False

    def test_soundness_on_corpus(self):
        # Wherever the degree condition fired at size b and the joint state
        # fits the classifier, the true level is strictly below b.
        for g in (
            chain_network(4),
            star_network(4),
            cycle_network(4),
            complete_network(3),
            complete_network(4),
        ):
            report = network_bound(g)
            if report.degree_condition_size is None:
                continue
            level = classify(network_joint_state(g)).max_cge_level
            assert level < report.degree_condition_size

    def test_record_serialization(self):
        d = cross_check(chain_network(3)).to_dict()
        assert d["classifier_level"] == 1
        assert d["consistent"] is True
