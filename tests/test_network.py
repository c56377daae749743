"""Graph-level bounds: degree checks, connectivity, greedy search."""

import dataclasses
import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kcge import (
    network_bound,
    chain_connectivity,
    chain_network,
    classify,
    complete_network,
    cross_check,
    cubic_network,
    cycle_network,
    grid_network,
    network_joint_state,
    star_network,
)
import kcge.network as network_module
from kcge.errors import BudgetExceededError
from kcge.network import NetworkGraph, _degree_check, connectivity_biseparable_size

from oracles import crossing_rank_level, min_pair_connectivity

RNG = np.random.default_rng(55)


def counts(check):
    return (check.s_in, check.s_out, check.t)


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
        assert g.units[1, 0] == 3
        # Entries of different local dims stay apart; the unit matrix sums them.
        g = NetworkGraph(3, ((0, 1, 2, 2), (1, 0, 1, 3), (1, 2, 1, 3)))
        assert g.edges == ((0, 1, 2, 2), (0, 1, 1, 3), (1, 2, 1, 3))
        assert g.units.tolist() == [[0, 3, 0], [3, 0, 1], [0, 1, 0]]
        assert not g.units.flags.writeable
        assert (g.degree(0), g.degree(1), g.units[1, 0]) == (3, 4, 3)

    def test_degree_refuses_a_party_out_of_range(self):
        g = chain_network(4)
        assert [g.degree(p) for p in range(4)] == [1, 2, 2, 1]
        for party in (-1, 4):
            with pytest.raises(ValueError, match=f"party index {party} out of range for n=4"):
                g.degree(party)

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

    def test_edge_bits_are_refused_before_the_unit_matrix(self, monkeypatch):
        def untouched(*_args):
            raise AssertionError("refusal must come before the unit matrix")

        monkeypatch.setattr(NetworkGraph, "units", property(untouched))
        budget = network_module.UNITS_BUDGET
        # Multiplicity x ceil(log2 dim), summed: 2 (budget/2 - 17) + 2 x 17
        # is the budget, and one more bit per unit of the second edge is over.
        NetworkGraph(3, ((0, 1, budget // 2 - 17, 3), (1, 2, 2, 2**17)))
        msg = f"exceeds budget {budget} \\(the first 2 edges already give {budget + 2}\\)"
        with pytest.raises(BudgetExceededError, match=msg):
            NetworkGraph(3, ((0, 1, budget // 2 - 17, 3), (1, 2, 2, 2**17 + 1)))
        with pytest.raises(BudgetExceededError, match="the first 1 edges"):
            NetworkGraph(2, ((0, 1, 10**9),))
        NetworkGraph(2, ((0, 1, 200000),))

    def test_edge_units_expand_multiplicity(self):
        g = NetworkGraph(3, ((0, 1, 2), (1, 2, 1)))
        assert g.edge_units() == [(0, 1, 2), (0, 1, 2), (1, 2, 2)]

    def test_json_round_trip(self):
        g = NetworkGraph(4, ((0, 1, 1), (2, 3, 2, 3)))
        assert NetworkGraph.from_dict(g.to_dict()) == g
        assert NetworkGraph.from_dict({"n": 2, "edges": [[0, 1, 1]]}).degree(1) == 1


class TestDegreeProfile:
    """The unit counts that a degree check records; the seed comes first."""

    def test_complete_four(self):
        check = _degree_check(complete_network(4), [0, 1, 2])
        assert (check.size, *counts(check)) == (3, 2, 1, 1)

    def test_chain_prefix(self):
        assert counts(_degree_check(chain_network(4), [0, 1])) == (1, 0, 0)

    def test_singleton_subset(self):
        g = star_network(5)
        check = _degree_check(g, [0])
        assert (check.s_in, check.t) == (0, 0)
        assert check.s_out == g.degree(0) == 4

    def test_counts_match_independent_rescan(self):
        # Mixed local dims: the counts ignore them.
        g = NetworkGraph(5, ((0, 1, 2), (1, 2, 1, 3), (0, 3, 1), (3, 4, 2), (1, 4, 1, 3)))
        members = [0, 1, 4]
        for party in members:
            s_in = s_out = t = 0
            for i, j, dim in g.edge_units():
                touches = party in (i, j)
                inside_i, inside_j = i in members, j in members
                if touches:
                    other_in = (j if i == party else i) in members
                    s_in += int(other_in)
                    s_out += int(not other_in)
                elif inside_i and inside_j:
                    t += 1
            order = [party] + [m for m in members if m != party]
            assert counts(_degree_check(g, order)) == (s_in, s_out, t)


def weighted_rule(g, members):
    """The degree condition by direct products over the expanded edge
    units: the seed's outside dims against its inside dims times the
    squared dims between two other members."""
    seed, inside = members[0], set(members)
    out = into = between = 1
    for i, j, d in g.edge_units():
        if seed in (i, j):
            other = j if i == seed else i
            if other in inside:
                into *= d
            else:
                out *= d
        elif i in inside and j in inside:
            between *= d * d
    return out <= into * between


class TestDegreeCondition:
    def test_chain_pair_fires(self):
        assert _degree_check(chain_network(4), [0, 1]).fires

    def test_complete_triple_fires(self):
        assert _degree_check(complete_network(4), [0, 1, 2]).fires

    def test_isolated_party_with_out_edges_does_not_fire(self):
        assert not _degree_check(star_network(4), [0]).fires

    def test_adding_inner_edge_never_unfires(self):
        g = NetworkGraph(4, ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)))
        members = [0, 1, 2]
        base = _degree_check(g, members)
        assert base.fires
        for extra in ((0, 1, 1), (1, 2, 1), (0, 1, 1, 3), (1, 2, 2, 5)):
            check = _degree_check(NetworkGraph(4, g.edges + (extra,)), members)
            assert check.s_in >= base.s_in and check.t >= base.t
            assert check.fires

    def test_local_dims_weigh_in_exactly(self):
        # Seed 0 of the K4 below has two inside qubit units (product 4)
        # against outside units of dims 2 and 3 (product 6): equal unit
        # counts, but no firing. Ties fire: 2 * 2 <= 4.
        k4 = NetworkGraph(4, ((0, 1, 1, 2), (0, 2, 1, 3), (0, 3, 2, 2), (1, 2, 2, 2), (1, 3, 1, 3), (2, 3, 1, 2)))
        check = _degree_check(k4, [0, 3])
        assert counts(check) == (2, 2, 0) and not check.fires
        tie = NetworkGraph(3, ((0, 1, 1, 4), (0, 2, 2, 2)))
        assert counts(_degree_check(tie, [0, 1])) == (1, 2, 0)
        assert _degree_check(tie, [0, 1]).fires
        # Mixed signs, decided by the products alone: 3^3 = 27 outside
        # against 5^2 = 25 inside, then against 5^2 * 2^2 = 100.
        g = NetworkGraph(4, ((0, 1, 2, 5), (0, 2, 3, 3), (1, 3, 1, 2)))
        assert not _degree_check(g, [0, 1]).fires
        assert _degree_check(g, [0, 1, 3]).fires

    def test_matches_direct_products_on_random_graphs(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            edges = [
                (i, j, int(rng.integers(1, 3)), int(rng.choice([2, 3, 4, 5, 7])))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            g = NetworkGraph(n, tuple(edges))
            members = [int(p) for p in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            assert _degree_check(g, members).fires == weighted_rule(g, members)

    def test_huge_dims_and_multiplicities_stay_exact(self):
        # Products far beyond float range: 2^95097 < 3^60000 < 2^95098.
        for out, fires in ((95097, True), (95098, False)):
            g = NetworkGraph(3, ((0, 1, 60000, 3), (0, 2, out, 2)))
            assert _degree_check(g, [0, 1]).fires is fires
        # One unit of dim 2^3000 inside against 3000 or 3001 qubits outside.
        for out, fires in ((3000, True), (3001, False)):
            g = NetworkGraph(3, ((0, 1, 1, 2**3000), (0, 2, out, 2)))
            assert _degree_check(g, [0, 1]).fires is fires


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
                assert g.units[i, j] == g.units[j, i] == count
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
        assert network_bound(g).connectivity_level_bound == 2

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

    def test_edgeless_graph(self):
        # No edge units, so no local dims: every seed's check fires at size 1.
        with pytest.raises(ValueError, match="two parties"):
            network_bound(NetworkGraph(1, ()))
        for n in (2, 3, 4):
            g = NetworkGraph(n, ())
            report = network_bound(g)
            assert (report.degree_condition_size, report.connectivity) == (1, 0)
            assert (report.connectivity_applies, report.cge_upper_bound) == (False, 0)
            assert [tr.seed for tr in report.trace] == list(range(n))
            for tr in report.trace:
                assert (tr.degree, tr.growth, tr.first_firing_size, tr.level_bound) == (0, (), 1, 0)
                assert tr.checks == (network_module.SizeCheck(1, 0, 0, 0, True),)
                assert _degree_check(g, [tr.seed]) == tr.checks[0]

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
                assert _degree_check(g, members) == check
                assert weighted_rule(g, members) == check.fires
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
        assert rec.network_bound.cge_upper_bound == 2
        assert rec.consistent

    def test_two_party_edge(self):
        rec = cross_check(NetworkGraph(2, ((0, 1, 1),)))
        assert rec.classifier_level == 1
        assert rec.network_bound.cge_upper_bound == 1

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
        assert rec.network_bound is low
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


K4_MIXED = NetworkGraph(
    4, ((0, 1, 1, 2), (0, 2, 1, 3), (0, 3, 2, 2), (1, 2, 2, 2), (1, 3, 1, 3), (2, 3, 1, 2))
)


def four_party_labellings():
    """Every 4-party graph with each pair carrying nothing, one qubit unit,
    one qutrit unit or two qubit units, and every party touched."""
    pairs = list(itertools.combinations(range(4), 2))
    for labels in itertools.product((None, (1, 2), (1, 3), (2, 2)), repeat=len(pairs)):
        edges = tuple((i, j, *lab) for (i, j), lab in zip(pairs, labels) if lab)
        if {p for e in edges for p in e[:2]} == set(range(4)):
            yield edges


class TestMixedDimensions:
    def test_k4_bound_holds_the_classifier_level(self):
        # Unit counts alone fire seed 0 with party 3 at size 2 and bound
        # the level by 1; the dims (2 * 2 inside, 2 * 3 outside) do not.
        rec = cross_check(K4_MIXED, budget=2**19)
        assert (rec.classifier_level, rec.network_bound.cge_upper_bound, rec.consistent) == (2, 2, True)
        assert crossing_rank_level(4, K4_MIXED.edges) == 2

    def test_bound_is_sound_on_every_labelling(self):
        # A recorded count: the bound equals the exact level on 3489 of the
        # 3861 labellings and is above it on the rest. Counting units
        # without their dims put the bound below the level on 133.
        total = tight = 0
        for edges in four_party_labellings():
            level = crossing_rank_level(4, edges)
            bound = network_bound(NetworkGraph(4, edges)).cge_upper_bound
            assert bound >= level, edges
            total += 1
            tight += bound == level
        assert (total, tight) == (3861, 3489)

    def test_dense_classifier_agrees_with_the_oracle(self):
        count = 0
        for edges in four_party_labellings():
            if math.prod(d ** (2 * mult) for *_ends, mult, d in edges) > 2**12:
                continue
            rec = cross_check(NetworkGraph(4, edges))
            assert rec.classifier_level == crossing_rank_level(4, edges), edges
            assert rec.consistent, edges
            count += 1
        assert count == 1081
