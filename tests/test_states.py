"""State constructors: amplitudes, claimed levels, grouping conventions."""

import math

import numpy as np
import pytest

from kcge import (
    PartySubset,
    StateFamily,
    apply_local_operator,
    classify,
    cluster_from_epr,
    dicke,
    dicke_cge_formula,
    dicke_level_exact,
    epr_pair,
    excitation_count,
    family_from_dict,
    ghz,
    graph_from_epr_ghz,
    max_entangled_pair,
    network_joint_state,
    schmidt_rank,
    w_type,
)
from kcge.errors import BudgetExceededError
from kcge.network import NetworkGraph, chain_network, complete_network
from kcge.states import basis_reversal

import oracles

RNG = np.random.default_rng(77)


def sub(members, n):
    return PartySubset.of(members, n)


class TestGhz:
    def test_standard_ghz_amplitudes(self):
        st = ghz(3, 2, [2**-0.5, 2**-0.5])
        expected = np.zeros(8)
        expected[0] = expected[7] = 2**-0.5
        assert np.allclose(st.amps, expected)
        assert classify(st).max_cge_level == 1

    def test_degenerate_coefficients_give_product(self):
        st = ghz(2, 2, [1.0, 0.0])
        assert np.allclose(st.amps, [1, 0, 0, 0])
        assert classify(st).max_cge_level == 0

    def test_qutrit_single_party_rank(self):
        st = ghz(4, 3, [3**-0.5] * 3)
        for p in range(4):
            assert schmidt_rank(st, sub([p], 4)) == 3

    def test_permutation_symmetry(self):
        st = ghz(4, 3, [0.8, 0.6, 0.0])
        tensor = st.as_tensor()
        perm = RNG.permutation(4)
        assert np.allclose(tensor.transpose(perm), tensor)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ghz(3, 2, [1.0, 1.0])
        with pytest.raises(ValueError):
            ghz(1, 2, [1.0, 0.0])


class TestWType:
    def test_single_excitation_positions(self):
        st = w_type(3, [1.0, 0.0, 0.0, 0.0])
        expected = np.zeros(8)
        expected[0b100] = 1.0
        assert np.allclose(st.amps, expected)
        assert classify(st).max_cge_level == 0

    def test_plain_w_two_party_rank(self):
        st = w_type(4, [0.5, 0.5, 0.5, 0.5, 0.0])
        # Direct SVD oracle on the 16-amplitude vector.
        mat = st.amps.reshape(4, 4)
        sigma = np.linalg.svd(mat, compute_uv=False)
        assert int(np.sum(sigma / sigma[0] > 1e-9)) == 2
        assert schmidt_rank(st, sub([0, 1], 4)) == 2

    def test_all_nonzero_is_level_two(self):
        a = np.full(5, 5**-0.5)
        assert classify(w_type(4, a)).max_cge_level == 2

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            w_type(4, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            w_type(4, [1.0] * 5)


class TestDicke:
    def test_w3_amplitudes(self):
        st = dicke(3, 2, 1)
        expected = np.zeros(8)
        for idx in (0b100, 0b010, 0b001):
            expected[idx] = 3**-0.5
        assert np.allclose(st.amps, expected)

    def test_equal_weights_count(self):
        st = dicke(4, 2, 2)
        nonzero = np.flatnonzero(np.abs(st.amps) > 0)
        assert len(nonzero) == 6
        assert np.allclose(st.amps[nonzero], 6**-0.5)

    def test_excitation_count_matches_binomial_for_qubits(self):
        for n in range(1, 9):
            for s in range(n + 1):
                assert excitation_count(n, 2, s) == math.comb(n, s)

    def test_excitation_count_matches_enumeration_for_qutrits(self):
        from itertools import product

        for n in range(1, 5):
            for s in range(2 * n + 1):
                brute = sum(1 for t in product(range(3), repeat=n) if sum(t) == s)
                assert excitation_count(n, 3, s) == brute

    def test_out_of_range_excitations(self):
        with pytest.raises(ValueError):
            dicke(3, 2, 4)
        with pytest.raises(ValueError):
            dicke(3, 2, -1)

    def test_formula_values(self):
        assert dicke_cge_formula(2, 1) == 2
        assert dicke_cge_formula(2, 3) == 3
        assert dicke_cge_formula(3, 1) == 1

    def test_flip_equivalence_as_level_equality(self):
        for n, d, s in [(4, 2, 1), (5, 2, 2), (3, 3, 2), (4, 3, 3)]:
            a = classify(dicke(n, d, s)).max_cge_level
            b = classify(dicke(n, d, (d - 1) * n - s)).max_cge_level
            assert a == b

    def test_flip_equivalence_as_state_identity(self):
        n, d, s = 4, 3, 3
        st = dicke(n, d, s)
        for p in range(n):
            st = apply_local_operator(st, basis_reversal(d), sub([p], n))
        assert st.allclose(dicke(n, d, (d - 1) * n - s), atol=1e-12)


class TestCluster:
    def test_single_edge_is_epr_pair(self):
        st = cluster_from_epr([(0, 1, math.pi / 4)])
        assert st.dims == (2, 2)
        assert st.allclose(epr_pair(math.pi / 4), atol=1e-12)
        assert classify(st).max_cge_level == 1

    def test_triangle_single_party_ranks(self):
        st = cluster_from_epr(
            [(0, 1, math.pi / 4), (0, 2, math.pi / 4), (1, 2, math.pi / 4)]
        )
        assert st.dims == (4, 4, 4)
        for p in range(3):
            assert schmidt_rank(st, sub([p], 3)) == 4

    def test_random_angles_keep_full_rank(self):
        for _ in range(5):
            thetas = RNG.uniform(0.1, math.pi / 2 - 0.1, size=3)
            st = cluster_from_epr(
                [(0, 1, thetas[0]), (0, 2, thetas[1]), (1, 2, thetas[2])]
            )
            for p in range(3):
                assert schmidt_rank(st, sub([p], 3)) == 4

    def test_phases_do_not_change_single_party_ranks(self):
        edges = [(0, 1, 0.6), (1, 2, 1.1)]
        plain = cluster_from_epr(edges)
        # Party 1 holds two qubits (slots 0 and 1); phase them jointly.
        phased = cluster_from_epr(edges, phases=[(1, 0, 1, 0.9)])
        assert not phased.allclose(plain, atol=1e-12)
        for p in range(3):
            assert schmidt_rank(plain, sub([p], 3)) == schmidt_rank(phased, sub([p], 3))

    def test_degenerate_angles_rejected(self):
        with pytest.raises(ValueError):
            cluster_from_epr([(0, 1, 0.0)])
        with pytest.raises(ValueError):
            cluster_from_epr([(0, 1, math.pi / 2)])

    def test_untouched_party_rejected(self):
        with pytest.raises(ValueError):
            cluster_from_epr([(0, 2, 0.5)])


class TestGraphStates:
    def test_single_hyperedge_equals_ghz(self):
        st = graph_from_epr_ghz([], [((0, 1, 2), math.pi / 4)])
        assert st.allclose(ghz(3, 2, [2**-0.5, 2**-0.5]), atol=1e-12)

    def test_shared_party_dimension_and_rank(self):
        st = graph_from_epr_ghz(
            [(0, 1, math.pi / 4)], [((1, 2, 3), math.pi / 4)]
        )
        assert st.dims == (2, 4, 2, 2)
        assert schmidt_rank(st, sub([1], 4)) == 4

    def test_joint_phases_do_not_change_ranks(self):
        epr = [(0, 1, 0.7)]
        hyper = [((1, 2, 3), 0.9)]
        plain = graph_from_epr_ghz(epr, hyper)
        phased = graph_from_epr_ghz(epr, hyper, joint_phases=[(1, (0, 1), 1.3)])
        assert not phased.allclose(plain, atol=1e-12)
        for p in range(4):
            assert schmidt_rank(plain, sub([p], 4)) == schmidt_rank(phased, sub([p], 4))


class TestNetworkJointState:
    def test_complete_four_party_level(self):
        st = network_joint_state(complete_network(4))
        assert st.dims == (8, 8, 8, 8)
        assert classify(st).max_cge_level == 2

    def test_chain_level(self):
        st = network_joint_state(chain_network(4))
        assert st.dims == (2, 4, 4, 2)
        assert classify(st).max_cge_level == 1

    def test_single_edge(self):
        st = network_joint_state(NetworkGraph(2, ((0, 1, 1),)))
        assert st.allclose(max_entangled_pair(2), atol=1e-12)
        assert classify(st).max_cge_level == 1

    def test_supplied_edge_states_must_match_dims(self):
        g = NetworkGraph(2, ((0, 1, 1, 3),))
        with pytest.raises(ValueError):
            network_joint_state(g, [max_entangled_pair(2)])
        st = network_joint_state(g, [max_entangled_pair(3)])
        assert st.dims == (3, 3)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            network_joint_state(complete_network(6))

    def test_multiplicity_groups_both_units(self):
        g = NetworkGraph(2, ((0, 1, 2),))
        st = network_joint_state(g)
        assert st.dims == (4, 4)
        assert schmidt_rank(st, sub([0], 2)) == 4


class TestFamilySpecs:
    def test_ghz_family_round_trip(self):
        fam = family_from_dict(
            {"family": "ghz", "n": 3, "d": 2, "a": [2**-0.5, 2**-0.5]}
        )
        assert fam.claimed_cge == 1
        st = fam.build()
        assert classify(st).max_cge_level == 1

    def test_dicke_family_claims_formula_value(self):
        # The claim is the classifier's level (the sector count), not the
        # paper formula, which gives 3 here.
        fam = family_from_dict({"family": "dicke", "n": 6, "d": 2, "s": 3})
        assert fam.claimed_cge == classify(fam.build()).max_cge_level == 2
        assert dicke_cge_formula(2, 3) == 3

    def test_dicke_level_exact_matches_oracle(self):
        grid = [(2, n) for n in range(2, 11)] + [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 6)]
        for d, n in grid:
            for s in range(n * (d - 1) + 1):
                assert dicke_level_exact(n, d, s) == oracles.dicke_level_exact(n, d, s)
        for n, d, s in ((4, 2, 2), (5, 3, 4), (6, 2, 3), (3, 2, 2)):
            assert dicke_level_exact(n, d, s) == classify(dicke(n, d, s)).max_cge_level

    def test_w_family_claim(self):
        fam = family_from_dict({"family": "w_type", "n": 4, "a": [5**-0.5] * 5})
        assert fam.claimed_cge == 2

    def test_product_family(self):
        fam = family_from_dict({"family": "product", "dims": [2, 2, 2]})
        assert fam.claimed_cge == 0
        st = fam.build()
        assert classify(st).max_cge_level == 0

    def test_network_family(self):
        fam = family_from_dict(
            {"family": "network", "graph": {"n": 2, "edges": [[0, 1, 1]]}}
        )
        assert fam.build().dims == (2, 2)

    def test_cluster_family(self):
        fam = family_from_dict(
            {"family": "cluster", "edges": [[0, 1, math.pi / 4]]}
        )
        assert fam.claimed_cge == 1
        assert fam.build().dims == (2, 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_from_dict({"family": "bogus"}).build()
        with pytest.raises(ValueError):
            family_from_dict([1, 2, 3])

    def test_state_family_direct(self):
        fam = StateFamily("ghz", {"n": 2, "d": 2, "a": [1.0, 0.0]})
        assert fam.build().total_dim == 4
