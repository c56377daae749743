"""Classifier: level verdicts, hierarchy, caps, oracle agreement."""

import numpy as np
import pytest

from kcge import (
    PartySubset,
    PureState,
    apply_local_operator,
    basis_state,
    classify,
    compare_dicke_formula,
    dicke,
    ghz,
    haar_state,
    haar_unitary,
    is_k_cge,
    is_k_connection_biseparable,
    network_joint_state,
    schmidt_rank,
    subset_threshold,
    w_type,
)
from kcge.errors import BudgetExceededError
from kcge.network import complete_network

from oracles import brute_classify

RNG = np.random.default_rng(4242)


def sub(members, n):
    return PartySubset.of(members, n)


def random_w4(rng):
    a = rng.uniform(0.15, 1.0, size=5) * rng.choice([-1.0, 1.0], size=5)
    return w_type(4, a / np.linalg.norm(a))


def planted_low_rank_state(dims, cut_members, freed, rng):
    """State built so the cut can free ``freed``: an arbitrary state of the
    other parties against |0> at ``freed``, scrambled inside the cut."""
    n = len(dims)
    rest = [p for p in range(n) if p != freed]
    rest_dim = int(np.prod([dims[p] for p in rest]))
    z = rng.standard_normal(rest_dim) + 1j * rng.standard_normal(rest_dim)
    z /= np.linalg.norm(z)
    nd = np.zeros(dims, dtype=complex)
    slicer = [slice(None)] * n
    slicer[freed] = 0
    nd[tuple(slicer)] = z.reshape([dims[p] for p in rest])
    st = PureState(dims, nd.reshape(-1))
    cut = sub(cut_members, n)
    u = haar_unitary(int(np.prod([dims[p] for p in cut.members])), rng)
    return apply_local_operator(st, u, cut)


class TestIsKCge:
    def test_ghz4_level_one_holds(self):
        v = is_k_cge(ghz(4, 2, [2**-0.5, 2**-0.5]), 1)
        assert v.is_cge and v.witness is None

    def test_ghz4_level_two_fails_with_first_witness(self):
        v = is_k_cge(ghz(4, 2, [2**-0.5, 2**-0.5]), 2)
        assert not v.is_cge
        assert v.witness == (0, 1)
        assert v.witness_rank == 2
        assert v.witness_threshold == 2

    def test_w4_level_two_holds(self):
        for _ in range(3):
            assert is_k_cge(random_w4(RNG), 2).is_cge

    def test_level_out_of_range(self):
        st = ghz(4, 2, [2**-0.5, 2**-0.5])
        with pytest.raises(ValueError):
            is_k_cge(st, 0)
        with pytest.raises(ValueError):
            is_k_cge(st, 3)

    def test_rank_tie_counts_as_biseparable(self):
        # GHZ(4, 2) at k=2 has rank exactly equal to the threshold; the
        # strict comparison must fail the level.
        v = is_k_cge(ghz(4, 2, [2**-0.5, 2**-0.5]), 2)
        assert v.witness_rank == v.witness_threshold
        assert not v.is_cge


class TestClassify:
    def test_all_zeros_is_level_zero(self):
        for n in (2, 3, 5):
            assert classify(basis_state((2,) * n)).max_cge_level == 0

    def test_complete_network_level_two(self):
        st = network_joint_state(complete_network(4))
        assert classify(st).max_cge_level == 2

    def test_dicke_6_2_3_follows_strict_rank_rule(self):
        # The closed-form level claim is 3; the rank at every 3-party cut
        # ties the threshold 4, so the strict criterion yields 2. The
        # comparison record reports the disagreement.
        report = classify(dicke(6, 2, 3))
        assert report.max_cge_level == 2
        check = compare_dicke_formula(6, 2, 3)
        assert check.classifier_level == 2
        assert check.formula_level == 3
        assert check.exact_power and not check.matches

    def test_report_contents(self):
        report = classify(ghz(4, 2, [2**-0.5, 2**-0.5]))
        assert report.max_cge_level == 1
        assert [v.k for v in report.per_level] == [1, 2]
        assert report.per_level[0].is_cge
        assert not report.per_level[1].is_cge
        assert report.thresholds_used == ((1, 1), (2, 2))
        d = report.to_dict()
        assert d["max_cge_level"] == 1
        assert d["per_level"][1]["witness"] == [0, 1]

    def test_short_circuit_marks_higher_levels_implied(self):
        report = classify(haar_state((2,) * 6, RNG))
        failed = [v for v in report.per_level if not v.is_cge]
        if len(failed) > 1:
            assert all(v.implied for v in failed[1:])

    def test_max_k_caps_scan(self):
        st = network_joint_state(complete_network(4))
        report = classify(st, max_k=1)
        assert report.max_cge_level == 1
        assert len(report.per_level) == 1

    def test_heterogeneous_threshold_rule(self):
        # Chain-network joint state has dims (2, 4, 4, 2); the generalized
        # per-subset threshold dim(I)/min d must drive the verdicts.
        from kcge.network import chain_network

        st = network_joint_state(chain_network(4))
        assert subset_threshold(st.dims, (0, 1)) == 4
        assert subset_threshold(st.dims, (1, 2)) == 4
        assert schmidt_rank(st, sub([0, 1], 4)) == 2
        assert classify(st).max_cge_level == 1

    def test_budget_refusals(self):
        st = haar_state((2, 2, 2), RNG)
        with pytest.raises(BudgetExceededError):
            classify(st, budget_dim=4)


class TestBiseparable:
    def test_negation_of_is_k_cge(self):
        g4 = ghz(4, 2, [2**-0.5, 2**-0.5])
        assert is_k_connection_biseparable(g4, 2)
        assert not is_k_connection_biseparable(random_w4(RNG), 2)

    def test_above_cap_always_biseparable(self):
        for st in (ghz(4, 2, [2**-0.5, 2**-0.5]), haar_state((2,) * 5, RNG)):
            k = st.n // 2 + 1
            assert is_k_connection_biseparable(st, k)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            is_k_connection_biseparable(basis_state((2, 2)), 0)


class TestProperties:
    def test_hierarchy_monotone_on_random_states(self):
        for _ in range(60):
            n = int(RNG.integers(4, 7))
            st = haar_state((2,) * n, RNG)
            verdicts = [is_k_cge(st, k).is_cge for k in range(1, n // 2 + 1)]
            for lower, higher in zip(verdicts, verdicts[1:]):
                assert lower or not higher

    def test_cap_never_exceeded(self):
        for _ in range(30):
            n = int(RNG.integers(2, 7))
            st = haar_state((2,) * n, RNG)
            assert classify(st).max_cge_level <= n // 2

    def test_local_unitary_invariance(self):
        for _ in range(10):
            st = haar_state((2,) * 4, RNG)
            base = classify(st).max_cge_level
            rotated = st
            for p in range(4):
                rotated = apply_local_operator(rotated, haar_unitary(2, RNG), sub([p], 4))
            assert classify(rotated).max_cge_level == base

    def test_size_k_sufficiency(self):
        # Whenever some small subset certifies biseparability, a larger
        # superset must as well (low ranks propagate upward).
        candidates = [
            ghz(5, 2, [2**-0.5, 2**-0.5]),
            dicke(5, 2, 1),
            planted_low_rank_state((2,) * 5, [0, 1], 0, RNG),
            planted_low_rank_state((2,) * 6, [2, 3, 4], 3, RNG),
        ]
        from itertools import combinations

        for st in candidates:
            n = st.n
            for j in range(1, n // 2):
                for small in combinations(range(n), j):
                    rank = schmidt_rank(st, sub(small, n))
                    if rank > subset_threshold(st.dims, small):
                        continue
                    for k in range(j + 1, n // 2 + 1):
                        supersets = [
                            s
                            for s in combinations(range(n), k)
                            if set(small) <= set(s)
                        ]
                        assert any(
                            schmidt_rank(st, sub(s, n)) <= subset_threshold(st.dims, s)
                            for s in supersets
                        )

    def test_planted_states_are_biseparable_at_cut_size(self):
        st = planted_low_rank_state((2,) * 4, [0, 1], 1, RNG)
        assert is_k_connection_biseparable(st, 2)

    def test_brute_force_equivalence_small_corpus(self):
        corpus = [
            ghz(3, 2, [2**-0.5, 2**-0.5]),
            ghz(4, 2, [0.8, 0.6]),
            dicke(4, 2, 2),
            random_w4(RNG),
            haar_state((2,) * 3, RNG),
            haar_state((2,) * 4, RNG),
            planted_low_rank_state((2,) * 4, [0, 1], 0, RNG),
        ]
        for st in corpus:
            assert classify(st).max_cge_level == brute_classify(st.amps, st.dims)
