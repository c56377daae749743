"""Tensor-core: partial trace, Schmidt analysis, local operators, JSON."""

import json
import math

import numpy as np
import pytest

from kcge import (
    DensityMatrix,
    PartySubset,
    PureState,
    Tolerance,
    apply_local_operator,
    basis_state,
    expand_to_full,
    ghz,
    haar_state,
    haar_unitary,
    partial_trace,
    schmidt,
    schmidt_rank,
    state_from_dict,
    state_to_dict,
    swap_matrix,
)
from kcge.core import basis_change_unitary, complete_basis

from oracles import gram_rank, loop_partial_trace, permutation_embed

RNG = np.random.default_rng(20240811)


def sub(members, n):
    return PartySubset.of(members, n)


def ghz_pair(n):
    return ghz(n, 2, [2**-0.5, 2**-0.5])


class TestTypes:
    def test_pure_state_validation(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.ones(3))
        with pytest.raises(ValueError):
            PureState((2, 2), np.ones(4))  # not normalized
        with pytest.raises(ValueError):
            PureState((1, 2), np.array([1.0, 0.0]))
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="non-finite amplitudes"):
                PureState((2,), np.array([bad, 1.0]))
            with pytest.raises(ValueError, match="non-finite amplitudes"):
                PureState((2,), np.array([bad, 1.0]), check_norm=False)
        st = PureState((2,), np.array([1.0, 0.0]))
        assert st.total_dim == 2

    def test_amps_are_readonly(self):
        st = basis_state((2, 2))
        with pytest.raises(ValueError):
            st.amps[0] = 0.0

    def test_party_subset_validation(self):
        with pytest.raises(ValueError):
            PartySubset((), 3)
        with pytest.raises(ValueError):
            PartySubset((2, 1), 3)
        with pytest.raises(ValueError):
            PartySubset((0, 3), 3)
        s = sub([2, 0], 3)
        assert s.members == (0, 2)
        assert s.complement == (1,)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rank_cutoff=0.0)
        with pytest.raises(ValueError):
            Tolerance(reconstruction_atol=1.0)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.array([[1.0, 0.5], [0.4, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue


class TestPartialTrace:
    def test_product_state(self):
        rho = partial_trace(basis_state((2, 2, 2)), sub([0], 3))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_ghz_single_party_is_maximally_mixed(self):
        rho = partial_trace(ghz_pair(3), sub([0], 3))
        assert np.allclose(rho.matrix, np.diag([0.5, 0.5]))

    def test_random_state_matches_loop_oracle(self):
        st = haar_state((2, 2, 2, 2), RNG)
        rho = partial_trace(st, sub([1, 3], 4))
        expected = loop_partial_trace(st.amps, st.dims, [1, 3])
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_density_matrix_input_matches_pure_path(self):
        st = haar_state((2, 3, 2), RNG)
        keep = sub([0, 2], 3)
        assert partial_trace(st.density(), keep).allclose(partial_trace(st, keep))

    def test_rejects_empty_and_full_subsets(self):
        st = basis_state((2, 2))
        with pytest.raises(ValueError):
            partial_trace(st, PartySubset((0, 1), 2))
        with pytest.raises(ValueError):
            partial_trace(st, PartySubset((0,), 3))

    def test_invariants_on_random_states(self):
        for _ in range(50):
            n = int(RNG.integers(2, 5))
            st = haar_state((2,) * n, RNG)
            keep = sub(RNG.choice(n, size=int(RNG.integers(1, n)), replace=False), n)
            rho = partial_trace(st, keep)
            assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12


class TestSchmidt:
    def test_ghz_cut_single_party(self):
        sd = schmidt(ghz_pair(3), sub([0], 3))
        assert sd.rank == 2
        assert np.allclose(sorted(sd.coefficients), [0.5, 0.5])

    def test_w3_two_party_cut_rank_two(self):
        from kcge import dicke

        sd = schmidt(dicke(3, 2, 1), sub([0, 1], 3))
        assert sd.rank == 2

    def test_random_qutrit_rank_matches_gram_oracle(self):
        for _ in range(10):
            st = haar_state((3, 3, 3), RNG)
            cut = [2]
            assert schmidt_rank(st, sub(cut, 3)) == gram_rank(st.amps, st.dims, cut)

    def test_rank_examples(self):
        assert schmidt_rank(basis_state((2, 2)), sub([0], 2)) == 1
        assert schmidt_rank(ghz(4, 3, [3**-0.5] * 3), sub([1, 2], 4)) == 3
        from kcge import dicke

        assert schmidt_rank(dicke(4, 2, 2), sub([0, 1], 4)) == 3

    def test_rank_symmetry_under_complement(self):
        for _ in range(25):
            dims = tuple(int(d) for d in RNG.integers(2, 4, size=int(RNG.integers(2, 5))))
            st = haar_state(dims, RNG)
            n = len(dims)
            size = int(RNG.integers(1, n))
            cut = sub(RNG.choice(n, size=size, replace=False), n)
            comp = PartySubset(cut.complement, n)
            assert schmidt_rank(st, cut) == schmidt_rank(st, comp)

    def test_reconstruction(self):
        for _ in range(20):
            dims = tuple(int(d) for d in RNG.integers(2, 4, size=3))
            st = haar_state(dims, RNG)
            cut = sub([int(RNG.integers(0, 3))], 3)
            sd = schmidt(st, cut)
            assert sd.reconstruct().allclose(st, atol=1e-9)
            assert abs(float(np.sum(sd.coefficients)) - 1.0) < 1e-9

    def test_bases_orthonormal(self):
        st = haar_state((2, 2, 3), RNG)
        sd = schmidt(st, sub([0, 2], 3))
        for basis in (sd.basis_cut, sd.basis_rest):
            gram = basis.conj().T @ basis
            assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)

    def test_rank_monotone_in_subset_growth(self):
        for _ in range(25):
            n = 4
            st = haar_state((2,) * n, RNG)
            members = sorted(RNG.choice(n, size=2, replace=False).tolist())
            j = next(p for p in range(n) if p not in members)
            small = schmidt_rank(st, sub(members, n))
            grown = schmidt_rank(st, sub(members + [j], n))
            assert grown <= 2 * small
            assert small <= 2 * grown

    def test_local_unitary_invariance(self):
        st = haar_state((2, 2, 2, 2), RNG)
        cut = sub([0, 2], 4)
        base = schmidt_rank(st, cut)
        for party in range(4):
            u = haar_unitary(2, RNG)
            rotated = apply_local_operator(st, u, sub([party], 4))
            assert schmidt_rank(rotated, cut) == base

    def test_nondefault_cutoff_changes_rank(self):
        amps = np.array([math.sqrt(1 - 1e-8), 0.0, 0.0, 1e-4])
        st = PureState((2, 2), amps)
        assert schmidt_rank(st, sub([0], 2)) == 2
        assert schmidt_rank(st, sub([0], 2), Tolerance(rank_cutoff=1e-3)) == 1


class TestApplyLocalOperator:
    def test_identity_noop(self):
        st = haar_state((2, 3, 2), RNG)
        out = apply_local_operator(st, np.eye(6), sub([1, 2], 3))
        assert out.allclose(st, atol=1e-12)

    def test_bit_flip(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        out = apply_local_operator(basis_state((2, 2)), x, sub([0], 2))
        assert np.allclose(out.amps, [0, 0, 1, 0])

    def test_cnot_relabel_splits_ghz(self):
        # Flip the middle party conditioned on the last one: GHZ(3) becomes
        # a Bell pair between parties 0 and 2 with party 1 in |0>.
        cnot = np.zeros((4, 4), dtype=complex)
        cnot[0b00, 0b00] = 1
        cnot[0b11, 0b01] = 1
        cnot[0b10, 0b10] = 1
        cnot[0b01, 0b11] = 1
        out = apply_local_operator(ghz_pair(3), cnot, sub([1, 2], 3))
        expected = np.zeros(8)
        expected[0b000] = 2**-0.5
        expected[0b101] = 2**-0.5
        assert np.allclose(out.amps, expected)

    def test_nonunitary_flagged_unless_opted_in(self):
        k = np.diag([1.0, 0.0])
        st = haar_state((2, 2), RNG)
        with pytest.raises(ValueError):
            apply_local_operator(st, k, sub([0], 2))
        out = apply_local_operator(st, k, sub([0], 2), allow_nonunitary=True)
        assert out.norm < 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_local_operator(basis_state((2, 2)), np.eye(3), sub([0], 2))


class TestOperatorTools:
    def test_expand_matches_permutation_oracle(self):
        dims = (2, 3, 2)
        op = haar_unitary(4, RNG)
        ours = expand_to_full(op, [0, 2], dims)
        theirs = permutation_embed(op, [0, 2], dims)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_expand_unordered_parties(self):
        dims = (2, 2)
        ours = expand_to_full(swap_matrix(2), [1, 0], dims)
        theirs = permutation_embed(swap_matrix(2), [1, 0], dims)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_swap_matrix(self):
        s = swap_matrix(3)
        st = haar_state((3, 3), RNG)
        swapped = apply_local_operator(st, s, sub([0, 1], 2))
        assert np.allclose(swapped.as_tensor(), st.as_tensor().T)

    def test_complete_basis_is_unitary(self):
        vecs = np.linalg.qr(RNG.standard_normal((6, 2)) + 1j * RNG.standard_normal((6, 2)))[0]
        full = complete_basis(vecs)
        assert np.allclose(full.conj().T @ full, np.eye(6), atol=1e-10)
        assert np.allclose(full[:, :2], vecs)

    def test_basis_change_maps_sources_to_targets(self):
        src = np.linalg.qr(RNG.standard_normal((5, 3)) + 1j * RNG.standard_normal((5, 3)))[0]
        tgt = np.linalg.qr(RNG.standard_normal((5, 3)) + 1j * RNG.standard_normal((5, 3)))[0]
        u = basis_change_unitary(src, tgt)
        assert np.allclose(u @ src, tgt, atol=1e-10)
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-10)


class TestStateJson:
    def test_round_trip(self):
        st = haar_state((2, 3), RNG)
        encoded = json.dumps(state_to_dict(st))
        back = state_from_dict(json.loads(encoded))
        assert back.allclose(st, atol=1e-15)

    def test_reader_normalizes_small_deviation(self):
        obj = {"dims": [2], "amps": [[1.0 + 5e-7, 0.0], [0.0, 0.0]]}
        st = state_from_dict(obj)
        assert abs(st.norm - 1.0) < 1e-12

    def test_reader_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            state_from_dict({"dims": [2], "amps": [[0.5, 0.0], [0.0, 0.0]]})
        for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="non-finite amplitudes"):
                state_from_dict({"dims": [2], "amps": [bad, [0.0, 0.0]]})

    def test_reader_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            state_from_dict({"dims": [2, 2], "amps": [[1.0, 0.0]]})
