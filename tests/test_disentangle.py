"""Disentangling unitaries, two-layer preparation, channel application."""

import itertools

import numpy as np
import pytest

from kcge import (
    BiseparableChannel,
    DensityMatrix,
    KConnectionChannel,
    PartySubset,
    PureState,
    apply_biseparable_channel,
    apply_k_connection_channel,
    apply_local_operator,
    basis_state,
    build_disentangling_unitary,
    dicke,
    expand_to_full,
    ghz,
    haar_state,
    haar_unitary,
    network_joint_state,
    partial_trace,
    schmidt,
    schmidt_rank,
    two_depth_decompose,
    w_type,
)
from kcge.disentangle import CHANNEL_ATOL, identity_biseparable_channel
from kcge.errors import ChannelCompletenessError, DisentangleRankError
from kcge.network import chain_network, star_network

from oracles import kraus_apply, kron_gram_defect, loop_partial_trace, permutation_embed, svd_rank

RNG = np.random.default_rng(90125)


def sub(members, n):
    return PartySubset.of(members, n)


def rank_two_422(rng):
    """(4, 2, 2) state of Schmidt rank 2 across party 0, weights 0.64 and
    0.36, built from Haar unitaries."""
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    mat = u[:, :2] @ np.diag(np.sqrt([0.64, 0.36])) @ v[:, :2].T
    return PureState((4, 2, 2), mat.reshape(-1))


def ghz_pair(n):
    return ghz(n, 2, [2**-0.5, 2**-0.5])


def unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def planted(dims, cut_members, freed, rng):
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
    u = haar_unitary(int(np.prod([dims[p] for p in cut_members])), rng)
    return apply_local_operator(st, u, sub(cut_members, n))


class TestDisentanglingUnitary:
    def test_ghz_frees_middle_party(self):
        st = ghz_pair(3)
        cut = sub([1, 2], 3)
        u = build_disentangling_unitary(st, cut, 1)
        assert unitarity_defect(u) < 1e-9
        out = apply_local_operator(st, u, cut)
        freed = partial_trace(out, sub([1], 3))
        assert abs(freed.matrix[0, 0] - 1.0) < 1e-9
        # What remains between parties 0 and 2 is still a balanced pair.
        sd = schmidt(out, sub([0], 3))
        assert sd.rank == 2
        assert np.allclose(sorted(sd.coefficients), [0.5, 0.5], atol=1e-12)

    def test_product_state_stays_unchanged(self):
        st = basis_state((2, 2, 2))
        u = build_disentangling_unitary(st, sub([0, 1], 3), 0)
        assert np.allclose(u, np.eye(4), atol=1e-12)
        assert apply_local_operator(st, u, sub([0, 1], 3)).allclose(st)

    def test_random_planted_state_checked_by_loop_oracle(self):
        st = planted((2, 2, 2, 2), [0, 1, 2], 0, RNG)
        cut = sub([0, 1, 2], 4)
        assert schmidt_rank(st, cut) <= 4
        u = build_disentangling_unitary(st, cut, 0)
        out = apply_local_operator(st, u, cut)
        rho0 = loop_partial_trace(out.amps, out.dims, [0])
        assert abs(rho0[0, 0] - 1.0) < 1e-9

    def test_rank_violation_reports_rank_and_capacity(self):
        # Two crossing pairs force rank 4 across {0, 1}, above capacity 2.
        from kcge.network import NetworkGraph

        st = network_joint_state(NetworkGraph(4, ((0, 2, 1), (1, 3, 1))))
        with pytest.raises(DisentangleRankError) as err:
            build_disentangling_unitary(st, sub([0, 1], 4), 0)
        assert err.value.rank == 4
        assert err.value.capacity == 2

    def test_free_party_must_belong_to_cut(self):
        with pytest.raises(ValueError):
            build_disentangling_unitary(ghz_pair(3), sub([1, 2], 3), 0)

    def test_unitarity_over_random_cases(self):
        for _ in range(20):
            n = int(RNG.integers(3, 5))
            dims = (2,) * n
            size = int(RNG.integers(2, n))
            cut_members = sorted(RNG.choice(n, size=size, replace=False).tolist())
            freed = int(RNG.choice(cut_members))
            st = planted(dims, cut_members, freed, RNG)
            u = build_disentangling_unitary(st, sub(cut_members, n), freed)
            assert unitarity_defect(u) < 1e-9
            out = apply_local_operator(st, u, sub(cut_members, n))
            rho = partial_trace(out, sub([freed], n))
            assert abs(rho.matrix[0, 0] - 1.0) < 1e-9


class TestConverse:
    def test_crossing_pairs_cannot_be_freed_by_any_cut_unitary(self):
        # EPR(0,2) x EPR(1,3): the {0,1} marginal is maximally mixed, so no
        # unitary on {0, 1} purifies either party; the largest single-party
        # eigenvalue stays pinned at 1/2.
        from kcge.network import NetworkGraph

        st = network_joint_state(NetworkGraph(4, ((0, 2, 1), (1, 3, 1))))
        cut = sub([0, 1], 4)
        for _ in range(40):
            u = haar_unitary(4, RNG)
            out = apply_local_operator(st, u, cut)
            for p in (0, 1):
                top = partial_trace(out, sub([p], 4)).eigenvalues()[-1]
                assert top < 0.5 + 1e-9

    def test_full_rank_random_state_resists_random_search(self):
        st = haar_state((2, 2, 2, 2), RNG)
        assert schmidt_rank(st, sub([0, 1], 4)) == 4
        cut = sub([0, 1], 4)
        best = 0.0
        for _ in range(100):
            u = haar_unitary(4, RNG)
            out = apply_local_operator(st, u, cut)
            for p in (0, 1):
                best = max(best, float(partial_trace(out, sub([p], 4)).eigenvalues()[-1]))
        assert best < 1.0 - 1e-3


class TestTwoDepth:
    def test_zero_state_gives_identity_layers(self):
        st = basis_state((2, 2, 2))
        dec = two_depth_decompose(st)
        assert np.allclose(dec.layer1, np.eye(dec.layer1.shape[0]), atol=1e-12)
        assert np.allclose(dec.layer2, np.eye(dec.layer2.shape[0]), atol=1e-12)
        assert dec.prepare(st.dims).allclose(st)

    def test_ghz_reconstruction(self):
        st = ghz_pair(3)
        dec = two_depth_decompose(st)
        rebuilt = dec.prepare(st.dims)
        assert float(np.max(np.abs(rebuilt.amps - st.amps))) < 1e-9

    def test_random_qutrit_reconstruction(self):
        st = haar_state((3, 3, 3, 3), RNG)
        dec = two_depth_decompose(st)
        rebuilt = dec.prepare(st.dims)
        assert float(np.max(np.abs(rebuilt.amps - st.amps))) < 1e-9

    def test_layer_structure(self):
        st = haar_state((2, 2, 2, 2), RNG)
        dec = two_depth_decompose(st)
        assert dec.layer1_parties.members == (0, 2, 3)
        assert dec.layer2_parties.members == (1, 2, 3)
        assert unitarity_defect(dec.layer1) < 1e-9
        assert unitarity_defect(dec.layer2) < 1e-9
        assert not dec.degenerate

    def test_two_party_degenerate_case(self):
        st = haar_state((2, 2), RNG)
        dec = two_depth_decompose(st)
        assert dec.degenerate
        assert dec.layer1_parties.members == (0, 1)
        assert dec.prepare(st.dims).allclose(st, atol=1e-9)

    def test_alternate_roles(self):
        st = haar_state((2, 2, 2), RNG)
        dec = two_depth_decompose(st, pivot=2, freed=0)
        assert dec.layer1_parties.members == (1, 2)
        assert dec.layer2_parties.members == (0, 1)
        assert dec.prepare(st.dims).allclose(st, atol=1e-9)

    def test_rank_two_state_with_round_off_tail_decomposes(self):
        # Rank 2 across the pivot, so it fits the capacity dim(rest) = 2,
        # but the SVD also returns two round-off coefficients.
        st = rank_two_422(np.random.default_rng(5))
        sd = schmidt(st, sub([0], 3))
        assert sd.rank == 2 and sd.coefficients.size == 4
        dec = two_depth_decompose(st)
        assert float(np.max(np.abs(dec.prepare(st.dims).amps - st.amps))) <= 1e-12

    def test_full_rank_pivot_cut_is_refused(self):
        with pytest.raises(DisentangleRankError) as err:
            two_depth_decompose(haar_state((4, 2, 2), RNG))
        assert err.value.rank == 4
        assert err.value.capacity == 2

    def test_freed_party_out_of_range(self):
        for dims, freed in [((2, 2), 7), ((2, 2), -1), ((2, 2, 2), 3)]:
            with pytest.raises(ValueError, match="invalid roles"):
                two_depth_decompose(haar_state(dims, RNG), freed=freed)

    def test_every_role_pair_against_the_svd_rank_oracle(self):
        # The decomposition is refused exactly when the pivot's Schmidt rank,
        # counted by the full SVD oracle, exceeds the dimension of the
        # parties other than pivot and freed.
        rng = np.random.default_rng(4417)
        corpus = [haar_state(dims, rng) for dims in [(2, 2, 2), (4, 2, 2), (2, 3, 2, 2), (3, 3, 3)]]
        corpus += [
            rank_two_422(rng),
            ghz_pair(4),
            dicke(5, 2, 2),
            w_type(4, [0.5, 0.5, 0.5, 0.5, 0.0]),
            network_joint_state(chain_network(4)),
            network_joint_state(star_network(4)),
        ]
        refused = 0
        for st in corpus:
            n = st.n
            for pivot, freed in itertools.permutations(range(n), 2):
                rank = svd_rank(st.amps, st.dims, [pivot])
                rest = [p for p in range(n) if p not in (pivot, freed)]
                capacity = int(np.prod([st.dims[p] for p in rest]))
                if rank > capacity:
                    refused += 1
                    with pytest.raises(DisentangleRankError) as err:
                        two_depth_decompose(st, pivot=pivot, freed=freed)
                    assert (err.value.rank, err.value.capacity) == (rank, capacity)
                    continue
                dec = two_depth_decompose(st, pivot=pivot, freed=freed)
                assert dec.layer1_parties.members == tuple(p for p in range(n) if p != freed)
                assert dec.layer2_parties.members == tuple(p for p in range(n) if p != pivot)
                error = float(np.max(np.abs(dec.prepare(st.dims).amps - st.amps)))
                assert error <= 1e-12
                # layer1 maps |0...0> to a vector with at most dims[pivot]
                # Schmidt terms, each on one basis state of the rest, and
                # every other amplitude is exactly zero.
                support = st.dims[pivot] * min(st.dims[pivot], capacity)
                assert np.count_nonzero(dec.layer1[:, 0]) <= support
        assert refused > 0

    def test_universal_over_random_states(self):
        for _ in range(15):
            n = int(RNG.integers(3, 6))
            d = int(RNG.integers(2, 4))
            st = haar_state((d,) * n, RNG)
            rebuilt = two_depth_decompose(st).prepare(st.dims)
            assert float(np.max(np.abs(rebuilt.amps - st.amps))) < 1e-9


class TestChannels:
    def test_identity_channel_is_noop(self):
        rho = ghz_pair(3).density()
        ch = identity_biseparable_channel((2, 2, 2), sub([0], 3))
        assert apply_biseparable_channel(rho, ch).allclose(rho)

    def test_dephasing_preserves_trace(self):
        rho = haar_state((2, 2, 2), RNG).density()
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        ch = BiseparableChannel(sub([0], 3), ((p0, np.eye(4)), (p1, np.eye(4))))
        out = apply_biseparable_channel(rho, ch)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12
        assert out.eigenvalues()[0] > -1e-12

    def test_completeness_is_decided_as_the_kronecker_gram_decides(self):
        # The channel checks sum K^H K x S^H S, the Kronecker oracle builds
        # every K x S. Complete families of isometry blocks on each side are
        # accepted; scaling every cut-side factor by 1 + 1e-8 moves the Gram
        # matrix by about 2e-8 > CHANNEL_ATOL and is refused, by 1 + 1e-11
        # about 2e-11 and is accepted.
        rng = np.random.default_rng(7207)

        def kraus_family(d, count):
            u = haar_unitary(d * count, rng)
            return [u[j * d : (j + 1) * d, :d] for j in range(count)]

        cut = sub([0], 2)
        for cut_dim, rest_dim, counts in [(2, 2, (1, 1)), (4, 8, (2, 3)), (8, 16, (3, 2)),
                                          (16, 16, (2, 2))]:
            ks, ss = kraus_family(cut_dim, counts[0]), kraus_family(rest_dim, counts[1])
            for scale, complete in ((1.0, True), (1 + 1e-8, False), (1 + 1e-11, True)):
                pairs = tuple((scale * k, s) for k in ks for s in ss)
                assert (kron_gram_defect(pairs) <= CHANNEL_ATOL) == complete
                if complete:
                    BiseparableChannel(cut, pairs)
                else:
                    with pytest.raises(ChannelCompletenessError, match="sum to identity"):
                        BiseparableChannel(cut, pairs)

    def test_kraus_factors_must_be_square_and_uniform(self):
        eye2, eye4 = np.eye(2), np.eye(4)
        for pairs, side in [
            (((np.ones((2, 3)), eye2),), "cut-side"),
            (((eye2 / 2, eye2), (eye2 / 2, eye4)), "complement-side"),
            (((eye2, np.ones(2)),), "complement-side"),
        ]:
            with pytest.raises(ValueError, match=f"{side} Kraus operators must be square and uniform"):
                BiseparableChannel(sub([0], 2), pairs)
        for terms in [
            ((eye2, (eye2, np.ones((2, 3)))),),
            ((eye2 / 2, (eye2, eye2)), (eye2 / 2, (eye2, eye4))),
        ]:
            with pytest.raises(ValueError, match="single-party Kraus factors must be square"):
                KConnectionChannel(sub([0], 3), terms)
        with pytest.raises(ValueError, match="expected 2 single-party factors, got 1"):
            KConnectionChannel(sub([0], 3), ((eye2, (eye2,)),))

    def test_completeness_violation_rejected(self):
        with pytest.raises(ChannelCompletenessError):
            BiseparableChannel(sub([0], 2), ((np.eye(2) * 0.5, np.eye(2)),))
        with pytest.raises(ChannelCompletenessError):
            KConnectionChannel(sub([0], 3), ((np.eye(2) * 0.7, (np.eye(2), np.eye(2))),))

    def test_state_preparation_mixture_matches_direct_sum(self):
        # A mixture of one-sided preparation channels: each Kraus family
        # K = sqrt(p) |phi><a|, S = |psi><b| maps everything to
        # p |phi><phi| x |psi><psi|; the output must equal the convex
        # mixture computed by a direct Kraus-sum oracle.
        dims = (2, 2, 2)
        rho0 = basis_state(dims).density()
        cut = sub([0], 3)
        phi = haar_state((2,), RNG)
        psi = haar_state((2, 2), RNG)
        pairs = []
        for a in range(2):
            for b in range(4):
                k = np.outer(phi.amps, np.eye(2)[a])
                s = np.outer(psi.amps, np.eye(4)[b])
                pairs.append((k, s))
        ch = BiseparableChannel(cut, tuple(pairs))
        out = apply_biseparable_channel(rho0, ch)
        full_ops = [
            expand_to_full(np.kron(k, s), [0, 1, 2], dims) for k, s in pairs
        ]
        expected = kraus_apply(rho0.matrix, full_ops)
        assert np.allclose(out.matrix, expected, atol=1e-12)
        target = np.kron(
            np.outer(phi.amps, phi.amps.conj()), np.outer(psi.amps, psi.amps.conj())
        )
        assert np.allclose(out.matrix, target, atol=1e-12)

    def test_mixture_of_cuts(self):
        # q-weighted mixture over two biseparable channels with different
        # cuts, evaluated against the direct sum.
        dims = (2, 2)
        rho = haar_state(dims, RNG).density()
        u0, u1 = haar_unitary(2, RNG), haar_unitary(2, RNG)
        ch_a = BiseparableChannel(sub([0], 2), ((u0, np.eye(2)),))
        ch_b = BiseparableChannel(sub([1], 2), ((u1, np.eye(2)),))
        q = 0.3
        mixed = q * apply_biseparable_channel(rho, ch_a).matrix + (1 - q) * (
            apply_biseparable_channel(rho, ch_b).matrix
        )
        oracle = q * kraus_apply(rho.matrix, [np.kron(u0, np.eye(2))]) + (
            1 - q
        ) * kraus_apply(rho.matrix, [np.kron(np.eye(2), u1)])
        assert np.allclose(mixed, oracle, atol=1e-12)

    def test_k_connection_identity_and_swap(self):
        st = network_joint_state(chain_network(3))
        rho = st.density()
        n = 3
        cut = sub([0, 1], n)
        dims = st.dims
        ident = KConnectionChannel(
            cut,
            ((np.eye(dims[0] * dims[1]), (np.eye(dims[2]),)),),
        )
        assert apply_k_connection_channel(rho, ident).allclose(rho)
        # Swap the two qubits held by party 1 (a unitary inside the cut).
        swap01 = expand_to_full(np.eye(4)[[0, 2, 1, 3]], [1, 2], (2, 2, 2))
        ch = KConnectionChannel(cut, ((swap01, (np.eye(dims[2]),)),))
        out = apply_k_connection_channel(rho, ch)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_chain_disentangling_channel_frees_end_party(self):
        # Three-party chain: a joint unitary on {0, 1} plus identities on
        # party 2 pushes party 0 into |0><0|.
        st = network_joint_state(chain_network(3))
        cut = sub([0, 1], 3)
        u = build_disentangling_unitary(st, cut, 0)
        ch = KConnectionChannel(cut, ((u, (np.eye(st.dims[2]),)),))
        out = apply_k_connection_channel(st.density(), ch)
        freed = partial_trace(out, sub([0], 3))
        assert abs(freed.matrix[0, 0] - 1.0) < 1e-9

    def test_channel_dimension_mismatch(self):
        rho = haar_state((2, 2), RNG).density()
        ch = identity_biseparable_channel((2, 2, 2), sub([0], 3))
        with pytest.raises(ValueError):
            apply_biseparable_channel(rho, ch)

    def test_random_isometry_channels_preserve_trace_and_psd(self):
        for _ in range(5):
            rho = haar_state((2, 2), RNG).density()
            # Random Kraus pair family from partitioned unitary columns:
            # K_i = <i| U with U on an enlarged space, restricted per block.
            u = haar_unitary(4, RNG)
            ks = [u[0:2, 0:2], u[2:4, 0:2]]
            # Completeness: sum K_i^dag K_i = (U^dag U)[0:2, 0:2] = I.
            ch = BiseparableChannel(
                sub([0], 2), tuple((k, np.eye(2)) for k in ks)
            )
            out = apply_biseparable_channel(rho, ch)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert out.eigenvalues()[0] > -1e-12

    def test_k_connection_channel_matches_permuted_kraus_oracle(self):
        # Kraus terms A_a x B_b x C_c from complete families of isometry
        # blocks, one family per side, checked against the direct Kraus sum
        # of the products embedded by an explicit basis permutation.
        rng = np.random.default_rng(6203)

        def kraus_family(d, count):
            u = haar_unitary(d * count, rng)
            return [u[j * d : (j + 1) * d, :d] for j in range(count)]

        for dims, members in [((2, 3, 2), (1,)), ((2, 2, 3, 2), (0, 2)), ((3, 2, 2, 2), (1, 2, 3))]:
            n = len(dims)
            cut = sub(members, n)
            cut_family = kraus_family(int(np.prod([dims[p] for p in members])), 2)
            local_families = [kraus_family(dims[p], 2) for p in cut.complement]
            terms = []
            for k in cut_family:
                for locals_ in itertools.product(*local_families):
                    terms.append((k, locals_))
            g = rng.standard_normal((np.prod(dims), 3)) + 1j * rng.standard_normal((np.prod(dims), 3))
            rho = DensityMatrix(dims, g @ g.conj().T / np.trace(g @ g.conj().T).real)
            out = apply_k_connection_channel(rho, KConnectionChannel(cut, tuple(terms)))
            order = list(cut.members) + list(cut.complement)
            full_ops = []
            for k, locals_ in terms:
                op = k
                for s in locals_:
                    op = np.kron(op, s)
                full_ops.append(permutation_embed(op, order, dims))
            assert np.max(np.abs(out.matrix - kraus_apply(rho.matrix, full_ops))) <= 1e-12

    def test_k_connection_terms_must_match_the_first_terms_shapes(self):
        # dims (2, 2, 4), cut {0}: a second term with swapped local factors
        # has the same Kronecker product shape but would mix parties 1 and 2;
        # a second term with a 4x4 cut-side operator does not fit the cut.
        cut = sub([0], 3)
        half = np.eye(2) / np.sqrt(2)
        first = (half, (np.eye(2), np.eye(4)))
        for second in [(half, (np.eye(4), np.eye(2))), (np.eye(4) / np.sqrt(2), (np.eye(2), np.eye(4)))]:
            with pytest.raises(ValueError):
                KConnectionChannel(cut, (first, second))
        with pytest.raises(ValueError):
            KConnectionChannel(cut, ((np.eye(2), (np.eye(2), np.ones((4, 2)))),))

    def test_k_connection_channel_without_complement_applies(self):
        rho = haar_state((2, 3), np.random.default_rng(31)).density()
        u = haar_unitary(6, np.random.default_rng(32))
        out = apply_k_connection_channel(rho, KConnectionChannel(sub([0, 1], 2), ((u, ()),)))
        assert np.allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)
