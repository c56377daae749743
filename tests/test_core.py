"""Tensor-core: partial trace, Schmidt analysis, local operators, JSON."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from kcge import (
    DensityMatrix,
    PartySubset,
    PureState,
    SchmidtDecomposition,
    Tolerance,
    apply_local_operator,
    basis_state,
    expand_to_full,
    family_from_dict,
    ghz,
    haar_state,
    haar_unitary,
    partial_trace,
    schmidt,
    schmidt_rank,
    state_from_dict,
    state_to_dict,
)
from kcge.core import (
    _HERMITICITY_TILE,
    FULL_RANK_MARGIN,
    HERMITICITY_ATOL,
    _max_asymmetry,
    basis_change_unitary,
    complete_basis,
    guard_total_dim,
)
from kcge.disentangle import (
    apply_biseparable_channel,
    identity_biseparable_channel,
    two_depth_decompose,
)
from kcge.cli import main as cli_main
from kcge.errors import BudgetExceededError
from kcge.witness import werner_state

from oracles import cut_matrix, gram_rank, loop_partial_trace, permutation_embed, svd_rank

RNG = np.random.default_rng(20240811)


def sub(members, n):
    return PartySubset.of(members, n)


def ghz_pair(n):
    return ghz(n, 2, [2**-0.5, 2**-0.5])


def proper_cuts(n):
    return [c for size in range(1, n) for c in itertools.combinations(range(n), size)]


def planted_cut_state(row_dims, col_dims, sigma, rng):
    """State whose matrix across the cut of its leading parties (row_dims
    against col_dims) has singular values proportional to ``sigma``, in Haar
    bases on both sides."""
    rows, cols = math.prod(row_dims), math.prod(col_dims)
    u = haar_unitary(rows, rng)[:, : len(sigma)]
    v = haar_unitary(cols, rng)[:, : len(sigma)]
    mat = (u * sigma) @ v.conj().T
    return PureState(row_dims + col_dims, mat.reshape(-1) / np.linalg.norm(mat))


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

    def test_party_indices_must_be_integers(self):
        # Floats are refused, integral or not, never truncated; numpy
        # integers are accepted and stored as Python ints.
        for members in ((0.5, 1), (0, 1.0), (np.float64(1.0),)):
            with pytest.raises(TypeError):
                PartySubset(members, 3)
            with pytest.raises(TypeError):
                PartySubset.of(list(members), 3)
        with pytest.raises(TypeError):
            PartySubset.of([1.7, 0], 3)
        with pytest.raises(TypeError):
            expand_to_full(np.eye(2), [0.0], (2, 2))
        for members in (np.array([0, 2]), (np.int64(0), np.int32(2)), (np.uint8(0), 2)):
            for subset in (PartySubset(tuple(members), 3), PartySubset.of(members, 3)):
                assert subset.members == (0, 2)
                assert all(type(p) is int for p in subset.members)
        op = haar_unitary(3, RNG)
        assert np.array_equal(
            expand_to_full(op, np.array([1]), (2, 3)), expand_to_full(op, [1], (2, 3))
        )

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rank_cutoff=0.0)

    def test_density_matrix_validation(self):
        cases = [
            ("not Hermitian", np.array([[1.0, 0.5], [0.4, 0.0]])),
            # Within allclose's default rtol, but 1e-6 > 1e-9 apart.
            ("not Hermitian", np.array([[0.5, 0.3], [0.3 + 1e-6, 0.5]])),
            ("trace", np.eye(2)),
            ("negative eigenvalue", np.diag([1.5, -0.5])),
            ("negative eigenvalue", np.diag([1.0 + 2e-9, -2e-9])),
            ("non-finite entries", np.array([[0.5, np.inf], [np.inf, 0.5]])),
        ]
        for message, mat in cases:
            with pytest.raises(ValueError, match=message):
                DensityMatrix((2,), mat)
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            mat = np.diag([0.5, 0.5]).astype(complex)
            mat[1, 0] = bad
            with pytest.raises(ValueError, match=r"non-finite entries matrix\[1, 0\]"):
                DensityMatrix((2,), mat)


# The JSON boundaries of the dims rule: (CLI command, input object of dims,
# field named in the refusal of a fractional entry).
DIMS_JSON_INPUTS = {
    "state_from_dict": (
        ["classify", "--state"],
        lambda dims: {"dims": list(dims), "amps": [[0.5, 0.0]] * 4},
        "state JSON dims entry",
    ),
    "product family": (
        ["generate", "--family"],
        lambda dims: {"family": "product", "dims": list(dims)},
        "product dims entry",
    ),
}
_AMPS_22 = np.full(4, 0.5 + 0j)
_SCHMIDT_22 = schmidt(basis_state((2, 2)), PartySubset((0,), 2))
# Every constructor that applies the dims rule, fed the data of dims (2, 2),
# so only ``dims`` can be wrong.
DIMS_RULE_BUILDERS = {
    "PureState": lambda dims: PureState(dims, _AMPS_22),
    "DensityMatrix": lambda dims: DensityMatrix(dims, np.eye(4) / 4),
    "SchmidtDecomposition": lambda dims: SchmidtDecomposition(
        _SCHMIDT_22.coefficients, _SCHMIDT_22.basis_cut, _SCHMIDT_22.basis_rest,
        _SCHMIDT_22.rank, _SCHMIDT_22.cut, dims,
    ),
    "basis_state": basis_state,
    "haar_state": lambda dims: haar_state(dims, RNG),
    "expand_to_full": lambda dims: expand_to_full(np.eye(2), [0], dims),
    "state_from_dict": lambda dims: state_from_dict(DIMS_JSON_INPUTS["state_from_dict"][1](dims)),
    "product family": lambda dims: family_from_dict(
        DIMS_JSON_INPUTS["product family"][1](dims)
    ).build(),
}


@pytest.mark.parametrize("name", DIMS_RULE_BUILDERS)
@pytest.mark.parametrize("dims", [(2.0, 2), (2.5, 2), (1, 4), ()], ids=str)
def test_dims_rule(name, dims, tmp_path, capsys):
    # At least one party, each dim an integer of at least 2: 2.0 passes as
    # 2, while 2.5, 1 and an empty tuple raise ValueError at every
    # constructor, never truncated or let through, and exit 2 through the
    # CLI with the field named.
    accepted = dims == (2.0, 2)
    if accepted:
        built = DIMS_RULE_BUILDERS[name](dims)
        if name == "expand_to_full":
            assert built.shape == (4, 4)
        else:
            assert built.dims == (2, 2) and all(type(d) is int for d in built.dims)
    else:
        with pytest.raises(ValueError, match="must be an integer|at least one party|at least 2"):
            DIMS_RULE_BUILDERS[name](dims)
    if name in DIMS_JSON_INPUTS:
        argv, obj, field = DIMS_JSON_INPUTS[name]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj(dims)))
        assert cli_main([*argv, str(path)]) == (0 if accepted else 2)
        if dims == (2.5, 2):
            assert f"{field} must be an integer, got 2.5" in capsys.readouterr().err


HERMITICITY_SIDES = [1, 2, _HERMITICITY_TILE - 1, _HERMITICITY_TILE, 2 * _HERMITICITY_TILE + 5]


class TestHermiticityCheck:
    @pytest.mark.parametrize("side", HERMITICITY_SIDES)
    def test_tiled_maximum_is_the_whole_difference(self, side):
        # The check compares tiles on or above the diagonal with their
        # mirrors; the maximum must be the float of the whole M - M^H.
        for _ in range(3):
            mat = RNG.standard_normal((side, side)) + 1j * RNG.standard_normal((side, side))
            assert _max_asymmetry(mat) == np.max(np.abs(mat - mat.conj().T))

    @pytest.mark.parametrize("side", HERMITICITY_SIDES)
    def test_verdict_flips_one_ulp_above_the_tolerance(self, side):
        # The largest asymmetry sits in a corner off the diagonal, in an
        # off-diagonal tile once the side passes the tile, above or below
        # the diagonal; a smaller one sits on the diagonal. A 1 x 1 matrix
        # is asymmetric by twice its imaginary part, but dims (1,) break the
        # dims rule, which DensityMatrix applies first.
        atol = HERMITICITY_ATOL
        gaps = [(np.nextafter(atol, 0.0), True), (atol, True), (np.nextafter(atol, np.inf), False)]
        corners = [(0, side - 1), (side - 1, 0)] if side > 1 else [(0, 0)]
        for corner in corners:
            for gap, accepted in gaps:
                mat = np.eye(side, dtype=complex) / side
                if side == 1:
                    mat[0, 0] += 0.5j * gap
                else:
                    mat[0, 0] += 0.25j * atol
                    mat[corner] += gap
                assert _max_asymmetry(mat) == gap
                if side == 1:
                    with pytest.raises(ValueError, match="at least 2"):
                        DensityMatrix((side,), mat)
                elif accepted:
                    DensityMatrix((side,), mat)
                else:
                    with pytest.raises(ValueError, match="not Hermitian"):
                        DensityMatrix((side,), mat)


class TestDensityValidation:
    def test_eigenvalue_floor(self):
        rho = DensityMatrix((2,), np.diag([1.0 + 0.5e-9, -0.5e-9]))
        assert rho.eigenvalues()[0] == pytest.approx(-0.5e-9, abs=1e-15)

    def test_pure_state_constructions_reject_off_norm_states(self):
        # Within NORM_ATOL the state is accepted, but its density matrix has
        # trace |amps|^2, about 1 + 2e-7, beyond TRACE_ATOL.
        amps = haar_state((2, 2), RNG).amps * (1.0 + 1e-7)
        st = PureState((2, 2), amps)
        for build in (
            st.density,
            lambda: partial_trace(st, sub([0], 2)),
            lambda: werner_state(st, 0.5),
        ):
            with pytest.raises(ValueError, match="trace"):
                build()

    def test_werner_visibility_outside_unit_interval(self):
        target = haar_state((2, 2), RNG)
        for v in (-1e-12, 1.0 + 1e-12, -0.5, 2.0, np.nan):
            with pytest.raises(ValueError, match="visibility"):
                werner_state(target, v)

    def test_pure_constructions_are_psd_by_oracle(self):
        for _ in range(40):
            n = int(RNG.integers(2, 6))
            dims = tuple(int(d) for d in RNG.integers(2, 4, size=n))
            st = haar_state(dims, RNG)
            keep = sub(RNG.choice(n, size=int(RNG.integers(1, n)), replace=False), n)
            for rho in (
                st.density(),
                partial_trace(st, keep),
                werner_state(st, float(RNG.random())),
                werner_state(st, 1.0),
            ):
                assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    def test_eigensolve_runs_only_where_psd_is_not_given(self, monkeypatch):
        calls = []
        real_eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return real_eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        st = haar_state((2, 3, 2), RNG)
        rho = st.density()
        partial_trace(st, sub([0, 2], 3))
        werner_state(st, 0.3)
        assert not calls
        DensityMatrix(st.dims, rho.matrix)
        assert len(calls) == 1
        partial_trace(rho, sub([0, 2], 3))
        assert len(calls) == 2
        cut = sub([0], 3)
        apply_biseparable_channel(rho, identity_biseparable_channel(st.dims, cut))
        assert len(calls) == 3


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

    def test_mixed_state_matches_loop_oracle(self):
        # A mixture of Haar states is mixed, so this runs the density-matrix
        # path; the oracle traces each component and mixes the results.
        rng = np.random.default_rng(2718)
        for dims in [(2, 3, 2), (3, 2, 2, 2), (2, 2, 3, 2, 2)]:
            n = len(dims)
            states = [haar_state(dims, rng) for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            mat = sum(w * np.outer(st.amps, st.amps.conj()) for w, st in zip(weights, states))
            rho = DensityMatrix(dims, mat)
            for size in range(1, n):
                for keep in itertools.combinations(range(n), size):
                    expected = sum(
                        w * loop_partial_trace(st.amps, dims, list(keep))
                        for w, st in zip(weights, states)
                    )
                    got = partial_trace(rho, sub(keep, n))
                    assert got.dims == tuple(dims[p] for p in keep)
                    assert np.allclose(got.matrix, expected, atol=1e-12)

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
            # A fresh copy, so the complement cannot read the cut's certificate.
            assert schmidt_rank(st, cut) == schmidt_rank(PureState(st.dims, st.amps), comp)

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

    def test_rank_matches_full_svd_on_sparse_cuts(self):
        # The kernel drops all-zero rows and columns before its SVD. Its rank
        # must equal the SVD of the whole matrix on every cut, and the corpus
        # holds cuts with zero rows only and cuts with zero columns only.
        from kcge import dicke, network_joint_state, w_type
        from kcge.network import chain_network, star_network

        corpus = [
            ghz_pair(4),
            ghz(3, 3, [3**-0.5] * 3),
            w_type(4, [5**-0.5] * 5),
            dicke(5, 2, 2),
            dicke(4, 3, 2),
            network_joint_state(chain_network(4)),
            network_joint_state(star_network(4)),
        ]
        shapes = set()
        for st in corpus:
            for cut in proper_cuts(st.n):
                mat = cut_matrix(st.amps, st.dims, cut)
                shapes.add((not mat.any(axis=1).all(), not mat.any(axis=0).all()))
                assert schmidt_rank(st, sub(cut, st.n)) == svd_rank(st.amps, st.dims, cut)
        assert {(True, False), (False, True)} <= shapes

    def test_tiny_amplitudes_are_not_dropped(self):
        # GHZ plus three off-support amplitudes of 1e-14 to 1e-6: they are
        # not zero, so their rows and columns stay in the kernel. From 1e-8
        # on they lift the rank at some cut above the cutoff. The positions
        # are fixed (|00101>, |01100>, |11010>), because some triples, such
        # as |00001>, |00010>, |00100>, lift no cut above the cutoff even at
        # 1e-6, so for a random draw the claim would depend on the draw.
        for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            amps = ghz_pair(5).amps.copy()
            amps[[5, 12, 26]] = eps
            st = PureState((2,) * 5, amps / np.linalg.norm(amps))
            ranks = [schmidt_rank(st, sub(cut, 5)) for cut in proper_cuts(5)]
            assert ranks == [svd_rank(st.amps, st.dims, cut) for cut in proper_cuts(5)]
            assert (max(ranks) > 2) == (eps >= 1e-8)

    def test_full_rank_certificate_matches_svd_at_its_boundary(self, monkeypatch):
        # schmidt_rank skips its SVD when a shifted Cholesky of the Gram
        # matrix proves sigma_min / |M|_F >= rho = max(FULL_RANK_MARGIN,
        # 2 cutoff). On planted spectra the rank must equal the full-matrix
        # SVD count, and the SVD must run exactly when sigma_min / |M|_F < rho:
        # at 0.5 to 1.5 rho, at 0.5 to 2 times the cutoff relative to
        # sigma_max, and with two exact zeros, on square, wide and tall cuts.
        real_svd = np.linalg.svd
        svd_calls = []

        def counted_svd(*args, **kwargs):
            svd_calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        shapes = [
            ((2,) * 7, (2,) * 7),
            ((2,) * 4, (2,) * 4),
            ((3, 3), (3, 3, 3)),
            ((2,) * 3, (2,) * 5),
            ((3,) * 3, (3,) * 4),
            ((3, 3, 3), (3, 3)),
            ((2,) * 6, (2,) * 3),
        ]
        boundary = set()
        for row_dims, col_dims in shapes:
            m = min(math.prod(row_dims), math.prod(col_dims))
            cut = sub(range(len(row_dims)), len(row_dims) + len(col_dims))
            for cutoff in (1e-9, 1e-6, 1e-3, 1e-2, 0.05):
                rho = max(FULL_RANK_MARGIN, 2 * cutoff)
                bulk = RNG.uniform(0.8, 1.0, size=m - 1)
                bulk[0] = 1.0
                spectra = []  # (singular values, SVD expected, certificate case)
                for factor in (0.5, 0.9, 1.1, 1.5):
                    # sigma_min = factor rho |M|_F with |M|_F = 1.
                    t = factor * rho
                    scaled = bulk * math.sqrt((1 - t**2) / np.sum(bulk**2))
                    if scaled.min() > t:
                        spectra.append((np.append(scaled, t), factor < 1, factor))
                for factor in (0.5, 0.9, 1.1, 2.0):
                    spectra.append((np.append(bulk, factor * cutoff), True, None))
                spectra.append((np.append(bulk[:-1], [0.0, 0.0]), True, None))
                for sigma, expect_svd, factor in spectra:
                    st = planted_cut_state(row_dims, col_dims, sigma, RNG)
                    tol = Tolerance(rank_cutoff=cutoff)
                    svd_calls.clear()
                    rank = schmidt_rank(st, cut, tol)
                    assert bool(svd_calls) == expect_svd
                    assert rank == np.count_nonzero(sigma / sigma.max() > cutoff)
                    assert rank == svd_rank(st.amps, st.dims, cut.members, cutoff)
                    if factor is not None:
                        boundary.add((cutoff, factor))
        assert len(boundary) == 5 * 4

    def test_nondefault_cutoff_changes_rank(self):
        amps = np.array([math.sqrt(1 - 1e-8), 0.0, 0.0, 1e-4])
        st = PureState((2, 2), amps)
        assert schmidt_rank(st, sub([0], 2)) == 2
        assert schmidt_rank(st, sub([0], 2), Tolerance(rank_cutoff=1e-3)) == 1


class TestCertificateInputs:
    """What the rank certificate reads: slices of the cut's matrix and
    facts computed once per state, each against a direct computation."""

    def test_dense_state_rejects_improper_cuts(self):
        # The kernel checks the cut before it reads the certificate record,
        # whose key needs the cut's complement.
        st = haar_state((2, 3, 2, 2), RNG)
        assert st.nonzero_count == st.total_dim
        for cut in (PartySubset(tuple(range(4)), 4), PartySubset((0, 1), 5)):
            for cap in (None, 1, 3):
                with pytest.raises(ValueError, match="schmidt rank"):
                    schmidt_rank(st, cut, cap=cap)

    def test_certified_rows_are_slices_of_the_cuts_matrix(self, monkeypatch):
        # With both factorizations refused, the kernel hands over the
        # leading c x c block and then the leading c rows of the cut's
        # matrix, compacted and oriented to its short side. They must equal
        # slices of the oracle's matrix for every c from 1 to the short
        # side, on wide, tall and square cuts with uniform and mixed dims,
        # on dense states, on a Haar state with one zero amplitude and on a
        # (3, 4) state whose 3 x 4 cut compacts to a tall 3 x 2 block.
        # Each call lays the cut out once, through bipartite_matrix, and
        # the SVD that decides after the refusals reads that same matrix.
        import kcge.core as core

        seen, layouts = [], []

        def refuse(lead, shift):
            seen.append(lead.copy())
            return False

        real = core.bipartite_matrix
        monkeypatch.setattr(core, "_certifies", refuse)
        monkeypatch.setattr(core, "bipartite_matrix", lambda *a: layouts.append(a) or real(*a))
        corpus = [haar_state(dims, RNG) for dims in
                  [(2,) * 6, (3,) * 4, (2, 3, 2, 3), (3, 2, 4, 2), (2, 2, 3)]]
        amps = haar_state((2, 3, 2, 2), RNG).amps.copy()
        amps[7] = 0.0
        corpus.append(PureState((2, 3, 2, 2), amps / np.linalg.norm(amps)))
        amps = np.zeros((3, 4), dtype=complex)
        amps[:, :2] = RNG.standard_normal((3, 2)) + 1j * RNG.standard_normal((3, 2))
        corpus.append(PureState((3, 4), amps.reshape(-1) / np.linalg.norm(amps)))
        kinds, compacted = set(), []
        for st in corpus:
            for cut in proper_cuts(st.n):
                mat = cut_matrix(st.amps, st.dims, cut)
                mat = mat[np.ix_(mat.any(axis=1), mat.any(axis=0))]
                compacted.append(mat.shape)
                kinds.add(np.sign(mat.shape[1] - mat.shape[0]))
                oriented = mat if mat.shape[0] <= mat.shape[1] else mat.T
                short, long_ = oriented.shape
                for c in range(1, short + 1):
                    seen.clear()
                    layouts.clear()
                    schmidt_rank(st, sub(cut, st.n), cap=c)
                    assert len(layouts) == 1
                    want = [oriented[:c, :c]] + [oriented[:c]] * (long_ > c)
                    assert len(seen) == len(want)
                    for got, expected in zip(seen, want):
                        assert np.array_equal(got, expected)
        assert kinds == {-1, 0, 1}
        assert compacted[-2:] == [(3, 2), (2, 3)]

    def test_state_facts_match_direct_computation(self):
        # nonzero_count, norm_squared and permutation_symmetric, each read
        # once and kept on the state, against np.count_nonzero, np.vdot and
        # the transposes under all n! party permutations.
        from kcge import dicke

        corpus = [haar_state((2,) * 5, RNG), haar_state((2, 3, 2), RNG), ghz_pair(4)]
        corpus += [dicke(4, 2, 2), dicke(3, 3, 2), basis_state((3,) * 3, 5)]
        amps = dicke(4, 2, 2).amps.copy()
        amps[3] = complex(np.nextafter(amps[3].real, 1.0), 0.0)
        corpus.append(PureState((2,) * 4, amps))
        amps = ghz_pair(3).amps.copy()
        amps[1] = complex(-0.0, 0.0)
        corpus.append(PureState((2,) * 3, amps))
        symmetric = []
        for st in corpus:
            tensor = st.as_tensor()
            words = tensor.view(np.uint64)
            assert st.nonzero_count == np.count_nonzero(st.amps)
            assert st.norm_squared == float(np.vdot(st.amps, st.amps).real)
            want = len(set(st.dims)) == 1 and all(
                np.array_equal(np.ascontiguousarray(tensor.transpose(p)).view(np.uint64), words)
                for p in itertools.permutations(range(st.n))
            )
            assert st.permutation_symmetric == want
            symmetric.append(want)
            assert {"nonzero_count", "norm_squared", "permutation_symmetric"} <= set(vars(st))
        assert symmetric == [False, False, True, True, True, False, False, False]

    def test_one_zero_amplitude_matches_svd(self):
        # One zero amplitude sends a Haar state down the compacted path;
        # every cap on every cut must give min(SVD rank, cap).
        for dims in [(2,) * 6, (2, 3, 2, 3), (3, 2, 4)]:
            amps = haar_state(dims, RNG).amps.copy()
            amps[int(RNG.integers(amps.size))] = 0.0
            st = PureState(dims, amps / np.linalg.norm(amps))
            assert st.nonzero_count == st.total_dim - 1
            for cutoff in (1e-9, 1e-3):
                tol = Tolerance(rank_cutoff=cutoff)
                for cut in proper_cuts(st.n):
                    want = svd_rank(st.amps, st.dims, cut, cutoff)
                    side = math.prod(dims[p] for p in cut)
                    for cap in range(1, min(side, st.total_dim // side) + 2):
                        assert schmidt_rank(st, sub(cut, st.n), tol, cap=cap) == min(want, cap)


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

    def test_party_and_basis_indices_are_range_checked(self):
        # A negative or too large index raises ValueError naming it and its
        # range; a float stays a TypeError.
        for bad in ([-1], [2], [0, 2]):
            with pytest.raises(ValueError, match=re.escape(f"party indices {bad} out of range")):
                expand_to_full(np.eye(2), bad, (2, 3))
        for index in (-1, 4):
            with pytest.raises(ValueError, match=f"basis index {index} out of range"):
                basis_state((2, 2), index)
        with pytest.raises(TypeError):
            expand_to_full(np.eye(2), [0.0], (2, 3))
        with pytest.raises(TypeError):
            basis_state((2, 2), 1.0)
        assert np.array_equal(basis_state((2, 2), 3).amps, [0, 0, 0, 1])
        assert np.array_equal(basis_state((2, 2), np.int64(0)).amps, [1, 0, 0, 0])

    def test_expand_unordered_parties(self):
        dims = (2, 2)
        swap = np.eye(4)[[0, 2, 1, 3]]
        ours = expand_to_full(swap, [1, 0], dims)
        theirs = permutation_embed(swap, [1, 0], dims)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_swap_matrix(self):
        # Row 3i + j of the two-qutrit swap is basis vector 3j + i.
        s = np.eye(9)[np.arange(9).reshape(3, 3).T.reshape(-1)]
        st = haar_state((3, 3), RNG)
        swapped = apply_local_operator(st, s, sub([0, 1], 2))
        assert np.allclose(swapped.as_tensor(), st.as_tensor().T)

    def test_complete_basis_is_unitary(self):
        vecs = np.linalg.qr(RNG.standard_normal((6, 2)) + 1j * RNG.standard_normal((6, 2)))[0]
        full = complete_basis(vecs)
        assert np.allclose(full.conj().T @ full, np.eye(6), atol=1e-10)
        assert np.allclose(full[:, :2], vecs)

    @staticmethod
    def assert_completes(vecs):
        dim, r = vecs.shape
        full = complete_basis(vecs)
        assert full.shape == (dim, dim)
        assert np.max(np.abs(full[:, :r] - vecs), initial=0.0) <= 1e-12
        assert np.max(np.abs(full.conj().T @ full - np.eye(dim))) <= 1e-12

    def test_complete_basis_edge_ranks(self):
        for dim in (2, 3, 5, 8, 17, 64, 256, 512):
            u = haar_unitary(dim, RNG)
            for r in sorted({0, 1, dim - 1, dim}):
                self.assert_completes(u[:, :r])
            self.assert_completes(np.eye(dim, dtype=complex)[:, ::-1][:, : dim // 2])

    def test_complete_basis_of_schmidt_vectors(self):
        for dims, cut in [((2, 3, 4), (0, 2)), ((3, 2, 2), (1,)), ((2, 5, 3, 2), (1, 3)),
                          ((4, 4, 2), (0, 1))]:
            st = haar_state(dims, RNG)
            for sd in (schmidt(st, sub(cut, len(dims))), schmidt(basis_state(dims), sub(cut, len(dims)))):
                self.assert_completes(sd.basis_cut)
                self.assert_completes(sd.basis_rest)
            mat = cut_matrix(st.amps, dims, cut)
            u, _, vh = np.linalg.svd(mat)
            self.assert_completes(u)
            self.assert_completes(u[:, :-1])
            self.assert_completes(vh.conj().T[:, :1])

    def test_complete_basis_rejects_non_orthonormal_columns(self):
        u = haar_unitary(4, RNG)
        bad = [
            u[:, :2] * 1.001,  # not unit length
            np.column_stack([u[:, 0], u[:, 0]]),  # dependent
            np.column_stack([u[:, 0], (u[:, 0] + u[:, 1]) / np.sqrt(2)]),  # not orthogonal
            np.ones((3, 4)) / np.sqrt(3),  # more columns than dimensions
            np.full((2, 1), np.nan),
            np.ones(4) / 2,  # not a matrix
        ]
        for vecs in bad:
            with pytest.raises(ValueError, match="orthonormal"):
                complete_basis(vecs)

    def test_basis_change_maps_sources_to_targets(self):
        rng = np.random.default_rng(513)
        for dim, rows in [(5, [4, 0, 2]), (2, [1]), (6, []), (8, list(range(8))[::-1]),
                          (64, [63, 1, 17, 0])]:
            src = haar_unitary(dim, rng)[:, : len(rows)]
            u = basis_change_unitary(src, rows)
            identity = np.eye(dim)
            assert np.max(np.abs(u @ src - identity[:, rows]), initial=0.0) <= 1e-12
            assert np.max(np.abs(u.conj().T @ u - identity)) <= 1e-12
            # U^H sends e_{rows[i]} back to source column i bit for bit.
            assert np.array_equal(u.conj().T[:, rows], src)

    def test_basis_change_rejects_bad_rows(self):
        src = haar_unitary(4, RNG)[:, :2]
        for rows in ([0], [0, 1, 2], [1, 1], [0, 4], [-1, 2], [[0, 1], [2, 3]]):
            with pytest.raises(ValueError, match="one distinct index"):
                basis_change_unitary(src, rows)

    def test_preparing_unitary_is_the_completion_of_the_vector(self):
        # The unitary that sends e_0 to vec, built as a basis change, is the
        # completion of vec bit for bit; a two-party decomposition's layer1
        # is that completion.
        rng = np.random.default_rng(514)
        for dims in ((2, 2), (3, 2), (4, 4), (16, 16)):
            vec = haar_state(dims, rng).amps
            ours = complete_basis(vec.reshape(-1, 1))
            assert np.array_equal(ours, basis_change_unitary(vec.reshape(-1, 1), [0]).conj().T)
            assert np.array_equal(ours[:, 0], vec)
            assert np.array_equal(two_depth_decompose(PureState(dims, vec)).layer1, ours)


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
        with pytest.raises(ValueError, match=r"1 amplitudes, but the first 1 dims already give 2"):
            state_from_dict({"dims": [2, 2], "amps": [[1.0, 0.0]]})
        with pytest.raises(ValueError, match=r"8 amplitudes, expected prod\(dims\)=4"):
            PureState((2, 2), np.full(8, 8**-0.5))

    def test_huge_dims_list_is_refused_without_the_full_product(self):
        # prod([2] * 200000) has 60206 digits: computing it stalls and
        # printing it fails, so the check stops once the product passes
        # the amplitude count.
        dims = [2] * 200000
        with pytest.raises(ValueError, match=r"state JSON: 2 amplitudes, but the first 2 dims"):
            state_from_dict({"dims": dims, "amps": [[1.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(ValueError, match=r"state: 2 amplitudes, but the first 2 dims"):
            PureState(tuple(dims), np.array([1.0, 0.0]))


class TestBudgetGuard:
    def test_refuses_once_the_running_product_passes_the_budget(self):
        guard_total_dim((2,) * 16, 2**16, "state")
        with pytest.raises(BudgetExceededError, match=r"first 17 dims already give 131072"):
            guard_total_dim((2,) * 17, 2**16, "state")
        # The exact product has 30103 digits, too many to print or compare.
        with pytest.raises(BudgetExceededError, match="state: total dimension exceeds budget 65536"):
            guard_total_dim((2,) * 100000, 2**16, "state")
