"""Classifier: level verdicts, hierarchy, caps, oracle agreement."""

import importlib
import json
import math
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from kcge import (
    LevelVerdict,
    PartySubset,
    PureState,
    Tolerance,
    apply_local_operator,
    basis_state,
    classify,
    compare_dicke_formula,
    dicke,
    family_from_dict,
    ghz,
    haar_state,
    haar_unitary,
    is_k_cge,
    is_k_connection_biseparable,
    network_joint_state,
    schmidt_rank,
    state_from_dict,
    state_to_dict,
    subset_threshold,
    w_type,
)
from kcge.classify import SUBSET_BUDGET, level_subsets
from kcge.core import FULL_RANK_MARGIN
from kcge.errors import BudgetExceededError
from kcge.network import chain_network, complete_network, cycle_network, star_network

from oracles import brute_classify, dicke_level_exact, exact_level, exact_rank, svd_rank

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


def planted_product(dims, split, rng):
    """Haar state on ``split`` randomly chosen parties times a Haar state on
    the rest."""
    perm = rng.permutation(len(dims))
    a = haar_state(tuple(dims[p] for p in perm[:split]), rng)
    b = haar_state(tuple(dims[p] for p in perm[split:]), rng)
    nd = np.multiply.outer(a.as_tensor(), b.as_tensor()).transpose(np.argsort(perm))
    return PureState(dims, nd.reshape(-1))


def upward_levels(st, max_k=None, tol=Tolerance()):
    """Reference verdicts: is_k_cge level by level from k=1, stopping at the
    first failure; the levels above it are marked implied. It scans a fresh
    copy of ``st``, so it shares no rank certificate with the subject."""
    st = PureState(st.dims, st.amps)
    k_cap = st.n // 2 if max_k is None else min(st.n // 2, max_k)
    out = []
    for k in range(1, k_cap + 1):
        if out and not out[-1].is_cge:
            out.append(LevelVerdict(k, False, implied=True))
        else:
            out.append(is_k_cge(st, k, tol))
    return tuple(out)


def certificate_corpus(rng):
    """(state, tolerance) pairs around the rank certificate: Haar states with
    uniform and mixed dims, a planted product, W, GHZ, Dicke and network
    states, and GHZ plus Haar admixtures at 0.5 to 2 times the rank cutoff
    and FULL_RANK_MARGIN."""
    default = Tolerance()
    corpus = [
        (haar_state(dims, rng), default)
        for dims in [(2,) * 6, (2,) * 7, (3,) * 4, (2, 3) * 3, (2, 2, 3, 4), (3, 2, 2, 3, 2)]
    ]
    corpus += [(planted_product((2, 3) * 3, 2, rng), default), (random_w4(rng), default)]
    corpus += [
        (st, default)
        for st in [
            ghz(5, 2, [2**-0.5] * 2),
            ghz(4, 3, [3**-0.5] * 3),
            w_type(5, [6**-0.5] * 6),
            dicke(6, 2, 3),
            dicke(5, 3, 4),
            network_joint_state(complete_network(4)),
            network_joint_state(chain_network(4)),
            network_joint_state(star_network(5)),
        ]
    ]
    for scale, tol in [(c, Tolerance(rank_cutoff=c)) for c in (1e-9, 1e-6, 1e-2)] + [
        (FULL_RANK_MARGIN, default)
    ]:
        for m in (4, 5, 6):
            for factor in (0.5, 0.9, 1.1, 2.0):
                amps = ghz(m, 2, [2**-0.5] * 2).amps
                amps = amps + factor * scale * haar_state((2,) * m, rng).amps
                corpus.append((PureState((2,) * m, amps / np.linalg.norm(amps)), tol))
    return corpus


def branch_state(x, y, eps, party):
    """|0>_party x + eps |1>_party y on qubits, normalized."""
    t = np.moveaxis(np.stack([x.as_tensor(), eps * y.as_tensor()]), 0, party)
    return PureState((2,) * (x.n + 1), t.reshape(-1) / np.linalg.norm(t))


def symmetric_corpus(rng):
    """States fixed bit for bit by every party permutation: the Dicke grid
    n <= 8, d in {2, 3}, every s; GHZ with unequal coefficients; and the
    product family |0...0>."""
    states = [
        dicke(n, d, s) for d in (2, 3) for n in range(2, 9) for s in range(n * (d - 1) + 1)
    ]
    for n, d in [(3, 2), (4, 3), (6, 2), (7, 3)]:
        a = rng.uniform(0.2, 1.0, size=d)
        states.append(ghz(n, d, a / np.linalg.norm(a)))
    for n, d in [(2, 3), (5, 2), (6, 3)]:
        states.append(family_from_dict({"family": "product", "dims": [d] * n}).build())
    return states


def moved_one_ulp(st):
    """``st`` with the real part of one amplitude moved up by one ulp: a
    nonzero amplitude off the indices |i...i> (which every permutation
    fixes) where there is one, else the zero at index 1."""
    d, n = st.dims[0], st.n
    step = (d**n - 1) // (d - 1)
    idx = next((int(i) for i in np.flatnonzero(st.amps) if i % step), 1)
    amps = st.amps.copy()
    amps[idx] = complex(np.nextafter(amps[idx].real, np.inf), amps[idx].imag)
    return PureState(st.dims, amps)


def record_scan(monkeypatch):
    """Record the cut of every schmidt_rank call made by is_k_cge, and the
    number of is_k_cge calls that classify makes (one per level scanned)."""
    module = importlib.import_module("kcge.classify")
    seen = SimpleNamespace(cuts=[], levels=0)
    real_rank, real_level = module.schmidt_rank, module.is_k_cge

    def rank(state, cut, *args, **kwargs):
        seen.cuts.append(cut.members)
        return real_rank(state, cut, *args, **kwargs)

    def level(*args, **kwargs):
        seen.levels += 1
        return real_level(*args, **kwargs)

    monkeypatch.setattr(module, "schmidt_rank", rank)
    monkeypatch.setattr(module, "is_k_cge", level)
    return seen


def counted_linalg(monkeypatch):
    """Record (input shape, factored) for every Cholesky call and count the
    SVDs."""
    seen = SimpleNamespace(cholesky=[], svds=0)
    real_cholesky, real_svd = np.linalg.cholesky, np.linalg.svd

    def cholesky(a, *args, **kwargs):
        try:
            out = real_cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            seen.cholesky.append((a.shape, False))
            raise
        seen.cholesky.append((a.shape, True))
        return out

    def svd(*args, **kwargs):
        seen.svds += 1
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return seen


def scanned(st, k):
    return [members for members, _ in level_subsets(st, k)]


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
        assert check.to_dict() == {
            "n": 6, "d": 2, "s": 3, "classifier_level": 2, "formula_level": 3,
            "exact_power": True, "matches": False,
        }
        assert compare_dicke_formula(4, 2, 2).to_dict()["matches"] is True

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

    def test_max_k_below_one_is_rejected(self):
        st = haar_state((2,) * 6, RNG)
        for max_k in (0, -2):
            with pytest.raises(ValueError, match="max_k"):
                classify(st, max_k=max_k)
        assert classify(st).max_cge_level == 3

    def test_heterogeneous_threshold_rule(self):
        # Chain-network joint state has dims (2, 4, 4, 2); the generalized
        # per-subset threshold dim(I)/min d must drive the verdicts.
        from kcge.network import chain_network

        st = network_joint_state(chain_network(4))
        assert subset_threshold(st.dims, (0, 1)) == 4
        assert subset_threshold(st.dims, (1, 2)) == 4
        assert schmidt_rank(st, sub([0, 1], 4)) == 2
        assert classify(st).max_cge_level == 1

    def test_top_level_first_matches_upward_scan(self):
        # classify probes the top level first and infers the levels below a
        # pass; its verdicts must equal a plain upward scan, also on states
        # whose top level fails while the lower levels pass.
        corpus = [haar_state(dims, RNG) for dims in [(2, 3) * 3, (2, 3) * 4] for _ in range(3)]
        corpus += [haar_state(dims, RNG) for dims in [(2,) * 6, (3,) * 5, (2, 2, 3, 4)]]
        corpus += [
            planted_product(dims, split, RNG)
            for dims, split in [((2, 3) * 3, 2), ((2, 3) * 3, 3), ((3, 2, 2, 3, 2), 2), ((2, 2, 3, 3, 4), 2)]
        ]
        corpus += [ghz(5, 3, [3**-0.5] * 3), dicke(6, 2, 3), dicke(5, 3, 4), random_w4(RNG)]
        corpus.append(network_joint_state(complete_network(4)))
        cases = [(st, Tolerance(), max_k) for st in corpus for max_k in (None, 1, 2)]
        top_fails_below_pass = 0
        for st in corpus:
            full = upward_levels(st)
            top_fails_below_pass += len(full) > 1 and full[-2].is_cge and not full[-1].is_cge
        assert top_fails_below_pass >= 6
        # The rank is counted against a cutoff relative to each cut's own
        # sigma_max, so a cut can fail just below it while its extensions
        # pass. In |0> GHZ3 + e |1> W3 with e = 0.9 cutoff, party 0 fails
        # level 1 while every {0, k} cut passes level 2, and the report must
        # still say level 0. Admixtures of 0.5 to 2 times the cutoff, at the
        # default and at other cutoffs, must give the upward scan's verdicts.
        for cutoff in (1e-9, 1e-6, 1e-2):
            tol = Tolerance(rank_cutoff=cutoff)
            st = branch_state(ghz(3, 2, [2**-0.5] * 2), w_type(3, [3**-0.5] * 3 + [0.0]),
                              0.9 * cutoff, 0)
            assert not is_k_cge(st, 1, tol).is_cge and is_k_cge(st, 2, tol).is_cge
            near = [st]
            for m in (3, 4, 5):
                xs = [ghz(m, 2, [2**-0.5] * 2), haar_state((2,) * m, RNG)]
                ys = [w_type(m, [m**-0.5] * m + [0.0]), dicke(m, 2, 2), haar_state((2,) * m, RNG)]
                for x in xs:
                    for y in ys:
                        for factor in (0.5, 0.9, 1.1, 2.0):
                            party = int(RNG.integers(m + 1))
                            near.append(branch_state(x, y, factor * cutoff, party))
            for dims, split in [((2,) * 6, 2), ((2, 3) * 3, 3), ((3, 2, 2, 3, 2), 2)]:
                for factor in (0.5, 0.9, 1.1, 2.0):
                    amps = planted_product(dims, split, RNG).amps
                    amps = amps + factor * cutoff * haar_state(dims, RNG).amps
                    near.append(PureState(dims, amps / np.linalg.norm(amps)))
            cases += [(st, tol, max_k) for st in near for max_k in (None, 2)]
        for st, tol, max_k in cases:
            want = upward_levels(st, max_k, tol)
            report = classify(st, tol, max_k=max_k)
            assert report.per_level == want
            assert report.max_cge_level == sum(v.is_cge for v in want)

    def test_passing_state_scans_only_its_top_level(self, monkeypatch):
        # A passing top level decides the lower ones, so the kernel runs once
        # per subset of size n/2, in level_subsets order. On Haar cuts the
        # capped certificate answers every call from threshold + 1 rows
        # without an SVD: 9 x 9 factorizations for 2^8, whose threshold is
        # 2^3, and 10 x 10 for 3^6, whose threshold is 3^2. Only the
        # C(n-1, n/2-1) subsets that hold party 0 factor; each later subset
        # is the complement of one of them and reads its certificate from
        # the state. Dicke cuts are rank deficient and fall back to the SVD.
        seen = record_scan(monkeypatch)
        linalg = counted_linalg(monkeypatch)
        for dims, cap in [((2,) * 8, 9), ((3,) * 6, 10)]:
            seen.cuts.clear()
            linalg.cholesky.clear()
            n = len(dims)
            st = haar_state(dims, RNG)
            assert classify(st).max_cge_level == n // 2
            assert seen.cuts == scanned(st, n // 2)
            assert linalg.cholesky == [((cap, cap), True)] * math.comb(n - 1, n // 2 - 1)
        assert linalg.svds == 0
        assert classify(dicke(8, 2, 4)).max_cge_level == 2
        assert linalg.svds

    def test_certificate_matches_svd_only_reports(self, monkeypatch):
        # schmidt_rank certifies rank >= cap, or full rank, by a shifted
        # Cholesky and runs its SVD only when that fails. Neither the cap
        # that is_k_cge passes nor the certificate may change a byte: the
        # reports must be the same with the kernel uncapped and with the SVD
        # forced on every call.
        module = importlib.import_module("kcge.classify")
        cases = [(st, tol, max_k) for st, tol in certificate_corpus(RNG) for max_k in (None, 1, 2)]

        def reports():
            # Fresh states, so no run reads certificates of an earlier one.
            return [
                json.dumps(classify(PureState(st.dims, st.amps), tol, max_k=max_k).to_dict(),
                           sort_keys=True)
                for st, tol, max_k in cases
            ]

        certified = reports()

        def uncapped(state, cut, tol, cap):
            return schmidt_rank(state, cut, tol)

        monkeypatch.setattr(module, "schmidt_rank", uncapped)
        assert reports() == certified

        def no_certificate(*args, **kwargs):
            raise np.linalg.LinAlgError("certificate disabled")

        monkeypatch.setattr(np.linalg, "cholesky", no_certificate)
        assert reports() == certified

    def test_budget_refusals(self):
        st = haar_state((2, 2, 2), RNG)
        with pytest.raises(BudgetExceededError) as exc:
            classify(st, budget_dim=4)
        assert str(exc.value) == (
            "classify: total dimension exceeds budget 4 (the first 3 dims already give 8)"
        )
        # The stub carries only dims and n, so no 2^23 amplitudes are
        # allocated; C(23, 11) = 1352078 subsets exceed SUBSET_BUDGET.
        wide = SimpleNamespace(dims=(2,) * 23, n=23)
        assert math.comb(23, 11) > SUBSET_BUDGET
        with pytest.raises(BudgetExceededError) as exc:
            classify(wide, budget_dim=2**23)
        assert str(exc.value) == f"C(23, 11) subsets exceed budget {SUBSET_BUDGET}"
        with pytest.raises(BudgetExceededError) as exc:
            next(level_subsets(wide, 1, 2**23, caller="exact_radius"))
        assert str(exc.value) == (
            f"exact_radius: C(23, 11) subsets exceed budget {SUBSET_BUDGET}"
        )


class TestCappedRank:
    def test_capped_rank_is_the_svd_rank_capped(self, monkeypatch):
        # For every cap from 1 to one past the short side, on every proper
        # cut, wide and tall: min(full-matrix SVD rank, cap), also where the
        # state's record of certificates answers without a factorization.
        # The corpus must take the capped certificate both ways, so both the
        # early return and the fall-through are checked.
        seen = counted_linalg(monkeypatch)
        corpus = certificate_corpus(RNG) + [(dicke(5, 2, 2), Tolerance())]
        capped_outcomes = set()
        for st, tol in corpus:
            for size in range(1, st.n):
                for members in combinations(range(st.n), size):
                    cut = PartySubset(members, st.n)
                    want = svd_rank(st.amps, st.dims, members, tol.rank_cutoff)
                    side = math.prod(st.dims[p] for p in members)
                    short = min(side, st.total_dim // side)
                    for cap in range(1, short + 2):
                        seen.cholesky.clear()
                        assert schmidt_rank(st, cut, tol, cap=cap) == min(want, cap)
                        if cap < short and seen.cholesky and seen.cholesky[0][0] == (cap, cap):
                            capped_outcomes.add(seen.cholesky[0][1])
        assert capped_outcomes == {True, False}

    def test_capped_certificate_at_its_boundary(self, monkeypatch):
        # On the short-side-oriented 8 x 16 block M with |M|_F = 1, the
        # kernel factors the Gram matrix of A, the leading cap x cap block,
        # then that of B, the leading cap rows, and succeeds exactly where
        # sigma_min > rho |M|_F, rho = max(FULL_RANK_MARGIN, 2 cutoff).
        # First sigma_min(A) is planted at 0.5 to 1.5 rho with B well
        # conditioned (B's other columns are 0.2 times orthonormal rows, so
        # sigma_min(B) >= 0.2); then sigma_min(B) is planted with A singular
        # (B's rows are orthogonal to a dense vector supported on the first
        # cap columns). Cap 3 and 5, wide and tall cuts, dense states and,
        # with ``zero``, states with one zero amplitude outside B, which
        # take the compacted path.
        seen = counted_linalg(monkeypatch)
        for zero, cutoff in product((False, True), (1e-9, 1e-6, 1e-3, 0.05)):
            tol = Tolerance(rank_cutoff=cutoff)
            rho = max(FULL_RANK_MARGIN, 2 * cutoff)
            for cap in (3, 5):
                for factor in (0.5, 0.9, 1.1, 1.5):
                    sigma = RNG.uniform(0.2, 0.3, size=cap)
                    sigma[-1] = factor * rho
                    square = (haar_unitary(cap, RNG) * sigma) @ haar_unitary(cap, RNG)
                    others = 0.2 * haar_unitary(16 - cap, RNG)[:cap]
                    lead_square = np.hstack([square, others])
                    y = np.zeros(16, complex)
                    y[:cap] = RNG.uniform(0.5, 1.0, size=cap) * np.exp(2j * np.pi * RNG.random(cap))
                    gauss = RNG.standard_normal((cap, 16)) + 1j * RNG.standard_normal((cap, 16))
                    gauss -= np.outer(gauss @ y, y.conj()) / np.vdot(y, y)
                    orth = np.linalg.qr(gauss.conj().T)[0].conj().T
                    lead_rows = (haar_unitary(cap, RNG) * sigma) @ orth
                    assert np.linalg.svd(lead_rows[:, :cap], compute_uv=False)[-1] < 1e-12
                    for lead, want in [
                        (lead_square, [((cap, cap), factor > 1)] + [((cap, cap), True)] * (factor < 1)),
                        (lead_rows, [((cap, cap), False), ((cap, cap), factor > 1)]),
                    ]:
                        shape = (8 - cap, 16)
                        rest = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
                        if zero:
                            rest[-1, 3] = 0.0
                        rest *= math.sqrt(1 - np.linalg.norm(lead) ** 2) / np.linalg.norm(rest)
                        mat = np.vstack([lead, rest])
                        for members, block in [((0, 1, 2), mat), ((0, 1, 2, 3), mat.T)]:
                            st = PureState((2,) * 7, block.reshape(-1) / np.linalg.norm(block))
                            assert (st.nonzero_count < st.total_dim) == zero
                            seen.cholesky.clear()
                            seen.svds = 0
                            rank = schmidt_rank(st, PartySubset(members, 7), tol, cap=cap)
                            assert seen.cholesky == want
                            assert seen.svds == (want[-1][1] is False)
                            assert rank == min(svd_rank(st.amps, st.dims, members, cutoff), cap)

    def test_dependent_leading_rows_fall_back(self, monkeypatch):
        # Rows 0 and 1 of the 8 x 16 matrix of the cut {0, 1, 2} are
        # parallel, and the rest are Haar, so the rank is 7. Every cap from
        # 2 to 7 meets the dependent pair in its leading square block and in
        # its leading rows, fails both factorizations, and the SVD decides.
        mat = RNG.standard_normal((8, 16)) + 1j * RNG.standard_normal((8, 16))
        mat[1] = 2j * mat[0]
        st = PureState((2,) * 7, mat.reshape(-1) / np.linalg.norm(mat))
        cut = PartySubset((0, 1, 2), 7)
        assert svd_rank(st.amps, st.dims, (0, 1, 2)) == 7
        seen = counted_linalg(monkeypatch)
        for cap in range(2, 8):
            seen.cholesky.clear()
            seen.svds = 0
            assert schmidt_rank(st, cut, cap=cap) == cap
            assert seen.cholesky == [((cap, cap), False), ((cap, cap), False)]
            assert seen.svds == 1
        seen.cholesky.clear()
        assert schmidt_rank(st, cut, cap=1) == 1
        assert seen.cholesky == [((1, 1), True)]

    def test_cap_below_one_is_rejected(self):
        st = haar_state((2,) * 4, RNG)
        for cap in (0, -3):
            with pytest.raises(ValueError, match="cap"):
                schmidt_rank(st, PartySubset((0, 1), 4), cap=cap)


def rank_and_work(seen, st, members, tol=Tolerance(), cap=None):
    """schmidt_rank of ``st`` across ``members`` with the Cholesky calls and
    the SVD count that it took."""
    seen.cholesky.clear()
    seen.svds = 0
    rank = schmidt_rank(st, PartySubset(members, st.n), tol, cap=cap)
    return rank, list(seen.cholesky), seen.svds


class TestCertificateRecord:
    # schmidt_rank keeps each completed certificate on the state, keyed by
    # the side of the cut that holds party 0, and either side of the cut
    # reads it. Every answer is checked against the full-matrix SVD oracle.

    def test_complement_within_the_stored_count_runs_no_factorization(self, monkeypatch):
        seen = counted_linalg(monkeypatch)
        st = haar_state((2,) * 6, RNG)
        want = svd_rank(st.amps, st.dims, (0, 1, 2))
        assert want == 8
        assert rank_and_work(seen, st, (0, 1, 2), cap=5) == (5, [((5, 5), True)], 0)
        assert st.rank_certificates == {((0, 1, 2), FULL_RANK_MARGIN): (5, 8)}
        for cap in (1, 3, 5):
            assert rank_and_work(seen, st, (3, 4, 5), cap=cap) == (min(want, cap), [], 0)
        # The cut itself reads the record too, at any cap within it.
        assert rank_and_work(seen, st, (0, 1, 2), cap=4) == (4, [], 0)
        # A cap above the stored count factors again and raises the record.
        assert rank_and_work(seen, st, (3, 4, 5)) == (want, [((8, 8), True)], 0)
        assert st.rank_certificates == {((0, 1, 2), FULL_RANK_MARGIN): (8, 8)}
        assert rank_and_work(seen, st, (0, 1, 2)) == (want, [], 0)

    def test_mixed_dims_complement_with_a_larger_cap_is_recomputed(self, monkeypatch):
        # dims (2, 2, 3, 3): {0, 1} has threshold 2 (cap 3) and its
        # complement {2, 3} threshold 3 (cap 4); the short side is 4.
        seen = counted_linalg(monkeypatch)
        for _ in range(3):
            st = haar_state((2, 2, 3, 3), RNG)
            want = svd_rank(st.amps, st.dims, (2, 3))
            assert want == 4
            assert subset_threshold(st.dims, (0, 1)) == 2 and subset_threshold(st.dims, (2, 3)) == 3
            assert rank_and_work(seen, st, (0, 1), cap=3)[0] == 3
            assert st.rank_certificates[((0, 1), FULL_RANK_MARGIN)] == (3, 4)
            rank, cholesky, svds = rank_and_work(seen, st, (2, 3), cap=4)
            assert rank == want and cholesky[0][0] == (4, 4) and svds == 0
            assert st.rank_certificates[((0, 1), FULL_RANK_MARGIN)] == (4, 4)
            # The level scan reaches the same verdict as on a fresh copy.
            fresh = PureState(st.dims, st.amps)
            assert is_k_cge(st, 2) == is_k_cge(fresh, 2)
            assert classify(st).max_cge_level == brute_classify(st.amps, st.dims, rank=svd_rank)

    def test_a_certificate_answers_no_call_at_another_rho(self, monkeypatch):
        seen = counted_linalg(monkeypatch)
        st = haar_state((2,) * 6, RNG)
        assert rank_and_work(seen, st, (0, 1, 2))[:2] == (8, [((8, 8), True)])
        # rank cutoff 1e-6 has the same rho, max(FULL_RANK_MARGIN, 2e-6).
        same_rho = Tolerance(rank_cutoff=1e-6)
        assert rank_and_work(seen, st, (3, 4, 5), same_rho) == (8, [], 0)
        for cutoff in (1e-4, 1e-2):
            tol = Tolerance(rank_cutoff=cutoff)
            rank, cholesky, _ = rank_and_work(seen, st, (3, 4, 5), tol)
            assert rank == svd_rank(st.amps, st.dims, (3, 4, 5), cutoff)
            assert cholesky
        assert set(st.rank_certificates) <= {
            ((0, 1, 2), rho) for rho in (FULL_RANK_MARGIN, 2e-4, 2e-2)
        }

    def test_a_pass_decided_by_the_svd_is_never_stored(self, monkeypatch):
        # As in test_dependent_leading_rows_fall_back: rows 0 and 1 of the
        # 8 x 16 matrix of {0, 1, 2} are parallel, so both factorizations
        # are refused at every cap from 2 to 7 and the SVD passes the cut.
        # The complement's short-side block is the same 8 x 16 matrix, so it
        # is refused both factorizations again and runs its own SVD.
        mat = RNG.standard_normal((8, 16)) + 1j * RNG.standard_normal((8, 16))
        mat[1] = -1j * mat[0]
        st = PureState((2,) * 7, mat.reshape(-1) / np.linalg.norm(mat))
        assert svd_rank(st.amps, st.dims, (0, 1, 2)) == 7
        seen = counted_linalg(monkeypatch)
        refused = [((5, 5), False), ((5, 5), False)]
        assert rank_and_work(seen, st, (0, 1, 2), cap=5) == (5, refused, 1)
        assert st.rank_certificates == {}
        assert rank_and_work(seen, st, (3, 4, 5, 6), cap=5) == (5, refused, 1)
        assert st.rank_certificates == {}

    def test_sparse_network_state_reports_its_compacted_full_rank(self, monkeypatch):
        # A 4-cycle whose qutrit edges hold (|00> + |11>) / sqrt 2: party dims
        # 9, so the matrix of {0, 2} | {1, 3} is 81 x 81, but each crossing
        # edge has 2 nonzero rows and columns, and the compacted 16 x 16
        # block has full rank 16.
        edge = np.zeros(9)
        edge[[0, 4]] = 2**-0.5
        graph = cycle_network(4, dim=3)
        st = network_joint_state(graph, [PureState((3, 3), edge)] * len(graph.edge_units()))
        assert st.dims == (9,) * 4 and st.nonzero_count == 16
        want = svd_rank(st.amps, st.dims, (1, 3))
        assert want == 16
        seen = counted_linalg(monkeypatch)
        assert rank_and_work(seen, st, (0, 2)) == (16, [((16, 16), True)], 0)
        assert st.rank_certificates == {((0, 2), FULL_RANK_MARGIN): (16, 16)}
        for cap in (None, 10, 16, 17, 81):
            want_capped = want if cap is None else min(want, cap)
            assert rank_and_work(seen, st, (1, 3), cap=cap) == (want_capped, [], 0)
        assert classify(st).max_cge_level == brute_classify(st.amps, st.dims, rank=svd_rank)

    def test_odd_n_upward_scan_reads_the_certificates_of_a_failed_probe(self, monkeypatch):
        # 3^7 with rank 9 planted across {4, 5, 6}, the last 3-subset, whose
        # threshold is 9. The probe at k = 3 certifies the 34 subsets before
        # it, each stored under the side that holds party 0, and fails
        # there. Its rho equals the default cutoff's, so the upward scan
        # answers those 34 at k = 3 from the record and factors only
        # {4, 5, 6} again.
        rng = np.random.default_rng(7301)
        sigma = rng.uniform(0.5, 1.0, size=9)
        mat = (haar_unitary(81, rng)[:, :9] * sigma) @ haar_unitary(27, rng)[:, :9].T
        st = PureState((3,) * 7, mat.reshape(-1) / np.linalg.norm(mat))
        seen = counted_linalg(monkeypatch)
        module = importlib.import_module("kcge.classify")
        real_rank, calls = module.schmidt_rank, []

        def rank(state, cut, tol, cap=None):
            work = len(seen.cholesky) + seen.svds
            out = real_rank(state, cut, tol, cap=cap)
            calls.append((cut.members, tol.rank_cutoff, len(seen.cholesky) + seen.svds > work))
            return out

        monkeypatch.setattr(module, "schmidt_rank", rank)
        report = classify(st)
        top = list(combinations(range(7), 3))
        probe = [(m, worked) for m, cutoff, worked in calls if cutoff != 1e-9]
        upward = [(m, worked) for m, cutoff, worked in calls if cutoff == 1e-9 and len(m) == 3]
        assert probe == [(m, True) for m in top]
        assert [m for m, _ in upward] == top
        assert [m for m, worked in upward if worked] == [(4, 5, 6)]
        level3 = report.per_level[2]
        assert (level3.witness, level3.witness_rank, level3.witness_threshold) == ((4, 5, 6), 9, 9)
        assert report.max_cge_level == brute_classify(st.amps, st.dims, rank=svd_rank) == 2
        assert level3.witness == next(m for m in top if svd_rank(st.amps, st.dims, m) <= 9)


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
        # Nesting, with mixed dims: if rank(I) <= dim(I)/min_I d, then every
        # one-party extension J = I + {j} has rank(J) <= d_j rank(I)
        # <= dim(J)/min_J d, so J fails too, and by induction so does every
        # superset of I.
        candidates = [
            ghz(5, 2, [2**-0.5, 2**-0.5]),
            dicke(5, 2, 1),
            planted_low_rank_state((2,) * 5, [0, 1], 0, RNG),
            planted_low_rank_state((2,) * 6, [2, 3, 4], 3, RNG),
            planted_low_rank_state((2, 3, 2, 3, 2), [1, 2], 2, RNG),
            planted_low_rank_state((3, 2, 4, 2, 3), [0, 1, 4], 1, RNG),
            planted_low_rank_state((2, 3, 4, 3, 2, 2), [2, 3], 3, RNG),
            planted_product((2, 3) * 3, 2, RNG),
            planted_product((3, 2, 2, 4, 2), 2, RNG),
            network_joint_state(complete_network(4)),
            haar_state((2, 3) * 3, RNG),
        ]
        mixed_failing = 0
        for st in candidates:
            n = st.n
            for k in range(1, n - 1):
                for small in combinations(range(n), k):
                    if schmidt_rank(st, sub(small, n)) > subset_threshold(st.dims, small):
                        continue
                    mixed_failing += len(set(st.dims)) > 1
                    for j in set(range(n)) - set(small):
                        grown = tuple(sorted(small + (j,)))
                        rank = schmidt_rank(st, sub(grown, n))
                        assert rank <= subset_threshold(st.dims, grown), (st.dims, small, j)
        assert mixed_failing >= 20

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


class TestPermutationSymmetricShortcut:
    def test_symmetric_states_scan_one_subset_per_level(self, monkeypatch):
        seen = record_scan(monkeypatch)
        for st in symmetric_corpus(np.random.default_rng(1414)):
            seen.cuts.clear()
            seen.levels = 0
            level = classify(st).max_cge_level
            assert level == brute_classify(st.amps, st.dims, rank=svd_rank), st.dims
            assert len(seen.cuts) == seen.levels >= 1
            assert all(cut == tuple(range(len(cut))) for cut in seen.cuts)
            for k in range(1, st.n // 2 + 1):
                assert list(level_subsets(st, k)) == [(tuple(range(k)), st.dims[0] ** (k - 1))]

    def test_reports_match_the_full_scan(self, monkeypatch):
        corpus = symmetric_corpus(np.random.default_rng(1415))
        tight = Tolerance(rank_cutoff=1e-3)
        shortcut = [(classify(st).to_dict(), classify(st, tight).to_dict()) for st in corpus]
        assert all(st.permutation_symmetric for st in corpus)
        monkeypatch.setattr(PureState, "permutation_symmetric", property(lambda state: False))
        fresh = [PureState(st.dims, st.amps) for st in corpus]
        full = [(classify(st).to_dict(), classify(st, tight).to_dict()) for st in fresh]
        assert json.dumps(shortcut) == json.dumps(full)

    def test_one_ulp_off_takes_the_full_scan_and_agrees(self, monkeypatch):
        seen = record_scan(monkeypatch)
        for st in symmetric_corpus(np.random.default_rng(1416)):
            moved = moved_one_ulp(st)
            n = st.n
            for k in range(1, n // 2 + 1):
                assert scanned(moved, k) == list(combinations(range(n), k))
                seen.cuts.clear()
                if is_k_cge(moved, k).is_cge:
                    assert len(seen.cuts) == math.comb(n, k)
            report = classify(moved)
            assert report.to_dict() == classify(st).to_dict()
            assert report.max_cge_level == brute_classify(moved.amps, moved.dims, rank=svd_rank)

    def test_a_negative_zero_takes_the_full_scan(self):
        # Index 1 holds |0...01>, a zero amplitude of both states.
        for st in (dicke(6, 2, 3), ghz(4, 3, [0.6, 0.48, 0.64])):
            amps = st.amps.copy()
            amps[1] = complex(-0.0, 0.0)
            signed = PureState(st.dims, amps)
            assert np.array_equal(signed.amps, st.amps) and np.signbit(signed.amps[1].real)
            for k in range(1, st.n // 2 + 1):
                assert scanned(st, k) == [tuple(range(k))]
                assert scanned(signed, k) == list(combinations(range(st.n), k))
            assert classify(signed).to_dict() == classify(st).to_dict()
            assert classify(signed).max_cge_level == brute_classify(signed.amps, signed.dims)

    def test_mixed_dims_never_take_the_shortcut(self):
        rng = np.random.default_rng(1417)
        for dims in [(2, 3), (3, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2, 2)]:
            for st in (basis_state(dims), haar_state(dims, rng)):
                for k in range(1, len(dims) // 2 + 1):
                    assert scanned(st, k) == list(combinations(range(len(dims)), k))
                assert classify(st).max_cge_level == brute_classify(st.amps, st.dims)

    def test_json_round_trip_keeps_the_shortcut(self):
        for st in (dicke(8, 3, 5), ghz(6, 2, [0.6, 0.8])):
            loaded = state_from_dict(json.loads(json.dumps(state_to_dict(st))))
            for k in range(1, st.n // 2 + 1):
                assert scanned(loaded, k) == [tuple(range(k))]
            assert classify(loaded).to_dict() == classify(st).to_dict()


class TestExactRankOracle:
    """``classify`` against exact integer ranks on integer-amplitude states.
    A disagreement here is a finding about the float cutoff, to be recorded
    as criterion 3 records its table, not tuned away."""

    def test_exact_rank_counts_what_the_float_cutoff_drops(self):
        near = [[10**12, 10**12], [10**12, 10**12 + 1]]  # sigma_min / sigma_max ~ 2.5e-13
        assert exact_rank(near) == 2 and svd_rank(np.array(near, float).reshape(-1), (2, 2), (0,)) == 1
        assert exact_rank([[1, 2, 3], [2, 4, 6], [0, 0, 0]]) == 1
        assert exact_rank([[0, 0], [0, 0]]) == exact_rank([]) == 0

    def test_every_small_dicke_state(self):
        # d = 2, 3, 4, n >= 2, d^n <= 2^10, every excitation count s.
        grid = [
            (n, d, s)
            for d in (2, 3, 4)
            for n in range(2, 11)
            if d**n <= 2**10
            for s in range((d - 1) * n + 1)
        ]
        assert len(grid) == 154
        for n, d, s in grid:
            ints = [int(sum(digits) == s) for digits in product(range(d), repeat=n)]
            level = classify(dicke(n, d, s)).max_cge_level
            assert level == exact_level(ints, (d,) * n) == dicke_level_exact(n, d, s), (n, d, s)

    def test_w_states_with_integer_weights(self):
        for n in range(2, 11):
            for step in (0, 1, 2):
                weights = [1 + (p * step) % 3 for p in range(n + 1)]
                ints = [0] * 2**n
                for p in range(n):
                    ints[1 << (n - 1 - p)] = weights[p]
                ints[-1] = weights[n]
                a = np.array(weights) / math.sqrt(sum(w * w for w in weights))
                level = classify(w_type(n, a)).max_cge_level
                assert level == exact_level(ints, (2,) * n), (n, weights)
