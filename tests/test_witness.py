"""Witness radii, Werner visibilities, curve table, exact radii.

The exact radius is checked against the closed forms, against an einsum
eigenvalue oracle, for soundness on states of bounded cut rank and for
tightness at the Eckart-Young truncation. The four-party W level-1 closed
form is below the exact radius; that disagreement is a recorded check.
"""

import dataclasses
import importlib
import math
from itertools import combinations

import numpy as np
import pytest

from kcge import (
    DensityMatrix,
    PartySubset,
    PureState,
    apply_local_operator,
    basis_state,
    build_disentangling_unitary,
    classify,
    dicke,
    exact_radius,
    exact_witness,
    ghz,
    ghz_witness,
    haar_state,
    is_k_cge,
    radius_ghz,
    radius_w4,
    schmidt,
    schmidt_rank,
    subset_threshold,
    w4_visibility_curves,
    w_type,
    werner_state,
    werner_visibility_threshold,
    werner_zero_crossing,
    witness_value,
)
from kcge.errors import BudgetExceededError
from kcge.witness import WitnessSpec

from oracles import top_eigen_radius

classify_module = importlib.import_module("kcge.classify")
witness_module = importlib.import_module("kcge.witness")

RNG = np.random.default_rng(314159)

BALANCED = [2**-0.5, 2**-0.5]


class TestWitnessValue:
    def test_on_target_equals_radius_minus_one(self):
        spec = ghz_witness(3, 2, BALANCED)
        value = witness_value(spec, spec.target.density())
        assert abs(value - (spec.radius - 1.0)) < 1e-12

    def test_on_maximally_mixed(self):
        spec = ghz_witness(3, 2, BALANCED)
        dim = spec.target.total_dim
        mixed = DensityMatrix(spec.target.dims, np.eye(dim) / dim)
        assert abs(witness_value(spec, mixed) - (spec.radius - 1.0 / dim)) < 1e-12

    def test_balanced_ghz_value(self):
        spec = ghz_witness(3, 2, BALANCED)
        assert abs(witness_value(spec, spec.target.density()) + 0.5) < 1e-12

    def test_dimension_mismatch(self):
        spec = ghz_witness(3, 2, BALANCED)
        with pytest.raises(ValueError):
            witness_value(spec, basis_state((2, 2)).density())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WitnessSpec(ghz(2, 2, [1.0, 0.0]), 1, 0.5, "bogus_provenance")
        with pytest.raises(ValueError):
            WitnessSpec(ghz(2, 2, [1.0, 0.0]), 1, 1.5, "closed_form_ghz")


class TestRadii:
    def test_ghz_balanced_exact_half(self):
        assert radius_ghz(BALANCED) == 0.5

    def test_ghz_product_limit(self):
        assert radius_ghz([1.0, 0.0]) == 1.0

    def test_ghz_unbalanced(self):
        assert abs(radius_ghz([0.8, 0.6]) - 0.64) < 1e-15

    def test_ghz_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            radius_ghz([0.9, 0.9])

    def test_w4_parametrized_family(self):
        theta = 0.9
        a = [math.cos(theta) / 2] * 4 + [math.sin(theta)]
        c2 = math.cos(theta) ** 2
        assert abs(radius_w4(2, a) - max(c2, 1 - c2 / 2)) < 1e-12
        assert abs(radius_w4(1, a) - max(1 - c2, c2 / 2)) < 1e-12

    def test_w4_at_quarter_pi(self):
        a = [math.cos(math.pi / 4) / 2] * 4 + [math.sin(math.pi / 4)]
        assert abs(radius_w4(2, a) - 0.75) < 1e-12
        assert abs(radius_w4(1, a) - 0.5) < 1e-12

    def test_w4_level_validation(self):
        a = [math.cos(1.0) / 2] * 4 + [math.sin(1.0)]
        with pytest.raises(ValueError):
            radius_w4(3, a)
        with pytest.raises(ValueError):
            radius_w4(2, [1.0, 0.0, 0.0])


class TestWerner:
    def test_published_threshold(self):
        assert abs(werner_visibility_threshold(0.75, 16) - 13.0 / 17.0) < 1e-15

    def test_threshold_degenerates_toward_one(self):
        assert werner_visibility_threshold(1 - 1e-12, 16) > 1 - 1e-9

    def test_zero_crossing_is_witness_root(self):
        for radius in (0.3, 0.5, 0.75, 0.9):
            spec = WitnessSpec(
                ghz(4, 2, BALANCED), 1, radius, "closed_form_ghz"
            )
            v = werner_zero_crossing(radius, spec.target.total_dim)
            rho = werner_state(spec.target, v)
            assert abs(witness_value(spec, rho)) < 1e-12

    def test_werner_state_properties(self):
        rho = werner_state(ghz(3, 2, BALANCED), 0.4)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
        assert rho.eigenvalues()[0] > -1e-14
        with pytest.raises(ValueError):
            werner_state(ghz(3, 2, BALANCED), 1.5)


class TestCurves:
    def test_known_value_at_third_pi(self):
        ((theta, r2, r1, v2, v1),) = w4_visibility_curves([math.pi / 3])
        assert abs(r2 - 7.0 / 8.0) < 1e-12
        assert abs(r1 - 0.75) < 1e-12
        assert abs(v2 - werner_visibility_threshold(7.0 / 8.0, 16)) < 1e-15
        assert abs(v1 - werner_visibility_threshold(0.75, 16)) < 1e-15

    def test_limits(self):
        ((_, r2, _, _, _),) = w4_visibility_curves([1e-8])
        assert r2 > 1 - 1e-12
        ((_, _, r1, _, _),) = w4_visibility_curves([math.pi / 2 - 1e-8])
        assert r1 > 1 - 1e-12

    def test_rejects_boundary_thetas(self):
        with pytest.raises(ValueError):
            w4_visibility_curves([0.0])
        with pytest.raises(ValueError):
            w4_visibility_curves([math.pi / 2])


MIXED_DIMS = [(2, 2), (2, 3, 2), (3, 2, 2, 2), (2, 2, 3, 3), (2,) * 5, (4, 2, 3), (2, 3, 2, 3, 2)]


def random_coefficients(size):
    a = RNG.standard_normal(size)
    return a / np.linalg.norm(a)


def bounded_rank_state(dims, members, rank):
    """Random state whose Schmidt rank across ``members`` is at most rank."""
    n = len(dims)
    rest = [p for p in range(n) if p not in members]
    left = math.prod(dims[p] for p in members)
    right = math.prod(dims[p] for p in rest)
    u = RNG.standard_normal((left, rank)) + 1j * RNG.standard_normal((left, rank))
    v = RNG.standard_normal((rank, right)) + 1j * RNG.standard_normal((rank, right))
    order = list(members) + rest
    tensor = (u @ v).reshape([dims[p] for p in order]).transpose(np.argsort(order))
    amps = tensor.reshape(-1)
    return PureState(dims, amps / np.linalg.norm(amps))


class TestExactRadius:
    def test_matches_ghz_closed_form(self):
        for _ in range(200):
            n, d = int(RNG.integers(2, 6)), int(RNG.integers(2, 4))
            a = random_coefficients(d)
            assert abs(exact_radius(ghz(n, d, a), 1) - radius_ghz(a)) < 1e-12

    def test_matches_w4_level_two_closed_form(self):
        for _ in range(200):
            a = random_coefficients(5)
            assert abs(exact_radius(w_type(4, a), 2) - radius_w4(2, a)) < 1e-12

    def test_matches_eigenvalue_oracle(self):
        for dims in MIXED_DIMS:
            for k in range(1, len(dims) // 2 + 1):
                for _ in range(5):
                    st = haar_state(dims, RNG)
                    oracle = top_eigen_radius(st.amps, dims, k)
                    assert abs(exact_radius(st, k) - oracle) < 1e-12

    def test_symmetric_targets_match_oracle_and_full_scan(self):
        # Symmetric targets take one subset per level; the radius must be
        # the eigenvalue oracle's and, bit for bit, the full-scan maximum.
        rng = np.random.default_rng(2718)
        targets = [
            dicke(n, d, s) for n, d, s in [(4, 2, 2), (6, 2, 3), (5, 3, 4), (7, 2, 2), (6, 3, 5)]
        ]
        for n, d in [(4, 2), (5, 3), (6, 2)]:
            a = rng.uniform(0.2, 1.0, size=d)
            targets.append(ghz(n, d, a / np.linalg.norm(a)))
        for st in targets:
            for k in range(1, st.n // 2 + 1):
                full = max(
                    schmidt(st, PartySubset(members, st.n))
                    .coefficients[: subset_threshold(st.dims, members)]
                    .sum()
                    for members in combinations(range(st.n), k)
                )
                radius = exact_radius(st, k)
                assert radius == float(min(full, 1.0))
                assert abs(radius - top_eigen_radius(st.amps, st.dims, k)) < 1e-12

    def test_product_target_is_one(self):
        assert abs(exact_radius(basis_state((2, 3, 2)), 1) - 1.0) < 1e-12

    def test_sound_on_bounded_rank_states(self):
        # A pure state of rank <= t across a size-k subset is not k-CGE, so
        # no exact witness at level k may certify it.
        for dims in MIXED_DIMS:
            n = len(dims)
            for _ in range(10):
                k = int(RNG.integers(1, n // 2 + 1))
                members = tuple(sorted(RNG.choice(n, size=k, replace=False).tolist()))
                t = subset_threshold(dims, members)
                chi = bounded_rank_state(dims, members, int(RNG.integers(1, t + 1)))
                assert not is_k_cge(chi, k).is_cge
                assert classify(chi).max_cge_level < k
                near = chi.amps + 0.3 * haar_state(dims, RNG).amps
                for target in (haar_state(dims, RNG), PureState(dims, near / np.linalg.norm(near))):
                    spec = exact_witness(target, k)
                    assert witness_value(spec, chi.density()) >= -1e-12
        # A state freed by a disentangling unitary has a party in |0>, so it
        # is not k-CGE at any level, and no exact witness may certify it:
        # neither the source state's own nor a Haar target's.
        sources = (
            w_type(4, random_coefficients(5)),
            ghz(4, 3, random_coefficients(3)),
            haar_state((2, 3, 2, 2), RNG),
        )
        for source in sources:
            n = source.n
            for members in combinations(range(n), n - 1):
                cut = PartySubset(members, n)
                unitary = build_disentangling_unitary(source, cut, members[0])
                freed = apply_local_operator(source, unitary, cut)
                assert classify(freed).max_cge_level == 0
                for k in range(1, n // 2 + 1):
                    for target in (source, haar_state(source.dims, RNG)):
                        spec = exact_witness(target, k)
                        assert witness_value(spec, freed.density()) >= -1e-12

    def test_tight_at_eckart_young_truncation(self):
        for dims in MIXED_DIMS:
            n = len(dims)
            for k in range(1, n // 2 + 1):
                target = haar_state(dims, RNG)
                radius = exact_radius(target, k)
                best, members = max(
                    (schmidt(target, PartySubset(m, n)).coefficients[
                        : subset_threshold(dims, m)].sum(), m)
                    for m in combinations(range(n), k)
                )
                t = subset_threshold(dims, members)
                dec = schmidt(target, PartySubset(members, n))
                kept = dec.coefficients[:t]
                chi = dataclasses.replace(
                    dec,
                    coefficients=kept / kept.sum(),
                    basis_cut=dec.basis_cut[:, :t],
                    basis_rest=dec.basis_rest[:, :t],
                ).reconstruct()
                assert not is_k_cge(chi, k).is_cge
                assert abs(abs(target.overlap(chi)) ** 2 - radius) < 1e-12
                assert abs(best - radius) < 1e-12

    def test_exact_witness_spec(self):
        spec = exact_witness(w_type(4, [5**-0.5] * 5), 2)
        assert spec.provenance == "exact"
        assert spec.level == 2
        assert abs(spec.radius - 0.8) < 1e-12
        # GHZ(4) ties the level-2 threshold, so it is its own best
        # biseparable approximation.
        assert abs(exact_radius(ghz(4, 2, BALANCED), 2) - 1.0) < 1e-12

    def test_w4_level_one_closed_form_is_below_exact(self):
        # Recorded check: radius_w4(1, .) ignores single-party cuts. Across
        # party 0 the W4 target splits into weights 3c^2/4 and 1 - 3c^2/4,
        # so the exact radius is max(3c^2/4, 1 - 3c^2/4), strictly above
        # the closed form max(s^2, c^2/2) on the whole open theta range.
        grid = 200
        step = (math.pi / 2) / (grid + 1)
        print("\ntheta,exact_r1,closed_form_r1")
        for i in range(grid):
            theta = (i + 1) * step
            c, s = math.cos(theta), math.sin(theta)
            a = [c / 2] * 4 + [s]
            exact, closed = exact_radius(w_type(4, a), 1), radius_w4(1, a)
            print(f"{theta!r},{exact!r},{closed!r}")
            assert abs(exact - max(0.75 * c * c, 1 - 0.75 * c * c)) < 1e-12
            assert exact > closed
        equal = [5**-0.5] * 5
        assert abs(exact_radius(w_type(4, equal), 1) - 0.6) < 1e-12
        assert abs(radius_w4(1, equal) - 0.4) < 1e-12

    def test_level_range_validation(self):
        with pytest.raises(ValueError):
            exact_radius(ghz(3, 2, BALANCED), 2)
        with pytest.raises(ValueError):
            exact_radius(ghz(3, 2, BALANCED), 0)
        with pytest.raises(ValueError, match="out of range"):
            exact_radius(haar_state((2, 3, 2, 2), RNG), 3)

    def test_budget_refuses_before_any_svd(self, monkeypatch):
        calls = []
        monkeypatch.setattr(witness_module, "schmidt", lambda *a, **k: calls.append(a))
        with pytest.raises(BudgetExceededError) as exc:
            exact_radius(basis_state((2,) * 17), 1)
        assert not calls
        assert str(exc.value) == (
            f"exact_radius: total dimension exceeds budget {2**16} "
            f"(the first 17 dims already give {2**17})"
        )

    def test_scans_the_subsets_of_is_k_cge_in_its_order(self, monkeypatch):
        # A Haar state passes every level, so is_k_cge visits every subset.
        seen = {"witness": [], "classify": []}

        def recording(key, fn):
            def wrapper(state, cut, *args, **kwargs):
                seen[key].append(cut.members)
                return fn(state, cut, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(witness_module, "schmidt", recording("witness", schmidt))
        monkeypatch.setattr(
            classify_module, "schmidt_rank", recording("classify", schmidt_rank)
        )
        for dims in [(2, 3, 2, 2, 3), (3,) * 6]:
            st = haar_state(dims, RNG)
            for k in range(1, len(dims) // 2 + 1):
                seen["witness"].clear()
                seen["classify"].clear()
                exact_radius(st, k)
                assert is_k_cge(st, k).is_cge
                assert seen["witness"] == seen["classify"]
                assert seen["witness"] == list(combinations(range(len(dims)), k))
        # A permutation-symmetric target visits (0, ..., k-1) alone, whether
        # its level passes (k <= 2) or fails.
        st = dicke(8, 2, 4)
        for k in range(1, 5):
            seen["witness"].clear()
            seen["classify"].clear()
            exact_radius(st, k)
            assert is_k_cge(st, k).is_cge == (k <= 2)
            assert seen["witness"] == seen["classify"] == [tuple(range(k))]
