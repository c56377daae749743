"""Connection-level classification of pure states by subset Schmidt ranks.

A pure state is k-CGE (k-connection genuinely entangled) exactly when every
size-k subset of parties has a reduced density matrix whose Schmidt rank
exceeds the subset threshold. For uniform local dimension d the threshold is
d^(k-1); with mixed dimensions a subset I can free its cheapest party j as
soon as rank <= dim(H_I) / d_j, so the threshold generalizes to
dim(H_I) / min_j d_j. Rank ties at exactly the threshold count as
biseparable (the criterion demands strictly larger).

No state can be k-CGE beyond floor(n/2), and the levels are nested: losing
level k implies losing every level above it. With exact ranks, if a
k-subset I fails, so rank(I) <= dim(I) / min_I d, then every one-party
extension J = I + {j} fails too, because rank(J) <= d_j rank(I)
<= dim(J) / min_I d <= dim(J) / min_J d. So a state that passes the top
level passes every level below it.

The rank is numerical, counted against a cutoff c relative to each cut's
own sigma_max, and that count is not monotone under extension: a cut can
fail with one singular value just below c while every extension lifts it
just above. The inference survives with a stricter cutoff at the top. Let
I fail at cutoff c with rank r, and let J = I + S with D = prod_S d. By
Eckart-Young M_I is a rank-r matrix plus one of norm <= c sigma_max(I);
reshaping to M_J at most multiplies the rank by D and the norm by sqrt(D),
and sigma_max(I) <= sqrt(D) sigma_max(J). So M_J has at most
D r <= dim(J) / min_J d singular values above D c sigma_max(J) (Weyl),
and J fails at cutoff D c. D is at most the product of the K-1 largest
dims, the reported top-level threshold T. ``classify`` therefore scans
the top level K first at cutoff T (2c + 1e-12), where the 2 and the 1e-12
absorb SVD round-off: a pass there passes every level at cutoff c without
a scan. Otherwise it scans upward from level 1 at cutoff c.

A subset only asks whether its rank exceeds its threshold t, so
``is_k_cge`` calls ``schmidt_rank`` with ``cap=t + 1``. A pass, in the
probe or in the upward scan, is then certified by a shifted Cholesky
factorization of the Gram matrix of a (t + 1) x (t + 1) submatrix of the
cut's matrix, or else of t + 1 of its rows (about 1/d of its short side),
both slices of the one matrix that ``bipartite_matrix`` lays out; a
failing subset still gets its exact rank as ``witness_rank`` (proof in
the ``schmidt_rank`` docstring).

For a pure state rank(I) = rank(I^c): the matrix of I^c is M_I
transposed. At the top level k = n/2 of even n, the subsets that hold
party 0 come first in combinations order, and every later subset is the
complement of one of them. ``schmidt_rank`` keeps each certificate it
completes on the state, keyed by the side holding party 0, so such a
complement is still one call but reads its answer from that record
without a factorization whenever its cap is within the certified count
(exact, not approximate; see ``schmidt_rank``). A complement with a larger
cap (mixed dims) or whose partner fell back to the SVD is computed as
before, so the scan order and the witness, the lexicographically first
failing subset, stay the same.

A state fixed by every party permutation needs one subset per level. The
swap (0 1) and the cycle (0 1 ... n-1) generate S_n, so when all dims are
equal and the amplitude tensor equals its transpose under both, byte for
byte, it equals its transpose under every permutation, and
``bipartite_matrix`` gives the same array for every size-k subset. Every
rank, Schmidt coefficient and report byte is then that of (0, ..., k-1),
the lexicographically first subset, so ``level_subsets`` yields it alone.
Dicke, GHZ (any coefficients) and products of one repeated factor qualify,
also after a JSON round trip. The test is exact: an approximate one could
flip a verdict near the cutoff.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

from . import network, states
from .core import (
    DEFAULT_TOLERANCE,
    DIM_BUDGET,
    PartySubset,
    PureState,
    Tolerance,
    guard_total_dim,
    plain,
    schmidt_rank,
)
from .errors import BudgetExceededError

SUBSET_BUDGET = 10**6


def subset_threshold(dims: tuple[int, ...], members: tuple[int, ...]) -> int:
    """Rank threshold for one subset: dim(H_I) / min local dimension in I."""
    return math.prod(dims[p] for p in members) // min(dims[p] for p in members)


def check_budget(
    state: PureState, budget_dim: int = DIM_BUDGET, caller: str | None = None
) -> None:
    """Refuse a scan over the dimension or the subset budget. A ``caller``
    label prefixes both messages; without one they read as classify's."""
    guard_total_dim(state.dims, budget_dim, caller or "classify")
    n = state.n
    if math.comb(n, n // 2) > SUBSET_BUDGET:
        prefix = f"{caller}: " if caller else ""
        raise BudgetExceededError(
            f"{prefix}C({n}, {n // 2}) subsets exceed budget {SUBSET_BUDGET}"
        )


def level_subsets(
    state: PureState, k: int, budget_dim: int = DIM_BUDGET, caller: str | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (members, subset_threshold) for every size-k subset in
    combinations order, after checking 1 <= k <= floor(n/2) and the budget:
    the one level scan of ``is_k_cge`` and ``witness.exact_radius``. A
    budget refusal names ``caller`` (see ``check_budget``).

    When ``state.permutation_symmetric`` (computed once per state), that
    is, when n >= 2, all dims are equal and the amplitude tensor equals,
    byte for byte, its transposes under the swap (0 1) and the cycle
    (0 1 ... n-1), which generate S_n, every size-k ``bipartite_matrix`` is
    the same array. Then (0, ..., k-1) alone is yielded: every other subset
    has its rank and Schmidt coefficients, so it is the lexicographically
    first witness and attains the largest overlap."""
    n = state.n
    if not 1 <= k <= n // 2:
        raise ValueError(f"level k={k} out of range [1, {n // 2}] for n={n}")
    check_budget(state, budget_dim, caller)
    if state.permutation_symmetric:
        subsets = [tuple(range(k))]
    else:
        subsets = itertools.combinations(range(n), k)
    for members in subsets:
        yield members, subset_threshold(state.dims, members)


@dataclass(frozen=True)
class LevelVerdict:
    """Outcome of the size-k sweep: either every subset cleared its
    threshold, or the lexicographically first failing subset is recorded."""

    k: int
    is_cge: bool
    witness: tuple[int, ...] | None = None
    witness_rank: int | None = None
    witness_threshold: int | None = None
    # True for a failure inferred from a lower failing level. Passes below a
    # top level that passes its stricter probe are inferred too, not
    # scanned, but keep implied=False so that the report reads as it did
    # when they were.
    implied: bool = False

    to_dict = plain


@dataclass(frozen=True)
class ClassificationReport:
    max_cge_level: int
    dims: tuple[int, ...]
    per_level: tuple[LevelVerdict, ...]
    thresholds_used: tuple[tuple[int, int], ...]
    tolerance: Tolerance

    to_dict = plain


def is_k_cge(
    state: PureState,
    k: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
    budget_dim: int = DIM_BUDGET,
) -> LevelVerdict:
    """Verdict for one level: True when every size-k subset has rank above
    its threshold; otherwise the lexicographically first failing subset is
    the witness, with its exact rank. Each rank is capped at threshold + 1,
    which decides the comparison. Valid levels are 1 <= k <= floor(n/2)."""
    for members, threshold in level_subsets(state, k, budget_dim):
        rank = schmidt_rank(state, PartySubset(members, state.n), tol, cap=threshold + 1)
        if rank <= threshold:
            return LevelVerdict(k, False, members, rank, threshold)
    return LevelVerdict(k, True)


def classify(
    state: PureState,
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_k: int | None = None,
    budget_dim: int = DIM_BUDGET,
) -> ClassificationReport:
    """Largest k for which the state is k-CGE (0 = biseparable).

    For K = min(floor(n/2), max_k) >= 2 the top level is probed first at the
    stricter cutoff of the module docstring. If every K-subset passes there,
    every level 1..K passes at ``tol`` without a scan. Otherwise levels are
    scanned upward from 1 at ``tol`` until the first failure, whose witness
    is the lexicographically first failing subset; levels above it are
    marked failed without re-checking (``implied=True``). A ``max_k`` below
    1 raises ValueError.
    """
    if max_k is not None and max_k < 1:
        raise ValueError(f"max_k={max_k} must be at least 1")
    check_budget(state, budget_dim)
    k_cap = state.n // 2
    if max_k is not None:
        k_cap = min(k_cap, max_k)
    descending = sorted(state.dims, reverse=True)
    # Reported per-level threshold: the strictest subset threshold at size k.
    # prod(I)/min(I) is the product of the k-1 largest members of I, so the k
    # largest dims attain it (d^(k-1) for uniform dims); per-subset values
    # appear with any witness.
    thresholds = tuple((k, math.prod(descending[: k - 1])) for k in range(1, k_cap + 1))
    verdicts: list[LevelVerdict] = []
    if k_cap >= 2:
        probe_cutoff = thresholds[-1][1] * (2 * tol.rank_cutoff + 1e-12)
        if probe_cutoff < 1.0:
            probe = replace(tol, rank_cutoff=probe_cutoff)
            if is_k_cge(state, k_cap, probe, budget_dim=budget_dim).is_cge:
                verdicts = [LevelVerdict(k, True) for k in range(1, k_cap + 1)]
    if not verdicts:
        for k in range(1, k_cap + 1):
            if verdicts and not verdicts[-1].is_cge:
                verdicts.append(LevelVerdict(k, False, implied=True))
            else:
                verdicts.append(is_k_cge(state, k, tol, budget_dim=budget_dim))
    return ClassificationReport(
        max_cge_level=sum(v.is_cge for v in verdicts),
        dims=state.dims,
        per_level=tuple(verdicts),
        thresholds_used=thresholds,
        tolerance=tol,
    )


def is_k_connection_biseparable(
    state: PureState,
    k: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> bool:
    """Pure-state membership in the k-connection biseparable set, the
    negation of is_k_cge. Every state is k-connection biseparable for
    k > floor(n/2), so such levels return True without scanning.

    (Mixed-state membership in the convex set is a different, much harder
    question and is not offered.)
    """
    if k < 1:
        raise ValueError(f"level k={k} must be positive")
    if k > state.n // 2:
        return True
    return not is_k_cge(state, k, tol).is_cge


def dicke_cge_formula(d: int, s: int) -> int:
    """Closed-form connection level claimed for Dicke states,
    floor(log_d(s + 1)) + 1, evaluated in exact integer arithmetic.

    The rank-based classifier is the ground truth and disagrees on a
    documented parameter set (see compare_dicke_formula);
    tests/oracles.py's dicke_level_exact gives the classifier's level in
    closed form.
    """
    if d < 2 or s < 0:
        raise ValueError(f"need d >= 2 and s >= 0, got d={d}, s={s}")
    m = 0
    while d ** (m + 1) <= s + 1:
        m += 1
    return m + 1


@dataclass(frozen=True)
class DickeFormulaCheck:
    n: int
    d: int
    s: int
    classifier_level: int
    formula_level: int
    exact_power: bool  # s + 1 is an exact power of d

    @property
    def matches(self) -> bool:
        return self.classifier_level == self.formula_level

    def to_dict(self) -> dict:
        return {**plain(self), "matches": self.matches}


def compare_dicke_formula(
    n: int, d: int, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> DickeFormulaCheck:
    """Cross-check the closed-form Dicke level floor(log_d(s+1)) + 1 against
    the rank-based classifier.

    The two are known to disagree, and the closed form is never below the
    classifier: when s + 1 = d^m exactly, the rank at the critical cut ties
    the threshold and the strict inequality drops the level to m. Beyond
    those ties the closed form overshoots because it ignores the floor(n/2)
    cap and grows with s, while a k-party cut holds at most k(d-1) + 1
    excitation sectors, which is at most d^(k-1) for k >= 3; so no Dicke
    state exceeds level 2. The comparison record reports the disagreement
    instead of hiding it.
    """
    state = states.dicke(n, d, s)
    level = classify(state, tol).max_cge_level
    formula = dicke_cge_formula(d, s)
    x = s + 1
    while x > 1 and x % d == 0:
        x //= d
    return DickeFormulaCheck(
        n=n,
        d=d,
        s=s,
        classifier_level=level,
        formula_level=formula,
        exact_power=(x == 1 and s + 1 >= d),
    )


@dataclass(frozen=True)
class CrossCheckRecord:
    network_bound: network.NetworkBoundReport
    classifier_level: int
    consistent: bool

    to_dict = plain


def cross_check(
    g: network.NetworkGraph,
    edge_states=None,
    tol: Tolerance = DEFAULT_TOLERANCE,
    budget: int = DIM_BUDGET,
) -> CrossCheckRecord:
    """Build the joint network state, classify it, and compare against the
    graph-level bound. ``consistent`` is False when the classifier exceeds
    the bound, which would falsify the bound. ``budget`` caps the joint
    state's total dimension for both the build and the scan. The bound and
    the build are looked up on their modules at call time, so a wrapper put
    there sees these calls too."""
    joint = states.network_joint_state(g, edge_states, budget=budget)
    report = network.network_bound(g)
    level = classify(joint, tol, budget_dim=budget).max_cge_level
    return CrossCheckRecord(
        network_bound=report, classifier_level=level, consistent=level <= report.cge_upper_bound
    )
