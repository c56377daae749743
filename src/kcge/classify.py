"""Connection-level classification of pure states by subset Schmidt ranks.

A pure state is k-CGE (k-connection genuinely entangled) exactly when every
size-k subset of parties has a reduced density matrix whose Schmidt rank
exceeds the subset threshold. For uniform local dimension d the threshold is
d^(k-1); with mixed dimensions a subset I can free its cheapest party j as
soon as rank <= dim(H_I) / d_j, so the threshold generalizes to
dim(H_I) / min_j d_j. Rank ties at exactly the threshold count as
biseparable (the criterion demands strictly larger).

No state can be k-CGE beyond floor(n/2), and the levels are nested: losing
level k implies losing every level above it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_TOLERANCE,
    PartySubset,
    PureState,
    Tolerance,
    schmidt_rank,
)
from .errors import BudgetExceededError

DIM_BUDGET = 2**16
SUBSET_BUDGET = 10**6


def subset_threshold(dims: tuple[int, ...], members: tuple[int, ...]) -> int:
    """Rank threshold for one subset: dim(H_I) / min local dimension in I."""
    return math.prod(dims[p] for p in members) // min(dims[p] for p in members)


def check_budget(state: PureState, budget_dim: int = DIM_BUDGET) -> None:
    if state.total_dim > budget_dim:
        raise BudgetExceededError(
            f"state dimension {state.total_dim} exceeds budget {budget_dim}"
        )
    n = state.n
    if math.comb(n, n // 2) > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"C({n}, {n // 2}) subsets exceed budget {SUBSET_BUDGET}"
        )


@dataclass(frozen=True)
class LevelVerdict:
    """Outcome of the size-k sweep: either every subset cleared its
    threshold, or the lexicographically first failing subset is recorded."""

    k: int
    is_cge: bool
    witness: tuple[int, ...] | None = None
    witness_rank: int | None = None
    witness_threshold: int | None = None
    implied: bool = False  # failure inferred from a lower level, not checked

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "is_cge": self.is_cge,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_rank": self.witness_rank,
            "witness_threshold": self.witness_threshold,
            "implied": self.implied,
        }


@dataclass(frozen=True)
class ClassificationReport:
    max_cge_level: int
    dims: tuple[int, ...]
    per_level: tuple[LevelVerdict, ...]
    thresholds_used: tuple[tuple[int, int], ...]
    tolerance: Tolerance

    def to_dict(self) -> dict:
        return {
            "max_cge_level": self.max_cge_level,
            "dims": list(self.dims),
            "per_level": [v.to_dict() for v in self.per_level],
            "thresholds_used": [list(t) for t in self.thresholds_used],
            "tolerance": {
                "rank_cutoff": self.tolerance.rank_cutoff,
                "reconstruction_atol": self.tolerance.reconstruction_atol,
            },
        }


def is_k_cge(
    state: PureState,
    k: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
    budget_dim: int = DIM_BUDGET,
) -> LevelVerdict:
    """Verdict for one level: True when every size-k subset has rank above
    its threshold; otherwise the lexicographically first failing subset is
    the witness. Valid levels are 1 <= k <= floor(n/2)."""
    n = state.n
    if not 1 <= k <= n // 2:
        raise ValueError(f"level k={k} out of range [1, {n // 2}] for n={n}")
    check_budget(state, budget_dim)
    for members in itertools.combinations(range(n), k):
        threshold = subset_threshold(state.dims, members)
        rank = schmidt_rank(state, PartySubset(members, n), tol)
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

    Levels are scanned upward and the scan stops at the first failure; the
    nesting of the levels marks everything above as failed without
    re-checking (those verdicts carry ``implied=True``).
    """
    check_budget(state, budget_dim)
    n = state.n
    k_cap = n // 2
    if max_k is not None:
        k_cap = min(k_cap, max_k)
    verdicts: list[LevelVerdict] = []
    thresholds: list[tuple[int, int]] = []
    level = 0
    failed = False
    descending = sorted(state.dims, reverse=True)
    for k in range(1, k_cap + 1):
        # Reported per-level threshold: the strictest subset threshold at
        # size k. prod(I)/min(I) is the product of the k-1 largest members
        # of I, so the k largest dims attain it (d^(k-1) for uniform dims);
        # per-subset values appear with any witness.
        thresholds.append((k, math.prod(descending[: k - 1])))
        if failed:
            verdicts.append(LevelVerdict(k, False, implied=True))
            continue
        verdict = is_k_cge(state, k, tol, budget_dim=budget_dim)
        verdicts.append(verdict)
        if verdict.is_cge:
            level = k
        else:
            failed = True
    return ClassificationReport(
        max_cge_level=level,
        dims=state.dims,
        per_level=tuple(verdicts),
        thresholds_used=tuple(thresholds),
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
        return {
            "n": self.n,
            "d": self.d,
            "s": self.s,
            "classifier_level": self.classifier_level,
            "formula_level": self.formula_level,
            "exact_power": self.exact_power,
            "matches": self.matches,
        }


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
    from .states import dicke, dicke_cge_formula

    state = dicke(n, d, s)
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
