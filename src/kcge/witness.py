"""Linear witnesses for connection-level entanglement.

A witness for a target |Phi> at level k is r*I - |Phi><Phi| where r is the
largest squared overlap any k-connection biseparable state reaches with the
target; a negative expectation value certifies the measured state lies
outside that biseparable set. Closed forms are implemented for the GHZ
family and the four-party W family; exact_radius gives r for any target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classify import level_subsets
from .core import DensityMatrix, PartySubset, PureState, schmidt
from .states import checked_coefficients, ghz, w_type

PROVENANCES = (
    "closed_form_ghz",
    "closed_form_w4_k1",
    "closed_form_w4_k2",
    "exact",
)


@dataclass(frozen=True, eq=False)
class WitnessSpec:
    """Target state, the level it certifies, and the witness radius r."""

    target: PureState
    level: int
    radius: float
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not 0.0 < self.radius <= 1.0:
            raise ValueError(f"radius {self.radius!r} outside (0, 1]")
        if self.level < 1:
            raise ValueError(f"level must be positive, got {self.level}")


def witness_value(spec: WitnessSpec, rho: DensityMatrix) -> float:
    """Tr[(r*I - |Phi><Phi|) rho] = r - <Phi|rho|Phi>; negative values
    certify rho outside the level-k biseparable set."""
    if rho.dims != spec.target.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {spec.target.dims}")
    phi = spec.target.amps
    overlap = float(np.real(np.vdot(phi, rho.matrix @ phi)))
    return spec.radius - overlap


def radius_ghz(a) -> float:
    """Witness radius for a GHZ state with coefficients a: max_i a_i^2.

    The coefficient vector is normalized by its squared norm so that exact
    rational radii (such as 0.5 for the balanced pair) come out exact.
    """
    a, ssq = checked_coefficients(a)
    return float(np.max(a**2) / ssq)


def radius_w4(level: int, a) -> float:
    """Witness radius for the four-party W family with coefficients
    (a_1..a_4, a_5).

    level 2: max(1 - a_5^2, 1 - a_i^2 - a_j^2) over pairs i < j <= 4;
    level 1: max(a_5^2, a_i^2 + a_j^2) over the same pairs.
    """
    a, ssq = checked_coefficients(a, 5)
    sq = a**2 / ssq
    pair_sums = [sq[i] + sq[j] for i, j in combinations(range(4), 2)]
    if level == 2:
        return float(max(1.0 - sq[4], max(1.0 - p for p in pair_sums)))
    if level == 1:
        return float(max(sq[4], max(pair_sums)))
    raise ValueError(f"level must be 1 or 2, got {level}")


def werner_state(target: PureState, v: float) -> DensityMatrix:
    """White-noise mixture v |Phi><Phi| + (1 - v) I / dim."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v!r} outside [0, 1]")
    dim = target.total_dim
    mat = v * np.outer(target.amps, target.amps.conj()) + (1.0 - v) / dim * np.eye(dim)
    # A convex mix of a pure state and I / dim is positive semidefinite.
    return DensityMatrix(target.dims, mat, check_psd=False)


def werner_visibility_threshold(r: float, dim: int) -> float:
    """Closed-form visibility bound (dim*r + 1) / (dim + 1), equal to
    (16r + 1)/17 on four qubits.

    This is the quoted bound for this witness family. It is not the root of
    the witness on the white-noise family; werner_zero_crossing computes the
    exact crossing, and the two are exposed side by side.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"radius {r!r} outside (0, 1]")
    if dim < 2:
        raise ValueError(f"dimension {dim} too small")
    return (dim * r + 1.0) / (dim + 1.0)


def werner_zero_crossing(r: float, dim: int) -> float:
    """Exact visibility where the witness vanishes on the white-noise
    family: solving r = v + (1 - v)/dim gives v = (dim*r - 1) / (dim - 1)."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"radius {r!r} outside (0, 1]")
    if dim < 2:
        raise ValueError(f"dimension {dim} too small")
    return (dim * r - 1.0) / (dim - 1.0)


def ghz_witness(n: int, d: int, a) -> WitnessSpec:
    return WitnessSpec(
        target=ghz(n, d, a),
        level=1,
        radius=radius_ghz(a),
        provenance="closed_form_ghz",
    )


def w4_witness(level: int, a) -> WitnessSpec:
    """Witness for the four-party W family with the closed-form radius.

    At level 1 the closed form is below the exact radius: a product state
    across one party reaches a larger overlap (0.6 against 0.4 at equal
    weights), so this witness can go negative on a biseparable state. Use
    exact_witness(target, 1) for a sound level-1 witness.
    """
    return WitnessSpec(
        target=w_type(4, a),
        level=level,
        radius=radius_w4(level, a),
        provenance="closed_form_w4_k2" if level == 2 else "closed_form_w4_k1",
    )


def w4_visibility_curves(theta_grid) -> list[tuple[float, float, float, float, float]]:
    """Noisy four-party W table: for each theta in (0, pi/2) with
    a_1..4 = cos(theta)/2 and a_5 = sin(theta), the level-2 and level-1
    radii and their published visibility bounds on 16 dimensions.

    Rows are (theta, r2, r1, v2, v1). No ordering between r2 and r1 is
    asserted; the table simply reports both."""
    rows = []
    for theta in theta_grid:
        theta = float(theta)
        if not 0.0 < theta < math.pi / 2:
            raise ValueError(f"theta {theta!r} outside the open interval (0, pi/2)")
        c, s = math.cos(theta), math.sin(theta)
        a = [c / 2.0] * 4 + [s]
        r2 = radius_w4(2, a)
        r1 = radius_w4(1, a)
        rows.append(
            (
                theta,
                r2,
                r1,
                werner_visibility_threshold(r2, 16),
                werner_visibility_threshold(r1, 16),
            )
        )
    return rows


def exact_radius(target: PureState, k: int) -> float:
    """Largest squared overlap of the target with a pure state that is not
    k-CGE.

    Such a state has Schmidt rank at most t = subset_threshold(dims, I)
    across some size-k subset I, and by Eckart-Young-Mirsky the best overlap
    at rank t is the sum of the top t Schmidt coefficients across I; the
    radius is the maximum of that sum over every size-k subset. The subsets
    come from ``classify.level_subsets``, so a k outside [1, floor(n/2)]
    raises ValueError and a target over the classifier's budget raises
    BudgetExceededError before any SVD.
    """
    best = max(
        schmidt(target, PartySubset(members, target.n)).coefficients[:threshold].sum()
        for members, threshold in level_subsets(target, k, caller="exact_radius")
    )
    # A target within NORM_ATOL of unit norm can sum a hair past 1.
    return float(min(best, 1.0))


def exact_witness(target: PureState, k: int) -> WitnessSpec:
    return WitnessSpec(
        target=target, level=k, radius=exact_radius(target, k), provenance="exact"
    )
