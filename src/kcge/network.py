"""Graph-level bounds on the connection ability of entangled networks.

A network is a multigraph of parties; every edge unit is one shared
bipartite entangled state. Two bounds are computed: a degree condition that
certifies a subset can jointly disentangle one of its parties by
entanglement swapping, and a chain-connectivity bound from edge-disjoint
paths. Both read one n x n matrix of edge-unit counts. The greedy subset
search turns the degree condition into an upper bound on the connection
level in O(n^4) matrix-entry reads (O(n^2) array operations), and the
connectivity is a global minimum cut, found by Stoer-Wagner in O(n^3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOLERANCE, DIM_BUDGET, PartySubset, Tolerance, _as_int, plain
from .errors import BudgetExceededError

# Largest n x n edge-unit matrix a graph may ask for: 2^18 entries (2 MiB
# of int64), so n <= 512. The greedy search makes O(n^2) array operations
# of length n on it, and Stoer-Wagner O(n^2) more.
UNITS_BUDGET = 2**18


@dataclass(frozen=True)
class NetworkGraph:
    """Multigraph of ``n`` parties; edges carry a multiplicity (number of
    shared bipartite states) and a local dimension per edge unit."""

    n: int
    edges: tuple[tuple[int, int, int, int], ...]  # (i, j, multiplicity, local dim)

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "network n"))
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.n * self.n > UNITS_BUDGET:
            raise BudgetExceededError(
                f"network of n={self.n} parties: its {self.n}x{self.n} edge-unit "
                f"matrix ({self.n * self.n} entries) exceeds budget {UNITS_BUDGET}"
            )
        seen: dict[tuple[int, int, int], int] = {}
        for edge in self.edges:
            if len(edge) == 3:
                i, j, mult = edge
                dim = 2
            else:
                i, j, mult, dim = edge
            what = f"edge {list(edge)} entry"
            i, j, mult, dim = (_as_int(x, what) for x in (i, j, mult, dim))
            if i == j:
                raise ValueError(f"self-loop at party {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if mult < 1:
                raise ValueError(f"edge ({i}, {j}) has multiplicity {mult} < 1")
            if dim < 2:
                raise ValueError(f"edge ({i}, {j}) has local dimension {dim} < 2")
            a, b = min(i, j), max(i, j)
            seen[(a, b, dim)] = seen.get((a, b, dim), 0) + mult
        canon = tuple(
            (a, b, mult, dim) for (a, b, dim), mult in sorted(seen.items())
        )
        object.__setattr__(self, "edges", canon)

    def edge_units(self) -> list[tuple[int, int, int]]:
        """Expanded list of single entangled-state units (i, j, dim), sorted
        by endpoints; multiplicity m contributes m consecutive units."""
        units = []
        for i, j, mult, dim in self.edges:
            units.extend([(i, j, dim)] * mult)
        return units

    @functools.cached_property
    def units(self) -> np.ndarray:
        """Read-only symmetric matrix whose entry (i, j) counts the edge
        units between parties i and j, summed over local dimensions."""
        units = np.zeros((self.n, self.n), dtype=np.int64)
        for i, j, mult, _d in self.edges:
            units[i, j] += mult
        units += units.T
        units.flags.writeable = False
        return units

    def degree(self, party: int) -> int:
        """Connectedness degree: number of edge units incident to ``party``."""
        return int(self.units[party].sum())

    def units_between(self, a: int, b: int) -> int:
        return int(self.units[a, b])

    to_dict = plain

    @classmethod
    def from_dict(cls, obj: dict) -> "NetworkGraph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise ValueError("network JSON must be an object with 'n' and 'edges'")
        return cls(obj["n"], tuple(tuple(e) for e in obj["edges"]))


@dataclass(frozen=True)
class DegreeProfile:
    """Edge-unit counts of one party relative to a subset: units into the
    rest of the subset (s_in), units leaving the subset (s_out), and units
    between two other subset members (t)."""

    subset: PartySubset
    party: int
    s_in: int
    s_out: int
    t: int


def degree_profile(g: NetworkGraph, subset: PartySubset, party: int) -> DegreeProfile:
    if party not in subset.members:
        raise ValueError(f"party {party} is not in subset {subset.members}")
    members = list(subset.members)
    s_in = int(g.units[party, members].sum())
    # The members' block counts every inner unit twice: the party's s_in
    # units and the t units between the other members.
    t = int(g.units[np.ix_(members, members)].sum()) // 2 - s_in
    return DegreeProfile(subset, party, s_in, g.degree(party) - s_in, t)


def degree_condition_fires(profile: DegreeProfile) -> bool:
    """Degree condition s_in + 2t >= s_out.

    When it holds for some party of a size-b subset, the subset can swap all
    of that party's outside entanglement into other members, so the joint
    network state is b-connection biseparable (not b-CGE).
    """
    return profile.s_in + 2 * profile.t >= profile.s_out


def chain_connectivity(g: NetworkGraph) -> int:
    """Minimum over party pairs of the number of edge-disjoint paths
    between them (unit capacity per edge unit); 0 for disconnected graphs.

    By Menger's theorem this is the global minimum edge cut, found by
    Stoer-Wagner maximum-adjacency phases (J. ACM 44(4), 1997): each phase
    adds the parties one at a time, always the one with the most units into
    the added set; the last one's units at that point are a cut, and the
    last two parties are then merged.
    """
    w = g.units.copy()
    alive = list(range(g.n))
    cuts = []
    while len(alive) > 1:
        # Units from the added set into each party; -inf once added or merged.
        weight = np.full(g.n, -np.inf)
        weight[alive] = 0
        prev = last = None
        for _ in alive:
            prev, last = last, int(np.argmax(weight))
            cut = weight[last]
            weight += w[last]
            weight[last] = -np.inf
        cuts.append(int(cut))
        w[prev] += w[last]
        w[:, prev] += w[:, last]
        alive.remove(last)
    return min(cuts, default=0)


def connectivity_biseparable_size(c: int) -> int:
    """Smallest k with 2k >= c + 1 for a c-connected network."""
    return math.ceil((c + 1) / 2)


def connectivity_bound(g: NetworkGraph) -> int:
    """Connection-level upper bound from chain connectivity,
    connectivity_biseparable_size(c) - 1 floored at 0.

    Only informative for c >= 2; for c <= 1 the bound degenerates and is
    flagged in the report rather than applied. It also contradicts the
    known level of complete networks, so `network_bound` reports it alongside
    the degree-condition bound without folding it in.
    """
    c = chain_connectivity(g)
    return max(connectivity_biseparable_size(c) - 1, 0)


@dataclass(frozen=True)
class SizeCheck:
    size: int
    s_in: int
    s_out: int
    t: int
    fires: bool

    to_dict = plain


@dataclass(frozen=True)
class SeedTrace:
    """Replayable record of one greedy growth: the seed party, the order in
    which parties were added, the degree check at each size, the first
    firing size, and the resulting level bound min(degree, size - 1)."""

    seed: int
    degree: int
    growth: tuple[int, ...]
    checks: tuple[SizeCheck, ...]
    first_firing_size: int | None
    level_bound: int

    to_dict = plain


@dataclass(frozen=True)
class NetworkBoundReport:
    n: int
    degree_condition_size: int | None
    connectivity: int
    connectivity_biseparable_size: int
    connectivity_applies: bool
    connectivity_level_bound: int
    cge_upper_bound: int
    trace: tuple[SeedTrace, ...]

    to_dict = plain


def _grow_from_seed(g: NetworkGraph, seed: int) -> SeedTrace:
    degree = g.degree(seed)
    # Size budget: the greedy subset may grow to floor((degree + 1) / 2) + 1
    # parties including the seed.
    max_size = min((degree + 1) // 2 + 1, g.n)
    members = [seed]
    growth: list[int] = []
    checks: list[SizeCheck] = []
    first_fire: int | None = None
    while True:
        subset = PartySubset.of(members, g.n)
        prof = degree_profile(g, subset, seed)
        fired = degree_condition_fires(prof)
        checks.append(
            SizeCheck(len(members), prof.s_in, prof.s_out, prof.t, fired)
        )
        if fired:
            first_fire = len(members)
            break
        if len(members) >= max_size:
            break
        shared = g.units[members].sum(axis=0)
        shared[members] = -1
        # Most shared edge units first, lowest index on ties (argmax takes
        # the first maximum).
        nxt = int(np.argmax(shared))
        members.append(nxt)
        growth.append(nxt)
    if first_fire is not None:
        level_bound = min(degree, first_fire - 1)
    else:
        # A party can always be disentangled by cooperating with all of its
        # neighbors, so its degree caps the level regardless.
        level_bound = degree
    return SeedTrace(
        seed=seed,
        degree=degree,
        growth=tuple(growth),
        checks=tuple(checks),
        first_firing_size=first_fire,
        level_bound=max(level_bound, 0),
    )


def network_bound(g: NetworkGraph) -> NetworkBoundReport:
    """Greedy degree-condition search for a connection-level upper bound.

    For every party of minimal degree, grow a subset one party at a time,
    always adding the outside party sharing the most edge units with the
    current subset (ties to the lowest index), and evaluate the degree
    condition for the seed at each size. A firing at size b certifies the
    joint state is b-connection biseparable, so the level is at most b - 1;
    the seed's degree and floor(n/2) cap the level as well. The chain
    connectivity bound is reported alongside but never folded into the
    returned upper bound (it is known to disagree with complete networks).
    """
    if g.n < 2:
        raise ValueError("need at least two parties")
    degrees = g.units.sum(axis=1)
    seeds = np.flatnonzero(degrees == degrees.min()).tolist()
    traces = tuple(_grow_from_seed(g, seed) for seed in seeds)
    firing_sizes = [t.first_firing_size for t in traces if t.first_firing_size]
    fired_size = min(firing_sizes) if firing_sizes else None
    bound = min(min(t.level_bound for t in traces), g.n // 2)
    c = chain_connectivity(g)
    bisep = connectivity_biseparable_size(c)
    return NetworkBoundReport(
        n=g.n,
        degree_condition_size=fired_size,
        connectivity=c,
        connectivity_biseparable_size=bisep,
        connectivity_applies=c >= 2,
        connectivity_level_bound=max(bisep - 1, 0),
        cge_upper_bound=max(bound, 0),
        trace=traces,
    )


@dataclass(frozen=True)
class CrossCheckRecord:
    report: NetworkBoundReport
    classifier_level: int
    consistent: bool

    def to_dict(self) -> dict:
        return {
            "network_bound": plain(self.report),
            "classifier_level": self.classifier_level,
            "consistent": self.consistent,
        }


def cross_check(
    g: NetworkGraph,
    edge_states=None,
    tol: Tolerance = DEFAULT_TOLERANCE,
    budget: int = DIM_BUDGET,
) -> CrossCheckRecord:
    """Build the joint network state, classify it, and compare against the
    graph-level bound. ``consistent`` is False when the classifier exceeds
    the bound, which would falsify the bound. ``budget`` caps the joint
    state's total dimension for both the build and the scan."""
    from .classify import classify
    from .states import network_joint_state

    joint = network_joint_state(g, edge_states, budget=budget)
    report = network_bound(g)
    level = classify(joint, tol, budget_dim=budget).max_cge_level
    return CrossCheckRecord(
        report=report, classifier_level=level, consistent=level <= report.cge_upper_bound
    )


# --- topology corpus ---------------------------------------------------------


def chain_network(n: int, dim: int = 2) -> NetworkGraph:
    return NetworkGraph(n, tuple((i, i + 1, 1, dim) for i in range(n - 1)))


def star_network(n: int, dim: int = 2) -> NetworkGraph:
    """Star with party 0 at the center."""
    return NetworkGraph(n, tuple((0, i, 1, dim) for i in range(1, n)))


def cycle_network(n: int, dim: int = 2) -> NetworkGraph:
    return NetworkGraph(n, tuple((i, (i + 1) % n, 1, dim) for i in range(n)))


def complete_network(n: int, dim: int = 2) -> NetworkGraph:
    return NetworkGraph(
        n, tuple((i, j, 1, dim) for i in range(n) for j in range(i + 1, n))
    )


def grid_network(rows: int, cols: int, dim: int = 2) -> NetworkGraph:
    """Planar grid, parties indexed row-major."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                edges.append((p, p + 1, 1, dim))
            if r + 1 < rows:
                edges.append((p, p + cols, 1, dim))
    return NetworkGraph(rows * cols, tuple(edges))


def cubic_network(dim: int = 2) -> NetworkGraph:
    """The 8-party cube, parties indexed by 3-bit strings."""
    edges = []
    for a in range(8):
        for bit in (1, 2, 4):
            b = a ^ bit
            if a < b:
                edges.append((a, b, 1, dim))
    return NetworkGraph(8, tuple(edges))
