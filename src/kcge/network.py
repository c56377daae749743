"""Graph-level bounds on the connection ability of entangled networks.

A network is a multigraph of parties; every edge unit is one shared
bipartite entangled state of some local dimension. Two bounds are
computed: a degree condition, in exact products of those dimensions, that
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

from .core import _as_int, plain
from .errors import BudgetExceededError

# Largest n x n edge-unit matrix a graph may ask for: 2^18 entries (2 MiB
# of int64), so n <= 512. The greedy search makes O(n^2) array operations
# of length n on it, and Stoer-Wagner O(n^2) more. Also the largest total
# of edge bits, which keeps the degree condition's products below 2^(2^19).
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
        bits = 0
        for count, (_a, _b, mult, dim) in enumerate(canon, start=1):
            bits += mult * (dim - 1).bit_length()  # ceil(log2 dim) per unit
            if bits > UNITS_BUDGET:
                raise BudgetExceededError(
                    f"network edges: multiplicity x ceil(log2 dim) exceeds budget "
                    f"{UNITS_BUDGET} (the first {count} edges already give {bits})"
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

    @functools.cached_property
    def _local_dims(self) -> tuple[int, ...]:
        """The distinct local dimensions of the edge units, ascending."""
        return tuple(sorted({d for *_ends, d in self.edges}))

    @functools.cached_property
    def _incidence(self) -> list[np.ndarray]:
        """Per party, one int64 row (neighbour, index into ``_local_dims``,
        multiplicity) for each edge entry at that party."""
        index = {d: k for k, d in enumerate(self._local_dims)}
        ends = np.array([(i, j, index[d], m) for i, j, m, d in self.edges], np.int64).reshape(-1, 4)
        both = np.concatenate([ends, ends[:, [1, 0, 2, 3]]])
        both = both[np.argsort(both[:, 0], kind="stable")]
        return np.split(both[:, 1:], np.searchsorted(both[:, 0], np.arange(1, self.n)))

    def degree(self, party: int) -> int:
        """Connectedness degree: number of edge units incident to ``party``."""
        if not 0 <= party < self.n:
            raise ValueError(f"party index {party} out of range for n={self.n}")
        return int(self.units[party].sum())

    to_dict = plain

    @classmethod
    def from_dict(cls, obj: dict) -> "NetworkGraph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise ValueError("network JSON must be an object with 'n' and 'edges'")
        return cls(obj["n"], tuple(tuple(e) for e in obj["edges"]))


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


@dataclass(frozen=True)
class SizeCheck:
    """The seed's edge units into the rest of the subset (s_in) and out of
    it (s_out), the units between two other members (t), whatever their
    local dims, and whether the degree condition fires (``_degree_check``)."""

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


def _degree_check(g: NetworkGraph, members: list[int]) -> SizeCheck:
    """The degree condition for the seed ``members[0]`` of subset S.

    With maximally entangled edges, rank(S) is the product of the local dims
    of the units crossing S, and dim(S)/d_seed the product over the seed's
    units inside S, the units between two other members (squared) and the
    other members' units leaving S. So S frees the seed, rank(S) <=
    dim(S)/d_seed <= dim(S)/min_S d, exactly when prod_out d <= prod_in d *
    (prod_t d)^2; other edge states only lower rank(S). The exponent of each
    local dim d in the ratio is e_d = out_d - in_d - 2 t_d: the seed's dim-d
    degree less the dim-d units inside S counted from both ends. Signs
    decide unless they are mixed, which needs exact products. For one local
    dim the condition is s_in + 2t >= s_out.

    This form counts the units inside S from scratch; ``_grow_from_seed``
    keeps the same counts as S grows.
    """
    seed = members[0]
    rows = np.concatenate([g._incidence[m] for m in members])
    inside = _units_per_dim(g, rows[np.isin(rows[:, 0], members)])
    s_in = int(g.units[seed, members].sum())
    return _size_check(g, len(members), s_in, _units_per_dim(g, g._incidence[seed]), inside)


def _units_per_dim(g: NetworkGraph, rows: np.ndarray) -> list[int]:
    """Units of the incidence ``rows`` per local dim."""
    return np.bincount(rows[:, 1], rows[:, 2], len(g._local_dims)).astype(np.int64).tolist()


def _size_check(
    g: NetworkGraph, size: int, s_in: int, seed_units: list[int], inside: list[int]
) -> SizeCheck:
    """``_degree_check`` for a subset of ``size`` parties whose seed shares
    ``s_in`` units with the others, given per local dim the seed's units and
    ``inside``, the units with both ends in S counted from both ends."""
    excess = [a - b for a, b in zip(seed_units, inside)]
    if min(excess, default=0) < 0 < max(excess, default=0):
        dims = g._local_dims
        fires = math.prod(d**e for d, e in zip(dims, excess) if e > 0) <= math.prod(
            d**-e for d, e in zip(dims, excess) if e < 0
        )
    else:
        fires = max(excess, default=0) <= 0
    degree = sum(seed_units)
    return SizeCheck(size, s_in, degree - s_in, sum(inside) // 2 - s_in, fires)


def _grow_from_seed(g: NetworkGraph, seed: int) -> SeedTrace:
    degree = g.degree(seed)
    # Size budget: the greedy subset may grow to floor((degree + 1) / 2) + 1
    # parties including the seed.
    max_size = min((degree + 1) // 2 + 1, g.n)
    members = [seed]
    in_subset = np.zeros(g.n, dtype=bool)
    in_subset[seed] = True
    # Running per-party units shared with the subset, the seed's units
    # inside it, and per-dim units inside it (counted from both ends),
    # updated as each party joins.
    shared = g.units[seed].copy()
    s_in = 0
    seed_units = _units_per_dim(g, g._incidence[seed])
    inside = [0] * len(seed_units)
    checks = [_size_check(g, 1, s_in, seed_units, inside)]
    while not checks[-1].fires and len(members) < max_size:
        # Most shared edge units first, lowest index on ties (argmax takes
        # the first maximum).
        new = int(np.argmax(np.where(in_subset, -1, shared)))
        rows = g._incidence[new]
        joined = _units_per_dim(g, rows[in_subset[rows[:, 0]]])
        inside = [a + 2 * b for a, b in zip(inside, joined)]
        s_in += int(g.units[seed, new])
        shared += g.units[new]
        in_subset[new] = True
        members.append(new)
        checks.append(_size_check(g, len(members), s_in, seed_units, inside))
    first_fire = len(members) if checks[-1].fires else None
    # A party can always be disentangled by cooperating with all of its
    # neighbors, so its degree caps the level regardless.
    level_bound = degree if first_fire is None else min(degree, first_fire - 1)
    return SeedTrace(
        seed=seed,
        degree=degree,
        growth=tuple(members[1:]),
        checks=tuple(checks),
        first_firing_size=first_fire,
        level_bound=level_bound,
    )


def network_bound(g: NetworkGraph) -> NetworkBoundReport:
    """Greedy degree-condition search for a connection-level upper bound.

    For every party of minimal degree, grow a subset one party at a time,
    always adding the outside party sharing the most edge units with the
    current subset (ties to the lowest index), and evaluate the degree
    condition for the seed at each size, in exact products of the units'
    local dims (``_degree_check``). A firing at size b certifies the joint
    state is b-connection biseparable, so the level is at most b - 1; the
    seed's degree and floor(n/2) cap the level as well. The chain
    connectivity bound is reported alongside but never folded into the
    returned upper bound (it is known to disagree with complete networks).
    ``NetworkGraph`` has already refused a graph over ``UNITS_BUDGET``
    (parties squared, or edge bits: multiplicity x ceil(log2 dim)).
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
        cge_upper_bound=bound,
        trace=traces,
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
