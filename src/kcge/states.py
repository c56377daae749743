"""Constructors for the named state families used throughout the toolkit.

Multi-qubit factors shared between parties (entangled pairs, GHZ-type
hyperedges, network edge states) are always grouped party by party: each
party's local qubits are merged into a single qudit, and within a party the
factors are ordered by their sorted endpoint tuple, ties broken by input
order. This ordering is part of the contract so joint states are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .core import (
    DIM_BUDGET,
    PureState,
    _as_int,
    _checked_dims,
    _require_finite,
    basis_state,
    guard_total_dim,
    state_from_dict,
)
from .network import NetworkGraph


def checked_coefficients(
    a: Sequence[float], size: int | None = None
) -> tuple[np.ndarray, float]:
    """The coefficient vector as floats and its sum of squares, refusing a
    vector with NaN or Inf entries, of the wrong ``size``, or whose sum of
    squares is not 1 within 1e-9."""
    a = np.asarray(a, dtype=float)
    _require_finite(a, "coefficients", "entries", "a")
    if size is not None and a.size != size:
        raise ValueError(f"expected {size} coefficients, got {a.size}")
    ssq = float(np.sum(a**2))
    if abs(ssq - 1.0) > 1e-9:
        raise ValueError(f"coefficients are not normalized: sum a_i^2 = {ssq!r}")
    return a, ssq


def ghz(n: int, d: int, a: Sequence[float], budget: int = DIM_BUDGET) -> PureState:
    """Generalized GHZ state: amplitude a_i on each |i i ... i>.

    Requires n >= 2 parties, local dimension d >= 2, and a normalized
    coefficient vector of length d.
    """
    n, d = _as_int(n, "ghz n"), _as_int(d, "ghz d")
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    a, ssq = checked_coefficients(a, d)
    guard_total_dim(repeat(d, n), budget, "ghz")
    amps = np.zeros(d**n, dtype=np.complex128)
    step = (d**n - 1) // (d - 1)  # index of |i...i> is i * (d^{n-1} + ... + 1)
    for i in range(d):
        amps[i * step] = a[i]
    return PureState((d,) * n, amps / math.sqrt(ssq))


def w_type(n: int, a: Sequence[float], budget: int = DIM_BUDGET) -> PureState:
    """W-type qubit state: a_i on the single-excitation vector |1_i> for
    i = 1..n plus a_{n+1} on |1...1>.

    |1_i> puts the excitation at party i, so the coefficient list has n + 1
    entries.
    """
    n = _as_int(n, "w_type n")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    a, ssq = checked_coefficients(a, n + 1)
    guard_total_dim(repeat(2, n), budget, "w_type")
    amps = np.zeros(2**n, dtype=np.complex128)
    for p in range(n):
        amps[1 << (n - 1 - p)] = a[p]
    amps[(1 << n) - 1] = a[n]
    return PureState((2,) * n, amps / math.sqrt(ssq))


def excitation_count(n: int, d: int, s: int) -> int:
    """Number of n-tuples over {0, ..., d-1} summing to s, computed exactly
    by dynamic programming over bounded compositions."""
    if s < 0:
        return 0
    counts = [1] + [0] * s
    for _ in range(n):
        nxt = [0] * (s + 1)
        for total in range(s + 1):
            lo = max(0, total - (d - 1))
            nxt[total] = sum(counts[lo : total + 1])
        counts = nxt
    return counts[s]


def dicke(n: int, d: int, s: int, budget: int = DIM_BUDGET) -> PureState:
    """n-qudit Dicke state with s total excitations: equal weight on every
    basis vector whose digits sum to s."""
    n, d, s = _as_int(n, "dicke n"), _as_int(d, "dicke d"), _as_int(s, "dicke s")
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    if not 0 <= s <= (d - 1) * n:
        raise ValueError(f"excitation count s={s} out of range [0, {(d - 1) * n}]")
    guard_total_dim(repeat(d, n), budget, "dicke")
    count = excitation_count(n, d, s)
    # Digit sum of every basis index, party 0 most significant.
    digit_sum = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        digit_sum = np.add.outer(digit_sum, np.arange(d)).reshape(-1)
    amps = np.zeros(d**n, dtype=np.complex128)
    amps[digit_sum == s] = 1.0 / math.sqrt(count)
    return PureState((d,) * n, amps)


def basis_reversal(d: int) -> np.ndarray:
    """Single-party basis reversal |x> -> |d-1-x> (the qubit X gate for d=2)."""
    return np.eye(d, dtype=np.complex128)[::-1].copy()


def max_entangled_pair(d: int) -> PureState:
    """Maximally entangled two-qudit pair sum_i |ii> / sqrt(d)."""
    amps = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        amps[i * d + i] = 1.0 / math.sqrt(d)
    return PureState((d, d), amps)


def epr_pair(theta: float) -> PureState:
    """Two-qubit pair cos(theta)|00> + sin(theta)|11> with theta in (0, pi/2)."""
    _check_angle(theta)
    return PureState((2, 2), np.array([math.cos(theta), 0, 0, math.sin(theta)]))


def _check_angle(theta: float) -> None:
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(
            f"edge angle {theta!r} outside the open interval (0, pi/2); "
            "degenerate edges would produce product factors and are rejected"
        )


@dataclass(frozen=True)
class _Factor:
    parties: tuple[int, ...]
    dims: tuple[int, ...]
    vec: np.ndarray


def _assemble(n: int, factors: list[_Factor], budget: int, what: str):
    """Tensor the factors together and regroup slots party by party.

    Returns the joint tensor with one axis per slot (party-major target
    order), the per-party slot axis ranges, and the grouped party dims.
    """
    touched = set()
    for f in factors:
        if len(set(f.parties)) != len(f.parties):
            raise ValueError(f"factor touches a party twice: {f.parties}")
        for p in f.parties:
            if not 0 <= p < n:
                raise ValueError(f"party index {p} out of range for n={n}")
        touched.update(f.parties)
    if touched != set(range(n)):
        missing = sorted(set(range(n)) - touched)
        raise ValueError(f"parties {missing} are not touched by any factor")

    all_dims = [d for f in factors for d in f.dims]
    guard_total_dim(all_dims, budget, what)

    # Source axis order is factor-major; target order groups each party's
    # slots, sorted by (sorted endpoints, input index).
    slots = []  # (party, sort_key, source_axis, dim)
    axis = 0
    for fi, f in enumerate(factors):
        key = (tuple(sorted(f.parties)), fi)
        for pos, p in enumerate(f.parties):
            slots.append((p, key, axis + pos, f.dims[pos]))
        axis += len(f.parties)
    slots.sort(key=lambda s: (s[0], s[1]))

    joint = np.array([1.0 + 0.0j])
    for f in factors:
        joint = np.kron(joint, f.vec)
    nd = joint.reshape(all_dims).transpose([s[2] for s in slots])

    party_axes: list[list[int]] = [[] for _ in range(n)]
    party_dims = [1] * n
    for target_axis, (p, _key, _src, dim) in enumerate(slots):
        party_axes[p].append(target_axis)
        party_dims[p] *= dim
    return nd, party_axes, tuple(party_dims)


def _phase_on_axes(nd: np.ndarray, axes: Sequence[int], angle: float) -> None:
    """Multiply the |1...1> block of the given qubit axes by e^{i angle}."""
    idx: list = [slice(None)] * nd.ndim
    for ax in axes:
        if nd.shape[ax] != 2:
            raise ValueError("controlled-phase slots must be qubits")
        idx[ax] = 1
    nd[tuple(idx)] *= np.exp(1j * angle)


def cluster_from_epr(
    edges: Sequence[tuple[int, int, float]],
    phases: Sequence[tuple[int, int, int, float]] = (),
    budget: int = DIM_BUDGET,
) -> PureState:
    """Cluster-type joint state built from two-qubit entangled edges.

    ``edges`` lists (i, j, theta) with theta in (0, pi/2); each edge places
    one qubit at party i and one at party j and contributes
    cos(theta)|00> + sin(theta)|11>. ``phases`` lists local controlled-phase
    operations (party, slot_a, slot_b, angle) acting on two of that party's
    qubits, where slots index the party's qubits in the deterministic
    grouping order. Each party's qubits are then merged into one qudit of
    dimension 2^(edge count). This is the two-slot case of
    graph_from_epr_ghz without hyperedges.
    """
    if not edges:
        raise ValueError("need at least one edge")
    joint_phases = [(party, (a, b), angle) for party, a, b, angle in phases]
    return graph_from_epr_ghz(edges, (), joint_phases, budget=budget)


def _index_below(value, size: int, name: str) -> int:
    """``value`` as an index in [0, size); anything else raises ValueError
    naming ``name`` and the range."""
    index = _as_int(value, name)
    if not 0 <= index < size:
        raise ValueError(f"{name} {index} out of range [0, {size})")
    return index


def graph_from_epr_ghz(
    epr_edges: Sequence[tuple[int, int, float]],
    ghz_hyperedges: Sequence[tuple[Sequence[int], float]] = (),
    joint_phases: Sequence[tuple[int, Sequence[int], float]] = (),
    budget: int = DIM_BUDGET,
) -> PureState:
    """Graph-type joint state from two-qubit edges and GHZ-type hyperedges.

    A hyperedge (members, theta) places one qubit at each member party and
    contributes cos(theta)|0...0> + sin(theta)|1...1>. ``joint_phases``
    lists (party, slots, angle) diagonal operations that phase the
    |1...1> block of the chosen local qubits; a party or slot out of range
    raises ValueError. Party dims become 2^(incident factor count).
    """
    # An EPR edge is the two-party hyperedge.
    hyperedges = [((i, j), theta) for i, j, theta in epr_edges] + list(ghz_hyperedges)
    if not hyperedges:
        raise ValueError("need at least one edge or hyperedge")
    hyperedges = [
        (tuple(_as_int(p, "party index") for p in members), theta)
        for members, theta in hyperedges
    ]
    n = max(p for members, _ in hyperedges for p in members) + 1
    factors = []
    for members, theta in hyperedges:
        if len(members) < 2:
            raise ValueError(f"hyperedge needs at least two parties, got {members}")
        _check_angle(theta)
        vec = np.zeros(2 ** len(members), dtype=np.complex128)
        vec[0] = math.cos(theta)
        vec[-1] = math.sin(theta)
        factors.append(_Factor(members, (2,) * len(members), vec))
    nd, party_axes, party_dims = _assemble(n, factors, budget, "graph_from_epr_ghz")
    nd = np.ascontiguousarray(nd)
    for party, slot_ids, angle in joint_phases:
        slots = party_axes[_index_below(party, n, "phase party")]
        axes = [slots[_index_below(s, len(slots), "phase slot")] for s in slot_ids]
        if len(set(axes)) != len(axes):
            raise ValueError("joint phase slots must be distinct")
        _phase_on_axes(nd, axes, angle)
    return PureState(party_dims, nd.reshape(-1))


def network_joint_state(
    graph: NetworkGraph,
    edge_states: Sequence[PureState] | None = None,
    budget: int = DIM_BUDGET,
) -> PureState:
    """Joint state of a network: one bipartite state per edge unit, each
    party's local factors grouped into a single qudit.

    ``edge_states`` aligns with ``graph.edge_units()``; omitted entries
    default to the maximally entangled pair of the unit's local dimension.
    The budget is checked on ``graph.edges`` before any unit is expanded.
    """
    guard_total_dim(
        (d for *_ends, mult, d in graph.edges for _ in range(2 * mult)),
        budget,
        "network_joint_state",
    )
    units = graph.edge_units()
    if not units:
        raise ValueError("network has no edges")
    if edge_states is None:
        edge_states = [max_entangled_pair(d) for _i, _j, d in units]
    if len(edge_states) != len(units):
        raise ValueError(
            f"{len(edge_states)} edge states supplied for {len(units)} edge units"
        )
    factors = []
    for (i, j, d), st in zip(units, edge_states):
        if st.n != 2:
            raise ValueError("edge states must be bipartite")
        if st.dims != (d, d):
            raise ValueError(
                f"edge ({i}, {j}) declares local dimension {d} but the supplied "
                f"state has dims {st.dims}"
            )
        factors.append(_Factor((i, j), st.dims, st.amps))
    nd, _axes, party_dims = _assemble(graph.n, factors, budget, "network_joint_state")
    return PureState(party_dims, nd.reshape(-1))


# --- family spec JSON --------------------------------------------------------
#
# {"family": "ghz", "n": 3, "d": 2, "a": [...]}                 -> ghz
# {"family": "w_type", "n": 4, "a": [... n+1 ...]}              -> w_type
# {"family": "dicke", "n": 6, "d": 2, "s": 3}                   -> dicke
# {"family": "cluster", "edges": [[i, j, theta], ...],
#  "phases": [[party, slot_a, slot_b, angle], ...]}             -> cluster_from_epr
# {"family": "graph", "epr_edges": [[i, j, theta], ...],
#  "ghz_edges": [[[members...], theta], ...],
#  "phases": [[party, [slots...], angle], ...]}                 -> graph_from_epr_ghz
# {"family": "network", "graph": {"n": ..., "edges": [[i, j, mult], ...]}}
#                                                               -> network_joint_state
# {"family": "product", "dims": [...]}                          -> |0...0>


@dataclass(frozen=True)
class StateFamily:
    """A named family and its parameters, as read from a family spec. The
    connection level of the built state is whatever ``classify`` finds."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def build(self, budget: int = DIM_BUDGET) -> PureState:
        """Build the state, refusing any whose total dimension exceeds
        ``budget`` before allocating it."""
        p = self.parameters
        if self.kind == "ghz":
            return ghz(p["n"], p["d"], p["a"], budget=budget)
        if self.kind == "w_type":
            return w_type(p["n"], p["a"], budget=budget)
        if self.kind == "dicke":
            return dicke(p["n"], p["d"], p["s"], budget=budget)
        if self.kind == "cluster":
            return cluster_from_epr(p["edges"], p.get("phases", ()), budget=budget)
        if self.kind == "graph":
            return graph_from_epr_ghz(
                p.get("epr_edges", ()),
                p.get("ghz_edges", ()),
                p.get("phases", ()),
                budget=budget,
            )
        if self.kind == "network":
            graph = NetworkGraph.from_dict(p["graph"])
            return network_joint_state(graph, p.get("edge_states"), budget=budget)
        if self.kind == "product":
            dims = _checked_dims(p["dims"], "product dims entry")
            guard_total_dim(dims, budget, "product")
            return basis_state(dims)
        raise ValueError(f"unknown family {self.kind!r}")


def family_from_dict(obj: dict) -> StateFamily:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError("family JSON must be an object with a 'family' key")
    kind = str(obj["family"])
    params = {k: v for k, v in obj.items() if k != "family"}
    if kind == "network" and "edge_states" in params:
        params["edge_states"] = [state_from_dict(s) for s in params["edge_states"]]
    return StateFamily(kind, params)
