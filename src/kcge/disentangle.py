"""Constructive disentangling: cut-local unitaries that free a party, the
two-layer preparation circuit for arbitrary pure states, and application of
biseparable / k-connection channels to density matrices.

The freeing unitary exists exactly when the Schmidt rank across the cut
fits into the cut with one party factored out: rank <= dim(cut) / d_free.
It maps each cut-side Schmidt vector to |0>_free x e_i and is the adjoint
of one Householder QR completion of those vectors, its rows permuted. The
two-layer preparation circuit is that unitary, on the complement of a
pivot party, run backwards after a layer that prepares what it leaves,
read off the Schmidt data. A k-connection channel is a biseparable channel
whose complement factor is a Kronecker product of single-party factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    PartySubset,
    PureState,
    SchmidtDecomposition,
    Tolerance,
    apply_local_operator,
    basis_change_unitary,
    basis_state,
    complete_basis,
    expand_to_full,
    is_unitary,
    schmidt,
)
from .errors import ChannelCompletenessError, DisentangleRankError

CHANNEL_ATOL = 1e-9


def _freeing(
    state: PureState, act_on: PartySubset, free_party: int, tol: Tolerance
) -> tuple[np.ndarray, SchmidtDecomposition, int]:
    """The freeing unitary, the Schmidt data it maps and the number count
    of cut-side Schmidt vectors u_i it sends to |0>_free x e_i (e_i
    row-major over the other cut parties)."""
    if free_party not in act_on.members:
        raise ValueError(f"free party {free_party} is not in the cut {act_on.members}")
    pos = act_on.members.index(free_party)
    cut_dims = tuple(state.dims[p] for p in act_on.members)
    capacity = math.prod(cut_dims) // state.dims[free_party]
    sd = schmidt(state, act_on, tol)
    if sd.rank > capacity:
        raise DisentangleRankError(sd.rank, capacity, act_on.members, free_party)
    count = min(sd.coefficients.size, capacity)
    rows = np.arange(math.prod(cut_dims)).reshape(cut_dims).take(0, axis=pos).reshape(-1)
    return basis_change_unitary(sd.basis_cut[:, :count], rows[:count]), sd, count


def build_disentangling_unitary(
    state: PureState,
    act_on: PartySubset,
    free_party: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """Unitary on the cut that leaves ``free_party`` in |0>.

    Exists iff the Schmidt rank across the cut is at most
    dim(cut) / d_free; otherwise a DisentangleRankError reports the rank and
    that capacity. The returned matrix acts on the cut parties in ascending
    order.
    """
    return _freeing(state, act_on, free_party, tol)[0]


@dataclass(frozen=True, eq=False)
class TwoDepthDecomposition:
    """Two unitary layers that prepare a state from |0...0>.

    layer2 is the inverse of the unitary that frees ``freed`` on the
    complement of the pivot; layer1 acts on every party but the freed one
    and prepares what that freeing unitary leaves there, read off the
    pivot's Schmidt data. For two parties the construction degenerates to a
    single joint unitary in layer1 with an identity layer2.
    """

    layer1: np.ndarray
    layer1_parties: PartySubset
    layer2: np.ndarray
    layer2_parties: PartySubset
    pivot: int
    freed: int
    degenerate: bool = False

    def __post_init__(self):
        for name, mat in (("layer1", self.layer1), ("layer2", self.layer2)):
            if not is_unitary(mat):
                raise ValueError(f"{name} is not unitary within tolerance")

    def prepare(self, dims: Sequence[int]) -> PureState:
        """Apply layer1 then layer2 to |0...0> of the given dims."""
        st = basis_state(dims, 0)
        st = apply_local_operator(st, self.layer1, self.layer1_parties)
        return apply_local_operator(st, self.layer2, self.layer2_parties)


def two_depth_decompose(
    state: PureState,
    tol: Tolerance = DEFAULT_TOLERANCE,
    pivot: int = 0,
    freed: int = 1,
) -> TwoDepthDecomposition:
    """Decompose any pure state into two biseparable unitary layers.

    Across the pivot the state is sum_i sqrt(lambda_i) u_i x v_i. The
    freeing unitary U of build_disentangling_unitary on the complement of
    the pivot sends the first count u_i to |0>_freed x e_i, so U maps the
    state to |0>_freed x |chi>, chi = sum_{i<count} sqrt(lambda_i) e_i x v_i,
    which is built straight from that Schmidt data and is exactly zero at
    every e_i with i >= count. layer1, the basis completion of chi (chi is
    its first column), prepares chi from the all-zero state, and
    layer2 = U^dag restores the state. U exists, and so does the
    decomposition, exactly when the pivot cut's rank fits the capacity
    dim(rest) of the parties other than pivot and freed; otherwise a
    DisentangleRankError is raised.
    """
    n = state.n
    dims = state.dims
    if pivot == freed or not (0 <= pivot < n and 0 <= freed < n):
        raise ValueError(f"invalid roles pivot={pivot}, freed={freed} for n={n}")
    if n < 3:
        # Single bipartite unitary: layer1 prepares the state jointly.
        return TwoDepthDecomposition(
            layer1=complete_basis(state.amps.reshape(-1, 1)),
            layer1_parties=PartySubset(tuple(range(n)), n),
            layer2=np.eye(dims[freed], dtype=np.complex128),
            layer2_parties=PartySubset((freed,), n),
            pivot=pivot,
            freed=freed,
            degenerate=True,
        )

    complement = PartySubset(tuple(p for p in range(n) if p != pivot), n)
    freeing, sd, count = _freeing(state, complement, freed, tol)
    # chi as a rest x pivot matrix, rest row-major over the parties other
    # than pivot and freed; then the pivot axis goes to its place.
    rest_dims = tuple(dims[p] for p in complement.members if p != freed)
    chi = np.zeros((math.prod(rest_dims), dims[pivot]), dtype=np.complex128)
    chi[:count] = np.sqrt(sd.coefficients[:count, None]) * sd.basis_rest[:, :count].T
    chi = np.moveaxis(chi.reshape(rest_dims + (dims[pivot],)), -1, pivot - (pivot > freed))
    return TwoDepthDecomposition(
        layer1=complete_basis(chi.reshape(-1, 1)),
        layer1_parties=PartySubset(tuple(p for p in range(n) if p != freed), n),
        layer2=freeing.conj().T,
        layer2_parties=complement,
        pivot=pivot,
        freed=freed,
    )


def _require_square_uniform(ops: Sequence[np.ndarray], what: str) -> None:
    """Refuse ``ops`` unless the first is a square matrix and all share its shape."""
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(op.shape != shape for op in ops):
        raise ValueError(f"{what} must be square and uniform")


@dataclass(frozen=True, eq=False)
class BiseparableChannel:
    """CPTP map whose Kraus terms factor as K_i x S_i across one cut."""

    cut: PartySubset
    kraus_pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        pairs = tuple(
            (np.asarray(k, dtype=np.complex128), np.asarray(s, dtype=np.complex128))
            for k, s in self.kraus_pairs
        )
        if not pairs:
            raise ValueError("channel needs at least one Kraus pair")
        _require_square_uniform([k for k, _s in pairs], "cut-side Kraus operators")
        _require_square_uniform([s for _k, s in pairs], "complement-side Kraus operators")
        object.__setattr__(self, "kraus_pairs", pairs)
        # sum (K x S)^H (K x S) = sum K^H K x S^H S: no D x D product.
        gram = sum(np.kron(k.conj().T @ k, s.conj().T @ s) for k, s in pairs)
        defect = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        if defect > CHANNEL_ATOL:
            raise ChannelCompletenessError(
                f"Kraus terms sum to identity only within {defect:.3e} > {CHANNEL_ATOL}"
            )

    def full_kraus(self, dims: Sequence[int]) -> list[np.ndarray]:
        order = list(self.cut.members) + list(self.cut.complement)
        return [
            expand_to_full(np.kron(k, s), order, dims) for k, s in self.kraus_pairs
        ]


@dataclass(frozen=True, eq=False)
class KConnectionChannel:
    """CPTP map that is joint only inside the cut: each Kraus term is
    K_i x (tensor of single-party factors over the complement, in ascending
    party order).

    It is the biseparable channel ``biseparable`` whose complement factor is
    the Kronecker product of the single-party factors. Every term must carry
    one square factor per complement party, of the first term's shapes.
    """

    cut: PartySubset
    kraus_terms: tuple[tuple[np.ndarray, tuple[np.ndarray, ...]], ...]
    biseparable: BiseparableChannel = field(init=False, repr=False)

    def __post_init__(self):
        terms = tuple(
            (np.asarray(k, dtype=np.complex128),
             tuple(np.asarray(s, dtype=np.complex128) for s in locals_))
            for k, locals_ in self.kraus_terms
        )
        if not terms:
            raise ValueError("channel needs at least one Kraus term")
        n_out = len(self.cut.complement)
        for _k, locals_ in terms:
            if len(locals_) != n_out:
                raise ValueError(f"expected {n_out} single-party factors, got {len(locals_)}")
        for factors in zip(*(locals_ for _k, locals_ in terms)):
            _require_square_uniform(factors, "single-party Kraus factors")
        object.__setattr__(self, "kraus_terms", terms)
        product = np.eye(1, dtype=np.complex128)
        pairs = tuple((k, reduce(np.kron, locals_, product)) for k, locals_ in terms)
        object.__setattr__(self, "biseparable", BiseparableChannel(self.cut, pairs))


def apply_biseparable_channel(rho: DensityMatrix, ch: BiseparableChannel) -> DensityMatrix:
    """sum_i (K_i x S_i) rho (K_i x S_i)^dag with the factors embedded at the
    channel's cut."""
    if ch.cut.n != rho.n:
        raise ValueError(f"channel cut declared for n={ch.cut.n}, state has n={rho.n}")
    cut_dim = math.prod(rho.dims[p] for p in ch.cut.members)
    rest_dim = math.prod(rho.dims[p] for p in ch.cut.complement)
    k0, s0 = ch.kraus_pairs[0]
    if k0.shape[0] != cut_dim or s0.shape[0] != rest_dim:
        raise ValueError(
            f"channel sides ({k0.shape[0]}, {s0.shape[0]}) do not match the state's "
            f"cut dims ({cut_dim}, {rest_dim})"
        )
    full_ops = ch.full_kraus(rho.dims)
    out = np.zeros_like(rho.matrix)
    for a in full_ops:
        out = out + a @ rho.matrix @ a.conj().T
    return DensityMatrix(rho.dims, out)


def apply_k_connection_channel(rho: DensityMatrix, ch: KConnectionChannel) -> DensityMatrix:
    """Like apply_biseparable_channel but the complement side acts strictly
    party by party."""
    if ch.cut.n != rho.n:
        raise ValueError(f"channel cut declared for n={ch.cut.n}, state has n={rho.n}")
    for s, p in zip(ch.kraus_terms[0][1], ch.cut.complement):
        if s.shape[0] != rho.dims[p]:
            raise ValueError(
                f"factor for party {p} has dimension {s.shape[0]}, expected {rho.dims[p]}"
            )
    return apply_biseparable_channel(rho, ch.biseparable)


def identity_biseparable_channel(dims: Sequence[int], cut: PartySubset) -> BiseparableChannel:
    cut_dim = math.prod(dims[p] for p in cut.members)
    rest_dim = math.prod(dims[p] for p in cut.complement)
    return BiseparableChannel(
        cut, ((np.eye(cut_dim, dtype=complex), np.eye(rest_dim, dtype=complex)),)
    )
