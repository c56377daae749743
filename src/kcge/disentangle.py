"""Constructive disentangling: cut-local unitaries that free a party, the
two-layer preparation circuit for arbitrary pure states, and application of
biseparable / k-connection channels to density matrices.

The freeing unitary exists exactly when the Schmidt rank across the cut
fits into the cut with one party factored out: rank <= dim(cut) / d_free.
It maps each cut-side Schmidt vector to |0>_free x e_i and is completed to
a full basis change by a Householder QR of each column set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    PartySubset,
    PureState,
    Tolerance,
    apply_local_operator,
    basis_change_unitary,
    basis_state,
    expand_to_full,
    is_unitary,
    schmidt,
)
from .errors import ChannelCompletenessError, DisentangleRankError

CHANNEL_ATOL = 1e-9


def _free_position(cut: PartySubset, free_party: int) -> int:
    if free_party not in cut.members:
        raise ValueError(f"free party {free_party} is not in the cut {cut.members}")
    return cut.members.index(free_party)


def _freed_targets(dims: tuple[int, ...], cut: PartySubset, free_party: int, count: int) -> np.ndarray:
    """Columns |0>_free x e_i laid out on the cut's local space."""
    cut_dims = tuple(dims[p] for p in cut.members)
    pos = _free_position(cut, free_party)
    rest_dims = cut_dims[:pos] + cut_dims[pos + 1 :]
    side = math.prod(cut_dims)
    targets = np.zeros((side, count), dtype=np.complex128)
    for i in range(count):
        rest_idx = np.unravel_index(i, rest_dims) if rest_dims else ()
        full_idx = rest_idx[:pos] + (0,) + rest_idx[pos:]
        targets[np.ravel_multi_index(full_idx, cut_dims), i] = 1.0
    return targets


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
    _free_position(act_on, free_party)
    dims = state.dims
    cut_dim = math.prod(dims[p] for p in act_on.members)
    capacity = cut_dim // dims[free_party]
    sd = schmidt(state, act_on, tol)
    if sd.rank > capacity:
        raise DisentangleRankError(sd.rank, capacity, act_on.members, free_party)
    count = min(sd.coefficients.size, capacity)
    source = sd.basis_cut[:, :count]
    targets = _freed_targets(dims, act_on, free_party, count)
    return basis_change_unitary(source, targets)


@dataclass(frozen=True, eq=False)
class TwoDepthDecomposition:
    """Two unitary layers that prepare a state from |0...0>.

    layer1 acts on the pivot party together with the rest (identity on the
    freed party) and creates the pivot-side Schmidt weights; layer2 acts on
    everything but the pivot and rotates the placeholder basis into the
    complement-side Schmidt vectors. For two parties the construction
    degenerates to a single joint unitary in layer1 with an identity layer2.
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

    Across the pivot | rest cut the state reads
    sum_i sqrt(lambda_i) |phi_i>|psi_i>. layer1 prepares
    sum_i sqrt(lambda_i) |phi_i>|e_i> x |0>_freed from the all-zero state
    without touching the freed party; layer2, acting only on the complement
    of the pivot, maps |0>_freed |e_i> back to |psi_i>. Their composition
    reproduces the state. As in build_disentangling_unitary, the pivot cut's
    rank must fit the capacity dim(rest) of the parties other than pivot and
    freed, or a DisentangleRankError is raised.
    """
    n = state.n
    dims = state.dims
    if pivot == freed or not (0 <= pivot < n and 0 <= freed < n):
        raise ValueError(f"invalid roles pivot={pivot}, freed={freed} for n={n}")
    if n < 3:
        # Single bipartite unitary: layer1 prepares the state jointly.
        all_parties = PartySubset(tuple(range(n)), n)
        source = np.zeros((state.total_dim, 1), dtype=np.complex128)
        source[0, 0] = 1.0
        layer1 = basis_change_unitary(source, state.amps.reshape(-1, 1))
        return TwoDepthDecomposition(
            layer1=layer1,
            layer1_parties=all_parties,
            layer2=np.eye(dims[freed], dtype=np.complex128),
            layer2_parties=PartySubset((freed,), n),
            pivot=pivot,
            freed=freed,
            degenerate=True,
        )

    sd = schmidt(state, PartySubset((pivot,), n), tol)
    rest = tuple(p for p in range(n) if p not in (pivot, freed))
    rest_dims = tuple(dims[p] for p in rest)
    rest_dim = math.prod(rest_dims)
    if sd.rank > rest_dim:
        raise DisentangleRankError(sd.rank, rest_dim, (pivot,) + rest, freed)
    count = min(sd.coefficients.size, rest_dim)
    weights = np.sqrt(sd.coefficients[:count])

    # layer1 on pivot + rest: |0...0> -> sum_i w_i |phi_i> x |e_i>.
    layer1_parties = PartySubset.of((pivot,) + rest, n)
    # e_i is the i-th row-major basis state of the rest parties.
    chi = np.zeros((dims[pivot], rest_dim), dtype=np.complex128)
    chi[:, :count] += sd.basis_cut[:, :count] * weights
    # Reorder axes from (pivot, rest...) to ascending party order.
    build_order = (pivot,) + rest
    perm = np.argsort(build_order)
    chi = chi.reshape((dims[pivot],) + rest_dims).transpose(perm).reshape(-1, 1)
    dim1 = math.prod(dims[p] for p in layer1_parties.members)
    source = np.zeros((dim1, 1), dtype=np.complex128)
    source[0, 0] = 1.0
    layer1 = basis_change_unitary(source, chi)

    # layer2 on the complement of the pivot: |0>_freed |e_i> -> |psi_i>.
    complement = PartySubset.of(tuple(p for p in range(n) if p != pivot), n)
    placeholders = _freed_targets(dims, complement, freed, count)
    layer2 = basis_change_unitary(placeholders, sd.basis_rest[:, :count])

    return TwoDepthDecomposition(
        layer1=layer1,
        layer1_parties=layer1_parties,
        layer2=layer2,
        layer2_parties=complement,
        pivot=pivot,
        freed=freed,
    )


def _completeness_defect(terms: Sequence[np.ndarray]) -> float:
    """Max-norm distance of sum_i A_i^dag A_i from the identity, where each
    entry of ``terms`` is already the full Kraus factor product."""
    acc = None
    for a in terms:
        g = a.conj().T @ a
        acc = g if acc is None else acc + g
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


@dataclass(frozen=True, eq=False)
class BiseparableChannel:
    """CPTP map whose Kraus terms factor as K_i x S_i across one cut."""

    cut: PartySubset
    kraus_pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    atol: float = CHANNEL_ATOL

    def __post_init__(self):
        pairs = tuple(
            (np.asarray(k, dtype=np.complex128), np.asarray(s, dtype=np.complex128))
            for k, s in self.kraus_pairs
        )
        if not pairs:
            raise ValueError("channel needs at least one Kraus pair")
        k_shape = pairs[0][0].shape
        s_shape = pairs[0][1].shape
        for k, s in pairs:
            if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape != k_shape:
                raise ValueError("cut-side Kraus operators must be square and uniform")
            if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape != s_shape:
                raise ValueError("complement-side Kraus operators must be square and uniform")
        object.__setattr__(self, "kraus_pairs", pairs)
        defect = _completeness_defect([np.kron(k, s) for k, s in pairs])
        if defect > self.atol:
            raise ChannelCompletenessError(
                f"Kraus terms sum to identity only within {defect:.3e} > {self.atol}"
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
    party order)."""

    cut: PartySubset
    kraus_terms: tuple[tuple[np.ndarray, tuple[np.ndarray, ...]], ...]
    atol: float = CHANNEL_ATOL

    def __post_init__(self):
        terms = []
        n_out = len(self.cut.complement)
        for k, locals_ in self.kraus_terms:
            k = np.asarray(k, dtype=np.complex128)
            locals_ = tuple(np.asarray(s, dtype=np.complex128) for s in locals_)
            if len(locals_) != n_out:
                raise ValueError(
                    f"expected {n_out} single-party factors, got {len(locals_)}"
                )
            terms.append((k, locals_))
        if not terms:
            raise ValueError("channel needs at least one Kraus term")
        object.__setattr__(self, "kraus_terms", tuple(terms))
        defect = _completeness_defect([self._joined(k, ls) for k, ls in terms])
        if defect > self.atol:
            raise ChannelCompletenessError(
                f"Kraus terms sum to identity only within {defect:.3e} > {self.atol}"
            )

    @staticmethod
    def _joined(k: np.ndarray, locals_: tuple[np.ndarray, ...]) -> np.ndarray:
        out = k
        for s in locals_:
            out = np.kron(out, s)
        return out

    def full_kraus(self, dims: Sequence[int]) -> list[np.ndarray]:
        order = list(self.cut.members) + list(self.cut.complement)
        return [
            expand_to_full(self._joined(k, ls), order, dims)
            for k, ls in self.kraus_terms
        ]


def _apply_kraus(rho: DensityMatrix, full_ops: list[np.ndarray]) -> DensityMatrix:
    out = np.zeros_like(rho.matrix)
    for a in full_ops:
        out = out + a @ rho.matrix @ a.conj().T
    return DensityMatrix(rho.dims, out)


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
    return _apply_kraus(rho, ch.full_kraus(rho.dims))


def apply_k_connection_channel(rho: DensityMatrix, ch: KConnectionChannel) -> DensityMatrix:
    """Like apply_biseparable_channel but the complement side acts strictly
    party by party."""
    if ch.cut.n != rho.n:
        raise ValueError(f"channel cut declared for n={ch.cut.n}, state has n={rho.n}")
    cut_dim = math.prod(rho.dims[p] for p in ch.cut.members)
    k0, locals0 = ch.kraus_terms[0]
    if k0.shape[0] != cut_dim:
        raise ValueError(
            f"cut-side Kraus dimension {k0.shape[0]} does not match cut dim {cut_dim}"
        )
    for s, p in zip(locals0, ch.cut.complement):
        if s.shape[0] != rho.dims[p]:
            raise ValueError(
                f"factor for party {p} has dimension {s.shape[0]}, expected {rho.dims[p]}"
            )
    return _apply_kraus(rho, ch.full_kraus(rho.dims))


def identity_biseparable_channel(dims: Sequence[int], cut: PartySubset) -> BiseparableChannel:
    cut_dim = math.prod(dims[p] for p in cut.members)
    rest_dim = math.prod(dims[p] for p in cut.complement)
    return BiseparableChannel(
        cut, ((np.eye(cut_dim, dtype=complex), np.eye(rest_dim, dtype=complex)),)
    )
