"""Dense multipartite pure states and density matrices.

Conventions used by every other module:

* amplitudes are stored row-major over the party ordering, party 0 is the
  most significant index;
* a bipartite reshape moves the parties of the cut to the front, cut
  members first in ascending order, complement after in ascending order;
* Schmidt coefficients are the squared singular values, so they sum to 1
  and the amplitude weights are their square roots.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError

NORM_ATOL = 1e-6
HERMITICITY_ATOL = 1e-9
TRACE_ATOL = 1e-9
PSD_EIGENVALUE_FLOOR = -1e-9
UNITARY_ATOL = 1e-9
# Gram-Schmidt candidates whose residual falls below this are treated as
# linearly dependent and skipped.
GRAM_SCHMIDT_RESIDUAL = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds for rank decisions and reconstruction checks.

    rank_cutoff is relative: a singular value sigma counts toward the rank
    when sigma / sigma_max > rank_cutoff.
    """

    rank_cutoff: float = 1e-9
    reconstruction_atol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_cutoff", "reconstruction_atol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class PartySubset:
    """An ordered subset of party indices with its total party count."""

    members: tuple[int, ...]
    n: int

    def __post_init__(self):
        members = tuple(int(p) for p in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("party subset must be nonempty")
        if any(p < 0 or p >= self.n for p in members):
            raise ValueError(f"party indices {members} out of range for n={self.n}")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError(f"party indices must be strictly increasing, got {members}")

    @classmethod
    def of(cls, members: Sequence[int], n: int) -> "PartySubset":
        """Build a subset from any iterable of indices, sorting and deduplicating."""
        return cls(tuple(sorted(set(int(p) for p in members))), n)

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(p for p in range(self.n) if p not in inside)

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.n

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _require_finite(amps: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(amps))
    if bad.size:
        named = ", ".join(f"amps[{i}]={amps[i]}" for i in bad[:8])
        raise ValueError(f"{what}: non-finite amplitudes {named}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over an n-party tensor-product space.

    ``dims`` lists the local dimension of each party (each at least 2) and
    ``amps`` has length prod(dims). Instances are immutable; operations
    return new states.
    """

    dims: tuple[int, ...]
    amps: np.ndarray
    check_norm: InitVar[bool] = True

    def __post_init__(self, check_norm: bool):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("a state needs at least one party")
        if any(d < 2 for d in dims):
            raise ValueError(f"local dimensions must be at least 2, got {dims}")
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        expected = math.prod(dims)
        if amps.size != expected:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected prod(dims)={expected}"
            )
        _require_finite(amps, "state")
        if check_norm:
            nrm = float(np.linalg.norm(amps))
            if abs(nrm - 1.0) > NORM_ATOL:
                raise ValueError(f"state is not normalized: |amps| = {nrm!r}")
        object.__setattr__(self, "amps", _freeze(amps.copy()))

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return self.amps.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def as_tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amps, other.amps))

    def allclose(self, other: "PureState", atol: float = 1e-9) -> bool:
        return self.dims == other.dims and bool(
            np.allclose(self.amps, other.amps, atol=atol)
        )

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one operator on a tensor space."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        mat = np.asarray(self.matrix, dtype=np.complex128)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not np.allclose(mat, mat.conj().T, atol=HERMITICITY_ATOL):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1 within tolerance")
        eigmin = float(np.linalg.eigvalsh(mat)[0])
        if eigmin < PSD_EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {eigmin!r}")
        object.__setattr__(self, "matrix", _freeze(mat.copy()))

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def allclose(self, other: "DensityMatrix", atol: float = 1e-9) -> bool:
        return self.dims == other.dims and bool(
            np.allclose(self.matrix, other.matrix, atol=atol)
        )


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data of a pure state across one bipartition.

    ``coefficients`` holds the squared singular values in nonincreasing
    order (they sum to 1). ``basis_cut`` and ``basis_rest`` store the paired
    orthonormal vectors as matrix columns; column i of each side belongs to
    coefficient i. ``rank`` counts the singular values above the relative
    cutoff that produced this decomposition.
    """

    coefficients: np.ndarray
    basis_cut: np.ndarray
    basis_rest: np.ndarray
    rank: int
    cut: PartySubset
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _freeze(np.asarray(self.coefficients, float)))
        object.__setattr__(self, "basis_cut", _freeze(np.asarray(self.basis_cut, complex)))
        object.__setattr__(self, "basis_rest", _freeze(np.asarray(self.basis_rest, complex)))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def reconstruct(self) -> PureState:
        """Rebuild the state as sum_i sqrt(lambda_i) |u_i> x |v_i>, undoing
        the cut permutation so parties come back in their original order."""
        weights = np.sqrt(self.coefficients)
        mat = (self.basis_cut * weights) @ self.basis_rest.T
        perm = list(self.cut.members) + list(self.cut.complement)
        perm_dims = [self.dims[p] for p in perm]
        inverse = np.argsort(perm)
        amps = mat.reshape(perm_dims).transpose(inverse).reshape(-1)
        return PureState(self.dims, amps)


def _require_proper(cut: PartySubset, n: int, what: str) -> None:
    if cut.n != n:
        raise ValueError(f"{what}: subset declared for n={cut.n}, state has n={n}")
    if not cut.is_proper:
        raise ValueError(f"{what}: subset must be proper (complement nonempty)")


def bipartite_matrix(state: PureState, cut: PartySubset) -> np.ndarray:
    """Reshape the amplitudes into a dim(cut) x dim(complement) matrix with
    the cut parties leading (both blocks in ascending party order)."""
    _require_proper(cut, state.n, "bipartite reshape")
    perm = list(cut.members) + list(cut.complement)
    left = math.prod(state.dims[p] for p in cut.members)
    return state.as_tensor().transpose(perm).reshape(left, -1)


def partial_trace(state: "PureState | DensityMatrix", keep: PartySubset) -> DensityMatrix:
    """Trace out every party not in ``keep``.

    The result is indexed by the kept parties in ascending party order.
    Accepts either a pure state or a density matrix.
    """
    _require_proper(keep, state.n, "partial trace")
    kept_dims = tuple(state.dims[p] for p in keep.members)
    if isinstance(state, PureState):
        mat = bipartite_matrix(state, keep)
        return DensityMatrix(kept_dims, mat @ mat.conj().T)
    n = state.n
    nd = state.matrix.reshape(state.dims + state.dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * n > len(letters):
        raise ValueError("too many parties for einsum-based partial trace")
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for p in keep.complement:
        col[p] = row[p]
    out = "".join(row[p] for p in keep.members) + "".join(col[p] for p in keep.members)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, nd)
    side = math.prod(kept_dims)
    return DensityMatrix(kept_dims, reduced.reshape(side, side))


def schmidt(
    state: PureState, cut: PartySubset, tol: Tolerance = DEFAULT_TOLERANCE
) -> SchmidtDecomposition:
    """Schmidt decomposition of ``state`` across ``cut`` | complement."""
    mat = bipartite_matrix(state, cut)
    u, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    positive = sigma > 0.0
    sigma = sigma[positive]
    rank = int(np.count_nonzero(sigma / sigma[0] > tol.rank_cutoff))
    return SchmidtDecomposition(
        coefficients=sigma**2,
        basis_cut=u[:, positive],
        basis_rest=vh[positive, :].T,
        rank=rank,
        cut=cut,
        dims=state.dims,
    )


def schmidt_rank(
    state: PureState, cut: PartySubset, tol: Tolerance = DEFAULT_TOLERANCE
) -> int:
    """Number of Schmidt coefficients above the relative cutoff."""
    mat = bipartite_matrix(state, cut)
    sigma = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(sigma / sigma[0] > tol.rank_cutoff))


def is_unitary(op: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    gram = op.conj().T @ op
    return bool(np.max(np.abs(gram - np.eye(op.shape[0]))) < atol)


def _apply_on_axes(state: PureState, op: np.ndarray, parties: Sequence[int]) -> np.ndarray:
    dims = state.dims
    axes = list(parties)
    local_dims = tuple(dims[p] for p in axes)
    side = math.prod(local_dims)
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (side, side):
        raise ValueError(
            f"operator shape {op.shape} does not match subset dims {local_dims}"
        )
    k = len(axes)
    op_nd = op.reshape(local_dims + local_dims)
    out = np.tensordot(op_nd, state.as_tensor(), axes=(tuple(range(k, 2 * k)), axes))
    # tensordot puts the operator output axes first; move them home.
    out = np.moveaxis(out, tuple(range(k)), axes)
    return out.reshape(-1)


def apply_local_operator(
    state: PureState,
    op: np.ndarray,
    on: PartySubset,
    allow_nonunitary: bool = False,
) -> PureState:
    """Apply ``op`` on the tensor factors in ``on`` and the identity elsewhere.

    Unitary operators (within tolerance) yield a renormalized state. General
    operators, e.g. single Kraus terms, are rejected unless
    ``allow_nonunitary`` is set, in which case the result keeps whatever norm
    the operator produced.
    """
    if on.n != state.n:
        raise ValueError(f"subset declared for n={on.n}, state has n={state.n}")
    vec = _apply_on_axes(state, op, on.members)
    if is_unitary(op):
        return PureState(state.dims, vec / np.linalg.norm(vec))
    if not allow_nonunitary:
        raise ValueError(
            "operator is not unitary within tolerance; pass allow_nonunitary=True "
            "to apply general (e.g. Kraus) operators"
        )
    return PureState(state.dims, vec, check_norm=False)


def expand_to_full(op: np.ndarray, parties: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on ``parties`` (in the given order) into the
    full space, identity on every other party."""
    dims = tuple(int(d) for d in dims)
    parties = [int(p) for p in parties]
    if len(set(parties)) != len(parties):
        raise ValueError(f"repeated party in {parties}")
    others = [p for p in range(len(dims)) if p not in set(parties)]
    op = np.asarray(op, dtype=np.complex128)
    side = math.prod(dims[p] for p in parties)
    if op.shape != (side, side):
        raise ValueError(f"operator shape {op.shape} does not match parties {parties}")
    rest = math.prod([dims[p] for p in others]) if others else 1
    full = np.kron(op, np.eye(rest, dtype=np.complex128))
    order = parties + others
    block_dims = tuple(dims[p] for p in order)
    inverse = np.argsort(order)
    n = len(dims)
    nd = full.reshape(block_dims + block_dims)
    nd = nd.transpose(tuple(inverse) + tuple(inverse + n))
    total = math.prod(dims)
    return nd.reshape(total, total)


def swap_matrix(d: int) -> np.ndarray:
    """Two-qudit swap: |ij> -> |ji>."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def basis_state(dims: Sequence[int], index: int = 0) -> PureState:
    dims = tuple(int(d) for d in dims)
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[index] = 1.0
    return PureState(dims, amps)


def complete_basis(vectors: np.ndarray, residual: float = GRAM_SCHMIDT_RESIDUAL) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis.

    Candidates are the canonical basis vectors taken in index order; any
    candidate whose residual after projection falls below ``residual`` is
    skipped as linearly dependent. A second orthogonalization pass keeps the
    result orthonormal to machine precision.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    dim, r = vectors.shape
    cols = [vectors[:, i] for i in range(r)]
    for i in range(dim):
        if len(cols) == dim:
            break
        cand = np.zeros(dim, dtype=np.complex128)
        cand[i] = 1.0
        basis = np.column_stack(cols) if cols else np.zeros((dim, 0))
        w = cand - basis @ (basis.conj().T @ cand)
        w = w - basis @ (basis.conj().T @ w)
        nrm = np.linalg.norm(w)
        if nrm < residual:
            continue
        cols.append(w / nrm)
    if len(cols) != dim:
        raise RuntimeError("basis completion failed to reach full dimension")
    return np.column_stack(cols)


def basis_change_unitary(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Unitary U with U @ source[:, i] = target[:, i] for each column i.

    Both column sets must be orthonormal; each is completed to a full basis
    with :func:`complete_basis` and U is the resulting basis change.
    """
    source = np.asarray(source, dtype=np.complex128)
    target = np.asarray(target, dtype=np.complex128)
    if source.shape != target.shape:
        raise ValueError("source and target must pair the same number of vectors")
    s_full = complete_basis(source)
    t_full = complete_basis(target)
    return t_full @ s_full.conj().T


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Gaussian with the
    standard phase correction)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_state(dims: Sequence[int], rng: np.random.Generator) -> PureState:
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    z = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(dims, z / np.linalg.norm(z))


def guard_total_dim(dims: Sequence[int], budget: int, what: str) -> None:
    total = math.prod(int(d) for d in dims)
    if total > budget:
        raise BudgetExceededError(
            f"{what}: total dimension {total} exceeds budget {budget}"
        )


# --- state JSON format -----------------------------------------------------
#
# {"dims": [d1, ..., dn], "amps": [[re, im], ...]} with len(amps) == prod(dims).
# The reader rejects NaN and Inf amplitudes, renormalizes when the norm is
# within 1e-6 of 1 and rejects anything farther away.


def state_to_dict(state: PureState) -> dict:
    return {
        "dims": list(state.dims),
        "amps": [[float(a.real), float(a.imag)] for a in state.amps],
    }


def state_from_dict(obj: dict) -> PureState:
    if not isinstance(obj, dict) or "dims" not in obj or "amps" not in obj:
        raise ValueError("state JSON must be an object with 'dims' and 'amps'")
    dims = [int(d) for d in obj["dims"]]
    pairs = obj["amps"]
    amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    if amps.size != math.prod(dims):
        raise ValueError(
            f"state JSON: {amps.size} amplitudes, expected {math.prod(dims)}"
        )
    _require_finite(amps, "state JSON")
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError(f"state JSON: norm {nrm!r} deviates from 1 by more than 1e-6")
    return PureState(tuple(dims), amps / nrm)
