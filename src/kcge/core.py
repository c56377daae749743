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
import operator
from dataclasses import InitVar, dataclass, fields, is_dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError

NORM_ATOL = 1e-6
HERMITICITY_ATOL = 1e-9
TRACE_ATOL = 1e-9
PSD_EIGENVALUE_FLOOR = -1e-9
UNITARY_ATOL = 1e-9
# schmidt_rank certifies rank >= c, for c = min(cap, short side), without an
# SVD when the smallest singular value of a c x c or c x long submatrix of the
# cut's matrix exceeds this share of its Frobenius norm (or twice the rank
# cutoff, if larger): far above round-off, and far below a typical Haar cut
# up to 2^16 dims (about 2e-4 for a 256 x 256 cut).
FULL_RANK_MARGIN = 1e-5
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerance:
    """Numerical threshold for rank decisions.

    rank_cutoff is relative: a singular value sigma counts toward the rank
    when sigma / sigma_max > rank_cutoff.
    """

    rank_cutoff: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rank_cutoff < 1.0):
            raise ValueError(
                f"rank_cutoff must lie strictly between 0 and 1, got {self.rank_cutoff}"
            )


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class PartySubset:
    """An ordered subset of party indices with its total party count."""

    members: tuple[int, ...]
    n: int

    def __post_init__(self):
        members = tuple(map(operator.index, self.members))
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("party subset must be nonempty")
        # One pass over the pairs; strictly increasing members are in range
        # when their ends are, and only a disordered subset needs a second.
        ordered = all(map(operator.lt, members, members[1:]))
        if ordered:
            in_range = members[0] >= 0 and members[-1] < self.n
        else:
            in_range = all(0 <= p < self.n for p in members)
        if not in_range:
            raise ValueError(f"party indices {members} out of range for n={self.n}")
        if not ordered:
            raise ValueError(f"party indices must be strictly increasing, got {members}")

    @classmethod
    def of(cls, members: Sequence[int], n: int) -> "PartySubset":
        """Build a subset from any iterable of indices, sorting and deduplicating."""
        return cls(tuple(sorted(set(map(operator.index, members)))), n)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(p for p in range(self.n) if p not in inside)

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.n


def plain(value):
    """The JSON form of a report: a dataclass becomes a dict of its fields in
    declaration order and a tuple a list, recursively; any other value
    passes through. Report classes use it as their ``to_dict``."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value


def _as_int(value, name: str) -> int:
    """``value`` as an int. Integers and integral floats pass; anything
    else (a fraction, Inf, NaN, a string) raises ValueError naming ``name``."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _checked_dims(dims: Iterable, name: str = "dims entry") -> tuple[int, ...]:
    """The dims rule: ``dims`` as a tuple of ints. An empty tuple, and any
    entry that is not an integer (``_as_int`` under ``name``) or is below 2,
    raise ValueError."""
    dims = tuple(_as_int(d, name) for d in dims)
    if not dims:
        raise ValueError("a state needs at least one party")
    if min(dims) < 2:
        raise ValueError(f"local dimensions must be at least 2, got {dims}")
    return dims


def _require_finite(
    arr: np.ndarray, what: str, entries: str = "amplitudes", name: str = "amps"
) -> None:
    bad = np.argwhere(~np.isfinite(arr))[:8]
    if bad.size:
        named = ", ".join(f"{name}[{', '.join(map(str, i))}]={arr[tuple(i)]}" for i in bad)
        raise ValueError(f"{what}: non-finite {entries} {named}")


def _running_product(dims: Iterable[int], limit: int) -> tuple[int, int]:
    """(count, product) of the leading dims up to the first that takes the
    running product past ``limit``, or of all dims when none does."""
    count, total = 0, 1
    for count, d in enumerate(dims, start=1):
        total *= d
        if total > limit:
            break
    return count, total


def _require_size(dims: tuple[int, ...], size: int, what: str) -> None:
    """Refuse ``size`` amplitudes unless it equals prod(dims)."""
    count, total = _running_product(dims, size)
    if total != size:
        why = (f"but the first {count} dims already give {total}" if total > size
               else f"expected prod(dims)={total}")
        raise ValueError(f"{what}: {size} amplitudes, {why}")


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

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        _require_size(dims, amps.size, "state")
        _require_finite(amps, "state")
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

    # Facts of the (immutable) amplitudes that every cut and every level
    # reads, computed once per state.

    @cached_property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.amps))

    @cached_property
    def norm_squared(self) -> float:
        """|psi|^2 as one sum over every amplitude: the squared Frobenius
        norm of every bipartite matrix, compacted or not."""
        return float(np.vdot(self.amps, self.amps).real)

    @cached_property
    def rank_certificates(self) -> dict[tuple[tuple[int, ...], float], tuple[int, int]]:
        """``schmidt_rank``'s record of its Cholesky certificates: (side of
        the cut that holds party 0, rho) -> (c, short), where rank >= c was
        certified at that rho and short is the short side of the block
        factored (compacted on states with a zero amplitude). Either side of
        the cut reads it; see ``schmidt_rank``."""
        return {}

    @cached_property
    def permutation_symmetric(self) -> bool:
        """True when n >= 2, all dims are equal and the amplitude tensor
        equals, byte for byte, its transposes under the swap (0 1) and the
        cycle (0 1 ... n-1). Those generate S_n, so the tensor is then fixed
        by every party permutation. Raw 64-bit words are compared, so -0.0
        differs from +0.0."""
        n = self.n
        if n < 2 or len(set(self.dims)) != 1:
            return False
        tensor = self.as_tensor()
        words = tensor.view(np.uint64)
        swap = (1, 0, *range(2, n))
        cycle = (*range(1, n), 0)
        return all(
            np.array_equal(np.ascontiguousarray(tensor.transpose(perm)).view(np.uint64), words)
            for perm in (swap, cycle)
        )

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
        # A rank-1 outer product of a vector is positive semidefinite.
        return DensityMatrix(self.dims, np.outer(self.amps, self.amps.conj()), check_psd=False)


# Side of the square tiles that _max_asymmetry compares with their mirror
# images; 1024 x 1024 took 6 ms with 128, against 32 ms for the whole
# M - M^H (2 cores, numpy 2.4).
_HERMITICITY_TILE = 128


def _max_asymmetry(mat: np.ndarray) -> float:
    """max |M - M^H| over all entries of the square ``mat``, one tile on or
    above the diagonal against its mirror at a time. |M_ij - conj(M_ji)|
    and |M_ji - conj(M_ij)| are the same float, so this is the maximum of
    the whole difference, without its three side x side temporaries."""
    side, tile = mat.shape[0], _HERMITICITY_TILE
    worst = 0.0
    for i in range(0, side, tile):
        for j in range(i, side, tile):
            upper, lower = mat[i : i + tile, j : j + tile], mat[j : j + tile, i : i + tile]
            worst = max(worst, float(np.max(np.abs(upper - lower.conj().T))))
    return worst


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one operator on a tensor space.

    Every construction checks the shape, finite entries, Hermiticity (no
    entry of M - M^H above HERMITICITY_ATOL in absolute value) and the
    trace. The eigenvalue check for positive semidefiniteness is a full
    ``eigvalsh``; ``check_psd=False`` skips it, and is passed only where the
    matrix is built from a pure state and is positive semidefinite by
    construction (``PureState.density``, the pure-state ``partial_trace``
    and ``werner_state`` with 0 <= v <= 1).
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    check_psd: InitVar[bool] = True

    def __post_init__(self, check_psd: bool):
        dims = _checked_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        mat = np.asarray(self.matrix, dtype=np.complex128)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        _require_finite(mat, "density matrix", "entries", "matrix")
        if _max_asymmetry(mat) > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1 within tolerance")
        if check_psd:
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
        object.__setattr__(self, "dims", _checked_dims(self.dims))

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
    Accepts either a pure state or a density matrix. For a pure state the
    result is M M^H with M the bipartite matrix, positive semidefinite by
    construction, so only a mixed input pays the eigenvalue check.
    """
    _require_proper(keep, state.n, "partial trace")
    kept_dims = tuple(state.dims[p] for p in keep.members)
    if isinstance(state, PureState):
        mat = bipartite_matrix(state, keep)
        return DensityMatrix(kept_dims, mat @ mat.conj().T, check_psd=False)
    # Cut-first layout on rows and columns, as in bipartite_matrix.
    perm = list(keep.members) + list(keep.complement)
    side = math.prod(kept_dims)
    rest = state.total_dim // side
    nd = state.matrix.reshape(state.dims + state.dims)
    nd = nd.transpose(perm + [state.n + p for p in perm]).reshape(side, rest, side, rest)
    return DensityMatrix(kept_dims, np.einsum("ijkj->ik", nd))


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


def _certifies(lead: np.ndarray, shift: float) -> bool:
    """Whether the Cholesky factorization of lead lead^H - shift I completes."""
    gram = lead @ lead.conj().T
    gram.reshape(-1)[:: gram.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def schmidt_rank(
    state: PureState,
    cut: PartySubset,
    tol: Tolerance = DEFAULT_TOLERANCE,
    cap: int | None = None,
) -> int:
    """Number of Schmidt coefficients above the relative cutoff, or
    min(that number, ``cap``) when a ``cap`` is given; a ``cap`` below 1
    raises ValueError.

    Let M be the cut's matrix, built once by ``bipartite_matrix`` and
    oriented to its short side, m x n with m <= n (a transposed view, the
    complement's parties indexing the rows, when they span the shorter
    side). For a state with a zero amplitude, M first drops its all-zero
    rows and columns: they carry no singular value, so the nonzero spectrum
    and sigma_max stay exact while sparse states (GHZ, Dicke, network
    states) get a much smaller kernel. A state without one has no zero row
    or column, and M is the whole matrix.

    With c = min(cap, m) (c = m without a cap), rank >= c is certified
    without an SVD. Let B be the first c rows of M and A the first c columns
    of B, rho = max(FULL_RANK_MARGIN, 2 cutoff) for the relative cutoff,
    N the number of amplitudes, F = |psi|^2 summed once per state over all
    of them (``PureState.norm_squared``) and s = (rho^2 + 2(N+n+c) eps) F.
    If the Cholesky factorization of X X^H - s I completes for X = A, or
    else (when n > c) for X = B, the result is c, the value min(rank, cap)
    that the SVD count would give:

    * Compaction drops only zeros, so |M|_F^2 = |psi|^2. F sums N
      nonnegative terms, so in any summation order it is within (N+2) u
      |M|_F^2 of the exact value, with unit round-off u = eps / 2 (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., section
      3.1). With the rounding of s and of X X^H - s I, the computed shift
      falls short of (rho^2 + 2(N+n+c) eps) |M|_F^2 by at most (N+6) u
      (rho^2 + 2(N+n+c) eps) |M|_F^2. A positive first pivot X_1 X_1^H - s
      bounds rho^2 + 2(N+n+c) eps below 2 (for N u < 1/4), so that
      shortfall is below (N+6) eps |M|_F^2.
    * X is c x w with w <= n and |X|_F <= |M|_F. The computed X X^H is
      the Gram matrix up to w u |X| |X^H| entrywise, and a Cholesky
      factorization R^H R that completes is exact for a matrix within
      (c+1) u |R^H| |R| of its input (Higham, sections 3.5 and 10.1). In
      the 2-norm |X| |X^H| is at most |X|_F^2 and |R^H| |R| at most
      |R|_F^2 = tr(X X^H - s I) < |X|_F^2, so both errors together stay
      below (n+c+1) u |M|_F^2. With the shortfall that is below
      2(N+n+c) eps |M|_F^2, as N >= 4, so the exact X X^H - rho^2 |M|_F^2 I
      is positive definite: sigma_min(X) > rho |M|_F.
    * Deleting rows or columns does not raise singular values:
      sigma_i(X) <= sigma_i(M) for i <= c (Horn & Johnson, Topics in Matrix
      Analysis, Cor. 3.1.3). So sigma_c(M) > rho |M|_F >= rho sigma_max
      >= 2 cutoff sigma_max.
    * The SVD's computed singular values lie within O((m+n) eps) sigma_max
      of the exact ones, far below rho sigma_max / 2 >= sigma_max
      FULL_RANK_MARGIN / 2, so the computed ratios sigma_i / sigma_1,
      i <= c, still exceed rho / 2 >= cutoff, and the SVD counts at least
      c values.

    A goes first because its Gram matrix costs c / n of B's. B stays
    because rho = 2 cutoff outgrows a square block's sigma_min at large
    cutoffs long before it outgrows B's; when c = m, B is all of M. If both
    factorizations fail, the SVD of the cut's matrix (compacted, not
    transposed) decides, and the result min(rank, cap) is the exact rank
    whenever the rank is below ``cap``.

    Each certificate that completes is stored as (c, m) in
    ``state.rank_certificates``, keyed by the side of the cut that holds
    party 0 and by rho. Before building the matrix, a call on either side
    of that cut takes want = min(cap, m) (m without a cap) and returns want
    when the stored c >= want. The matrix of the other side is M^T, with the
    same singular values and, compacted, the same short side m, so the
    stored certificate proves sigma_want(M^T) >= sigma_c(M^T) > rho |M|_F
    just as it does for M. That is the premise of the last bullet for this
    call's cutoff too, whose rho is the same number, so this call's own
    path (its certificate, or else its SVD count) would return want as
    well. A rank decided by the SVD is never stored: M and M^T can round
    differently near the cutoff."""
    if cap is not None and cap < 1:
        raise ValueError(f"cap={cap} must be at least 1")
    _require_proper(cut, state.n, "schmidt rank")
    rho = max(FULL_RANK_MARGIN, 2.0 * tol.rank_cutoff)
    key = (cut.members if cut.members[0] == 0 else cut.complement, rho)
    known = state.rank_certificates.get(key)
    if known is not None:
        certified, short = known
        want = short if cap is None else min(cap, short)
        if certified >= want:
            return want
    mat = bipartite_matrix(state, cut)
    if state.nonzero_count < state.total_dim:
        rows, cols = mat.any(axis=1), mat.any(axis=0)
        if not (rows.all() and cols.all()):
            mat = mat[np.ix_(rows, cols)]
    block = mat if mat.shape[0] <= mat.shape[1] else mat.T
    short, long_ = block.shape
    c = short if cap is None else min(cap, short)
    lead = block[:c]
    shift = (rho**2 + 2 * (state.total_dim + long_ + c) * _EPS) * state.norm_squared
    if _certifies(lead[:, :c], shift) or (long_ > c and _certifies(lead, shift)):
        state.rank_certificates[key] = (c, short)
        return c
    sigma = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.count_nonzero(sigma / sigma[0] > tol.rank_cutoff))
    return rank if cap is None else min(rank, cap)


def _orthonormal_columns(op: np.ndarray, atol: float) -> bool:
    gram = op.conj().T @ op
    return bool(np.max(np.abs(gram - np.eye(op.shape[1])), initial=0.0) < atol)


def is_unitary(op: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    return _orthonormal_columns(op, atol)


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


def apply_local_operator(state: PureState, op: np.ndarray, on: PartySubset) -> PureState:
    """Apply the unitary ``op`` on the tensor factors in ``on`` and the
    identity elsewhere, renormalizing the result. An operator that is not
    unitary within tolerance (a single Kraus term, say) raises ValueError."""
    if on.n != state.n:
        raise ValueError(f"subset declared for n={on.n}, state has n={state.n}")
    vec = _apply_on_axes(state, op, on.members)
    if not is_unitary(op):
        raise ValueError("operator is not unitary within tolerance")
    return PureState(state.dims, vec / np.linalg.norm(vec))


def expand_to_full(op: np.ndarray, parties: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on ``parties`` (in the given order) into the
    full space, identity on every other party."""
    dims = _checked_dims(dims)
    parties = list(map(operator.index, parties))
    if not all(0 <= p < len(dims) for p in parties):
        raise ValueError(f"party indices {parties} out of range for n={len(dims)}")
    if len(set(parties)) != len(parties):
        raise ValueError(f"repeated party in {parties}")
    others = [p for p in range(len(dims)) if p not in set(parties)]
    op = np.asarray(op, dtype=np.complex128)
    side = math.prod(dims[p] for p in parties)
    if op.shape != (side, side):
        raise ValueError(f"operator shape {op.shape} does not match parties {parties}")
    full = np.kron(op, np.eye(math.prod(dims[p] for p in others), dtype=np.complex128))
    block_dims = tuple(dims[p] for p in parties + others)
    inverse = tuple(np.argsort(parties + others))
    nd = full.reshape(block_dims * 2).transpose(inverse + tuple(np.add(inverse, len(dims))))
    return nd.reshape(full.shape)


def basis_state(dims: Sequence[int], index: int = 0) -> PureState:
    dims = _checked_dims(dims)
    index, total = operator.index(index), math.prod(dims)
    if not 0 <= index < total:
        raise ValueError(f"basis index {index} out of range for total dimension {total}")
    amps = np.zeros(total, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(dims, amps)


def complete_basis(vectors: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis.

    One Householder QR, V = Q R with Q square: for orthonormal V, R is
    diagonal with unit-modulus entries, so the trailing columns of Q are an
    orthonormal basis of the complement of span(V) (Golub & Van Loan,
    Matrix Computations, section 5.2). The result is V followed by those
    columns. Columns that are not orthonormal within UNITARY_ATOL raise
    ValueError.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    if vectors.ndim != 2 or not _orthonormal_columns(vectors, UNITARY_ATOL):
        raise ValueError("basis completion needs orthonormal columns within tolerance")
    q = np.linalg.qr(vectors, mode="complete")[0]
    q[:, : vectors.shape[1]] = vectors
    return q


def basis_change_unitary(source: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Unitary U with U @ source[:, i] = e_{rows[i]} for each orthonormal
    source column i; ``rows`` must be distinct indices in [0, D).

    The complement of distinct standard basis vectors is the other standard
    basis vectors, so U is the adjoint of ``complete_basis(source)`` with
    row i moved to ``rows[i]`` and the completion's rows to the other
    indices in ascending order. U^H sends e_{rows[i]} to source[:, i] bit
    for bit.
    """
    full = complete_basis(source)
    rows = np.asarray(rows, dtype=np.intp)
    others = np.setdiff1d(np.arange(full.shape[0]), rows)
    if rows.shape != (np.shape(source)[1],) or rows.size + others.size != full.shape[0]:
        raise ValueError(
            f"rows {rows.tolist()} must be one distinct index in [0, {full.shape[0]}) "
            "per source column"
        )
    unitary = np.empty_like(full)
    unitary[np.concatenate([rows, others])] = full.conj().T
    return unitary


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Gaussian with the
    standard phase correction)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_state(dims: Sequence[int], rng: np.random.Generator) -> PureState:
    dims = _checked_dims(dims)
    total = math.prod(dims)
    z = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(dims, z / np.linalg.norm(z))


# Default total-dimension budget of every state build and every subset scan;
# each of them takes a budget argument and guards with the value it is given.
DIM_BUDGET = 2**16


def guard_total_dim(dims: Iterable[int], budget: int, what: str) -> None:
    """Refuse dims whose product exceeds ``budget`` (see ``_running_product``)."""
    count, total = _running_product(dims, budget)
    if total > budget:
        raise BudgetExceededError(
            f"{what}: total dimension exceeds budget {budget} "
            f"(the first {count} dims already give {total})"
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
    dims = _checked_dims(obj["dims"], "state JSON dims entry")
    pairs = obj["amps"]
    amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    _require_size(dims, amps.size, "state JSON")
    _require_finite(amps, "state JSON")
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError(f"state JSON: norm {nrm!r} deviates from 1 by more than 1e-6")
    return PureState(dims, amps / nrm)
