"""Independent verification paths for the test suite.

Everything in here deliberately avoids the library's reshape/transpose and
SVD machinery: reduced matrices come from explicit index loops, ranks from
Gram-matrix eigenvalues or from the SVD of the whole bipartite matrix,
operator embeddings from explicit permutation matrices, path counts from a
hand-rolled augmenting search, Dicke levels from the excitation-sector
count, exact ranks of integer matrices from fraction-free elimination,
and witness radii from the eigenvalues of einsum-built reduced density
matrices.
"""

import math
import string
from itertools import combinations

import numpy as np


def _digits(index, dims):
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return list(reversed(out))


def _index(digits, dims):
    idx = 0
    for x, d in zip(digits, dims):
        idx = idx * d + x
    return idx


def loop_partial_trace(amps, dims, keep):
    """Reduced density matrix by outer-product-and-sum over explicit
    multi-indices."""
    dims = list(dims)
    n = len(dims)
    keep = list(keep)
    traced = [p for p in range(n) if p not in keep]
    keep_dims = [dims[p] for p in keep]
    traced_dims = [dims[p] for p in traced]
    side = math.prod(keep_dims)
    rho = np.zeros((side, side), dtype=complex)
    for row in range(side):
        row_digits = _digits(row, keep_dims)
        for col in range(side):
            col_digits = _digits(col, keep_dims)
            acc = 0.0 + 0.0j
            for env in range(math.prod(traced_dims) if traced_dims else 1):
                env_digits = _digits(env, traced_dims) if traced_dims else []
                full_row = [0] * n
                full_col = [0] * n
                for p, x in zip(keep, row_digits):
                    full_row[p] = x
                for p, x in zip(keep, col_digits):
                    full_col[p] = x
                for p, x in zip(traced, env_digits):
                    full_row[p] = x
                    full_col[p] = x
                acc += amps[_index(full_row, dims)] * np.conj(amps[_index(full_col, dims)])
            rho[row, col] = acc
    return rho


def gram_rank(amps, dims, cut, cutoff=1e-9):
    """Schmidt rank across cut | complement from the eigenvalues of the
    reduced Gram matrix.

    The relative singular-value cutoff squares in the eigenvalue domain,
    but the square (1e-18) would sit below eigensolver noise (~1e-16
    relative), so the effective eigenvalue cutoff is clamped at 1e-12."""
    rho = loop_partial_trace(amps, dims, cut)
    eig = np.linalg.eigvalsh(rho)
    top = eig[-1]
    eig_cutoff = max(cutoff**2, 1e-12)
    return int(np.count_nonzero(eig / top > eig_cutoff))


def cut_matrix(amps, dims, cut):
    """The dim(cut) x dim(complement) amplitude matrix, by numpy transpose
    and reshape."""
    cut = list(cut)
    perm = cut + [p for p in range(len(dims)) if p not in cut]
    side = math.prod(dims[p] for p in cut)
    return np.asarray(amps).reshape(dims).transpose(perm).reshape(side, -1)


def svd_rank(amps, dims, cut, cutoff=1e-9):
    """Schmidt rank across cut | complement from the singular values of the
    whole cut matrix, zero rows and columns included."""
    sigma = np.linalg.svd(cut_matrix(amps, dims, cut), full_matrices=True, compute_uv=False)
    return int(np.count_nonzero(sigma / sigma[0] > cutoff))


def brute_classify(amps, dims, cutoff=1e-9, rank=gram_rank):
    """Connection level by exhaustive bipartition enumeration with
    Gram-matrix ranks, or with ``rank(amps, dims, subset, cutoff)`` when
    given (``svd_rank`` is far faster than the index loops above 10^3
    amplitudes)."""
    n = len(dims)
    level = 0
    for k in range(1, n // 2 + 1):
        ok = True
        for subset in combinations(range(n), k):
            threshold = math.prod(dims[p] for p in subset) // min(dims[p] for p in subset)
            if rank(amps, dims, subset, cutoff) <= threshold:
                ok = False
                break
        if not ok:
            break
        level = k
    return level


def dicke_level_exact(n, d, s):
    """Connection level of the n-qudit Dicke state with s excitations, from
    the sector count alone.

    Across any k parties the state splits into one Schmidt term per
    excitation count j that the cut can hold while the rest holds s - j, so
    rank_k = min(k(d-1), s) - max(0, s - (n-k)(d-1)) + 1. The state is
    permutation symmetric, so one cut per k decides the level: the largest
    k <= floor(n/2) with rank_j > d^(j-1) for every j <= k."""
    level = 0
    for k in range(1, n // 2 + 1):
        rank = min(k * (d - 1), s) - max(0, s - (n - k) * (d - 1)) + 1
        if rank <= d ** (k - 1):
            break
        level = k
    return level


def exact_rank(rows):
    """Rank over Q of an integer matrix, given as equal-length lists of
    Python ints, by fraction-free elimination (Bareiss, Math. Comp. 22,
    1968). Each entry below the pivots is a minor of the input, so every
    division by the previous pivot is exact and nothing is rounded."""
    rows = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            a = rows[i][col]
            rows[i] = [(top[col] * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = top[col]
        rank += 1
    return rank


def exact_level(int_amps, dims):
    """Connection level of the state whose amplitudes are a common scale
    times the Python ints ``int_amps`` (party 0 most significant), from
    ``exact_rank`` of every cut matrix, built by index loops. With exact
    ranks the levels are nested, so the scan stops at the first failing
    subset of the lowest failing level."""
    n = len(dims)
    support = [(_digits(i, dims), a) for i, a in enumerate(int_amps) if a]
    level = 0
    for k in range(1, n // 2 + 1):
        for cut in combinations(range(n), k):
            rest = [p for p in range(n) if p not in cut]
            cut_dims, rest_dims = [dims[p] for p in cut], [dims[p] for p in rest]
            matrix = [[0] * math.prod(rest_dims) for _ in range(math.prod(cut_dims))]
            for digits, a in support:
                row = _index([digits[p] for p in cut], cut_dims)
                matrix[row][_index([digits[p] for p in rest], rest_dims)] = a
            if exact_rank(matrix) <= math.prod(cut_dims) // min(cut_dims):
                return level
        level = k
    return level


def top_eigen_radius(amps, dims, k):
    """Witness radius at level k: over every size-k subset I, the sum of the
    top prod(I)/min(I) eigenvalues of the reduced density matrix on I,
    which is built by an einsum contraction of the amplitude tensor with
    its conjugate; the maximum over I."""
    n = len(dims)
    psi = np.asarray(amps, dtype=complex).reshape(dims)
    best = 0.0
    for subset in combinations(range(n), k):
        row = list(string.ascii_letters[:n])
        col = list(string.ascii_letters[n : 2 * n])
        for p in range(n):
            if p not in subset:
                col[p] = row[p]
        out = "".join(row[p] for p in subset) + "".join(col[p] for p in subset)
        side = math.prod(dims[p] for p in subset)
        rho = np.einsum(f"{''.join(row)},{''.join(col)}->{out}", psi, psi.conj())
        eig = np.linalg.eigvalsh(rho.reshape(side, side))[::-1]
        t = side // min(dims[p] for p in subset)
        best = max(best, float(eig[:t].sum()))
    return best


def permutation_embed(op, parties, dims):
    """Embed an operator through an explicit basis-permutation matrix."""
    dims = list(dims)
    n = len(dims)
    parties = list(parties)
    others = [p for p in range(n) if p not in parties]
    order = parties + others
    total = math.prod(dims)
    perm = np.zeros((total, total), dtype=complex)
    order_dims = [dims[p] for p in order]
    for src in range(total):
        digits = _digits(src, dims)
        reordered = [digits[p] for p in order]
        perm[_index(reordered, order_dims), src] = 1.0
    rest = math.prod([dims[p] for p in others]) if others else 1
    block = np.kron(op, np.eye(rest))
    return perm.conj().T @ block @ perm


def kraus_apply(rho, full_ops):
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for a in full_ops:
        out = out + a @ rho @ a.conj().T
    return out


def kron_gram_defect(pairs):
    """max |sum_i (K_i x S_i)^H (K_i x S_i) - I| over the entries, each
    Kraus term built as its full Kronecker product."""
    gram = sum(a.conj().T @ a for a in (np.kron(k, s) for k, s in pairs))
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def edge_disjoint_paths(n, units, source, sink):
    """Maximum number of edge-disjoint source-sink paths over the expanded
    unit edges, by repeated augmenting BFS on residual capacities."""
    cap = {}
    for i, j, *_rest in units:
        cap[(i, j)] = cap.get((i, j), 0) + 1
        cap[(j, i)] = cap.get((j, i), 0) + 1
    flow = dict.fromkeys(cap, 0)
    count = 0
    while True:
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            u = queue.pop(0)
            for v in range(n):
                if v not in parent and cap.get((u, v), 0) - flow.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return count
        v = sink
        while parent[v] is not None:
            u = parent[v]
            flow[(u, v)] += 1
            flow[(v, u)] -= 1
            v = u
        count += 1


def min_pair_connectivity(n, units):
    best = None
    for a in range(n):
        for b in range(a + 1, n):
            value = edge_disjoint_paths(n, units, a, b)
            best = value if best is None else min(best, value)
    return best or 0


def crossing_rank_level(n, edges):
    """Connection level of a network whose edge units are maximally
    entangled, from the graph alone; ``edges`` lists (i, j, multiplicity,
    dim). The joint state is a product of one rank-d factor per unit, so
    the Schmidt rank across a party subset S is the product of the dims of
    the units with exactly one end in S. A party's dimension is the product
    of the dims of its units, and S fails level |S| when its rank is at
    most dim(S)/min_S d."""
    units = [(i, j, d) for i, j, mult, d in edges for _ in range(mult)]
    dims = [1] * n
    for i, j, d in units:
        dims[i] *= d
        dims[j] *= d
    level = 0
    for k in range(1, n // 2 + 1):
        for subset in combinations(range(n), k):
            rank = math.prod(d for i, j, d in units if (i in subset) != (j in subset))
            threshold = math.prod(dims[p] for p in subset) // min(dims[p] for p in subset)
            if rank <= threshold:
                return level
        level = k
    return level
