"""Independent verification paths for the test suite.

Everything in here deliberately avoids the library's reshape/transpose and
SVD machinery: reduced matrices come from explicit index loops, ranks from
Gram-matrix eigenvalues, operator embeddings from explicit permutation
matrices, path counts from a hand-rolled augmenting search, Dicke
levels from the excitation-sector count, and witness radii from the
eigenvalues of einsum-built reduced density matrices.
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


def brute_classify(amps, dims, cutoff=1e-9):
    """Connection level by exhaustive bipartition enumeration with
    Gram-matrix ranks."""
    n = len(dims)
    level = 0
    for k in range(1, n // 2 + 1):
        ok = True
        for subset in combinations(range(n), k):
            threshold = math.prod(dims[p] for p in subset) // min(dims[p] for p in subset)
            if gram_rank(amps, dims, subset, cutoff) <= threshold:
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
