"""Expected outputs, computed without calling the code under test.

Every rule here comes from the structure of the input, not from an SVD:

* a generic (Haar) vector has full Schmidt rank across every cut, so
  rank(I) = min(dim I, dim I^c);
* a tensor product of factors has rank(I) equal to the product of the ranks
  of the factors that the cut I splits; a local phase inside one party does
  not change it;
* a qudit Dicke state with s excitations has the sector count
  rank_k = min(k(d-1), s) - max(0, s - (n-k)(d-1)) + 1 across any k parties;
* witness radii and Werner visibilities have closed forms.

The level rule is the pure-state criterion itself: level k holds when every
size-k subset has rank above dim(I) / min_{p in I} d_p, and levels are
scanned upward until the first one that fails.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def level_from_ranks(dims, rank_of) -> int:
    """Largest k <= n//2 with rank_of(I) > dim(I)/min d over all |I| = k,
    scanning k upward and stopping at the first failing level."""
    n = len(dims)
    for k in range(1, n // 2 + 1):
        for members in combinations(range(n), k):
            dim_i = math.prod(dims[p] for p in members)
            if rank_of(members) <= dim_i // min(dims[p] for p in members):
                return k - 1
    return n // 2


def haar_level(dims) -> int:
    total = math.prod(dims)

    def rank(members):
        dim_i = math.prod(dims[p] for p in members)
        return min(dim_i, total // dim_i)

    return level_from_ranks(dims, rank)


def factored_rank(factors, members) -> int:
    """factors: list of (parties, rank). Product over factors the cut splits."""
    inside = set(members)
    rank = 1
    for parties, r in factors:
        hit = sum(p in inside for p in parties)
        if 0 < hit < len(parties):
            rank *= r
    return rank


def factored_dims(n, factors, slot_dims):
    """Party dims when each factor puts one slot of dimension slot_dims[f] on
    each of its parties."""
    dims = [1] * n
    for (parties, _r), d in zip(factors, slot_dims):
        for p in parties:
            dims[p] *= d
    return tuple(dims)


def factored_level(dims, factors) -> int:
    return level_from_ranks(dims, lambda m: factored_rank(factors, m))


def dicke_rank(n, d, s, k) -> int:
    return min(k * (d - 1), s) - max(0, s - (n - k) * (d - 1)) + 1


def dicke_level(n, d, s) -> int:
    return level_from_ranks((d,) * n, lambda m: dicke_rank(n, d, s, len(m)))


def dicke_support(n, d, s) -> int:
    """Number of n-digit base-d strings with digit sum s."""
    counts = [1] + [0] * s
    for _ in range(n):
        counts = [sum(counts[max(0, t - d + 1) : t + 1]) for t in range(s + 1)]
    return counts[s]


# --- closed-form witness data ----------------------------------------------


def ghz_radius(a) -> float:
    sq = np.asarray(a, float) ** 2
    return float(sq.max() / sq.sum())


def w4_radius(level, a) -> float:
    sq = np.asarray(a, float) ** 2
    sq = sq / sq.sum()
    pairs = [sq[i] + sq[j] for i, j in combinations(range(4), 2)]
    if level == 2:
        return float(max(1.0 - sq[4], 1.0 - min(pairs)))
    return float(max(sq[4], max(pairs)))


def werner_threshold(r, dim) -> float:
    return (dim * r + 1.0) / (dim + 1.0)


def werner_crossing(r, dim) -> float:
    return (dim * r - 1.0) / (dim - 1.0)


def fig4_row(theta):
    c, s = math.cos(theta), math.sin(theta)
    a = [c / 2.0] * 4 + [s]
    r2, r1 = w4_radius(2, a), w4_radius(1, a)
    return (theta, r2, r1, werner_threshold(r2, 16), werner_threshold(r1, 16))


def werner_witness_value(r, v, dim) -> float:
    """r - <Phi| (v Phi + (1-v) I/dim) |Phi> for a normalized target."""
    return r - (v + (1.0 - v) / dim)


# --- channels ----------------------------------------------------------------


def apply_local_kraus(rho, dims, terms):
    """sum_i A_i rho A_i^dag where A_i is a tensor product of blocks; each
    block is (parties, matrix) acting on those parties in the given order.

    Works on the density tensor axis by axis with einsum, so it shares no
    code with the full-matrix embedding it checks.
    """
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    fresh = letters.upper()
    out = np.zeros_like(rho)
    for blocks in terms:
        t = rho.reshape(tuple(dims) * 2)
        for parties, mat in blocks:
            k = len(parties)
            local = tuple(dims[p] for p in parties)
            op = mat.reshape(local * 2)
            for conj, offset in ((False, 0), (True, n)):
                axes = [p + offset for p in parties]
                src = list(letters[: 2 * n])
                new = list(fresh[:k])
                dst = list(src)
                for ax, ch in zip(axes, new):
                    dst[ax] = ch
                o = op.conj() if conj else op
                spec = "".join(new) + "".join(src[ax] for ax in axes)
                t = np.einsum(f"{spec},{''.join(src)}->{''.join(dst)}", o, t)
        out = out + t.reshape(rho.shape)
    return out
