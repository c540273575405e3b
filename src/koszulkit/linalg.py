"""Exact dense linear algebra over the prime field GF(p), p an odd prime.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything is
a pure function; no state is shared, so results from concurrent callers are
safe to combine.  All elimination goes through ``rref``, a vectorized numpy
row reduction; intermediate products stay below 2**63 for p < MAX_MODULUS.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_odd_prime",
    "check_modulus",
    "rank",
    "rref",
    "kernel_basis",
    "independent_columns",
]


def sorted_join(a, b):
    """Index pairs (i, j) with a[i] == b[j], for sorted b; i ascending."""
    lo = b.searchsorted(a)
    count = b.searchsorted(a, "right") - lo
    i = np.arange(len(a)).repeat(count)
    return i, np.arange(len(i)) + (lo - count.cumsum() + count).repeat(count)


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# Moduli are below 2^24, so residues are < 2^24, products < 2^48, and every
# int64 sum of products stays below 2^63: rref's row update adds one product
# to a residue; the validate() of semifree modules and chain maps (through
# dgmodule._d_squared and _summed) reduces each product of coefficients mod p
# before summing, so a sum of k terms stays below k 2^24.
MAX_MODULUS = 1 << 24


def check_modulus(p: int) -> int:
    """``p``, or ValueError unless it is an odd prime below MAX_MODULUS
    (checked first, so a huge p is refused before trial division)."""
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is at or above the limit of {MAX_MODULUS:,} (int64 sums of products must stay below 2^63)")
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
    return p


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form. Returns (reduced copy, rank, pivot columns)."""
    r = np.ascontiguousarray(np.mod(a, p), dtype=np.int64)
    m = r.shape[0]
    pivots = []
    # Row operations keep a zero column zero, so only nonzero columns can pivot.
    for col in r.any(axis=0).nonzero()[0].tolist():
        rank_ = len(pivots)
        if rank_ == m:
            break
        nz = r[rank_:, col].nonzero()[0]
        if nz.size == 0:
            continue
        sel = rank_ + int(nz[0])
        if sel != rank_:
            r[[rank_, sel]] = r[[sel, rank_]]
        pivot = r[rank_]
        pivot *= pow(int(pivot[col]), p - 2, p)
        pivot %= p
        rows = r[:, col].nonzero()[0]
        rows = rows[rows != rank_]
        if rows.size:
            r[rows] = (r[rows] - r[rows, col, None] * pivot) % p
        pivots.append(col)
    return r, len(pivots), np.array(pivots, dtype=np.int64)


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` over GF(p); 0 for matrices with an empty side."""
    if a.size == 0:
        return 0
    return rref(a, p)[1]


def independent_columns(base: np.ndarray, cands: np.ndarray, p: int) -> list[int]:
    """Indices of the columns of ``cands`` that a left-to-right greedy pass
    keeps: each lies outside the span of ``base`` and the kept ones before it.

    These are the pivot columns of one rref of [base | cands] that lie past
    ``base``: a column pivots exactly when it is independent of those before.
    """
    if not cands.any():
        return []
    pivots = rref(np.concatenate([base, cands], axis=1), p)[2]
    return (pivots[pivots >= base.shape[1]] - base.shape[1]).tolist()


def kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of ``a``, as columns of an (n, nullity) matrix.

    Columns are the canonical echelon-form generators: one per free column,
    with a 1 in that coordinate.  Always satisfies a @ K = 0 mod p and the
    columns are linearly independent; nullity = n - rank(a).
    """
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0 or not a.any():
        return np.eye(n, dtype=np.int64)
    r, rank_, pivots = rref(a, p)
    pivot_set = set(pivots.tolist())
    free = [j for j in range(n) if j not in pivot_set]
    k = np.zeros((n, len(free)), dtype=np.int64)
    k[free, range(len(free))] = 1
    k[pivots] = (-r[:rank_, free]) % p
    return k
