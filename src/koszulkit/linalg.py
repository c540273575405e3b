"""Exact dense linear algebra over the prime field GF(p), p an odd prime.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything is
a pure function; no state is shared, so results from concurrent callers are
safe to combine.  All elimination goes through ``rref``, a vectorized numpy
row reduction; intermediate products must stay below 2**63, which holds for
p < 2**31.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_odd_prime",
    "check_modulus",
    "mat",
    "rank",
    "rref",
    "kernel_basis",
    "solve",
    "matmul",
]


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_modulus(p: int) -> int:
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
    return p


def mat(rows, p: int) -> np.ndarray:
    """Build an int64 matrix reduced mod p from nested lists or an array."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, p)


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form. Returns (reduced copy, rank, pivot columns)."""
    r = np.ascontiguousarray(np.mod(a, p), dtype=np.int64)
    m, n = r.shape
    pivots = np.full(min(m, n), -1, dtype=np.int64)
    rank_ = 0
    for col in range(n):
        if rank_ == m:
            break
        nz = np.nonzero(r[rank_:, col])[0]
        if nz.size == 0:
            continue
        sel = rank_ + int(nz[0])
        if sel != rank_:
            r[[rank_, sel]] = r[[sel, rank_]]
        r[rank_] = r[rank_] * pow(int(r[rank_, col]), p - 2, p) % p
        rows = np.nonzero(r[:, col])[0]
        rows = rows[rows != rank_]
        if rows.size:
            r[rows] = (r[rows] - np.outer(r[rows, col], r[rank_])) % p
        pivots[rank_] = col
        rank_ += 1
    return r, rank_, pivots[:rank_]


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` over GF(p); 0 for matrices with an empty side."""
    if a.size == 0:
        return 0
    return rref(a, p)[1]


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
    free = [j for j in range(n) if j not in set(pivots.tolist())]
    k = np.zeros((n, len(free)), dtype=np.int64)
    for idx, j in enumerate(free):
        k[j, idx] = 1
        for row in range(rank_):
            k[pivots[row], idx] = (-r[row, j]) % p
    return k


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a @ x = b mod p, or None when the system is inconsistent.

    Free variables are set to 0, so the returned solution is canonical.
    Raises ValueError on shape mismatch.
    """
    b = np.mod(np.asarray(b, dtype=np.int64), p)
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: A is {a.shape}, b is {b.shape}")
    m, n = a.shape
    aug = np.zeros((m, n + 1), dtype=np.int64)
    aug[:, :n] = np.mod(a, p)
    aug[:, n] = b
    r, rank_, pivots = rref(aug, p)
    if rank_ and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row in range(rank_):
        x[pivots[row]] = r[row, n]
    return x


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.mod(a.astype(np.int64) @ b.astype(np.int64), p)
