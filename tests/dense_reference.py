"""The dense numpy row reduction that ``linalg.rref`` replaced, kept as the
reference it is cross-checked against and as the rank of the test oracles,
so that no oracle ranks through the kernel under test."""

import numpy as np


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
