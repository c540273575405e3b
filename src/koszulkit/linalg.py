"""Exact linear algebra over the prime field GF(p), p an odd prime.

Matrices are numpy integer arrays; those returned are int64 with entries
reduced mod p.  Everything is a pure function; no state is shared, so
results from concurrent callers are safe to combine.  A sparse rank starts
with ``structural_pivots``, which finds pivots from the positions of the
nonzero entries alone; what it leaves is a dense core, of 1-4 bytes an
entry (``dgmodule._cores``).  All elimination goes
through ``rref``, a sparse left-looking row reduction (after
Faugere-Lachartre and SpaSM): it reads the nonzeros of a matrix once and
holds each row as a dict of Python ints, so no product can overflow.
Callers that need the reduced form get only its pivot rows, as a dense
(rank, n) array; ``rank`` and ``independent_columns`` stop at the echelon
form, whose pivot set is already the reduced form's, and build no (rank, n)
array.  The cores it meets are 0.05-7% nonzero and fill in little.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_odd_prime",
    "check_modulus",
    "rank",
    "rref",
    "structural_pivots",
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


# Moduli are below 2^24, so residues are < 2^24 and products < 2^48.  The
# validate() of semifree modules and chain maps (through dgmodule._d_squared
# and _summed) reduces each product of coefficients mod p before summing in
# int64, so a sum of k terms stays below k 2^24 and far below 2^63.  rref
# works in Python ints and needs no bound.
MAX_MODULUS = 1 << 24

# The memory bound of elimination, sized as 64M int64 cells (512 MB).
# dgmodule._cores refuses a dense core of more than MAX_RANK_CELLS * 8
# bytes; a core entry costs 1-4 bytes, the narrowest unsigned dtype that
# holds p (one byte below 256), so at p = 3 a core may hold 512M entries.
# The e = f = 5 round trip at p = 3, seed 2024, trials 0-3 needs at most a
# 7930 x 13400 core in trial 3 (106M entries, 106 MB as uint8, 49,352 of
# them nonzero, rank 5819), a margin of 4.8 under the bound; ranking a core
# builds no (rank, n) array.  rref refuses to hold more than
# MAX_RANK_CELLS // 8 entries in its rows, since a dict entry of Python
# ints costs about 8 int64 cells, so sparse rows stay within 512 MB;
# trials 0-2 hold at most 17,758, and trial 3's largest core 79,530.
MAX_RANK_CELLS = 64_000_000


def check_modulus(p: int) -> int:
    """``p``, or ValueError unless it is an odd prime below MAX_MODULUS
    (checked first, so a huge p is refused before trial division)."""
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is at or above the limit of {MAX_MODULUS:,} (int64 sums of products must stay below 2^63)")
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
    return p


def _subtract(row: dict, f: int, pivot: dict, p: int):
    """row -= f * pivot over GF(p), dropping the entries that cancel."""
    for k, v in pivot.items():
        v = (row.get(k, 0) - f * v) % p
        if v:
            row[k] = v
        else:
            del row[k]


def rref(a: np.ndarray, p: int, reduced: bool = True):
    """Reduced row echelon form over GF(p).  Returns (pivot rows, rank,
    pivot columns): the nonzero rows of the reduced form, a (rank, n) int64
    array with entries in [0, p).  With ``reduced`` false it stops at the
    echelon form and returns (None, rank, pivot columns).

    Sparse left-looking elimination: the nonzeros of ``a`` mod p become one
    dict {column: value} per row, and rows are taken shortest first.  Each
    is reduced on its least column against the pivot rows found so far,
    until it is empty or becomes a pivot row, scaled to 1 at that column.
    The pivot rows are then an echelon basis of the row space, with the
    reduced form's pivot columns; with ``reduced`` false, rref stops there.
    Back-substitution clears every other pivot column, last pivot first:
    the pivot rows after it are already reduced, so subtracting them never
    makes a pivot column nonzero again and one pass per row suffices.
    ValueError once the rows hold more than MAX_RANK_CELLS // 8 entries.
    """
    m, n = a.shape
    flat = a.ravel()
    at = flat.nonzero()[0]
    vals = flat[at] % p
    live = vals.nonzero()[0]
    rows, cols = np.divmod(at[live], n)
    vals = vals[live]
    counts = np.bincount(rows, minlength=m)
    starts = np.concatenate([[0], counts.cumsum()]).tolist()
    cols, vals = cols.tolist(), vals.tolist()
    held, limit = len(vals), MAX_RANK_CELLS // 8

    def check_fill():
        if held > limit:
            raise ValueError(
                f"row reduction of a {m} x {n} matrix holds {held:,} entries in its rows "
                f"(about {held * 64:,} bytes), over the limit of {limit:,}"
            )

    check_fill()
    pivot_rows = {}  # pivot column -> its row, 1 at that column
    for i in counts.argsort(kind="stable")[(counts == 0).sum():].tolist():
        row = dict(zip(cols[starts[i]:starts[i + 1]], vals[starts[i]:starts[i + 1]]))
        while row:
            col = min(row)
            pivot = pivot_rows.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivot_rows[col] = {k: v * inv % p for k, v in row.items()}
                break
            _subtract(row, row[col], pivot, p)
        held += len(row) - starts[i + 1] + starts[i]
        check_fill()
    pivots = sorted(pivot_rows)
    if not reduced:
        return None, len(pivots), np.array(pivots, dtype=np.int64)
    for col in reversed(pivots):
        row = pivot_rows[col]
        held -= len(row)
        for c in [c for c in row if c != col and c in pivot_rows]:
            _subtract(row, row[c], pivot_rows[c], p)
        held += len(row)
        check_fill()
    r = np.zeros((len(pivots), n), dtype=np.int64)
    lens = [len(pivot_rows[c]) for c in pivots]
    r[np.arange(len(pivots)).repeat(lens), [k for c in pivots for k in pivot_rows[c]]] = [
        v for c in pivots for v in pivot_rows[c].values()
    ]
    return r, len(pivots), np.array(pivots, dtype=np.int64)


def structural_pivots(rows, cols, n: int):
    """Pivots found from a sparsity pattern alone, without reading a value.

    rows, cols: distinct positions, below n, of the nonzero entries of a
    matrix, sorted by row.  Returns boolean masks (of length n) of the pivot
    rows and pivot columns, and the indices of the entries off every pivot
    row and column.  A round takes each entry alone in its column, one per
    row, and each entry alone in its row, one per column, as pivots, and
    drops their rows and columns; rounds repeat until one finds none.  The
    rank is the number of pivots plus the rank of the entries left, over
    any field: an entry alone in its column clears its row by column
    operations that change no other row, and one alone in its row clears
    its column likewise.  Each pivot has one row and one column, so the
    masks count the pivots of any block of rows or columns.
    """
    pivot_rows, pivot_cols = np.zeros(n, bool), np.zeros(n, bool)
    owner = np.empty(n, np.int64)
    left = np.arange(len(rows))
    r, c = rows, cols
    while len(left):
        in_col = np.bincount(c)[c] == 1
        in_row = np.bincount(r)[r] == 1
        r1, c1 = r[in_col], c[in_col]  # alone in its column: the first per row
        first = np.ones(len(r1), bool)
        first[1:] = r1[1:] != r1[:-1]
        r2, c2 = r[in_row], c[in_row]  # alone in its row: one row per column
        if not len(r1) + len(r2):
            break
        owner[c2] = r2
        pivot_rows[r1] = pivot_rows[owner[c2]] = True
        pivot_cols[c1[first]] = pivot_cols[c2] = True
        keep = ~(pivot_rows[r] | pivot_cols[c])
        left, r, c = left[keep], r[keep], c[keep]
    return pivot_rows, pivot_cols, left


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` over GF(p); 0 for matrices with an empty side."""
    if a.size == 0:
        return 0
    return rref(a, p, reduced=False)[1]


def independent_columns(base: np.ndarray, cands: np.ndarray, p: int) -> list[int]:
    """Indices of the columns of ``cands`` that a left-to-right greedy pass
    keeps: each lies outside the span of ``base`` and the kept ones before it.

    These are the pivot columns of one echelon form of [base | cands] that
    lie past ``base``: a column pivots exactly when it is independent of
    those before.
    """
    if not cands.any():
        return []
    pivots = rref(np.concatenate([base, cands], axis=1), p, reduced=False)[2]
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
    r, _, pivots = rref(a, p)
    pivot_set = set(pivots.tolist())
    free = [j for j in range(n) if j not in pivot_set]
    k = np.zeros((n, len(free)), dtype=np.int64)
    k[free, range(len(free))] = 1
    k[pivots] = (-r[:, free]) % p
    return k
