"""Exact linear algebra over the prime field GF(p), p an odd prime.

Matrices are numpy integer arrays; those returned are int64 with entries
reduced mod p.  Everything is a pure function, so results from concurrent
callers are safe to combine.  A sparse rank starts with
``structural_pivots``, which finds pivots from the positions of the
nonzero entries alone; what it leaves falls apart into ``components``, and
``dgmodule._cores`` makes each distinct one a dense block of 1-4 bytes an
entry.  All elimination is ``_pivot_rows``, a sparse left-looking row
reduction on COO input (after Faugere-Lachartre and SpaSM) that holds each
row as a dict of Python ints, so no product can overflow.  ``echelon``
returns its rank and pivot columns: ``sl2.frobenius_form`` hands it the
entries of a T x T type Gram, and ``rank`` goes through ``rref``, its
dense wrapper.  ``kernel_basis`` and ``independent_columns`` take columns
as entries (rows, cols, vals, width) and read the pivot rows as dicts.
Only ``kernel_basis`` back-substitutes, and it reads the reduced rows as
entries: nothing builds a (rank, n) array.  ``summed`` merges entries at
equal keys, and ``ranges`` concatenates index ranges.  The blocks met are
small, or large and sparse, and fill in little.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_odd_prime", "check_modulus", "rank", "echelon", "rref", "structural_pivots", "components", "kernel_basis",
           "independent_columns", "ranges", "sorted_join", "summed"]


# Largest join ``sorted_join`` builds, in pairs, refused before any pair array
# exists.  Only the d^2 check's (``dgmodule._products``) grow large, with the
# cube of a layer's width, at about 77 bytes a pair: an S(2, 2) file of three
# 158-wide layers of dense unit terms (3,944,312 pairs) peaks at 339 MB in
# ``koszulkit table``.  The largest in a legitimate run is 127,776 pairs (the
# e = f = 6 round trip at p = 3, seed 2024, trials 0-3), a margin of 31;
# ``blockalg``'s are at most 56 at hbound 8 and 248 at 32 in sl2 reports.
MAX_JOIN_PAIRS = 4_000_000


def sorted_join(a, b):
    """Index pairs (i, j) with a[i] == b[j], for sorted b; i ascending.  More
    than ``MAX_JOIN_PAIRS`` pairs are refused (ValueError) before any pair
    array is built."""
    lo = b.searchsorted(a)
    count = b.searchsorted(a, "right") - lo
    if (total := int(count.sum())) > MAX_JOIN_PAIRS:
        raise ValueError(f"a join of {total:,} pairs is over the limit of {MAX_JOIN_PAIRS:,}")
    return np.arange(len(a)).repeat(count), ranges(lo, count)


def ranges(starts, counts) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]) concatenated, as int64."""
    at = (starts - counts.cumsum() + counts).repeat(counts)
    at += np.arange(len(at))
    return at


def summed(key, vals, p: int):
    """``key`` sorted, the values of equal keys summed mod p in int64 (kept in
    vals' dtype) and vanishing sums dropped; ``vals`` must be nonzero mod p.
    Sums mod p do not depend on the order of terms: the sort need not be stable."""
    order = key.argsort()
    key, vals = key.take(order), vals.take(order)
    del order
    vals %= p
    repeat = key[1:] == key[:-1]
    if np.count_nonzero(repeat):
        first = np.concatenate(([0], (~repeat).nonzero()[0] + 1))
        key, vals = key[first], (np.add.reduceat(vals, first, dtype=np.int64) % p).astype(vals.dtype, copy=False)
        nonzero = vals != 0
        key, vals = key[nonzero], vals[nonzero]
    return key, vals


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
# and summed) reduces each product of coefficients mod p before summing in
# int64, so a sum of k terms stays below k 2^24 and far below 2^63.  echelon
# works in Python ints and needs no bound.
MAX_MODULUS = 1 << 24

# The memory bound of elimination, sized as 64M int64 cells (512 MB).
# dgmodule._cores refuses a dense block, one connected component of what
# structural pivots leave, of more than MAX_RANK_CELLS * 8 bytes; an entry
# costs 1-4 bytes (the narrowest unsigned dtype that holds p), so at p = 3
# a block may hold 512M entries.  The e = f = 6 round trip at p = 3, seed
# 2024, trials 0-3 ranks at most one 21140 x 22926 block, a component of a
# cone's k (x)_A M in its contractibility certificate (485 MB as uint8,
# 92,624 nonzeros, rank 13,180), a margin of 1.06.  echelon refuses to hold
# more than MAX_RANK_CELLS // 8 entries in its rows (a dict entry of Python
# ints costs about 8 int64 cells); that run holds at most 92,916.
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


def echelon(rows, cols, vals, shape, p: int):
    """Row echelon form over GF(p) of the ``shape`` (m, n) matrix whose
    entries are ``vals`` at the distinct positions (``rows``, ``cols``), in
    any order, and 0 elsewhere: (rank, pivot columns).

    Sparse left-looking elimination: the entries nonzero mod p become one
    dict {column: value} per row, taken shortest first (ties in the order
    the rows first appear, row order for a dense matrix's nonzeros).  Each
    is reduced on its least column against the pivot rows so far until it is
    empty or becomes a pivot row, scaled to 1 there: an echelon basis with
    the reduced form's pivot columns.  ValueError once the rows hold more
    than MAX_RANK_CELLS // 8 entries.
    """
    pivots = sorted(_pivot_rows(rows, cols, vals, shape, p, False))
    return len(pivots), np.array(pivots, dtype=np.int64)


def _pivot_rows(rows, cols, vals, shape, p: int, reduced: bool) -> dict:
    """``echelon``'s pivot rows, {pivot column: {column: value}}.  With
    ``reduced``, back-substitution then clears every other pivot column,
    last pivot first, in one pass per row, since the pivot rows after it
    are already reduced: the reduced form's pivot rows."""
    m, n = shape
    entries = {}  # row -> {column: value}, the nonzeros mod p, in order of first appearance
    for r, c, v in zip(rows.tolist(), cols.tolist(), (vals % p).tolist()):
        if v:
            entries.setdefault(r, {})[c] = v
    held, limit = sum(map(len, entries.values())), MAX_RANK_CELLS // 8

    def check_fill():
        if held > limit:
            raise ValueError(
                f"row reduction of a {m} x {n} matrix holds {held:,} entries in its rows "
                f"(about {held * 64:,} bytes), over the limit of {limit:,}"
            )

    check_fill()
    pivot_rows = {}  # pivot column -> its row, 1 at that column
    for row in sorted(entries.values(), key=len):
        held -= len(row)
        while row:
            col = min(row)
            pivot = pivot_rows.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivot_rows[col] = {k: v * inv % p for k, v in row.items()}
                break
            _subtract(row, row[col], pivot, p)
        held += len(row)
        check_fill()
    if reduced:
        for col in sorted(pivot_rows, reverse=True):
            row = pivot_rows[col]
            held -= len(row)
            for c in [c for c in row if c != col and c in pivot_rows]:
                _subtract(row, row[c], pivot_rows[c], p)
            held += len(row)
            check_fill()
    return pivot_rows


def rref(a: np.ndarray, p: int):
    """Echelon form over GF(p) of the dense ``a``: (rank, pivot columns),
    ``echelon`` on the nonzeros of ``a``."""
    flat = a.ravel()
    at = flat.nonzero()[0]  # a 2-D nonzero() is slower on large blocks
    return echelon(*np.divmod(at, a.shape[1]), flat[at], a.shape, p)


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
    left = np.arange(len(rows), dtype=np.int32)
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


def components(u, v):
    """Each node's connected component, numbered by least node, in the graph
    with edges (u[k], v[k]) on nodes 0, 1, ..., each in some edge.  A round
    hooks each root to the least root next to it, points every node at its
    root (the least node of its tree) and drops the edges inside one."""
    label = np.arange(max(u.max(), v.max()) + 1, dtype=np.int32)
    while len(u):
        lu, lv = label[u], label[v]
        apart = lu != lv
        u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]
    roots = label == np.arange(len(label))
    return (roots.cumsum(dtype=np.int32) - 1)[label]


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` over GF(p); 0 for matrices with an empty side."""
    return rref(a, p)[0] if a.size else 0


def independent_columns(base, cands, m: int, p: int) -> list[int]:
    """Indices of the columns of ``cands`` that a left-to-right greedy pass
    keeps: each lies outside the span of ``base`` and the kept ones before it.
    Both are the entries (rows, cols, vals, width) of columns over m rows.

    These are the pivot columns of one echelon form of [base | cands] that
    lie past ``base``: a column pivots exactly when it is independent of
    those before.
    """
    (r, c, v, w), (rc, cc, vc, wc) = base, cands
    if not len(cc):
        return []
    pivots = _pivot_rows(np.concatenate([r, rc]), np.concatenate([c, cc + w]), np.concatenate([v, vc]), (m, w + wc), p, False)
    return sorted(k - w for k in pivots if k >= w)


def kernel_basis(a, m: int, p: int):
    """Basis of the right kernel of the m x n matrix with entries ``a`` =
    (rows, cols, vals, n), as the entries (rows, cols, vals, nullity) of an
    (n, nullity) matrix K, values in [1, p).

    Column f of K is the canonical echelon-form generator of the f-th free
    column j: 1 at row j and, at the row of each pivot column, minus the
    reduced form's entry in column j.  So a K = 0 mod p, the columns are
    independent, and nullity = n - rank.
    """
    rows, cols, vals, n = a
    pivot_rows = _pivot_rows(rows, cols, vals, (m, n), p, reduced=True)
    free = [j for j in range(n) if j not in pivot_rows]
    f = {j: x for x, j in enumerate(free)}  # column f[j] of K is free column j's
    k = len(free)
    r, c, v = list(free), list(range(k)), [1] * k
    for col in sorted(pivot_rows):  # a reduced row's entries off its pivot lie in free columns
        for j, x in pivot_rows[col].items():
            if j != col:
                r.append(col)
                c.append(f[j])
                v.append(p - x)
    return np.array(r, dtype=np.int64), np.array(c, dtype=np.int64), np.array(v, dtype=np.int64), k
