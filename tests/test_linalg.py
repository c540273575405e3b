import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference
from deadline import within
from koszulkit import linalg

# Seconds an rref of these small matrices may take before its test fails
# (each takes milliseconds; a loop that never ends takes for ever).
RREF_SECONDS = 5


def mat(rows, p: int) -> np.ndarray:
    """An int64 matrix reduced mod p from nested lists."""
    return np.mod(np.asarray(rows, dtype=np.int64), p)


def entries(a: np.ndarray) -> tuple:
    """The columns of the dense ``a`` as (rows, cols, vals, width), the form
    ``kernel_basis`` and ``independent_columns`` take."""
    rows, cols = a.nonzero()
    return rows, cols, a[rows, cols], a.shape[1]


def dense(x, m: int) -> np.ndarray:
    """The m-row matrix with entries x = (rows, cols, vals, width); every
    position must be distinct."""
    rows, cols, vals, width = x
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    out = np.zeros((m, width), dtype=np.int64)
    out[rows, cols] = vals
    return out


def pivot_rows(rows, cols, vals, shape, p: int):
    """(reduced pivot rows, rank, pivot columns) of the matrix with these
    entries, from ``linalg._pivot_rows`` with ``reduced``: the pivot rows,
    by pivot column, as a dense (rank, n) int64 array, each of whose values
    lies in [1, p)."""
    rows_by_pivot = within(RREF_SECONDS, linalg._pivot_rows, rows, cols, vals, shape, p, True)
    pivots = sorted(rows_by_pivot)
    out = np.zeros((len(pivots), shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        row = rows_by_pivot[c]
        assert all(1 <= v < p for v in row.values())
        out[i, list(row)] = list(row.values())
    return out, len(pivots), np.array(pivots, dtype=np.int64)


def reduced(a: np.ndarray, p: int):
    """``pivot_rows`` on the nonzeros of the dense ``a``."""
    rows, cols = a.nonzero()
    return pivot_rows(rows, cols, a[rows, cols], a.shape, p)


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
    r, rank_, pivots = reduced(aug, p)
    if rank_ and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row in range(rank_):
        x[pivots[row]] = r[row, n]
    return x


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.mod(a.astype(np.int64) @ b.astype(np.int64), p)


def test_rank_identity():
    assert linalg.rank(np.eye(2, dtype=np.int64), 5) == 2


def test_rank_zero_matrix():
    assert linalg.rank(np.zeros((3, 4), dtype=np.int64), 5) == 0


def test_rank_dependent_rows():
    # second row is twice the first mod 5
    a = mat([[1, 2], [2, 4]], 5)
    assert linalg.rank(a, 5) == 1


def kernel(a: np.ndarray, p: int) -> np.ndarray:
    """``kernel_basis`` of the dense ``a``, made dense."""
    return dense(linalg.kernel_basis(entries(a), a.shape[0], p), a.shape[1])


def test_kernel_identity_empty():
    k = kernel(np.eye(3, dtype=np.int64), 5)
    assert k.shape == (3, 0)


def test_kernel_zero_matrix_full():
    k = kernel(np.zeros((2, 3), dtype=np.int64), 5)
    assert k.shape == (3, 3)
    assert linalg.rank(k, 5) == 3


def test_kernel_rank_one():
    a = mat([[1, 2], [2, 4]], 5)
    k = kernel(a, 5)
    assert k.shape == (2, 1)
    assert not matmul(a, k, 5).any()
    # (3, 1) spans the same line
    assert linalg.rank(np.concatenate([k, np.array([[3], [1]])], axis=1), 5) == 1


def test_solve_identity():
    b = np.array([2, 3], dtype=np.int64)
    x = solve(np.eye(2, dtype=np.int64), b, 5)
    assert (x == b).all()


def test_solve_inconsistent():
    a = np.zeros((2, 2), dtype=np.int64)
    assert solve(a, np.array([1, 0]), 5) is None


def test_solve_back_substitution():
    a = mat([[1, 1], [0, 1]], 3)
    x = solve(a, np.array([2, 1]), 3)
    assert (x == np.array([1, 1])).all()


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve(np.eye(2, dtype=np.int64), np.array([1, 2, 3]), 5)


def test_modulus_checks():
    assert linalg.is_odd_prime(3) and linalg.is_odd_prime(7)
    for bad in (1, 2, 4, 9, 15):
        assert not linalg.is_odd_prime(bad)
    with pytest.raises(ValueError):
        linalg.check_modulus(4)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    entries = draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    return np.array(entries, dtype=np.int64).reshape(m, n), p


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(data):
    a, p = data
    assert linalg.rank(a, p) == linalg.rank(a.T, p)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(data):
    a, p = data
    k = kernel(a, p)
    assert linalg.rank(a, p) + k.shape[1] == a.shape[1]
    if a.size and k.size:
        assert not matmul(a, k, p).any()
    if k.size:
        assert linalg.rank(k, p) == k.shape[1]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_structural_pivots_and_the_rank_of_what_is_left_make_the_rank(data):
    a, p = data
    rows, cols = a.nonzero()
    pivot_rows, pivot_cols, left = linalg.structural_pivots(rows, cols, max(a.shape))
    assert pivot_rows.sum() == pivot_cols.sum()
    assert not pivot_rows[rows[left]].any() and not pivot_cols[cols[left]].any()
    rest = np.zeros_like(a)
    rest[rows[left], cols[left]] = a[rows[left], cols[left]]
    assert pivot_rows.sum() + linalg.rank(rest, p) == linalg.rank(a, p)


@settings(max_examples=40, deadline=None)
@given(matrices(), st.integers(0, 10_000))
def test_solve_solves(data, seed):
    a, p = data
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, p, size=a.shape[1])
    b = matmul(a, x0.reshape(-1, 1), p).ravel() if a.size else np.zeros(a.shape[0], dtype=np.int64)
    x = solve(a, b, p)
    assert x is not None
    got = matmul(a, x.reshape(-1, 1), p).ravel() if a.size else np.zeros(a.shape[0], dtype=np.int64)
    assert (got == b).all()



# The largest prime below MAX_MODULUS (16,777,213): products of two residues near 2^48.
BIG_PRIME = max(q for q in range(linalg.MAX_MODULUS - 64, linalg.MAX_MODULUS) if linalg.is_odd_prime(q))


@st.composite
def rref_inputs(draw, primes=(3, 5, 7, BIG_PRIME)):
    """Dense, at most 5% nonzero, and rank-deficient matrices (products of
    thin factors, some of them sparse), or all zero; square, wide or tall,
    with sides from 0.  Entries are negative or positive and some are
    nonzero multiples of p, so the kernel must reduce and drop them."""
    p = draw(st.sampled_from(primes))
    shape = draw(st.sampled_from(["any", "wide", "tall"]))
    short, long = draw(st.integers(0, 4)), draw(st.integers(10, 60))
    m, n = {"any": (draw(st.integers(0, 30)), draw(st.integers(0, 30))), "wide": (short, long), "tall": (long, short)}[shape]
    kind = draw(st.sampled_from(["dense", "sparse", "thin", "sparse-thin", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(rows, cols, density=1.0):
        vals = rng.integers(-3 * p, 3 * p, (rows, cols))
        return np.where(rng.random((rows, cols)) < density, vals, 0)

    density = draw(st.floats(0.005, 0.05))
    if kind in ("dense", "sparse"):
        a = entries(m, n, 1.0 if kind == "dense" else density)
    elif kind == "zero":
        a = np.zeros((m, n), dtype=np.int64)
    else:
        k = draw(st.integers(1, 4))
        sparse = kind == "sparse-thin"
        a = entries(m, k, density * 4 if sparse else 1.0) @ entries(k, n, density * 4 if sparse else 1.0)
    a[rng.random((m, n)) < 0.1] = p * rng.integers(-3, 4)
    return a, p


@settings(max_examples=400, deadline=None)
@given(rref_inputs())
def test_rref_matches_the_dense_reference(data):
    """The reduced pivot rows of a dense matrix's nonzeros: the reference's
    reduced form."""
    a, p = data
    want, got = dense_reference.rref(a, p), reduced(a, p)
    assert got[0].dtype == np.int64 and got[2].dtype == np.int64
    assert got[1] == want[1]
    # only the pivot rows come back; the reference's other rows are zero
    assert got[0].shape == (want[1], a.shape[1]) and (got[0] == want[0][: want[1]]).all()
    assert not want[0][want[1]:].any()
    assert got[2].tolist() == want[2].tolist()


# Primes whose cores (dgmodule._cores) are uint8, uint8 at its top, uint16,
# uint32 and uint32 at the modulus bound.
CORE_PRIMES = (3, 251, 257, 65537, BIG_PRIME)


@st.composite
def cores(draw):
    """``rref_inputs`` at every core width: int64 with negative entries, or
    in the core's dtype (np.min_scalar_type(p)) with entries up to its
    top, some of them nonzero multiples of p."""
    a, p = draw(rref_inputs(CORE_PRIMES))
    if draw(st.booleans()):
        return a, p
    dtype = np.min_scalar_type(p)
    assert np.iinfo(dtype).max >= p
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = a % p + p * rng.integers(0, (int(np.iinfo(dtype).max) - p + 1) // p + 1, a.shape)
    return a.astype(dtype), p


@settings(max_examples=400, deadline=None)
@given(cores())
def test_echelon_only_matches_the_dense_reference(data):
    """rref stops at the echelon form: (rank, pivot columns), the
    reference's, and no rows."""
    a, p = data
    want = dense_reference.rref(a, p)
    rank_, pivots = within(RREF_SECONDS, linalg.rref, a, p)
    assert rank_ == want[1]
    assert pivots.dtype == np.int64 and pivots.tolist() == want[2].tolist()
    assert within(RREF_SECONDS, linalg.rank, a, p) == want[1]


@settings(max_examples=400, deadline=None)
@given(cores(), st.integers(0, 2**32 - 1))
def test_echelon_on_coo_input_matches_the_dense_reference(data, seed):
    """echelon on a matrix's entries in a random order, with explicit zeros
    and nonzero multiples of p among them: the reference's rank and pivot
    columns, and the reduced pivot rows the reference's reduced form, values
    in [1, p)."""
    a, p = data
    want = dense_reference.rref(a, p)
    rng = np.random.default_rng(seed)
    rows, cols = ((rng.random(a.shape) < 0.3) | (a != 0)).nonzero()
    order = rng.permutation(len(rows))
    rows, cols = rows[order], cols[order]
    rank_, pivots = within(RREF_SECONDS, linalg.echelon, rows, cols, a[rows, cols], a.shape, p)
    assert rank_ == want[1]
    assert pivots.dtype == np.int64 and pivots.tolist() == want[2].tolist()
    r, rank_, pivots = pivot_rows(rows, cols, a[rows, cols], a.shape, p)
    assert rank_ == want[1] and pivots.tolist() == want[2].tolist()
    assert (r == want[0][:rank_]).all()


def test_rref_bounds_the_entries_its_rows_hold(monkeypatch):
    # 6 entries; back-substitution clears column 1 of row 0 and fills in
    # columns 3 and 4, so the pivot rows end with 7
    a = mat([[1, 1, 1, 0, 0], [0, 1, 0, 1, 1]], 5)
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 7 * 8)
    r, rank_, pivots = reduced(a, 5)
    assert r.tolist() == [[1, 0, 1, 4, 4], [0, 1, 0, 1, 1]] and rank_ == 2 and pivots.tolist() == [0, 1]
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 7 * 8 - 1)
    with pytest.raises(ValueError, match=r"^row reduction of a 2 x 5 matrix holds 7 entries in its rows \(about 448 bytes\), over the limit of 6$"):
        reduced(a, 5)
    # kernel_basis back-substitutes too
    with pytest.raises(ValueError, match=r"^row reduction of a 2 x 5 matrix holds 7 entries in its rows"):
        within(RREF_SECONDS, linalg.kernel_basis, entries(a), 2, 5)
    # the echelon form stops before back-substitution, at 6
    rank_, pivots = within(RREF_SECONDS, linalg.rref, a, 5)
    assert rank_ == 2 and pivots.tolist() == [0, 1]
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 6 * 8 - 1)
    with pytest.raises(ValueError, match=r"^row reduction of a 2 x 5 matrix holds 6 entries in its rows \(about 384 bytes\), over the limit of 5$"):
        within(RREF_SECONDS, linalg.rref, a, 5)


def greedy_independent(base: np.ndarray, cands: np.ndarray, p: int) -> list[int]:
    """The incremental-rank loop ``independent_columns`` replaces: add one
    candidate at a time and keep it when the rank grows."""
    spanned, rk, kept = base, linalg.rank(base, p), []
    for c in range(cands.shape[1]):
        trial = np.concatenate([spanned, cands[:, c : c + 1]], axis=1)
        r = linalg.rank(trial, p)
        if r > rk:
            spanned, rk = trial, r
            kept.append(c)
    return kept


@st.composite
def base_and_candidates(draw):
    """A base matrix and candidate columns, each candidate random, zero, or a
    combination of the base and the candidates before it."""
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(0, 6))
    k = draw(st.integers(0, 4))
    column = st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
    base = np.array(draw(st.lists(column, min_size=k, max_size=k)), dtype=np.int64).reshape(k, m).T
    cands = np.zeros((m, 0), dtype=np.int64)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "random":
            col = np.array(draw(column), dtype=np.int64)
        elif kind == "zero":
            col = np.zeros(m, dtype=np.int64)
        else:
            earlier = np.concatenate([base, cands], axis=1)
            weights = draw(st.lists(st.integers(0, p - 1), min_size=earlier.shape[1], max_size=earlier.shape[1]))
            col = earlier @ np.array(weights, dtype=np.int64) % p
        cands = np.concatenate([cands, col.reshape(m, 1)], axis=1)
    return base, cands, p


@settings(max_examples=300, deadline=None)
@given(base_and_candidates())
def test_independent_columns_matches_greedy_loop(data):
    base, cands, p = data
    assert independent(base, cands, p) == greedy_independent(base, cands, p)


def independent(base: np.ndarray, cands: np.ndarray, p: int) -> list[int]:
    """``independent_columns`` of the dense ``base`` and ``cands``."""
    return linalg.independent_columns(entries(base), entries(cands), base.shape[0], p)


def test_independent_columns_edge_cases():
    e1 = mat([[1], [0]], 5)
    # a multiple of the base, a zero column, a new direction, then its double
    cands = mat([[2, 0, 1, 2], [0, 0, 1, 2]], 5)
    assert independent(e1, cands, 5) == [2]
    assert independent(e1[:, :0], cands, 5) == [0, 2]
    assert independent(e1, cands[:, :0], 5) == []
    assert independent(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 5) == []


def shuffled_entries(a: np.ndarray, rng, density: float) -> tuple:
    """The entries of ``a`` in a random order, with each zero of ``a`` among
    them with probability ``density`` (so with density 0, a zero matrix has
    no entries)."""
    rows, cols = ((rng.random(a.shape) < density) | (a != 0)).nonzero()
    order = rng.permutation(len(rows))
    return rows[order], cols[order], a[rows[order], cols[order]], a.shape[1]


def reference_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """The canonical kernel basis of ``a`` from the dense reference's reduced
    form: per free column j, 1 at row j and minus column j of the reduced
    form at the pivot rows."""
    r, rank_, pivots = dense_reference.rref(a, p)
    free = np.setdiff1d(np.arange(a.shape[1]), pivots)
    k = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    k[free, np.arange(len(free))] = 1
    k[pivots] = -r[:rank_, free] % p
    return k


EMPTY_CASES = [
    (np.zeros((3, 0), dtype=np.int64), 5),  # n = 0
    (np.zeros((0, 4), dtype=np.int64), 5),  # m = 0
    (np.zeros((3, 4), dtype=np.int64), 7),  # no entries
]


@settings(max_examples=300, deadline=None)
@given(cores(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3]), st.integers(0, 60))
@example(EMPTY_CASES[0], 0, 0.0, 0)
@example(EMPTY_CASES[1], 0, 0.0, 2)
@example(EMPTY_CASES[2], 0, 0.0, 1)
@example(EMPTY_CASES[2], 0, 0.3, 3)
def test_coo_kernel_and_independent_columns_match_the_dense_reference(data, seed, density, split):
    """kernel_basis and independent_columns on a matrix's entries in a random
    order, explicit zeros and (negative) multiples of p among them: the
    reference's canonical kernel, as distinct entries with values in [1, p),
    and the pivot columns past the base of [base | cands], the matrix split
    at column ``split``."""
    a, p = data
    m, n = a.shape
    rng = np.random.default_rng(seed)
    k = within(RREF_SECONDS, linalg.kernel_basis, shuffled_entries(a, rng, density), m, p)
    assert k[3] == n - dense_reference.rank(a, p)
    assert ((1 <= k[2]) & (k[2] < p)).all()
    assert (dense(k, n) == reference_kernel(a, p)).all()
    w = min(split, n)
    base, cands = shuffled_entries(a[:, :w], rng, density), shuffled_entries(a[:, w:], rng, density)
    pivots = dense_reference.rref(a, p)[2]
    want = (pivots[pivots >= w] - w).tolist()
    assert within(RREF_SECONDS, linalg.independent_columns, base, cands, m, p) == want
