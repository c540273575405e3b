import numpy as np
import pytest
from hypothesis import given, settings
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
    r, rank_, pivots = within(RREF_SECONDS, linalg.rref, aug, p)
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


def test_kernel_identity_empty():
    k = linalg.kernel_basis(np.eye(3, dtype=np.int64), 5)
    assert k.shape == (3, 0)


def test_kernel_zero_matrix_full():
    k = linalg.kernel_basis(np.zeros((2, 3), dtype=np.int64), 5)
    assert k.shape == (3, 3)
    assert linalg.rank(k, 5) == 3


def test_kernel_rank_one():
    a = mat([[1, 2], [2, 4]], 5)
    k = linalg.kernel_basis(a, 5)
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
    k = linalg.kernel_basis(a, p)
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
    a, p = data
    want, got = dense_reference.rref(a, p), within(RREF_SECONDS, linalg.rref, a, p)
    assert got[0].dtype == np.int64 and got[2].dtype == np.int64
    assert got[1] == want[1]
    # rref returns only the pivot rows; the reference's other rows are zero
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
    """rref(reduced=False) stops at the echelon form: no rows, and the
    reference's rank and pivot columns."""
    a, p = data
    want = dense_reference.rref(a, p)
    rows, rank_, pivots = within(RREF_SECONDS, linalg.rref, a, p, reduced=False)
    assert rows is None and rank_ == want[1]
    assert pivots.dtype == np.int64 and pivots.tolist() == want[2].tolist()
    assert within(RREF_SECONDS, linalg.rank, a, p) == want[1]


def test_rref_bounds_the_entries_its_rows_hold(monkeypatch):
    # 6 entries; back-substitution clears column 1 of row 0 and fills in
    # columns 3 and 4, so the pivot rows end with 7
    a = mat([[1, 1, 1, 0, 0], [0, 1, 0, 1, 1]], 5)
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 7 * 8)
    r, rank_, pivots = within(RREF_SECONDS, linalg.rref, a, 5)
    assert r.tolist() == [[1, 0, 1, 4, 4], [0, 1, 0, 1, 1]] and rank_ == 2 and pivots.tolist() == [0, 1]
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 7 * 8 - 1)
    with pytest.raises(ValueError, match=r"^row reduction of a 2 x 5 matrix holds 7 entries in its rows \(about 448 bytes\), over the limit of 6$"):
        within(RREF_SECONDS, linalg.rref, a, 5)
    # the echelon form stops before back-substitution, at 6
    r, rank_, pivots = within(RREF_SECONDS, linalg.rref, a, 5, reduced=False)
    assert r is None and rank_ == 2 and pivots.tolist() == [0, 1]
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 6 * 8 - 1)
    with pytest.raises(ValueError, match=r"^row reduction of a 2 x 5 matrix holds 6 entries in its rows \(about 384 bytes\), over the limit of 5$"):
        within(RREF_SECONDS, linalg.rref, a, 5, reduced=False)


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
    assert linalg.independent_columns(base, cands, p) == greedy_independent(base, cands, p)


def test_independent_columns_edge_cases():
    e1 = mat([[1], [0]], 5)
    # a multiple of the base, a zero column, a new direction, then its double
    cands = mat([[2, 0, 1, 2], [0, 0, 1, 2]], 5)
    assert linalg.independent_columns(e1, cands, 5) == [2]
    assert linalg.independent_columns(e1[:, :0], cands, 5) == [0, 2]
    assert linalg.independent_columns(e1, cands[:, :0], 5) == []
    assert linalg.independent_columns(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 5) == []
