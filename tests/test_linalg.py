import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import linalg


def test_rank_identity():
    assert linalg.rank(np.eye(2, dtype=np.int64), 5) == 2


def test_rank_zero_matrix():
    assert linalg.rank(np.zeros((3, 4), dtype=np.int64), 5) == 0


def test_rank_dependent_rows():
    # second row is twice the first mod 5
    a = linalg.mat([[1, 2], [2, 4]], 5)
    assert linalg.rank(a, 5) == 1


def test_kernel_identity_empty():
    k = linalg.kernel_basis(np.eye(3, dtype=np.int64), 5)
    assert k.shape == (3, 0)


def test_kernel_zero_matrix_full():
    k = linalg.kernel_basis(np.zeros((2, 3), dtype=np.int64), 5)
    assert k.shape == (3, 3)
    assert linalg.rank(k, 5) == 3


def test_kernel_rank_one():
    a = linalg.mat([[1, 2], [2, 4]], 5)
    k = linalg.kernel_basis(a, 5)
    assert k.shape == (2, 1)
    assert not linalg.matmul(a, k, 5).any()
    # (3, 1) spans the same line
    assert linalg.rank(np.concatenate([k, np.array([[3], [1]])], axis=1), 5) == 1


def test_solve_identity():
    b = np.array([2, 3], dtype=np.int64)
    x = linalg.solve(np.eye(2, dtype=np.int64), b, 5)
    assert (x == b).all()


def test_solve_inconsistent():
    a = np.zeros((2, 2), dtype=np.int64)
    assert linalg.solve(a, np.array([1, 0]), 5) is None


def test_solve_back_substitution():
    a = linalg.mat([[1, 1], [0, 1]], 3)
    x = linalg.solve(a, np.array([2, 1]), 3)
    assert (x == np.array([1, 1])).all()


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.solve(np.eye(2, dtype=np.int64), np.array([1, 2, 3]), 5)


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
        assert not linalg.matmul(a, k, p).any()
    if k.size:
        assert linalg.rank(k, p) == k.shape[1]


@settings(max_examples=40, deadline=None)
@given(matrices(), st.integers(0, 10_000))
def test_solve_solves(data, seed):
    a, p = data
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, p, size=a.shape[1])
    b = linalg.matmul(a, x0.reshape(-1, 1), p).ravel() if a.size else np.zeros(a.shape[0], dtype=np.int64)
    x = linalg.solve(a, b, p)
    assert x is not None
    got = linalg.matmul(a, x.reshape(-1, 1), p).ravel() if a.size else np.zeros(a.shape[0], dtype=np.int64)
    assert (got == b).all()

