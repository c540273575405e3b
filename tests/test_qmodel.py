import pytest

from koszulkit.algebra import make_algebra
from koszulkit.bigraded import Window
from koszulkit.dgmodule import cohomology, free_module, is_quasi_iso
from koszulkit.homdual import oracle_compare_T
from koszulkit.qmodel import (
    check_fbot,
    dualize_Q,
    extend_to_Q,
    pushforward_p,
    restrict_to_T,
    restriction_unit,
)
from koszulkit.samples import random_module, stream


def test_extend_is_identity_when_e_equals_f():
    T = make_algebra("T", 2, 2, 5)
    N = random_module(T, stream(41, 0), max_gens=3)
    M = extend_to_Q(N, 2)
    assert M.algebra.kind == "Q"
    assert M.gens == N.gens
    win = Window.hull(N.gens).enlarge(1, 2)
    assert cohomology(M, win) == cohomology(N, win)


def test_extend_trivial_module_f0_resolves_point():
    # the full exterior Koszul model of the origin: H = k
    T = make_algebra("T", 2, 0, 5)
    M = extend_to_Q(free_module(T, [(0, 0)]), 2)
    assert M.validate() == []
    assert cohomology(M, Window(-3, 2, -2, 6)).to_triples() == [[0, 0, 1]]


def test_extend_free_T_e2_f1():
    T = make_algebra("T", 2, 1, 5)
    M = extend_to_Q(free_module(T, [(0, 0)]), 2)
    table = cohomology(M, Window(-3, 2, -2, 6))
    assert table.to_triples() == [[-1, 2, 1], [0, 0, 1]]


@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_inclusion_T_to_Q_quasi_iso_of_algebras(e):
    for f in range(e + 1):
        Q = make_algebra("Q", e, f, 3)
        T = make_algebra("T", e, f, 3)
        win = Window(-e - 1, 1, -2, 2 * e + 2)
        assert cohomology(free_module(Q, [(0, 0)]), win) == cohomology(
            free_module(T, [(0, 0)]), win
        )


def test_restriction_is_valid_T_module():
    Q = make_algebra("Q", 3, 1, 5)
    M = random_module(Q, stream(42, 1), max_gens=2)
    R, labels = restrict_to_T(M, jhi=8)
    assert R.algebra.kind == "T"
    assert R.validate() == []


@pytest.mark.parametrize("e,f", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_extend_then_restrict_quasi_iso(e, f):
    T = make_algebra("T", e, f, 3)
    for trial in range(4):
        N = random_module(T, stream(43, (e, f, trial)), max_gens=3)
        win = Window.hull(N.gens).enlarge(1, 2)
        eta = restriction_unit(N, e, win.j1 + 2 * (e + 1))
        assert eta.validate() == []
        assert is_quasi_iso(eta, win)


def test_pushforward_when_e_equals_f_keeps_table():
    Q = make_algebra("Q", 2, 2, 5)
    M = random_module(Q, stream(44, 0), max_gens=3)
    push, labels = pushforward_p(M)
    assert push.algebra.kind == "P"
    win = Window.hull(M.gens).enlarge(3, 6)
    assert cohomology(push, win) == cohomology(M, win)


def test_pushforward_of_Q_resolves_origin():
    Q = make_algebra("Q", 1, 0, 5)
    push, _ = pushforward_p(free_module(Q, [(0, 0)]))
    assert push.validate() == []
    assert cohomology(push, Window(-3, 2, -2, 6)).to_triples() == [[0, 0, 1]]


def test_pushforward_invariant_under_extension():
    # table of p_* is the same for N and for restrict(extend(N))
    T = make_algebra("T", 2, 1, 3)
    N = random_module(T, stream(45, 0), max_gens=2)
    M = extend_to_Q(N, 2)
    push, _ = pushforward_p(M)
    win = Window.hull(N.gens).enlarge(1, 2)
    assert cohomology(push, win) == cohomology(N, win)


def test_dualize_Q_fixes_free_and_squares():
    Q = make_algebra("Q", 2, 1, 5)
    M = free_module(Q, [(0, 0)])
    assert dualize_Q(M) == M
    N = random_module(Q, stream(46, 0), max_gens=3)
    assert dualize_Q(dualize_Q(N)) == N
    assert dualize_Q(N).validate() == []


def test_fbot_on_free_Q():
    Q = make_algebra("Q", 2, 1, 5)
    rep = check_fbot(free_module(Q, [(0, 0)]))
    assert rep.equal


def test_fbot_reduces_to_T_duality_when_e_equals_f():
    T = make_algebra("T", 2, 2, 5)
    N = random_module(T, stream(47, 0), max_gens=3)
    assert check_fbot(extend_to_Q(N, 2)).equal
    assert oracle_compare_T(N).equal


def test_fbot_shift_equivariance():
    Q = make_algebra("Q", 2, 1, 3)
    M = random_module(Q, stream(48, 0), max_gens=2)
    for a, b in [(0, 0), (1, 0), (0, 2), (-1, -2)]:
        assert check_fbot(M.shift(a, b)).equal


@pytest.mark.parametrize("e", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_fbot_randomized(e, p):
    for f in range(e + 1):
        Q = make_algebra("Q", e, f, p)
        for trial in range(3):
            M = random_module(Q, stream(49, (e, f, p, trial)), max_gens=3)
            rep = check_fbot(M)
            assert rep.equal, (e, f, p, trial, rep.verdict)


def test_kind_checks():
    T = make_algebra("T", 1, 1, 5)
    N = free_module(T, [(0, 0)])
    with pytest.raises(ValueError):
        pushforward_p(N)
    with pytest.raises(ValueError):
        dualize_Q(N)
    with pytest.raises(ValueError):
        restrict_to_T(N, 4)
    S = make_algebra("S", 1, 1, 5)
    with pytest.raises(ValueError):
        extend_to_Q(free_module(S, [(0, 0)]), 1)
