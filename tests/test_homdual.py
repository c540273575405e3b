import numpy as np
import pytest

import finite_reference as dense_ref
from dict_reference import dg_map
from koszulkit import homdual
from koszulkit.algebra import make_algebra
from koszulkit.bigraded import Window
from koszulkit.dgmodule import (
    DgMap,
    FiniteDgModule,
    SemifreeDgModule,
    cohomology,
    cone,
    free_module,
    identity_map,
    is_quasi_iso,
)
from koszulkit.homdual import (
    check_compat,
    dualize_S,
    dualize_T_formula,
    dualize_T_res,
    expand_T_module,
    k_linear_dual_T,
    oracle_compare_T,
    oracle_window,
)
from koszulkit.samples import random_module, stream


def test_dualize_S_fixes_free_rank_one():
    S = make_algebra("S", 1, 1, 5)
    M = free_module(S, [(0, 0)])
    assert dualize_S(M) == M


def test_dualize_S_shift_duality():
    S = make_algebra("S", 2, 2, 5)
    M = free_module(S, [(0, 0)])
    for a, b in [(1, 0), (0, 2), (2, -2), (-1, 4)]:
        assert dualize_S(M.shift(a, b)) == M.shift(-a, -b)


def test_dualize_S_involution_on_the_nose():
    S = make_algebra("S", 2, 2, 3)
    for trial in range(6):
        M = random_module(S, stream(31, trial), max_gens=4)
        assert dualize_S(dualize_S(M)) == M


def test_dualize_T_fixes_free_rank_one():
    T = make_algebra("T", 1, 1, 5)
    M = free_module(T, [(0, 0)])
    assert dualize_T_res(M) == M
    for a, b in [(1, 0), (0, 2), (-1, -2)]:
        assert dualize_T_res(M.shift(a, b)) == M.shift(-a, -b)


def test_dualize_T_biduality_map_is_quasi_iso():
    T = make_algebra("T", 2, 2, 3)
    for trial in range(5):
        N = random_module(T, stream(32, trial), max_gens=3)
        DD = dualize_T_res(dualize_T_res(N))
        assert DD == N
        ident = identity_map(N)
        biduality = DgMap(N, DD, ident.mons, ident.terms)
        assert biduality.validate() == []
        assert is_quasi_iso(biduality, Window.hull(N.gens).enlarge(1, 2))


def test_kind_checks():
    S = make_algebra("S", 1, 1, 5)
    T = make_algebra("T", 1, 1, 5)
    with pytest.raises(ValueError):
        dualize_S(free_module(T, [(0, 0)]))
    with pytest.raises(ValueError):
        dualize_T_res(free_module(S, [(0, 0)]))


# -- the closed formula -------------------------------------------------------

def test_formula_on_trivial_module():
    T = make_algebra("T", 1, 1, 5)
    out = dualize_T_formula(FiniteDgModule(T, [(0, 0)]))
    zero = np.zeros((1, 1), dtype=np.int64)
    want = dense_ref.shift(dense_ref.k_linear_dual_T(dense_ref.Dense(T, np.zeros((1, 2), dtype=np.int64), zero, [], [zero])), 1, 2)
    dense_ref.assert_same_d(out, want)
    assert dense_ref.validate(want) == []
    assert out.basis_degs.tolist() == [[-1, 2]]


def test_formula_on_trivial_module_general_rank():
    for f in (0, 2, 3):
        T = make_algebra("T", f, f, 3)
        out = dualize_T_formula(FiniteDgModule(T, [(0, 0)]))
        assert out.basis_degs.tolist() == [[-f, 2 * f]]


def test_formula_on_free_module_matches_resolution_route():
    T = make_algebra("T", 1, 1, 5)
    M = free_module(T, [(0, 0)])
    rep = oracle_compare_T(M)
    assert rep.equal
    # and both sides are the table of T itself
    assert rep.left == cohomology(M, rep.window)


def test_formula_biduality_returns_original_table():
    T = make_algebra("T", 2, 2, 3)
    for trial in range(4):
        N = random_module(T, stream(33, trial), max_gens=3)
        fin = expand_T_module(N)
        dd = dualize_T_formula(dualize_T_formula(fin))
        win = oracle_window(N)
        assert dd.cohomology(win) == cohomology(N, win)


def test_twisted_action_satisfies_axioms():
    T = make_algebra("T", 3, 3, 5)
    N = random_module(T, stream(34, 0), max_gens=3)
    want = dense_ref.k_linear_dual_T(dense_ref.expand_T(N))
    dense_ref.assert_same_d(k_linear_dual_T(expand_T_module(N)), want)
    assert dense_ref.validate(want) == []


def test_validate_sees_the_twist_signs(monkeypatch):
    # a dual whose d drops the -(-1)^{i_a} sign has the same cohomology
    # table, but it differs from the reference d, and the twisted ext
    # actions break the Leibniz rule with it
    T = make_algebra("T", 3, 3, 5)
    N = random_module(T, stream(34, 0), max_gens=3)
    fin, W = expand_T_module(N), oracle_window(N)
    ref = dense_ref.shift(dense_ref.k_linear_dual_T(dense_ref.expand_T(N)), 3, 6)
    want = dualize_T_formula(fin)
    dense_ref.assert_same_d(want, ref)
    assert dense_ref.validate(ref) == []
    monkeypatch.setattr(homdual, "_signed", lambda coeff, odd, p: coeff)
    mutant = dualize_T_formula(fin)
    assert mutant.cohomology(W) == want.cohomology(W)
    mutant_d = dense_ref.scatter(mutant.d, mutant.dim, T.p)
    assert not np.array_equal(mutant_d, ref.d)
    assert dense_ref.validate(ref._replace(d=mutant_d)) == ["Leibniz fails for ext generator 2"]


def test_oracle_on_cone_of_theta_multiplication():
    T = make_algebra("T", 1, 1, 5)
    target = free_module(T, [(0, 0)])
    source = free_module(T, [(-1, 2)])  # the shift carrying a theta entry
    phi = dg_map(source, target, {0: {0: {((), 1): 1}}})
    assert phi.validate() == []
    rep = oracle_compare_T(cone(phi))
    assert rep.equal


@pytest.mark.parametrize("f", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_oracle_randomized(f, p):
    T = make_algebra("T", f, f, p)
    for trial in range(5):
        N = random_module(T, stream(35, (f, p, trial)), max_gens=4)
        rep = oracle_compare_T(N)
        assert rep.equal, rep.verdict


# -- compatibility ------------------------------------------------------------

def test_compat_worked_example():
    # left side is the table of the dualized point: one class in (-1, 2)
    S = make_algebra("S", 1, 1, 5)
    rep = check_compat(free_module(S, [(0, 0)]))
    assert rep.equal
    assert rep.left[(-1, 2)] == 1
    assert rep.left.to_triples() == [[-1, 2, 1]]


def test_compat_persists_under_shifts():
    S = make_algebra("S", 1, 1, 5)
    M = free_module(S, [(0, 0)])
    for a, b in [(1, 0), (0, 2), (-1, -2), (2, 2)]:
        rep = check_compat(M.shift(a, b))
        assert rep.equal


@pytest.mark.parametrize("f", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_compat_randomized(f, p):
    S = make_algebra("S", f, f, p)
    for trial in range(5):
        M = random_module(S, stream(36, (f, p, trial)), max_gens=3)
        rep = check_compat(M)
        assert rep.equal, rep.verdict


def test_report_serialization():
    S = make_algebra("S", 1, 1, 3)
    rep = check_compat(free_module(S, [(0, 0)]))
    doc = rep.to_dict()
    assert doc["verdict"] == "equal"
    assert doc["left"] == rep.left.to_triples()
    assert "certified" in doc["certification"]
