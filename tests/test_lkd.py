from collections import Counter

import pytest

from dict_reference import module, to_nested
from koszulkit.algebra import make_algebra
from koszulkit.bigraded import BigradedDims, Window
from koszulkit.dgmodule import (
    Expansion,
    SemifreeDgModule,
    cohomology,
    cone,
    free_module,
    is_quasi_iso,
)
from koszulkit.lkd import (
    counit,
    functor_F,
    functor_G,
    functor_jcut,
    kappa,
    regrade_xi,
    standard_window,
    unit,
)
from koszulkit.samples import random_acyclic, random_module, stream

JCUT = -14
W = Window(-4, 4, -6, 6)


def kappa_inv(N: SemifreeDgModule) -> SemifreeDgModule:
    return functor_G(N).module


def expansion_dims(module: SemifreeDgModule, window: Window) -> BigradedDims:
    exp = Expansion(module, window.j0, window.j1)
    return BigradedDims(Counter(map(tuple, exp.degs.tolist()))).restrict(window)


def direct_sum(M: SemifreeDgModule, N: SemifreeDgModule) -> SemifreeDgModule:
    off = M.rank
    diff = to_nested(M)
    for k, row in to_nested(N).items():
        diff[k + off] = {l + off: e for l, e in row.items()}
    return module(M.algebra, M.gens + N.gens, diff)


def S_algebra(f, p=5):
    return make_algebra("S", f, f, p)


def T_algebra(f, p=5):
    return make_algebra("T", f, f, p)


def koszul_complex(p=5):
    S = S_algebra(1, p)
    return module(S, [(0, 0), (1, -2)], {1: {0: {((1,), 0): 1}}})


def test_F_of_free_S_resolves_point():
    FS = functor_F(free_module(S_algebra(1), [(0, 0)]), JCUT).module
    assert FS.validate() == []
    assert cohomology(FS, W).to_triples() == [[0, 0, 1]]


def test_F_of_trivial_module_gives_dual_exterior_table():
    FK = functor_F(koszul_complex(), JCUT).module
    assert cohomology(FK, W).to_triples() == [[0, 0, 1], [1, -2, 1]]


def test_F_wrong_algebra_rejected():
    with pytest.raises(ValueError):
        functor_F(free_module(T_algebra(1), [(0, 0)]), JCUT)
    with pytest.raises(ValueError):
        functor_G(free_module(S_algebra(1), [(0, 0)]))


def test_G_of_free_T():
    # H(S tensor T) is one line: the Koszul complex contracts onto the
    # class of 1 tensor theta in bidegree (-1, 2)
    GT = functor_G(free_module(T_algebra(1), [(0, 0)])).module
    assert GT.validate() == []
    assert cohomology(GT, W).to_triples() == [[-1, 2, 1]]


def test_f_zero_functors_are_identity_on_tables():
    S = S_algebra(0)
    M = free_module(S, [(0, 0), (-1, 2)])
    FM = functor_F(M, JCUT).module
    assert expansion_dims(FM, W) == expansion_dims(M, W)
    N = free_module(T_algebra(0), [(1, 0)])
    GN = functor_G(N).module
    assert expansion_dims(GN, W) == expansion_dims(N, W)


def test_counit_on_free_S_is_quasi_iso():
    M = free_module(S_algebra(1), [(0, 0)])
    win = standard_window(M)
    jcut = functor_jcut(win, 1)
    eps, _, _ = counit(M, jcut)
    assert eps.validate() == []
    assert is_quasi_iso(eps, win)


def test_counit_and_unit_carry_their_cutoff():
    for build, X in ((counit, free_module(S_algebra(2), [(0, 0)])), (unit, free_module(T_algebra(2), [(0, 0)]))):
        jcut = functor_jcut(standard_window(X), 2)
        assert build(X, jcut)[0].min_internal == jcut + 2


def test_counit_cone_acyclic_e1_f1():
    # the round trip on the rank-one free module, seen through the cone
    M = free_module(S_algebra(1), [(0, 0)])
    win = standard_window(M)
    jcut = functor_jcut(win, 1)
    eps, _, _ = counit(M, jcut)
    assert not cohomology(cone(eps), win)


def test_unit_on_trivial_target():
    N = free_module(T_algebra(1), [(0, 0)])
    win = standard_window(N)
    jcut = functor_jcut(win, 1)
    eta, _, _ = unit(N, jcut)
    assert eta.validate() == []
    assert is_quasi_iso(eta, win)


@pytest.mark.parametrize("f", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_round_trip_random(f, p):
    S, T = S_algebra(f, p), T_algebra(f, p)
    for trial in range(4):
        rng = stream(21, (p, f, trial))
        M = random_module(S, rng, max_gens=3)
        win = standard_window(M)
        jcut = functor_jcut(win, f)
        eps, _, _ = counit(M, jcut)
        assert eps.validate() == []
        assert is_quasi_iso(eps, win)
        N = random_module(T, rng, max_gens=3)
        win = standard_window(N)
        jcut = functor_jcut(win, f)
        eta, _, _ = unit(N, jcut)
        assert eta.validate() == []
        assert is_quasi_iso(eta, win)


@pytest.mark.parametrize("f", [1, 2])
def test_exactness_on_acyclic_inputs(f):
    S, T = S_algebra(f), T_algebra(f)
    for trial in range(4):
        rng = stream(22, (f, trial))
        M = random_acyclic(S, rng)
        win = standard_window(M)
        assert not cohomology(functor_F(M, functor_jcut(win, f)).module, win)
        N = random_acyclic(T, rng)
        win = standard_window(N)
        assert not cohomology(functor_G(N).module, win)


def test_functors_under_permuted_basis():
    # relabeling the exterior/symmetric generators does not change tables:
    # swap the roles of x_1, x_2 by permuting generator indices in entries
    S = S_algebra(2)
    M = module(
        S,
        [(0, 0), (1, -2)],
        {1: {0: {((1, 0), 0): 1, ((0, 1), 0): 2}}},
    )
    swapped = module(
        S,
        [(0, 0), (1, -2)],
        {1: {0: {((0, 1), 0): 1, ((1, 0), 0): 2}}},
    )
    win = standard_window(M)
    jcut = functor_jcut(win, 2)
    assert cohomology(functor_F(M, jcut).module, win) == cohomology(
        functor_F(swapped, jcut).module, win
    )


def test_regrade_xi_on_generators():
    # a generator in (2, -2) over S regrades to (0, -2) over R
    M = free_module(S_algebra(1), [(2, -2)])
    X = regrade_xi(M)
    assert X.algebra.kind == "R"
    assert X.gens == ((0, -2),)
    assert X.validate() == []


def test_regrade_xi_shift_identity():
    # xi(M<m>) = xi(M)<m>[-m], as generators and cohomology tables
    M = koszul_complex()
    for m in range(-2, 3):
        lhs = regrade_xi(M.shift(0, m))
        rhs = regrade_xi(M).shift(-m, m)
        assert lhs.gens == rhs.gens
        win = Window.hull(lhs.gens).enlarge(1, 2)
        assert cohomology(lhs, win) == cohomology(rhs, win)


def test_kappa_is_functor_F_and_additive():
    M = free_module(S_algebra(1), [(0, 0)])
    assert kappa(M, JCUT) == functor_F(M, JCUT).module
    N = koszul_complex()
    both = direct_sum(M, N)
    win = Window(-3, 3, -4, 4)
    jcut = functor_jcut(win, 1)
    parts = Counter(cohomology(kappa(M, jcut), win).table) + Counter(cohomology(kappa(N, jcut), win).table)
    assert cohomology(kappa(both, jcut), win) == BigradedDims(parts)


def test_kappa_commutes_with_internal_shift():
    M = koszul_complex()
    win = Window(-3, 3, -6, 6)
    for m in range(-2, 3):
        jcut = functor_jcut(win, 1) - 2 * abs(m)
        lhs = cohomology(kappa(M.shift(0, m), jcut), Window(win.i0, win.i1, win.j0 + m, win.j1 + m))
        rhs = cohomology(kappa(M, jcut), win).shift(0, m)
        assert lhs == rhs


def test_kappa_inv_of_point():
    # kappa_inv(free rank one over T with a contractible twist) = S-shaped table
    T = T_algebra(1)
    N = free_module(T, [(0, 0)])
    GN = kappa_inv(N)
    assert GN.algebra.kind == "S"
    assert GN.rank == 2


@pytest.mark.parametrize("f", [0, 1, 2, 3])
def test_coinduction_table_identity(f):
    # table(T) = table(dual of T) shifted by [n]<2n>: the free rank-one
    # module over T is its own coinduced twist
    T = T_algebra(f)
    M = free_module(T, [(0, 0)])
    win = Window(-f - 1, f + 1, -2 * f - 2, 2 * f + 2)
    table = expansion_dims(M, win)
    dual_shifted = BigradedDims({(-i, -j): d for (i, j), d in table.table.items()}).shift(f, 2 * f)
    assert dual_shifted.restrict(win) == table
