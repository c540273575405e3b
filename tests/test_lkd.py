from collections import Counter

import numpy as np
import pytest

from dict_reference import module, to_nested
from koszulkit.algebra import make_algebra
from koszulkit.bigraded import BigradedDims, Window
from koszulkit.dgmodule import (
    DgMap,
    Expansion,
    SemifreeDgModule,
    _on_range,
    cohomology,
    cone,
    free_module,
    identity_map,
    is_quasi_iso,
)
from koszulkit.lkd import (
    _koszul_image,
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
    eps = counit(M, jcut)
    assert eps.validate() == []
    assert is_quasi_iso(eps, win)


def test_counit_and_unit_carry_their_cutoff():
    for build, X in ((counit, free_module(S_algebra(2), [(0, 0)])), (unit, free_module(T_algebra(2), [(0, 0)]))):
        jcut = functor_jcut(standard_window(X), 2)
        assert build(X, jcut).min_internal == jcut + 2


def test_counit_cone_acyclic_e1_f1():
    # the round trip on the rank-one free module, seen through the cone
    M = free_module(S_algebra(1), [(0, 0)])
    win = standard_window(M)
    jcut = functor_jcut(win, 1)
    eps = counit(M, jcut)
    assert not cohomology(cone(eps), win)


def test_unit_on_trivial_target():
    N = free_module(T_algebra(1), [(0, 0)])
    win = standard_window(N)
    jcut = functor_jcut(win, 1)
    eta = unit(N, jcut)
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
        eps = counit(M, jcut)
        assert eps.validate() == []
        assert is_quasi_iso(eps, win)
        N = random_module(T, rng, max_gens=3)
        win = standard_window(N)
        jcut = functor_jcut(win, f)
        eta = unit(N, jcut)
        assert eta.validate() == []
        assert is_quasi_iso(eta, win)


def reference_koszul_terms(exp, B, d_sign: int, act_ext: bool):
    """The monomials and terms of ``_koszul_image`` as it built them before
    its one-key sort: the parts concatenated in monomial order, stacked and
    lexsorted by (row, col)."""
    mons = [B.one()] + [B.gen_monomial(not act_ext, i) for i in range(B.f)]
    parts = [(*exp.d[:2], exp.d[2] * d_sign % B.p)] + [exp.action(act_ext, i) for i in range(B.f)]
    parts = sorted((mon, part) for mon, part in zip(mons, parts) if len(part[0]))
    if not parts:
        return [], np.zeros((4, 0), dtype=np.int64)
    rows, cols, vals = (np.concatenate(x) for x in zip(*(part for _, part in parts)))
    ids = np.arange(len(parts)).repeat([len(part[0]) for _, part in parts])
    return [mon for mon, _ in parts], np.array([rows, cols, ids, vals])[:, np.lexsort((cols, rows))]


@pytest.mark.parametrize("f", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_koszul_images_keep_the_lexsort_order(f, p):
    S, T = S_algebra(f, p), T_algebra(f, p)
    for trial in range(3):
        rng = stream(23, (p, f, trial))
        M = random_module(S, rng, max_gens=3)
        N = random_module(T, rng, max_gens=3)
        fm = functor_F(M, functor_jcut(standard_window(M), f))
        gn = functor_G(N)
        for image, sign, act_ext in ((fm, -1 if f & 1 else 1, False), (gn, 1, True)):
            mons, terms = reference_koszul_terms(image.expansion, image.module.algebra, sign, act_ext)
            assert list(image.module.mons) == mons
            assert image.module.terms.dtype == np.int64 and image.module.terms.tolist() == terms.tolist()


class _TiedExpansion:
    """An expansion-shaped stand-in whose d and actions meet at the same
    (row, col), so the order of equal keys shows."""

    def __init__(self, n, d, actions):
        self.degs, self.d, self._actions = np.zeros((n, 2), dtype=np.int64), d, actions

    def __len__(self):
        return len(self.degs)

    def action(self, is_ext, g):
        return self._actions[g]


def test_koszul_image_keeps_monomial_order_on_equal_positions():
    def arrays(*x):
        return tuple(np.array(v, dtype=np.int64) for v in x)

    # every part at all 100 positions of a 20 x 5 grid: an unstable sort of
    # this many equal keys mixes the monomials
    grid = arrays(np.arange(20).repeat(5), np.tile(np.arange(5), 20), np.ones(100))
    B = make_algebra("T", 2, 2, 5)
    image = _koszul_image(_TiedExpansion(20, grid, [grid, grid]), B, (0, 0), 1, False)
    assert image.module.terms[2].tolist() == [0, 1, 2] * 100

    B = make_algebra("T", 2, 2, 5)
    exp = _TiedExpansion(
        4,
        arrays([0, 0, 2], [1, 3, 3], [1, 2, 3]),
        [arrays([0, 2, 3], [1, 3, 0], [4, 4, 4]), arrays([0, 0, 2], [1, 3, 3], [2, 3, 1])],
    )
    image = _koszul_image(exp, B, (0, 0), -1, False)
    mons, terms = reference_koszul_terms(exp, B, -1, False)
    assert list(image.module.mons) == mons and image.module.terms.tolist() == terms.tolist()
    # equal positions keep monomial order: 1, then theta_0, then theta_1
    assert image.module.terms[:3].tolist() == [
        [0, 0, 0, 0, 0, 2, 2, 2, 3],
        [1, 1, 1, 3, 3, 3, 3, 3, 0],
        [0, 1, 2, 0, 2, 0, 1, 2, 1],
    ]


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


def test_the_round_trip_frees_the_counit_before_the_unit(monkeypatch):
    """When suite_round_trip builds a trial's unit, the counit's map, F(M),
    G(F(M)) and both expansions are dead, and so is every earlier image:
    the verdicts hold each functor image once.  Their arrays are watched,
    since the modules and maps keep no weak references."""
    import weakref

    from koszulkit import lkd, suites
    from koszulkit.suites import Config

    watched, alive = [], []

    def watch(*arrays):
        watched.extend(weakref.ref(a) for a in arrays if a.size)

    def watching(functor):
        def run(*args):
            image = functor(*args)
            watch(image.module.terms, image.module.degs, image.expansion.degs, *image.expansion.d)
            return image

        return run

    def counit_watched(M, jcut):
        eps = counit(M, jcut)
        watch(eps.terms)
        return eps

    def unit_watched(N, jcut):
        alive.append(sum(ref() is not None for ref in watched))
        return unit(N, jcut)

    monkeypatch.setattr(lkd, "functor_F", watching(lkd.functor_F))
    monkeypatch.setattr(lkd, "functor_G", watching(lkd.functor_G))
    monkeypatch.setattr(suites, "counit", counit_watched)
    monkeypatch.setattr(suites, "unit", unit_watched)
    results = suites.suite_round_trip(Config(e=2, f=2, p=3, trials=3, seed=2024))
    assert [r["verdict"] for r in results] == ["pass"] * 6
    assert len(watched) > 20 and alive == [0, 0, 0]


def test_the_unit_verdict_holds_no_second_copy_of_its_target():
    """is_quasi_iso on the unit of the e = f = 3 round trip, trial 0 of seed
    2024, allocates less than twice the bytes of F(G(N))'s terms at its
    peak (about 1.5 times): no copy of them is made.  A cone on the whole
    map would hold a second (about 2.6 times).  tracemalloc counts the
    bytes exactly."""
    import tracemalloc

    rng = stream(2024, "round-trip:0")
    random_module(S_algebra(3, 3), rng, max_gens=4)
    N = random_module(T_algebra(3, 3), rng, max_gens=4)
    win = standard_window(N)
    eta = unit(N, functor_jcut(win, 3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert is_quasi_iso(eta, win)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert eta.target.terms.nbytes > 400_000
    assert peak < 2 * eta.target.terms.nbytes


def _round_trip_maps(f, p, trials):
    """The counit and unit of a few random modules, with their windows, and
    identity and zero maps of the same modules."""
    for trial in range(trials):
        rng = stream(24, (p, f, trial))
        M, N = random_module(S_algebra(f, p), rng, max_gens=3), random_module(T_algebra(f, p), rng, max_gens=3)
        for X, build in ((M, counit), (N, unit)):
            win = standard_window(X)
            yield build(X, functor_jcut(win, f)), win
            yield identity_map(X), win
            yield DgMap(X, X.shift(1, 0)), win


@pytest.mark.parametrize("f", [1, 2, 3])
def test_the_cone_on_a_range_expands_as_the_whole_cone(f):
    """``_on_range`` keeps the generators with a table on the range, so the
    cone it gives has the whole cone's expansion on that range, entry for
    entry, and mostly far fewer generators."""
    others = []  # identity maps over Q (ext and sym generators of degree 2, and d_A) and P (sym generators of degree 2)
    for kind in ("Q", "P"):
        X = random_module(make_algebra(kind, f + 1, f, 3), stream(25, (kind, f)), max_gens=3)
        others.append((identity_map(X), Window.hull(X.gens).enlarge(1, 2)))
    kept = []
    for phi, win in [*_round_trip_maps(f, 3, 2), *others]:
        for jlo, jhi in ((win.j0, win.j1), (win.j0 - 4, win.j0), (win.j1, win.j1 + 6), (win.j1 + 40, win.j1 + 42)):
            part = cone(_on_range(phi, jlo, jhi))
            got, want = Expansion(part, jlo, jhi), Expansion(cone(phi), jlo, jhi)
            assert got.degs.tolist() == want.degs.tolist()
            assert [a.tolist() for a in got.d] == [a.tolist() for a in want.d]
            kept.append((part.rank, phi.source.rank + phi.target.rank))
    assert all(a <= b for a, b in kept) and sum(a for a, _ in kept) < sum(b for _, b in kept) / 2
