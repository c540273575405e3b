from collections import Counter

import numpy as np
import pytest

import margin_cut_reference
import round_trip_reference
from dict_reference import module, nested_terms, to_nested
from koszulkit import homdual, suites
from koszulkit.algebra import make_algebra
from koszulkit.bigraded import BigradedDims, Window
from koszulkit.dgmodule import (
    DgMap,
    Expansion,
    SemifreeDgModule,
    _kept,
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
from koszulkit.qmodel import restriction_unit
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
    eps = counit(M, win)
    assert eps.validate() == []
    assert is_quasi_iso(eps, win)


def test_counit_cone_acyclic_e1_f1():
    # the round trip on the rank-one free module, seen through the cone
    M = free_module(S_algebra(1), [(0, 0)])
    win = standard_window(M)
    eps = counit(M, win)
    assert not cohomology(cone(eps), win)


def test_unit_on_trivial_target():
    N = free_module(T_algebra(1), [(0, 0)])
    win = standard_window(N)
    eta = unit(N, win)
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
        eps = counit(M, win)
        assert eps.validate() == []
        assert is_quasi_iso(eps, win)
        N = random_module(T, rng, max_gens=3)
        win = standard_window(N)
        eta = unit(N, win)
        assert eta.validate() == []
        assert is_quasi_iso(eta, win)


def reference_koszul_terms(exp, B, d_sign: int, act_ext: bool):
    """The monomials and terms of ``_koszul_image`` as it built them before
    its one-key sort: the parts concatenated in monomial order, stacked and
    lexsorted by (row, col).  d's values are widened first: they may be
    unsigned, and NumPy refuses -1 on an unsigned dtype."""
    mons = [B.one()] + [B.gen_monomial(not act_ext, i) for i in range(B.f)]
    parts = [(*exp.d[:2], exp.d[2].astype(np.int64) * d_sign % B.p)] + [exp.action(act_ext, i) for i in range(B.f)]
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


def test_koszul_images_past_the_int32_key_bound():
    # F of S e1 -> S e0 (by x0) over S(3, 3) cut at -128: 93,665 generators,
    # and f odd, so d enters negated; G of the free T(16, 16)-module: 65,536.
    # Keys row * n + col pass 2^31 unless the int32 rows are widened first.
    S, T = make_algebra("S", 3, 3, 5), make_algebra("T", 16, 16, 3)
    M = SemifreeDgModule(S, [(1, -2), (0, 0)], *nested_terms(S, {0: {1: {((1, 0, 0), 0): 1}}}))
    for image, sign, act_ext in ((functor_F(M, -128), -1, False), (functor_G(free_module(T, [(0, 0)])), 1, True)):
        assert len(image.expansion) > 46_341
        mons, terms = reference_koszul_terms(image.expansion, image.module.algebra, sign, act_ext)
        assert list(image.module.mons) == mons and np.array_equal(image.module.terms, terms)


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
    """When the round trip builds a trial's unit, the counit's map, F(M),
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

    def counit_watched(M, window):
        eps = counit(M, window)
        watch(eps.terms)
        return eps

    def unit_watched(N, window):
        alive.append(sum(ref() is not None for ref in watched))
        return unit(N, window)

    monkeypatch.setattr(lkd, "functor_F", watching(lkd.functor_F))
    monkeypatch.setattr(lkd, "functor_G", watching(lkd.functor_G))
    monkeypatch.setattr(suites, "counit", counit_watched)
    monkeypatch.setattr(suites, "unit", unit_watched)
    results = suites.run_verify("round-trip", Config(e=2, f=2, p=3, trials=3, seed=2024))["sections"][0]["results"]
    assert [r["verdict"] for r in results] == ["pass"] * 6
    assert len(watched) > 20 and alive == [0, 0, 0]


def test_the_unit_verdict_holds_no_second_copy_of_its_target():
    """is_quasi_iso on the unit of the e = f = 4 round trip, trial 0 of seed
    2024, allocates at its peak less than cohomology(cone(eta)) on the same
    window plus half the bytes of F(G(N))'s terms: the expansion of the cone
    sets both peaks, and the verdict makes no further copy of the target's
    terms (about 5.98 MB against 0.56 MB of target terms; one more copy
    would add the whole 0.56).  The verdict is measured first, so its peak
    also holds the tables and blocks it caches.  tracemalloc counts the
    bytes exactly."""
    import tracemalloc

    def peak(run):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = run()
            return tracemalloc.get_traced_memory()[1] - base, result
        finally:
            tracemalloc.stop()

    rng = stream(2024, "round-trip:0")
    random_module(S_algebra(4, 3), rng, max_gens=4)
    N = random_module(T_algebra(4, 3), rng, max_gens=4)
    win = standard_window(N)
    eta = unit(N, win)
    verdict, passed = peak(lambda: is_quasi_iso(eta, win))
    whole, table = peak(lambda: cohomology(cone(eta), win))
    assert passed and not table
    assert eta.target.terms.nbytes > 400_000
    assert verdict < whole + eta.target.terms.nbytes // 2


def _round_trip_maps(f, p, trials):
    """The counit and unit of a few random modules, with their windows, and
    identity and zero maps of the same modules."""
    for trial in range(trials):
        rng = stream(24, (p, f, trial))
        M, N = random_module(S_algebra(f, p), rng, max_gens=3), random_module(T_algebra(f, p), rng, max_gens=3)
        for X, build in ((M, counit), (N, unit)):
            win = standard_window(X)
            yield build(X, win), win
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


def _restricted(phi: DgMap, keep_source, keep_target) -> DgMap:
    """phi between the generators of its source and target where the masks
    hold, the terms among them kept and renumbered in order."""
    S, T = (
        SemifreeDgModule(M.algebra, M.degs[k], *_kept(M.mons, M.terms, k, k)) for M, k in ((phi.source, keep_source), (phi.target, keep_target))
    )
    return DgMap(S, T, *_kept(phi.mons, phi.terms, keep_source, keep_target))


def _rows_kept(phi: DgMap, keep_source, keep_target) -> bool:
    """Whether every row the validate() of phi on the kept sources joins
    lies among the kept generators: the source's d out of the kept
    sources, phi out of them and out of the sources their d reaches, and
    the target's d out of the generators phi names from them."""
    S, T, (src, tgt) = phi.source, phi.target, phi.terms[:2]
    out = S.terms[1, keep_source[S.terms[0]]]
    reached = keep_source.copy()
    reached[out] = True
    named = np.zeros(T.rank, dtype=bool)
    named[tgt[keep_source[src]]] = True
    return bool(keep_source[reached].all() and keep_target[tgt[reached[src]]].all() and keep_target[T.terms[1, named[T.terms[0]]]].all())


def _failures(phi: DgMap, source_ids, target_ids):
    """The (source, target) generator pairs phi.validate() names, renumbered."""
    words = [issue.split() for issue in phi.validate()]  # "... from gen k to gen m"
    return [(int(source_ids[int(w[-4])]), int(target_ids[int(w[-1])])) for w in words]


def _flipped(phi: DgMap, t: int) -> DgMap:
    """phi with the coefficient of term t doubled mod p."""
    terms = phi.terms.copy()
    terms[3, t] = terms[3, t] * 2 % phi.source.algebra.p
    return DgMap(phi.source, phi.target, phi.mons, terms)


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_the_window_cut_maps_agree_with_the_whole_range_maps(f, p):
    """counit and unit build their images only on what the verdict reads;
    ``round_trip_reference`` builds them whole.  The counit is the
    reference's on the sources at or above jcut + 2, a dg-submodule, and
    the unit the reference's on the target generators it keeps, the
    reference's above the least of them; every row validate joins from
    the kept sources lies among the kept generators.  On the standard
    window, a window whose j0 lies below the module's generators and one
    whose j0 lies above them, the cones on the window are equal, the map
    and the reference's part pass validate, and doubling one coefficient
    of a source at or above jcut + 2 makes validate name the same failing
    generators on the map as on the reference's kept sources."""
    flips = Counter()
    for trial in range(3):
        rng = stream(26, (p, f, trial))
        M, N = random_module(S_algebra(f, p), rng, max_gens=3), random_module(T_algebra(f, p), rng, max_gens=3)
        for X, build, reference in ((M, counit, round_trip_reference.counit), (N, unit, round_trip_reference.unit)):
            lo, hi = X.degs[:, 1].min(), X.degs[:, 1].max()
            win = standard_window(X)
            for w in (win, Window(win.i0, win.i1, lo - 6, hi), Window(win.i0, win.i1, hi + 2, hi + 8)):
                phi, whole = build(X, w), reference(X, functor_jcut(w, f))
                keep_source = np.ones(whole.source.rank, dtype=bool)
                keep_target = np.ones(whole.target.rank, dtype=bool)
                if build is counit:
                    keep_source = whole.source.degs[:, 1] >= functor_jcut(w, f) + 2
                else:
                    keep_target = whole.target.degs[:, 1] >= min(phi.target.degs[:, 1].tolist(), default=np.inf)
                assert _rows_kept(whole, keep_source, keep_target)
                part = _restricted(whole, keep_source, keep_target)
                assert (phi.source, phi.target, phi.mons) == (part.source, part.target, part.mons)
                assert np.array_equal(phi.terms, part.terms)
                assert cone(_on_range(phi, w.j0, w.j1)) == cone(_on_range(whole, w.j0, w.j1))
                assert phi.validate() == [] and part.validate() == []
                # term t of phi is term at[t] of the reference, and generator k of phi its generator ids[k]
                at = (keep_source[whole.terms[0]] & keep_target[whole.terms[1]]).nonzero()[0]
                source_ids, target_ids = keep_source.nonzero()[0], keep_target.nonzero()[0]
                # flips of terms out of sources at or above jcut + 2: all of the counit's
                high = (phi.source.degs[phi.terms[0], 1] >= functor_jcut(w, f) + 2).nonzero()[0]
                for t in high[:: max(1, len(high) // 3)].tolist():
                    got = _failures(_flipped(phi, t), source_ids, target_ids)
                    want = _failures(_flipped(whole, at[t]), range(whole.source.rank), range(whole.target.rank))
                    assert got == [(k, m) for k, m in want if keep_source[k]]
                    flips[build.__name__, bool(got)] += 1
    # a counit flip stays a chain map when it maps to a cycle of M a source
    # that no source generator's d names; every unit flip there fails
    assert flips["counit", True] > 20 and flips["unit", True] > 20 and not flips["unit", False]


def test_the_unit_is_checked_on_every_source_generator():
    """eta into F(G(N)) cut at c is the projection of a chain map, so it is
    a chain map on all of N and validate checks every source generator,
    also below jcut + 2, where a window above N's generators puts them:
    doubling one coefficient of eta at such a generator, in a trial where
    that breaks the chain condition, makes validate name it."""
    for trial in range(8):
        N = random_module(T_algebra(2, 3), stream(2024, ("unit-checked", trial)), max_gens=3)
        hi = int(N.degs[:, 1].max())
        w = Window(-4, 4, hi + 2, hi + 8)
        eta = unit(N, w)
        low = (N.degs[eta.terms[0], 1] < functor_jcut(w, 2) + 2).nonzero()[0]
        broken = [(int(eta.terms[0, t]), issues) for t in low.tolist() if (issues := _flipped(eta, t).validate())]
        if broken:
            break
    assert eta.validate() == [] and broken
    k, issues = broken[0]
    assert any(issue.startswith(f"chain condition fails from gen {k} ") for issue in issues)


def _same_expansion(got: SemifreeDgModule, want: SemifreeDgModule, window: Window) -> bool:
    """Whether two modules expand alike on the window: equal degs, equal d."""
    a, b = (Expansion(X, window.j0, window.j1) for X in (got, want))
    return a.degs.tolist() == b.degs.tolist() and [x.tolist() for x in a.d] == [x.tolist() for x in b.d]


def _recorder(monkeypatch, owner, name):
    """Wrap ``owner.name``; each call appends (args, result) to the list returned."""
    calls, real = [], getattr(owner, name)

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, record)
    return calls


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_the_exact_cuts_expand_as_the_margin_cuts(f, p, monkeypatch):
    """compat, exactness, shifts and the extend-restrict unit build each
    image only down (or up) to the degree its window reads;
    ``margin_cut_reference`` builds them at the old margin.  Every image a
    suite takes the cohomology of expands on its window as the reference's
    does, entry for entry, and holds no more generators.  The suites run on
    random modules (not the acyclic ones exactness draws) on the standard
    window, a window whose j0 lies below the module's generators and one
    whose j0 lies above them; the extend-restrict window is fixed by the
    suite, so the unit is also built at the offset windows' j1 directly."""
    homdual_calls = _recorder(monkeypatch, homdual, "cohomology")
    suite_calls = _recorder(monkeypatch, suites, "cohomology")
    units = _recorder(monkeypatch, suites, "restriction_unit")
    verdicts = _recorder(monkeypatch, suites, "is_quasi_iso")
    drawn = {}
    monkeypatch.setattr(suites, "random_acyclic", lambda A, rng: drawn[A.kind])
    monkeypatch.setattr(suites, "random_module", lambda A, rng, max_gens: drawn[A.kind])
    pairs = []  # (built, reference, window)
    for trial in range(3):
        rng = stream(27, (p, f, trial))
        M, N = random_module(S_algebra(f, p), rng, max_gens=3), random_module(T_algebra(f, p), rng, max_gens=3)
        NE = random_module(make_algebra("T", f + 1, f, p), rng, max_gens=3)
        drawn.update(S=M, T=N)
        lo, hi = M.degs[:, 1].min(), M.degs[:, 1].max()
        win = standard_window(M)
        for w in (None, Window(win.i0, win.i1, lo - 6, hi), Window(win.i0, win.i1, hi + 2, hi + 8)):
            cfg = suites.Config(e=f, f=f, p=p, trials=1, window=w)
            W = w or win
            del homdual_calls[:], suite_calls[:]
            homdual.check_compat(M, w)
            left, right = margin_cut_reference.compat_modules(M, w or homdual.compat_window(M))
            pairs += [(got, want, window) for ((got, window), _), want in zip(homdual_calls, (left, right))]
            suites.run_verify("exactness", cfg)
            (got, window), _ = suite_calls[0]
            assert window == W
            pairs.append((got, margin_cut_reference.exactness_module(M, W), W))
            del suite_calls[:]
            suites.run_verify("shifts", cfg)
            kappas = [args for args, _ in suite_calls if args[0].algebra.kind == "T"]
            assert len(kappas) == 10
            for m, (first, after) in zip(range(-2, 3), zip(kappas[::2], kappas[1::2])):
                assert after[1] == W
                pairs += [(got, want, window) for (got, window), want in zip((first, after), margin_cut_reference.shifts_modules(M, W, m))]
        drawn.update(T=NE, Q=random_module(make_algebra("Q", f + 1, f, p), rng, max_gens=3))
        suites.run_verify("fbot", suites.Config(e=f + 1, f=f, p=p, trials=1))
        ((unit_of, e, _), eta), ((phi, W), _) = units[-1], verdicts[-1]
        assert unit_of is NE and phi is eta
        lo, hi = NE.degs[:, 1].min(), NE.degs[:, 1].max()
        for w in (W, Window(W.i0, W.i1, lo - 6, hi), Window(W.i0, W.i1, hi + 2, hi + 8)):
            got = eta if w is W else restriction_unit(NE, e, w.j1)
            want = margin_cut_reference.extend_restrict_unit(NE, e, w)
            pairs += [(got.target, want.target, w), (cone(_on_range(got, w.j0, w.j1)), cone(_on_range(want, w.j0, w.j1)), w)]
    assert all(_same_expansion(got, want, w) for got, want, w in pairs)
    assert all(got.rank <= want.rank for got, want, _ in pairs)
    assert sum(got.rank for got, _, _ in pairs) < sum(want.rank for _, want, _ in pairs)


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_the_restriction_unit_at_the_window_is_the_margin_unit_restricted(f, p):
    """The extend-restrict unit cut at its window's j1 is the margin-cut
    unit of ``margin_cut_reference`` restricted to R's generators at or
    below j1: T's d never raises internal degree, so every row validate
    joins lies among them (eta names R's generators at most max j(N) =
    j1 - 2), and the window's cones are equal."""
    dropped = 0
    for trial in range(3):
        N = random_module(make_algebra("T", f + 1, f, p), stream(28, (p, f, trial)), max_gens=3)
        W = Window.hull(N.gens).enlarge(1, 2)
        eta, whole = restriction_unit(N, f + 1, W.j1), margin_cut_reference.extend_restrict_unit(N, f + 1, W)
        keep_source, keep_target = np.ones(N.rank, dtype=bool), whole.target.degs[:, 1] <= W.j1
        assert _rows_kept(whole, keep_source, keep_target)
        part = _restricted(whole, keep_source, keep_target)
        assert (eta.source, eta.target, eta.mons) == (part.source, part.target, part.mons)
        assert np.array_equal(eta.terms, part.terms)
        assert cone(_on_range(eta, W.j0, W.j1)) == cone(_on_range(whole, W.j0, W.j1))
        assert eta.validate() == [] and whole.validate() == [] and is_quasi_iso(eta, W)
        dropped += int((~keep_target).sum())
    assert dropped
