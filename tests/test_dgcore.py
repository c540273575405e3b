import hashlib
import json
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finite_reference as dense_ref
from dense_reference import rank as dense_rank
from dict_reference import _ext_sign, dg_map, elt_bidegree, elt_d, elt_mul, module, mul_monomials, to_nested
from koszulkit import dgmodule
from koszulkit.algebra import KINDS, MAX_E, make_algebra, monomial_bidegree, monomials_by_internal
from koszulkit.bigraded import BigradedDims, Window
from koszulkit.dgmodule import (
    DgMap,
    Expansion,
    FiniteDgModule,
    SemifreeDgModule,
    _column_cohomology,
    cohomology,
    cone,
    deserialize_module,
    expansion_to_finite,
    free_module,
    identity_map,
    is_quasi_iso,
    serialize_module,
)
from koszulkit.homdual import expand_T_module, k_linear_dual_T
from koszulkit.linalg import MAX_MODULUS, is_odd_prime, rank as mat_rank
from koszulkit.samples import random_module, stream
from koszulkit.suites import Config, run_verify


def zero_map(source: SemifreeDgModule, target: SemifreeDgModule) -> DgMap:
    return DgMap(source, target)


def expansion_dims(module: SemifreeDgModule, window: Window) -> BigradedDims:
    exp = Expansion(module, window.j0, window.j1)
    return BigradedDims(Counter(map(tuple, exp.degs.tolist()))).restrict(window)


def direct_sum(M: SemifreeDgModule, N: SemifreeDgModule) -> SemifreeDgModule:
    off = M.rank
    diff = to_nested(M)
    for k, row in to_nested(N).items():
        diff[k + off] = {l + off: e for l, e in row.items()}
    return module(M.algebra, M.gens + N.gens, diff)


def _matrix(triples, p=5):
    """A finite module's term arrays (rows, cols, vals) from (row, col,
    coeff) triples, coeff reduced mod p."""
    rows, cols, vals = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return rows, cols, vals % p


def koszul_complex_f1(p=5):
    """Two-term Koszul complex over k[x]: resolves the trivial module."""
    S = make_algebra("S", 1, 1, p)
    return module(S, [(0, 0), (1, -2)], {1: {0: {((1,), 0): 1}}})


# -- algebras ---------------------------------------------------------------

def test_make_algebra_rejects_bad_input():
    with pytest.raises(ValueError):
        make_algebra("T", 1, 2, 5)  # f > e
    with pytest.raises(ValueError):
        make_algebra("S", 1, 1, 9)  # not prime
    with pytest.raises(ValueError):
        make_algebra("X", 1, 1, 5)


def test_exterior_rank_one():
    T = make_algebra("T", 1, 1, 5)
    theta = {((), 1): 1}
    assert elt_mul(T, theta, theta) == {}
    assert elt_bidegree(T, theta) == (-1, 2)


def test_sym_generator_bidegree():
    S = make_algebra("S", 1, 1, 5)
    assert elt_bidegree(S, {((1,), 0): 1}) == (2, -2)
    R = make_algebra("R", 1, 1, 5)
    assert elt_bidegree(R, {((1,), 0): 1}) == (0, -2)


def test_q_with_e_equals_f_has_zero_differential():
    Q = make_algebra("Q", 1, 1, 5)
    assert not Q.has_differential
    assert elt_d(Q, {((), 1): 1}) == {}


def _kernel_products(A, left, right):
    """Every product left[a] . right[b] through ``dgmodule._products``, the
    array kernel validate runs: {(a, b): (monomial, sign)}, sign 0 where
    the product vanishes."""
    a, b = np.arange(len(left)), np.arange(len(right))
    left_terms, right_terms = np.array([a, 0 * a, a, 0 * a + 1]), np.array([0 * b, b, len(left) + b, 0 * b + 1])
    mons = dgmodule._arrays(left + right, A.n_sym)
    (k, m, mon, sign), (exps, masks) = dgmodule._products(A, left_terms, right_terms, mons)
    mons = list(zip(map(tuple, exps.tolist()), masks.tolist()))
    return {(i, j): (mons[u], c) for i, j, u, c in zip(k.tolist(), m.tolist(), mon.tolist(), sign.tolist())}


def _kernel_mul(A, x, y):
    """``elt_mul`` through the array kernel."""
    xs, ys, out = list(x), list(y), {}
    for (a, b), (mon, sign) in _kernel_products(A, xs, ys).items():
        out[mon] = (out.get(mon, 0) + sign * x[xs[a]] * y[ys[b]]) % A.p
    return {mon: c for mon, c in out.items() if c}


def _kernel_d(A, x):
    """``elt_d`` through the array kernel's ``dgmodule._d_A``."""
    mons, out = list(x), {}
    which, exps, masks, odd = dgmodule._d_A(A, *dgmodule._arrays(mons, A.n_sym))
    for u, e, mask, o in zip(which.tolist(), exps.tolist(), masks.tolist(), odd.tolist()):
        mon = (tuple(e), mask)
        out[mon] = (out.get(mon, 0) + (-1) ** o * x[mons[u]]) % A.p
    return {mon: c for mon, c in out.items() if c}


def test_q_differential_squares_to_zero():
    Q = make_algebra("Q", 3, 1, 5)
    mon = {((0, 0), 0b110): 1}  # eta_2 eta_3, both hit by d
    for d in (elt_d, _kernel_d):
        once = d(Q, mon)
        assert once
        assert d(Q, once) == {}


def test_exterior_sign_antisymmetry():
    T = make_algebra("T", 2, 2, 5)
    t1, t2 = {((), 1): 1}, {((), 2): 1}
    for mul in (elt_mul, _kernel_mul):
        ab = mul(T, t1, t2)
        ba = mul(T, t2, t1)
        assert ab == {((), 3): 1}
        assert ba == {((), 3): 4}  # = -1 mod 5


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS), e=st.one_of(st.just(MAX_E), st.integers(0, MAX_E)), data=st.data())
def test_array_kernel_matches_the_scalar_reference(kind, e, data):
    """Pair by pair, on ext masks up to bit MAX_E - 1: products, their
    vanishing and wedge signs from ``_products`` (left products) and from
    the weight masks of right products (``_build_blocks``), and ``_d_A``
    against ``elt_d``."""
    A = make_algebra(kind, e, data.draw(st.integers(0, e), label="f"), 5)
    ext = st.sets(st.integers(0, A.n_ext - 1)).map(lambda bits: sum(1 << b for b in bits)) if A.n_ext else st.just(0)
    mono = st.tuples(st.tuples(*[st.integers(0, 3)] * A.n_sym), ext)
    left, right = (data.draw(st.lists(mono, min_size=1, max_size=6), label=side) for side in ("left", "right"))
    got = _kernel_products(A, left, right)
    assert sorted(got) == [(a, b) for a in range(len(left)) for b in range(len(right))]
    n = A.n_ext
    x, y = (np.array([mask for _, mask in mons], dtype=np.int64) for mons in (left, right))
    right_odd = dgmodule._parity(y[None, :] & dgmodule._weights(x, n, False)[:, None], n)
    for (a, b), (mon, sign) in got.items():
        want = mul_monomials(A, left[a], right[b])
        assert (mon, sign) == want if want else sign == 0
        assert _ext_sign(right[b][1], left[a][1]) == (0 if x[a] & y[b] else 1 - 2 * right_odd[a, b])  # right[b] . left[a]
    for mons in (left, right):
        for m in mons:
            assert _kernel_d(A, {m: 1}) == elt_d(A, {m: 1})


def test_monomial_enumeration_matches_bidegrees():
    for kind, e, f in (("S", 2, 2), ("T", 3, 3), ("Q", 3, 1), ("P", 3, 1)):
        alg = make_algebra(kind, e, f, 5)
        for bd, mons in monomials_by_internal(alg, -8, 8).items():
            assert len(set(mons)) == len(mons)
            for mon in mons:
                assert monomial_bidegree(alg, mon) == bd


# -- semifree modules -------------------------------------------------------

def test_free_module_validates():
    T = make_algebra("T", 1, 1, 5)
    assert free_module(T, [(0, 0)]).validate() == []


def test_wrong_entry_bidegree_reported():
    S = make_algebra("S", 1, 1, 5)
    bad = module(S, [(0, 0), (0, 0)], {1: {0: {((1,), 0): 1}}})
    issues = bad.validate()
    assert issues and "(1,0)" in issues[0].replace(" ", "")


def test_koszul_complex_validates_and_resolves():
    K = koszul_complex_f1()
    assert K.validate() == []
    assert cohomology(K, Window(-2, 4, -8, 2)).to_triples() == [[0, 0, 1]]


def test_d_squared_violation_detected():
    Q = make_algebra("Q", 2, 1, 5)
    # d(gen) = eta_2 gen has the right bidegree, but d(eta_2) = z != 0
    bad = module(Q, [(0, 0), (-2, 2)], {1: {0: {((0,), 2): 1}}})
    issues = bad.validate()
    assert issues and "d^2" in issues[0]


def test_cohomology_of_free_T_module():
    T = make_algebra("T", 1, 1, 5)
    table = cohomology(free_module(T, [(0, 0)]), Window(-2, 2, -4, 4))
    assert table.to_triples() == [[-1, 2, 1], [0, 0, 1]]


def test_cone_of_identity_acyclic():
    K = koszul_complex_f1()
    c = cone(identity_map(K))
    assert c.validate() == []
    assert not cohomology(c, Window(-3, 5, -8, 4))


def test_cone_of_zero_is_direct_sum_of_tables():
    T = make_algebra("T", 2, 2, 5)
    M = free_module(T, [(0, 0)])
    N = free_module(T, [(1, -2)])
    c = cone(zero_map(M, N))
    W = Window(-4, 4, -6, 6)
    lhs = expansion_dims(c, W)
    rhs = BigradedDims(Counter(expansion_dims(N, W).table) + Counter(expansion_dims(M.shift(1, 0), W).table))
    assert lhs == rhs


def test_cone_rejects_non_chain_map():
    # cone does not check its map; validate() is what rejects this one
    K = koszul_complex_f1()
    # x * id is homogeneous of wrong bidegree as a degree-(0,0) map
    bad = dg_map(K, K, {0: {0: {((1,), 0): 1}}})
    assert bad.validate()


def test_shift_respects_cohomology():
    K = koszul_complex_f1()
    W = Window(-4, 6, -10, 6)
    base = cohomology(K, W)
    for a, b in [(1, 0), (0, 2), (-1, 2), (2, -2)]:
        shifted = K.shift(a, b)
        assert shifted.validate() == []
        assert cohomology(shifted, W) == base.shift(a, b).restrict(W)


def test_is_quasi_iso_identity_and_zero():
    K = koszul_complex_f1()
    W = Window(-1, 2, -4, 2)
    assert is_quasi_iso(identity_map(K), W)
    assert not is_quasi_iso(zero_map(K, K), W)


@pytest.mark.parametrize("W", [Window(-1, 2, -4, 2), Window(-3, 3, -6, 4)])
def test_is_quasi_iso_rejects_a_map_that_is_no_chain_map(W):
    # the identity on e0 alone: its "cone" has no cohomology on W, but
    # phi(d e1) = x e0 while d(phi e1) = 0, so it is no chain map
    K = koszul_complex_f1()
    bad = dg_map(K, K, {0: {0: {((0,), 0): 1}}})
    assert bad.validate() == ["chain condition fails from gen 1 to gen 0"]
    assert not cohomology(cone(bad), W)
    assert is_quasi_iso(bad, W) is False


def test_each_map_verdict_of_the_suites_builds_one_cone(monkeypatch):
    # the counit, unit, T-biduality and extend-restrict verdicts each take
    # the chain check and the cohomology from a single cone(phi)
    from koszulkit import suites

    built, verdicts = [], []

    def counted_cone(phi):
        built.append(phi)
        return cone(phi)

    def recorded(phi, window):
        verdicts.append(phi)
        return is_quasi_iso(phi, window)

    monkeypatch.setattr(dgmodule, "cone", counted_cone)
    monkeypatch.setattr(suites, "is_quasi_iso", recorded)
    cfg = Config(e=2, f=2, p=3, trials=2, seed=5)
    for run, per_trial in ((suites.suite_round_trip, 2), (suites.suite_duality_oracle, 1), (suites.suite_fbot, 1)):
        verdicts.clear()
        assert all(r["verdict"] == "pass" for r in run(cfg))
        assert len(verdicts) == per_trial * cfg.trials
        assert [sum(c is phi for c in built) for phi in verdicts] == [1] * len(verdicts)


def test_euler_characteristic_invariance_random():
    # chi per internal degree agrees for quasi-isomorphic modules
    T = make_algebra("T", 2, 2, 5)
    for trial in range(5):
        rng = stream(3, trial)
        M = random_module(T, rng, max_gens=3)
        c = cone(identity_map(M))
        W = Window.hull(M.gens).enlarge(1, 2)
        hm = cohomology(M, W)
        hc = cohomology(direct_sum(M, c), W)  # quasi-isomorphic to M
        for j in range(W.j0, W.j1 + 1):
            chi_m = sum((-1) ** i * hm[(i, j)] for i in range(W.i0, W.i1 + 1))
            chi_c = sum((-1) ** i * hc[(i, j)] for i in range(W.i0, W.i1 + 1))
            assert chi_m == chi_c


def test_cone_long_exact_sequence_bound():
    # dim H(cone) <= dim H(N) + dim H(M[1]) at every bidegree
    S = make_algebra("S", 2, 2, 5)
    from koszulkit.samples import random_chain_map

    for trial in range(6):
        rng = stream(4, trial)
        M = random_module(S, rng, max_gens=2)
        N = random_module(S, rng, max_gens=2)
        phi = random_chain_map(S, M, N, rng)
        c = cone(phi)
        W = Window.hull(M.gens + N.gens).enlarge(1, 2)
        hc, hn, hm = cohomology(c, W), cohomology(N, W), cohomology(M.shift(1, 0), W)
        for bd in hc:
            assert hc[bd] <= hn[bd] + hm[bd]


def test_validate_dual_over_every_algebra():
    for kind, e, f in (("S", 2, 2), ("T", 3, 3), ("Q", 3, 1)):
        alg = make_algebra(kind, e, f, 3)
        for trial in range(4):
            M = random_module(alg, stream(5, (kind, trial)), max_gens=3)
            D = M.dualize()
            assert D.validate() == []
            assert D.dualize() == M


# -- ranks only in the reported band -------------------------------------------

def reference_column_cohomology(degs: np.ndarray, d, window: Window, p: int) -> BigradedDims:
    """The all-i loop: ranks every map C^{i,j} -> C^{i+1,j} with j in the window,
    by the dense reference row reduction, not the kernel under test."""
    out = BigradedDims()
    rows, cols, vals = d
    if len(rows):
        code = degs[:, 0] << 32 | degs[:, 1] & 0xFFFFFFFF  # one int per bidegree
        live = code[cols] - code[rows] == 1 << 32
        rows, cols, vals = rows[live], cols[live], vals[live]
    # cells: runs of one bidegree, with their entries as slices of d
    bds = list(map(tuple, degs.tolist()))
    bounds = [n for n in range(len(bds)) if n == 0 or bds[n] != bds[n - 1]] + [len(bds)]
    ebounds = rows.searchsorted(bounds).tolist()
    cells = {bds[b]: c for c, b in enumerate(bounds[:-1])}
    ranks = {}
    for (i, j), c in cells.items():
        t = cells.get((i + 1, j))
        if t is None or not window.j0 <= j <= window.j1:
            continue
        a = np.zeros((bounds[c + 1] - bounds[c], bounds[t + 1] - bounds[t]), dtype=np.int64)
        e = slice(ebounds[c], ebounds[c + 1])
        a[rows[e] - bounds[c], cols[e] - bounds[t]] = vals[e]
        ranks[(i, j)] = dense_rank(a, p)
    for (i, j), c in cells.items():
        h = bounds[c + 1] - bounds[c] - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
        if h and window.contains((i, j)):
            out[(i, j)] = h
    return out


def _finite_input(fin: FiniteDgModule):
    """A finite module's bidegrees in lexicographic order and its d with
    indices in that order, sorted by (row, col): the input of
    ``_column_cohomology``."""
    order = np.lexsort((fin.basis_degs[:, 1], fin.basis_degs[:, 0]))
    place = order.argsort()
    rows, cols, vals = fin.d
    rows, cols = place[rows], place[cols]
    by = np.lexsort((cols, rows))
    return fin.basis_degs[order], (rows[by], cols[by], vals[by])


BAND_ALGEBRAS = [
    ("S", 1, 1, 3), ("S", 2, 2, 5), ("S", 3, 2, 3), ("R", 2, 1, 3), ("R", 2, 2, 5),
    ("T", 2, 2, 3), ("T", 3, 2, 5), ("T", 3, 3, 3), ("Q", 2, 1, 3), ("Q", 3, 2, 5), ("Q", 3, 1, 3),
]


def _i_range(degs):
    return (int(degs[:, 0].min()), int(degs[:, 0].max())) if len(degs) else (0, 0)


@settings(max_examples=200, deadline=None)
@given(alg=st.sampled_from(BAND_ALGEBRAS), seed=st.integers(0, 10**6), data=st.data())
def test_band_cohomology_matches_all_i_reference(alg, seed, data):
    A = make_algebra(*alg)
    M = random_module(A, stream(seed, "band"), max_gens=4)
    hull = Window.hull(M.gens).enlarge(2, 6)
    j0 = data.draw(st.integers(hull.j0, hull.j1), label="j0")
    j1 = data.draw(st.integers(j0, j0 + 6), label="j1")
    exp = Expansion(M, j0, j1)
    lo, hi = _i_range(exp.degs)
    i0 = data.draw(st.integers(lo - 3, hi + 3), label="i0")
    i1 = data.draw(st.one_of(st.just(i0), st.integers(i0, hi + 3)), label="i1")
    W = Window(i0, i1, j0, j1)
    assert _column_cohomology(exp.degs, exp.d, W, A.p) == reference_column_cohomology(exp.degs, exp.d, W, A.p)
    assert cohomology(M, W) == reference_column_cohomology(exp.degs, exp.d, W, A.p)


@pytest.mark.parametrize("alg", [("S", 2, 2, 5), ("R", 2, 1, 3), ("T", 3, 2, 3), ("Q", 3, 2, 5)])
def test_band_cohomology_on_every_i_window(alg):
    # every i-window over a column's range and one past it: cuts at either
    # end, one-row windows, and windows holding no basis element
    A = make_algebra(*alg)
    for trial in range(4):
        M = random_module(A, stream(6, (alg, trial)), max_gens=4)
        hull = Window.hull(M.gens).enlarge(1, 4)
        exp = Expansion(M, hull.j0, hull.j1)
        lo, hi = _i_range(exp.degs)
        for i0 in range(lo - 2, hi + 3):
            for i1 in range(i0, hi + 3):
                W = Window(i0, i1, hull.j0, hull.j1)
                want = reference_column_cohomology(exp.degs, exp.d, W, A.p)
                assert _column_cohomology(exp.degs, exp.d, W, A.p) == want
        far = Window(lo - 9, lo - 5, hull.j0, hull.j1)
        assert not _column_cohomology(exp.degs, exp.d, far, A.p)
        assert not cohomology(M, Window(lo, hi, hull.j1 + 40, hull.j1 + 42))


@settings(max_examples=100, deadline=None)
@given(
    alg=st.sampled_from([("T", 1, 1, 3), ("T", 2, 2, 5), ("T", 3, 2, 3), ("T", 3, 3, 5)]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_band_cohomology_of_finite_modules(alg, seed, data):
    T = make_algebra(*alg)
    fin = expand_T_module(random_module(T, stream(seed, "band-finite"), max_gens=4))
    degs, d = _finite_input(fin)
    lo, hi = _i_range(degs)
    jlo, jhi = (int(degs[:, 1].min()), int(degs[:, 1].max())) if len(degs) else (0, 0)
    i0 = data.draw(st.integers(lo - 2, hi + 2), label="i0")
    i1 = data.draw(st.one_of(st.just(i0), st.integers(i0, hi + 2)), label="i1")
    j0 = data.draw(st.integers(jlo - 2, jhi + 2), label="j0")
    j1 = data.draw(st.one_of(st.just(j0), st.integers(j0, jhi + 2)), label="j1")
    W = Window(i0, i1, j0, j1)
    assert fin.cohomology(W) == reference_column_cohomology(degs, d, W, T.p)


@pytest.mark.parametrize(
    "degs, d, eliminated",
    [
        ([(0, 0), (1, 0), (1, 0), (1, 0)], ([0, 0], [1, 3], [1, 2]), 0),  # one row, rank 1
        ([(0, 0), (1, 0), (1, 0), (1, 0)], ([0, 0], [1, 3], [3, 6]), 0),  # one row, zero mod 3
        ([(0, 0), (1, 0), (1, 0), (1, 0)], ([], [], []), 0),  # one row, no entries
        ([(0, 0), (0, 0), (1, 0), (2, 0)], ([0, 1, 2], [2, 2, 3], [2, 1, 3]), 0),  # one column, then 1 x 1
        ([(0, 0)] * 3 + [(1, 0)] * 3, ([0, 0, 1, 1], [3, 4, 3, 4], [1, 1, 1, 1]), 1),  # 2 x 2 ones in 3 x 3
        ([(0, 0), (0, 0), (1, 0), (1, 0)], ([0, 1], [2, 3], [1, 1]), 0),  # 2 x 2 diagonal
        # 3 x 4: row 2 peels through column 5 and leaves a 2 x 2 core of rank 2
        ([(0, 0)] * 3 + [(1, 0)] * 4, ([0, 0, 1, 1, 2, 2], [3, 4, 3, 4, 5, 6], [1, 1, 1, 2, 1, 1]), 1),
        # 4 x 4 staircase, peeled from both ends in two rounds
        ([(0, 0)] * 4 + [(1, 0)] * 4, ([0, 0, 1, 1, 2, 2, 3], [4, 5, 5, 6, 6, 7, 7], [1, 2, 1, 2, 1, 2, 1]), 0),
    ],
)
def test_one_row_or_column_cells_are_ranked_without_elimination(monkeypatch, degs, d, eliminated):
    """Structural pivots rank a one-row or one-column cell, and any cell they
    clear, with no dense cell or ``rank`` call: rank 1 when an entry is
    nonzero mod p and 0 otherwise.  What they leave of a cell is ranked as
    one dense core of its own shape (every core here is 2 x 2)."""
    ranked = []

    def recording_rank(a, p):
        ranked.append(a.shape)
        return mat_rank(a, p)

    monkeypatch.setattr(dgmodule, "mat_rank", recording_rank)
    degs, d, W = np.array(degs), tuple(np.array(x, dtype=np.int64) for x in d), Window(-1, 3, -1, 1)
    assert _column_cohomology(degs, d, W, 3) == reference_column_cohomology(degs, d, W, 3)
    assert ranked == [(2, 2)] * eliminated


def test_no_rank_outside_the_band(monkeypatch):
    # cell (i, j) has dimension i + 1 + 3 j, so the shape of a rank input
    # names its source bidegree.  d sends every element of a cell to one
    # vector of the next cell, whose weights (1s and 2s) sum to 0 mod 3:
    # d^2 = 0, every map has rank 1, and every map but the 1 x 2 one out of
    # (0, 0) is a core that structural pivots leave whole
    T = make_algebra("T", 1, 1, 3)
    dims = {(i, j): i + 1 + 3 * j for j in (0, 2) for i in range(6)}
    start = dict(zip(dims, accumulate(dims.values(), initial=0)))
    degs = [bd for bd, m in dims.items() for _ in range(m)]
    d = [
        (start[i, j] + a, start[i + 1, j] + b, 2 if b < -dims[i + 1, j] % 3 else 1)
        for i, j in dims if i < 5 for a in range(dims[i, j]) for b in range(dims[i + 1, j])
    ]
    fin = FiniteDgModule(T, degs, tuple(np.array(x) for x in zip(*d)))
    h = {(i, j): m - (i < 5) - (i > 0) for (i, j), m in dims.items()}
    source = {(i + 1 + 3 * j, i + 2 + 3 * j): (i, j) for j in (0, 2) for i in range(5)}
    ranked = []

    def recording_rank(a, p):
        ranked.append(source[a.shape])
        return mat_rank(a, p)

    monkeypatch.setattr(dgmodule, "mat_rank", recording_rank)
    seen = set()
    for i0 in range(-1, 7):
        for i1 in range(i0, 7):
            for j0, j1 in ((0, 0), (0, 2), (2, 2), (1, 1)):
                ranked.clear()
                W = Window(i0, i1, j0, j1)
                table = fin.cohomology(W)
                assert all(i0 - 1 <= i <= i1 and j0 <= j <= j1 for i, j in ranked), (W, ranked)
                assert table == reference_column_cohomology(*_finite_input(fin), W, 3)
                assert table.to_triples() == [[i, j, h[i, j]] for i, j in sorted(h) if h[i, j] and W.contains((i, j))]
                seen.update(ranked)
    assert seen == set(source.values()) - {(0, 0)}


# The largest prime below MAX_MODULUS: products of two residues near 2^48.
BIG_PRIME = max(q for q in range(MAX_MODULUS - 64, MAX_MODULUS) if is_odd_prime(q))


def _pattern(kind: str, m: int, n: int, rng) -> list[tuple[int, int]]:
    """Positions of one m x n map's entries."""
    if kind == "ones":  # every row and column full: no structural pivot
        return [(a, b) for a in range(m) for b in range(n)]
    if kind == "cyclic":  # two entries in each row and column of the square part
        s = min(m, n)
        return sorted({(a, b) for a in range(s) for b in (a, (a + 1) % s)})
    if kind == "staircase":  # peeled one step from each end per round
        return [(a, b) for a in range(m) for b in (a, a + 1) if b < n]
    return [(a, b) for a in range(m) for b in range(n) if rng.random() < 0.3]


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, BIG_PRIME]),
    cells=st.dictionaries(
        st.tuples(st.integers(-2, 3), st.integers(0, 2)), st.integers(1, 12), min_size=1, max_size=14
    ),
    kinds=st.lists(st.sampled_from(["ones", "cyclic", "staircase", "sparse"]), min_size=1),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_column_cohomology_matches_dense_rank_on_random_patterns(p, cells, kinds, seed, data):
    """Structural pivots and dense cores agree with dense rank of whole
    cells.  Each cell's first ``split`` elements are the columns of the map
    into it and the rest the rows of the map out of it, so d^2 = 0 for any
    values; each map is a pattern of ``_pattern`` with values that are one
    nonzero constant (rank-deficient cores) or random, some of them 0 mod
    p, and a few entries of other bidegrees are ignored."""
    rng = np.random.default_rng(seed)
    order = sorted(cells)
    start = dict(zip(order, accumulate((cells[bd] for bd in order), initial=0)))
    split = {bd: int(rng.integers(0, cells[bd] + 1)) for bd in order}
    degs = np.array([bd for bd in order for _ in range(cells[bd])], dtype=np.int64)
    entries = {}
    for k, (i, j) in enumerate(order):
        if (i + 1, j) in cells:
            const = int(rng.integers(1, p)) if rng.random() < 0.5 else None
            src, tgt = (i, j), (i + 1, j)
            for a, b in _pattern(kinds[k % len(kinds)], cells[src] - split[src], split[tgt], rng):
                zero = rng.random() < 0.15
                v = p * int(rng.integers(-2, 3)) if zero else const or int(rng.integers(1, p))
                entries[start[src] + split[src] + a, start[tgt] + b] = v
    for _ in range(data.draw(st.integers(0, 3), label="other bidegrees")):
        r, c = (int(x) for x in rng.integers(0, len(degs), 2))
        if tuple(degs[c] - degs[r]) != (1, 0):
            entries.setdefault((r, c), 1)
    keys = sorted(entries)
    d = tuple(np.array(x, dtype=np.int64) for x in ([r for r, _ in keys], [c for _, c in keys], [entries[k] for k in keys]))
    i0 = data.draw(st.integers(-3, 4), label="i0")
    j0 = data.draw(st.integers(-1, 2), label="j0")
    W = Window(i0, data.draw(st.integers(i0, 5), label="i1"), j0, data.draw(st.integers(j0, 3), label="j1"))
    assert _column_cohomology(degs, d, W, p) == reference_column_cohomology(degs, d, W, p)


@pytest.mark.parametrize("p", [251, 257, 65537, BIG_PRIME])
def test_cores_hold_residues_in_the_narrowest_dtype(monkeypatch, p):
    """A 3 x 3 map with no structural pivot, entries near p (one of them
    negative) and its last row the sum of the others mod p, is ranked as one
    core in np.min_scalar_type(p) at rank 2, as dense rank of the whole cell
    says.  At p = 257 the entry 256 would wrap in a uint8 core."""
    r0, r1 = [1 - p, 256 % p, p - 1], [p - 2, 3, p - 1]
    a = [r0, r1, [(x + y) % p for x, y in zip(r0, r1)]]
    assert all(map(all, a))
    dtypes = []

    def recording_rank(core, p):
        dtypes.append(core.dtype)
        return mat_rank(core, p)

    monkeypatch.setattr(dgmodule, "mat_rank", recording_rank)
    degs = np.array([(0, 0)] * 3 + [(1, 0)] * 3)
    d = tuple(np.array(x, dtype=np.int64) for x in ([r for r in range(3) for _ in range(3)], [3, 4, 5] * 3, sum(a, [])))
    W = Window(-1, 2, -1, 1)
    table = _column_cohomology(degs, d, W, p)
    assert table == reference_column_cohomology(degs, d, W, p) and table.to_triples() == [[0, 0, 1], [1, 0, 1]]
    assert dtypes == [np.min_scalar_type(p)] and dtypes[0].itemsize == (1 if p < 256 else 2 if p < 65536 else 4)


# SHA-256 of the JSON list of every table _column_cohomology returns, in
# call order, on trials 0-1 (seed 2024) of every configuration of the C01
# round-trip grid and the C02-C07 suites below: 880 tables, 592 of them
# nonzero.  Recorded with dense rank of whole cells, before structural
# pivots.  A passing report holds only verdicts, so this is what sees a
# wrong rank that both sides of an identity share.
TABLE_SUITES = ("round-trip", "exactness", "duality-oracle", "compat", "fbot")
TABLES_SHA256 = "1ea28da826ac009e8e253002b9a2e166cbb3a1c69c8dfe6ab607434f0e6a0330"


def test_cohomology_tables_match_the_recorded_digest(monkeypatch):
    tables = []

    def recording(*args):
        table = _column_cohomology(*args)
        tables.append(table.to_triples())
        return table

    monkeypatch.setattr(dgmodule, "_column_cohomology", recording)
    grid = [(e, f) for e in range(4) for f in range(e + 1)]
    jobs = [(suite, e, f, p) for suite in TABLE_SUITES for p in (3, 5) for e, f in grid]
    jobs += [("shifts", f, f, p) for p in (3, 5) for f in range(4)]
    for suite, e, f, p in jobs:
        run_verify(suite, Config(e=e, f=f, p=p, trials=2, seed=2024))
    assert (len(tables), sum(map(bool, tables))) == (880, 592)
    assert hashlib.sha256(json.dumps(tables).encode()).hexdigest() == TABLES_SHA256


# -- finite modules ------------------------------------------------------------

def _dense(A, degs, d=(), sym=None, ext=None) -> dense_ref.Dense:
    """A dense reference record from (row, col, coeff) triples of d and of
    the actions; actions not given are zero."""
    n = len(degs)

    def mat(triples):
        return dense_ref.scatter(_matrix(triples, A.p), n, A.p)

    acts = [[mat(t) for t in given] if given is not None else [mat([])] * count for given, count in ((sym, A.n_sym), (ext, A.n_ext))]
    return dense_ref.Dense(A, np.array(degs, dtype=np.int64).reshape(-1, 2), mat(d), *acts)


# The reference validate is the one check of the module axioms on finite
# modules with actions; each test gives it one failing axiom.

def test_finite_validate_rejects_wrong_d_bidegree():
    T = make_algebra("T", 1, 1, 5)
    bad = _dense(T, [(0, 0), (0, 0)], [(0, 1, 1)])
    assert dense_ref.validate(bad) == ["d entry 0->1 is not of bidegree (1,0)"]


def test_finite_validate_rejects_d_squared():
    T = make_algebra("T", 1, 1, 5)
    bad = _dense(T, [(0, 0), (1, 0), (2, 0)], [(0, 1, 1), (1, 2, 1)])
    assert dense_ref.validate(bad) == ["d^2 != 0"]


def test_finite_validate_rejects_ext_square():
    T = make_algebra("T", 1, 1, 5)
    bad = _dense(T, [(0, 0), (-1, 2), (-2, 4)], ext=[[(0, 1, 1), (1, 2, 1)]])
    assert dense_ref.validate(bad) == ["ext generator 0 does not square to zero"]


@pytest.mark.parametrize("sign", [1, -1])
def test_finite_validate_checks_leibniz(sign):
    # d(theta m) = -theta d(m) holds only when theta . b1 = -b3
    T = make_algebra("T", 1, 1, 5)
    mod = _dense(T, [(0, 0), (1, 0), (-1, 2), (0, 2)], [(0, 1, 1), (2, 3, 1)], ext=[[(0, 2, 1), (1, 3, -sign)]])
    assert dense_ref.validate(mod) == ([] if sign == 1 else ["Leibniz fails for ext generator 0"])


@pytest.mark.parametrize("sign", [1, -1])
def test_finite_validate_leibniz_with_algebra_differential(sign):
    # over Q(2,1), d(eta_2) = z, so d(eta_2 . b0) = z . b0 needs d(b1) = +b2
    Q = make_algebra("Q", 2, 1, 5)
    mod = _dense(Q, [(0, 0), (-1, 2), (0, 2)], [(1, 2, sign)], sym=[[(0, 2, 1)]], ext=[[], [(0, 1, 1)]])
    assert dense_ref.validate(mod) == ([] if sign == 1 else ["Leibniz fails for ext generator 1"])


@pytest.mark.parametrize("coeff", [1, 2])
def test_finite_validate_checks_sym_commutes_with_d(coeff):
    S = make_algebra("S", 1, 1, 5)
    mod = _dense(S, [(0, 0), (1, 0), (2, -2), (3, -2)], [(0, 1, 1), (2, 3, 1)], sym=[[(0, 2, 1), (1, 3, coeff)]])
    assert dense_ref.validate(mod) == ([] if coeff == 1 else ["sym generator 0 does not commute with d"])


def test_finite_validate_rejects_wrong_action_bidegree():
    T = make_algebra("T", 1, 1, 5)
    bad = _dense(T, [(0, 0), (0, 0)], ext=[[(0, 1, 1)]])
    assert dense_ref.validate(bad) == ["ext generator 0 entry 0->1 is not of bidegree (-1, 2)"]
    assert dense_ref.validate(_dense(T, [(0, 0), (-1, 2)], ext=[[(0, 1, 1)]])) == []
    S = make_algebra("S", 2, 2, 5)
    bad = _dense(S, [(0, 0), (2, -2)], sym=[[], [(1, 0, 1)]])
    assert dense_ref.validate(bad) == ["sym generator 1 entry 1->0 is not of bidegree (2, -2)"]


def test_finite_cohomology_of_an_unsorted_basis():
    T = make_algebra("T", 1, 1, 5)
    M = FiniteDgModule(T, [(0, 0), (1, 0), (0, 0)], _matrix([(0, 1, 1)]))
    assert M.cohomology(Window(-2, 2, -2, 2)).to_triples() == [[0, 0, 1]]


def test_finite_module_rejects_malformed_input():
    T = make_algebra("T", 2, 2, 3)
    with pytest.raises(ValueError):
        FiniteDgModule(T, [(0, 0, 1)])


FINITE_ALGEBRAS = [("S", 1, 1, 3), ("S", 2, 2, 5), ("R", 2, 1, 3), ("T", 2, 2, 3), ("T", 3, 3, 5), ("Q", 2, 1, 5), ("Q", 3, 1, 3)]


@settings(max_examples=100, deadline=None)
@given(alg=st.sampled_from(FINITE_ALGEBRAS), seed=st.integers(0, 10**6), data=st.data())
def test_finite_layer_matches_dense_reference(alg, seed, data):
    # expansions, their shifts and twisted k-linear duals (a matrix
    # transform on any algebra): d equals the dense reference's, and the
    # reference's actions, built from Expansion.action and carried along
    # by the same transforms, satisfy every module axiom with it
    A = make_algebra(*alg)
    M = random_module(A, stream(seed, "finite-dense"), max_gens=3)
    hull = Window.hull(M.gens)
    j0 = data.draw(st.integers(hull.j0 - 4, hull.j1), label="j0")
    exp = Expansion(M, j0, data.draw(st.integers(j0, hull.j1 + 6), label="j1"))
    fin = expansion_to_finite(exp)
    # each action entry is its generator times the basis element's monomial
    gen, mons, mon = exp.labels()
    index = {(k, mons[u]): r for r, (k, u) in enumerate(zip(gen.tolist(), mon.tolist()))}
    for is_ext, count in ((False, A.n_sym), (True, A.n_ext)):
        for g in range(count):
            rows, cols, vals = exp.action(is_ext, g)
            want = {}
            for r, (k, u) in enumerate(zip(gen.tolist(), mon.tolist())):
                prod = mul_monomials(A, A.gen_monomial(is_ext, g), mons[u])
                if prod is not None and (k, prod[0]) in index:
                    want[r, index[k, prod[0]]] = prod[1] % A.p
            assert dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist())) == want
    a, b = data.draw(st.integers(-3, 3), label="a"), data.draw(st.integers(-4, 4), label="b")
    ref = dense_ref.from_expansion(exp)
    pairs = [
        (fin, ref),
        (fin.shift(a, b), dense_ref.shift(ref, a, b)),
        (k_linear_dual_T(fin), dense_ref.k_linear_dual_T(ref)),
    ]
    for got, want in pairs:
        dense_ref.assert_same_d(got, want)
        assert dense_ref.validate(want) == []


# -- serialization ------------------------------------------------------------

def test_serialize_round_trip_and_determinism():
    K = koszul_complex_f1()
    text = serialize_module(K)
    assert deserialize_module(text) == K
    assert serialize_module(deserialize_module(text)) == text


def test_deserialize_rejects_invalid():
    Q = make_algebra("Q", 2, 1, 5)
    bad = module(Q, [(0, 0), (1, -2)], {1: {0: {((0,), 2): 1}}})
    text = serialize_module(bad)
    with pytest.raises(ValueError):
        deserialize_module(text)
