"""The term-array form of semifree modules and chain maps.

The vectorised ``validate`` of ``SemifreeDgModule`` and ``DgMap`` (one d^2
routine, run on the module and on the map's cone) is cross-checked against
the dict-walking reference in ``dict_reference`` on random modules and
maps, valid ones and single-term mutants; every ``validate`` message has a
hand-built invalid input, and so has the choice of the least failing
target; and the identities
the term arrays must satisfy (the dict boundary, double duals, shifts and
serialization round trips) are property-tested, and so is the one shift
convention that modules, finite modules, tables and windows share.
"""

import bisect
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline import within
from dict_reference import DictMap, DictModule, dg_map, module, monomials_by_bidegree, to_nested
from dict_reference import cone as dict_cone
from koszulkit import cli, dgmodule
from koszulkit.algebra import KINDS, AlgebraSpec, make_algebra, span_size, table
from koszulkit.bigraded import Window
from koszulkit.dgmodule import (
    SemifreeDgModule,
    canonical,
    cohomology,
    cone,
    deserialize_module,
    free_module,
    identity_map,
    serialize_module,
)
from koszulkit.homdual import expand_T_module
from koszulkit.lkd import counit, standard_window, unit
from koszulkit.samples import random_homogeneous, random_module, stream

ALGEBRAS = [
    ("S", 1, 1, 3), ("S", 2, 2, 5), ("R", 2, 1, 3), ("R", 2, 2, 5),
    ("T", 2, 2, 3), ("T", 3, 3, 5), ("Q", 2, 1, 3), ("Q", 3, 2, 5), ("Q", 3, 1, 3),
]


def _mutants(nested, A, rng):
    """The input and four single-term mutants of a nested-dict matrix: one
    coefficient changed, one term dropped, one sign flipped, one monomial
    replaced by another (of any bidegree)."""
    yield nested
    terms = [(k, l, mon) for k, row in nested.items() for l, entry in row.items() for mon in entry]
    if not terms:
        return
    others = [mon for mons in monomials_by_bidegree(A, -4, 4).values() for mon in mons]
    for kind in ("change", "drop", "flip", "move"):
        k, l, mon = terms[rng.randrange(len(terms))]
        out = {a: {b: dict(e) for b, e in row.items()} for a, row in nested.items()}
        c = out[k][l].pop(mon)
        if kind == "change":
            out[k][l][mon] = rng.choice([v for v in range(1, A.p) if v != c])
        elif kind == "flip":
            out[k][l][mon] = -c % A.p
        elif kind == "move":
            out[k][l][rng.choice(others)] = c
        yield out


def _random_matrix(A, source, target, rng):
    """A random homogeneous matrix source -> target, chain map or not."""
    matrix = {}
    for k, gk in enumerate(source.gens):
        for l, gl in enumerate(target.gens):
            entry = random_homogeneous(A, (gk[0] - gl[0], gk[1] - gl[1]), rng)
            if entry:
                matrix.setdefault(k, {})[l] = entry
    return matrix


def _agree_module(M):
    got = M.validate()
    assert got == DictModule.of(M).validate()
    return got


def _agree_map(phi):
    got = phi.validate()
    assert got == DictMap.of(phi).validate()
    return got


@settings(max_examples=120, deadline=None)
@given(alg=st.sampled_from(ALGEBRAS), seed=st.integers(0, 10**6))
def test_validate_matches_dict_reference(alg, seed):
    A = make_algebra(*alg)
    rng = stream(seed, "terms-validate")
    M, N = random_module(A, rng, max_gens=4), random_module(A, rng, max_gens=3)
    for nested in _mutants(to_nested(M), A, rng):
        _agree_module(module(A, M.gens, nested))
    for nested in _mutants(_random_matrix(A, M, N, rng), A, rng):
        _agree_map(dg_map(M, N, nested))
    for nested in _mutants(to_nested(identity_map(M)), A, rng):
        _agree_map(dg_map(M, M, nested))
    # the cone of a random matrix, and of the identity, whose d^2 = 0 needs cancellation
    for c in (cone(dg_map(M, N, _random_matrix(A, M, N, rng))), cone(identity_map(cone(identity_map(M))))):
        for nested in _mutants(to_nested(c), A, rng):
            _agree_module(module(A, c.gens, nested))


@pytest.mark.parametrize("f", [1, 2])
def test_validate_matches_dict_reference_on_unit_and_counit(f):
    # the counit G(F(M)) -> M and the unit N -> F(G(N)), checked on their whole source
    S, T = make_algebra("S", f, f, 3), make_algebra("T", f, f, 3)
    failing = 0
    for trial in range(3):
        rng = stream(trial, f"terms-unit:{f}")
        M, N = random_module(S, rng, max_gens=3), random_module(T, rng, max_gens=3)
        for X, build in ((M, counit), (N, unit)):
            phi = build(X, standard_window(X))
            for nested in _mutants(to_nested(phi), phi.source.algebra, rng):
                mutant = dg_map(phi.source, phi.target, nested)
                failing += bool(_agree_map(mutant))
    assert failing


# -- one hand-built invalid input per validate message --------------------------

def test_module_entry_not_homogeneous():
    S = make_algebra("S", 2, 2, 5)
    bad = module(S, [(0, 0), (1, -2)], {1: {0: {((1, 0), 0): 1, ((2, 0), 0): 1}}})
    assert bad.validate() == ["entry (1,0): element is not homogeneous: (2, -2) vs (4, -4)"]


def test_module_entry_of_wrong_bidegree():
    S = make_algebra("S", 1, 1, 5)
    bad = module(S, [(0, 0), (0, 0)], {1: {0: {((1,), 0): 1}}})
    assert bad.validate() == ["entry (1,0) has bidegree (2, -2), expected (1, 0)"]
    bad = module(S, [(0, 0), (0, -2)], {1: {0: {((1,), 0): 1}}})  # right internal degree only
    assert bad.validate() == ["entry (1,0) has bidegree (2, -2), expected (1, -2)"]


def test_module_d_squared_from_products():
    # d(e2) = x e1, d(e1) = x e0: d^2(e2) = x^2 e0
    S = make_algebra("S", 1, 1, 5)
    bad = module(S, [(0, 0), (1, -2), (2, -4)], {1: {0: {((1,), 0): 1}}, 2: {1: {((1,), 0): 1}}})
    assert bad.validate() == ["d^2 != 0 from gen 2 to gen 0"]


def test_module_d_squared_from_the_algebra_differential():
    # d(e1) = eta_2 e0 over Q(2, 1), and d_A(eta_2) = z
    Q = make_algebra("Q", 2, 1, 5)
    bad = module(Q, [(0, 0), (-2, 2)], {1: {0: {((0,), 2): 1}}})
    assert bad.validate() == ["d^2 != 0 from gen 1 to gen 0"]


def test_module_d_squared_reports_the_d_a_target_below_a_product_target():
    # d(e0) = eta_2 e1 and d(e1) = z e2 over Q(2, 1): d^2(e0) has eta_2 z e2
    # through e1 and d_A(eta_2) e1 = z e1; the least failing target, 1, is reported
    Q = make_algebra("Q", 2, 1, 5)
    bad = module(Q, [(-3, 4), (-1, 2), (0, 0)], {0: {1: {((0,), 2): 1}}, 1: {2: {((1,), 0): 1}}})
    assert _agree_module(bad) == ["d^2 != 0 from gen 0 to gen 1"]


def test_map_chain_condition_with_the_algebra_differential():
    # phi(e) = eta_2 f, phi(e') = f and d(e) = z e' over Q(2, 1): d(phi e) =
    # d_A(eta_2) f = z f = phi(d e), so phi is a chain map only with the sign of d_A
    Q = make_algebra("Q", 2, 1, 5)
    M = module(Q, [(-1, 2), (0, 0)], {0: {1: {((1,), 0): 1}}})
    phi = dg_map(M, free_module(Q, [(0, 0)]), {0: {0: {((0,), 2): 1}}, 1: {0: {((0,), 0): 1}}})
    assert phi.validate() == []
    assert dg_map(M, free_module(Q, [(0, 0)]), {0: {0: {((0,), 2): 1}}}).validate() == ["chain condition fails from gen 0 to gen 0"]


def test_map_chain_condition_with_the_sign_of_d_a():
    # phi(e) = eta_1 eta_2 f, phi(e') = f and d(e) = c eta_1 z e' over Q(2, 1):
    # d_A(eta_1 eta_2) = -eta_1 z (eta_2 passes eta_1), so phi is a chain map
    # exactly when c = -1
    Q = make_algebra("Q", 2, 1, 5)
    for c, want in ((4, []), (1, ["chain condition fails from gen 0 to gen 0"])):
        M = module(Q, [(-2, 4), (0, 0)], {0: {1: {((1,), 1): c}}})
        phi = dg_map(M, free_module(Q, [(0, 0)]), {0: {0: {((0,), 3): 1}}, 1: {0: {((0,), 0): 1}}})
        assert _agree_map(phi) == want


def koszul_complex():
    S = make_algebra("S", 1, 1, 5)
    return module(S, [(0, 0), (1, -2)], {1: {0: {((1,), 0): 1}}})


def test_map_entry_not_homogeneous():
    K = koszul_complex()
    bad = dg_map(K, K, {0: {0: {((0,), 0): 1, ((1,), 0): 1}}})
    assert bad.validate() == ["map entry (0,0): element is not homogeneous: (0, 0) vs (2, -2)"]


def test_map_entry_of_wrong_bidegree():
    K = koszul_complex()
    bad = dg_map(K, K, {0: {0: {((1,), 0): 1}}})
    assert bad.validate() == ["map entry (0,0) has bidegree (2, -2), expected (0, 0)"]


def test_map_chain_condition():
    # the identity on e0 alone: phi(d e1) = x e0 but d(phi e1) = 0
    K = koszul_complex()
    bad = dg_map(K, K, {0: {0: {((0,), 0): 1}}})
    assert bad.validate() == ["chain condition fails from gen 1 to gen 0"]


def test_map_chain_condition_reports_the_first_failing_target():
    # gen 0 fails at target 1 through d_source (x e1 -> x f1) and at target 2
    # through d_target (f0 -> x f2); the least failing target, 1, is reported
    S = make_algebra("S", 1, 1, 5)
    x, one = ((1,), 0), ((0,), 0)
    src = module(S, [(1, -2), (0, 0)], {0: {1: {x: 1}}})
    tgt = module(S, [(1, -2), (0, 0), (0, 0)], {0: {2: {x: 1}}})
    bad = dg_map(src, tgt, {0: {0: {one: 1}}, 1: {1: {one: 1}}})
    assert bad.validate() == ["chain condition fails from gen 0 to gen 1"]


def test_map_chain_condition_reports_a_product_target_below_the_d_a_target():
    # phi(e) = eta_2 f1 and d(f1) = eta_1 f0 over Q(2, 1): the residue has
    # -d_A(eta_2) f1 = -z f1 through f1 and eta_2 eta_1 f0; the least failing
    # target, 0, is reported
    Q = make_algebra("Q", 2, 1, 5)
    tgt = module(Q, [(0, 0), (-2, 2)], {1: {0: {((0,), 1): 1}}})
    bad = dg_map(free_module(Q, [(-3, 4)]), tgt, {0: {1: {((0,), 2): 1}}})
    assert _agree_map(bad) == ["chain condition fails from gen 0 to gen 0"]


def test_map_out_of_or_into_an_invalid_module_is_judged_on_the_chain_condition_alone():
    # d(e1) = eta_2 e0 over Q(2, 1) is no differential (d^2(e1) = z e0), but
    # e1 -> f is a chain map: d(phi e1) = 0 = phi(eta_2 e0); the cone's d^2
    # fails only at its own source generators, which are not target generators
    Q = make_algebra("Q", 2, 1, 5)
    src = module(Q, [(0, 0), (-2, 2)], {1: {0: {((0,), 2): 1}}})
    assert src.validate() == ["d^2 != 0 from gen 1 to gen 0"]
    phi = dg_map(src, free_module(Q, [(-2, 2)]), {1: {0: {((0,), 0): 1}}})
    assert _agree_map(phi) == []
    # and into it: f -> e0 is a chain map; d^2(e1) = z e0 is not its failure
    assert _agree_map(dg_map(free_module(Q, [(0, 0)]), src, {0: {0: {((0,), 0): 1}}})) == []


def test_map_needs_a_common_algebra():
    S, T = make_algebra("S", 1, 1, 5), make_algebra("T", 1, 1, 5)
    with pytest.raises(ValueError, match="chain map needs a common algebra"):
        dg_map(free_module(S, [(0, 0)]), free_module(T, [(0, 0)]), {})


# -- the term arrays ---------------------------------------------------------------

def _is_canonical(obj, n_tgt, p):
    src, tgt, mon, coeff = obj.terms
    key = (src * n_tgt + tgt) * max(len(obj.mons), 1) + mon
    return (
        not obj.terms.flags.writeable
        and list(obj.mons) == sorted(set(obj.mons))
        and bool((key[1:] > key[:-1]).all())
        and bool(((0 < coeff) & (coeff < p)).all())
        and sorted(set(mon.tolist())) == list(range(len(obj.mons)))
    )


@settings(max_examples=150, deadline=None)
@given(
    alg=st.sampled_from(ALGEBRAS),
    seed=st.integers(0, 10**6),
    a=st.integers(-3, 3),
    b=st.integers(-4, 4),
)
def test_term_array_identities(alg, seed, a, b):
    A = make_algebra(*alg)
    M = random_module(A, stream(seed, "terms-identities"), max_gens=4)
    assert _is_canonical(M, M.rank, A.p)
    nested = to_nested(M)
    assert module(A, M.gens, nested) == M
    assert to_nested(module(A, M.gens, nested)) == nested
    assert M.dualize().dualize() == M
    assert M.shift(a, b).shift(-a, -b) == M
    assert deserialize_module(serialize_module(M)) == M
    for N in (M.dualize(), M.shift(a, b), cone(dg_map(M, M, {})), cone(identity_map(M))):
        assert _is_canonical(N, N.rank, A.p)


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_shift_dual_and_cone_match_dict_reference(alg):
    # every sign of shift, dualize and cone shows on a few percent of random
    # modules, so each algebra runs 60 of them
    A = make_algebra(*alg)
    for seed in range(60):
        rng = stream(seed, "terms-reference")
        M, N = random_module(A, rng, max_gens=4), random_module(A, rng, max_gens=3)
        ref, a, b = DictModule.of(M), rng.randrange(-3, 4), rng.randrange(-4, 5)
        assert to_nested(M.shift(a, b)) == ref.shift(a, b).diff
        assert to_nested(M.dualize()) == ref.dualize().diff
        for phi in (identity_map(M), dg_map(M, N, _random_matrix(A, M, N, rng))):
            c, want = cone(phi), dict_cone(DictMap.of(phi))
            assert c.gens == want.gens and to_nested(c) == want.diff


@settings(max_examples=100, deadline=None)
@given(alg=st.sampled_from(ALGEBRAS), seed=st.integers(0, 10**6), data=st.data())
def test_every_shifted_object_follows_the_one_convention(alg, seed, data):
    """M[a]<b> read on ``W.shift(a, b)`` has the table of M on W shifted by
    ``BigradedDims.shift(a, b)``: a semifree module through ``cohomology``
    and the finite expansion of a T-module through ``FiniteDgModule.shift``.
    ``Window.hull`` of an (n, 2) int64 array is the hull of its pairs, with
    Python-int bounds (reports serialize ``as_tuple()``), and the hull of no
    degrees is (0, 0, 0, 0)."""
    A = make_algebra(*alg)
    rng = stream(seed, "shift-convention")
    M, N = random_module(A, rng, max_gens=4), random_module(make_algebra("T", *alg[1:]), rng, max_gens=3)
    fin = expand_T_module(N)
    a, b = data.draw(st.integers(-3, 3), label="a"), data.draw(st.integers(-4, 4), label="b")
    for X, degs, table_on in ((M, M.degs, cohomology), (fin, fin.basis_degs, lambda X, W: X.cohomology(W))):
        hull = Window.hull(degs)
        assert hull == Window.hull(map(tuple, degs.tolist())) and all(type(x) is int for x in hull.as_tuple())
        i0, j0 = data.draw(st.integers(hull.i0 - 2, hull.i1), label="i0"), data.draw(st.integers(hull.j0 - 4, hull.j1 + 2), label="j0")
        W = Window(i0, i0 + data.draw(st.integers(0, 4), label="di"), j0, j0 + data.draw(st.integers(0, 6), label="dj"))
        assert within(60, table_on, X.shift(a, b), W.shift(a, b)) == within(60, table_on, X, W).shift(a, b)
    for empty in (np.zeros((0, 2), np.int64), [], ()):
        assert Window.hull(empty).as_tuple() == (0, 0, 0, 0)


def test_canonical_form_of_raw_terms():
    # unsorted monomials, one unused, a repeated position that cancels mod 5
    # and a coefficient to reduce
    one, x2, x1 = ((0, 0), 0), ((0, 1), 0), ((1, 0), 0)
    raw = np.array([[1, 1, 1, 1, 0], [0, 0, 0, 0, 1], [1, 0, 1, 2, 0], [2, 7, 3, 1, 1]])
    mons, terms = canonical((x2, x1, one), raw, 2, 5)
    assert mons == (one, x2)
    assert terms.tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 2]]
    S = make_algebra("S", 2, 2, 5)
    M = SemifreeDgModule(S, [(0, 0), (1, -2)], mons, terms)
    assert not M.terms.flags.writeable and not M.degs.flags.writeable


def test_parsed_coefficients_are_residues():
    """A file's coefficients are reduced mod p before they reach the term
    arrays: 10^30 and -1 become residues in [1, p), and a multiple of p
    drops its term and, used nowhere else, its monomial."""
    S = make_algebra("S", 2, 2, 7)
    gens = [[0, 0], [1, -2], [3, -4]]
    doc = {
        "schema": 1, "algebra": {"kind": "S", "e": 2, "f": 2, "p": 7}, "gens": gens,
        "diff": [[1, 0, [[10**30, [1, 0], 0], [-1, [0, 1], 0]]], [2, 0, [[14, [2, 0], 0]]]],
    }
    M = deserialize_module(json.dumps(doc))
    assert sorted(M.terms[3].tolist()) == [10**30 % 7, 6] == [1, 6]
    assert M == module(S, [tuple(g) for g in gens], {1: {0: {((1, 0), 0): 1, ((0, 1), 0): 6}}})
    assert _is_canonical(M, M.rank, S.p) and ((2, 0), 0) not in M.mons


@pytest.mark.parametrize("kind,e,f", [("S", 2, 2), ("R", 3, 1), ("T", 3, 3), ("Q", 3, 1), ("Q", 4, 2), ("P", 3, 1)])
def test_span_size_counts_the_table(kind, e, f):
    A = make_algebra(kind, e, f, 3)
    for lo in range(-12, 13):
        for hi in range(lo - 2, lo + 11):
            assert span_size(A, lo, hi) == len(table(A, lo, hi)[0]), (lo, hi)


# Each kind's generators as the table in ``algebra``'s docstring gives them,
# (n_sym, sym bidegree, n_ext) from (e, f); every ext generator is in (-1, 2).
GENERATORS = {
    "S": lambda e, f: (f, (2, -2), 0),
    "R": lambda e, f: (f, (0, -2), 0),
    "T": lambda e, f: (0, (0, 0), f),
    "Q": lambda e, f: (e - f, (0, 2), e),
    "P": lambda e, f: (e - f, (0, 2), 0),
}


def brute_force_monomials(kind, e, f, box, masks=None):
    """(internal degrees, [(monomial, bidegree)]) of every monomial whose
    exponents lie in [0, box] and whose ext mask is one of ``masks`` (by
    default all of them), both lists sorted by internal degree: each
    monomial's bidegree summed over its generators, one by one."""
    n_sym, sym, n_ext = GENERATORS[kind](e, f)
    found = []
    for exps in itertools.product(range(box + 1), repeat=n_sym):
        for mask in range(1 << n_ext) if masks is None else masks:
            i = j = 0
            for gen, count in [(sym, x) for x in exps] + [((-1, 2), mask >> b & 1) for b in range(n_ext)]:
                i, j = i + count * gen[0], j + count * gen[1]
            found.append((j, (exps, mask), (i, j)))
    found.sort()
    return [j for j, _, _ in found], [x[1:] for x in found]


def check_against_brute_force(A, lo, hi, js, found):
    """``table`` on [lo, hi] holds exactly the monomials of ``found`` with
    internal degree in [lo, hi], each once and at its bidegree, and
    ``span_size`` counts them."""
    want = dict(found[bisect.bisect_left(js, lo):bisect.bisect_right(js, hi)])
    t = table(A, lo, hi)
    got = dict(zip(t.mons, map(tuple, t.degs.tolist())))
    assert len(got) == len(t.mons) and got == want, (A, lo, hi)
    assert span_size(A, lo, hi) == len(want), (A, lo, hi)


def test_the_spec_is_a_tuple_filled_in_by_the_kind_table():
    """Specs hash and compare as tuples, in C.  ``make_algebra`` fills in
    n_sym, n_ext and sym_deg as the docstring's table (``GENERATORS``) gives
    them, so specs that differ in any one of kind, e, f or p are unequal,
    also where the counts agree (S(2, 1) and S(3, 1))."""
    assert AlgebraSpec.__hash__ is tuple.__hash__ and AlgebraSpec.__eq__ is tuple.__eq__
    args = [(kind, e, f, p) for kind in KINDS for e, f in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (4, 4), (62, 62)] for p in (3, 5)]
    specs = [make_algebra(*a) for a in args]
    for (kind, e, f, p), A in zip(args, specs):
        n_sym, sym, n_ext = GENERATORS[kind](e, f)
        assert A == (kind, e, f, p, n_sym, n_ext, sym) and A.ext_deg == (-1, 2), A
    assert len(set(specs)) == len(specs)


def test_equal_specs_share_one_table_entry():
    A, B = make_algebra("Q", 3, 1, 5), make_algebra("Q", 3, 1, 5)
    assert A is not B
    first = table(A, -7, 11)
    hits = table.cache_info().hits
    assert table(B, -7, 11) is first and table.cache_info().hits == hits + 1


# Range ends: odd, negative, and past the degree bounds of some kinds
ENDS = (-11, -10, -7, -4, -3, -2, -1, 0, 1, 2, 3, 5, 8, 9, 12)


@pytest.mark.parametrize("kind", ["S", "R", "T", "Q", "P"])
def test_table_and_span_size_match_a_brute_force_enumeration(kind):
    """Every (e, f) with e <= 4 on every range of two ends of ``ENDS``,
    reversed ones included: no monomial of internal degree in [-12, 12]
    has an exponent above 6, so the box [0, 6] holds them all."""
    for e in range(5):
        for f in range(e + 1):
            js, found = brute_force_monomials(kind, e, f, max(map(abs, ENDS)) // 2)
            for lo, hi in itertools.product(ENDS, repeat=2):
                check_against_brute_force(make_algebra(kind, e, f, 3), lo, hi, js, found)


def test_table_and_span_size_match_a_brute_force_enumeration_at_62_ext_generators():
    """T(62, 62) on narrow ranges at both ends: every monomial there has at
    most two ext generators, or at most two missing.  The masks of at most
    two bits are built one bit at a time, not by ``combinations``; the whole
    exterior algebra has 2^62 monomials."""
    T, full = make_algebra("T", 62, 62, 3), (1 << 62) - 1
    few = {0}
    for _ in range(2):
        few |= {x | 1 << b for x in few for b in range(62)}
    js, found = brute_force_monomials("T", 62, 62, 0, few | {full ^ x for x in few})
    for lo, hi in [(0, 0), (-3, 3), (1, 4), (2, 2), (3, 3), (4, 0), (-5, -1), (119, 123), (120, 124), (121, 127), (124, 124), (125, 200)]:
        check_against_brute_force(T, lo, hi, js, found)
    assert span_size(T, -1, 124) == 2**62


# -- bounded work ------------------------------------------------------------------

def test_table_refuses_an_oversized_expansion(tmp_path, capsys):
    doc = '{"schema":1,"algebra":{"kind":"S","e":1,"f":1,"p":3},"gens":[[0,200000000],[0,-200000000]],"diff":[]}'
    path = tmp_path / "huge.json"
    path.write_text(doc)
    start = time.monotonic()
    assert cli.main(["table", str(path)]) == 2
    assert time.monotonic() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: the expansion on internal degrees [-200000004, 200000004] has ")
    assert f"over the limit of {dgmodule.MAX_EXPANSION_BASIS:,}; generator 0 alone spans monomial degrees" in err
    assert "Traceback" not in err

