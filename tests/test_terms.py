"""The term-array form of semifree modules and chain maps.

The vectorised ``validate`` of ``SemifreeDgModule`` and ``DgMap`` is
cross-checked against the dict-walking reference in ``dict_reference`` on
random modules and maps, valid ones and single-term mutants; every
``validate`` message has a hand-built invalid input; and the identities
the term arrays must satisfy (the dict boundary, double duals, shifts and
serialization round trips) are property-tested.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_reference import DictMap, DictModule, dg_map, module, to_nested
from dict_reference import cone as dict_cone
from koszulkit import cli, dgmodule
from koszulkit.algebra import make_algebra, monomials_by_internal
from koszulkit.dgmodule import (
    SemifreeDgModule,
    _canonical,
    _span_size,
    _table,
    cone,
    deserialize_module,
    free_module,
    identity_map,
    serialize_module,
)
from koszulkit.lkd import counit, functor_jcut, standard_window, unit
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
    others = [mon for mons in monomials_by_internal(A, -4, 4).values() for mon in mons]
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


def _agree_map(phi, min_internal=None):
    got = phi.validate(min_internal)
    assert got == DictMap.of(phi).validate(min_internal)
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
    # min_internal maps: the counit G(F(M)) -> M and the unit N -> F(G(N))
    S, T = make_algebra("S", f, f, 3), make_algebra("T", f, f, 3)
    failing = 0
    for trial in range(3):
        rng = stream(trial, f"terms-unit:{f}")
        M, N = random_module(S, rng, max_gens=3), random_module(T, rng, max_gens=3)
        for X, build in ((M, counit), (N, unit)):
            jcut = functor_jcut(standard_window(X), f)
            phi = build(X, jcut)[0]
            for nested in _mutants(to_nested(phi), S, rng):
                mutant = dg_map(phi.source, phi.target, nested)
                failing += bool(_agree_map(mutant, jcut + 2))
                _agree_map(mutant)
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


def test_module_d_squared_reports_products_before_the_algebra_differential():
    # d(e0) = eta_2 e1 and d(e1) = z e2 over Q(2, 1): d^2(e0) has eta_2 z e2
    # through e1 and d_A(eta_2) e1 = z e1; the products through e1 come first
    Q = make_algebra("Q", 2, 1, 5)
    bad = module(Q, [(-3, 4), (-1, 2), (0, 0)], {0: {1: {((0,), 2): 1}}, 1: {2: {((1,), 0): 1}}})
    assert bad.validate() == ["d^2 != 0 from gen 0 to gen 2"]


def test_map_chain_condition_with_the_algebra_differential():
    # phi(e) = eta_2 f, phi(e') = f and d(e) = z e' over Q(2, 1): d(phi e) =
    # d_A(eta_2) f = z f = phi(d e), so phi is a chain map only with the sign of d_A
    Q = make_algebra("Q", 2, 1, 5)
    M = module(Q, [(-1, 2), (0, 0)], {0: {1: {((1,), 0): 1}}})
    phi = dg_map(M, free_module(Q, [(0, 0)]), {0: {0: {((0,), 2): 1}}, 1: {0: {((0,), 0): 1}}})
    assert phi.validate() == []
    assert dg_map(M, free_module(Q, [(0, 0)]), {0: {0: {((0,), 2): 1}}}).validate() == ["chain condition fails from gen 0 to gen 0"]


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


def test_map_chain_condition_and_min_internal():
    # the identity on e0 alone: phi(d e1) = x e0 but d(phi e1) = 0
    K = koszul_complex()
    bad = dg_map(K, K, {0: {0: {((0,), 0): 1}}})
    assert bad.validate() == ["chain condition fails from gen 1 to gen 0"]
    assert bad.validate(min_internal=-1) == []  # gen 1 has internal degree -2


def test_map_chain_condition_reports_the_first_failing_target():
    # gen 0 fails at target 1 through d_source (x e1 -> x f1) and at target 2
    # through d_target (f0 -> x f2); the products through source generators
    # are written out first, so target 1 is reported
    S = make_algebra("S", 1, 1, 5)
    x, one = ((1,), 0), ((0,), 0)
    src = module(S, [(1, -2), (0, 0)], {0: {1: {x: 1}}})
    tgt = module(S, [(1, -2), (0, 0), (0, 0)], {0: {2: {x: 1}}})
    bad = dg_map(src, tgt, {0: {0: {one: 1}}, 1: {1: {one: 1}}})
    assert bad.validate() == ["chain condition fails from gen 0 to gen 1"]


def test_map_chain_condition_reports_d_a_before_the_products_through_one_target():
    # phi(e) = eta_2 f1 and d(f1) = eta_1 f0 over Q(2, 1): through f1 the
    # residue has -d_A(eta_2) f1 = -z f1, written out first, and
    # eta_2 eta_1 f0 after it, so target 1 is reported although 0 < 1
    Q = make_algebra("Q", 2, 1, 5)
    tgt = module(Q, [(0, 0), (-2, 2)], {1: {0: {((0,), 1): 1}}})
    bad = dg_map(free_module(Q, [(-3, 4)]), tgt, {0: {1: {((0,), 2): 1}}})
    assert _agree_map(bad) == ["chain condition fails from gen 0 to gen 1"]


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


def test_canonical_form_of_raw_terms():
    # unsorted monomials, one unused, a repeated position that cancels mod 5
    # and a coefficient to reduce
    one, x2, x1 = ((0, 0), 0), ((0, 1), 0), ((1, 0), 0)
    raw = np.array([[1, 1, 1, 1, 0], [0, 0, 0, 0, 1], [1, 0, 1, 2, 0], [2, 7, 3, 1, 1]])
    mons, terms = _canonical((x2, x1, one), raw, 2, 5)
    assert mons == (one, x2)
    assert terms.tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 2]]
    S = make_algebra("S", 2, 2, 5)
    M = SemifreeDgModule(S, [(0, 0), (1, -2)], mons, terms)
    assert not M.terms.flags.writeable and not M.degs.flags.writeable


@pytest.mark.parametrize("kind,e,f", [("S", 2, 2), ("R", 3, 1), ("T", 3, 3), ("Q", 3, 1), ("Q", 4, 2), ("P", 3, 1)])
def test_span_size_counts_the_table(kind, e, f):
    key = make_algebra(kind, e, f, 3).key()
    for lo in range(-12, 13):
        for hi in range(lo - 2, lo + 11):
            assert _span_size(key, lo, hi) == len(_table(key, lo, hi)[0]), (lo, hi)


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

