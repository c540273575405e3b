"""Cross-check of the grouped expansion kernel against the per-term one.

``expansion_reference`` keeps the kernel that worked per generator and per
term.  The grouped kernel (one table per distinct span, one block per
distinct (span, span, monomial) group) must give the same basis, bidegrees,
differential, labels and generator actions, entry for entry, and the same
restrictions of scalars, on random modules over S, R, T, Q and P: free
modules, generators that share a span, empty spans and windows that clip
spans at 0 and at 2 n_ext, with terms of any bidegree (the kernel does not
need d^2 = 0).  The caches the kernel reads are bounded; filling them past
the bound evicts old entries without changing any expansion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expansion_reference as ref
from koszulkit import algebra, dgmodule
from koszulkit.algebra import make_algebra, monomial_bidegree, monomials_by_internal
from koszulkit.bigraded import Window
from koszulkit.dgmodule import CACHE_SIZE, Expansion, SemifreeDgModule, cohomology, free_module, nested_terms
from koszulkit.lkd import counit, functor_jcut, standard_window, unit
from koszulkit.qmodel import pushforward_p, restrict_to_T
from koszulkit.samples import random_module, stream

ALGEBRAS = [
    ("S", 1, 1, 3), ("S", 3, 2, 5), ("R", 2, 2, 3), ("T", 2, 2, 3), ("T", 3, 3, 5),
    ("Q", 2, 1, 3), ("Q", 3, 2, 5), ("Q", 3, 1, 3), ("Q", 2, 0, 5), ("P", 3, 1, 3),
]


def _module(A, rng, shape):
    """A module of the given shape: "random" (a valid random module, S/R/T/Q
    only), "free", or "shared" (generators on a few internal degrees, so
    several share a span, and random terms of any bidegree)."""
    if shape == "random" and A.kind != "P":
        return random_module(A, rng, max_gens=4)
    count = rng.randrange(1, 7)
    gens = [(rng.randrange(-2, 3), 2 * rng.randrange(-2, 2)) for _ in range(count)]
    if shape == "free":
        return free_module(A, gens)
    mons = [mon for bucket in monomials_by_internal(A, -4, 4).values() for mon in bucket]
    diff = {}
    for _ in range(rng.randrange(0, 10)):
        k, l = rng.randrange(count), rng.randrange(count)
        diff.setdefault(k, {}).setdefault(l, {})[rng.choice(mons)] = rng.randrange(1, A.p)
    return SemifreeDgModule(A, gens, *nested_terms(A, diff))


def _window(M, rng):
    """An internal-degree range around the generators: it may cut spans on
    either side, leave some empty, or be empty itself; odd ends too."""
    js = M.degs[:, 1].tolist() or [0]
    return min(js) + rng.randrange(-9, 6), max(js) + rng.randrange(-5, 10)


def _assert_same_expansion(M, jlo, jhi):
    got, want = Expansion(M, jlo, jhi), ref.Expansion(M, jlo, jhi)
    assert got.degs.tolist() == want.degs.tolist()
    for a, b in zip(got.d, want.d):
        assert a.tolist() == b.tolist()
    assert got.basis == want.basis
    (gen, mons, mon), (want_gen, want_mons, want_mon) = got.labels(), want.labels()
    assert (gen.tolist(), mons, mon.tolist()) == (want_gen.tolist(), want_mons, want_mon.tolist())
    A = M.algebra
    for is_ext, count in ((False, A.n_sym), (True, A.n_ext)):
        for g in range(count):
            for a, b in zip(got.action(is_ext, g), want.action(is_ext, g)):
                assert a.tolist() == b.tolist()
    return got


def _assert_same_restriction(got, want):
    (R, labels), (want_R, want_labels) = got, want
    assert R.algebra == want_R.algebra
    assert R.degs.tolist() == want_R.degs.tolist()
    assert R.mons == want_R.mons and R.terms.tolist() == want_R.terms.tolist()
    assert labels == want_labels


@settings(max_examples=200, deadline=None)
@given(
    alg=st.sampled_from(ALGEBRAS),
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(["random", "free", "shared"]),
)
def test_expansion_matches_per_term_kernel(alg, seed, shape):
    A = make_algebra(*alg)
    rng = stream(seed, "expansion")
    M = _module(A, rng, shape)
    for _ in range(3):
        _assert_same_expansion(M, *_window(M, rng))
    if A.kind == "Q":
        _assert_same_restriction(pushforward_p(M), ref.pushforward_p(M))
        jhi = max(M.degs[:, 1].tolist()) + rng.randrange(-4, 8)
        _assert_same_restriction(restrict_to_T(M, jhi), ref.restrict_to_T(M, jhi))


BLOCK_ALGEBRAS = ALGEBRAS + [("T", 16, 16, 3), ("Q", 16, 13, 5), ("Q", 9, 4, 3), ("S", 4, 4, 7)]


def _block_requests(A, rng):
    """A batch of block requests (src span, dst span, mon, left): spans as
    ``_spans`` cuts them, empty ones, and targets that hold the products'
    whole range, a cut of it, or some other span; then repeated requests,
    and all of it shuffled."""
    key = A.key()
    js = np.array([2 * rng.randrange(-3, 3) for _ in range(rng.randrange(1, 5))], dtype=np.int64)
    jlo, jhi = int(js.min()) + rng.randrange(-6, 4), int(js.max()) + rng.randrange(-4, 6)
    spans = [s for s in dgmodule._spans(A, jlo, jhi, js)[0] if dgmodule._span_size(key, *s) <= 2000] + [(0, -2)]
    gens = [A.gen_monomial(False, g) for g in range(A.n_sym)] + [A.gen_monomial(True, g) for g in range(A.n_ext)]
    mons = [mon for s in spans for mon in dgmodule._table(key, *s).mons]
    wanted = []
    for _ in range(rng.randrange(1, 10)):
        (a, b), mon = rng.choice(spans), rng.choice([A.one(), rng.choice(gens), rng.choice(mons or gens)])
        j = monomial_bidegree(A, mon)[1]
        dst = rng.choice([rng.choice(spans), (a + j, b + j), (a + j + 2, b + j), (a + j, b + j - 2)])
        if dgmodule._span_size(key, *dst) <= 2000:
            wanted.append(((a, b), dst, mon, rng.random() < 0.5))
    wanted += rng.choices(wanted, k=rng.randrange(0, 4)) if wanted else []
    rng.shuffle(wanted)
    return spans, wanted


@settings(max_examples=150, deadline=None)
@given(alg=st.sampled_from(BLOCK_ALGEBRAS), seed=st.integers(0, 10**6))
def test_batched_blocks_match_per_row_builder(alg, seed):
    """``_build_blocks`` (and ``_blocks``, which builds misses through it)
    equals the per-row ``_block`` on every request of a batch, and the
    array ``_derivation_block`` equals the per-row one."""
    A = make_algebra(*alg)
    key = A.key()
    spans, wanted = _block_requests(A, stream(seed, "blocks"))
    if wanted:
        for got in (dgmodule._build_blocks(key, wanted), dgmodule._blocks(key, wanted)):
            assert len(got) == len(wanted)
            for w, block in zip(wanted, got):
                assert block.tolist() == ref._block(key, *w).tolist(), w
                assert block.dtype == np.int64 and not block.flags.writeable
    if A.has_differential:
        for s in spans:
            assert dgmodule._derivation_block(key, s).tolist() == ref._derivation_block(key, s).tolist()


def test_block_requests_cover_the_edge_cases():
    """The batches above reach every case the builder distinguishes, with
    up to 16 ext generators."""
    seen = set()
    for alg in BLOCK_ALGEBRAS:
        A = make_algebra(*alg)
        for seed in range(20):
            spans, wanted = _block_requests(A, stream(seed, "blocks"))
            if len(set(wanted)) < len(wanted):
                seen.add("repeated")
            for w, block in zip(wanted, dgmodule._build_blocks(A.key(), wanted) if wanted else []):
                src, dst, mon, left = w
                rows = len(dgmodule._table(A.key(), *src).mons)
                seen.add(("empty span" if not rows else "cut" if 0 < block.shape[1] < rows else "whole", A.kind))
                seen.add(("left" if left else "right", -1 in block[2].tolist(), A.n_ext >= 16 and block.shape[1] > 100))
    kinds = {kind for case, kind in (x for x in seen if len(x) == 2)}
    assert kinds == {"S", "R", "T", "Q", "P"}
    assert {x for x in seen if len(x) == 3} >= {("left", True, True), ("right", True, True), ("left", False, False)}
    assert {"repeated", ("empty span", "T"), ("cut", "T"), ("cut", "Q"), ("whole", "S")} <= seen


def test_cross_check_inputs_cover_the_edge_cases():
    """The inputs above reach every case the kernel distinguishes."""
    seen = set()
    for alg in ALGEBRAS:
        A = make_algebra(*alg)
        for seed in range(40):
            rng = stream(seed, "expansion")
            for shape in ("random", "free", "shared"):
                M = _module(A, rng, shape)
                if not M.terms.shape[1]:
                    seen.add("no terms")
                for _ in range(3):
                    jlo, jhi = _window(M, rng)
                    spans, which = dgmodule._spans(A, jlo, jhi, M.degs[:, 1])
                    if len(spans) < M.rank:
                        seen.add("shared span")
                    if (0, -2) in spans:
                        seen.add("empty span")
                    for j, (a, b) in zip(M.degs[:, 1].tolist(), (spans[s] for s in which.tolist())):
                        if (a, b) != (0, -2) and A.kind in "TQP" and jlo - j < a == 0:
                            seen.add("cut at 0")
                        if (a, b) != (0, -2) and A.kind == "T" and jhi - j > b == 2 * A.n_ext:
                            seen.add("cut at 2 n_ext")
    assert seen == {"no terms", "shared span", "empty span", "cut at 0", "cut at 2 n_ext"}


@pytest.mark.parametrize(
    "alg, gens, window, limit",
    [
        # one span too large for int64 arithmetic
        (("S", 3, 3, 3), [(0, 0)], (-2 * 10**8, 0), None),
        # the largest span first met at generator 1
        (("S", 3, 3, 3), [(0, -2 * 10**6), (0, 0), (1, 0)], (-2 * 10**6, 0), None),
        # two spans of equal size; the first generator on either is named
        (("S", 1, 1, 3), [(0, 2), (0, 0)], (-6, 0), 5),
        # no one span is over the limit, the sum is
        (("S", 1, 1, 3), [(0, 0), (0, -2), (0, -2), (0, 0)], (-16, 0), 20),
        # the largest span times the rank is over the limit, the sum is not
        (("S", 1, 1, 3), [(0, 0), (0, -6), (0, -6), (0, -6)], (-6, 0), 10),
        (("S", 1, 1, 3), [(0, 0), (0, -6), (0, -6), (0, -6)], (-6, 0), 7),  # exactly at the limit
        (("T", 3, 3, 3), [(0, j) for j in range(-12, 4)], (-6, 4), 40),
    ],
)
def test_expansion_limit_matches_per_term_kernel(monkeypatch, alg, gens, window, limit):
    """The basis count and the error message equal the per-term kernel's
    (``MAX_EXPANSION_BASIS`` lowered for the small cases)."""
    if limit is not None:
        monkeypatch.setattr(dgmodule, "MAX_EXPANSION_BASIS", limit)
        monkeypatch.setattr(ref, "MAX_EXPANSION_BASIS", limit)
    M = free_module(make_algebra(*alg), gens)
    try:
        want = len(ref.Expansion(M, *window))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Expansion(M, *window)
        assert str(got.value) == str(exc)
    else:
        assert len(Expansion(M, *window)) == want


def test_caches_stay_at_their_bound():
    """Expanding more distinct spans than a cache holds keeps every cache
    at CACHE_SIZE entries, and expansions read after eviction are equal."""
    S = make_algebra("S", 1, 1, 3)
    x = ((1,), 0)
    M = SemifreeDgModule(S, [(0, 0), (2, -2)], *nested_terms(S, {0: {1: {x: 1}}}))
    before = Expansion(M, -8, 0)
    for i in range(CACHE_SIZE + 100):
        Expansion(M, -2 * i - 4, -2 * i)
    caches = [dgmodule._table, dgmodule._span_size, algebra._monomials_by_internal]
    assert [f.cache_info().currsize for f in caches] == [CACHE_SIZE] * len(caches)
    assert len(dgmodule._BLOCKS) == CACHE_SIZE
    after = Expansion(M, -8, 0)
    assert after.degs.tolist() == before.degs.tolist()
    assert [a.tolist() for a in after.d] == [b.tolist() for b in before.d]
    for f in (*caches, dgmodule._derivation_block, algebra._compositions):
        assert f.cache_info().maxsize == CACHE_SIZE


def test_generator_tuples_are_built_on_first_read():
    """``gens`` is built from ``degs`` when first read; the functors, their
    unit and counit and cohomology read ``degs`` and never build it for the
    modules they make."""
    S, T = make_algebra("S", 2, 2, 3), make_algebra("T", 2, 2, 3)
    for seed in range(6):
        rng = stream(seed, "gens")
        M, N = random_module(S, rng, max_gens=4), random_module(T, rng, max_gens=4)
        assert M._gens is None
        win = standard_window(M, N)
        assert win == Window.hull(M.gens + N.gens).enlarge(1, 2)
        assert M.gens == tuple(map(tuple, M.degs.tolist()))
        eps, fm, gfm = counit(M, functor_jcut(win, 2))
        eta, gn, fgn = unit(N, functor_jcut(win, 2))
        for image in (fm.module, gfm.module, gn.module, fgn.module):
            cohomology(image, win)
        assert not eps.validate(min_internal=functor_jcut(win, 2) + 2)
        assert not eta.validate(min_internal=functor_jcut(win, 2) + 2)
        assert [X._gens for X in (fm.module, gfm.module, gn.module, fgn.module)] == [None] * 4
    assert standard_window(free_module(S, [])) == Window.hull([]).enlarge(1, 2)


def test_restrictions_of_a_module_without_generators_are_empty():
    """The per-term kernel raised IndexError here (an empty float index)."""
    Q = make_algebra("Q", 2, 1, 3)
    for R, labels in (pushforward_p(free_module(Q, [])), restrict_to_T(free_module(Q, []), 4)):
        assert (R.rank, R.mons, R.terms.shape, labels) == (0, (), (4, 0), [])
