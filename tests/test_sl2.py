import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_reference as ref
import dense_reference
import probe_reference
from block_reference import MUTATIONS, WIDE_PRIMES, Dense
from koszulkit import blockalg, sl2
from koszulkit.blockalg import BlockAlgebra, ProjectiveSum, minimal_generators, next_syzygy
from koszulkit.linalg import is_odd_prime, structural_pivots
from koszulkit.projline import cohomology_P1
from koszulkit.sl2 import (
    anti_automorphism_check,
    block_ext_dims,
    block_report,
    build_regular_block,
    build_singular_block,
    ext_zero_sections,
    frobenius_form,
    graded_cartan,
    koszulity_probe,
    poincare_symmetry,
    quiver_basic_algebra,
    quiver_presentation,
)


def entries(x):
    """Dense columns x as ``ProjectiveSum.act`` takes them."""
    n, c = x.nonzero()
    return n, c, x[n, c], x.shape[1]


def dense(y, m: int) -> np.ndarray:
    """The m-row matrix with the entries y = (rows, cols, vals, width)."""
    rows, cols, vals, width = y
    out = np.zeros((m, width), dtype=np.int64)
    out[rows, cols] = vals
    return out


def construct(*args, check=True):
    """A BlockAlgebra; with check False, built without the constructor's
    check of the axioms."""
    if check:
        return BlockAlgebra(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BlockAlgebra, "check_axioms", lambda self: [])
        return BlockAlgebra(*args)


def algebra(D, check=True):
    """The dense table D as a BlockAlgebra of one type per label on one
    block of size 1, built from D's product arrays."""
    name = D.labels.__getitem__
    return construct(
        D.p,
        D.labels,
        D.degrees,
        [(0, 0)] * D.dim,
        [1],
        D.products(),
        [name(u) for u in D.unit_indices],
        [(cls, name(e)) for cls, e, _ in D.idempotents],
        {name(i): v for i, v in D.trace.items()},
        check=check,
    )


# -- projective line ----------------------------------------------------------

def test_P1_structure_sheaf():
    assert cohomology_P1(0, 5) == (1, 0)


def test_P1_minus_one():
    assert cohomology_P1(-1, 5) == (0, 0)


def test_P1_minus_three():
    assert cohomology_P1(-3, 5) == (0, 2)


@pytest.mark.parametrize("d", range(-9, 10))
@pytest.mark.parametrize("p", [3, 7])
def test_P1_closed_form(d, p):
    assert cohomology_P1(d, p) == (max(d + 1, 0), max(-d - 1, 0))


# -- Ext tables ---------------------------------------------------------------

def test_ext_self():
    assert ext_zero_sections(0, 0) == {0: 1, 2: 1}


def test_ext_twist_down():
    assert ext_zero_sections(-1, 0) == {0: 2}


def test_ext_twist_up():
    assert ext_zero_sections(0, -1) == {2: 2}


def test_ext_independent_of_common_twist():
    for shift in (-2, 1, 3):
        assert ext_zero_sections(shift, shift) == {0: 1, 2: 1}


def test_block_ext_pattern():
    assert block_ext_dims(0, 0) == {0: 1, 2: 1}
    assert block_ext_dims(1, 1) == {0: 1, 2: 1}
    assert block_ext_dims(0, 1) == {1: 2}
    assert block_ext_dims(1, 0) == {1: 2}


# -- regular blocks -----------------------------------------------------------

def test_regular_block_p3_dimension():
    A = build_regular_block(3, 0)
    assert A.dim == 18
    assert A.dims_by_degree() == {0: 5, 1: 8, 2: 5}


def test_regular_block_p5_lambda1_degree_dims():
    A = build_regular_block(5, 1)
    assert A.dim == 50
    assert A.dims_by_degree() == {0: 13, 1: 24, 2: 13}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_regular_blocks_total_dimension(p):
    for lam in range((p - 1) // 2):
        A = build_regular_block(p, lam)
        assert A.dim == 2 * p * p
        n1, n2 = lam + 1, p - 1 - lam
        assert A.dims_by_degree() == {
            0: n1 * n1 + n2 * n2,
            1: 4 * n1 * n2,
            2: n1 * n1 + n2 * n2,
        }


def test_the_hbound_limit_sits_at_32():
    assert sl2.MAX_HBOUND == 32
    assert block_report(3, 0, hbound=32)["verdicts"]["koszul_linear"]
    for hbound in (0, 33):
        with pytest.raises(ValueError, match=r"hbound must lie in \[1, 32\]"):
            block_report(3, 0, hbound=hbound)


def test_lambda_range_enforced():
    with pytest.raises(ValueError):
        build_regular_block(5, 2)
    with pytest.raises(ValueError):
        build_regular_block(3, -1)
    with pytest.raises(ValueError):
        build_regular_block(9, 0)
    with pytest.raises(ValueError, match=r"lambda must lie in \[0, \(p-3\)/2\] = \[0, 1\], got 2"):
        quiver_presentation(5, 2)


def test_a_failing_ext_pattern_refuses_the_block(monkeypatch):
    """The Ext pattern is checked by a ValueError that names p, not by an
    assert, so it holds under ``python -O`` too."""
    monkeypatch.setattr(sl2, "_ext_pattern_holds", lambda p: False)
    with pytest.raises(ValueError, match=r"^unexpected Ext pattern at p = 5$"):
        build_regular_block(5, 0)
    code = "from koszulkit import sl2; sl2._ext_pattern_holds = lambda p: False; sl2.build_regular_block(5, 0)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sl2.__file__))}
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 1 and run.stderr.splitlines()[-1] == "ValueError: unexpected Ext pattern at p = 5"


# -- quiver -------------------------------------------------------------------

def test_quiver_basic_dims():
    basic = quiver_basic_algebra(3)
    assert basic.dim == 8
    assert basic.dims_by_degree() == {0: 2, 1: 4, 2: 2}


def test_quiver_relations_close():
    E = ref.expansion(quiver_basic_algebra(3))
    i = {name: E.labels.index((name, 0, 0)) for name, _, _ in E.labels}
    a, b = np.indices((E.dim, E.dim))
    degree_sum = E.degrees[a] + E.degrees[b]
    assert not E.coeff[a, b][degree_sum >= 3].any()
    for x, y, z in (("ubar", "u", "z1"), ("vbar", "v", "z1"), ("u", "ubar", "z2"), ("v", "vbar", "z2")):
        assert E.product(i[x], i[y]) == (i[z], 1)
    for x, y in (("ubar", "v"), ("vbar", "u"), ("u", "vbar"), ("v", "ubar")):
        assert E.product(i[x], i[y])[1] == 0


def test_quiver_corner_one_dimensional_in_degree_two():
    basic = quiver_basic_algebra(3)
    cartan = graded_cartan(basic)
    assert cartan[("L0", "L0")] == {0: 1, 2: 1}
    assert cartan[("L0", "L1")] == {1: 2}


@pytest.mark.parametrize("p,lam", [(3, 0), (5, 0), (5, 1), (7, 2)])
def test_quiver_graded_morita_correspondence(p, lam):
    rep = quiver_presentation(p, lam)
    assert rep["cartan_match"]
    assert rep["inflated_dims_match"]


# -- singular block -----------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_singular_block_is_matrix_algebra(p):
    A = build_singular_block(p)
    assert A.dim == p * p
    assert A.dims_by_degree() == {0: p * p}
    assert len(A.idempotents) == 1
    (_, t), = A.idempotents
    assert A.sizes[A.blocks[t, 0]] == p  # one simple, of dimension p


def test_singular_block_trace_form():
    A = build_singular_block(3)
    rep = frobenius_form(A, 0)
    assert rep["gram_rank"] == 9
    assert rep["nondegenerate"] and rep["symmetric"] and rep["graded"]


# -- Frobenius structure ------------------------------------------------------

def test_frobenius_p3():
    A = build_regular_block(3, 0)
    rep = frobenius_form(A, 2)
    assert rep["gram_rank"] == 18
    assert rep["nondegenerate"] and rep["symmetric"] and rep["graded"]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_all_regular(p):
    for lam in range((p - 1) // 2):
        rep = frobenius_form(build_regular_block(p, lam), 2)
        assert rep["nondegenerate"] and rep["symmetric"] and rep["graded"]


def test_anti_automorphism_block_and_quiver():
    for alg in (build_regular_block(3, 0), quiver_basic_algebra(3)):
        rep = anti_automorphism_check(alg)
        assert rep["involution"]
        assert rep["degree_preserving"]
        assert rep["antimultiplicative"]


def test_poincare_palindromy_p3():
    rep = poincare_symmetry(build_regular_block(3, 0), 1)
    assert rep["coefficients"] == [5, 8, 5]
    assert rep["palindromic"]


def test_poincare_palindromy_p5():
    rep = poincare_symmetry(build_regular_block(5, 1), 1)
    assert rep["coefficients"] == [13, 24, 13]
    assert rep["palindromic"]


def test_poincare_singular_constant():
    rep = poincare_symmetry(build_singular_block(5), 0)
    assert rep["coefficients"] == [25]
    assert rep["palindromic"]


# -- Koszulity ----------------------------------------------------------------

def test_first_syzygy_generators_degree_one():
    A = build_regular_block(3, 0)
    amb = ProjectiveSum(A, [(A.idempotents[0][1], 0)])
    syz = entries(np.eye(len(amb.element), dtype=np.int64)[:, amb.degrees >= 1])
    assert np.unique(minimal_generators(amb, syz)[1]).tolist() == [1]


def test_koszulity_p3():
    rep = koszulity_probe(build_regular_block(3, 0), 4)
    assert rep["linear"]
    for entry in rep["simples"]:
        assert [s["generator_degrees"] for s in entry["steps"]] == [[1], [2], [3], [4]]


def test_koszulity_singular_trivial():
    rep = koszulity_probe(build_singular_block(5), 4)
    assert rep["linear"]
    for entry in rep["simples"]:
        assert entry["steps"] == []


def truncated_polynomial(n, p=3):
    """k[x]/(x^n) with x in degree 1, as a dense table; basis x^0 .. x^(n-1)."""
    products = np.array([(i, j, i + j, 1) for i in range(n) for j in range(n) if i + j < n]).T
    return Dense(p, range(n), range(n), products, [0], [("k", 0, 1)], {n - 1: 1})


def test_koszulity_fails_on_the_cubic_truncation():
    # the simple's first syzygy (x, x^2) is generated by x in degree 1; the
    # cover x^i -> x^(i+1) has kernel x^2 in degree 3, the second syzygy
    rep = koszulity_probe(algebra(truncated_polynomial(3)), 4)
    assert not rep["linear"]
    (entry,) = rep["simples"]
    assert [s["generator_degrees"] for s in entry["steps"]] == [[1], [3]]
    assert entry["witness"] == [2, 3]


def test_koszulity_holds_on_the_dual_numbers():
    rep = koszulity_probe(algebra(truncated_polynomial(2)), 8)
    assert rep["linear"]
    (entry,) = rep["simples"]
    assert [s["generator_degrees"] for s in entry["steps"]] == [[i] for i in range(1, 9)]
    assert entry["witness"] is None


def skew_algebra(p=5):
    """k<x, y>/(x^2, y^2, xy) with x in degree 1 and y in degree 2; basis 1,
    x, y, yx.  Its radical needs y as a generator, and yx is reached from x
    only by the degree-2 element y."""
    products = np.array([(0, b, b, 1) for b in range(4)] + [(b, 0, b, 1) for b in range(1, 4)] + [(2, 1, 3, 1)]).T
    return Dense(p, ["1", "x", "y", "yx"], [0, 1, 2, 3], products, [0], [("k", 0, 1)], {3: 1})


def test_koszulity_sees_a_generator_above_degree_one():
    (entry,) = koszulity_probe(algebra(skew_algebra()), 4)["simples"]
    assert entry["steps"] == [{"syzygy": 1, "generator_degrees": [1, 2]}] and entry["witness"] == [1, 2]


def ext_counts(A, depth):
    """P(t) as an array P[r, s, i]: the generators on the projective of
    simple s at step i of the minimal resolution of simple r, for i <= depth,
    re-run with ``ProjectiveSum``, ``minimal_generators`` and ``next_syzygy``
    as the probe runs them.  Step 0 is the cover of simple r itself, and
    every step must be linear."""
    k = len(A.idempotents)
    P = np.zeros((k, k, depth + 1), dtype=np.int64)
    for r, (_, e) in enumerate(A.idempotents):
        P[r, r, 0] = 1
        amb = ProjectiveSum(A, [(e, 0)])
        top = (amb.degrees >= 1).nonzero()[0]
        syz = top, np.arange(len(top)), np.ones(len(top), dtype=np.int64), len(top)
        for step in range(1, depth + 1):
            gens = minimal_generators(amb, syz)
            assert (gens[1] == step).all(), (r, step)
            P[r, :, step] = np.bincount(gens[0], minlength=k)
            amb, syz = next_syzygy(amb, gens, step)
    return P


@pytest.mark.parametrize("p", [3, 5, 7, 11, 23])
def test_ext_counts_invert_the_graded_cartan_matrix(p):
    """The Euler characteristic of a linear minimal resolution (Beilinson-
    Ginzburg-Soergel, J. AMS 9, 1996, 2.11): P(-t) C(t)^T = I mod t^11, for
    C_us(t) the Hilbert series of e_u A e_s (``graded_cartan``) and P(t)
    the resolution's counts (``ext_counts``) to depth 10.  Every regular and
    the singular block at p, and the quiver basic algebra for p <= 7."""
    depth = 10
    algebras = [build_regular_block(p, lam) for lam in range((p - 1) // 2)] + [build_singular_block(p)]
    for A in algebras + ([quiver_basic_algebra(p)] if p <= 7 else []):
        labels = [label for label, _ in A.idempotents]
        k = len(labels)
        C = np.zeros((k, k, depth + 1), dtype=np.int64)
        for (u, s), dims in graded_cartan(A).items():
            for d, n in dims.items():
                C[labels.index(u), labels.index(s), d] = n
        P = ext_counts(A, depth) * (-1) ** np.arange(depth + 1)  # P(-t)
        got = np.array([[sum(np.convolve(P[r, s], C[u, s])[: depth + 1] for s in range(k)) for u in range(k)] for r in range(k)])
        want = np.zeros_like(C)
        want[:, :, 0] = np.eye(k, dtype=np.int64)
        assert (got == want).all(), (A.types, got)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 23])
def test_graded_cartan_is_gorenstein_symmetric(p):
    """t^{2N} C_rs(1/t) = C_rs(t) for every pair (r, s) of ``graded_cartan``,
    2N the top degree: 2 on the regular blocks and the quiver basic algebra
    (p <= 7), 0 on the singular block.  With the BGS identity P(-t) C(t)^T
    = I above, this is P(1/t) = t^{2N} P(t) for these symmetric blocks."""
    algebras = [(build_regular_block(p, lam), 2) for lam in range((p - 1) // 2)] + [(build_singular_block(p), 0)]
    for A, top in algebras + ([(quiver_basic_algebra(p), 2)] if p <= 7 else []):
        for pair, dims in graded_cartan(A).items():
            assert dims == {top - d: n for d, n in dims.items()}, (p, pair, dims)


def probe_algebras():
    """(algebra, its dense table) pairs.  The probe reads an algebra's corner
    of types, and the reference every label: the blocks at p = 7 (blocks of
    sizes up to 6) and each one-entry change of the p = 5, lambda = 1 type
    table (sizes 2 and 3) that check_axioms accepts test the Morita lemma
    against the dense expansion of their labels."""
    yield from small_algebras()
    for p in (3, 5):
        yield build_singular_block(p), ref.singular_block(p)
    for D in (skew_algebra(), truncated_polynomial(2), truncated_polynomial(3)):
        yield algebra(D), D
    A = build_regular_block(5, 1)
    changed = [B for _, P, C in type_table_changes(A) if not (B := with_type_table(A, P, C, check=False)).check_axioms()]
    assert changed
    for B in [*(build_regular_block(7, lam) for lam in range(3)), build_singular_block(7), *changed]:
        yield B, ref.expansion(B)


@pytest.mark.parametrize("hbound", range(1, 7))
def test_koszulity_probe_matches_the_dense_reference(hbound):
    for A, D in probe_algebras():
        assert koszulity_probe(A, hbound) == probe_reference.koszulity_probe(D, hbound)


def degrees_by_column(x, degrees):
    """The distinct (column, degree of a row) pairs of the columns with
    entries x = (rows, cols, vals, width), for row degrees ``degrees``."""
    rows, cols, _, _ = x
    return np.unique(np.stack([cols, degrees[rows]]), axis=1)


def homogeneous(x, degrees) -> bool:
    """Whether every column of x has its entries in one degree."""
    column, _ = degrees_by_column(x, degrees)
    return len(np.unique(column)) == len(column)


def linear_at_first_step(reports) -> set:
    """The keys of the probe ``reports`` with a simple whose first syzygy is
    generated in degree 1."""
    return {a for a, r in reports.items() if any(e["steps"][:1] == [{"syzygy": 1, "generator_degrees": [1]}] for e in r["simples"])}


def test_the_probe_eliminates_homogeneous_columns(monkeypatch):
    """The premise of the lemma in the ``blockalg`` docstring: every column
    the probe hands to ``independent_columns`` or ``kernel_basis`` lies in
    one degree of its rows' basis, each column of a cover map in its cover
    basis element's, and every kernel column it gets back lies in one
    degree of the cover's basis.  ``minimal_generators`` makes one greedy
    pass, over e_r K for every simple r.  Every graded algebra of
    ``probe_algebras()`` is eliminated on, each one whose probe is linear
    at its first step also takes a kernel, and some matrices hold columns
    of several degrees, so the lemma is what makes them exact."""
    handed, greedy, kernels, mixed = [], set(), set(), []

    def recorded(fn):
        def call(*args):
            handed.append(args)
            return fn(*args)
        return call

    def generators(amb, syz):
        handed.clear()
        out = minimal_generators(amb, syz)
        # one greedy pass, over e_r K for every simple r
        (base, cands, m, _), = handed
        assert cands[3] == len(amb.algebra.idempotents) * syz[3] and m == len(amb.element)
        assert homogeneous(syz, amb.degrees) and homogeneous(base, amb.degrees) and homogeneous(cands, amb.degrees)
        mixed.append(len(np.unique(degrees_by_column(cands, amb.degrees)[1])) > 1)
        greedy.add(id(amb.algebra))
        return out

    def syzygy(amb, gens, step):
        handed.clear()
        cover, ker = next_syzygy(amb, gens, step)
        ((rows, cols, _, width), m, _), = handed
        assert m == len(amb.element) and width == len(cover.element)
        assert (amb.degrees[rows] == cover.degrees[cols]).all()
        assert homogeneous(ker, cover.degrees)
        kernels.add(id(amb.algebra))
        return cover, ker

    monkeypatch.setattr(blockalg, "independent_columns", recorded(blockalg.independent_columns))
    monkeypatch.setattr(blockalg, "kernel_basis", recorded(blockalg.kernel_basis))
    monkeypatch.setattr(blockalg, "minimal_generators", generators)
    monkeypatch.setattr(blockalg, "next_syzygy", syzygy)
    algebras = [A for A, _ in probe_algebras()]
    reports = {id(A): koszulity_probe(A, 4) for A in algebras}
    graded = {id(A) for A in algebras if (A.type_degrees > 0).any()}
    assert greedy == graded and len(graded) == len(algebras) - 3  # all but the singular blocks at p = 3, 5 and 7
    linear_at_1 = linear_at_first_step(reports)
    assert kernels == linear_at_1 and len(linear_at_1) < len(graded)
    assert any(mixed)


def test_regular_blocks_at_one_p_share_one_resolution():
    """Every regular block at one p has the same corner of types, so the
    reports at p = 11 resolve it once for lambda = 0..4; the singular
    block is one more.  Each report's verdict equals a cold probe's."""
    kept = sl2._koszul_linear
    kept.cache_clear()
    reports = [block_report(11, lam) for lam in range(5)]
    assert (kept.cache_info().hits, kept.cache_info().misses, kept.cache_info().currsize) == (4, 1, 1)
    block_report(11, None)
    assert (kept.cache_info().misses, kept.cache_info().currsize) == (2, 2)
    for lam, report in enumerate(reports):
        assert report["verdicts"]["koszul_linear"] is koszulity_probe(build_regular_block(11, lam), 4)["linear"] is True


@pytest.mark.parametrize("p", [3, 5, 7, 11, 23])
def test_every_regular_block_at_one_p_has_the_corner_at_lambda_0(p):
    """The premise of the kept verdicts' key: only the block sizes of a
    regular block depend on lambda, so its corner of types is the one at
    lambda = 0, and every report's verdict, kept from lambda = 0 past the
    first, is a cold probe's of its own block."""
    base = build_regular_block(p, 0)
    sl2._koszul_linear.cache_clear()
    for lam in range((p - 1) // 2):
        A = build_regular_block(p, lam)
        for attr in ("type_degrees", "blocks", "product_type", "product_coeff"):
            assert (getattr(A, attr) == getattr(base, attr)).all(), (lam, attr)
        assert (A.units, A.idempotents) == (base.units, base.idempotents)
        assert block_report(p, lam)["verdicts"]["koszul_linear"] is koszulity_probe(A, 4)["linear"]
    assert sl2._koszul_linear.cache_info().misses == 1


def test_hbound_keeps_its_type():
    """An hbound equal to 4 or 1 but of another type gives what it gives
    on its own: 4.0 raises in ``range``, and True, np.int64(4) and
    np.array(4) come back as given.  The kept verdicts are keyed with the
    hbound's type, so a report at 4.0 raises after one at 4 as it does
    cold."""
    A = build_regular_block(5, 1)
    at = {h: koszulity_probe(A, h) for h in (4, 1)}
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        koszulity_probe(A, 4.0)
    for hbound, same in ((True, 1), (np.int64(4), 4), (np.array(4), 4)):
        report = koszulity_probe(A, hbound)
        assert type(report["hbound"]) is type(hbound) and report["hbound"] == same
        assert {**report, "hbound": same} == at[same]
    block_report(5, 1, 4)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        block_report(5, 1, 4.0)


def test_a_changed_report_leaves_the_next_one_unchanged():
    """Every probe returns a fresh report."""
    A = build_regular_block(5, 1)
    cold = koszulity_probe(A, 4)
    for _ in range(2):
        report = koszulity_probe(A, 4)
        assert report == cold
        report["linear"] = False
        report["simples"][0]["steps"][0]["generator_degrees"].append(9)
        report["simples"].pop()
    assert koszulity_probe(A, 4) == cold


def test_the_probe_memo_stays_at_its_bound():
    """Singular reports at more primes than the kept verdicts hold keep
    them at PROBE_CACHE_SIZE entries, and a report made after its verdict's
    eviction is equal."""
    kept = sl2._koszul_linear
    kept.cache_clear()
    primes = [p for p in range(3, 2000) if is_odd_prime(p)][: sl2.PROBE_CACHE_SIZE + 12]
    before = block_report(primes[0], None)
    for p in primes[1:]:
        block_report(p, None)
    info = kept.cache_info()
    assert info.currsize == info.maxsize == sl2.PROBE_CACHE_SIZE and info.misses == len(primes)
    assert block_report(primes[0], None) == before
    assert kept.cache_info().misses == len(primes) + 1


def test_degree_zero_part_is_matrix_product():
    E = ref.expansion(build_regular_block(5, 1))
    deg0 = [i for i in range(E.dim) if E.degrees[i] == 0]
    # closed under multiplication and of the right dimension
    assert len(deg0) == 4 + 9
    for a in deg0:
        for b in deg0:
            i, c = E.product(a, b)
            if c:
                assert int(E.degrees[i]) == 0


def test_multiplicity_weighted_ext_dims():
    # sum over pairs of summands of (multiplicity * Ext dims) = 2 p^2
    for p in (3, 5, 7):
        for lam in range((p - 1) // 2):
            n = (lam + 1, p - 1 - lam)
            total = 0
            for r in range(2):
                for s in range(2):
                    total += n[r] * n[s] * sum(block_ext_dims(r, s).values())
            assert total == 2 * p * p


def test_block_report_shape():
    rep = block_report(3, 0)
    assert rep["dimension"] == 18
    assert rep["poincare"] == [5, 8, 5]
    assert all(rep["verdicts"].values())
    rep = block_report(3, None)
    assert rep["dimension"] == 9
    assert all(rep["verdicts"].values())


# -- the readers against the per-pair loops on the dense tables ----------------

def regular_blocks(primes=(3, 5)):
    """(algebra, its dense table) pairs: each regular block, and its table
    rescaled, as one type per label."""
    for p in primes:
        for lam in range((p - 1) // 2):
            D = ref.regular_block(p, lam)
            yield build_regular_block(p, lam), D
            R = ref.rescaled(D, 10 * p + lam)
            yield algebra(R), R


def small_algebras():
    yield quiver_basic_algebra(3), ref.quiver(3)
    R = ref.rescaled(ref.quiver(5), 0)
    yield algebra(R), R
    yield from regular_blocks()


@pytest.mark.parametrize("p", [3, 5, *WIDE_PRIMES])
def test_act_on_matrix_matches_per_element_loop(p):
    """``act`` on types against the dense label table's per-element loop on
    the corner: type t is the label (t, 0, 0), basis index offset[t], and
    the corner's basis elements must be acted into the corner.  Columns run
    over the whole basis, and each is acted on by its own type: every
    column by one type, and the columns by two types of each degree 0, 1
    and 2 in a random order.  Above
    p = 5 the p = 3 block's table, rescaled over GF(p); the columns are held
    in the narrowest dtype of p."""
    rng = np.random.default_rng(p)
    if p <= 5:
        cases = regular_blocks([p])
    else:
        R = ref.rescaled(ref.regular_block(3, 0), p, p)
        cases = [(algebra(R), R)]
    for A, D in cases:
        (_, e0), (_, e1) = A.idempotents
        summands = [(e0, 0), (e1, 1), (e0, 2)]
        amb = ProjectiveSum(A, summands)
        label = A.offset[:-1]
        labelled = [(int(label[e]), shift) for e, shift in summands]
        basis = [(g, b) for g, (e, _) in enumerate(labelled) for b in ref.column_basis(D, e)]
        type_of = {int(b): t for t, b in enumerate(label)}
        corner = [n for n, (_, b) in enumerate(basis) if b in type_of]
        degrees = [int(D.degrees[basis[n][1]]) + summands[basis[n][0]][1] for n in corner]
        # the basis is the reference's corner, stably sorted by degree
        order = sorted(range(len(corner)), key=degrees.__getitem__)
        assert list(zip(amb.summand.tolist(), amb.element.tolist())) == [(basis[corner[i]][0], type_of[basis[corner[i]][1]]) for i in order]
        assert amb.degrees.tolist() == [degrees[i] for i in order]
        position = np.array(corner)[order]  # amb's basis element n in the reference basis
        size = len(position)

        def reference(a, x):
            """Columns of x, over the whole basis, acted on one at a time in
            the reference basis by the labels of the types a; the result
            must lie in the corner."""
            full = np.zeros((len(basis), x.shape[1]), dtype=np.int64)
            full[position] = x
            out = np.stack([ref.act(D, labelled, int(label[a[c]]), full[:, c]) for c in range(x.shape[1])], axis=1)
            assert not np.delete(out, position, axis=0).any()
            return out[position]

        def action(a, x):
            """act's entries, checked distinct, sorted by (row, column) and
            in [1, p), made dense over the basis."""
            y = rows, cols, vals, width = amb.act(a, entries(x))
            assert width == x.shape[1] and ((0 <= cols) & (cols < width)).all()
            assert (np.diff(rows * width + cols) > 0).all()
            assert ((1 <= vals) & (vals < p)).all()
            return dense(y, size)

        x = rng.integers(0, p, size=(size, 6)).astype(np.min_scalar_type(p))
        x[:, 1] = 0
        for a in range(len(A.types)):
            assert (action(np.full(6, a), x) == reference([a] * 6, x)).all()
        mixed = [t for d in (0, 1, 2) for t in (A.type_degrees == d).nonzero()[0][:2]]
        for _ in range(4):
            a = rng.permutation(mixed)
            assert (action(a, x) == reference(a, x)).all()


def test_graded_cartan_matches_per_pair_loop():
    for A, D in small_algebras():
        assert graded_cartan(A) == ref.graded_cartan(D)


def test_anti_automorphism_matches_per_pair_loop():
    for A, D in small_algebras():
        assert anti_automorphism_check(A) == ref.anti_automorphism_check(D)


def test_rescaled_blocks_keep_every_verdict():
    for A, _ in regular_blocks():
        rep = frobenius_form(A, 2)
        assert rep["nondegenerate"] and rep["symmetric"] and rep["graded"]
        assert koszulity_probe(A, 3)["linear"]


# -- the checks can fail --------------------------------------------------------

def test_frobenius_form_rejects_off_diagonal_trace():
    """The 3 x 3 matrix algebra as one type per label, traced on the label
    (0, 1) alone."""
    D = ref.singular_block(3)
    D.trace = {D.labels.index(("E", 0, 0, 0, 1)): 1}
    rep = frobenius_form(algebra(D), 0)
    assert rep["gram_rank"] == 3 and rep["dim"] == 9
    assert not rep["symmetric"] and not rep["nondegenerate"]


def test_frobenius_form_rejects_wrong_top_degree():
    assert not frobenius_form(build_regular_block(3, 0), 1)["graded"]


def test_projective_sum_rejects_non_idempotent_column():
    """A summand is a type e with t.e = t for every t it does not kill: the
    degree-2 type E(0, 2) sends E(0, 0) to E(0, 2), and E(0, 0) with
    E(0, 0).E(0, 0) = 2 E(0, 0) scales it."""
    A = build_regular_block(3, 0)
    E0, E2 = A.types.index(("E", 0, 0)), A.types.index(("E", 0, 2))
    C = A.product_coeff.copy()
    C[E0, E0] = 2
    for B, e in ((A, E2), (with_type_table(A, A.product_type, C, check=False), E0)):
        with pytest.raises(ValueError, match="basis-aligned"):
            ProjectiveSum(B, [(e, 0)])


def test_projectives_refuse_idempotents_that_are_not_orthogonal():
    """The probe splits a module by its idempotents, so e_r.e_s must vanish
    for r != s.  The p = 3 block with E(0, 0) listed for both simples is
    refused wherever a projective is built, the probe's first included,
    while check_axioms, which reads no idempotent, still takes it."""
    A = build_regular_block(3, 0)
    A.idempotents = [(label, A.idempotents[0][1]) for label, _ in A.idempotents]
    assert A.check_axioms() == []
    for build in (lambda: ProjectiveSum(A, [(A.idempotents[0][1], 0)]), lambda: koszulity_probe(A, 2)):
        with pytest.raises(ValueError, match="idempotents are not orthogonal"):
            build()


# -- pinned report bytes ----------------------------------------------------------

REPORT_SHA256 = {
    (3, 0): "e27ff9e166bdbedf2378e2475f63721ed5b9915bea44bd91f0cb75dcebe32d0a",
    (3, None): "7d3501312908f5ca085d980ab0832a47351effbc1536070d42d78a7287a55378",
    (5, 0): "6308072b034b3e0bdb79b1a39d71392d3e9be75ed2e3f54ecd3dc1b6ef215704",
    (5, 1): "1c760bd8735aa80e445568dedb6a574c244ad6e8a43f4f4e95b9b80a0c843700",
    (5, None): "bacd0584a03be72af1ed9bbd58b6e896a436284614506010519950ebe48f00dd",
    (7, 0): "ff6042eb497d4f6d2ef379be5e0b9c0c58db7ebb67fcf15dbeef82f740a346d9",
    (7, 1): "c440fe55e652dee2511d5bd36fbdbd3a865ce392f4fbaecb2fc3e19b85deff60",
    (7, 2): "66ce1030304c61897437642919e3f8bf858ffc961e11c822299a2a93401c0e14",
    (7, None): "e6e9799cc2d7382578820183a31fa4716a918c54da9880ab18d86e28d616970b",
}


@pytest.mark.parametrize("p,lam", list(REPORT_SHA256))
def test_block_report_bytes_pinned(p, lam):
    text = json.dumps(block_report(p, lam), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[(p, lam)]


# The regular block at lambda 0 and hbound 8, at p = 23 and p = 37 (dimension
# 2,738); both hashes date from the dense product tables.
LARGE_REPORT_SHA256 = {
    23: "7192fd5be3ab5829f7301798531c072ad035b307eded31814233086ded214902",
    37: "c0f16cce8cf6f1851ee09b741428cb8c3e03645b0d2dfaf69b39815ea6b87f9e",
}


@pytest.mark.parametrize("p", list(LARGE_REPORT_SHA256))
def test_large_block_report_bytes_pinned(p):
    text = json.dumps(block_report(p, 0, 8), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_REPORT_SHA256[p]


def test_syzygy_kernel_blocks_are_full_kernels(monkeypatch):
    """Each kernel K that next_syzygy returns, on the pinned blocks and on
    every algebra of ``probe_algebras()`` at hbound 4, is a kernel of its
    step's whole map phi (the generators acted on by the cover's basis) of
    full nullity: phi K = 0 mod p, and its columns are independent and
    number cols(phi) - rank(phi).  Both are made dense here, phi from the
    generators' entries column by column.  The generator degrees of the
    probe alone do not show a kernel with a wrong column: a kernel_basis
    that skips back-substitution passes every pinned report, yet fails
    phi K = 0 on some one-entry changes of the p = 5 type table."""
    blocks = []

    def recording(amb, gens, step):
        cover, ker = next_syzygy(amb, gens, step)
        targets = dense(gens[2], len(amb.element))
        phi = dense(amb.act(cover.element, entries(targets[:, cover.summand])), len(amb.element))
        blocks.append((phi, dense(ker, len(cover.element)), cover.algebra.p, step, id(amb.algebra)))
        return cover, ker

    monkeypatch.setattr(blockalg, "next_syzygy", recording)
    cases = set()  # (p, lambda, step) of each kernel with columns of a nonzero map
    for p, lam in REPORT_SHA256:
        sl2._koszul_linear.cache_clear()  # so every report's probe resolves
        start = len(blocks)
        block_report(p, lam)
        cases |= {(p, lam, step) for phi, k, _, step, _ in blocks[start:] if phi.any() and k.shape[1]}
    # a linear probe at hbound 4 takes syzygies 1-3 of each regular block
    assert cases == {(p, lam, step) for p, lam in REPORT_SHA256 if lam is not None for step in (1, 2, 3)}
    start = len(blocks)
    algebras = [A for A, _ in probe_algebras()]
    reports = {id(A): koszulity_probe(A, 4) for A in algebras}
    # every algebra whose probe is linear at its first step hands a kernel of
    # a nonzero map to the check
    checked = {a for phi, k, _, _, a in blocks[start:] if phi.any() and k.shape[1]}
    assert checked == linear_at_first_step(reports)
    for phi, k, p, _, _ in blocks:
        assert not (phi @ k % p).any()
        assert dense_reference.rank(k, p) == k.shape[1] == phi.shape[1] - dense_reference.rank(phi, p)


def test_the_probe_builds_no_syzygy_past_hbound(monkeypatch):
    """A simple whose resolution stays linear to hbound takes hbound - 1
    syzygies: the generators of the last one are read, and nothing after."""
    steps = []

    def counted(amb, gens, step):
        steps.append(step)
        return next_syzygy(amb, gens, step)

    monkeypatch.setattr(blockalg, "next_syzygy", counted)
    A = build_regular_block(5, 1)
    for hbound in (1, 2, 4):
        steps.clear()
        report = koszulity_probe(A, hbound)
        assert report["linear"] and all(len(s["steps"]) == hbound for s in report["simples"])
        assert sorted(steps) == sorted([*range(1, hbound)] * len(A.idempotents))


# -- products by index arithmetic against the per-pair builders ----------------

@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_matrix_units_match_per_pair_builder(p):
    """Every block's labels, and the product of every pair by the j == k
    rule on its type table, equal the dense table of the per-pair builder;
    so do the idempotents, the per-type trace on the labels (t, i, i), the
    degrees and the dimensions by degree."""
    cases = [(build_regular_block(p, lam), ref.regular_block(p, lam)) for lam in range((p - 1) // 2)]
    cases.append((build_singular_block(p), ref.singular_block(p)))
    for A, D in cases:
        E = ref.expansion(A)
        assert [(*name, i, j) for name, i, j in E.labels] == D.labels
        assert (E.coeff == D.coeff).all() and (E.idx == D.idx).all()
        assert E.idempotents == D.idempotents and E.trace == D.trace
        assert (E.degrees == D.degrees).all()
        assert A.dims_by_degree() == dict(zip(*(x.tolist() for x in np.unique(D.degrees, return_counts=True))))


def with_type_table(A, P, C, check=True):
    """A with its type table replaced by product types P and coefficients C."""
    t, u = C.nonzero()
    units = [A.types[x] for x in A.units]
    idems = [(cls, A.types[x]) for cls, x in A.idempotents]
    trace = {A.types[x]: v for x, v in enumerate(A.trace.tolist()) if v}
    args = A.p, A.types, A.type_degrees, A.blocks, A.sizes, (t, u, P[t, u], C[t, u]), units, idems, trace
    return construct(*args, check=check)


def type_table_changes(A):
    """Every change of one entry of A's type table that the constructor
    takes: a nonzero product doubled, zeroed or sent to another type
    between the same blocks, and a zero product of composable types set."""
    P, C = A.product_type, A.product_coeff
    T = len(A.types)
    for t in range(T):
        for u in range(T):
            if A.blocks[t, 1] != A.blocks[u, 0]:
                continue
            fits = [v for v in range(T) if (A.blocks[v] == (A.blocks[t, 0], A.blocks[u, 1])).all()]
            for v, coeff in [(P[t, u], 2 * C[t, u]), (P[t, u], 0), *((v, C[t, u]) for v in fits if v != P[t, u])] if C[t, u] else [(v, 1) for v in fits]:
                P2, C2 = P.copy(), C.copy()
                P2[t, u], C2[t, u] = v, coeff % A.p
                yield (t, u), P2, C2


def test_a_changed_type_table_entry_fails_check_axioms():
    """On the p = 3 block (8 x 8 type table), check_axioms on each changed
    table equals the dense label-level checks on its expansion, and it
    fails for most changes; doubling E(0, 0).E(0, 0) breaks the unit and
    associativity."""
    A = build_regular_block(3, 0)
    E00 = A.types.index(("E", 0, 0))
    failing = 0
    for (t, u), P, C in type_table_changes(A):
        B = with_type_table(A, P, C, check=False)
        issues = B.check_axioms()
        assert issues == ref.check_axioms(ref.expansion(B))
        failing += bool(issues)
        if (t, u) == (E00, E00) and C[t, u] == 2:
            assert issues == ["unit fails on the left at basis 0", "unit fails on the right at basis 0", "multiplication is not associative"]
            with pytest.raises(ValueError, match="multiplication is not associative"):
                with_type_table(A, P, C)
    assert failing > 50


def self_block_traces(A):
    """Every trace of 0, 1 or 2 on each of A's types from a block to itself."""
    square = (A.blocks[:, 0] == A.blocks[:, 1]).nonzero()[0]
    for values in itertools.product(range(3), repeat=len(square)):
        yield dict(zip([A.types[t] for t in square], values))


# Type maps for the anti-automorphism check besides the transposition: one
# that swaps the degrees of E(r, 0) and E(r, 2), and one that cycles the V
# types, swapping their blocks but not squaring to the identity.  Each
# lifts to labels as (t, i, j) -> (phi t, j, i).
CYCLE = [("V", 0, 1, 0), ("V", 1, 0, 0), ("V", 0, 1, 1), ("V", 1, 0, 1)]
TYPE_MAPS = {
    "transposition": sl2._antiauto_image,
    "degree swap": lambda t: ("E", t[1], 2 - t[2]) if t[0] == "E" else ("V", t[2], t[1], t[3]),
    "V cycle": lambda t: CYCLE[(CYCLE.index(t) + 1) % 4] if t in CYCLE else t,
}


def test_type_table_readers_match_the_dense_checks_at_block_sizes_2_and_3():
    """On the p = 5, lambda = 1 block, of blocks of sizes 2 and 3 (every
    other test of the lemma has blocks of size 1), and on each one-entry
    change of its type table: graded_cartan, anti_automorphism_check under
    each type map, and frobenius_form under every trace of 0, 1 or 2 on
    the self-block types equal the dense checks on the expansion, and every
    verdict takes both values."""
    A = build_regular_block(5, 1)
    assert A.sizes.tolist() == [2, 3]
    cartans, autos, forms = set(), [], []
    for _, P, C in [(None, A.product_type, A.product_coeff), *type_table_changes(A)]:
        B = with_type_table(A, P, C, check=False)
        D = ref.expansion(B)
        cartan = graded_cartan(B)
        assert cartan == ref.graded_cartan(D)
        cartans.add(repr(cartan))
        for phi in TYPE_MAPS.values():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sl2, "_antiauto_image", phi)
                mp.setattr(ref, "transpose", lambda label: (phi(label[0]), label[2], label[1]))
                autos.append(anti_automorphism_check(B))
                assert autos[-1] == ref.anti_automorphism_check(D)
        for trace in self_block_traces(A):
            B.trace[[B.types.index(t) for t in trace]] = list(trace.values())
            D.trace = {n: v for n, (t, i, j) in enumerate(D.labels) if i == j and (v := int(B.trace[B.types.index(t)]))}
            forms.append(frobenius_form(B, 2))
            assert forms[-1] == ref.frobenius_form(D, 2)
    assert len(cartans) > 1
    for field in ("involution", "degree_preserving", "antimultiplicative"):
        assert {a[field] for a in autos} == {False, True}
    for field in ("nondegenerate", "symmetric", "graded"):
        assert {f[field] for f in forms} == {False, True}


def test_anti_automorphism_check_refuses_a_type_map_that_keeps_the_blocks(monkeypatch):
    """With the V types fixed, the label map would send (V(0, 1, t), 0, j)
    to (V(0, 1, t), j, 0), not a label when j > 0 (blocks of sizes 1 and 4
    at p = 5, lambda = 0): no involution of the labels."""
    monkeypatch.setattr(sl2, "_antiauto_image", lambda name: name)
    rep = anti_automorphism_check(build_regular_block(5, 0))
    assert rep == {"involution": False, "degree_preserving": True, "antimultiplicative": False}


REFUSALS = {
    "product off its blocks": r"types \('V', 0, 1, 0\) and \('E', 0, 0\) do not compose to \('V', 0, 1, 0\)",
    "product into other blocks": r"types \('E', 0, 0\) and \('V', 0, 1, 0\) do not compose to \('E', 0, 0\)",
    "unit between two blocks": "a unit or trace type must run from a block to itself",
    "empty block": "every block must have size at least 1",
}


@pytest.mark.parametrize("change", list(REFUSALS))
def test_the_constructor_refuses_what_the_arithmetic_cannot_index(change):
    A = build_regular_block(3, 0)
    P, C = A.product_type.copy(), A.product_coeff.copy()
    V, E = A.types.index(("V", 0, 1, 0)), A.types.index(("E", 0, 0))
    units, sizes = [A.types[x] for x in A.units], A.sizes
    if change == "product off its blocks":
        P[V, E], C[V, E] = V, 1
    elif change == "product into other blocks":
        P[E, V], C[E, V] = E, 1
    elif change == "unit between two blocks":
        units = [*units, ("V", 0, 1, 0)]
    else:
        sizes = [0, 2]
    t, u = C.nonzero()
    with pytest.raises(ValueError, match=REFUSALS[change]):
        BlockAlgebra(A.p, A.types, A.type_degrees, A.blocks, sizes, (t, u, P[t, u], C[t, u]), units, [], {})


# -- the checks on the type table against the dense loops ------------------------

def associativity_input(seed, kind):
    return ref.random_table(seed) if kind == "random" else ref.mutated_block(seed, kind)


@pytest.mark.parametrize("scale", [1, 5, 2**20])
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("random",) + MUTATIONS))
def test_is_associative_matches_dense_loop(scale, seed, kind):
    """Random and mutated tables as one type per label, where the type
    table is the whole table: each single-product mutation is seen.  With
    every structure constant times ``scale`` both sides of (ab)c = a(bc)
    gain scale^2, so the verdict stands where scale is a unit mod p, and
    the table is zero where it is not (5 at p = 5); 2^20 exceeds every p
    drawn, so the constructor reduces the constants mod p."""
    D = associativity_input(seed, kind)
    a, b, c, coeff = D.products()
    S = Dense(D.p, D.labels, D.degrees, (a, b, c, coeff * scale), [], [], {})
    verdict = ref.is_associative(D) if scale % D.p else True
    assert algebra(S, check=False).is_associative() == ref.is_associative(S) == verdict


def test_check_axioms_reads_only_the_type_table():
    """At p = 37 (dimension 2,738, 147,963 nonzero
    products) check_axioms peaks at about 0.12 MB (tracemalloc): it reads
    the 8 x 8 type table.  The dense tables it replaced held 38 MB.  So do
    the Frobenius form, the anti-automorphism and the Cartan table, which
    read the nonzero products label by label before (over 2.6 MB each of
    the first two at p = 23)."""
    A = build_regular_block(37, 0)
    checks = {
        "check_axioms": lambda: A.check_axioms() == [],
        "frobenius_form": lambda: frobenius_form(A, 2)["nondegenerate"],
        "anti_automorphism_check": lambda: all(anti_automorphism_check(A).values()),
        "graded_cartan": lambda: graded_cartan(A) == graded_cartan(quiver_basic_algebra(37)),
    }
    for name, check in checks.items():
        tracemalloc.start()
        try:
            assert check(), name
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, name


@pytest.mark.parametrize("p", [3, 5, 7])
def test_check_axioms_matches_the_dense_loop_on_every_block(p):
    cases = [(build_regular_block(p, lam), ref.regular_block(p, lam)) for lam in range((p - 1) // 2)]
    cases.append((build_singular_block(p), ref.singular_block(p)))
    for A, D in cases:
        assert A.check_axioms() == ref.check_axioms(D) == algebra(D).check_axioms() == []


def test_is_associative_sees_each_kind_of_failure():
    # basis a, b, c, d, e, f, g as 0..6; each table fails on the triple (a, b, c) only
    failures = {
        "only a(bc) != 0": [(1, 2, 3), (0, 3, 3)],
        "only (ab)c != 0": [(0, 1, 3), (3, 2, 3)],
        "(ab)c = f, a(bc) = g": [(0, 1, 3), (3, 2, 5), (1, 2, 4), (0, 4, 6)],
    }
    for pairs in failures.values():
        a, b, c = np.array(pairs).T
        D = Dense(3, range(7), [0] * 7, (a, b, c, np.ones_like(a)), [], [], {})
        assert not algebra(D, check=False).is_associative() and not ref.is_associative(D)


@pytest.mark.parametrize("kind", ("random",) + MUTATIONS)
def test_associativity_inputs_take_both_verdicts(kind):
    verdicts = {ref.is_associative(associativity_input(s, kind)) for s in range(40)}
    assert (False in verdicts) == (kind != "none")
    assert True in verdicts or kind != "random"


# -- the unit, the Frobenius form and the anti-automorphism against the dense code

def unit_input(seed, kind):
    """A table with degrees and a unit list.  A random table is made unital
    (basis 0 the identity) half the time; a mutated block keeps its unit
    list, or drops one entry, or lists it twice or p + 1 times (the sum of
    units is then 2 resp. 1 times the unit; p + 1 only for p < 1000, as
    the dense reference holds a column per listed unit)."""
    rng = np.random.default_rng([seed, 1])
    D = associativity_input(seed, kind)
    dim, p = D.dim, D.p
    if kind == "random":
        D.degrees = rng.integers(0, 2, size=dim)
        D.unit_indices = rng.integers(0, dim, size=rng.integers(0, 3)).tolist()
        if rng.random() < 0.5:
            D.idx[0, :dim] = D.idx[:dim, 0] = np.arange(dim)
            D.coeff[0, :dim] = D.coeff[:dim, 0] = 1
            D.unit_indices = [0]
    else:
        units = list(D.unit_indices)
        D.unit_indices = [units, units[1:], 2 * units, (p + 1 if p < 1000 else 2) * units][int(rng.integers(0, 4))]
    return D


def form_input(seed, kind):
    """A table with degrees and a trace, and a top degree: a mutated block
    keeps the block's half the time, and the rest are random."""
    rng = np.random.default_rng([seed, 2])
    D = associativity_input(seed, kind)
    dim, p = D.dim, D.p
    topdeg = int(D.degrees.max()) if kind != "random" else 2
    if kind == "random" or rng.random() < 0.5:
        D.degrees = rng.integers(0, 3, size=dim)
        keys = rng.integers(0, dim, size=rng.integers(0, 4))
        D.trace = {int(i): int(v) for i, v in zip(keys, rng.integers(-p, 2 * p, size=len(keys)))}
        topdeg = int(rng.integers(0, 5))
    return D, topdeg


AXIOM_KINDS = ("random",) + MUTATIONS


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(AXIOM_KINDS))
def test_unit_check_matches_the_dense_tables(seed, kind):
    D = unit_input(seed, kind)
    assert algebra(D, check=False).check_axioms() == ref.check_axioms(D)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(AXIOM_KINDS))
def test_frobenius_form_matches_the_dense_gram(seed, kind):
    D, topdeg = form_input(seed, kind)
    assert frobenius_form(algebra(D, check=False), topdeg) == ref.frobenius_form(D, topdeg)


@pytest.mark.parametrize("p, inner", [(3, 2), (5, 4), (7, 6), (7, 9), (11, 5), (11, 9)])
def test_frobenius_form_ranks_a_gram_matrix_that_is_not_monomial(p, inner):
    """Every product lands on basis element 0, of trace 1, so the Gram
    matrix is the coefficient table: an 8 x 8 product through ``inner``
    columns (ranks 2 to 8 over the cases), on which no pivot is found from
    positions alone, so elimination does all of the work."""
    dim, rng = 8, np.random.default_rng([p, inner])
    gram = rng.integers(1, p, size=(dim, inner)) @ rng.integers(0, p, size=(inner, dim)) % p
    live = gram != 0
    assert not structural_pivots(*live.nonzero(), dim)[0].any()
    a, b = live.nonzero()
    D = Dense(p, range(dim), [0] * dim, (a, b, np.zeros_like(a), gram[a, b]), [], [], {0: 1})
    assert frobenius_form(algebra(D, check=False), 0) == ref.frobenius_form(D, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS))
def test_anti_automorphism_matches_the_dense_gathers(seed, kind):
    """A mutated block as one type per label: its type names are the
    block's labels, which ``_antiauto_image`` transposes."""
    D = ref.mutated_block(seed, kind)
    assert anti_automorphism_check(algebra(D, check=False)) == ref.anti_automorphism_check(D)


def test_dense_check_inputs_take_every_verdict():
    seeds = range(40)
    issues = [ref.check_axioms(unit_input(s, k)) for k in AXIOM_KINDS for s in seeds]
    units = {m.split(" at ")[0] for found in issues for m in found if m.startswith("unit")}
    assert units == {"unit fails on the left", "unit fails on the right"}
    assert any(not any(m.startswith("unit") for m in found) for found in issues)
    forms = [ref.frobenius_form(*form_input(s, k)) for k in AXIOM_KINDS for s in seeds]
    for field in ("nondegenerate", "symmetric", "graded"):
        assert {f[field] for f in forms} == {False, True}
    assert len({f["gram_rank"] for f in forms}) > 10
    checks = [ref.anti_automorphism_check(ref.mutated_block(s, k)) for k in MUTATIONS for s in seeds]
    assert {c["antimultiplicative"] for c in checks} == {False, True}


# -- one invalid algebra per axiom message ----------------------------------------

def unital_products(dim, left=True, right=True):
    """e = basis 0 acting as the identity on the chosen sides."""
    pairs = [(0, b, b) for b in range(dim) if left or b == 0]
    pairs += [(b, 0, b) for b in range(1, dim) if right]
    return pairs


AXIOM_FAILURES = {
    # x.x = x though x has degree 1
    "grading is not multiplicative": ([0, 1], unital_products(2) + [(1, 1, 1)]),
    # e.x = e.y = 0: the first failing basis is x
    "unit fails on the left at basis 1": ([0, 0, 0], unital_products(3, left=False)),
    "unit fails on the right at basis 1": ([0, 0, 0], unital_products(3, right=False)),
    # (x.x).x = y.x = x but x.(x.x) = x.y = 0
    "multiplication is not associative": ([0, 0, 0], unital_products(3) + [(1, 1, 2), (2, 1, 1)]),
}


def test_structure_constants_and_the_unit_are_read_mod_p():
    # over GF(3): e.e = 4e = e, x.x = 3x = 0, and the unit e + e + e + e = e
    a, b, c, coeff = np.array([(0, 0, 0, 4), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 3)]).T
    E = ref.expansion(BlockAlgebra(3, ["e", "x"], [0, 0], [(0, 0)] * 2, [1], (a, b, c, coeff), ["e"] * 4, [], {}))
    assert E.product(0, 0) == (0, 1) and E.product(1, 1)[1] == 0


@pytest.mark.parametrize("message", list(AXIOM_FAILURES))
def test_check_axioms_names_each_failure(message):
    degrees, pairs = AXIOM_FAILURES[message]
    a, b, c = np.array(pairs).T
    with pytest.raises(ValueError) as info:
        algebra(Dense(5, range(len(degrees)), degrees, (a, b, c, np.ones_like(a)), [0], [], {}))
    assert str(info.value) == message
