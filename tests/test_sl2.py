import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
import probe_reference
from koszulkit import blockalg
from koszulkit.blockalg import BlockAlgebra, ProjectiveSum, minimal_generators, next_syzygy
from koszulkit.linalg import structural_pivots
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


def product(A, a, b):
    """The single product a.b of two basis elements as (index, coeff)."""
    return int(A.mult_idx[a, b]), int(A.mult_coeff[a, b])


def entries(x):
    """Dense columns x as ``ProjectiveSum.act`` takes them."""
    n, c = x.nonzero()
    return n, c, x[n, c], x.shape[1]


# The largest prime held in uint8 and the least held in uint16 and in
# uint32, the narrowest dtypes of p; at 251 an unwidened product of two
# table values wraps.
WIDE_PRIMES = (251, 257, 65537)


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


def test_size_limits_sit_at_p_23_and_hbound_8():
    from koszulkit import sl2

    assert build_regular_block(23, 0).dim == sl2.MAX_BLOCK_DIM
    assert build_singular_block(31).dim <= sl2.MAX_BLOCK_DIM
    for build in (lambda: build_regular_block(29, 0), lambda: build_singular_block(37)):
        with pytest.raises(ValueError, match="over the limit of 1058"):
            build()
    assert block_report(3, 0, hbound=8)["verdicts"]["koszul_linear"]
    for hbound in (0, 9):
        with pytest.raises(ValueError, match=r"hbound must lie in \[1, 8\]"):
            block_report(3, 0, hbound=hbound)


def test_lambda_range_enforced():
    with pytest.raises(ValueError):
        build_regular_block(5, 2)
    with pytest.raises(ValueError):
        build_regular_block(3, -1)
    with pytest.raises(ValueError):
        build_regular_block(9, 0)


# -- quiver -------------------------------------------------------------------

def test_quiver_basic_dims():
    basic = quiver_basic_algebra(3)
    assert basic.dim == 8
    assert basic.dims_by_degree() == {0: 2, 1: 4, 2: 2}


def test_quiver_relations_close():
    basic = quiver_basic_algebra(3)
    i = basic.index
    degree_sum = basic.degrees[:, None] + basic.degrees[None, :]
    assert not basic.mult_coeff[: basic.dim, : basic.dim][degree_sum >= 3].any()
    for x, y, z in (("ubar", "u", "z1"), ("vbar", "v", "z1"), ("u", "ubar", "z2"), ("v", "vbar", "z2")):
        assert product(basic, i[x], i[y]) == (i[z], 1)
    for x, y in (("ubar", "v"), ("vbar", "u"), ("u", "vbar"), ("v", "ubar")):
        assert product(basic, i[x], i[y]) == (basic.dim, 0)


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
    assert A.idempotents[0][2] == p  # one simple, of dimension p


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
    syz = {d: np.eye(at.stop - at.start, dtype=np.int64) for d, at in amb.at.items() if d >= 1}
    degs = sorted(set(d for _, d, _ in minimal_generators(amb, syz)))
    assert degs == [1]


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
    """k[x]/(x^n) with x in degree 1, as a BlockAlgebra; basis x^0 .. x^(n-1)."""
    products = np.array([(i, j, i + j, 1) for i in range(n) for j in range(n) if i + j < n]).T
    return BlockAlgebra(p, range(n), range(n), products, [0], [("k", 0, 1)], {n - 1: 1})


def test_koszulity_fails_on_the_cubic_truncation():
    # the simple's first syzygy (x, x^2) is generated by x in degree 1; the
    # cover x^i -> x^(i+1) has kernel x^2 in degree 3, the second syzygy
    rep = koszulity_probe(truncated_polynomial(3), 4)
    assert not rep["linear"]
    (entry,) = rep["simples"]
    assert [s["generator_degrees"] for s in entry["steps"]] == [[1], [3]]
    assert entry["witness"] == [2, 3]


def test_koszulity_holds_on_the_dual_numbers():
    rep = koszulity_probe(truncated_polynomial(2), 8)
    assert rep["linear"]
    (entry,) = rep["simples"]
    assert [s["generator_degrees"] for s in entry["steps"]] == [[i] for i in range(1, 9)]
    assert entry["witness"] is None


def skew_algebra(p=5):
    """k<x, y>/(x^2, y^2, xy) with x in degree 1 and y in degree 2; basis 1,
    x, y, yx.  Its radical needs y as a generator, and yx is reached from x
    only by the degree-2 element y."""
    products = np.array([(0, b, b, 1) for b in range(4)] + [(b, 0, b, 1) for b in range(1, 4)] + [(2, 1, 3, 1)]).T
    return BlockAlgebra(p, ["1", "x", "y", "yx"], [0, 1, 2, 3], products, [0], [("k", 0, 1)], {3: 1})


def test_koszulity_sees_a_generator_above_degree_one():
    (entry,) = koszulity_probe(skew_algebra(), 4)["simples"]
    assert entry["steps"] == [{"syzygy": 1, "generator_degrees": [1, 2]}] and entry["witness"] == [1, 2]


def probe_algebras():
    yield from small_algebras()
    yield skew_algebra()
    yield build_singular_block(3)
    yield build_singular_block(5)
    yield truncated_polynomial(2)
    yield truncated_polynomial(3)


@pytest.mark.parametrize("hbound", range(1, 7))
def test_koszulity_probe_matches_the_dense_reference(hbound):
    for A in probe_algebras():
        assert koszulity_probe(A, hbound) == probe_reference.koszulity_probe(A, hbound)


def test_degree_zero_part_is_matrix_product():
    A = build_regular_block(5, 1)
    deg0 = [i for i in range(A.dim) if A.degrees[i] == 0]
    # closed under multiplication and of the right dimension
    assert len(deg0) == 4 + 9
    for a in deg0:
        for b in deg0:
            i, c = product(A, a, b)
            if c:
                assert int(A.degrees[i]) == 0


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


# -- the table gathers against the per-pair loops they replaced ----------------

def reference_column_basis(A, e):
    out = []
    for b in range(A.dim):
        i, coeff = product(A, b, e)
        if coeff:
            assert i == b and coeff == 1
            out.append(b)
    return out


def reference_act(amb, a, vec):
    """The per-element action of ``a`` on one vector of ``amb``."""
    A = amb.algebra
    basis = [(g, b) for g, (e, _) in enumerate(amb.summands) for b in reference_column_basis(A, e)]
    pos = {gb: n for n, gb in enumerate(basis)}
    out = np.zeros_like(vec)
    for n, c in enumerate(vec):
        if not c:
            continue
        g, b = basis[n]
        i, coeff = product(A, a, b)
        if coeff:
            m = pos[(g, i)]
            out[m] = (out[m] + c * coeff) % A.p
    return out


def reference_graded_cartan(algebra):
    out = {}
    for rlab, e_r, _ in algebra.idempotents:
        for slab, e_s, _ in algebra.idempotents:
            dims = {}
            for b in range(algebra.dim):
                i1, c1 = product(algebra, e_r, b)
                if not c1 or i1 != b:
                    continue
                i2, c2 = product(algebra, b, e_s)
                if not c2 or i2 != b:
                    continue
                d = int(algebra.degrees[b])
                dims[d] = dims.get(d, 0) + 1
            out[(rlab, slab)] = dims
    return out


def reference_anti_automorphism(algebra, phi):
    multiplicative = True
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            i, c = product(algebra, a, b)
            i2, c2 = product(algebra, phi[b], phi[a])
            if (c and (not c2 or phi[i] != i2 or c != c2)) or (not c and c2):
                multiplicative = False
    return {
        "involution": all(phi[phi[a]] == a for a in range(algebra.dim)),
        "degree_preserving": all(algebra.degrees[a] == algebra.degrees[phi[a]] for a in range(algebra.dim)),
        "antimultiplicative": multiplicative,
    }


def rescaled(A, seed, p=None):
    """A over GF(p), A's own field by default, in the basis b' = s_b b with
    random nonzero s_b (1 on the unit's summands), so its structure
    constants and trace values are not all 1.  A's structure constants must
    be 1 when p is not A's field (true of every block built here)."""
    p, dim = p or A.p, A.dim
    s = np.random.default_rng(seed).integers(1, p, size=dim)
    s[A.unit_indices] = 1
    a, b = np.nonzero(A.mult_coeff[:dim, :dim])
    c = A.mult_idx[a, b]
    inverse = np.array([pow(int(v), p - 2, p) for v in s], dtype=np.int64)
    coeff = A.mult_coeff[a, b].astype(np.int64) * s[a] % p * s[b] % p * inverse[c] % p
    trace = {i: v * int(s[i]) for i, v in A.trace.items()}
    return BlockAlgebra(p, A.labels, A.degrees, (a, b, c, coeff), A.unit_indices, A.idempotents, trace)


def regular_blocks(primes=(3, 5)):
    for p in primes:
        for lam in range((p - 1) // 2):
            A = build_regular_block(p, lam)
            yield A
            yield rescaled(A, 10 * p + lam)


def small_algebras():
    yield quiver_basic_algebra(3)
    yield rescaled(quiver_basic_algebra(5), 0)
    yield from regular_blocks()


@pytest.mark.parametrize("p", [3, 5, *WIDE_PRIMES])
def test_act_on_matrix_matches_per_element_loop(p):
    """Above p = 5 the p = 3 block, rescaled over GF(p); the columns are
    held in the narrowest dtype of p, as the table's coefficients are."""
    rng = np.random.default_rng(p)
    for A in regular_blocks([p]) if p <= 5 else [rescaled(build_regular_block(3, 0), p, p)]:
        (_, e0, _), (_, e1, _) = A.idempotents
        amb = ProjectiveSum(A, [(e0, 0), (e1, 1), (e0, 2)])
        basis = [(g, b) for g, (e, _) in enumerate(amb.summands) for b in reference_column_basis(A, e)]
        degrees = [int(A.degrees[b]) + amb.summands[g][1] for g, b in basis]
        # the basis is the reference's, stably sorted by degree
        order = sorted(range(len(basis)), key=degrees.__getitem__)
        assert list(zip(amb.summand.tolist(), amb.element.tolist())) == [basis[i] for i in order]
        assert amb.degrees.tolist() == [degrees[i] for i in order]
        assert [n for at in amb.at.values() for n in range(at.start, at.stop)] == list(range(len(basis)))
        assert all((amb.degrees[at] == d).all() for d, at in amb.at.items())
        order = np.array(order)

        def reference(a, x, d, t):
            """Columns of x, over the degree-d basis, acted on one at a time
            in the reference basis; the result must lie in degree t."""
            full = np.zeros((len(basis), x.shape[1]), dtype=np.int64)
            full[order[amb.at[d]]] = x
            out = np.stack([reference_act(amb, a[c], full[:, c]) for c in range(x.shape[1])], axis=1)
            dst = order[amb.at.get(t, slice(0, 0))]
            assert not np.delete(out, dst, axis=0).any()
            return out[dst]

        for d, at in amb.at.items():
            x = rng.integers(0, p, size=(at.stop - at.start, 4)).astype(np.min_scalar_type(p))
            x[:, 1] = 0
            for a in range(A.dim):
                t = d + int(A.degrees[a])
                assert (amb.act(a, entries(x), d, t) == reference([a] * 4, x, d, t)).all()
            for da in set(A.degrees.tolist()):
                a = rng.choice((A.degrees == da).nonzero()[0], 4)
                assert (amb.act(a, entries(x), d, d + da) == reference(a, x, d, d + da)).all()


def test_graded_cartan_matches_per_pair_loop():
    for A in small_algebras():
        assert graded_cartan(A) == reference_graded_cartan(A)


def test_anti_automorphism_matches_per_pair_loop():
    from koszulkit.sl2 import _antiauto_image

    for A in small_algebras():
        phi = [A.index[_antiauto_image(l)] for l in A.labels]
        assert anti_automorphism_check(A) == reference_anti_automorphism(A, phi)


def test_rescaled_blocks_keep_every_verdict():
    for A in regular_blocks():
        rep = frobenius_form(A, 2)
        assert rep["nondegenerate"] and rep["symmetric"] and rep["graded"]
        assert koszulity_probe(A, 3)["linear"]


# -- the checks can fail --------------------------------------------------------

def test_frobenius_form_rejects_off_diagonal_trace():
    A = build_singular_block(3)
    A.trace = {A.index[("E", 0, 0, 0, 1)]: 1}
    rep = frobenius_form(A, 0)
    assert rep["gram_rank"] == 3 and rep["dim"] == 9
    assert not rep["symmetric"] and not rep["nondegenerate"]


def test_frobenius_form_rejects_wrong_top_degree():
    assert not frobenius_form(build_regular_block(3, 0), 1)["graded"]


def test_projective_sum_rejects_non_idempotent_column():
    A = build_singular_block(3)
    with pytest.raises(ValueError, match="basis-aligned"):
        ProjectiveSum(A, [(A.index[("E", 0, 0, 0, 1)], 0)])


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


def test_syzygy_kernel_blocks_are_full_kernels(monkeypatch):
    """Each per-degree block K_t that next_syzygy returns on the pinned
    blocks is a kernel of its map phi_t (the generators acted on by the
    cover's degree-t basis) of full nullity: phi_t K_t = 0 mod p, and its
    columns are independent and number cols(phi_t) - rank(phi_t)."""
    from koszulkit import blockalg

    blocks = []

    def recording(amb, gens, step):
        cover, ker = next_syzygy(amb, gens, step)
        targets = np.column_stack([v for _, _, v in gens])
        for t, at in cover.at.items():
            phi = amb.act(cover.element[at], entries(targets[:, cover.summand[at]]), step, t)
            blocks.append((phi, ker.get(t, np.zeros((phi.shape[1], 0), dtype=np.int64)), cover.algebra.p))
        return cover, ker

    monkeypatch.setattr(blockalg, "next_syzygy", recording)
    for p, lam in REPORT_SHA256:
        block_report(p, lam)
    assert len(blocks) > 100 and sum(k.shape[1] > 0 for _, k, _ in blocks) > 50
    for phi, k, p in blocks:
        assert not (phi @ k % p).any()
        assert dense_reference.rank(k, p) == k.shape[1] == phi.shape[1] - dense_reference.rank(phi, p)


# -- the matrix-unit builders against the per-pair builders they replaced ------

def reference_regular_block(p, lam):
    """The regular block's labels and product dict, one compose per pair."""
    n = (lam + 1, p - 1 - lam)
    labels = []
    for r in range(2):
        for d in (0, 2):
            for i in range(n[r]):
                for j in range(n[r]):
                    labels.append(("E", r, d, i, j))
    for (r, s) in ((0, 1), (1, 0)):
        for t in range(2):
            for i in range(n[r]):
                for j in range(n[s]):
                    labels.append(("V", r, s, t, i, j))
    index = {lab: k for k, lab in enumerate(labels)}

    def compose(x, y):
        """Single product of two basis labels, or None."""
        if x[0] == "E" and y[0] == "E":
            r, d1, i, j = x[1:]
            r2, d2, k, l = y[1:]
            if r != r2 or j != k or d1 + d2 > 2:
                return None
            return ("E", r, d1 + d2, i, l)
        if x[0] == "E" and y[0] == "V":
            r, d, i, j = x[1:]
            r2, s, t, k, l = y[1:]
            if r != r2 or j != k or d:
                return None
            return ("V", r, s, t, i, l)
        if x[0] == "V" and y[0] == "E":
            r, s, t, i, j = x[1:]
            r2, d, k, l = y[1:]
            if s != r2 or j != k or d:
                return None
            return ("V", r, s, t, i, l)
        r, s, t, i, j = x[1:]
        r2, s2, u, k, l = y[1:]
        if s != r2 or j != k:
            return None
        # evaluation pairing: v_t against its dual basis vector only
        if s2 != r or t != u:
            return None
        return ("E", r, 2, i, l)

    mult = {}
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            lc = compose(la, lb)
            if lc is not None:
                mult[(a, b)] = (index[lc], 1)
    return labels, mult


def reference_singular_block(p):
    labels = [("E", 0, 0, i, j) for i in range(p) for j in range(p)]
    index = {lab: k for k, lab in enumerate(labels)}
    mult = {}
    for a, (_, _, _, i, j) in enumerate(labels):
        for b, (_, _, _, k, l) in enumerate(labels):
            if j == k:
                mult[(a, b)] = (index[("E", 0, 0, i, l)], 1)
    return labels, mult


def dense_tables(dim, mult, p):
    """The constructor's tables: int32 positions, residues in the narrowest dtype of p."""
    idx = np.full((dim + 1, dim + 1), dim, dtype=np.int32)
    coeff = np.zeros((dim + 1, dim + 1), dtype=np.min_scalar_type(p))
    for (a, b), (c, v) in mult.items():
        idx[a, b], coeff[a, b] = c, v
    return idx, coeff


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_matrix_units_match_per_pair_builder(p):
    cases = [(build_regular_block(p, lam), reference_regular_block(p, lam)) for lam in range((p - 1) // 2)]
    cases.append((build_singular_block(p), reference_singular_block(p)))
    for A, (labels, mult) in cases:
        assert A.labels == labels
        idx, coeff = dense_tables(len(labels), mult, p)
        assert A.mult_idx.dtype == idx.dtype and A.mult_coeff.dtype == coeff.dtype
        assert (A.mult_idx == idx).all() and (A.mult_coeff == coeff).all()


# -- associativity on nonzero triples against the dense loop --------------------

def reference_is_associative(self):
    """(ab)c == a(bc) for all basis triples, vectorized per a."""
    dim, p = self.dim, self.p
    idx, cf = self.mult_idx[: dim, : dim], self.mult_coeff[: dim, : dim]
    z = self.dim
    for a in range(dim):
        ab_i, ab_c = self.mult_idx[a, :dim], self.mult_coeff[a, :dim]
        left_i = self.mult_idx[ab_i][:, :dim]
        left_c = ab_c[:, None].astype(np.int64) * self.mult_coeff[ab_i][:, :dim] % p
        right_i = self.mult_idx[a, idx]
        right_c = cf.astype(np.int64) * self.mult_coeff[a, idx] % p
        left_i = np.where(left_c == 0, z, left_i)
        right_i = np.where(right_c == 0, z, right_i)
        if not ((left_i == right_i).all() and (left_c == right_c).all()):
            return False
    return True


def tables_only(p, idx, coeff):
    """A BlockAlgebra carrying only the tables, unchecked, for is_associative;
    the tables are copied into the constructor's dtypes."""
    A = BlockAlgebra.__new__(BlockAlgebra)
    A.p, A.dim = p, idx.shape[0] - 1
    A.mult_idx, A.mult_coeff = idx.astype(np.int32), coeff.astype(np.min_scalar_type(p))
    return A


@functools.lru_cache(maxsize=None)
def cached_block(q, lam, p):
    """The block at q and lam, rescaled over GF(p) when that is not q's."""
    A = build_singular_block(q) if lam is None else build_regular_block(q, lam)
    return A if p == q else rescaled(A, p, p)


MUTATIONS = ("none", "coefficient", "redirect", "zero", "add")


def random_monomial_table(seed):
    rng = np.random.default_rng(seed)
    p, dim = int(rng.choice([3, 5, 7, *WIDE_PRIMES])), int(rng.integers(1, 13))
    live = rng.random((dim, dim)) < rng.random()
    idx = np.full((dim + 1, dim + 1), dim, dtype=np.int64)
    coeff = np.zeros((dim + 1, dim + 1), dtype=np.int64)
    idx[:dim, :dim] = np.where(live, rng.integers(0, dim, size=(dim, dim)), dim)
    coeff[:dim, :dim] = np.where(live, rng.integers(1, p, size=(dim, dim)), 0)
    return tables_only(p, idx, coeff)


def mutated_block(seed, mutation):
    """A block at p <= 7, over GF(p) or rescaled over a field of WIDE_PRIMES,
    with one product mutated."""
    rng = np.random.default_rng(seed)
    p = int(rng.choice([3, 5, 7, *WIDE_PRIMES]))
    q = p if p <= 7 else int(rng.choice([3, 5, 7]))  # the block's own p
    lam = [*range((q - 1) // 2), None][int(rng.integers(0, (q + 1) // 2))]
    A = cached_block(q, lam, p)
    dim, idx, coeff = A.dim, A.mult_idx.copy(), A.mult_coeff.copy()
    live = np.argwhere(coeff[:dim, :dim])
    a, b = live[rng.integers(len(live))]
    if mutation == "coefficient":
        coeff[a, b] = 1 + (coeff[a, b] - 1 + rng.integers(1, p - 1)) % (p - 1)
    elif mutation == "redirect":
        idx[a, b] = (idx[a, b] + rng.integers(1, dim)) % dim
    elif mutation == "zero":
        idx[a, b], coeff[a, b] = dim, 0
    elif mutation == "add":
        dead = np.argwhere(coeff[:dim, :dim] == 0)
        a, b = dead[rng.integers(len(dead))]
        idx[a, b], coeff[a, b] = rng.integers(0, dim), rng.integers(1, p)
    B = tables_only(p, idx, coeff)
    B.labels, B.index, B.degrees, B.unit_indices, B.trace = A.labels, A.index, A.degrees, A.unit_indices, A.trace
    return B


def associativity_input(seed, kind):
    return random_monomial_table(seed) if kind == "random" else mutated_block(seed, kind)


@pytest.mark.parametrize("triples", [1, 5, blockalg.ASSOCIATIVITY_SLICE])
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("random",) + MUTATIONS))
def test_is_associative_matches_dense_loop(triples, seed, kind):
    """Slices of 1 and 5 triples end inside one product's triples."""
    A = associativity_input(seed, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blockalg, "ASSOCIATIVITY_SLICE", triples)
        assert A.is_associative() == reference_is_associative(A)


def test_is_associative_holds_one_slice_of_triples_at_a_time(monkeypatch):
    """At p = 11 (3,663 nonzero products, 48,884 triples) with slices of
    1,000 triples, is_associative peaks at about 0.25 MB (tracemalloc); two
    full joins of the triples, one from each side, peak at 4.2 MB."""
    A = build_regular_block(11, 0)
    A = tables_only(A.p, A.mult_idx, A.mult_coeff)  # its nonzero products not yet listed
    monkeypatch.setattr(blockalg, "ASSOCIATIVITY_SLICE", 1000)
    tracemalloc.start()
    try:
        assert A.is_associative()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_is_associative_sees_each_kind_of_failure():
    # basis a, b, c, d, e, f, g as 0..6; each table fails on the triple (a, b, c) only
    failures = {
        "only a(bc) != 0": [(1, 2, 3), (0, 3, 3)],
        "only (ab)c != 0": [(0, 1, 3), (3, 2, 3)],
        "(ab)c = f, a(bc) = g": [(0, 1, 3), (3, 2, 5), (1, 2, 4), (0, 4, 6)],
    }
    for pairs in failures.values():
        idx = np.full((8, 8), 7, dtype=np.int64)
        coeff = np.zeros((8, 8), dtype=np.int64)
        for a, b, c in pairs:
            idx[a, b], coeff[a, b] = c, 1
        A = tables_only(3, idx, coeff)
        assert not A.is_associative() and not reference_is_associative(A)


@pytest.mark.parametrize("kind", ("random",) + MUTATIONS)
def test_associativity_inputs_take_both_verdicts(kind):
    seeds = range(40)
    tables = [random_monomial_table(s) if kind == "random" else mutated_block(s, kind) for s in seeds]
    verdicts = {reference_is_associative(A) for A in tables}
    assert (False in verdicts) == (kind != "none")
    assert True in verdicts or kind != "random"


# -- the unit, the Frobenius form and the anti-automorphism against the dense code

def reference_check_axioms(self):
    """check_axioms on dense (dim x dim+1) unit tables, as before it read
    only nonzero products."""
    issues = []
    dim, p = self.dim, self.p
    idx, cf = self.mult_idx, self.mult_coeff
    a_idx, b_idx = np.nonzero(cf[:dim, :dim])
    prod = idx[a_idx, b_idx]
    if not (self.degrees[prod] == self.degrees[a_idx] + self.degrees[b_idx]).all():
        issues.append("grading is not multiplicative")
    basis = np.arange(dim)[:, None]
    units = np.asarray(self.unit_indices, dtype=np.int64)[None, :]
    for side, pos in (("left", (units, basis)), ("right", (basis, units))):
        table = np.zeros((dim, dim + 1), dtype=np.int64)
        np.add.at(table, (basis, idx[pos]), cf[pos])
        bad = (table % p != np.eye(dim, dim + 1, dtype=np.int64)).any(axis=1).nonzero()[0]
        if len(bad):
            issues.append(f"unit fails on the {side} at basis {bad[0]}")
    if not reference_is_associative(self):
        issues.append("multiplication is not associative")
    return issues


def reference_frobenius_form(algebra, topdeg):
    """The Gram matrix as a dense (dim x dim) table, ranked densely."""
    dim, p = algebra.dim, algebra.p
    trace = np.zeros(dim + 1, dtype=np.int64)
    for i, v in algebra.trace.items():
        trace[i] = v % p
    gram = algebra.mult_coeff[:dim, :dim].astype(np.int64) * trace[algebra.mult_idx[:dim, :dim]] % p
    symmetric = (gram == gram.T).all()
    degree_sum = algebra.degrees[:, None] + algebra.degrees[None, :]
    graded = ((gram == 0) | (degree_sum == topdeg)).all()
    rk = dense_reference.rank(gram, p)
    return {
        "topdeg": topdeg,
        "gram_rank": int(rk),
        "dim": dim,
        "nondegenerate": rk == dim,
        "symmetric": bool(symmetric),
        "graded": bool(graded),
    }


def reference_anti_automorphism_check(algebra):
    """anti_automorphism_check on two dense (dim x dim) gathers."""
    from koszulkit.sl2 import _antiauto_image

    dim = algebra.dim
    perm = np.array([algebra.index[_antiauto_image(l)] for l in algebra.labels], dtype=np.int64)
    phi = np.append(perm, dim)
    idx, coeff = algebra.mult_idx[:dim, :dim], algebra.mult_coeff[:dim, :dim]
    swapped = np.ix_(perm, perm)
    return {
        "involution": bool((perm[perm] == np.arange(dim)).all()),
        "degree_preserving": bool((algebra.degrees[perm] == algebra.degrees).all()),
        "antimultiplicative": bool(
            (coeff == coeff[swapped].T).all() and (phi[idx] == idx[swapped].T).all()
        ),
    }


def unit_input(seed, kind):
    """A table with degrees and a unit list.  A random table is made unital
    (basis 0 the identity) half the time; a mutated block keeps its unit
    list, or drops one entry, or lists it twice or p + 1 times (the sum of
    units is then 2 resp. 1 times the unit; p + 1 only for p < 1000, as
    the dense reference holds a column per listed unit)."""
    rng = np.random.default_rng([seed, 1])
    A = associativity_input(seed, kind)
    dim, p = A.dim, A.p
    if kind == "random":
        A.degrees = rng.integers(0, 2, size=dim)
        A.unit_indices = rng.integers(0, dim, size=rng.integers(0, 3)).tolist()
        if rng.random() < 0.5:
            for b in range(dim):
                A.mult_idx[0, b] = A.mult_idx[b, 0] = b
                A.mult_coeff[0, b] = A.mult_coeff[b, 0] = 1
            A.unit_indices = [0]
    else:
        units = list(A.unit_indices)
        A.unit_indices = [units, units[1:], 2 * units, (p + 1 if p < 1000 else 2) * units][int(rng.integers(0, 4))]
    return A


def form_input(seed, kind):
    """A table with degrees and a trace, and a top degree: a mutated block
    keeps the block's half the time, and the rest are random."""
    rng = np.random.default_rng([seed, 2])
    A = associativity_input(seed, kind)
    dim, p = A.dim, A.p
    topdeg = int(A.degrees.max()) if kind != "random" else 2
    if kind == "random" or rng.random() < 0.5:
        A.degrees = rng.integers(0, 3, size=dim)
        keys = rng.integers(0, dim, size=rng.integers(0, 4))
        A.trace = {int(i): int(v) for i, v in zip(keys, rng.integers(-p, 2 * p, size=len(keys)))}
        topdeg = int(rng.integers(0, 5))
    return A, topdeg


AXIOM_KINDS = ("random",) + MUTATIONS


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(AXIOM_KINDS))
def test_unit_check_matches_the_dense_tables(seed, kind):
    A = unit_input(seed, kind)
    assert A.check_axioms() == reference_check_axioms(A)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(AXIOM_KINDS))
def test_frobenius_form_matches_the_dense_gram(seed, kind):
    A, topdeg = form_input(seed, kind)
    assert frobenius_form(A, topdeg) == reference_frobenius_form(A, topdeg)


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
    idx = np.full((dim + 1, dim + 1), dim, dtype=np.int64)
    coeff = np.zeros((dim + 1, dim + 1), dtype=np.int64)
    idx[:dim, :dim], coeff[:dim, :dim] = np.where(live, 0, dim), gram
    A = tables_only(p, idx, coeff)
    A.degrees, A.trace = np.zeros(dim, dtype=np.int64), {0: 1}
    assert frobenius_form(A, 0) == reference_frobenius_form(A, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS))
def test_anti_automorphism_matches_the_dense_gathers(seed, kind):
    A = mutated_block(seed, kind)
    assert anti_automorphism_check(A) == reference_anti_automorphism_check(A)


def test_dense_check_inputs_take_every_verdict():
    seeds = range(40)
    issues = [reference_check_axioms(unit_input(s, k)) for k in AXIOM_KINDS for s in seeds]
    units = {m.split(" at ")[0] for found in issues for m in found if m.startswith("unit")}
    assert units == {"unit fails on the left", "unit fails on the right"}
    assert any(not any(m.startswith("unit") for m in found) for found in issues)
    forms = [reference_frobenius_form(*form_input(s, k)) for k in AXIOM_KINDS for s in seeds]
    for field in ("nondegenerate", "symmetric", "graded"):
        assert {f[field] for f in forms} == {False, True}
    assert len({f["gram_rank"] for f in forms}) > 10
    checks = [reference_anti_automorphism_check(mutated_block(s, k)) for k in MUTATIONS for s in seeds]
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
    A = BlockAlgebra(3, ["e", "x"], [0, 0], (a, b, c, coeff), [0, 0, 0, 0], [], {})
    assert product(A, 0, 0) == (0, 1) and product(A, 1, 1) == (2, 0)


def test_a_dimension_past_int32_table_keys_is_refused():
    """a.b sits at a * (dim + 1) + b in the raveled tables, an int32 key, so
    (dim + 1)^2 < 2^31; a larger algebra is refused before any table is
    allocated."""
    with pytest.raises(ValueError, match=r"dimension 46340, over the limit of 46339 \(\(dim \+ 1\)\^2 < 2\^31\)"):
        BlockAlgebra(3, range(46340), [], np.zeros((4, 0), dtype=np.int64), [], [], {})


@pytest.mark.parametrize("message", list(AXIOM_FAILURES))
def test_check_axioms_names_each_failure(message):
    degrees, pairs = AXIOM_FAILURES[message]
    a, b, c = np.array(pairs).T
    with pytest.raises(ValueError) as info:
        BlockAlgebra(5, range(len(degrees)), degrees, (a, b, c, np.ones_like(a)), [0], [], {})
    assert str(info.value) == message
