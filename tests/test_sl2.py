import hashlib
import json

import numpy as np
import pytest

from koszulkit.blockalg import BlockAlgebra, ProjectiveSum, minimal_generators, simple_socle_start
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
    regular_lambdas,
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
    assert ext_zero_sections(0, 0).dims == {0: 1, 2: 1}


def test_ext_twist_down():
    assert ext_zero_sections(-1, 0).dims == {0: 2}


def test_ext_twist_up():
    assert ext_zero_sections(0, -1).dims == {2: 2}


def test_ext_independent_of_common_twist():
    for shift in (-2, 1, 3):
        assert ext_zero_sections(shift, shift).dims == {0: 1, 2: 1}


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
    for lam in regular_lambdas(p):
        A = build_regular_block(p, lam)
        assert A.dim == 2 * p * p
        n1, n2 = lam + 1, p - 1 - lam
        assert A.dims_by_degree() == {
            0: n1 * n1 + n2 * n2,
            1: 4 * n1 * n2,
            2: n1 * n1 + n2 * n2,
        }


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
    rep = quiver_presentation(3, 0)
    assert rep["length3_paths_vanish"]


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
    for lam in regular_lambdas(p):
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
    syz = simple_socle_start(A, A.idempotents[0][1])
    degs = sorted(set(d for _, d, _ in minimal_generators(syz)))
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


def test_degree_zero_part_is_matrix_product():
    A = build_regular_block(5, 1)
    deg0 = [i for i in range(A.dim) if A.degrees[i] == 0]
    # closed under multiplication and of the right dimension
    assert len(deg0) == 4 + 9
    for a in deg0:
        for b in deg0:
            i, c = A.product(a, b)
            if c:
                assert int(A.degrees[i]) == 0


def test_multiplicity_weighted_ext_dims():
    # sum over pairs of summands of (multiplicity * Ext dims) = 2 p^2
    for p in (3, 5, 7):
        for lam in regular_lambdas(p):
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
        i, coeff = A.product(b, e)
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
        i, coeff = A.product(a, b)
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
                i1, c1 = algebra.product(e_r, b)
                if not c1 or i1 != b:
                    continue
                i2, c2 = algebra.product(b, e_s)
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
            i, c = algebra.product(a, b)
            i2, c2 = algebra.product(phi[b], phi[a])
            if (c and (not c2 or phi[i] != i2 or c != c2)) or (not c and c2):
                multiplicative = False
    return {
        "involution": all(phi[phi[a]] == a for a in range(algebra.dim)),
        "degree_preserving": all(algebra.degrees[a] == algebra.degrees[phi[a]] for a in range(algebra.dim)),
        "antimultiplicative": multiplicative,
    }


def rescaled(A, seed):
    """A in the basis b' = s_b b with random nonzero s_b (1 on the unit's
    summands), so its structure constants and trace values are not all 1."""
    p, dim = A.p, A.dim
    s = np.random.default_rng(seed).integers(1, p, size=dim)
    s[A.unit_indices] = 1
    a_idx, b_idx = np.nonzero(A.mult_coeff[:dim, :dim])
    mult = {}
    for a, b in zip(a_idx.tolist(), b_idx.tolist()):
        c = int(A.mult_idx[a, b])
        coeff = int(A.mult_coeff[a, b]) * int(s[a]) * int(s[b]) * pow(int(s[c]), p - 2, p)
        mult[(a, b)] = (c, coeff)
    trace = {i: v * int(s[i]) for i, v in A.trace.items()}
    return BlockAlgebra(p, A.labels, A.degrees, mult, A.unit_indices, A.idempotents, trace)


def regular_blocks(primes=(3, 5)):
    for p in primes:
        for lam in regular_lambdas(p):
            A = build_regular_block(p, lam)
            yield A
            yield rescaled(A, 10 * p + lam)


def small_algebras():
    yield quiver_basic_algebra(3)
    yield rescaled(quiver_basic_algebra(5), 0)
    yield from regular_blocks()


@pytest.mark.parametrize("p", [3, 5])
def test_act_on_matrix_matches_per_element_loop(p):
    rng = np.random.default_rng(p)
    for A in regular_blocks([p]):
        (_, e0, _), (_, e1, _) = A.idempotents
        amb = ProjectiveSum(A, [(e0, 0), (e1, 1), (e0, 2)])
        basis = [(g, b) for g, (e, _) in enumerate(amb.summands) for b in reference_column_basis(A, e)]
        assert list(zip(amb.summand.tolist(), amb.element.tolist())) == basis
        assert amb.degrees.tolist() == [int(A.degrees[b]) + amb.summands[g][1] for g, b in basis]
        x = rng.integers(0, p, size=(amb.dim, 4))
        x[:, 1] = 0
        for a in range(A.dim):
            want = np.stack([reference_act(amb, a, x[:, c]) for c in range(x.shape[1])], axis=1)
            assert (amb.act(a, x) == want).all()
            assert (amb.act(a, x[:, 0]) == want[:, 0]).all()


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
