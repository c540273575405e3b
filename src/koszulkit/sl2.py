"""Block algebras of the rank-one restricted enveloping algebra.

Regular blocks are assembled as graded endomorphism algebras of a pair of
twisted zero sections on the cotangent bundle of the projective line:
degree 0 is a product of two matrix algebras, degree 1 carries a
two-dimensional space and its dual between the factors, and degree 2 is
the image of the evaluation pairing.  The singular block is a single
matrix algebra in degree 0.  Every numerical ingredient comes from the
two-chart Cech computation in ``projline``.

Both are matrix units over a type table (8 types regular, one singular):
(t, i, j).(u, k, l) = (t.u, i, l) when j == k, so the product tables come
from index arithmetic.  A report refuses a block of dimension over
``MAX_BLOCK_DIM`` (regular blocks up to p = 23, the singular block up to
p = 31) and a probe deeper than ``MAX_HBOUND``.
"""

from __future__ import annotations

import numpy as np

from .blockalg import BlockAlgebra
from .blockalg import koszulity_probe as _koszulity_probe
from .linalg import check_modulus, rank, structural_pivots
from .projline import cohomology_P1

# underlying line-bundle twists and homological shifts of the two zero
# sections generating a regular block
TWISTS = (-1, -2)
SHIFTS = (0, 1)

# Largest block and deepest Koszulity probe a report accepts.  In process on
# 2 cores (wall time, peak RSS), the costliest accepted report, p = 23 at
# hbound 8, takes 0.2 s at 115 MB.  With the limits lifted, p = 29 at
# hbound 8 takes 0.45 s at 146 MB and p = 37 takes 1.0 s at 268 MB: its
# dense product tables hold 120 MB, one associativity slice about 70 MB
# and the probe about 125 MB (tracemalloc).  hbound 16 at p = 19 takes
# 0.35 s at 112 MB (lambda 0) and 0.8 s at 204 MB (lambda 4).
MAX_BLOCK_DIM = 1058
MAX_HBOUND = 8


def ext_zero_sections(a: int, b: int, p: int = 3) -> dict[int, int]:
    """Dims of Ext^i, where nonzero, between zero sections twisted by a and
    b on the cotangent line.

    Hom(-, O(b)) applied to the length-one resolution twisted by a gives a
    two-term complex whose connecting map vanishes on the zero section, so
    dims(i) = h^i(O(b - a)) + h^{i-1}(O(b - a - 2)).
    """
    first = cohomology_P1(b - a, p)
    second = cohomology_P1(b - a - 2, p)
    dims: dict[int, int] = {}
    for i in range(4):
        v = (first[i] if i < 2 else 0) + (second[i - 1] if 0 <= i - 1 < 2 else 0)
        if v:
            dims[i] = v
    return dims


def block_ext_dims(r: int, s: int, p: int = 3) -> dict[int, int]:
    """Dims per block degree of Hom(summand s, summand r), shift-corrected."""
    raw = ext_zero_sections(TWISTS[s], TWISTS[r], p)
    return {d + SHIFTS[s] - SHIFTS[r]: v for d, v in raw.items()}


def _check_lambda(p: int, lam: int):
    check_modulus(p)
    if not (0 <= lam <= (p - 3) // 2):
        raise ValueError(f"lambda must lie in [0, (p-3)/2] = [0, {(p - 3) // 2}], got {lam}")


def _matrix_units(types, blocks, n, type_product):
    """Labels and product arrays of matrix units over a table of types.

    Type t spans the labels (*t, i, j) with i < n[r], j < n[s] for
    (r, s) = blocks[t], in that order; (t, i, j).(u, k, l) is
    (type_product(t, u), i, l) when j == k and the type product is not
    None, and 0 otherwise.  Returns (labels, (a, b, c, coeff)).  Refuses a
    dimension over MAX_BLOCK_DIM before anything is built.
    """
    offset = np.cumsum([0] + [n[r] * n[s] for r, s in blocks])
    if offset[-1] > MAX_BLOCK_DIM:
        raise ValueError(f"the block has dimension {offset[-1]}, over the limit of {MAX_BLOCK_DIM}")
    labels = [(*t, i, j) for t, (r, s) in zip(types, blocks) for i in range(n[r]) for j in range(n[s])]
    where = {t: k for k, t in enumerate(types)}
    products = []
    for x, t in enumerate(types):
        for y, u in enumerate(types):
            tu = type_product(t, u)
            if tu is not None:
                (r, s), w = blocks[x], n[blocks[y][1]]
                i, j, l = np.indices((n[r], n[s], w)).reshape(3, -1)
                products.append([offset[x] + i * n[s] + j, offset[y] + j * w + l, offset[where[tu]] + i * w + l])
    a, b, c = np.concatenate(products, axis=1)
    return labels, (a, b, c, np.ones_like(a))


def _regular_type_product(x, y):
    """Product of two regular-block types E(r, d), V(r, s, t), or None."""
    if x[0] == "E" and y[0] == "E":
        return ("E", x[1], x[2] + y[2]) if x[1] == y[1] and x[2] + y[2] <= 2 else None
    if x[0] == "E":
        return y if x[1] == y[1] and x[2] == 0 else None
    if y[0] == "E":
        return x if x[2] == y[1] and y[2] == 0 else None
    # evaluation pairing: v_t against its dual basis vector only
    return ("E", x[1], 2) if (x[2], x[3]) == (y[1], y[3]) and y[2] == x[1] else None


_REGULAR_TYPES = tuple(("E", r, d) for r in range(2) for d in (0, 2)) + tuple(
    ("V", r, s, t) for r, s in ((0, 1), (1, 0)) for t in range(2)
)


def build_regular_block(p: int, lam: int) -> BlockAlgebra:
    """The regular block at weight lam: dimension 2 p^2, top degree 2."""
    _check_lambda(p, lam)
    n = (lam + 1, p - 1 - lam)
    diag = block_ext_dims(0, 0, p)
    off = block_ext_dims(0, 1, p)
    assert diag == {0: 1, 2: 1} and off == {1: 2}, "unexpected Ext pattern"
    blocks = [(t[1], t[1]) if t[0] == "E" else (t[1], t[2]) for t in _REGULAR_TYPES]
    labels, products = _matrix_units(_REGULAR_TYPES, blocks, n, _regular_type_product)
    index = {lab: k for k, lab in enumerate(labels)}
    unit = [index[("E", r, 0, i, i)] for r in range(2) for i in range(n[r])]
    idems = [(f"L{r}", index[("E", r, 0, 0, 0)], n[r]) for r in range(2)]
    trace = {index[("E", r, 2, i, i)]: 1 for r in range(2) for i in range(n[r])}
    degrees = [l[2] if l[0] == "E" else 1 for l in labels]
    return BlockAlgebra(p, labels, degrees, products, unit, idems, trace)


def build_singular_block(p: int) -> BlockAlgebra:
    """The singular block: a p x p matrix algebra in degree 0."""
    check_modulus(p)
    labels, products = _matrix_units([("E", 0, 0)], [(0, 0)], (p,), lambda t, u: t)
    unit = [i * p + i for i in range(p)]
    return BlockAlgebra(p, labels, [0] * len(labels), products, unit, [("L", 0, p)], dict.fromkeys(unit, 1))


QUIVER_LABELS = ("e1", "e2", "u", "v", "ubar", "vbar", "z1", "z2")
# arrows read as maps: u, v go from vertex 1 to vertex 2; bars go back;
# z1 = ubar.u = vbar.v sits at vertex 1, z2 = u.ubar = v.vbar at vertex 2
_QUIVER_SRC = {"e1": 1, "e2": 2, "u": 1, "v": 1, "ubar": 2, "vbar": 2, "z1": 1, "z2": 2}
_QUIVER_TGT = {"e1": 1, "e2": 2, "u": 2, "v": 2, "ubar": 1, "vbar": 1, "z1": 1, "z2": 2}
_QUIVER_DEG = {"e1": 0, "e2": 0, "u": 1, "v": 1, "ubar": 1, "vbar": 1, "z1": 2, "z2": 2}
_QUIVER_PRODUCTS = {
    ("ubar", "u"): "z1",
    ("vbar", "v"): "z1",
    ("u", "ubar"): "z2",
    ("v", "vbar"): "z2",
    # ubar.v = vbar.u = 0 and u.vbar = v.ubar = 0: omitted pairs vanish
}


def quiver_basic_algebra(p: int) -> BlockAlgebra:
    """Path algebra of the two-vertex quiver modulo its relations."""
    check_modulus(p)
    labels = list(QUIVER_LABELS)
    index = {lab: i for i, lab in enumerate(labels)}
    mult = []
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            if _QUIVER_SRC[la] != _QUIVER_TGT[lb]:
                continue
            if la.startswith("e"):
                out = lb
            elif lb.startswith("e"):
                out = la
            elif _QUIVER_DEG[la] + _QUIVER_DEG[lb] > 2:
                continue
            else:
                out = _QUIVER_PRODUCTS.get((la, lb))
            if out is not None:
                mult.append((a, b, index[out], 1))
    degrees = [_QUIVER_DEG[l] for l in labels]
    idems = [("L0", index["e1"], 1), ("L1", index["e2"], 1)]
    trace = {index["z1"]: 1, index["z2"]: 1}
    return BlockAlgebra(p, labels, degrees, np.array(mult).T, [index["e1"], index["e2"]], idems, trace)


def graded_cartan(algebra: BlockAlgebra) -> dict:
    """dims of e_r A e_s per degree, for the chosen primitive idempotents."""
    dim = algebra.dim
    idx, coeff = algebra.mult_idx[:dim, :dim], algebra.mult_coeff[:dim, :dim]
    # left[e, b]: e.b = b; right[e, b]: b.e = b
    left = (coeff != 0) & (idx == np.arange(dim))
    right = ((coeff != 0) & (idx == np.arange(dim)[:, None])).T
    out = {}
    for rlab, e_r, _ in algebra.idempotents:
        for slab, e_s, _ in algebra.idempotents:
            dims: dict[int, int] = {}
            for d in algebra.degrees[left[e_r] & right[e_s]].tolist():
                dims[d] = dims.get(d, 0) + 1
            out[(rlab, slab)] = dims
    return out


def quiver_presentation(p: int, lam: int) -> dict:
    """Quiver model of the regular block and the graded Morita comparison.

    Checks that the basic algebra's graded Cartan data, inflated by the
    simple dimensions (lam+1, p-1-lam), reproduce the block's degreewise
    dimensions, and that the two Cartan tables agree entrywise.
    """
    _check_lambda(p, lam)
    block = build_regular_block(p, lam)
    basic = quiver_basic_algebra(p)
    cb = graded_cartan(basic)
    cB = graded_cartan(block)
    n = {"L0": lam + 1, "L1": p - 1 - lam}
    cartan_match = all(
        cb[("L" + str(r), "L" + str(s))] == cB[(f"L{r}", f"L{s}")] for r in range(2) for s in range(2)
    )
    inflated: dict[int, int] = {}
    for (rlab, slab), dims in cb.items():
        for d, v in dims.items():
            inflated[d] = inflated.get(d, 0) + n[rlab] * n[slab] * v
    dims_match = inflated == block.dims_by_degree()
    return {
        "p": p,
        "lambda": lam,
        "basic_dims_by_degree": basic.dims_by_degree(),
        "cartan_match": cartan_match,
        "inflated_dims_match": dims_match,
        "basic": basic,
        "block": block,
    }


def frobenius_form(algebra: BlockAlgebra, topdeg: int) -> dict:
    """Gram data of the form (x, y) -> trace component of xy in topdeg.

    The Gram matrix is held as its entries, read from the nonzero products:
    it is symmetric when its entries transposed are its entries, graded
    when every entry pairs degrees summing to topdeg, and its rank is the
    number of structural pivots plus the rank of the dense core they leave.
    """
    dim, p = algebra.dim, algebra.p
    trace = np.zeros(dim + 1, dtype=np.int64)  # the zero slot traces to 0
    for i, v in algebra.trace.items():
        trace[i] = v % p
    x, y = algebra.nonzero_products
    v = algebra.mult_coeff[x, y] * trace[algebra.mult_idx[x, y]] % p
    live = v.nonzero()[0]
    x, y, v = x[live], y[live], v[live]  # sorted by x, then y
    t = np.lexsort((x, y))  # the transposed entries, sorted the same way
    symmetric = (x == y[t]).all() and (y == x[t]).all() and (v == v[t]).all()
    graded = (algebra.degrees[x] + algebra.degrees[y] == topdeg).all()
    pivot_rows, _, left = structural_pivots(x, y, dim)
    core_rows, r = np.unique(x[left], return_inverse=True)
    core_cols, c = np.unique(y[left], return_inverse=True)
    core = np.zeros((len(core_rows), len(core_cols)), dtype=np.int64)
    core[r, c] = v[left]
    rk = int(pivot_rows.sum()) + rank(core, p)
    return {
        "topdeg": topdeg,
        "gram_rank": rk,
        "dim": dim,
        "nondegenerate": rk == dim,
        "symmetric": bool(symmetric),
        "graded": bool(graded),
    }


def _antiauto_image(label):
    if label[0] == "E":
        _, r, d, i, j = label
        return ("E", r, d, j, i)
    if label[0] == "V":
        _, r, s, t, i, j = label
        return ("V", s, r, t, j, i)
    return {"u": "ubar", "ubar": "u", "v": "vbar", "vbar": "v"}.get(label, label)


def anti_automorphism_check(algebra: BlockAlgebra) -> dict:
    """Exhaustive check that transposition with arrow swap is a graded
    anti-automorphism squaring to the identity.

    The label map is an involution, so perm permutes the basis and
    (a, b) -> (perm b, perm a) permutes the pairs.  Each nonzero product ab
    must match phi(b) phi(a); that maps the nonzero products onto
    themselves, so the zero products onto zero products too.
    """
    dim = algebra.dim
    perm = np.array([algebra.index[_antiauto_image(l)] for l in algebra.labels], dtype=np.int64)
    phi = np.append(perm, dim)  # fixes the zero slot, where every zero product lands
    idx, coeff = algebra.mult_idx, algebra.mult_coeff
    a, b = algebra.nonzero_products
    ba = perm[b], perm[a]  # the product phi(b) phi(a)
    return {
        "involution": bool((perm[perm] == np.arange(dim)).all()),
        "degree_preserving": bool((algebra.degrees[perm] == algebra.degrees).all()),
        "antimultiplicative": bool((coeff[ba] == coeff[a, b]).all() and (idx[ba] == phi[idx[a, b]]).all()),
    }


def poincare_symmetry(algebra: BlockAlgebra, N: int) -> dict:
    """Palindromy of the Poincare polynomial against top degree 2N."""
    coeffs = algebra.poincare_coefficients()
    padded = coeffs + [0] * (2 * N + 1 - len(coeffs))
    palindromic = padded == padded[::-1]
    return {"coefficients": coeffs, "N": N, "palindromic": bool(palindromic)}


def koszulity_probe(algebra: BlockAlgebra, hbound: int) -> dict:
    return _koszulity_probe(algebra, hbound)


def block_report(p: int, lam: int | None, hbound: int = 4) -> dict:
    """Full machine-checked report for one block (singular when lam None).

    A regular block is built once, by ``quiver_presentation``, and every
    check reads that one algebra.
    """
    if not 1 <= hbound <= MAX_HBOUND:
        raise ValueError(f"hbound must lie in [1, {MAX_HBOUND}], got {hbound}")
    if lam is None:
        algebra = build_singular_block(p)
        N = 0
        descriptor = {"p": p, "block": "singular"}
        quiver = None
    else:
        quiver = quiver_presentation(p, lam)
        algebra = quiver["block"]
        N = 1
        descriptor = {"p": p, "block": "regular", "lambda": lam}
    frob = frobenius_form(algebra, 2 * N)
    poin = poincare_symmetry(algebra, N)
    kosz = koszulity_probe(algebra, hbound)
    report = {
        "descriptor": descriptor,
        "dimension": algebra.dim,
        "dims_by_degree": {str(k): v for k, v in sorted(algebra.dims_by_degree().items())},
        "poincare": poin["coefficients"],
        "verdicts": {
            "frobenius_nondegenerate": frob["nondegenerate"],
            "frobenius_symmetric": frob["symmetric"],
            "frobenius_graded": frob["graded"],
            "poincare_palindromic": poin["palindromic"],
            "koszul_linear": kosz["linear"],
        },
    }
    if quiver is not None:
        report["verdicts"]["antiauto"] = all(anti_automorphism_check(algebra).values())
        report["verdicts"]["quiver_cartan_match"] = (
            quiver["cartan_match"] and quiver["inflated_dims_match"]
        )
        report["quiver_basic_dims"] = quiver["basic_dims_by_degree"]
    return report
