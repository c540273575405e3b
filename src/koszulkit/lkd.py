"""Linear Koszul duality between modules over S = Sym(F*) and T = Lambda(F).

functor_F sends an S-module M to the free T-module on the bigraded basis
of M, twisted by the Koszul differential; functor_G sends a T-module N to
the free S-module on the basis of N.  Writing w_b for the free generator
indexed by basis element b and n = dim F:

    d(w_b)  = (-1)^n w_{dM(b)} + sum_i  theta_i . w_{x_i b}     (in F(M))
    d(nu_c) =        nu_{dN(c)} + sum_i  x_i . nu_{theta_i c}   (in G(N))

Generators of F(M) sit at (n, -2n) + bidegree(b): the free T-generator of
the graded dual of T is the dual of the top exterior monomial, which is
what converts the coinduced module into a free one.

Because S-module expansions are unbounded below in internal degree, F
takes an internal cutoff c and returns the quotient by its generators
below c - 2f (a dg-submodule).  A T-column j reads only generators in
[j - 2f, j], so the cut is exact on the columns >= c, and callers cut at
the least column their window reads; only ``counit`` and ``unit`` keep
the 2(f+1) margin of ``functor_jcut``.  G may start at an internal
degree too: its generators at or above it span a dg-submodule.

The adjunction unit and counit are explicit chain maps whose signs are
pinned here, checked by ``DgMap.validate`` on their whole source.  Each
takes the window of its verdict, derives jcut from it, and builds each
functor image only where the window's cone reads it.  The counit's
source G(F(M)) starts at jcut + 2, a dg-submodule.  The unit's F(G(N)),
cut at min(window.j0, max(jN - 2, jcut)), jN the least internal degree
of N, is the quotient by a dg-submodule, so the unit into it is the
projection of a chain map.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

import numpy as np

from .algebra import AlgebraSpec, make_algebra, parity, weights
from .bigraded import Window
from .dgmodule import DgMap, Expansion, SemifreeDgModule, canonical


def standard_window(*modules: SemifreeDgModule) -> Window:
    """The requested comparison window for a module: its generator hull
    plus one cohomological and one internal lattice step."""
    i, j = np.concatenate([m.degs for m in modules]).T.tolist()
    win = Window(min(i), max(i), min(j), max(j)) if i else Window.hull([])
    return win.enlarge(1, 2)


def functor_jcut(window: Window, f: int) -> int:
    """The cutoff of ``counit`` and ``unit``: 2(f+1) internal degrees below
    the window, where F cut at window.j0 would already be exact on it.  The
    counit's source starts at jcut + 2, and the unit's target is cut no
    lower than jcut; the images they build reach no lower than the window's
    cone reads (see there).
    """
    return window.j0 - 2 * (f + 1)


def _partner(alg: AlgebraSpec, kind: str) -> AlgebraSpec:
    return make_algebra(kind, alg.e, alg.f, alg.p)


# A functor output and the input expansion whose basis its generators are:
# generator b is basis element b of ``expansion``.
FunctorImage = namedtuple("FunctorImage", "module expansion")


def _koszul_image(exp: Expansion, B: AlgebraSpec, offset, d_sign: int, act_ext: bool) -> FunctorImage:
    """The free B-module on the basis of ``exp`` with the Koszul differential.

    w_b sits at offset + bidegree(b) and d(w_b) = d_sign w_{db} +
    sum_i g_i . w_{x_i b}, where x_i is the i-th ext (act_ext) or sym
    generator acting on the input and g_i is the partner generator of B.
    The expansion's COO arrays of d and of each action, in its generator
    order and sorted by (row, col), become the terms with monomial 1 and
    g_i.  Each part is keyed as it is built, its int32 rows widened to one
    int64 key row * len(exp) + col, its values kept in the narrowest dtype
    of p (d's negated as p - v).  The parts, in monomial order, are
    concatenated into two rows of the one (4, terms) array the image keeps,
    and made canonical by a stable sort: each part is a sorted run, so
    equal keys keep monomial order.  The
    sorted keys, split back into rows and columns, the values and the
    monomial ids are then written into that array's rows, so the largest
    image holds about five int64 entries per term at its peak.
    """
    n, (rows, cols, vals) = len(exp), exp.d  # n may pass 46,341: rows widen before the product
    mons = [B.one()] + [B.gen_monomial(not act_ext, i) for i in range(B.f)]
    actions = (exp.action(act_ext, i) for i in range(B.f))  # each keyed as it is built
    parts = [(np.multiply(rows, n, dtype=np.int64) + cols, vals if d_sign == 1 else B.p - vals)]
    parts += [(np.multiply(rows, n, dtype=np.int64) + cols, vals) for rows, cols, vals in actions]
    parts = sorted((mon, *part) for mon, part in zip(mons, parts) if len(part[0]))  # monomials are distinct
    if not parts:
        return FunctorImage(SemifreeDgModule(B, exp.degs + offset), exp)
    mons, keys, vals = zip(*parts)
    del parts
    lens = [len(k) for k in keys]
    terms = np.empty((4, sum(lens)), dtype=np.int64)
    np.concatenate(keys, out=terms[0])
    del keys
    np.concatenate(vals, out=terms[2])
    del vals
    order = terms[0].argsort(kind="stable")
    terms[0].take(order, out=terms[1], mode="clip")
    terms[2].take(order, out=terms[3], mode="clip")
    np.divmod(terms[1], n, out=(terms[0], terms[1]))
    terms[2] = 0  # the monomial id of a term: the parts that start at or before its place
    for start in accumulate(lens[:-1]):
        terms[2] += order >= start
    return FunctorImage(SemifreeDgModule(B, exp.degs + offset, mons, terms), exp)


def functor_F(M: SemifreeDgModule, jcut: int) -> FunctorImage:
    """T* tensor M as a semifree T-module, truncated below jcut."""
    A = M.algebra
    if A.kind != "S":
        raise ValueError(f"functor_F expects a module over S, got {A.kind}")
    n = A.f
    exp = Expansion(M, jcut, max(M.degs[:, 1].tolist(), default=jcut))
    return _koszul_image(exp, _partner(A, "T"), (n, -2 * n), -1 if n & 1 else 1, False)


def functor_G(N: SemifreeDgModule, jlo: int | None = None) -> FunctorImage:
    """S tensor N as a semifree S-module on the (finite) basis of N, or on
    its basis elements of internal degree >= jlo.

    S-monomials have internal degree <= 0 and d(nu_c) names only c's own
    degree and the higher degrees of theta_i c, so the generators at or
    above jlo span a dg-submodule of the whole image, equal to it there.
    """
    A = N.algebra
    if A.kind != "T":
        raise ValueError(f"functor_G expects a module over T, got {A.kind}")
    js = N.degs[:, 1].tolist()
    exp = Expansion(N, min(js, default=0) if jlo is None else jlo, max(js, default=0) + 2 * A.f)
    return _koszul_image(exp, _partner(A, "S"), (0, 0), 1, True)


def counit(M: SemifreeDgModule, window: Window) -> DgMap:
    """The chain map G(F(M)) -> M for a verdict on ``window``; a
    quasi-isomorphism above its cutoff.

    On the basis element theta^I . w_b of F(M) the map is zero unless I is
    the full index set, where it evaluates to (-1)^{floor(j(b)/2)} times
    the element b of M.  The source is the part of G(F(M)) at internal
    degree >= jcut + 2, a dg-submodule (``functor_G``), so the counit is a
    chain map on all of it and ``DgMap.validate`` checks every source
    generator; the window's cone (``_on_range``) keeps only generators at
    or above window.j0, which lie in it.  It reads only the columns >=
    jcut + 2 of F(M)'s T-expansion, and column j reads only the M-degrees
    [j, j + 2f], so F(M) is cut at jcut + 2 too.  Only the map is
    returned: F(M) and both expansions die with the call, and G(F(M))
    lives on as its source.
    """
    jcut = functor_jcut(window, M.algebra.f)
    fm = functor_F(M, jcut + 2)
    gfm = functor_G(fm.module, jcut + 2)
    full = (1 << M.algebra.f) - 1
    fgen, tmons, tmon = gfm.expansion.labels()
    g = np.array([mask == full for _, mask in tmons], dtype=bool)[tmon].nonzero()[0]
    b = fgen[g]  # the basis element of M each selected theta^top . w_b names
    k, smons, smon = fm.expansion.labels()
    sigma = np.where(fm.expansion.degs[b, 1] // 2 & 1, M.algebra.p - 1, 1)
    terms = canonical(smons, np.array([g, k[b], smon[b], sigma]), M.rank, M.algebra.p)
    return DgMap(gfm.module, M, *terms)


def unit(N: SemifreeDgModule, window: Window) -> DgMap:
    """The chain map N -> F(G(N)) for a verdict on ``window``; a
    quasi-isomorphism above its cutoff.

    eta(e_k) = sum_J sigma(theta^J e_k) sgn(J, J^c)
                      theta^{J^c} . w_{nu(theta^J e_k)}

    where sgn is the Koszul sign of theta^J wedge theta^{J^c} = theta^top
    and sigma(b) = (-1)^{floor(j(b)/2)} is the same internal-degree sign
    that appears in the counit.

    F(G(N)) is cut at c = min(window.j0, max(jN - 2, jcut)), jN the least
    internal degree of N, instead of at jcut: the quotient by the
    dg-submodule of generators below c.  eta into it is the projection of
    eta into the uncut F(G(N)), a chain map, so it is a chain map on all
    of N for any c, and ``DgMap.validate`` checks every source generator.
    The window's cone (``_on_range``) reads only T-expansion columns >=
    window.j0 >= c, and column j reads only the G(N)-degrees [j, j + 2f],
    which the quotient keeps.
    """
    jcut = functor_jcut(window, N.algebra.f)
    gn = functor_G(N)
    least = min(N.degs[:, 1].tolist(), default=window.j0 + 2)
    fgn = functor_F(gn.module, min(window.j0, max(least - 2, jcut)))
    full = (1 << N.algebra.f) - 1
    c, smons, smon = fgn.expansion.labels()
    b = np.array([mon == gn.module.algebra.one() for mon in smons], dtype=bool)[smon].nonzero()[0]  # 1 . w_c
    c = c[b]
    k, tmons, tmon = gn.expansion.labels()  # theta^J e_k for each c
    J = np.array([mask for _, mask in tmons], dtype=np.int64)
    sgn = 1 - 2 * parity(full & ~J & weights(J, N.algebra.f, True), N.algebra.f)[tmon[c]]
    eps = np.where(gn.expansion.degs[c, 1] // 2 & 1, -1, 1)
    thetas = [((), full & ~mask) for _, mask in tmons]
    terms = canonical(thetas, np.array([k[c], b, tmon[c], eps * sgn]), fgn.module.rank, N.algebra.p)
    return DgMap(N, fgn.module, *terms)


def kappa(M: SemifreeDgModule, jcut: int) -> SemifreeDgModule:
    """Linear Koszul duality on objects; defined as functor_F."""
    return functor_F(M, jcut).module


def regrade_xi(M: SemifreeDgModule) -> SemifreeDgModule:
    """The bidegree shear (i, j) -> (i + j, j) from modules over S to R.

    The term arrays are shared unchanged: internal degrees of S are even,
    so every sign in the d^2 identity is preserved by the shear.
    """
    if M.algebra.kind != "S":
        raise ValueError("regrade_xi expects a module over S")
    R = _partner(M.algebra, "R")
    return SemifreeDgModule(R, M.degs + M.degs[:, 1:] * (1, 0), M.mons, M.terms)
