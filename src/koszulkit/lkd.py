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
takes an internal cutoff jcut and returns the quotient by the generators
below it; the result computes the true cohomology in internal degrees
>= jcut (the discarded part is a dg-submodule supported strictly below).
Callers derive jcut from their comparison window via ``functor_jcut``.

The adjunction unit and counit are explicit chain maps whose signs are
pinned here; each carries jcut + 2 as its ``DgMap.min_internal``.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .algebra import AlgebraSpec, make_algebra
from .bigraded import Window
from .dgmodule import _NO_TERMS, DgMap, Expansion, SemifreeDgModule, _canonical, _parity, _weights


def standard_window(*modules: SemifreeDgModule) -> Window:
    """The requested comparison window for a module: its generator hull
    plus one cohomological and one internal lattice step."""
    i, j = np.concatenate([m.degs for m in modules]).T.tolist()
    win = Window(min(i), max(i), min(j), max(j)) if i else Window.hull([])
    return win.enlarge(1, 2)


def functor_jcut(window: Window, f: int) -> int:
    """Internal cutoff making functor outputs exact on the window.

    Computations run 2(f+1) internal degrees past the requested window, so
    the quotient by the sub-cutoff part cannot disturb any reported cell.
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
    The kernel's COO arrays of d and of each action, sorted by (row, col),
    become the terms with monomial 1 and g_i; a stable sort of the parts,
    concatenated in monomial order, by (row, col) makes them canonical.
    """
    mons = [B.one()] + [B.gen_monomial(not act_ext, i) for i in range(B.f)]
    parts = [(*exp.d[:2], exp.d[2] * d_sign % B.p)] + [exp.action(act_ext, i) for i in range(B.f)]
    parts = sorted((mon, part) for mon, part in zip(mons, parts) if len(part[0]))  # monomials are distinct
    terms = _NO_TERMS
    if parts:
        rows, cols, vals = (np.concatenate(x) for x in zip(*(part for _, part in parts)))
        ids = np.arange(len(parts)).repeat([len(part[0]) for _, part in parts])
        terms = np.array([rows, cols, ids, vals])[:, np.lexsort((cols, rows))]
    return FunctorImage(SemifreeDgModule(B, exp.degs + offset, [mon for mon, _ in parts], terms), exp)


def functor_F(M: SemifreeDgModule, jcut: int) -> FunctorImage:
    """T* tensor M as a semifree T-module, truncated below jcut."""
    A = M.algebra
    if A.kind != "S":
        raise ValueError(f"functor_F expects a module over S, got {A.kind}")
    n = A.f
    exp = Expansion(M, jcut, max(M.degs[:, 1].tolist(), default=jcut))
    return _koszul_image(exp, _partner(A, "T"), (n, -2 * n), -1 if n & 1 else 1, False)


def functor_G(N: SemifreeDgModule) -> FunctorImage:
    """S tensor N as a semifree S-module on the (finite) basis of N."""
    A = N.algebra
    if A.kind != "T":
        raise ValueError(f"functor_G expects a module over T, got {A.kind}")
    js = N.degs[:, 1].tolist()
    exp = Expansion(N, min(js, default=0), max(js, default=0) + 2 * A.f)
    return _koszul_image(exp, _partner(A, "S"), (0, 0), 1, True)


def counit(M: SemifreeDgModule, jcut: int):
    """The chain map G(F(M)) -> M; a quasi-isomorphism above the cutoff.

    On the basis element theta^I . w_b of F(M) the map is zero unless I is
    the full index set, where it evaluates to (-1)^{floor(j(b)/2)} times
    the element b of M.
    """
    fm = functor_F(M, jcut)
    gfm = functor_G(fm.module)
    full = (1 << M.algebra.f) - 1
    fgen, tmons, tmon = gfm.expansion.labels()
    g = np.array([mask == full for _, mask in tmons], dtype=bool)[tmon].nonzero()[0]
    b = fgen[g]  # the basis element of M each selected theta^top . w_b names
    k, smons, smon = fm.expansion.labels()
    sigma = np.where(fm.expansion.degs[b, 1] // 2 & 1, M.algebra.p - 1, 1)
    terms = _canonical(smons, np.array([g, k[b], smon[b], sigma]), M.rank, M.algebra.p)
    return DgMap(gfm.module, M, *terms, min_internal=jcut + 2), fm, gfm


def unit(N: SemifreeDgModule, jcut: int):
    """The chain map N -> F(G(N)); a quasi-isomorphism above the cutoff.

    eta(e_k) = sum_J sigma(theta^J e_k) sgn(J, J^c)
                      theta^{J^c} . w_{nu(theta^J e_k)}

    where sgn is the Koszul sign of theta^J wedge theta^{J^c} = theta^top
    and sigma(b) = (-1)^{floor(j(b)/2)} is the same internal-degree sign
    that appears in the counit.
    """
    gn = functor_G(N)
    fgn = functor_F(gn.module, jcut)
    full = (1 << N.algebra.f) - 1
    c, smons, smon = fgn.expansion.labels()
    b = np.array([mon == gn.module.algebra.one() for mon in smons], dtype=bool)[smon].nonzero()[0]  # 1 . w_c
    c = c[b]
    k, tmons, tmon = gn.expansion.labels()  # theta^J e_k for each c
    J = np.array([mask for _, mask in tmons], dtype=np.int64)
    sgn = 1 - 2 * _parity(full & ~J & _weights(J, N.algebra.f, True), N.algebra.f)[tmon[c]]
    eps = np.where(gn.expansion.degs[c, 1] // 2 & 1, -1, 1)
    thetas = [((), full & ~mask) for _, mask in tmons]
    terms = _canonical(thetas, np.array([k[c], b, tmon[c], eps * sgn]), fgn.module.rank, N.algebra.p)
    return DgMap(N, fgn.module, *terms, min_internal=jcut + 2), gn, fgn


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
