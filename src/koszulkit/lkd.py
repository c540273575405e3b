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
pinned here and re-verified by DgMap.validate in the test suite.
"""

from __future__ import annotations

from .algebra import AlgebraSpec, _ext_sign, make_algebra, monomial_bidegree
from .bigraded import Window
from .dgmodule import DgMap, Expansion, SemifreeDgModule

def standard_window(*modules: SemifreeDgModule) -> Window:
    """The requested comparison window for a module: its generator hull
    plus one cohomological and one internal lattice step."""
    win = Window.hull([g for m in modules for g in m.gens])
    return win.enlarge(1, 2)


def functor_jcut(window: Window, f: int) -> int:
    """Internal cutoff making functor outputs exact on the window.

    Computations run 2(f+1) internal degrees past the requested window, so
    the quotient by the sub-cutoff part cannot disturb any reported cell.
    """
    return window.j0 - 2 * (f + 1)


def _partner(alg: AlgebraSpec, kind: str) -> AlgebraSpec:
    return make_algebra(kind, alg.e, alg.f, alg.p)


class FunctorImage:
    """A functor output together with the input-basis labels of its gens."""

    __slots__ = ("module", "labels", "expansion")

    def __init__(self, module: SemifreeDgModule, labels, expansion: Expansion):
        self.module = module
        self.labels = labels
        self.expansion = expansion


def _koszul_image(exp: Expansion, B: AlgebraSpec, offset, d_sign: int, act_ext: bool) -> FunctorImage:
    """The free B-module on the basis of ``exp`` with the Koszul differential.

    w_b sits at offset + bidegree(b) and d(w_b) = d_sign w_{db} +
    sum_i g_i . w_{x_i b}, where x_i is the i-th ext (act_ext) or sym
    generator acting on the input and g_i is the partner generator of B.
    """
    parts = [(B.one(), *exp.d[:2], exp.d[2] * d_sign % B.p)]
    parts += [(B.gen_monomial(not act_ext, i), *exp.action(act_ext, i)) for i in range(B.f)]
    diff: dict[int, dict[int, dict]] = {b: {} for b in range(len(exp))}
    for mon, rows, cols, vals in parts:
        for b, b2, c in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            diff[b].setdefault(b2, {})[mon] = c
    gens = (exp.degs + offset).tolist()
    return FunctorImage(SemifreeDgModule(B, gens, diff), list(exp.basis), exp)


def functor_F(M: SemifreeDgModule, jcut: int) -> FunctorImage:
    """T* tensor M as a semifree T-module, truncated below jcut."""
    A = M.algebra
    if A.kind != "S":
        raise ValueError(f"functor_F expects a module over S, got {A.kind}")
    n = A.f
    exp = Expansion(M, jcut, max((j for _, j in M.gens), default=jcut))
    return _koszul_image(exp, _partner(A, "T"), (n, -2 * n), -1 if n & 1 else 1, False)


def functor_G(N: SemifreeDgModule) -> FunctorImage:
    """S tensor N as a semifree S-module on the (finite) basis of N."""
    A = N.algebra
    if A.kind != "T":
        raise ValueError(f"functor_G expects a module over T, got {A.kind}")
    js = [j for _, j in N.gens]
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
    matrix: dict[int, dict[int, dict]] = {}
    for g, (fgen, tmon) in enumerate(gfm.labels):
        if tmon[1] != full:
            continue
        k, smon = fm.labels[fgen]
        jb = M.gens[k][1] + monomial_bidegree(M.algebra, smon)[1]
        sigma = -1 if (jb // 2) & 1 else 1
        matrix[g] = {k: {smon: sigma % M.algebra.p}}
    return DgMap(gfm.module, M, matrix), fm, gfm


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
    A = N.algebra
    n, p = A.f, A.p
    full = (1 << n) - 1
    gn_index = {lab: c for c, lab in enumerate(gn.labels)}
    szero = ((0,) * gn.module.algebra.n_sym, 0)
    fgn_index = {lab: b for b, lab in enumerate(fgn.labels)}
    matrix: dict[int, dict[int, dict]] = {}
    for k in range(N.rank):
        row: dict[int, dict] = {}
        for mask in range(1 << n):
            tmon = ((0,) * A.n_sym, mask) if A.n_sym else ((), mask)
            c = gn_index.get((k, tmon))
            if c is None:
                continue
            b = fgn_index.get((c, szero))
            if b is None:
                continue
            comp = full & ~mask
            sgn = _ext_sign(mask, comp)
            jb = N.gens[k][1] + 2 * bin(mask).count("1")
            eps = -1 if (jb // 2) & 1 else 1
            coeff = (eps * sgn) % p
            if not coeff:
                continue
            theta = ((0,) * A.n_sym, comp) if A.n_sym else ((), comp)
            row.setdefault(b, {})[theta] = coeff
        if row:
            matrix[k] = row
    return DgMap(N, fgn.module, matrix), gn, fgn


def kappa(M: SemifreeDgModule, jcut: int) -> SemifreeDgModule:
    """Linear Koszul duality on objects; defined as functor_F."""
    return functor_F(M, jcut).module


def regrade_xi(M: SemifreeDgModule) -> SemifreeDgModule:
    """The bidegree shear (i, j) -> (i + j, j) from modules over S to R.

    Entries carry over unchanged: internal degrees of S are even, so every
    sign in the d^2 identity is preserved by the shear.
    """
    if M.algebra.kind != "S":
        raise ValueError("regrade_xi expects a module over S")
    R = _partner(M.algebra, "R")
    gens = [(i + j, j) for i, j in M.gens]
    return SemifreeDgModule(R, gens, M.diff)


def regrade_xi_inv(M: SemifreeDgModule) -> SemifreeDgModule:
    if M.algebra.kind != "R":
        raise ValueError("regrade_xi_inv expects a module over R")
    S = _partner(M.algebra, "S")
    gens = [(i - j, j) for i, j in M.gens]
    return SemifreeDgModule(S, gens, M.diff)
