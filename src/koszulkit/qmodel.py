"""The big Koszul model Q = Sym(E/F) tensor Lambda(E) and its dualities.

Q carries the derivation differential sending the exterior generator
eta_i (i >= dim F) to its class z_{i-f} in E/F; the exterior algebra on
the first f generators embeds as the dg-subalgebra T, and Q is free over
T on the monomials in the remaining generators.  Restriction along that
inclusion, the pushforward to Sym(E/F)-modules (forget the exterior
action) and Hom-duality over Q are all computed on semifree presentations.
"""

from __future__ import annotations

from .algebra import AlgebraSpec, _ext_sign, make_algebra, monomial_bidegree
from .bigraded import Window, bidegree_add
from .dgmodule import DgMap, SemifreeDgModule, _d_blocks, _spans, _table, cohomology
from .homdual import DualityReport, _compare


def extend_to_Q(N: SemifreeDgModule, e: int) -> SemifreeDgModule:
    """Base change Q tensor_T N along T -> Q: same generators, entries
    mapped by theta_i -> eta_i."""
    if N.algebra.kind != "T":
        raise ValueError("extend_to_Q expects a module over T")
    f, p = N.algebra.f, N.algebra.p
    Q = make_algebra("Q", e, f, p)
    nz = Q.n_sym
    diff = {}
    for k, row in N.diff.items():
        diff[k] = {
            l: {((0,) * nz, mon[1]): c for mon, c in entry.items()}
            for l, entry in row.items()
        }
    return SemifreeDgModule(Q, N.gens, diff)


def _restrict_scalars(M: SemifreeDgModule, B: AlgebraSpec, jhi: int, is_residual, split):
    """M as a semifree module over a subalgebra B of Q over which Q is free.

    The new generators are the elements mon . e_k of internal degree up to
    ``jhi`` whose monomial ``is_residual``; ``split`` writes a Q-monomial as
    (sign, B-monomial, residual), the monomial being sign times their
    product.  Terms on residuals that are not generators are dropped: the
    result is the quotient by the dg-submodule the missing generators span.
    Returns (module over B, labels), a label being (bidegree, k, residual).
    """
    Q = M.algebra
    ranges = _spans(Q, min((j for _, j in M.gens), default=0), jhi, M.gens)
    mons = [_table(Q.key(), *r)[0] for r in ranges]
    gens = enumerate(M.gens)
    labels = sorted((bidegree_add(g, monomial_bidegree(Q, m)), k, m) for k, g in gens for m in mons[k] if is_residual(m))
    index = {(k, mon): n for n, (_, k, mon) in enumerate(labels)}
    diff: dict[int, dict[int, dict]] = {n: {} for n in range(len(labels))}
    for (src, dst, sign), k, l, c in _d_blocks(M, ranges):
        for r, r2, s in zip(src.tolist(), dst.tolist(), sign.tolist()):
            n = index.get((k, mons[k][r]))
            if n is not None:
                sgn, bmon, res = split(mons[l][r2])
                m = index.get((l, res))
                if m is not None:
                    entry = diff[n].setdefault(m, {})
                    entry[bmon] = entry.get(bmon, 0) + sgn * s * c
    return SemifreeDgModule(B, [bd for bd, _, _ in labels], diff), labels


def restrict_to_T(M: SemifreeDgModule, jhi: int):
    """M as a semifree T-module, on generators (Q-gen, residual monomial).

    Residual monomials involve the Sym part and the exterior generators
    of index >= f; only generators of internal degree <= jhi are kept
    (the discarded span is a dg-submodule, so this is the exact quotient
    below the cutoff).  Returns (module over T, labels).
    """
    Q = M.algebra
    if Q.kind != "Q":
        raise ValueError("restrict_to_T expects a module over Q")
    fmask = (1 << Q.f) - 1

    def split(qmon):
        sub, rest = qmon[1] & fmask, qmon[1] & ~fmask
        return _ext_sign(sub, rest), ((), sub), (qmon[0], rest)

    return _restrict_scalars(M, make_algebra("T", Q.e, Q.f, Q.p), jhi, lambda mon: not mon[1] & fmask, split)


def restriction_unit(N: SemifreeDgModule, e: int, jhi: int) -> DgMap:
    """The canonical map N -> restrict(Q tensor_T N); a quasi-isomorphism."""
    MQ = extend_to_Q(N, e)
    R, labels = restrict_to_T(MQ, jhi)
    index = {(k, mon): n for n, (_, k, mon) in enumerate(labels)}
    one_res = ((0,) * MQ.algebra.n_sym, 0)
    matrix = {}
    for k in range(N.rank):
        n = index.get((k, one_res))
        if n is not None:
            matrix[k] = {n: {((), 0): 1}}
    return DgMap(N, R, matrix)


def pushforward_p(M: SemifreeDgModule):
    """M as a semifree module over P = Sym(E/F): forget the exterior
    action, keeping the Sym action and the differential.

    Generators are (Q-generator, exterior monomial) pairs; the output is
    finite and exact everywhere.  Returns (module over P, labels).
    """
    Q = M.algebra
    if Q.kind != "Q":
        raise ValueError("pushforward_p expects a module over Q")
    zero = (0,) * Q.n_sym

    def split(qmon):
        return 1, (qmon[0], 0), (zero, qmon[1])

    jhi = max((j for _, j in M.gens), default=0) + 2 * Q.n_ext
    return _restrict_scalars(M, make_algebra("P", Q.e, Q.f, Q.p), jhi, lambda mon: mon[0] == zero, split)


def dualize_Q(M: SemifreeDgModule) -> SemifreeDgModule:
    if M.algebra.kind != "Q":
        raise ValueError("dualize_Q expects a module over Q")
    return M.dualize()


def fbot_window(M: SemifreeDgModule) -> Window:
    e = M.algebra.e
    win = Window.hull(M.gens).enlarge(e + 1, 2 * (e + 1))
    return win.union(win.negate())


def check_fbot(M: SemifreeDgModule, window: Window | None = None) -> DualityReport:
    """Pushforward versus duality: table of p_*(D_Q(M)) against the
    Sym(E/F)-dual of p_*(M) twisted by [m]<2m>, m = dim E."""
    if M.algebra.kind != "Q":
        raise ValueError("check_fbot expects a module over Q")
    m = M.algebra.e
    if window is None:
        window = fbot_window(M)
    left_mod, _ = pushforward_p(dualize_Q(M))
    left = cohomology(left_mod, window)
    push, _ = pushforward_p(M)
    shifted_window = Window(
        window.i0 + m, window.i1 + m, window.j0 - 2 * m, window.j1 - 2 * m
    )
    right_raw = cohomology(push.dualize(), shifted_window)
    right = right_raw.shift(m, 2 * m)
    return _compare("fbot", window, left, right)
