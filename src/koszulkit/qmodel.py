"""The big Koszul model Q = Sym(E/F) tensor Lambda(E) and its dualities.

Q carries the derivation differential sending the exterior generator
eta_i (i >= dim F) to its class z_{i-f} in E/F; the exterior algebra on
the first f generators embeds as the dg-subalgebra T, and Q is free over
T on the monomials in the remaining generators.  Restriction along that
inclusion, the pushforward to Sym(E/F)-modules (forget the exterior
action) and Hom-duality over Q are all computed on semifree presentations;
both restrictions are read off the basis labels and differential of one
``Expansion``.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, make_algebra
from .bigraded import Window
from .dgmodule import DgMap, Expansion, SemifreeDgModule, canonical, cohomology
from .homdual import DualityReport, compare


def extend_to_Q(N: SemifreeDgModule, e: int) -> SemifreeDgModule:
    """Base change Q tensor_T N along T -> Q: same generators and term
    arrays, monomials mapped by theta_i -> eta_i (this keeps their order)."""
    if N.algebra.kind != "T":
        raise ValueError("extend_to_Q expects a module over T")
    Q = make_algebra("Q", e, N.algebra.f, N.algebra.p)
    zero = (0,) * Q.n_sym
    return SemifreeDgModule(Q, N.degs, [(zero, mask) for _, mask in N.mons], N.terms)


def _restrict_scalars(M: SemifreeDgModule, B: AlgebraSpec, jhi: int, split):
    """M as a semifree module over a subalgebra B of Q over which Q is free.

    ``split`` writes a Q-monomial as (B-monomial, residual), whose product
    it is with no sign, because the B-part is either even or holds the
    lowest exterior indices.  The new generators are the basis elements
    mon . e_k of ``Expansion(M, min j, jhi)`` whose monomial is a residual
    (splits with B-part 1), in the expansion's generator order (by k, then
    k's table); every residual of a basis element is in the expansion, its
    internal degree lying in [0, its monomial's].  d is the expansion's on the new generators, each target
    sent to its residual with its B-part as monomial.  The basis elements
    above jhi span a dg-submodule; the result is the quotient by it.
    Returns (module over B, labels), a label being (bidegree, k, residual).
    """
    exp = Expansion(M, min(M.degs[:, 1].tolist(), default=0), jhi)
    gen, mons, mon = exp.labels()
    where, bmons = {m: u for u, m in enumerate(mons)}, {}
    splits = [(bmons.setdefault(b, len(bmons)), where[res]) for b, res in map(split, mons)]
    bmon, res = np.array(splits, dtype=np.int64).reshape(-1, 2).T
    pos = (res[mon] == mon).nonzero()[0]  # the new generators, in the expansion's order
    new = np.full(len(exp), -1, dtype=np.int64)
    new[pos] = np.arange(len(pos))
    src, dst, coeff = exp.d
    live = new[src] >= 0
    src, dst = src[live], dst[live]
    key = gen * len(mons) + mon  # unique per basis element
    order = key.argsort()
    tgt = order[key.searchsorted(gen[dst] * len(mons) + res[mon[dst]], sorter=order)]  # each target's residual
    terms = np.array([new[src], new[tgt], bmon[mon[dst]], coeff[live]])
    labels = list(zip(map(tuple, exp.degs[pos].tolist()), gen[pos].tolist(), map(mons.__getitem__, mon[pos].tolist())))
    return SemifreeDgModule(B, exp.degs[pos], *canonical(list(bmons), terms, len(pos), B.p)), labels


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
        return ((), qmon[1] & fmask), (qmon[0], qmon[1] & ~fmask)

    return _restrict_scalars(M, make_algebra("T", Q.e, Q.f, Q.p), jhi, split)


def restriction_unit(N: SemifreeDgModule, e: int, jhi: int) -> DgMap:
    """The canonical map N -> restrict(Q tensor_T N); a quasi-isomorphism."""
    MQ = extend_to_Q(N, e)
    R, labels = restrict_to_T(MQ, jhi)
    terms = sorted((k, n, 0, 1) for n, (_, k, mon) in enumerate(labels) if mon == MQ.algebra.one())
    return DgMap(N, R, (R.algebra.one(),) if terms else (), np.array(terms, dtype=np.int64).reshape(-1, 4).T.copy())


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
        return (qmon[0], 0), (zero, qmon[1])

    jhi = max(M.degs[:, 1].tolist(), default=0) + 2 * Q.n_ext
    return _restrict_scalars(M, make_algebra("P", Q.e, Q.f, Q.p), jhi, split)


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
    return compare("fbot", window, left, right)
