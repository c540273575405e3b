"""The big Koszul model Q = Sym(E/F) tensor Lambda(E) and its dualities.

Q carries the derivation differential sending the exterior generator
eta_i (i >= dim F) to its class z_{i-f} in E/F; the exterior algebra on
the first f generators embeds as the dg-subalgebra T, and Q is free over
T on the monomials in the remaining generators.  Restriction along that
inclusion, the pushforward to Sym(E/F)-modules (forget the exterior
action) and Hom-duality over Q are all computed on semifree presentations.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .algebra import AlgebraSpec, make_algebra, monomial_bidegree
from .bigraded import Window, bidegree_add
from .dgmodule import DgMap, SemifreeDgModule, _canonical, _d_blocks, _gather, _spans, _table, cohomology
from .homdual import DualityReport, _compare


def extend_to_Q(N: SemifreeDgModule, e: int) -> SemifreeDgModule:
    """Base change Q tensor_T N along T -> Q: same generators and term
    arrays, monomials mapped by theta_i -> eta_i (this keeps their order)."""
    if N.algebra.kind != "T":
        raise ValueError("extend_to_Q expects a module over T")
    Q = make_algebra("Q", e, N.algebra.f, N.algebra.p)
    zero = (0,) * Q.n_sym
    return SemifreeDgModule(Q, N.degs, [(zero, mask) for _, mask in N.mons], N.terms)


def _restrict_scalars(M: SemifreeDgModule, B: AlgebraSpec, jhi: int, is_residual, split):
    """M as a semifree module over a subalgebra B of Q over which Q is free.

    The new generators are the elements mon . e_k of internal degree up to
    ``jhi`` whose monomial ``is_residual``; ``split`` writes a Q-monomial as
    (B-monomial, residual), whose product it is with no sign, because the
    B-part is either even or holds the lowest exterior indices.  Terms on
    residuals that are not generators are dropped: the result is the
    quotient by the dg-submodule the missing generators span.
    Returns (module over B, labels), a label being (bidegree, k, residual).
    """
    Q = M.algebra
    ranges = _spans(Q, min((j for _, j in M.gens), default=0), jhi, M.gens)
    tables = {r: _table(Q.key(), *r)[0] for r in set(ranges)}
    where = {r: {mon: n for n, mon in enumerate(t)} for r, t in tables.items()}
    gens = enumerate(M.gens)
    labels = sorted((bidegree_add(g, monomial_bidegree(Q, m)), k, m) for k, g in gens for m in tables[ranges[k]] if is_residual(m))
    # per table position: the B-monomial and residual position it splits
    # into (a residual's internal degree lies in [0, its monomial's]: same table)
    bmons, splits = {}, {}
    for r, t in tables.items():
        rows = [(bmons.setdefault(b, len(bmons)), where[r][res]) for b, res in map(split, t)]
        splits[r] = np.array(rows, dtype=np.int64).reshape(-1, 2)
    # per position of the concatenated tables (as in the expansion kernel):
    # the new generator it is, or -1, and the one its residual is
    sizes = [len(tables[r]) for r in ranges]
    offsets = list(accumulate(sizes, initial=0))
    gen = np.full(offsets[-1], -1, dtype=np.int64)
    gen[[offsets[k] + where[ranges[k]][m] for _, k, m in labels]] = np.arange(len(labels))
    bmon, res = np.concatenate([np.zeros((0, 2), np.int64)] + [splits[r] for r in ranges]).T
    tgt = gen[np.repeat(offsets[:-1], sizes) + res]
    src, dst, coeff = _gather(_d_blocks(M, ranges), offsets)
    live = gen[src] >= 0
    src, dst = src[live], dst[live]
    terms = np.array([gen[src], tgt[dst], bmon[dst], coeff[live]])
    return SemifreeDgModule(B, [bd for bd, _, _ in labels], *_canonical(list(bmons), terms, len(labels), B.p)), labels


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

    return _restrict_scalars(M, make_algebra("T", Q.e, Q.f, Q.p), jhi, lambda mon: not mon[1] & fmask, split)


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
