"""The per-generator, per-term expansion kernel, kept as a reference.

Before expansions were grouped by distinct span and by distinct (span,
span, monomial) block, ``dgmodule`` computed one span per generator in a
Python loop and looked up one cached block per term.  This module keeps
that code verbatim: ``_spans``, ``_d_blocks``, ``_gather`` and
``Expansion`` (``__init__``, ``basis``, ``labels``, ``_assemble``,
``action``) from ``dgmodule``, and ``_restrict_scalars`` with the
``restrict_to_T``/``pushforward_p`` wrappers from ``qmodel``.  They read
``dgmodule``'s cached tables and its ``_summed``, which compute what they
computed then, so tests can compare the grouped kernel with this one entry
for entry.

The block builders are kept here too, verbatim: ``_block``, which
multiplied a monomial into a table one row at a time with
``mul_monomials``, and ``_derivation_block``, which applied ``elt_d`` one
row at a time, with ``_frozen_block``; ``dgmodule`` now builds the same
blocks as array products, every missing block of one request in one batch.
``_table`` gives them the (monomials, bidegrees) pair they read.
"""

from functools import lru_cache
from itertools import accumulate
from math import inf

import numpy as np

from koszulkit import dgmodule
from koszulkit.algebra import CACHE_SIZE, AlgebraSpec, elt_d, make_algebra, monomial_bidegree, mul_monomials
from koszulkit.bigraded import bidegree_add
from koszulkit.dgmodule import (
    _NO_TERMS,
    MAX_EXPANSION_BASIS,
    SemifreeDgModule,
    _canonical,
    _span_size,
    _summed,
)


def _table(key, jlo: int, jhi: int):
    """The monomials and bidegrees of ``dgmodule._table``."""
    return dgmodule._table(key, jlo, jhi)[:2]


def _frozen_block(terms) -> np.ndarray:
    """Triples (source row, target row, coefficient) as a read-only 3 x n array."""
    block = np.array(terms, dtype=np.int64).reshape(-1, 3).T.copy()
    block.flags.writeable = False
    return block


@lru_cache(maxsize=CACHE_SIZE)
def _block(key, src_range, dst_range, mon, left: bool):
    """The multiplication table of mon on the table on ``src_range``: where
    mon times each of its monomials m lands in the table on ``dst_range``.

    The product is mon . m when ``left`` (a generator acting) and
    (-1)^{|m|} m . mon otherwise, a term of d(m e) = (-1)^{|m|} m d(e).
    Vanishing products and products outside the target are dropped.
    """
    A = AlgebraSpec(*key)
    src, src_degs = _table(key, *src_range)
    dst = _table(key, *dst_range)[0]
    row = dict(zip(dst, range(len(dst))))
    terms = []
    for r, (m, i) in enumerate(zip(src, src_degs[:, 0].tolist())):
        prod = mul_monomials(A, mon, m) if left else mul_monomials(A, m, mon)
        if prod is not None and prod[0] in row:
            terms.append((r, row[prod[0]], prod[1] if left or not i & 1 else -prod[1]))
    return _frozen_block(terms)


@lru_cache(maxsize=CACHE_SIZE)
def _derivation_block(key, rng):
    """The table of d_A on the table on ``rng``; d_A preserves internal
    degree, so every term stays in the table."""
    A = AlgebraSpec(*key)
    mons = _table(key, *rng)[0]
    row = dict(zip(mons, range(len(mons))))
    return _frozen_block([(r, row[m2], c) for r, m in enumerate(mons) for m2, c in elt_d(A, {m: 1}).items()])


def _spans(A: AlgebraSpec, jlo: int, jhi: int, gens):
    """For each generator, the monomial range [jlo - j, jhi - j] cut to the
    internal degrees monomials can have.

    Every generator has internal degree +-2, so monomial degrees are even;
    sym generators of negative degree (S, R) bound them above by 0, all
    others bound them below by 0, and the exterior part alone by 2 n_ext.
    Equal spans give equal tables, so modules share cache entries.
    """
    lo, hi = (0, 2 * A.n_ext) if not A.n_sym else (-inf, 0) if A.sym_deg[1] < 0 else (0, inf)
    spans = []
    for _, j in gens:
        a, b = max(jlo - j, lo), min(jhi - j, hi)
        a, b = a + (a & 1), b - (b & 1)
        spans.append((a, b) if a <= b else (0, -2))
    return spans


def _d_blocks(module: SemifreeDgModule, ranges):
    """The blocks (block, k, l, coeff) whose sum is d on the generators'
    tables: d(m e_k) = d_A(m) e_k + (-1)^{|m|} m sum of the terms of d(e_k)."""
    key, mons = module.algebra.key(), module.mons
    blocks = [
        (_block(key, ranges[k], ranges[l], mons[u], False), k, l, c)
        for k, l, u, c in zip(*module.terms.tolist())
    ]
    if module.algebra.has_differential:
        blocks += [(_derivation_block(key, r), k, k, 1) for k, r in enumerate(ranges)]
    return blocks


def _gather(blocks, offsets):
    """Sum over blocks (block, k, l, coeff) of coeff times the block taken
    from the table rows of generator k to those of generator l: unmerged
    arrays (src, dst, coeff) of positions in the concatenated tables."""
    blocks = [b for b in blocks if b[0].shape[1]]
    if not blocks:
        return _NO_TERMS[:3]
    src, dst, sign = np.concatenate([b for b, _, _, _ in blocks], axis=1)
    lens = [b.shape[1] for b, _, _, _ in blocks]
    src_off, dst_off, coeff = np.array([(offsets[k], offsets[l], c) for _, k, l, c in blocks]).T.repeat(lens, axis=1)
    return src + src_off, dst + dst_off, sign * coeff


class Expansion:
    __slots__ = ("module", "degs", "d", "_ranges", "_offsets", "_place", "_mons", "_gen", "_order")

    def __init__(self, module: SemifreeDgModule, jlo: int, jhi: int):
        self.module = module
        A = module.algebra
        key = A.key()
        ranges = self._ranges = _spans(A, jlo, jhi, module.gens)
        sizes = [_span_size(key, *r) for r in ranges]
        if sum(sizes) > MAX_EXPANSION_BASIS:
            k = sizes.index(max(sizes))
            raise ValueError(
                f"the expansion on internal degrees [{jlo}, {jhi}] has {sum(sizes):,} basis elements, over the limit of "
                f"{MAX_EXPANSION_BASIS:,}; generator {k} alone spans monomial degrees {list(ranges[k])} with {sizes[k]:,} monomials"
            )
        tables = [_table(key, *r) for r in ranges]
        self._offsets = list(accumulate(sizes, initial=0))
        # per basis element: generator bidegree and index
        shift = np.array([(i, j, k) for k, (i, j) in enumerate(module.gens)], dtype=np.int64)
        shift = shift.reshape(-1, 3).repeat(sizes, axis=0)
        degs = np.concatenate([np.zeros((0, 2), np.int64)] + [degs for _, degs in tables]) + shift[:, :2]
        gen = shift[:, 2]
        order = np.lexsort((gen, degs[:, 1], degs[:, 0]))
        self._place = np.empty_like(order)
        self._place[order] = np.arange(len(order))
        self.degs = degs[order]
        self._mons, self._gen, self._order = [ms for ms, _ in tables], gen, order
        self.d = self._assemble(_d_blocks(module, ranges))

    def __len__(self):
        return len(self.degs)

    @property
    def basis(self) -> list:
        """The basis as (k, monomial) pairs."""
        mons = [mon for ms in self._mons for mon in ms]
        return list(zip(self._gen[self._order].tolist(), map(mons.__getitem__, self._order.tolist())))

    def labels(self):
        """Each basis element's generator and monomial: arrays (gen, mon)
        in basis order and the sorted tuple ``mons`` that mon indexes."""
        tables = dict(zip(self._ranges, self._mons))
        mons = tuple(sorted(set().union(*tables.values())))
        pos = {mon: u for u, mon in enumerate(mons)}
        ids = {r: np.array([pos[mon] for mon in t], dtype=np.int64) for r, t in tables.items()}
        flat = np.concatenate([np.zeros(0, np.int64)] + [ids[r] for r in self._ranges])
        return self._gen[self._order], mons, flat[self._order]

    def _assemble(self, blocks):
        """Sum over blocks (block, k, l, coeff) of coeff times the block
        taken from the rows of generator k to those of generator l."""
        src, dst, vals = _gather(blocks, self._offsets)
        if not len(src):
            return src, dst, vals
        key, vals = _summed(self._place[src] * len(self) + self._place[dst], vals, self.module.algebra.p)
        return (*np.divmod(key, len(self)), vals)

    def action(self, is_ext: bool, g: int):
        """Left action of one algebra generator as (rows, cols, coeffs),
        sorted by row; images outside the range are dropped."""
        A = self.module.algebra
        mon = A.gen_monomial(is_ext, g)
        return self._assemble([(_block(A.key(), r, r, mon, True), k, k, 1) for k, r in enumerate(self._ranges)])


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
    Q = M.algebra
    if Q.kind != "Q":
        raise ValueError("restrict_to_T expects a module over Q")
    fmask = (1 << Q.f) - 1

    def split(qmon):
        return ((), qmon[1] & fmask), (qmon[0], qmon[1] & ~fmask)

    return _restrict_scalars(M, make_algebra("T", Q.e, Q.f, Q.p), jhi, lambda mon: not mon[1] & fmask, split)


def pushforward_p(M: SemifreeDgModule):
    Q = M.algebra
    if Q.kind != "Q":
        raise ValueError("pushforward_p expects a module over Q")
    zero = (0,) * Q.n_sym

    def split(qmon):
        return (qmon[0], 0), (zero, qmon[1])

    jhi = max((j for _, j in M.gens), default=0) + 2 * Q.n_ext
    return _restrict_scalars(M, make_algebra("P", Q.e, Q.f, Q.p), jhi, lambda mon: mon[0] == zero, split)
