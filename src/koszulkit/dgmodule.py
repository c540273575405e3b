"""Semifree dg-modules, chain maps, cones, expansion and exact cohomology.

A semifree module is a finite list of free generator bidegrees over one of
the algebras of ``algebra`` and a differential held as sorted term arrays:
the term (k, l, mon, c) says that d(e_k) contains c * mon * e_l, of
bidegree gens[k] - gens[l] + (1, 0).  Chain maps are held the same way.
Monomials are interned per object, so monomial algebra (bidegrees,
products, signs, d_A) runs on the few distinct monomials and is gathered
by index; checks, shifts, duals and cones are array operations.

All monomial arithmetic runs on ``algebra``'s array kernel.  One routine,
``_d_squared``, checks d^2 = 0: it multiplies each distinct pair of
monomials once, numbers the products by their byte keys and reports the
least failing target of each failing generator.  A module's validate()
runs it on the module's terms, and a chain map's on the rows of its cone
at the target, which vanish exactly when the map is a chain map, read
from the map's, target's and source's own term arrays, on every source
generator.  ``is_quasi_iso`` runs that check, then takes the cohomology
of the one cone it builds, on the generators its window reaches.

Sign conventions, fixed project-wide and enforced by validate():

* differentials act from the left: d(a e) = d(a) e + (-1)^{|a|} a d(e);
* shifting by [1] multiplies a term from e_k to e_l by -(-1)^c where
  c = i_k - i_l + 1 is its cohomological degree;
* dualizing (Hom into the free rank-one module) negates generator
  bidegrees and transposes the terms with the sign (-1)^{c(c-1)/2}, which
  makes double dualization the identity on the presentation.

Expansions are assembled from ``algebra``'s cached tables and blocks.
Generators are held by index into their few distinct spans, and the terms
of d fall into few (span, span, monomial) groups, each group's block placed
for all of its terms by one ``ranges`` gather.  An expansion holds its
basis in generator order and d as int32 positions and values in the
narrowest dtype of p.  Cohomology, the functors of ``lkd``, finite
expansions and ``qmodel``'s restrictions read its labels and d.
Cohomology is exact and takes a basis in any order: each internal-degree
column of an expansion is complete, and the ranks a window's h^{i,j} need
are those of maps between whole cells: structural pivots first, over
every map at once, then one dense block per distinct connected component
of the rest.  Before any expansion, a contractible module is certified by
k (x)_A M, the complex over k on its generators with the unit-monomial
terms of d: when that is acyclic the table is empty on every window (see
``cohomology``), and nothing is expanded or ranked past the generators.

Finite dg-modules (``FiniteDgModule``) hold basis bidegrees and d as term
arrays like ``Expansion``'s, row = source: shifts and duals are index swaps
and sign flips.  They hold no actions: their tables read only d.
"""

from __future__ import annotations

import json
import reprlib
from itertools import groupby

import numpy as np

from .algebra import (
    AlgebraSpec, byte_keys, d_A, degree_bounds, derivation_block, joined, make_algebra, monomial_arrays,
    monomial_bidegree, product_block, span_size, table, wedge_sign,
)
from .bigraded import Bidegree, BigradedDims, Window
from .linalg import MAX_RANK_CELLS, components, rank as mat_rank, ranges, sorted_join, structural_pivots, summed

ONE_SHIFT = (1, 0)  # bidegree of every differential

_NO_TERMS = np.zeros((4, 0), dtype=np.int64)
_NO_TERMS.flags.writeable = False
_NO_DEGS = _NO_TERMS[:2].T  # (0, 2): the bidegrees of no basis elements
_NO_POSITIONS = _NO_TERMS[:2].astype(np.int32)  # the rows and cols of an empty d


def _interned(mons):
    """The distinct ``mons`` as a sorted tuple, and each one's position in it (int64)."""
    pos = {mon: u for u, mon in enumerate(sorted(set(mons)))}
    return tuple(pos), np.fromiter(map(pos.__getitem__, mons), np.int64, len(mons))


def _used_only(mons, mon):
    """The monomials of the tuple ``mons`` that indices ``mon`` use, in order, and ``mon`` renumbered to them."""
    used = np.bincount(mon, minlength=len(mons)) != 0
    if used.all():
        return mons, mon
    return tuple(m for m, u in zip(mons, used.tolist()) if u), (used.cumsum() - 1)[mon]


def canonical(mons, terms, n_tgt: int, p: int):
    """Canonical ``(mons, terms)`` from terms (src, tgt, mon, coeff), coeff
    nonzero mod p, over monomials ``mons`` in any order and not all used:
    equal positions are summed mod p and vanishing sums dropped.  Parsed
    files, sampled maps, restrictions of scalars, the restriction unit and
    the counit and unit maps are made canonical here.  ``lkd``'s Koszul
    images, ``cone``, ``dualize`` and ``_kept`` keep their own
    order-preserving constructions, which peak lower: ``cone`` through this
    raised the peak of the e = f = 6 round trip (p = 3, seed 2024, trial 0)
    from 143.7 to 160.2 MB."""
    if not terms.shape[1]:
        return (), _NO_TERMS
    uniq, ids = _interned(mons)
    src, tgt, mon, coeff = terms
    key, coeff = summed((src * n_tgt + tgt) * len(uniq) + ids[mon], coeff, p)
    rest, mon = np.divmod(key, len(uniq))
    uniq, mon = _used_only(uniq, mon)
    return uniq, np.array([*np.divmod(rest, n_tgt), mon, coeff])


def signed(coeff, odd, p: int) -> np.ndarray:
    """Coefficients in [1, p), negated mod p where ``odd`` is 1, in int64 (p - 2 coeff wraps narrow)."""
    return coeff + odd * (p - 2 * coeff.astype(np.int64, copy=False))


def _degree_issues(algebra: AlgebraSpec, mons, terms, want, what: str) -> list[str]:
    """Entries (src, tgt) whose monomials differ in bidegree or whose
    bidegree is not ``want``, an (n, 2) array per term."""
    got = np.array([monomial_bidegree(algebra, m) for m in mons], dtype=np.int64).reshape(-1, 2).take(terms[2], axis=0)
    if (got == want).all():
        return []
    issues, rows = [], zip(terms[0].tolist(), terms[1].tolist(), map(tuple, got.tolist()), map(tuple, want.tolist()))
    for (k, l), entry in groupby(rows, key=lambda row: row[:2]):
        (_, _, deg, expected), *rest = entry
        other = [d for _, _, d, _ in rest if d != deg]
        if other:
            issues.append(f"{what} ({k},{l}): element is not homogeneous: {deg} vs {other[0]}")
        elif deg != expected:
            issues.append(f"{what} ({k},{l}) has bidegree {deg}, expected {expected}")
    return issues


def _products(A: AlgebraSpec, left, right, left_mons, right_mons):
    """The products left(k, l) right(l, m), joined on l, as arrays (k, m, mon, coeff)
    and the product monomials (exps, masks) that mon indexes; ``right`` is sorted by
    source, and the (exps, masks) arrays ``left_mons`` and ``right_mons`` are what
    each side's monomials index.  Each distinct pair of monomials is multiplied
    once, as arrays; coeff is 0 where the product vanishes.  A join of more than
    ``linalg.MAX_JOIN_PAIRS`` pairs is a ValueError."""
    i, j = sorted_join(left[1], right[0])
    n = len(right_mons[1])
    pairs, inv = np.unique(left[2][i] * n + right[2][j], return_inverse=True)
    a, b = np.divmod(pairs, n)
    x, y = left_mons[1][a], right_mons[1][b]
    sign = wedge_sign(x, y, A.n_ext)
    return (left[0][i], right[1][j], inv, sign[inv] * left[3][i] * right[3][j]), (left_mons[0][a] + right_mons[0][b], x | y)


def _d_squared(A: AlgebraSpec, products, derived, n_tgt: int) -> list[tuple[int, int]]:
    """(k, m) for each source k whose d^2(e_k) is nonzero at some target e_m,
    m the least such.

    d^2(e_k) = sum over the terms e_kl of d(e_k) of (-1)^c e_kl d(e_l) +
    d_A(e_kl) e_l, c the cohomological degree of e_kl.  ``products`` are the
    (left, right, left_mons, right_mons) of ``_products`` whose sum is the
    first part, left's coefficients carrying the sign (-1)^c; ``derived`` is
    (terms, mons), the terms e_kl whose d_A is the second part.  Targets are
    below ``n_tgt``.  Product and d_A monomials are numbered by their byte
    keys (``byte_keys``), vanishing products dropped and the rest summed on
    (k, m, mon) by ``linalg.summed``."""
    parts, exps, masks = [], [], []
    for left, right, left_mons, right_mons in products:
        (k, m, mon, coeff), (e, x) = _products(A, left, right, left_mons, right_mons)
        parts.append((k, m, mon + sum(map(len, masks)), coeff))
        exps.append(e)
        masks.append(x)
    terms, mons = derived
    if A.has_differential:
        which, e, x, odd = d_A(A, *mons)
        t, n = sorted_join(terms[2], which)
        parts.append((terms[0][t], terms[1][t], n + sum(map(len, masks)), signed(terms[3][t], odd[n], A.p)))
        exps.append(e)
        masks.append(x)
    k, m, mon, coeff = (joined(rows) for rows in zip(*parts))
    live = coeff != 0
    if not live.any():
        return []
    uniq, ids = np.unique(byte_keys(joined(exps), joined(masks)), return_inverse=True)
    key, _ = summed(((k * n_tgt + m) * len(uniq) + ids[mon])[live], coeff[live], A.p)
    k, m = np.divmod(key // len(uniq), n_tgt)
    first = np.unique(k, return_index=True)[1]  # keys are sorted, so each k's least m comes first
    return list(zip(k[first].tolist(), m[first].tolist()))


class SemifreeDgModule:
    """Free generators of bidegrees ``gens`` and a differential as term arrays.

    ``terms`` is a (4, n) int64 array of rows (src, tgt, mon, coeff): d(e_src)
    has the term coeff * mons[mon] e_tgt, ``mons`` being the sorted tuple of
    the monomials used.  The arrays are canonical (sorted by (src, tgt, mon),
    one term per position, coeff in [1, p), every monomial used), so equal
    modules have equal arrays; the constructor takes them as given, and
    ``canonical`` and every producer emit them so.  ``terms`` and
    ``degs`` (``gens`` as a (rank, 2) array) are read-only
    (``flags.writeable`` is False) and shared between derived modules.
    """

    __slots__ = ("algebra", "degs", "mons", "terms", "_gens")

    def __init__(self, algebra: AlgebraSpec, gens, mons=(), terms=_NO_TERMS):
        self.algebra = algebra
        self.degs = np.asarray(gens, dtype=np.int64).reshape(-1, 2)
        self.degs.flags.writeable = terms.flags.writeable = False
        self.mons, self.terms = tuple(mons), terms
        self._gens = None

    @property
    def gens(self) -> tuple[Bidegree, ...]:
        """The generator bidegrees as a tuple of pairs, built on first read;
        code that runs per generator reads ``degs``."""
        if self._gens is None:
            self._gens = tuple(map(tuple, self.degs.tolist()))
        return self._gens

    @property
    def rank(self) -> int:
        return len(self.degs)

    def validate(self) -> list[str]:
        """All dg-module axioms; empty list means the module is valid.

        d^2 is checked by ``_d_squared`` on the module's own terms: for each
        failing k, the least m at which d^2(e_k) is nonzero is reported."""
        A, terms, (src, tgt, mon, coeff) = self.algebra, self.terms, self.terms
        want = self.degs.take(src, axis=0) - self.degs.take(tgt, axis=0) + ONE_SHIFT
        issues = _degree_issues(A, self.mons, terms, want, "entry")
        if issues or not len(src):
            return issues
        i, mons = self.degs[:, 0], monomial_arrays(self.mons, A.n_sym)
        left = src, tgt, mon, signed(coeff, (i[src] - i[tgt] + 1) & 1, A.p)
        return [f"d^2 != 0 from gen {k} to gen {m}" for k, m in _d_squared(A, [(left, terms, mons, mons)], (terms, mons), self.rank)]

    def shift(self, a: int, b: int) -> "SemifreeDgModule":
        """The shifted module M[a]<b>; generator (i, j) moves to (i-a, j+b):
        for odd a, entries between generators of cohomological degrees of
        different parity change sign."""
        src, tgt, mon, coeff = terms = self.terms
        if a & 1 and len(src):
            i = self.degs[:, 0]
            terms = np.array([src, tgt, mon, signed(coeff, (i[src] - i[tgt]) & 1, self.algebra.p)])
        return SemifreeDgModule(self.algebra, self.degs + (-a, b), self.mons, terms)

    def dualize(self) -> "SemifreeDgModule":
        """Hom into the free rank-one module, on the semifree presentation:
        the transpose, with sign (-1)^{c(c-1)/2} on an entry of cohomological
        degree c.  An involution on the nose: dualize(dualize(M)) == M.
        """
        src, tgt, mon, coeff = terms = self.terms
        if len(src):
            i = self.degs[:, 0]
            o = np.lexsort((mon, src, tgt))
            odd = (i[src] - i[tgt] + 1) >> 1 & 1  # c(c-1)/2 is odd iff c = 2, 3 mod 4
            terms = np.array([tgt[o], src[o], mon[o], signed(coeff, odd, self.algebra.p)[o]])
        return SemifreeDgModule(self.algebra, -self.degs, self.mons, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SemifreeDgModule)
            and self.algebra == other.algebra
            and self.degs.shape == other.degs.shape
            and (self.degs == other.degs).all()
            and self.mons == other.mons
            and self.terms.shape == other.terms.shape
            and (self.terms == other.terms).all()
        )

    def __repr__(self):
        return f"SemifreeDgModule({self.algebra.kind}, rank={self.rank}, gens={list(self.gens)})"


def free_module(algebra: AlgebraSpec, gens) -> SemifreeDgModule:
    return SemifreeDgModule(algebra, gens)


class DgMap:
    """Degree-(0, 0) chain map between semifree modules over one algebra, as
    canonical term arrays like SemifreeDgModule's: the image of source gen src
    has the term coeff * mons[mon] target gen tgt, of bidegree gens[src] - gens[tgt].
    ``validate`` checks the chain condition on every source generator, of
    ``lkd.counit`` and ``lkd.unit`` too (see there).
    """

    __slots__ = ("source", "target", "mons", "terms")

    def __init__(self, source: SemifreeDgModule, target: SemifreeDgModule, mons=(), terms=_NO_TERMS):
        if source.algebra != target.algebra:
            raise ValueError("chain map needs a common algebra")
        self.source = source
        self.target = target
        terms.flags.writeable = False
        self.mons, self.terms = tuple(mons), terms

    def validate(self) -> list[str]:
        """Chain-map and homogeneity checks.

        phi is a chain map exactly when d^2 of cone(phi) vanishes at the
        target's generators, so the chain condition is ``_d_squared`` on the
        cone's terms out of every source generator: phi's entries, through
        the target's rows, and those of source[1], through phi's entries,
        with d_A of phi's entries.  It joins the target's, phi's and the
        source's own term arrays and builds no cone (a term of source[1] from
        k to l carries the sign -(-1)^c of ``shift``, and the cone adds
        (-1)^c: -1 in all).  For each failing k, the least failing target
        generator m is reported.
        """
        A, S, T, phi = self.source.algebra, self.source, self.target, self.terms
        issues = _degree_issues(A, self.mons, phi, S.degs.take(phi[0], axis=0) - T.degs.take(phi[1], axis=0), "map entry")
        # the zero map is a chain map, and so is every map between free modules over an algebra without d_A
        if issues or not len(phi[0]) or not (len(S.terms[0]) or len(T.terms[0]) or A.has_differential):
            return issues
        src, tgt, mon, coeff = phi
        exps, masks = monomial_arrays(self.mons + T.mons + S.mons, A.n_sym)  # one table: phi's, T's and S's monomials
        a, b = len(self.mons), len(self.mons) + len(T.mons)
        mons, t_mons, s_mons = (exps[:a], masks[:a]), (exps[a:b], masks[a:b]), (exps[b:], masks[b:])
        products = []
        if len(T.terms[0]):  # cone degree c = (i_src - 1) - i_tgt + 1
            left = src, tgt, mon, signed(coeff, (S.degs[src, 0] - T.degs[tgt, 0]) & 1, A.p)
            products.append((left, T.terms, mons, t_mons))
        if len(S.terms[0]):
            products.append((S.terms, (src, tgt, mon, A.p - coeff), s_mons, mons))
        fails = _d_squared(A, products, (phi, mons), T.rank)
        return [f"chain condition fails from gen {k} to gen {m}" for k, m in fails]


def identity_map(module: SemifreeDgModule) -> DgMap:
    n = np.arange(module.rank)
    return DgMap(module, module, (module.algebra.one(),) if module.rank else (), np.array([n, n, 0 * n, 0 * n + 1]))


def cone(phi: DgMap) -> SemifreeDgModule:
    """Mapping cone target + source[1] with the standard differential; phi is
    not checked, and the cone is a dg-module only when it is valid.  Its terms
    are d_target's, phi's and those of source[1] (``shift``), moved to the
    cone's generators; a stable sort by source makes them canonical.  Each
    part is dropped once it is read."""
    S, T = phi.source, phi.target
    off, n_t = T.rank, len(T.mons)
    # each part's offsets (src, tgt, mon, coeff) added by one broadcast add
    terms = np.concatenate([T.terms, phi.terms + [[off], [0], [n_t], [0]], S.shift(1, 0).terms + [[off], [off], [n_t + len(phi.mons)], [0]]], axis=1)
    union, ids = _interned(T.mons + phi.mons + S.mons)
    terms[2] = ids[terms[2]]
    if phi.terms.shape[1] and S.terms.shape[1]:
        terms = terms.take(terms[0].argsort(kind="stable"), axis=1)
    return SemifreeDgModule(S.algebra, np.concatenate([T.degs, S.degs + (-1, 0)]), union, terms)


def _spans(A: AlgebraSpec, jlo: int, jhi: int, js):
    """The distinct monomial ranges [jlo - j, jhi - j] over the generator
    internal degrees ``js`` (an int64 array), each cut to the internal
    degrees monomials can have, and ``which``: per generator, the index of
    its range.

    Every generator has internal degree +-2, so monomial degrees are even,
    and ``degree_bounds`` cuts them; an empty range is (0, -2).  The
    ranges are worked out once per distinct internal degree, and degrees
    cut to one range share it, so equal ranges give one table and share
    cache entries.
    """
    lo, hi = degree_bounds(A)
    js = js.tolist()
    index, span_of = {}, {}
    for j in sorted(set(js)):
        a, b = max(jlo - j, lo), min(jhi - j, hi)
        a, b = a + (a & 1), b - (b & 1)
        span_of[j] = index.setdefault((a, b) if a <= b else (0, -2), len(index))
    return list(index), np.fromiter(map(span_of.__getitem__, js), np.int64, len(js))


def _d_blocks(module: SemifreeDgModule, spans, which):
    """The distinct blocks whose placed sum is d on the generators' tables,
    and the items (k, l, block, coeff) that place them (see ``_gather``):
    d(m e_k) = d_A(m) e_k + (-1)^{|m|} m sum of the terms of d(e_k).

    A term's block depends only on its group (span of k, span of l,
    monomial), so one block (``product_block``) is read per distinct group,
    and the d_A table once per span."""
    A, mons = module.algebra, module.mons
    found, items = [], module.terms
    if len(mons):
        k, l, u, c = items
        code = (which[k] * len(spans) + which[l]) * len(mons) + u
        groups = sorted(set(code.tolist()))
        for g in groups:
            (a, b), m = divmod(g // len(mons), len(spans)), g % len(mons)
            found.append(product_block(A, spans[a], spans[b], mons[m], False))
        items = k, l, np.array(groups, dtype=np.int64).searchsorted(code), c
    if A.has_differential:
        gens = np.arange(module.rank)
        items = np.concatenate([items, [gens, gens, len(found) + which, np.ones(module.rank, np.int64)]], axis=1)
        found += [derivation_block(A, r) for r in spans]
    return found, items


# Largest expansion basis Expansion will enumerate, counted before any
# monomial table is built.  The e = f = 6 round trip at p = 3, seed 2024,
# trials 0-3 expands at most 269,668 basis elements (one that
# ``lkd.functor_G`` reads; the run's cones are certified contractible and
# never expanded): a margin of 3.7.
MAX_EXPANSION_BASIS = 1_000_000


def _gather(blocks, items, offsets, p: int):
    """Sum over the items (k, l, b, coeff) of coeff times ``blocks[b]``
    taken from the table rows of generator k to those of generator l: three
    unmerged arrays src, dst (int64 positions in the concatenated tables;
    ``offsets`` holds each generator's first) and coeff mod p in the narrowest
    dtype of p, narrowed before src and dst are gathered.  Each item's block
    is expanded by one ``ranges`` gather, offsets and coefficient applied."""
    if not blocks:
        return _NO_TERMS[0], _NO_TERMS[1], np.zeros(0, np.min_scalar_type(p))
    k, l, b, c = items
    lens = [block.shape[1] for block in blocks]
    n = np.array(lens, dtype=np.int64)[b]
    at = ranges(np.cumsum([0, *lens[:-1]], dtype=np.int64)[b], n)
    entries = joined(blocks, axis=1)
    vals = entries[2].take(at)
    vals *= c.repeat(n)
    vals = (vals % p).astype(np.min_scalar_type(p))
    src, dst = entries[0].take(at), entries[1].take(at)
    del at
    src += offsets[k].repeat(n)
    dst += offsets[l].repeat(n)
    return src, dst, vals


class Expansion:
    """Bigraded basis of a semifree module on an internal-degree range.

    The basis at each bidegree is complete; truncation only discards whole
    generators outside [jlo, jhi] influence, so within the range the
    expansion computes honest cohomology.  Generator actions that would
    leave the range are projected away (a quotient in the raising
    direction, a submodule in the lowering one).

    ``basis`` lists (k, monomial) in generator order: generator by
    generator, each generator's table in table order (grouped by bidegree,
    each group sorted).  ``degs`` holds their bidegrees as an (n, 2) int64 array, and
    ``d`` is the differential as arrays (rows, cols, coeffs) sorted by (row,
    col), d(b_row) containing coeff * b_col.  Positions (d's, ``action``'s,
    ``_row``) are int32 and coeffs in [1, p) in the narrowest dtype of p;
    readers widen them before a key or a sign flip.

    Generators are held by index into the few distinct spans (``_spans``):
    each span's table is read once, and sizes, offsets, bidegrees and
    labels are gathered from the tables by index; d and each action read
    one ``product_block`` per distinct group, placed by ``_gather``.
    """

    __slots__ = ("module", "degs", "d", "_spans", "_which", "_tables", "_offsets", "_sizes", "_row")

    def __init__(self, module: SemifreeDgModule, jlo: int, jhi: int):
        self.module = module
        A = module.algebra
        spans, which = self._spans, self._which = _spans(A, jlo, jhi, module.degs[:, 1])
        sizes = [span_size(A, *r) for r in spans]
        if max(sizes, default=0) * len(which) > MAX_EXPANSION_BASIS:  # only then can the total be over
            total = sum(c * s for c, s in zip(np.bincount(which).tolist(), sizes))
            if total > MAX_EXPANSION_BASIS:
                most = max(sizes)
                k = min(which.tolist().index(s) for s, size in enumerate(sizes) if size == most)
                raise ValueError(
                    f"the expansion on internal degrees [{jlo}, {jhi}] has {total:,} basis elements, over the limit of "
                    f"{MAX_EXPANSION_BASIS:,}; generator {k} alone spans monomial degrees {list(spans[which[k]])} with {most:,} monomials"
                )
        tables = [table(A, *r) for r in spans]
        # the generators' tables concatenated in generator order: per generator
        # its first position and size, per position its row in the spans' tables
        n = self._sizes = np.array(sizes, dtype=np.int64)[which]
        self._offsets = n.cumsum() - n
        row = ranges(np.cumsum([0, *sizes[:-1]], dtype=np.int64)[which], n)
        self.degs = joined([t.degs for t in tables] or [_NO_DEGS]).take(row, axis=0) + module.degs.repeat(n, axis=0)
        self._tables, self._row = tables, row.astype(np.int32)
        del row  # only the int32 rows stay
        self.d = self._assemble(*_d_blocks(module, spans, which))

    def __len__(self):
        return len(self.degs)

    @property
    def basis(self) -> list:
        """The basis as (k, monomial) pairs."""
        gen, mons, mon = self.labels()
        return list(zip(gen.tolist(), map(mons.__getitem__, mon.tolist())))

    def labels(self):
        """Each basis element's generator and monomial: arrays (gen, mon)
        in basis order and the sorted tuple ``mons`` that mon indexes."""
        mons, ids = _interned([mon for t in self._tables for mon in t.mons])
        return np.arange(self.module.rank).repeat(self._sizes), mons, ids.take(self._row)

    def _assemble(self, blocks, items):
        """The placed sum of the blocks (see ``_gather``), merged and sorted
        by (row, col): one int64 key (src << 32) | dst in src's buffer."""
        p = self.module.algebra.p
        src, dst, vals = _gather(blocks, items, self._offsets, p)
        if not len(src):
            return (*_NO_POSITIONS, vals)
        key = np.left_shift(src, 32, out=src)
        key |= dst
        del src, dst
        key, vals = summed(key, vals, p)
        words = key.view(np.int32).reshape(-1, 2)  # each key's low and high word, in memory order
        return words[:, int(np.little_endian)], words[:, 1 - int(np.little_endian)], vals

    def action(self, is_ext: bool, g: int):
        """Left action of one algebra generator as (rows, cols, coeffs),
        sorted by row; images outside the range are dropped.  One block per
        distinct span, placed for the generators in order, each block by
        source row: a basis element has at most one image, so the entries
        come sorted by row and distinct, and need no sort or merge."""
        A = self.module.algebra
        mon = A.gen_monomial(is_ext, g)
        gens = np.arange(self.module.rank)
        found = [product_block(A, r, r, mon, True) for r in self._spans]
        src, dst, vals = _gather(found, (gens, gens, self._which, np.ones(len(gens), np.int64)), self._offsets, A.p)
        return src.astype(np.int32), dst.astype(np.int32), vals


def _column_cohomology(degs: np.ndarray, d, window: Window, p: int) -> BigradedDims:
    """Exact cohomology on the window from basis bidegrees and a differential.

    degs: (n, 2) array of basis bidegrees in any order, complete per column;
    d: arrays (rows, cols, coeffs) with distinct (row, col) pairs, in any
    order, of any integer dtypes; entries not of bidegree (1, 0) are ignored.

    h^{i,j} = dim C^{i,j} - rank(C^{i,j} -> C^{i+1,j}) - rank(C^{i-1,j} -> C^{i,j}),
    so the only ranks taken are those of the maps out of bidegrees (i, j)
    with i0 - 1 <= i <= i1 and j0 <= j <= j1, each of the whole map between
    two complete cells, so every reported h is exact.  The maps never share
    a row or a column, so one ``structural_pivots`` pass over all of their
    entries that are nonzero mod p (sorted by row first, unless they come
    so) serves every map; a pivot counts toward the rank of the map out of
    its row's cell and into its column's.  What is left is ranked by
    ``_cores``, one dense block per distinct connected component, at its
    echelon form; ValueError when a block would take more than
    MAX_RANK_CELLS * 8 bytes, before any block is allocated.  A cell's h is
    then the sum over its elements of 1 less the ranks met in their rows
    and columns, a cell being a run of one bidegree code once the basis is
    sorted by code."""
    if not len(degs):
        return BigradedDims()
    i, j = degs[:, 0], degs[:, 1]
    code = i << 32 | j & 0xFFFFFFFF  # one int per bidegree
    ranked = np.zeros(len(degs), np.int64)  # per basis element: the ranks met in its row and in its column
    rows, cols, vals = d
    if len(rows):  # the rows of the maps ranked, then their entries of bidegree (1, 0)
        live = ((window.i0 - 1 <= i) & (i <= window.i1) & (window.j0 <= j) & (j <= window.j1))[rows] & (vals % p != 0)
        live &= code[cols] == (code + (1 << 32))[rows]
        rows, cols, vals = rows[live].astype(np.intp), cols[live].astype(np.intp), vals[live]  # int32 indices are cast at each use
        if (rows[1:] < rows[:-1]).any():
            by_row = rows.argsort(kind="stable")
            rows, cols, vals = rows[by_row], cols[by_row], vals[by_row]
    if len(rows):
        pivot_rows, pivot_cols, left = structural_pivots(rows, cols, len(degs))
        ranked += pivot_rows
        ranked += pivot_cols
        if len(left):
            _cores(degs, rows[left], cols[left], vals[left], p, ranked)
    order = code.argsort()
    code = code[order]
    starts = [0, *((code[1:] != code[:-1]).nonzero()[0] + 1).tolist()]  # cells: runs of one code
    out = BigradedDims()
    for bd, h in zip(degs[order[starts]].tolist(), np.add.reduceat(1 - ranked[order], starts).tolist()):
        if h and window.contains(bd):
            out[bd] = h
    return out


def _cores(degs, rows, cols, vals, p: int, ranked):
    """Rank what structural pivots left one connected component at a time
    (a basis element's row and column are distinct nodes, so a component
    lies in one map) and add its rank at its first row and first column.
    A block's rows are in basis order and its columns sparsest first, ties
    in basis order: ``echelon`` pivots each row on its least column, and
    sparse pivot columns fill in little, whatever order the basis is in.
    A component is keyed by shape, its entries' positions in its block and
    their values mod p; each distinct key is ranked once, as a dense block
    in the narrowest unsigned dtype that holds p.  ValueError when a block
    would take more than MAX_RANK_CELLS * 8 bytes (the int64 entries that
    bound was sized for), before any block is allocated."""
    core_rows, r = np.unique(rows, return_inverse=True)
    core_cols, c = np.unique(cols, return_inverse=True)
    by_count = np.bincount(c).argsort(kind="stable")  # the columns, sparsest first
    core_cols, c = core_cols[by_count], by_count.argsort()[c]
    comp = components(r, c + len(core_rows))  # rows are nodes 0, 1, ..., and columns follow
    order, size = comp.argsort(kind="stable"), np.bincount(comp)
    start, nr = size.cumsum() - size, np.bincount(comp[: len(core_rows)])
    local = np.empty_like(order)  # a row's number in its component, and a column's after its rows
    local[order] = np.arange(len(comp)) - start.repeat(size)
    k, nc, dtype = comp[r], size - nr, np.min_scalar_type(p)
    big = (nr * nc).argmax()
    size, limit = nr[big] * nc[big] * dtype.itemsize, MAX_RANK_CELLS * 8
    if size > limit:
        raise ValueError(
            f"the map out of bidegree {tuple(degs[core_rows[order[start[big]]]].tolist())} has a connected {nr[big]} x {nc[big]} "
            f"component ({size:,} bytes as {dtype}), over the limit of {limit:,} bytes"
        )
    flat = local[r] * nc[k] + local[c + len(core_rows)] - nr[k]  # position in the component's block
    at = np.lexsort((flat, k))  # by component, then position
    flat, vals, ends = flat[at], (vals[at] % p).astype(dtype), np.bincount(k).cumsum().tolist()
    ranks, seen = [], {}
    for a, b, m, n in zip([0, *ends], ends, nr.tolist(), nc.tolist()):
        key = (m, n, flat[a:b].tobytes(), vals[a:b].tobytes())
        if key not in seen:
            block = np.zeros((m, n), dtype=dtype)
            block.ravel()[flat[a:b]] = vals[a:b]
            seen[key] = mat_rank(block, p)
        ranks.append(seen[key])
    ranked[core_rows[order[start]]] += ranks
    ranked[core_cols[order[start + nr] - len(core_rows)]] += ranks


def cohomology(module: SemifreeDgModule, window: Window) -> BigradedDims:
    """Bigraded cohomology dimensions of a semifree module on a window,
    exact: the expansion holds every cohomological degree of each
    internal-degree column in [j0, j1] (see ``_column_cohomology``).

    A contractible module is certified before any expansion is built, from
    k (x)_A M: the complex over k on M's generators whose differential d'
    is M's terms with monomial 1 (the first of the sorted ``mons``), the
    terms between generators of equal internal degree.  When d' is acyclic
    on the hull of the generators, the table is empty on every window.

    The lemma (Gaussian elimination for complexes over an additive
    category): a unit entry c e_l of d(e_k), c a nonzero scalar, is an
    isomorphism A e_k -> A e_l, so the pair e_k, e_l cancels and leaves a
    semifree module homotopy equivalent to M on the other generators,
    whose unit part is d' with that pivot eliminated.  Acyclic d' lets
    the elimination cancel every generator in pairs, ending at 0, so M is
    homotopy equivalent to 0 and its cohomology is zero in every
    bidegree.  It needs M finitely generated, d^2 = 0 (``validate``; of
    d' too, since only 1 * 1 is 1), and each unit entry a scalar, which
    holds because only the monomial 1 has bidegree (0, 0).  It is applied
    only over algebras without d_A; a module with no unit term has d' = 0
    and is not certified."""
    A, mons, terms = module.algebra, module.mons, module.terms
    if mons and mons[0] == A.one() and not A.has_differential:
        src, tgt, _, coeff = terms.compress(terms[2] == 0, axis=1)
        if not _column_cohomology(module.degs, (src, tgt, coeff), Window.hull(module.degs), A.p):
            return BigradedDims()
    exp = Expansion(module, window.j0, window.j1)
    return _column_cohomology(exp.degs, exp.d, window, A.p)


def _kept(mons, terms, src_keep, tgt_keep):
    """The canonical ``(mons, terms)`` of the terms from generators where
    ``src_keep`` to generators where ``tgt_keep`` (boolean masks), both
    renumbered in order, with the monomials still used: every renumbering
    is monotone, so the terms stay sorted."""
    src, tgt, mon, coeff = terms.compress(src_keep[terms[0]] & tgt_keep[terms[1]], axis=1)
    mons, mon = _used_only(mons, mon)
    return mons, np.array([(src_keep.cumsum() - 1)[src], (tgt_keep.cumsum() - 1)[tgt], mon, coeff])


def _on_range(phi: DgMap, jlo: int, jhi: int) -> DgMap:
    """phi between the generators of its source and of its target that have
    a table on the internal degrees [jlo, jhi], the only ones an expansion
    on that range holds; the cone's [1] keeps internal degrees, so the
    expansion of its cone on the range is that of cone(phi), and the cone
    holds only those generators' terms.  phi itself when it keeps them all.

    The kept generators are convex for d: when d(e_k) has a term m e_l and
    d(e_l) a term m' e_m, with k and m kept, l is kept too, so the cut
    cone's d^2 is cone(phi)'s on the kept generators and the cut cone of a
    chain map is a dg-module (a subquotient of cone(phi)).  With x in k's
    table, deg x + deg m lies in l's range of degrees.  Monomial degrees
    (``degree_bounds``) are either unbounded on the side deg m moves to,
    and then deg x + deg m is one of them, or, with no sym generators, lie
    in [0, 2 n_ext]: then l's range holds deg x + deg m when that is at
    most 2 n_ext, else deg z - deg m' (z in m's table) when that is at
    least 0, and else all of [0, 2 n_ext]."""
    S, T = phi.source, phi.target
    spans, which = _spans(S.algebra, jlo, jhi, np.concatenate([S.degs[:, 1], T.degs[:, 1]]))
    keep = np.array([a <= b for a, b in spans])[which]
    if keep.all():
        return phi
    ks, kt = keep[: S.rank], keep[S.rank :]
    S, T = (M if k.all() else SemifreeDgModule(M.algebra, M.degs[k], *_kept(M.mons, M.terms, k, k)) for M, k in ((S, ks), (T, kt)))
    return DgMap(S, T, *_kept(phi.mons, phi.terms, ks, kt))


def is_quasi_iso(phi: DgMap, window: Window) -> bool:
    """True when phi passes ``DgMap.validate`` and cone(phi) has no
    cohomology anywhere on the window.  The check builds no cone, and the
    one cone is built only for a chain map, on the generators the window's
    internal degrees reach (``_on_range``): the cone holds no second copy
    of the target's terms outside them.  That cut cone is a dg-module, so
    ``cohomology`` certifies it from k (x)_A M when it is contractible, as
    most round-trip cones are, and expands it otherwise."""
    return not phi.validate() and not cohomology(cone(_on_range(phi, window.j0, window.j1)), window)


class FiniteDgModule:
    """A bigraded complex with finite basis: basis bidegrees and d.

    ``basis_degs`` is an (n, 2) int64 array of basis bidegrees, and d is
    term arrays (rows, cols, vals) like ``Expansion.d`` (narrow from one):
    d(b_row) contains vals * b_col, of bidegree (1, 0), with distinct (row,
    col) pairs and values in [1, p); the basis and d may come in any order,
    as ``_column_cohomology`` takes them.  The constructor takes d as
    given; the generator actions are not held: the tables read only d.
    """

    __slots__ = ("algebra", "basis_degs", "d")

    def __init__(self, algebra: AlgebraSpec, basis_degs, d=_NO_TERMS[:3]):
        degs = np.asarray(basis_degs, dtype=np.int64) if len(basis_degs) else _NO_DEGS
        if degs.ndim != 2 or degs.shape[1] != 2:
            raise ValueError(f"basis degrees must be (i, j) pairs, got shape {degs.shape}")
        self.algebra = algebra
        self.basis_degs = degs
        self.d = d

    def cohomology(self, window: Window) -> BigradedDims:
        """Cohomology on the window (``_column_cohomology``, on the basis and d as held)."""
        return _column_cohomology(self.basis_degs, self.d, window, self.algebra.p)

    def shift(self, a: int, b: int) -> "FiniteDgModule":
        """[a]<b>: d picks up (-1)^a."""
        rows, cols, vals = d = self.d
        if a & 1:
            d = rows, cols, self.algebra.p - vals
        return FiniteDgModule(self.algebra, self.basis_degs + (-a, b), d)


def expansion_to_finite(exp: Expansion) -> FiniteDgModule:
    """An expansion as a finite module: its bidegrees and ``Expansion.d``."""
    return FiniteDgModule(exp.module.algebra, exp.degs, exp.d)


def serialize_module(module: SemifreeDgModule) -> str:
    """Deterministic JSON for a semifree module."""
    entries = []
    for k, l, u, c in zip(*module.terms.tolist()):
        if not entries or entries[-1][:2] != [k, l]:
            entries.append([k, l, []])
        exps, mask = module.mons[u]
        entries[-1][2].append([c, list(exps), mask])
    algebra = {x: getattr(module.algebra, x) for x in ("kind", "e", "f", "p")}
    doc = {"schema": 1, "algebra": algebra, "gens": [list(g) for g in module.gens], "diff": entries}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# Bound on the generator degrees (absolute value) and exponents of a module
# file: bidegrees are int64 sums of a few of them and of window margins, and
# _column_cohomology packs a bidegree into one int64, i above 32 bits of j.
MAX_DEGREE = 1 << 30

# Bound on the length of a module document, in characters (its bytes, when
# ASCII as ``serialize_module`` writes it), checked before ``json.loads``.
# Parsing adds about 29 bytes per character to the process's peak: dense
# files of unit terms peak at 285 MB (8.7 MB, 360,000 terms) and 517 MB
# (16.7 MB, 678,976 terms, just under the bound).  ``canonical``'s int64
# key (gens^2 * monomials) fits at the bound too, each generator taking at
# least 6 characters and each monomial 9.
MAX_DOCUMENT = 1 << 24


def _check_int(value, what: str, lo=None, hi=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        raise ValueError(f"{what} {value} is out of range")
    return value


def _check_list(value, what: str, n: int | None = None) -> list:
    if not isinstance(value, list) or (n is not None and len(value) != n):
        raise ValueError(f"{what} must be a list{'' if n is None else f' of {n}'}, got {reprlib.repr(value)}")
    return value


def deserialize_module(text: str) -> SemifreeDgModule:
    """Parse and validate the JSON of ``serialize_module``; a ValueError that
    names what is wrong on any malformed or invalid input, a document longer
    than ``MAX_DOCUMENT``, too deep a nesting, a missing or mistyped member,
    a repeated entry and a monomial repeated within one entry (neither is
    summed nor overwritten) included.  The terms are collected flat, with
    coefficients reduced mod p and zero ones dropped, and made canonical by
    ``canonical``."""
    if len(text) > MAX_DOCUMENT:
        raise ValueError(f"the document is longer than {MAX_DOCUMENT:,} characters")
    try:
        doc = json.loads(text)
    except RecursionError:  # json.loads recurses once per nested array or object
        raise ValueError("the document is nested too deeply") from None
    if not isinstance(doc, dict) or type(doc.get("schema")) is not int or doc["schema"] != 1:
        raise ValueError("not a module document of schema 1")
    a = doc.get("algebra")
    if not isinstance(a, dict) or not a.keys() >= {"kind", "e", "f", "p"}:
        raise ValueError(f"algebra must be an object with kind, e, f and p, got {reprlib.repr(a)}")
    algebra = make_algebra(a["kind"], *(_check_int(a[x], x) for x in "efp"))
    bidegrees = (_check_list(g, "generator bidegree", 2) for g in _check_list(doc.get("gens"), "gens"))
    gens = [tuple(_check_int(x, "generator degree", -MAX_DEGREE, MAX_DEGREE) for x in g) for g in bidegrees]
    p, seen, ids, rows = algebra.p, set(), {}, []
    for k, l, terms in (_check_list(entry, "diff entry", 3) for entry in _check_list(doc.get("diff"), "diff")):
        _check_int(k, "generator index", 0, len(gens))
        _check_int(l, "generator index", 0, len(gens))
        if (k, l) in seen:
            raise ValueError(f"entry [{k}, {l}] is repeated")
        seen.add((k, l))
        entry = set()
        for c, exps, mask in (_check_list(term, "term", 3) for term in _check_list(terms, "terms")):
            _check_int(c, "coefficient")
            exps = _check_list(exps, "exponent vector", algebra.n_sym)
            mon = (tuple(_check_int(x, "exponent", 0, MAX_DEGREE) for x in exps), _check_int(mask, "ext mask", 0, 1 << algebra.n_ext))
            if mon in entry:
                raise ValueError(f"entry [{k}, {l}] repeats the monomial with exponents {list(mon[0])} and ext mask {mon[1]}")
            entry.add(mon)
            if c % p:
                rows += k, l, ids.setdefault(mon, len(ids)), c % p
    terms = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    mod = SemifreeDgModule(algebra, gens, *canonical(list(ids), terms, len(gens), p))
    issues = mod.validate()
    if issues:
        raise ValueError("invalid module: " + "; ".join(issues))
    return mod
