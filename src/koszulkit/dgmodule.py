"""Semifree dg-modules, chain maps, cones, expansion and exact cohomology.

A semifree module is a finite list of free generator bidegrees over one of
the algebras of ``algebra`` and a differential held as sorted term arrays:
the term (k, l, mon, c) says that d(e_k) contains c * mon * e_l, of
bidegree gens[k] - gens[l] + (1, 0).  Chain maps are held the same way.
Monomials are interned per object, so monomial algebra (bidegrees,
products, signs, d_A) runs on the few distinct monomials and is gathered
by index; checks, shifts, duals and cones are array operations.

One array kernel does all monomial arithmetic: ``_arrays`` holds
monomials as exponent rows and int64 ext masks, a product adds exponents
and ors masks (overlapping masks vanish), its wedge sign is the parity
(``_parity``) of one mask under the other's weight mask (``_weights``),
and ``_d_A`` applies the algebra differential.  One routine,
``_d_squared``, checks d^2 = 0: it multiplies each distinct pair of
monomials once, numbers the products by their byte keys (``_keys``) and
reports the least failing target of each failing generator.  A module's
validate() runs it on the module's terms, and a chain map's on its cone,
which is a dg-module exactly when the map is a chain map; a map carries its
own cutoff, and ``is_quasi_iso`` runs that check and cohomology on one
cone.  The block builders of expansions run the same helpers on whole tables.

Sign conventions, fixed project-wide and enforced by validate():

* differentials act from the left: d(a e) = d(a) e + (-1)^{|a|} a d(e);
* shifting by [1] multiplies a term from e_k to e_l by -(-1)^c where
  c = i_k - i_l + 1 is its cohomological degree;
* dualizing (Hom into the free rank-one module) negates generator
  bidegrees and transposes the terms with the sign (-1)^{c(c-1)/2}, which
  makes double dualization the identity on the presentation.

Expansions are assembled by one kernel from cached integer tables: for
each (algebra, internal-degree span) the monomials are numbered once and
held as arrays (exponents, ext masks, sorted byte keys), and the block
table of a monomial says where it times every monomial of the span lands,
with its sign.  Blocks are products of the kernel above, and a
``searchsorted`` on the target's keys finds each row; every block one
differential or one action is missing is built in one batch.  A module's
generators are held by index into its few distinct spans, so tables,
sizes and bidegrees are read once per span and gathered by index; the
terms of d fall into few distinct (span, span, monomial) groups, and each
group's block is built or looked up once and placed for all of its terms
by one repeat/arange gather.  Only ``Expansion`` and its helpers cut, lay
out and gather spans: cohomology, the functors of ``lkd``, finite
expansions and the restrictions of scalars of ``qmodel`` read its labels
and differential.  Cohomology is exact: each internal-degree column of an
expansion is complete, and the ranks a window's h^{i,j} need are those
of maps between whole cells: structural pivots first, over every map at
once, then one dense core per map.

Finite dg-modules (``FiniteDgModule``) hold basis bidegrees and d as term
arrays (rows, cols, vals) like ``Expansion``'s, row = source: shifts and
duals are index swaps and sign flips.  They hold no generator actions: the
cohomology tables they are compared on read only d.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb, inf
from typing import NamedTuple

import numpy as np

from . import algebra as alg_mod
from .algebra import CACHE_SIZE, AlgebraSpec, make_algebra, monomial_bidegree
from .bigraded import Bidegree, BigradedDims, Window
from .linalg import MAX_RANK_CELLS, rank as mat_rank, sorted_join, structural_pivots

ONE_SHIFT = (1, 0)  # bidegree of every differential

_NO_TERMS = np.zeros((4, 0), dtype=np.int64)
_NO_TERMS.flags.writeable = False
_NO_DEGS = _NO_TERMS[:2].T  # (0, 2): the bidegrees of no basis elements


def _summed(key, vals, p: int):
    """``key`` sorted, the values of equal keys summed mod p and the sums
    that vanish dropped; ``vals`` must be nonzero mod p.  Sums mod p do not
    depend on the order of their terms, so the sort need not be stable."""
    order = key.argsort()
    key, vals = key[order], vals[order] % p
    repeat = key[1:] == key[:-1]
    if np.count_nonzero(repeat):
        first = np.concatenate(([0], (~repeat).nonzero()[0] + 1))
        key, vals = key[first], np.add.reduceat(vals, first) % p
        nonzero = vals != 0
        key, vals = key[nonzero], vals[nonzero]
    return key, vals


def _interned(mons):
    """The distinct ``mons`` as a sorted tuple, and each one's position in it (int64)."""
    pos = {mon: u for u, mon in enumerate(sorted(set(mons)))}
    return tuple(pos), np.fromiter(map(pos.__getitem__, mons), np.int64, len(mons))


def _canonical(mons, terms, n_tgt: int, p: int):
    """Canonical ``(mons, terms)`` from terms (src, tgt, mon, coeff), coeff
    nonzero mod p, over monomials ``mons`` in any order and not all used:
    equal positions are summed mod p and vanishing sums dropped."""
    if not terms.shape[1]:
        return (), _NO_TERMS
    uniq, ids = _interned(mons)
    src, tgt, mon, coeff = terms
    key, coeff = _summed((src * n_tgt + tgt) * len(uniq) + ids[mon], coeff, p)
    rest, mon = np.divmod(key, len(uniq))
    used = np.bincount(mon, minlength=len(uniq)) != 0
    if not used.all():
        mon = (used.cumsum() - 1)[mon]
        uniq = [m for m, u in zip(uniq, used.tolist()) if u]
    return tuple(uniq), np.array([*np.divmod(rest, n_tgt), mon, coeff])


def nested_terms(algebra: AlgebraSpec, nested) -> tuple:
    """Canonical ``(mons, terms)`` from nested dicts {src: {tgt: {monomial:
    coeff}}}, a monomial being (exps, mask): the one conversion from dict
    input, for parsed files, sampled entries and tests."""
    p, rows = algebra.p, nested.items()
    terms = sorted((k, l, (tuple(e), mask), c % p) for k, r in rows for l, x in r.items() for (e, mask), c in x.items() if c % p)
    mons, ids = _interned([mon for _, _, mon, _ in terms])
    return mons, np.array([(k, l, u, c) for (k, l, _, c), u in zip(terms, ids.tolist())], dtype=np.int64).reshape(-1, 4).T.copy()


def _signed(coeff, odd, p: int) -> np.ndarray:
    """Coefficients in [1, p), negated mod p where ``odd`` is 1."""
    return coeff + odd * (p - 2 * coeff)


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


def _products(A: AlgebraSpec, left, right, mons):
    """The products left(k, l) right(l, m), joined on l, as arrays (k, m, mon, coeff)
    and the product monomials (exps, masks) that mon indexes; ``right`` is sorted by
    source and ``mons`` are the (exps, masks) arrays both sides' monomials index.
    Each distinct pair of monomials is multiplied once, as arrays; coeff is 0 where
    the product vanishes."""
    i, j = sorted_join(left[1], right[0])
    pairs, inv = np.unique(left[2][i] * len(mons[1]) + right[2][j], return_inverse=True)
    a, b = np.divmod(pairs, len(mons[1]))
    x, y = mons[1][a], mons[1][b]
    sign = (1 - 2 * _parity(y & _weights(x, A.n_ext, True), A.n_ext)) * ((x & y) == 0)
    return (left[0][i], right[1][j], inv, sign[inv] * left[3][i] * right[3][j]), (mons[0][a] + mons[0][b], x | y)


def _d_squared(module: "SemifreeDgModule", left, right, n_tgt: int) -> list[tuple[int, int]]:
    """(k, m) for each k whose d^2(e_k) is nonzero at some e_m with m < n_tgt,
    m the least such.  d^2(e_k) = sum over the terms e_kl of ``left`` of
    (-1)^c e_kl d(e_l) + d_A(e_kl) e_l, c the cohomological degree of e_kl,
    with d(e_l) read from the terms of ``right`` (sorted by source); both are
    term arrays of ``module``.  Product and d_A monomials are numbered by their
    byte keys (``_keys``), vanishing products dropped and the rest summed on
    (k, m, mon) by ``_summed``."""
    A, i = module.algebra, module.degs[:, 0]
    mons = _arrays(module.mons, A.n_sym)
    signed = np.array([*left[:3], _signed(left[3], (i[left[0]] - i[left[1]] + 1) & 1, A.p)])
    (k, m, mon, coeff), (exps, masks) = _products(A, signed, right, mons)
    if A.has_differential:
        which, d_exps, d_masks, odd = _d_A(A, *mons)
        t, n = sorted_join(left[2], which)
        d_terms = left[0][t], left[1][t], n + len(masks), _signed(left[3][t], odd[n], A.p)
        k, m, mon, coeff = np.concatenate([[k, m, mon, coeff], d_terms], axis=1)
        exps, masks = np.concatenate([exps, d_exps]), np.concatenate([masks, d_masks])
    live = (coeff != 0) & (m < n_tgt)
    if not live.any():
        return []
    uniq, ids = np.unique(_keys(exps, masks), return_inverse=True)
    key, _ = _summed(((k * n_tgt + m) * len(uniq) + ids[mon])[live], coeff[live], A.p)
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
    ``nested_terms`` and every producer emit them so.  ``terms`` and
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
        A, terms, src, tgt = self.algebra, self.terms, *self.terms[:2]
        want = self.degs.take(src, axis=0) - self.degs.take(tgt, axis=0) + ONE_SHIFT
        issues = _degree_issues(A, self.mons, terms, want, "entry")
        if issues or not len(src):
            return issues
        return [f"d^2 != 0 from gen {k} to gen {m}" for k, m in _d_squared(self, terms, terms, self.rank)]

    def shift(self, a: int, b: int) -> "SemifreeDgModule":
        """The shifted module M[a]<b>; generator (i, j) moves to (i-a, j+b):
        for odd a, entries between generators of cohomological degrees of
        different parity change sign."""
        src, tgt, mon, coeff = terms = self.terms
        if a & 1 and len(src):
            i = self.degs[:, 0]
            terms = np.array([src, tgt, mon, _signed(coeff, (i[src] - i[tgt]) & 1, self.algebra.p)])
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
            terms = np.array([tgt[o], src[o], mon[o], _signed(coeff, odd, self.algebra.p)[o]])
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
    Source generators of internal degree below the map's own cutoff
    ``min_internal`` are exempt from the chain condition (``lkd.counit``, ``lkd.unit``).
    """

    __slots__ = ("source", "target", "mons", "terms", "min_internal")

    def __init__(self, source: SemifreeDgModule, target: SemifreeDgModule, mons=(), terms=_NO_TERMS, min_internal: int | None = None):
        if source.algebra != target.algebra:
            raise ValueError("chain map needs a common algebra")
        self.source = source
        self.target = target
        terms.flags.writeable = False
        self.mons, self.terms, self.min_internal = tuple(mons), terms, min_internal

    def validate(self) -> list[str]:
        """Chain-map and homogeneity checks.

        phi is a chain map exactly when d^2 of cone(phi) vanishes at the
        target's generators, so the chain condition is ``_d_squared`` on the
        cone: its terms out of the source generators not below ``min_internal``,
        through the target's rows and phi's entries, at targets below
        ``target.rank``.  For each failing k, the least failing target
        generator m is reported.
        """
        return self._checked(False)[0]

    def _checked(self, want_cone: bool):
        """validate()'s issues, and cone(self) if the check or ``want_cone`` needs it, else None."""
        A, S, T, phi = self.source.algebra, self.source, self.target, self.terms
        issues = _degree_issues(A, self.mons, phi, S.degs.take(phi[0], axis=0) - T.degs.take(phi[1], axis=0), "map entry")
        # the zero map is a chain map, and so is every map between free modules over an algebra without d_A
        free = not len(phi[0]) or not (len(S.terms[0]) or len(T.terms[0]) or A.has_differential)
        c = None if issues or (free and not want_cone) else cone(self)
        if issues or free:
            return issues, c
        left = c.terms[:, T.terms.shape[1] :]  # the cone's terms are sorted by source, the target's first
        if self.min_internal is not None:
            left = left.compress(c.degs[left[0], 1] >= self.min_internal, axis=1)
        right = c.terms.compress(c.terms[1] < T.rank, axis=1)
        return [f"chain condition fails from gen {k - T.rank} to gen {m}" for k, m in _d_squared(c, left, right, T.rank)], c


def identity_map(module: SemifreeDgModule) -> DgMap:
    n = np.arange(module.rank)
    return DgMap(module, module, (module.algebra.one(),) if module.rank else (), np.array([n, n, 0 * n, 0 * n + 1]))


def cone(phi: DgMap) -> SemifreeDgModule:
    """Mapping cone target + source[1] with the standard differential; phi is
    not checked, and the cone is a dg-module only when it is valid.  Its terms
    are d_target's, phi's and those of source[1] (``shift``), moved to the
    cone's generators; a stable sort by source makes them canonical."""
    S, T = phi.source, phi.target
    off, S1, n_t = T.rank, S.shift(1, 0), len(T.mons)
    # each part's offsets (src, tgt, mon, coeff) added by one broadcast add
    terms = np.concatenate([T.terms, phi.terms + [[off], [0], [n_t], [0]], S1.terms + [[off], [off], [n_t + len(phi.mons)], [0]]], axis=1)
    union, ids = _interned(T.mons + phi.mons + S.mons)
    terms[2] = ids[terms[2]]
    if phi.terms.shape[1] and S1.terms.shape[1]:
        terms = terms.take(terms[0].argsort(kind="stable"), axis=1)
    return SemifreeDgModule(S.algebra, np.concatenate([T.degs, S1.degs]), union, terms)


def _spans(A: AlgebraSpec, jlo: int, jhi: int, js):
    """The distinct monomial ranges [jlo - j, jhi - j] over the generator
    internal degrees ``js`` (an int64 array), each cut to the internal
    degrees monomials can have, and ``which``: per generator, the index of
    its range.

    Every generator has internal degree +-2, so monomial degrees are even;
    sym generators of negative degree (S, R) bound them above by 0, all
    others bound them below by 0, and the exterior part alone by 2 n_ext;
    an empty range is (0, -2).  The ranges are worked out once per distinct
    internal degree, and degrees cut to one range share it, so equal
    ranges give one table and share cache entries.
    """
    lo, hi = (0, 2 * A.n_ext) if not A.n_sym else (-inf, 0) if A.sym_deg[1] < 0 else (0, inf)
    js = js.tolist()
    index, span_of = {}, {}
    for j in sorted(set(js)):
        a, b = max(jlo - j, lo), min(jhi - j, hi)
        a, b = a + (a & 1), b - (b & 1)
        span_of[j] = index.setdefault((a, b) if a <= b else (0, -2), len(index))
    return list(index), np.fromiter(map(span_of.__getitem__, js), np.int64, len(js))



@lru_cache(maxsize=CACHE_SIZE)
def _span_size(key, jlo: int, jhi: int) -> int:
    """The number of monomials of internal degree in [jlo, jhi], in closed
    form: for m ext generators, C(n_ext, m) masks times the sym monomials of
    the total degrees t0 <= t <= t1 left over, C(t1 + n, n) - C(t0 - 1 + n, n)."""
    A = AlgebraSpec(*key)
    n, total = A.n_sym, 0
    for m in range(A.n_ext + 1):
        lo, hi = jlo - 2 * m, jhi - 2 * m  # left for the sym part; ext generators have internal degree 2
        lo, hi = (-hi, -lo) if A.sym_deg[1] < 0 else (lo, hi)
        t0, t1 = max(0, -(-lo // 2)), hi // 2 if n else min(hi // 2, 0)  # sym generators have degree +-2
        if t0 <= t1:
            total += comb(A.n_ext, m) * (comb(t1 + n, n) - (comb(t0 - 1 + n, n) if t0 else 0))
    return total


class _Table(NamedTuple):
    """The monomials of one (algebra, internal-degree span) in the order of
    ``monomials_by_internal``, and the same as read-only arrays: bidegrees
    (n, 2), exponents (n, n_sym) and ext masks (n,); ``keys`` are the
    monomials' byte keys (see ``_keys``) sorted, and ``rows`` the row of each."""

    mons: tuple
    degs: np.ndarray
    exps: np.ndarray
    masks: np.ndarray
    keys: np.ndarray
    rows: np.ndarray


def _keys(*cols) -> np.ndarray:
    """Byte keys of the rows of nonnegative int64 columns (1-D, or 2-D for
    several): each row as big-endian bytes of one fixed width, which compare
    and sort as the rows do.  Any int64 values fit, where a mixed-radix
    int64 code would need a bound on each column."""
    rows = np.column_stack(cols).astype(">i8")
    return rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()


def _parity(x: np.ndarray, bits: int) -> np.ndarray:
    """The parity of the number of set bits of each int64 in x, all of them
    below bit ``bits`` (at most 64)."""
    for s in (32, 16, 8, 4, 2, 1):
        if s < bits:
            x = x ^ x >> s
    return x & 1


def _arrays(mons, n_sym: int):
    """Monomials (exps, mask) as int64 arrays: exponents (n, n_sym) and ext
    masks (n,).  Ext masks fit int64 (see ``algebra.MAX_E``)."""
    both = np.array([(*e, mask) for e, mask in mons], dtype=np.int64).reshape(len(mons), n_sym + 1)
    return both[:, :-1], both[:, -1]


def _weights(masks, n_ext: int, above: bool) -> np.ndarray:
    """The wedge-sign weight mask of each ext mask x: bit b is set when an
    odd number of x's bits lie above b (``above``) or below b (otherwise).
    theta^x theta^y has the sign (-1)^k, k the inversions of x before y,
    so its parity is ``_parity(y & _weights(x, n, True))`` and also
    ``_parity(x & _weights(y, n, False))``.  The prefix parities come from
    doubling shifts, like ``_parity``'s."""
    upto = masks  # bit b: the parity of x's bits up to and including b
    for s in (1, 2, 4, 8, 16, 32):
        if s < n_ext:
            upto = upto ^ upto << s
    full = (1 << n_ext) - 1
    return (upto ^ -_parity(masks, n_ext) if above else upto << 1) & full


def _d_A(A: AlgebraSpec, exps, masks):
    """d_A on monomials held as arrays: d_A sends the ext generator i >= f
    to the sym generator i - f, with the sign of the ext generators before
    it.  The terms, found per ext generator and sorted by monomial, then i:
    arrays (which, exps, masks, odd), the monomial's row, the image's
    exponents and mask, and 1 where the sign is -1."""
    gens = np.arange(A.f, A.n_ext)  # empty unless A has a differential
    rows = [(masks >> i & 1).nonzero()[0] for i in gens.tolist()]
    which = np.concatenate(rows) if rows else gens
    order = which.argsort(kind="stable")
    which, i = which[order], gens.repeat(list(map(len, rows)))[order]
    exps = exps[which]
    exps[np.arange(len(which)), i - A.f] += 1
    return which, exps, masks[which] ^ 1 << i, _parity(masks[which] & (1 << i) - 1, A.n_ext)


@lru_cache(maxsize=CACHE_SIZE)
def _table(key, jlo: int, jhi: int) -> _Table:
    """The monomials of ``monomials_by_internal`` on [jlo, jhi], in its
    order, with their arrays.  Ext masks fit int64 (see
    ``algebra.MAX_E``)."""
    table = alg_mod._monomials_by_internal(key, jlo, jhi)
    mons = tuple(mon for bucket in table.values() for mon in bucket)
    degs = np.array(list(table), dtype=np.int64).reshape(-1, 2).repeat(list(map(len, table.values())), axis=0)
    exps, masks = _arrays(mons, AlgebraSpec(*key).n_sym)
    keys = _keys(exps, masks)
    rows = keys.argsort()
    arrays = degs, exps, masks, keys[rows], rows
    for a in arrays:
        a.flags.writeable = False
    return _Table(mons, *arrays)


def _build_blocks(key, wanted) -> list[np.ndarray]:
    """The multiplication tables ``wanted`` (src span, dst span, mon, left),
    built in one batch: for each, where mon times each monomial m of the
    table on the src span lands in the table on the dst span, as a read-only
    3 x n array of rows (source row, target row, sign) by source row.

    The product is mon . m when ``left`` (a generator acting) and
    (-1)^{|m|} m . mon otherwise, a term of d(m e) = (-1)^{|m|} m d(e).
    Vanishing products and products outside the target are dropped.

    All requests at once: exponents add and masks or, products whose masks
    overlap vanish, and the wedge sign is the parity of m's mask under
    mon's weight mask (``_weights``: bits above b for mon . m, below b for
    m . mon).  The tables' byte keys, prefixed with the table's index in
    the batch, are sorted as a whole, so one ``searchsorted`` finds every
    product's target row.
    """
    A = AlgebraSpec(*key)
    index = {}
    for src, dst, _, _ in wanted:
        index.setdefault(src, len(index))
        index.setdefault(dst, len(index))
    tables = [_table(key, *r) for r in index]
    sizes = np.array([len(t.mons) for t in tables], dtype=np.int64)
    first = sizes.cumsum() - sizes
    exps = _joined([t.exps for t in tables])
    masks = _joined([t.masks for t in tables])
    odd_i = _joined([t.degs[:, 0] for t in tables]) & 1
    # per request: src and dst table, 1 for a right product, mon's exponents and mask
    src, dst, right = np.array([(index[s], index[d], not lf) for s, d, _, lf in wanted], dtype=np.int64).reshape(-1, 3).T
    mon_exps, mon_mask = _arrays([mon for _, _, mon, _ in wanted], A.n_sym)
    weight = np.where(right, _weights(mon_mask, A.n_ext, False), _weights(mon_mask, A.n_ext, True))
    # one product per request and row of its source table
    n = sizes[src]
    req = np.arange(len(wanted)).repeat(n)
    row = np.arange(n.sum()) - (n.cumsum() - n)[req]
    at = first[src][req] + row
    m, mm = masks[at], mon_mask[req]
    odd = _parity(m & weight[req], A.n_ext) ^ (odd_i[at] & right[req])
    got = _keys(dst[req], exps[at] + mon_exps[req], m | mm)
    sorted_at = _joined([f + t.rows for f, t in zip(first.tolist(), tables)])
    table_keys = _keys(np.arange(len(tables)).repeat(sizes), exps[sorted_at], masks[sorted_at])
    pos = table_keys.searchsorted(got)
    live = ((m & mm) == 0) & (table_keys.take(pos, mode="clip") == got)
    out = np.array([row, sorted_at.take(pos, mode="clip") - first[dst[req]], 1 - 2 * odd])[:, live]
    out.flags.writeable = False
    ends = [0, *np.bincount(req[live], minlength=len(wanted)).cumsum().tolist()]
    return [out[:, a:b] for a, b in zip(ends, ends[1:])]


# The blocks built so far, by (algebra key, src span, dst span, mon, left):
# at most CACHE_SIZE, the oldest dropped first.  A hit is one dict lookup.
_BLOCKS: dict = {}


def _blocks(key, wanted) -> list[np.ndarray]:
    """The blocks ``wanted`` of ``_build_blocks``: cached ones looked up,
    and every missing one built in one batch."""
    got = [_BLOCKS.get((key, *w)) for w in wanted]
    missing = [w for w, block in zip(wanted, got) if block is None]
    if not missing:
        return got
    built = _build_blocks(key, missing)
    for w, block in zip(missing, built):
        if len(_BLOCKS) >= CACHE_SIZE:
            del _BLOCKS[next(iter(_BLOCKS))]
        _BLOCKS[(key, *w)] = block
    built = iter(built)
    return [next(built) if block is None else block for block in got]


@lru_cache(maxsize=CACHE_SIZE)
def _derivation_block(key, rng) -> np.ndarray:
    """The table of d_A on the table on ``rng``, rows (source row, target
    row, coefficient) by source row, then ext generator: ``_d_A`` on the
    table's arrays, coefficient 1 or p - 1, each image found by its byte
    key.  d_A preserves internal degree, so every term stays in the
    table."""
    A, t = AlgebraSpec(*key), _table(key, *rng)
    row, exps, masks, odd = _d_A(A, t.exps, t.masks)
    block = np.array([row, t.rows[t.keys.searchsorted(_keys(exps, masks))], 1 + odd * (A.p - 2)])
    block.flags.writeable = False
    return block


def _d_blocks(module: SemifreeDgModule, spans, which):
    """The distinct blocks whose placed sum is d on the generators' tables,
    and the items (k, l, block, coeff) that place them (see ``_gather``):
    d(m e_k) = d_A(m) e_k + (-1)^{|m|} m sum of the terms of d(e_k).

    A term's block depends only on its group (span of k, span of l,
    monomial), so one block is read per distinct group, the missing ones
    built in one batch by ``_blocks``, and the d_A table once per span."""
    key, mons = module.algebra.key(), module.mons
    blocks, items = [], module.terms
    if len(mons):
        k, l, u, c = items
        code = (which[k] * len(spans) + which[l]) * len(mons) + u
        groups = sorted(set(code.tolist()))
        wanted = []
        for g in groups:
            (a, b), m = divmod(g // len(mons), len(spans)), g % len(mons)
            wanted.append((spans[a], spans[b], mons[m], False))
        blocks = _blocks(key, wanted)
        items = k, l, np.array(groups, dtype=np.int64).searchsorted(code), c
    if module.algebra.has_differential:
        gens = np.arange(module.rank)
        items = np.concatenate([items, [gens, gens, len(blocks) + which, np.ones(module.rank, np.int64)]], axis=1)
        blocks += [_derivation_block(key, r) for r in spans]
    return blocks, items


# Largest expansion basis Expansion will enumerate, counted before any
# monomial table is built.  The e = f = 5 round trip at p = 3, seed 2024,
# trials 0-2 expands at most 472,170 basis elements (the S-module of trial
# 0 under F, at about 1 GB peak for the whole trial); 1M is a margin of 2.1
# over it.
MAX_EXPANSION_BASIS = 1_000_000


def _joined(arrays, axis=0):
    """``np.concatenate(arrays, axis)``, or the one array itself (no copy)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis)


def _gather(blocks, items, offsets):
    """Sum over the items (k, l, b, coeff) of coeff times ``blocks[b]``
    taken from the table rows of generator k to those of generator l: an
    unmerged (3, n) array of rows (src, dst, coeff), positions in the
    concatenated tables (``offsets`` holds each generator's first).  Each
    item's block is expanded by one repeat/arange gather from the
    concatenated blocks, its generators' offsets added and its coefficient
    applied there."""
    if not blocks:
        return _NO_TERMS[:3]
    k, l, b, c = items
    lens = [block.shape[1] for block in blocks]
    n = np.array(lens, dtype=np.int64)[b]
    ends = n.cumsum()
    if not ends[-1]:
        return _NO_TERMS[:3]
    at = (np.array(list(accumulate(lens, initial=0))[:-1], dtype=np.int64)[b] - ends + n).repeat(n)
    at += np.arange(ends[-1])
    out = _joined(blocks, axis=1).take(at, axis=1)
    out[0] += offsets[k].repeat(n)
    out[1] += offsets[l].repeat(n)
    out[2] *= c.repeat(n)
    return out


class Expansion:
    """Bigraded basis of a semifree module on an internal-degree range.

    The basis at each bidegree is complete; truncation only discards whole
    generators outside [jlo, jhi] influence, so within the range the
    expansion computes honest cohomology.  Generator actions that would
    leave the range are projected away (a quotient in the raising
    direction, a submodule in the lowering one).

    ``basis`` lists (k, monomial) sorted by (bidegree, k, monomial),
    ``degs`` holds their bidegrees as an (n, 2) array, and ``d`` is the
    differential as arrays (rows, cols, coeffs) sorted by (row, col), with
    d(b_row) containing coeff * b_col.

    Generators are held by index into the few distinct spans (``_spans``):
    each span's table is read once, and sizes, offsets, bidegrees and
    labels are gathered from the tables by index; d and each action are
    one block per distinct group, placed by ``_gather``.
    """

    __slots__ = ("module", "degs", "d", "_spans", "_which", "_tables", "_offsets", "_sizes", "_place", "_row", "_order")

    def __init__(self, module: SemifreeDgModule, jlo: int, jhi: int):
        self.module = module
        A = module.algebra
        key = A.key()
        spans, which = self._spans, self._which = _spans(A, jlo, jhi, module.degs[:, 1])
        sizes = [_span_size(key, *r) for r in spans]
        if max(sizes, default=0) * len(which) > MAX_EXPANSION_BASIS:  # only then can the total be over
            total = sum(c * s for c, s in zip(np.bincount(which).tolist(), sizes))
            if total > MAX_EXPANSION_BASIS:
                most = max(sizes)
                k = min(which.tolist().index(s) for s, size in enumerate(sizes) if size == most)
                raise ValueError(
                    f"the expansion on internal degrees [{jlo}, {jhi}] has {total:,} basis elements, over the limit of "
                    f"{MAX_EXPANSION_BASIS:,}; generator {k} alone spans monomial degrees {list(spans[which[k]])} with {most:,} monomials"
                )
        tables = [_table(key, *r) for r in spans]
        # the generators' tables concatenated in generator order: per generator
        # its first position and size, per position its row in the spans' tables
        n = self._sizes = np.array(sizes, dtype=np.int64)[which]
        self._offsets = n.cumsum() - n
        row = (np.array(list(accumulate(sizes, initial=0))[:-1], dtype=np.int64)[which] - self._offsets).repeat(n)
        row += np.arange(len(row))
        degs = _joined([t.degs for t in tables] or [_NO_DEGS]).take(row, axis=0) + module.degs.repeat(self._sizes, axis=0)
        # a stable sort by bidegree keeps the generator order and each table's order
        order = np.lexsort((degs[:, 1], degs[:, 0]))
        self._place = np.empty_like(order)
        self._place[order] = np.arange(len(order))
        self.degs = degs.take(order, axis=0)
        self._tables, self._row, self._order = tables, row, order
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
        gen = np.arange(self.module.rank).repeat(self._sizes)
        return gen.take(self._order), mons, ids.take(self._row.take(self._order))

    def _assemble(self, blocks, items):
        """The placed sum of the blocks (see ``_gather``), merged and sorted
        by (row, col) in basis order."""
        src, dst, vals = _gather(blocks, items, self._offsets)
        if not len(src):
            return src, dst, vals
        n = len(self._place)
        key, vals = _summed(self._place[src] * n + self._place[dst], vals, self.module.algebra.p)
        return (*np.divmod(key, n), vals)

    def action(self, is_ext: bool, g: int):
        """Left action of one algebra generator as (rows, cols, coeffs),
        sorted by row; images outside the range are dropped.  One block per
        distinct span; a basis element has at most one image, so the entries
        are only sorted, not merged."""
        A = self.module.algebra
        mon = A.gen_monomial(is_ext, g)
        gens = np.arange(self.module.rank)
        blocks = _blocks(A.key(), [(r, r, mon, True) for r in self._spans])
        src, dst, vals = _gather(blocks, (gens, gens, self._which, np.ones(len(gens), np.int64)), self._offsets)
        rows = self._place.take(src)
        order = rows.argsort()
        return rows.take(order), self._place.take(dst.take(order)), vals.take(order) % A.p


def _column_cohomology(degs: np.ndarray, d, window: Window, p: int) -> BigradedDims:
    """Exact cohomology on the window from basis bidegrees and a differential.

    degs: (n, 2) array of basis bidegrees in lexicographic order, complete
    per column; d: arrays (rows, cols, coeffs) with distinct (row, col)
    pairs, sorted by row.  Entries that do not have bidegree (1, 0) are
    ignored.

    h^{i,j} = dim C^{i,j} - rank(C^{i,j} -> C^{i+1,j}) - rank(C^{i-1,j} -> C^{i,j}),
    so the only ranks taken are those of the maps out of bidegrees (i, j)
    with i0 - 1 <= i <= i1 and j0 <= j <= j1.  Each is the rank of the
    whole map between two complete cells, so every reported h is exact.
    The maps never share a row or a column, so one ``structural_pivots``
    pass over all of their entries that are nonzero mod p serves every map;
    a pivot counts toward the rank of the map out of its row's cell and
    into its column's.  What is left of each map, its live rows by its live
    columns, is the only part made dense (``_cores``: 1-4 bytes an entry),
    and it is ranked at its echelon form, with no reduced rows built.
    ValueError when a core has more than MAX_RANK_CELLS entries, before
    any core is allocated.
    """
    n = len(degs)
    if not n:
        return BigradedDims()
    code = degs[:, 0] << 32 | degs[:, 1] & 0xFFFFFFFF  # one int per bidegree
    rows, cols, vals = d
    if len(rows):
        src_i, src_j = degs[rows, 0], degs[rows, 1]
        live = (code[cols] - code[rows] == 1 << 32) & (vals % p != 0)
        live &= (window.i0 - 1 <= src_i) & (src_i <= window.i1) & (window.j0 <= src_j) & (src_j <= window.j1)
        rows, cols, vals = rows[live], cols[live], vals[live]
    starts = [0, *((code[1:] != code[:-1]).nonzero()[0] + 1).tolist()]  # cells: runs of one bidegree
    ranks = [0] * len(starts)  # per cell: the rank of the map out of it plus that of the map into it
    if len(rows):
        pivot_rows, pivot_cols, left = structural_pivots(rows, cols, n)
        ranked = pivot_rows + pivot_cols.astype(np.int64)  # per basis element: pivots in its row and in its column
        rows, cols, vals = rows[left], cols[left], vals[left]
        if len(rows):
            _cores(degs, starts, rows, cols, vals, p, ranked)
        ranks = np.add.reduceat(ranked, starts).tolist()
    out = BigradedDims()
    for (i, j), a, b, rk in zip(degs[starts].tolist(), starts, starts[1:] + [n], ranks):
        if b - a - rk and window.contains((i, j)):
            out[(i, j)] = b - a - rk
    return out


def _cores(degs, starts, rows, cols, vals, p: int, ranked):
    """Rank what structural pivots left of each map, its live rows by its
    live columns, as one dense core, and add the rank to ``ranked`` at one
    row and one column of the core.  The cores' source cells and target
    cells run in the same order.  A core holds ``vals`` mod p in the
    narrowest unsigned dtype that holds p, 1-4 bytes an entry (one below
    256).  ValueError when a core has more than MAX_RANK_CELLS entries,
    before any core is allocated."""
    core_rows, r = np.unique(rows, return_inverse=True)
    core_cols, c = np.unique(cols, return_inverse=True)
    _, r0, nr = np.unique(np.searchsorted(starts, core_rows, "right"), return_index=True, return_counts=True)
    _, c0, nc = np.unique(np.searchsorted(starts, core_cols, "right"), return_index=True, return_counts=True)
    big = (nr * nc).argmax()
    dtype = np.min_scalar_type(p)
    if nr[big] * nc[big] > MAX_RANK_CELLS:
        raise ValueError(
            f"the map out of bidegree {tuple(degs[core_rows[r0[big]]].tolist())} needs a dense {nr[big]} x {nc[big]} core "
            f"({nr[big] * nc[big] * dtype.itemsize:,} bytes as {dtype}), over the limit of {MAX_RANK_CELLS:,} entries"
        )
    vals = (vals % p).astype(dtype)
    bounds = [*r.searchsorted(r0).tolist(), len(r)]
    for k in range(len(r0)):
        e = slice(bounds[k], bounds[k + 1])
        a = np.zeros((nr[k], nc[k]), dtype=dtype)
        a[r[e] - r0[k], c[e] - c0[k]] = vals[e]
        rk = mat_rank(a, p)
        ranked[core_rows[r0[k]]] += rk
        ranked[core_cols[c0[k]]] += rk


def cohomology(module: SemifreeDgModule, window: Window) -> BigradedDims:
    """Bigraded cohomology dimensions of a semifree module on a window.

    Exact on the window: the expansion holds every cohomological degree of
    each internal-degree column in [j0, j1], and ranks are taken only of
    the maps out of bidegrees with i0 - 1 <= i <= i1, the ones the
    reported h^{i,j} depend on (see ``_column_cohomology``).
    """
    exp = Expansion(module, window.j0, window.j1)
    return _column_cohomology(exp.degs, exp.d, window, module.algebra.p)


def is_quasi_iso(phi: DgMap, window: Window) -> bool:
    """True when phi passes ``DgMap.validate`` and cone(phi) has no
    cohomology anywhere on the window; both run on one cone."""
    issues, c = phi._checked(True)
    return not issues and not cohomology(c, window)


class FiniteDgModule:
    """A bigraded complex with finite basis: basis bidegrees and d.

    ``basis_degs`` is an (n, 2) int64 array of basis bidegrees, and d is
    term arrays (rows, cols, vals) like ``Expansion.d``: d(b_row) contains
    vals * b_col, of bidegree (1, 0), with distinct (row, col) pairs and
    values in [1, p), in any order.  The constructor takes d as given; the
    generator actions are not held, since the tables read only d.
    """

    __slots__ = ("algebra", "basis_degs", "d")

    def __init__(self, algebra: AlgebraSpec, basis_degs, d=_NO_TERMS[:3]):
        degs = np.asarray(basis_degs, dtype=np.int64) if len(basis_degs) else _NO_DEGS
        if degs.ndim != 2 or degs.shape[1] != 2:
            raise ValueError(f"basis degrees must be (i, j) pairs, got shape {degs.shape}")
        self.algebra = algebra
        self.basis_degs = degs
        self.d = d

    @property
    def dim(self) -> int:
        return len(self.basis_degs)

    def cohomology(self, window: Window) -> BigradedDims:
        """Cohomology on the window: the basis indices mapped into bidegree
        order and d sorted by row, for ``_column_cohomology``."""
        order = np.lexsort((self.basis_degs[:, 1], self.basis_degs[:, 0]))
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        rows, cols, vals = self.d
        rows = place[rows]
        by_row = rows.argsort()
        d = rows[by_row], place[cols][by_row], vals[by_row]
        return _column_cohomology(self.basis_degs[order], d, window, self.algebra.p)

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


def _check_int(value, what: str, lo=None, hi=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        raise ValueError(f"{what} {value} is out of range")
    return value


def deserialize_module(text: str) -> SemifreeDgModule:
    """Parse and validate the JSON of ``serialize_module``; ValueError on
    any malformed or invalid input, a repeated entry or a monomial repeated
    within one entry included (neither is summed nor overwritten)."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ValueError("not a module document of schema 1")
    a = doc["algebra"]
    algebra = make_algebra(a["kind"], *(_check_int(a[x], x) for x in "efp"))
    gens = []
    for g in doc["gens"]:
        if len(g) != 2:
            raise ValueError(f"generator bidegree must be a pair, got {g!r}")
        gens.append(tuple(_check_int(x, "generator degree", -MAX_DEGREE, MAX_DEGREE) for x in g))
    diff: dict[int, dict[int, dict]] = {}
    for k, l, terms in doc["diff"]:
        _check_int(k, "generator index", 0, len(gens))
        _check_int(l, "generator index", 0, len(gens))
        if l in diff.get(k, {}):
            raise ValueError(f"entry [{k}, {l}] is repeated")
        entry = {}
        for c, exps, mask in terms:
            _check_int(c, "coefficient")
            if len(exps) != algebra.n_sym:
                raise ValueError(f"exponent vector {exps!r} must have length {algebra.n_sym}")
            mon = (tuple(_check_int(x, "exponent", 0, MAX_DEGREE) for x in exps), _check_int(mask, "ext mask", 0, 1 << algebra.n_ext))
            if mon in entry:
                raise ValueError(f"entry [{k}, {l}] repeats the monomial with exponents {list(mon[0])} and ext mask {mon[1]}")
            entry[mon] = c
        diff.setdefault(k, {})[l] = entry
    mod = SemifreeDgModule(algebra, gens, *nested_terms(algebra, diff))
    issues = mod.validate()
    if issues:
        raise ValueError("invalid module: " + "; ".join(issues))
    return mod
