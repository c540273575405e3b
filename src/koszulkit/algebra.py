"""The bigraded dg-algebras over a point, in a single monomial representation.

Every algebra in scope is Sym(V0) tensor Lambda(V1) for generator spaces V0
(even, "sym") and V1 (odd, "ext"), with all sym generators sharing one
bidegree and all ext generators sharing another:

    kind S : f sym generators in (2, -2), no ext part, zero differential
    kind R : f sym generators in (0, -2), no ext part, zero differential
    kind T : f ext generators in (-1, 2), zero differential
    kind Q : e-f sym generators in (0, 2), e ext generators in (-1, 2);
             the differential is the derivation sending the i-th ext
             generator (i >= f, 0-based) to the (i-f)-th sym generator
             and the first f ext generators to 0
    kind P : e-f sym generators in (0, 2), no ext part, zero differential
             (the target algebra of the bundle-projection pushforward)

A monomial is a pair (exps, mask): exponent tuple for the sym part and a
bitmask over ext generators.  This module owns monomials in both forms:
as tuples, their bidegrees; as arrays, all monomial arithmetic; and their
one enumeration, ``table``, in both.  ``monomial_arrays`` holds monomials as
exponent rows and int64 ext masks, ``byte_keys`` numbers them, a product
adds exponents and ors masks (overlapping masks vanish), its wedge sign
(``wedge_sign``, the one owner of the Koszul sign rule) is the ``parity``
of one mask under the other's weight mask (``weights``), and ``d_A``
applies the algebra differential.  Per (algebra, internal-degree span)
``table`` numbers the monomials once and holds them as arrays, and a
monomial's multiplication block (``product_block``) says where it times
every monomial of a span lands, with its sign, every row found by one
``searchsorted``.  ``derivation_block`` is d_A on one table.  One rule,
``_lengths``, says which monomials a span holds: ``table`` enumerates it
and ``span_size`` counts it.  Each cache here is an ``lru_cache`` of
``CACHE_SIZE`` entries keyed on the ``AlgebraSpec``, a tuple that hashes and
compares in C, which ``make_algebra`` fills in from kind, e, f and p.
``dgmodule`` runs this kernel on term arrays and expansions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, inf
from operator import sub
from typing import NamedTuple

import numpy as np

from .bigraded import Bidegree
from .linalg import check_modulus

Monomial = tuple[tuple[int, ...], int]

_KIND_TABLE = {  # the module docstring's kind table: (n_sym, n_ext, sym_deg) of (e, f)
    "S": lambda e, f: (f, 0, (2, -2)),
    "R": lambda e, f: (f, 0, (0, -2)),
    "T": lambda e, f: (0, f, (0, 0)),
    "Q": lambda e, f: (e - f, e, (0, 2)),
    "P": lambda e, f: (e - f, 0, (0, 2)),
}
KINDS = tuple(_KIND_TABLE)

# Entries kept by each of the four monomial caches here, keyed on the tuple
# spec (compositions are not cached).  One benchmark pass misses
# ``product_block`` at most 554 times (duality-grid; roundtrip-e3 390,
# scale-e4 116) and every other cache at most 568 times (``table`` on
# duality-grid: 328 expansion spans, 240 sampler degrees), so no pass evicts;
# a run of any length holds at most this many entries per cache.  The
# e = f = 6 round trip (trials 0-3) misses 211 blocks and 25 tables.
CACHE_SIZE = 4096


class AlgebraSpec(NamedTuple):
    kind: str
    e: int
    f: int
    p: int
    n_sym: int
    n_ext: int
    sym_deg: Bidegree

    ext_deg = (-1, 2)

    @property
    def has_differential(self) -> bool:
        return self.kind == "Q" and self.e > self.f

    def one(self) -> Monomial:
        return ((0,) * self.n_sym, 0)

    def gen_monomial(self, is_ext: bool, i: int) -> Monomial:
        """The monomial of the i-th ext generator (is_ext) or sym generator."""
        if is_ext:
            return ((0,) * self.n_sym, 1 << i)
        exps = [0] * self.n_sym
        exps[i] = 1
        return (tuple(exps), 0)


# Largest e: Q has e ext generators, and ext masks are held as int64 bit
# sets (``monomial_arrays``), and so are the wedge-sign weight masks
# (``weights``) and the masks d_A clears (``d_A``): bits 0 to 61.
MAX_E = 62


def make_algebra(kind: str, e: int, f: int, p: int) -> AlgebraSpec:
    if kind not in KINDS:
        raise ValueError(f"unknown algebra kind {kind!r}")
    if not (0 <= f <= e):
        raise ValueError(f"need 0 <= f <= e, got f={f}, e={e}")
    if e > MAX_E:
        raise ValueError(f"e = {e} is over the limit of {MAX_E} (ext masks are int64 bit sets)")
    check_modulus(p)
    return AlgebraSpec(kind, e, f, p, *_KIND_TABLE[kind](e, f))


def monomial_bidegree(alg: AlgebraSpec, mon: Monomial) -> Bidegree:
    t = sum(mon[0])
    m = bin(mon[1]).count("1")
    si, sj = alg.sym_deg
    ei, ej = alg.ext_deg
    return (t * si + m * ei, t * sj + m * ej)


def degree_bounds(A: AlgebraSpec):
    """(lo, hi): the internal degrees of A's monomials lie in [lo, hi], one
    side possibly infinite, and each even degree there is some monomial's.
    Sym generators of negative degree (S, R) bound them above by 0, all
    others below by 0, and the exterior part alone by 2 n_ext."""
    return (0, 2 * A.n_ext) if not A.n_sym else (-inf, 0) if A.sym_deg[1] < 0 else (0, inf)


def _lengths(A: AlgebraSpec, jlo: int, jhi: int):
    """The one rule for which monomials a span holds: for each ext count m,
    (m, ts), ts the range of sym lengths t whose monomials, of m ext and t
    sym generators, have internal degree in [jlo, jhi].  Every generator has
    internal degree +-2, so each end bounds the monomial's length."""
    for m in range(A.n_ext + 1):
        lo, hi = jlo - 2 * m, jhi - 2 * m  # left for the sym part; ext generators have internal degree 2
        lo, hi = (-hi, -lo) if A.sym_deg[1] < 0 else (lo, hi)  # sym generators have internal degree -2 (S, R) or 2
        top = hi // 2 if A.n_sym else min(hi // 2, 0)  # with no sym part, only the length 0
        yield m, range(max(0, -(-lo // 2)), top + 1)


def _compositions(total: int, parts: int) -> list:
    """The exponent tuples of ``parts`` sym generators summing to ``total``,
    by stars and bars: the gaps between parts - 1 cuts 0 <= c_1 <= ... <= total."""
    if not parts:
        return [()]  # ``_lengths`` gives no sym part only the length 0
    cuts = combinations_with_replacement(range(total + 1), parts - 1)
    return [tuple(map(sub, (*c, total), (0, *c))) for c in cuts]


@lru_cache(maxsize=CACHE_SIZE)
def span_size(A: AlgebraSpec, jlo: int, jhi: int) -> int:
    """The number of monomials of ``table`` on [jlo, jhi], counted in closed
    form on ``_lengths``: for m ext generators, C(n_ext, m) masks times the
    sym monomials of the lengths t0 <= t <= t1, C(t1 + n, n) - C(t0 - 1 + n, n)."""
    n = A.n_sym
    return sum(
        comb(A.n_ext, m) * (comb(ts[-1] + n, n) - (comb(ts[0] - 1 + n, n) if ts[0] else 0))
        for m, ts in _lengths(A, jlo, jhi) if ts
    )


class _Table(NamedTuple):
    """The monomials of one (algebra, internal-degree span) as ``table``
    lists them, and the same as read-only arrays: bidegrees
    (n, 2), exponents (n, n_sym) and ext masks (n,); ``keys`` are the
    monomials' byte keys (see ``byte_keys``) sorted, and ``rows`` the row of each."""

    mons: tuple
    degs: np.ndarray
    exps: np.ndarray
    masks: np.ndarray
    keys: np.ndarray
    rows: np.ndarray


def byte_keys(*cols) -> np.ndarray:
    """Byte keys of the rows of nonnegative int64 columns (1-D, or 2-D for
    several): each row as big-endian bytes of one fixed width, which compare
    and sort as the rows do.  Any int64 values fit, where a mixed-radix
    int64 code would need a bound on each column."""
    rows = np.column_stack(cols).astype(">i8")
    return rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()


def parity(x: np.ndarray, bits: int) -> np.ndarray:
    """The parity of the number of set bits of each int64 in x, all of them
    below bit ``bits`` (at most 64)."""
    for s in (32, 16, 8, 4, 2, 1):
        if s < bits:
            x = x ^ x >> s
    return x & 1


def monomial_arrays(mons, n_sym: int):
    """Monomials (exps, mask) as int64 arrays: exponents (n, n_sym) and ext
    masks (n,).  Ext masks fit int64 (see ``MAX_E``)."""
    both = np.array([(*e, mask) for e, mask in mons], dtype=np.int64).reshape(len(mons), n_sym + 1)
    return both[:, :-1], both[:, -1]


def weights(masks, n_ext: int, above: bool) -> np.ndarray:
    """The wedge-sign weight mask of each ext mask x: bit b is set when an
    odd number of x's bits lie above b (``above``) or below b (otherwise).
    theta^x theta^y has the sign (-1)^k, k the inversions of x before y,
    so its parity is ``parity(y & weights(x, n, True))`` and also
    ``parity(x & weights(y, n, False))``.  The prefix parities come from
    doubling shifts, like ``parity``'s."""
    upto = masks  # bit b: the parity of x's bits up to and including b
    for s in (1, 2, 4, 8, 16, 32):
        if s < n_ext:
            upto = upto ^ upto << s
    full = (1 << n_ext) - 1
    return (upto ^ -parity(masks, n_ext) if above else upto << 1) & full


def wedge_sign(x, y, n_ext: int) -> np.ndarray:
    """The sign of theta^x theta^y for ext masks x and y that broadcast:
    (-1)^k, k the inversions of x before y, and 0 where the masks overlap."""
    return (1 - 2 * parity(y & weights(x, n_ext, True), n_ext)) * ((x & y) == 0)


def d_A(A: AlgebraSpec, exps, masks):
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
    return which, exps, masks[which] ^ 1 << i, parity(masks[which] & (1 << i) - 1, A.n_ext)


def joined(arrays, axis=0):
    """``np.concatenate(arrays, axis)``, or the one array itself (no copy)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis)


@lru_cache(maxsize=CACHE_SIZE)
def table(A: AlgebraSpec, jlo: int, jhi: int) -> _Table:
    """The monomials with internal degree in [jlo, jhi], those of
    ``_lengths``, with their arrays: grouped by bidegree, the groups in
    order of ext count m, then sym length t, each group sorted.  Each (m, t)
    is one bidegree: only Q has both parts, and there i = -m.  Ext masks
    fit int64 (see ``MAX_E``).
    """
    groups, degs = [], []
    for m, ts in _lengths(A, jlo, jhi):
        # only the masks of the m that occur: a narrow range of a large
        # exterior part is enumerated in its size, not in 2^n_ext steps
        masks = [sum(1 << b for b in bits) for bits in combinations(range(A.n_ext), m)] if ts else []
        for t in ts:
            exps = _compositions(t, A.n_sym)
            groups.append(sorted((e, mask) for mask in masks for e in exps))
            degs.append(monomial_bidegree(A, groups[-1][0]))
    mons = tuple(mon for group in groups for mon in group)
    degs = np.array(degs, dtype=np.int64).reshape(-1, 2).repeat(list(map(len, groups)), axis=0)
    exps, masks = monomial_arrays(mons, A.n_sym)
    keys = byte_keys(exps, masks)
    rows = keys.argsort()
    arrays = degs, exps, masks, keys[rows], rows
    for a in arrays:
        a.flags.writeable = False
    return _Table(mons, *arrays)


_NO_BLOCK = np.zeros((3, 0), dtype=np.int64)
_NO_BLOCK.flags.writeable = False


@lru_cache(maxsize=CACHE_SIZE)
def product_block(A: AlgebraSpec, src, dst, mon, left: bool) -> np.ndarray:
    """The multiplication table of mon on the table on the span ``src``:
    where mon times each monomial m of it lands in the table on ``dst``, as
    a read-only 3 x n array of rows (source row, target row, sign) by
    source row.

    The product is mon . m when ``left`` (a generator acting) and
    (-1)^{|m|} m . mon otherwise, a term of d(m e) = (-1)^{|m|} m d(e).
    Vanishing products and products outside the target are dropped.

    Exponents add and masks or, products whose masks overlap vanish, and
    the wedge sign is the parity of m's mask under mon's one weight mask
    (``weights``: bits above b for mon . m, below b for m . mon).  One
    ``searchsorted`` in the target's sorted byte keys finds every
    product's target row; a target with no monomials gives the empty block.
    """
    s, t = table(A, *src), table(A, *dst)
    if not len(t.mons):
        return _NO_BLOCK
    mask = mon[1]
    odd = parity(s.masks & weights(mask, A.n_ext, left), A.n_ext)
    if not left:
        odd ^= s.degs[:, 0] & 1
    got = byte_keys(s.exps + np.array(mon[0], dtype=np.int64), s.masks | mask)
    pos = t.keys.searchsorted(got)
    live = ((s.masks & mask) == 0) & (t.keys.take(pos, mode="clip") == got)
    block = np.array([np.arange(len(s.mons)), t.rows.take(pos, mode="clip"), 1 - 2 * odd])[:, live]
    block.flags.writeable = False
    return block


@lru_cache(maxsize=CACHE_SIZE)
def derivation_block(A: AlgebraSpec, span) -> np.ndarray:
    """The table of d_A on the table on ``span``, rows (source row, target
    row, coefficient) by source row, then ext generator: ``d_A`` on the
    table's arrays, coefficient 1 or p - 1, each image found by its byte
    key.  d_A preserves internal degree, so every term stays in the
    table."""
    t = table(A, *span)
    row, exps, masks, odd = d_A(A, t.exps, t.masks)
    block = np.array([row, t.rows[t.keys.searchsorted(byte_keys(exps, masks))], 1 + odd * (A.p - 2)])
    block.flags.writeable = False
    return block
