"""Semifree dg-modules, chain maps, cones, expansion and exact cohomology.

A semifree module is a finite list of free generator bidegrees over one of
the algebras of ``algebra``, plus a sparse differential matrix with algebra
entries: row k holds d(e_k) = sum_l diff[k][l] e_l, and entry (k, l) must be
homogeneous of bidegree gens[k] - gens[l] + (1, 0).

Sign conventions, fixed project-wide and enforced by validate():

* differentials act from the left: d(a e) = d(a) e + (-1)^{|a|} a d(e);
* shifting by [1] multiplies entry (k, l) by -(-1)^c where
  c = i_k - i_l + 1 is the entry's cohomological degree;
* dualizing (Hom into the free rank-one module) negates generator
  bidegrees and transposes the matrix with the entry-degree sign
  (-1)^{c(c-1)/2}, which makes double dualization the identity on the
  presentation.

Cohomology is exact: for each internal degree the expansion is finite in
every cohomological degree, so every cell of a column is complete, and the
ranks a window's h^{i,j} need (the maps out of (i - 1, j) and (i, j)) are
taken over whole cells; no other rank is taken.

Expansions are assembled by one kernel from cached integer tables.  For
each (algebra, internal-degree span) the monomials are numbered once, and
for each monomial mon the block table says where mon times every monomial
of the span lands, with its sign.  A differential or a generator action is
then the concatenation of the blocks its entries select, shifted to each
generator's rows, as COO arrays; spans are cut to the degrees monomials can
have, so modules of any shape share the same few tables.

Finite dg-modules (``FiniteDgModule``), the chain maps between them
(``FiniteMap``) and the generator images of a map from a semifree module
(``SemifreeToFiniteMap``) are dense int64 matrices reduced mod p, with
row = source: entry (k, l) is the coefficient of b_l in the image of b_k,
so a row vector v maps to v @ M.  Their checks, shifts, cones and duals
are matrix algebra.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate
from math import inf

import numpy as np

from . import algebra as alg_mod
from .algebra import (
    AlgebraSpec,
    elt_add,
    elt_bidegree,
    elt_d,
    elt_mul,
    elt_scale,
    make_algebra,
    mul_monomials,
)
from .bigraded import Bidegree, BigradedDims, Window, bidegree_add, bidegree_sub
from .linalg import independent_columns, kernel_basis, rank as mat_rank

ONE_SHIFT = (1, 0)  # bidegree of every differential


def _entry_degree(gens, k: int, l: int) -> int:
    """Cohomological degree of a differential entry from gen k to gen l."""
    return gens[k][0] - gens[l][0] + 1


def _clean_matrix(algebra: AlgebraSpec, matrix) -> dict[int, dict[int, dict]]:
    """Rows of algebra entries with zero entries and rows dropped.  An entry
    is rebuilt through ``elt`` only when a coefficient is outside [1, p) or
    an exponent vector is not a tuple; clean entries are kept as they are."""
    p = algebra.p
    out = {}
    for k, row in (matrix or {}).items():
        clean = {}
        for l, entry in row.items():
            for (exps, _), c in entry.items():
                if not 0 < c < p or type(exps) is not tuple:
                    entry = alg_mod.elt(algebra, entry)
                    break
            if entry:
                clean[l] = entry
        if clean:
            out[k] = clean
    return out


class SemifreeDgModule:
    """Free generator bidegrees ``gens`` and a sparse differential ``diff``.

    The entry dicts are immutable after construction: clean entries are
    shared, not copied, between a module and the modules derived from it
    (shifts, sums, cones), so neither the caller nor any later code may
    modify them in place.
    """

    __slots__ = ("algebra", "gens", "diff")

    def __init__(self, algebra: AlgebraSpec, gens, diff=None):
        self.algebra = algebra
        self.gens: tuple[Bidegree, ...] = tuple((int(i), int(j)) for i, j in gens)
        self.diff: dict[int, dict[int, dict]] = _clean_matrix(algebra, diff)

    @property
    def rank(self) -> int:
        return len(self.gens)

    def validate(self) -> list[str]:
        """All dg-module axioms; empty list means the module is valid."""
        issues = []
        A = self.algebra
        for k, row in self.diff.items():
            for l, entry in row.items():
                want = bidegree_add(bidegree_sub(self.gens[k], self.gens[l]), ONE_SHIFT)
                try:
                    got = elt_bidegree(A, entry)
                except ValueError as exc:
                    issues.append(f"entry ({k},{l}): {exc}")
                    continue
                if got is not None and got != want:
                    issues.append(f"entry ({k},{l}) has bidegree {got}, expected {want}")
        if issues:
            return issues
        for k in range(self.rank):
            acc: dict[int, dict] = {}
            for l, ekl in self.diff.get(k, {}).items():
                sign = -1 if _entry_degree(self.gens, k, l) & 1 else 1
                for m, elm in self.diff.get(l, {}).items():
                    term = elt_scale(A, elt_mul(A, ekl, elm), sign)
                    if term:
                        acc[m] = elt_add(A, acc.get(m, {}), term)
                dkl = elt_d(A, ekl)
                if dkl:
                    acc[l] = elt_add(A, acc.get(l, {}), dkl)
            for m, residue in acc.items():
                if residue:
                    issues.append(f"d^2 != 0 from gen {k} to gen {m}")
                    break
        return issues

    def shift(self, a: int, b: int) -> "SemifreeDgModule":
        """The shifted module M[a]<b>; generator (i, j) moves to (i-a, j+b)."""
        gens = tuple((i - a, j + b) for i, j in self.gens)
        diff = {}
        for k, row in self.diff.items():
            new_row = {}
            for l, entry in row.items():
                c = _entry_degree(self.gens, k, l)
                odd = (a * (c + 1)) & 1
                new_row[l] = elt_scale(self.algebra, entry, -1) if odd else entry
            diff[k] = new_row
        return SemifreeDgModule(self.algebra, gens, diff)

    def dualize(self) -> "SemifreeDgModule":
        """Hom into the free rank-one module, on the semifree presentation.

        An involution on the nose: dualize(dualize(M)) == M entrywise.
        """
        gens = tuple((-i, -j) for i, j in self.gens)
        diff: dict[int, dict[int, dict]] = {}
        for l, row in self.diff.items():
            for k, entry in row.items():
                c = _entry_degree(self.gens, l, k)
                odd = ((c * (c - 1)) // 2) & 1
                diff.setdefault(k, {})[l] = elt_scale(self.algebra, entry, -1) if odd else entry
        return SemifreeDgModule(self.algebra, gens, diff)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SemifreeDgModule)
            and self.algebra == other.algebra
            and self.gens == other.gens
            and self.diff == other.diff
        )

    def __repr__(self):
        return (
            f"SemifreeDgModule({self.algebra.kind}, rank={self.rank}, "
            f"gens={list(self.gens)})"
        )


def free_module(algebra: AlgebraSpec, gens) -> SemifreeDgModule:
    return SemifreeDgModule(algebra, gens, {})


class DgMap:
    """Degree-(0, 0) chain map between semifree modules over one algebra.

    matrix[k][l] is the coefficient of target generator l in the image of
    source generator k; it must be homogeneous of bidegree
    source.gens[k] - target.gens[l].  As in SemifreeDgModule, the entry
    dicts are immutable after construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: SemifreeDgModule, target: SemifreeDgModule, matrix):
        if source.algebra != target.algebra:
            raise ValueError("chain map needs a common algebra")
        self.source = source
        self.target = target
        self.matrix: dict[int, dict[int, dict]] = _clean_matrix(source.algebra, matrix)

    def validate(self, min_internal: int | None = None) -> list[str]:
        """Chain-map and homogeneity checks.

        When ``min_internal`` is given, rows whose source generator has
        internal degree below it are skipped: maps built from truncated
        functor images are exact chain maps only above their cutoff.
        """
        issues = []
        A = self.source.algebra
        for k, row in self.matrix.items():
            for l, entry in row.items():
                want = bidegree_sub(self.source.gens[k], self.target.gens[l])
                try:
                    got = elt_bidegree(A, entry)
                except ValueError as exc:
                    issues.append(f"map entry ({k},{l}): {exc}")
                    continue
                if got is not None and got != want:
                    issues.append(f"map entry ({k},{l}) has bidegree {got}, expected {want}")
        if issues:
            return issues
        for k in range(self.source.rank):
            if min_internal is not None and self.source.gens[k][1] < min_internal:
                continue
            acc: dict[int, dict] = {}
            for l, dkl in self.source.diff.get(k, {}).items():
                for m, phi in self.matrix.get(l, {}).items():
                    term = elt_mul(A, dkl, phi)
                    if term:
                        acc[m] = elt_add(A, acc.get(m, {}), term)
            for l, phi in self.matrix.get(k, {}).items():
                dphi = elt_d(A, phi)
                if dphi:
                    acc[l] = elt_add(A, acc.get(l, {}), elt_scale(A, dphi, -1))
                sign = -1 if (self.source.gens[k][0] - self.target.gens[l][0]) & 1 else 1
                for m, dn in self.target.diff.get(l, {}).items():
                    term = elt_scale(A, elt_mul(A, phi, dn), -sign)
                    if term:
                        acc[m] = elt_add(A, acc.get(m, {}), term)
            for m, residue in acc.items():
                if residue:
                    issues.append(f"chain condition fails from gen {k} to gen {m}")
                    break
        return issues


def identity_map(module: SemifreeDgModule) -> DgMap:
    one = alg_mod.elt_one(module.algebra)
    return DgMap(module, module, {k: {k: one} for k in range(module.rank)})


def cone(phi: DgMap) -> SemifreeDgModule:
    """Mapping cone target + source[1] with the standard differential; phi
    is not checked, and the cone is a dg-module only when it is valid."""
    src = phi.source.shift(1, 0)
    tgt = phi.target
    off = tgt.rank
    gens = tgt.gens + src.gens
    diff = {k: dict(row) for k, row in tgt.diff.items()}
    for k, row in src.diff.items():
        diff[k + off] = {l + off: e for l, e in row.items()}
    for k, row in phi.matrix.items():
        diff.setdefault(k + off, {}).update({l: e for l, e in row.items()})
    return SemifreeDgModule(phi.source.algebra, gens, diff)


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


@lru_cache(maxsize=None)
def _table(key, jlo: int, jhi: int):
    """The monomials of ``monomials_by_internal`` on [jlo, jhi], in its
    order, and a read-only (n, 2) array of their bidegrees."""
    table = alg_mod._monomials_by_internal(key, jlo, jhi)
    mons = tuple(mon for bucket in table.values() for mon in bucket)
    degs = np.array([bd for bd, bucket in table.items() for _ in bucket], dtype=np.int64).reshape(-1, 2)
    degs.flags.writeable = False
    return mons, degs


def _frozen_block(terms) -> np.ndarray:
    """Triples (source row, target row, coefficient) as a read-only 3 x n array."""
    block = np.array(terms, dtype=np.int64).reshape(-1, 3).T.copy()
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _derivation_block(key, rng):
    """The table of d_A on the table on ``rng``; d_A preserves internal
    degree, so every term stays in the table."""
    A = AlgebraSpec(*key)
    mons = _table(key, *rng)[0]
    row = dict(zip(mons, range(len(mons))))
    return _frozen_block([(r, row[m2], c) for r, m in enumerate(mons) for m2, c in elt_d(A, {m: 1}).items()])


def _d_blocks(module: SemifreeDgModule, ranges):
    """The blocks (block, k, l, coeff) whose sum is d on the generators'
    tables: d(m e_k) = d_A(m) e_k + (-1)^{|m|} m sum_l diff[k][l] e_l."""
    key = module.algebra.key()
    blocks = [
        (_block(key, ranges[k], ranges[l], mon, False), k, l, c)
        for k, row in module.diff.items()
        for l, entry in row.items()
        for mon, c in entry.items()
    ]
    if module.algebra.has_differential:
        blocks += [(_derivation_block(key, r), k, k, 1) for k, r in enumerate(ranges)]
    return blocks


def _merge(rows, cols, vals, n: int, p: int):
    """Entries sorted by (row, col), equal positions summed mod p and zeros
    dropped; ``vals`` must be nonzero mod p, so only summed entries vanish."""
    rc = rows * n + cols
    order = rc.argsort(kind="stable")
    rc, vals = rc[order], vals[order] % p
    repeat = rc[1:] == rc[:-1]
    if repeat.any():
        first = np.concatenate(([0], (~repeat).nonzero()[0] + 1))
        vals = np.add.reduceat(vals, first) % p
        rc = rc[first]
        rc, vals = rc[vals != 0], vals[vals != 0]
    return (*np.divmod(rc, n), vals)


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
    """

    __slots__ = ("module", "degs", "d", "_ranges", "_offsets", "_place", "_mons", "_gen", "_order", "_basis")

    def __init__(self, module: SemifreeDgModule, jlo: int, jhi: int):
        self.module = module
        A = module.algebra
        key = A.key()
        ranges = self._ranges = _spans(A, jlo, jhi, module.gens)
        tables = [_table(key, *r) for r in ranges]
        sizes = [len(mons) for mons, _ in tables]
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
        self._mons, self._gen, self._order, self._basis = [ms for ms, _ in tables], gen, order, None
        self.d = self._assemble(_d_blocks(module, ranges))

    def __len__(self):
        return len(self.degs)

    @property
    def basis(self) -> list:
        """The basis as (k, monomial) pairs; built on first use."""
        if self._basis is None:
            mons = [mon for ms in self._mons for mon in ms]
            gen = self._gen[self._order].tolist()
            self._basis = list(zip(gen, map(mons.__getitem__, self._order.tolist())))
        return self._basis

    def _assemble(self, blocks):
        """Sum over blocks (block, k, l, coeff) of coeff times the block
        taken from the rows of generator k to those of generator l."""
        blocks = [b for b in blocks if b[0].shape[1]]
        if not blocks:
            return tuple(_frozen_block([]))
        off = self._offsets
        src, dst, sign = np.concatenate([b for b, _, _, _ in blocks], axis=1)
        lens = [b.shape[1] for b, _, _, _ in blocks]
        src_off, dst_off, coeff = np.array([(off[k], off[l], c) for _, k, l, c in blocks]).T.repeat(lens, axis=1)
        rows, cols = self._place[src + src_off], self._place[dst + dst_off]
        return _merge(rows, cols, sign * coeff, len(self.degs), self.module.algebra.p)

    def action(self, is_ext: bool, g: int):
        """Left action of one algebra generator as (rows, cols, coeffs),
        sorted by row; images outside the range are dropped."""
        A = self.module.algebra
        mon = A.gen_monomial(is_ext, g)
        return self._assemble([(_block(A.key(), r, r, mon, True), k, k, 1) for k, r in enumerate(self._ranges)])


# Largest dense cell _column_cohomology will allocate, in entries.  The
# e = f = 5 round trip at p = 3, seed 2024, trials 0-2 needs at most a
# 5160 x 7035 cell (36.3M entries); 64M entries (512 MB as int64, twice
# that while rref reduces its copy) is a margin of 1.76 over it.  Trial 3
# needs an 8610 x 16500 cell (142M entries) and is refused.
MAX_RANK_CELLS = 64_000_000


def _column_cohomology(degs: np.ndarray, d, window: Window, p: int) -> BigradedDims:
    """Exact cohomology on the window from basis bidegrees and a differential.

    degs: (n, 2) array of basis bidegrees in lexicographic order, complete
    per column; d: arrays (rows, cols, coeffs) sorted by row.  Entries that
    do not have bidegree (1, 0) are ignored.

    h^{i,j} = dim C^{i,j} - rank(C^{i,j} -> C^{i+1,j}) - rank(C^{i-1,j} -> C^{i,j}),
    so the only ranks taken are those of the maps out of bidegrees (i, j)
    with i0 - 1 <= i <= i1 and j0 <= j <= j1.  Each is the rank of the
    whole map between two complete cells, so every reported h is exact;
    no other cell is ever made dense.  ValueError when a needed cell has
    more than MAX_RANK_CELLS entries, before anything is allocated.
    """
    out = BigradedDims()
    lo, hi = window.i0 - 1, window.i1  # cohomological degrees of the ranked maps' sources
    rows, cols, vals = d
    if len(rows):
        code = degs[:, 0] << 32 | degs[:, 1] & 0xFFFFFFFF  # one int per bidegree
        src_i = degs[rows, 0]
        live = (code[cols] - code[rows] == 1 << 32) & (lo <= src_i) & (src_i <= hi)
        rows, cols, vals = rows[live], cols[live], vals[live]
    # cells: runs of one bidegree, with their entries as slices of d
    bds = list(map(tuple, degs.tolist()))
    bounds = [n for n in range(len(bds)) if n == 0 or bds[n] != bds[n - 1]] + [len(bds)]
    ebounds = rows.searchsorted(bounds).tolist()
    cells = {bds[b]: c for c, b in enumerate(bounds[:-1])}
    size = {bd: bounds[c + 1] - bounds[c] for bd, c in cells.items()}
    j0, j1 = window.j0, window.j1
    maps = [((i, j), (i + 1, j)) for i, j in cells if lo <= i <= hi and j0 <= j <= j1 and (i + 1, j) in cells]
    if maps:
        src, tgt = max(maps, key=lambda m: size[m[0]] * size[m[1]])
        if size[src] * size[tgt] > MAX_RANK_CELLS:
            raise ValueError(
                f"the map out of bidegree {src} needs a dense {size[src]} x {size[tgt]} cell "
                f"({size[src] * size[tgt] * 8:,} bytes as int64), over the limit of {MAX_RANK_CELLS:,} entries"
            )
    ranks = {}
    for src, tgt in maps:
        c, t = cells[src], cells[tgt]
        a = np.zeros((size[src], size[tgt]), dtype=np.int64)
        e = slice(ebounds[c], ebounds[c + 1])
        a[rows[e] - bounds[c], cols[e] - bounds[t]] = vals[e]
        ranks[src] = mat_rank(a, p)
    for (i, j), n in size.items():
        h = n - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
        if h and window.contains((i, j)):
            out[(i, j)] = h
    return out


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
    """True when cone(phi) has no cohomology anywhere on the window; phi is
    not checked (see ``cone``)."""
    return not cohomology(cone(phi), window)


def _dense(matrix, shape, p: int) -> np.ndarray:
    """``matrix`` as an int64 array reduced mod p, zeros when it is None;
    ValueError unless it has the given shape."""
    m = np.zeros(shape, dtype=np.int64) if matrix is None else np.asarray(matrix, dtype=np.int64) % p
    if m.shape != shape:
        raise ValueError(f"matrix of shape {m.shape}, expected {shape}")
    return m


class FiniteDgModule:
    """A bigraded complex with finite basis and explicit generator actions.

    ``basis_degs`` is an (n, 2) int64 array of basis bidegrees.  d and the
    actions are dense (n, n) int64 matrices reduced mod p, with row =
    source: d[k, l] is the coefficient of b_l in d(b_k), of bidegree
    (1, 0), and sym_act[s] and ext_act[g] give the left action of single
    algebra generators the same way.  A row vector v maps to v @ d, so a
    composite "first a, then b" is a @ b.  Modules produced by expanding
    semifree objects satisfy the axioms by construction; validate()
    re-checks them for hand-built inputs.
    """

    __slots__ = ("algebra", "basis_degs", "d", "sym_act", "ext_act")

    def __init__(self, algebra: AlgebraSpec, basis_degs, d=None, sym_act=None, ext_act=None):
        degs = np.array(basis_degs, dtype=np.int64) if len(basis_degs) else np.zeros((0, 2), np.int64)
        if degs.ndim != 2 or degs.shape[1] != 2:
            raise ValueError(f"basis degrees must be (i, j) pairs, got shape {degs.shape}")
        n, p = len(degs), algebra.p
        self.algebra = algebra
        self.basis_degs = degs
        self.d = _dense(d, (n, n), p)
        acts = []
        for given, count, kind in ((sym_act, algebra.n_sym, "sym"), (ext_act, algebra.n_ext, "ext")):
            if given is not None and len(given) != count:
                raise ValueError(f"{len(given)} {kind} action matrices, expected {count}")
            acts.append([_dense(m, (n, n), p) for m in (given if given is not None else [None] * count)])
        self.sym_act, self.ext_act = acts

    @property
    def dim(self) -> int:
        return len(self.basis_degs)

    def apply_element(self, element: dict, vec: np.ndarray) -> np.ndarray:
        """Left action of an algebra element on a row vector; ext factors
        applied in ascending index order from the right."""
        p = self.algebra.p
        out = np.zeros_like(vec)
        for (exps, mask), coeff in element.items():
            cur = vec * coeff
            for b in reversed(range(self.algebra.n_ext)):
                if mask >> b & 1:
                    cur = cur @ self.ext_act[b] % p
            for s, e in enumerate(exps):
                for _ in range(e):
                    cur = cur @ self.sym_act[s] % p
            out += cur
        return out % p

    def validate(self) -> list[str]:
        p = self.algebra.p
        d, degs = self.d, self.basis_degs
        rows, cols = d.nonzero()
        wrong = (degs[cols] - degs[rows] != ONE_SHIFT).any(axis=1)
        issues = [f"d entry {n}->{m} is not of bidegree (1,0)" for n, m in zip(rows[wrong].tolist(), cols[wrong].tolist())]
        for kind, acts, deg in (("sym", self.sym_act, self.algebra.sym_deg), ("ext", self.ext_act, self.algebra.ext_deg)):
            for g, act in enumerate(acts):
                rows, cols = act.nonzero()
                wrong = (degs[cols] - degs[rows] != deg).any(axis=1)
                issues += [
                    f"{kind} generator {g} entry {n}->{m} is not of bidegree {deg}"
                    for n, m in zip(rows[wrong].tolist(), cols[wrong].tolist())
                ]
        if (d @ d % p).any():
            issues.append("d^2 != 0")
        for g, act in enumerate(self.ext_act):
            if (act @ act % p).any():
                issues.append(f"ext generator {g} does not square to zero")
            # Leibniz: d(theta m) = d_A(theta) m - theta d(m)
            residue = act @ d + d @ act
            tgt = self.algebra.d_ext_target(g)
            if tgt is not None:
                residue -= self.sym_act[tgt]
            if (residue % p).any():
                issues.append(f"Leibniz fails for ext generator {g}")
        for s, act in enumerate(self.sym_act):
            if ((act @ d - d @ act) % p).any():
                issues.append(f"sym generator {s} does not commute with d")
        return issues

    def cohomology(self, window: Window) -> BigradedDims:
        order = np.lexsort((self.basis_degs[:, 1], self.basis_degs[:, 0]))
        d = self.d[np.ix_(order, order)]
        rows, cols = d.nonzero()
        return _column_cohomology(self.basis_degs[order], (rows, cols, d[rows, cols]), window, self.algebra.p)

    def shift(self, a: int, b: int) -> "FiniteDgModule":
        """[a]<b>: d picks up (-1)^a, odd generator actions pick up (-1)^a."""
        sgn = -1 if a & 1 else 1
        return FiniteDgModule(
            self.algebra, self.basis_degs + (-a, b), sgn * self.d, self.sym_act, [sgn * m for m in self.ext_act]
        )


def _scatter(coo, n: int) -> np.ndarray:
    """COO arrays (rows, cols, coeffs) as a dense (n, n) matrix."""
    rows, cols, vals = coo
    m = np.zeros((n, n), dtype=np.int64)
    m[rows, cols] = vals
    return m


def expansion_to_finite(exp: Expansion) -> FiniteDgModule:
    """Materialize an expansion with full generator-action matrices."""
    A, n = exp.module.algebra, len(exp)
    sym_act = [_scatter(exp.action(False, s), n) for s in range(A.n_sym)]
    ext_act = [_scatter(exp.action(True, g), n) for g in range(A.n_ext)]
    return FiniteDgModule(A, exp.degs, _scatter(exp.d, n), sym_act, ext_act)


class FiniteMap:
    """Scalar chain map between finite modules: a dense (n_src, n_tgt)
    int64 matrix reduced mod p, row = source: matrix[k, l] is the
    coefficient of target basis element l in the image of source basis
    element k."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FiniteDgModule, target: FiniteDgModule, matrix):
        self.source = source
        self.target = target
        self.matrix = _dense(matrix, (source.dim, target.dim), source.algebra.p)

    def validate(self) -> list[str]:
        rows, cols = self.matrix.nonzero()
        wrong = (self.source.basis_degs[rows] != self.target.basis_degs[cols]).any(axis=1)
        issues = [f"map entry {n}->{m} is not of bidegree (0,0)" for n, m in zip(rows[wrong].tolist(), cols[wrong].tolist())]
        residue = (self.source.d @ self.matrix - self.matrix @ self.target.d) % self.source.algebra.p
        return issues + [f"chain condition fails at basis element {n}" for n in residue.any(axis=1).nonzero()[0].tolist()]


def cone_finite(phi: FiniteMap) -> FiniteDgModule:
    """Cone of a scalar chain map; actions are dropped (cohomology only)."""
    src, tgt = phi.source, phi.target
    degs = np.concatenate([tgt.basis_degs, src.basis_degs - ONE_SHIFT])
    d = np.block([[tgt.d, np.zeros((tgt.dim, src.dim), np.int64)], [phi.matrix, -src.d]])
    return FiniteDgModule(src.algebra, degs, d)


class SemifreeToFiniteMap:
    """Chain map from a semifree module to a finite one.

    images is a dense (rank, n_tgt) int64 matrix reduced mod p: row k is
    the image of generator k over the finite module's basis; images of
    algebra multiples follow by the module action.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: SemifreeDgModule, target: FiniteDgModule, images=None):
        self.source = source
        self.target = target
        self.images = _dense(images, (source.rank, target.dim), target.algebra.p)

    def validate(self) -> list[str]:
        issues = []
        for k, vec in enumerate(self.images):
            want = self.source.gens[k]
            if (self.target.basis_degs[vec.nonzero()[0]] != want).any():
                issues.append(f"image of gen {k} is not homogeneous of {want}")
        p = self.target.algebra.p
        for k in range(self.source.rank):
            acc = -self.images[k] @ self.target.d
            for l, entry in self.source.diff.get(k, {}).items():
                acc += self.target.apply_element(entry, self.images[l])
            if (acc % p).any():
                issues.append(f"chain condition fails at generator {k}")
        return issues

    def to_finite(self, jlo: int, jhi: int):
        """Expand the source and return (expansion, FiniteMap)."""
        exp = Expansion(self.source, jlo, jhi)
        fin_src = expansion_to_finite(exp)
        matrix = [self.target.apply_element({mon: 1}, self.images[k]) for k, mon in exp.basis]
        return exp, FiniteMap(fin_src, self.target, np.reshape(matrix, (len(exp), self.target.dim)))


def semifree_resolution(module, depth: int = 3):
    """Semifree approximation of a finite dg-module over T.

    Adjoins free generators killing cone cohomology, sweeping internal
    degrees upward, until the cone of the structure map is acyclic in all
    internal degrees <= max internal degree of the input + 2*depth (new
    syzygies of an exterior algebra appear in strictly higher internal
    degree, never below).  Returns (P, psi) with psi: P -> M the structure
    map; a SemifreeDgModule input is returned unchanged with the identity.
    """
    if isinstance(module, SemifreeDgModule):
        return module, identity_map(module)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    M: FiniteDgModule = module
    A = M.algebra
    if A.kind != "T":
        raise ValueError("resolutions are implemented over the exterior algebra T")
    P = free_module(A, [])
    psi = SemifreeToFiniteMap(P, M)
    if M.dim == 0:
        return P, psi
    jmax = int(M.basis_degs[:, 1].max()) + 2 * depth
    jmin = int(M.basis_degs[:, 1].min()) - 2
    for j in range(jmin, jmax + 1):
        while True:
            exp, fmap = psi.to_finite(jmin, jmax)
            fin_cone = cone_finite(fmap)
            reps = _cocycle_complement(fin_cone, j)
            if not reps:
                break
            off = fmap.target.dim  # M part comes first in the cone
            new_gens = list(P.gens)
            new_diff = {k: dict(row) for k, row in P.diff.items()}
            for i, vec in reps:
                row: dict[int, dict] = {}
                src = vec[off:]
                for n in src.nonzero()[0].tolist():
                    k, mon = exp.basis[n]
                    row.setdefault(k, {})[mon] = int(src[n])
                new_diff[len(new_gens)] = row
                new_gens.append((i, j))
            P = SemifreeDgModule(A, new_gens, new_diff)
            psi = SemifreeToFiniteMap(P, M, np.vstack([psi.images] + [-vec[:off] for _, vec in reps]))
    return P, psi


def _cocycle_complement(fin: FiniteDgModule, j: int):
    """Homogeneous cocycles spanning H^{*, j}, as (i, dense vector) pairs."""
    p = fin.algebra.p
    degs = fin.basis_degs
    in_j = degs[:, 1] == j
    out = []
    for i in sorted(set(degs[in_j, 0].tolist())):
        idxs, tgt, src = ((in_j & (degs[:, 0] == c)).nonzero()[0] for c in (i, i + 1, i - 1))
        ker = kernel_basis(fin.d[np.ix_(idxs, tgt)].T, p)  # columns: cocycles in idxs-coordinates
        if ker.shape[1] == 0:
            continue
        for col in independent_columns(fin.d[np.ix_(src, idxs)].T, ker, p):
            vec = np.zeros(fin.dim, dtype=np.int64)
            vec[idxs] = ker[:, col]
            out.append((i, vec))
    return out


def serialize_module(module: SemifreeDgModule) -> str:
    """Deterministic JSON for a semifree module."""
    entries = []
    for k in sorted(module.diff):
        for l in sorted(module.diff[k]):
            terms = [
                [c, list(mon[0]), mon[1]]
                for mon, c in sorted(module.diff[k][l].items())
            ]
            entries.append([k, l, terms])
    doc = {
        "schema": 1,
        "algebra": {
            "kind": module.algebra.kind,
            "e": module.algebra.e,
            "f": module.algebra.f,
            "p": module.algebra.p,
        },
        "gens": [list(g) for g in module.gens],
        "diff": entries,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_int(value, what: str, lo=None, hi=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        raise ValueError(f"{what} {value} is out of range")
    return value


def deserialize_module(text: str) -> SemifreeDgModule:
    """Parse and validate the JSON of ``serialize_module``; ValueError on
    any malformed or invalid input."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ValueError("not a module document of schema 1")
    a = doc["algebra"]
    algebra = make_algebra(a["kind"], *(_check_int(a[x], x) for x in "efp"))
    gens = []
    for g in doc["gens"]:
        if len(g) != 2:
            raise ValueError(f"generator bidegree must be a pair, got {g!r}")
        gens.append(tuple(_check_int(x, "generator degree") for x in g))
    diff: dict[int, dict[int, dict]] = {}
    for k, l, terms in doc["diff"]:
        _check_int(k, "generator index", 0, len(gens))
        _check_int(l, "generator index", 0, len(gens))
        entry = {}
        for c, exps, mask in terms:
            _check_int(c, "coefficient")
            if len(exps) != algebra.n_sym:
                raise ValueError(f"exponent vector {exps!r} must have length {algebra.n_sym}")
            exps = tuple(_check_int(x, "exponent", 0) for x in exps)
            entry[(exps, _check_int(mask, "ext mask", 0, 1 << algebra.n_ext))] = c
        diff.setdefault(k, {})[l] = entry
    mod = SemifreeDgModule(algebra, gens, diff)
    issues = mod.validate()
    if issues:
        raise ValueError("invalid module: " + "; ".join(issues))
    return mod
