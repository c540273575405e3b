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
every cohomological degree, so ranks are computed over the whole column and
a window only selects which bidegrees are reported.
"""

from __future__ import annotations

import json

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
    monomial_bidegree,
    monomials_by_internal,
    mul_monomials,
)
from .bigraded import Bidegree, BigradedDims, Window, bidegree_add, bidegree_sub
from .linalg import rank as mat_rank

ONE_SHIFT = (1, 0)  # bidegree of every differential


def _entry_degree(gens, k: int, l: int) -> int:
    """Cohomological degree of a differential entry from gen k to gen l."""
    return gens[k][0] - gens[l][0] + 1


class SemifreeDgModule:
    __slots__ = ("algebra", "gens", "diff")

    def __init__(self, algebra: AlgebraSpec, gens, diff=None):
        self.algebra = algebra
        self.gens: tuple[Bidegree, ...] = tuple((int(i), int(j)) for i, j in gens)
        self.diff: dict[int, dict[int, dict]] = {}
        if diff:
            for k, row in diff.items():
                clean = {}
                for l, entry in row.items():
                    entry = alg_mod.elt(algebra, entry)
                    if entry:
                        clean[l] = entry
                if clean:
                    self.diff[k] = clean

    @property
    def rank(self) -> int:
        return len(self.gens)

    def entry(self, k: int, l: int) -> dict:
        return self.diff.get(k, {}).get(l, {})

    def gen_window(self) -> Window:
        return Window.hull(self.gens)

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
                sign = -1 if (a * (c + 1)) & 1 else 1
                new_row[l] = elt_scale(self.algebra, entry, sign)
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
                sign = -1 if ((c * (c - 1)) // 2) & 1 else 1
                diff.setdefault(k, {})[l] = elt_scale(self.algebra, entry, sign)
        return SemifreeDgModule(self.algebra, gens, diff)

    def direct_sum(self, other: "SemifreeDgModule") -> "SemifreeDgModule":
        if other.algebra != self.algebra:
            raise ValueError("direct sum needs a common algebra")
        off = self.rank
        gens = self.gens + other.gens
        diff = {k: dict(row) for k, row in self.diff.items()}
        for k, row in other.diff.items():
            diff[k + off] = {l + off: e for l, e in row.items()}
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
    source.gens[k] - target.gens[l].
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: SemifreeDgModule, target: SemifreeDgModule, matrix):
        if source.algebra != target.algebra:
            raise ValueError("chain map needs a common algebra")
        self.source = source
        self.target = target
        self.matrix: dict[int, dict[int, dict]] = {}
        for k, row in (matrix or {}).items():
            clean = {}
            for l, entry in row.items():
                entry = alg_mod.elt(source.algebra, entry)
                if entry:
                    clean[l] = entry
            if clean:
                self.matrix[k] = clean

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


def zero_map(source: SemifreeDgModule, target: SemifreeDgModule) -> DgMap:
    return DgMap(source, target, {})


def cone(phi: DgMap, check: bool = True) -> SemifreeDgModule:
    """Mapping cone target + source[1] with the standard differential."""
    if check:
        issues = phi.validate()
        if issues:
            raise ValueError("cone of a non-chain-map: " + "; ".join(issues))
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


def _d_terms(module: SemifreeDgModule, k: int, mon):
    """Terms ((l, monomial), coeff) of d(mon . e_k), unreduced mod p.

    d(m e_k) = d_A(m) e_k + (-1)^{|m|} m sum_l diff[k][l] e_l; the same
    (l, monomial) pair may come more than once.
    """
    A = module.algebra
    for mon2, c in elt_d(A, {mon: 1}).items():
        yield (k, mon2), c
    sign = -1 if monomial_bidegree(A, mon)[0] & 1 else 1
    for l, entry in module.diff.get(k, {}).items():
        for mon2, c in elt_mul(A, {mon: 1}, entry).items():
            yield (l, mon2), sign * c


class Expansion:
    """Bigraded basis of a semifree module on an internal-degree range.

    The basis at each bidegree is complete; truncation only discards whole
    generators outside [jlo, jhi] influence, so within the range the
    expansion computes honest cohomology.  Generator actions that would
    leave the range are projected away (a quotient in the raising
    direction, a submodule in the lowering one).
    """

    __slots__ = ("module", "jlo", "jhi", "basis", "index", "by_bidegree", "_dcache")

    def __init__(self, module: SemifreeDgModule, jlo: int, jhi: int):
        self.module = module
        self.jlo, self.jhi = jlo, jhi
        A = module.algebra
        basis = []
        for k, (gi, gj) in enumerate(module.gens):
            table = monomials_by_internal(A, jlo - gj, jhi - gj)
            for (mi, mj), mons in table.items():
                bd = (gi + mi, gj + mj)
                for mon in mons:
                    basis.append((bd, k, mon))
        basis.sort()
        self.basis = [(k, mon) for (_, k, mon) in basis]
        self.index = {pair: n for n, pair in enumerate(self.basis)}
        self.by_bidegree: dict[Bidegree, list[int]] = {}
        for n, (bd, _, _) in enumerate(basis):
            self.by_bidegree.setdefault(bd, []).append(n)
        self._dcache = {}

    def __len__(self):
        return len(self.basis)

    def bidegree_of(self, n: int) -> Bidegree:
        k, mon = self.basis[n]
        return bidegree_add(self.module.gens[k], monomial_bidegree(self.module.algebra, mon))

    def d_of(self, n: int):
        """Differential of basis element n as [(index, coeff)], exact."""
        cached = self._dcache.get(n)
        if cached is not None:
            return cached
        p = self.module.algebra.p
        out: dict[int, int] = {}
        for key, c in _d_terms(self.module, *self.basis[n]):
            m = self.index.get(key)
            if m is not None:
                out[m] = out.get(m, 0) + c
        result = [(m, c % p) for m, c in sorted(out.items()) if c % p]
        self._dcache[n] = result
        return result

    def act(self, is_ext: bool, g: int, n: int):
        """Left action of a single algebra generator on basis element n."""
        A = self.module.algebra
        k, mon = self.basis[n]
        prod = mul_monomials(A, A.gen_monomial(is_ext, g), mon)
        if prod is None:
            return []
        mon2, sign = prod
        m = self.index.get((k, mon2))
        if m is None:
            return []
        return [(m, sign % A.p)]

    def dims(self) -> BigradedDims:
        return BigradedDims({bd: len(v) for bd, v in self.by_bidegree.items()})


def _column_cohomology(degs_at, d_of, window: Window, p: int) -> BigradedDims:
    """Exact cohomology from a per-bidegree basis and a differential callback.

    degs_at: dict bidegree -> list of basis indices (complete per column).
    """
    out = BigradedDims()
    for j in range(window.j0, window.j1 + 1):
        cells = {bd[0]: idxs for bd, idxs in degs_at.items() if bd[1] == j}
        if not cells:
            continue
        ranks: dict[int, int] = {}
        for i, idxs in cells.items():
            tgt = cells.get(i + 1, [])
            if not tgt:
                ranks[i] = 0
                continue
            pos = {m: c for c, m in enumerate(tgt)}
            a = np.zeros((len(idxs), len(tgt)), dtype=np.int64)
            for r, n in enumerate(idxs):
                for m, coeff in d_of(n):
                    col = pos.get(m)
                    if col is not None:
                        a[r, col] = coeff
            ranks[i] = mat_rank(a, p)
        for i, idxs in cells.items():
            if not (window.i0 <= i <= window.i1):
                continue
            h = len(idxs) - ranks.get(i, 0) - ranks.get(i - 1, 0)
            if h:
                out[(i, j)] = h
    return out


def cohomology(module: SemifreeDgModule, window: Window) -> BigradedDims:
    """Bigraded cohomology dimensions of a semifree module on a window.

    Exact on the window: each internal-degree column is expanded over all
    cohomological degrees before ranks are taken.
    """
    exp = Expansion(module, window.j0, window.j1)
    return _column_cohomology(exp.by_bidegree, exp.d_of, window, module.algebra.p)


def expansion_dims(module: SemifreeDgModule, window: Window) -> BigradedDims:
    exp = Expansion(module, window.j0, window.j1)
    table = exp.dims()
    return BigradedDims({bd: d for bd, d in table.table.items() if window.contains(bd)})


def is_quasi_iso(phi: DgMap, window: Window, check: bool = True) -> bool:
    """True when cone(phi) has no cohomology anywhere on the window."""
    c = cone(phi, check=check)
    return not cohomology(c, window)


class FiniteDgModule:
    """A bigraded complex with finite basis and explicit generator actions.

    d is scalar: d(b_k) = sum_l d[k][l] b_l with d of bidegree (1, 0).
    sym_act[s] and ext_act[g] give the left action of single algebra
    generators in the same row-major sparse form.  Modules produced by
    expanding semifree objects satisfy the axioms by construction;
    validate() re-checks them for hand-built inputs.
    """

    __slots__ = ("algebra", "basis_degs", "d", "sym_act", "ext_act")

    def __init__(self, algebra: AlgebraSpec, basis_degs, d=None, sym_act=None, ext_act=None):
        self.algebra = algebra
        self.basis_degs = tuple((int(i), int(j)) for i, j in basis_degs)
        self.d = _clean_scalar(d, algebra.p)
        self.sym_act = [_clean_scalar(m, algebra.p) for m in (sym_act or [{} for _ in range(algebra.n_sym)])]
        self.ext_act = [_clean_scalar(m, algebra.p) for m in (ext_act or [{} for _ in range(algebra.n_ext)])]

    @property
    def dim(self) -> int:
        return len(self.basis_degs)

    def by_bidegree(self) -> dict[Bidegree, list[int]]:
        out: dict[Bidegree, list[int]] = {}
        for n, bd in enumerate(self.basis_degs):
            out.setdefault(bd, []).append(n)
        return out

    def d_of(self, n: int):
        return sorted(self.d.get(n, {}).items())

    def apply_matrix(self, matrix, vec: dict) -> dict:
        p = self.algebra.p
        out: dict[int, int] = {}
        for n, c in vec.items():
            for m, a in matrix.get(n, {}).items():
                v = (out.get(m, 0) + c * a) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    def apply_element(self, element: dict, vec: dict) -> dict:
        """Left action of an algebra element; ext factors applied in
        ascending index order from the right."""
        p = self.algebra.p
        out: dict[int, int] = {}
        for (exps, mask), coeff in element.items():
            cur = {n: c * coeff % p for n, c in vec.items()}
            bits = [b for b in range(self.algebra.n_ext) if mask >> b & 1]
            for b in reversed(bits):
                cur = self.apply_matrix(self.ext_act[b], cur)
            for s, e in enumerate(exps):
                for _ in range(e):
                    cur = self.apply_matrix(self.sym_act[s], cur)
            for n, c in cur.items():
                v = (out.get(n, 0) + c) % p
                if v:
                    out[n] = v
                else:
                    out.pop(n, None)
        return {n: c for n, c in out.items() if c}

    def validate(self) -> list[str]:
        issues = []
        p = self.algebra.p
        dim = self.dim

        def compose(a, b):
            out = {}
            for n in range(dim):
                row = {}
                for m, c in b.get(n, {}).items():
                    for q, c2 in a.get(m, {}).items():
                        row[q] = (row.get(q, 0) + c * c2) % p
                row = {q: c for q, c in row.items() if c}
                if row:
                    out[n] = row
            return out

        def add(a, b, scale=1):
            out = {n: dict(row) for n, row in a.items()}
            for n, row in b.items():
                tgt = out.setdefault(n, {})
                for m, c in row.items():
                    v = (tgt.get(m, 0) + scale * c) % p
                    if v:
                        tgt[m] = v
                    else:
                        tgt.pop(m, None)
            return {n: row for n, row in out.items() if row}

        for n, row in self.d.items():
            for m, c in row.items():
                if bidegree_sub(self.basis_degs[m], self.basis_degs[n]) != ONE_SHIFT:
                    issues.append(f"d entry {n}->{m} is not of bidegree (1,0)")
        if compose(self.d, self.d):
            issues.append("d^2 != 0")
        for g, act in enumerate(self.ext_act):
            if compose(act, act):
                issues.append(f"ext generator {g} does not square to zero")
            # Leibniz: d(theta m) = d_A(theta) m - theta d(m)
            lhs = compose(self.d, act)
            rhs = add({}, compose(act, self.d), -1)
            tgt = self.algebra.d_ext_target(g)
            if tgt is not None:
                rhs = add(rhs, self.sym_act[tgt])
            if add(lhs, rhs, -1):
                issues.append(f"Leibniz fails for ext generator {g}")
        for s, act in enumerate(self.sym_act):
            if add(compose(self.d, act), compose(act, self.d), -1):
                issues.append(f"sym generator {s} does not commute with d")
        return issues

    def cohomology(self, window: Window) -> BigradedDims:
        return _column_cohomology(self.by_bidegree(), self.d_of, window, self.algebra.p)

    def shift(self, a: int, b: int) -> "FiniteDgModule":
        """[a]<b>: d picks up (-1)^a, odd generator actions pick up (-1)^a."""
        degs = tuple((i - a, j + b) for i, j in self.basis_degs)
        sgn = -1 if a & 1 else 1
        d = {n: {m: (sgn * c) % self.algebra.p for m, c in row.items()} for n, row in self.d.items()}
        ext = [
            {n: {m: (sgn * c) % self.algebra.p for m, c in row.items()} for n, row in act.items()}
            for act in self.ext_act
        ]
        return FiniteDgModule(self.algebra, degs, d, [dict(m) for m in self.sym_act], ext)


def _clean_scalar(matrix, p: int):
    out = {}
    for n, row in (matrix or {}).items():
        clean = {m: c % p for m, c in row.items() if c % p}
        if clean:
            out[int(n)] = clean
    return out


def expansion_to_finite(exp: Expansion) -> FiniteDgModule:
    """Materialize an expansion with full generator-action matrices."""
    A = exp.module.algebra
    degs = [exp.bidegree_of(n) for n in range(len(exp))]
    d = {n: dict(exp.d_of(n)) for n in range(len(exp))}
    sym_act = [
        {n: dict(exp.act(False, s, n)) for n in range(len(exp))} for s in range(A.n_sym)
    ]
    ext_act = [
        {n: dict(exp.act(True, g, n)) for n in range(len(exp))} for g in range(A.n_ext)
    ]
    return FiniteDgModule(A, degs, d, sym_act, ext_act)


def trivial_module(algebra: AlgebraSpec, bidegree: Bidegree = (0, 0)) -> FiniteDgModule:
    """The one-dimensional module with every generator acting by zero."""
    return FiniteDgModule(algebra, [bidegree])


class FiniteMap:
    """Scalar chain map between finite modules: matrix[k][l], row = source."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FiniteDgModule, target: FiniteDgModule, matrix):
        self.source = source
        self.target = target
        self.matrix = _clean_scalar(matrix, source.algebra.p)

    def validate(self) -> list[str]:
        issues = []
        p = self.source.algebra.p
        for n, row in self.matrix.items():
            for m, _ in row.items():
                if self.source.basis_degs[n] != self.target.basis_degs[m]:
                    issues.append(f"map entry {n}->{m} is not of bidegree (0,0)")
        for n in range(self.source.dim):
            acc: dict[int, int] = {}
            for l, c in self.source.d.get(n, {}).items():
                for m, c2 in self.matrix.get(l, {}).items():
                    acc[m] = (acc.get(m, 0) + c * c2) % p
            for l, c in self.matrix.get(n, {}).items():
                for m, c2 in self.target.d.get(l, {}).items():
                    acc[m] = (acc.get(m, 0) - c * c2) % p
            if any(acc.values()):
                issues.append(f"chain condition fails at basis element {n}")
        return issues


def cone_finite(phi: FiniteMap) -> FiniteDgModule:
    """Cone of a scalar chain map; actions are dropped (cohomology only)."""
    src, tgt = phi.source, phi.target
    p = src.algebra.p
    off = tgt.dim
    degs = list(tgt.basis_degs) + [(i - 1, j) for i, j in src.basis_degs]
    d = {n: dict(row) for n, row in tgt.d.items()}
    for n, row in src.d.items():
        d[n + off] = {m + off: (-c) % p for m, c in row.items()}
    for n, row in phi.matrix.items():
        d.setdefault(n + off, {}).update({m: c for m, c in row.items()})
    return FiniteDgModule(src.algebra, degs, d)


class SemifreeToFiniteMap:
    """Chain map from a semifree module to a finite one.

    images[k] is the image of generator k as a sparse vector over the
    finite module's basis; images of algebra multiples follow by the
    module action.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: SemifreeDgModule, target: FiniteDgModule, images):
        self.source = source
        self.target = target
        p = target.algebra.p
        self.images = {
            int(k): {int(n): c % p for n, c in vec.items() if c % p}
            for k, vec in (images or {}).items()
            if any(c % p for c in vec.values())
        }

    def validate(self) -> list[str]:
        issues = []
        for k, vec in self.images.items():
            want = self.source.gens[k]
            for n in vec:
                if self.target.basis_degs[n] != want:
                    issues.append(f"image of gen {k} is not homogeneous of {want}")
                    break
        p = self.target.algebra.p
        for k in range(self.source.rank):
            acc: dict[int, int] = {}
            for l, entry in self.source.diff.get(k, {}).items():
                img = self.target.apply_element(entry, self.images.get(l, {}))
                for n, c in img.items():
                    acc[n] = (acc.get(n, 0) + c) % p
            for n, c in self.target.apply_matrix(self.target.d, self.images.get(k, {})).items():
                acc[n] = (acc.get(n, 0) - c) % p
            if any(acc.values()):
                issues.append(f"chain condition fails at generator {k}")
        return issues

    def to_finite(self, jlo: int, jhi: int):
        """Expand the source and return (expansion, FiniteMap)."""
        exp = Expansion(self.source, jlo, jhi)
        fin_src = expansion_to_finite(exp)
        matrix = {}
        for n, (k, mon) in enumerate(exp.basis):
            img = self.target.apply_element({mon: 1}, self.images.get(k, {}))
            if img:
                matrix[n] = img
        return exp, FiniteMap(fin_src, self.target, matrix)


def cone_semifree_to_finite(psi: SemifreeToFiniteMap, jlo: int, jhi: int) -> FiniteDgModule:
    _, fmap = psi.to_finite(jlo, jhi)
    return cone_finite(fmap)


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
    if M.dim == 0:
        P = free_module(A, [])
        return P, SemifreeToFiniteMap(P, M, {})
    jmax = max(j for _, j in M.basis_degs) + 2 * depth
    jmin = min(j for _, j in M.basis_degs) - 2
    P = free_module(A, [])
    psi = SemifreeToFiniteMap(P, M, {})
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
            new_images = {k: dict(v) for k, v in psi.images.items()}
            for i, vec in reps:
                g = len(new_gens)
                new_gens.append((i, j))
                row: dict[int, dict] = {}
                img: dict[int, int] = {}
                for n, c in vec.items():
                    if n < off:
                        img[n] = -c
                    else:
                        k, mon = exp.basis[n - off]
                        entry = row.setdefault(k, {})
                        entry[mon] = entry.get(mon, 0) + c
                new_diff[g] = row
                new_images[g] = img
            P = SemifreeDgModule(A, new_gens, new_diff)
            psi = SemifreeToFiniteMap(P, M, new_images)
    return P, psi


def _cocycle_complement(fin: FiniteDgModule, j: int):
    """Homogeneous cocycles spanning H^{*, j}, as (i, sparse vector) pairs."""
    p = fin.algebra.p
    cells: dict[int, list[int]] = {}
    for n, (i, jj) in enumerate(fin.basis_degs):
        if jj == j:
            cells.setdefault(i, []).append(n)
    out = []
    for i in sorted(cells):
        idxs = cells[i]
        tgt = cells.get(i + 1, [])
        pos = {m: c for c, m in enumerate(tgt)}
        a = np.zeros((len(tgt), len(idxs)), dtype=np.int64)
        for c, n in enumerate(idxs):
            for m, coeff in fin.d.get(n, {}).items():
                r = pos.get(m)
                if r is not None:
                    a[r, c] = coeff
        from .linalg import kernel_basis

        ker = kernel_basis(a, p)  # columns: cocycles in idxs-coordinates
        if ker.shape[1] == 0:
            continue
        src = cells.get(i - 1, [])
        here = {m: c for c, m in enumerate(idxs)}
        b = np.zeros((len(idxs), len(src)), dtype=np.int64)
        for c, n in enumerate(src):
            for m, coeff in fin.d.get(n, {}).items():
                r = here.get(m)
                if r is not None:
                    b[r, c] = coeff
        base_rank = mat_rank(b, p)
        spanned = b
        for col in range(ker.shape[1]):
            cand = np.concatenate([spanned, ker[:, col : col + 1]], axis=1)
            r = mat_rank(cand, p)
            if r > base_rank:
                base_rank = r
                spanned = cand
                vec = {idxs[r_]: int(ker[r_, col]) for r_ in range(len(idxs)) if ker[r_, col]}
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
