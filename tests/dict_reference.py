"""Dict-form references for the term-array semifree layer.

Nested dicts {src: {tgt: {monomial: coeff}}} are the form modules and maps
had before they became term arrays.  This module keeps, verbatim, the
dict-walking ``validate``, ``shift`` and ``dualize`` of ``SemifreeDgModule``,
``validate`` of ``DgMap``, ``cone`` and the element helpers they use
(``elt_scale``, ``elt_add``, ``elt_mul``, ``elt_bidegree``), so tests can
cross-check the term-array code against them, plus the builders tests use to
write modules and maps as dicts.  Both ``validate`` report, for each failing
generator, its least failing target, as the program does; the map's walks
the chain condition itself, where the program checks d^2 of the cone, so
the two stay independent.

The scalar monomial rules are kept here verbatim too: ``_ext_sign``,
``mul_monomials`` and ``elt_d`` from ``algebra`` and ``bidegree_sub`` from
``bigraded``, and ``d_ext_target``, once an ``AlgebraSpec`` method.  ``algebra``'s array kernel (``monomial_arrays``, ``weights``,
``parity``, ``d_A``) replaced them in the program; tests check it against
them monomial pair by monomial pair.
"""

from koszulkit.algebra import AlgebraSpec, Monomial, monomial_bidegree
from koszulkit.bigraded import Bidegree, bidegree_add
from koszulkit.dgmodule import ONE_SHIFT, DgMap, SemifreeDgModule, nested_terms

Element = dict  # Monomial -> int coefficient


def bidegree_sub(x: Bidegree, y: Bidegree) -> Bidegree:
    return (x[0] - y[0], x[1] - y[1])


def d_ext_target(alg: AlgebraSpec, i: int):
    """Index of the sym generator hit by d on ext generator i, or None."""
    if alg.kind == "Q" and i >= alg.f:
        return i - alg.f
    return None


def _ext_sign(m1: int, m2: int) -> int:
    """Sign of the wedge reordering theta^{m1} * theta^{m2}; 0 on overlap."""
    if m1 & m2:
        return 0
    inv = 0
    m = m2
    while m:
        j = (m & -m).bit_length() - 1
        inv += bin(m1 >> (j + 1)).count("1")
        m &= m - 1
    return -1 if inv & 1 else 1


def mul_monomials(alg: AlgebraSpec, m1: Monomial, m2: Monomial):
    """Product monomial and sign, or None when it vanishes."""
    sign = _ext_sign(m1[1], m2[1])
    if sign == 0:
        return None
    exps = tuple(a + b for a, b in zip(m1[0], m2[0]))
    return (exps, m1[1] | m2[1]), sign


def elt_d(alg: AlgebraSpec, x: Element) -> Element:
    """Apply the algebra differential (a bidegree (1, 0) derivation)."""
    if not alg.has_differential:
        return {}
    p = alg.p
    out = {}
    for (exps, mask), c in x.items():
        pos = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            tgt = d_ext_target(alg, i)
            if tgt is not None:
                new_exps = list(exps)
                new_exps[tgt] += 1
                mon = (tuple(new_exps), mask & ~(1 << i))
                sign = -1 if pos & 1 else 1
                v = (out.get(mon, 0) + sign * c) % p
                if v:
                    out[mon] = v
                else:
                    out.pop(mon, None)
            pos += 1
            m &= m - 1
    return out


def module(algebra, gens, diff) -> SemifreeDgModule:
    """A module from a nested-dict differential."""
    return SemifreeDgModule(algebra, gens, *nested_terms(algebra, diff))


def dg_map(source, target, matrix) -> DgMap:
    """A chain map from a nested-dict matrix."""
    return DgMap(source, target, *nested_terms(source.algebra, matrix))


def to_nested(obj) -> dict:
    """The terms of a module or map as nested dicts, in term order."""
    out = {}
    for k, l, u, c in zip(*obj.terms.tolist()):
        out.setdefault(k, {}).setdefault(l, {})[obj.mons[u]] = c
    return out


def elt_scale(alg: AlgebraSpec, x: Element, c: int) -> Element:
    c = c % alg.p
    if c == 0:
        return {}
    return {mon: (v * c) % alg.p for mon, v in x.items()}


def elt_add(alg: AlgebraSpec, x: Element, y: Element) -> Element:
    out = dict(x)
    for mon, c in y.items():
        v = (out.get(mon, 0) + c) % alg.p
        if v:
            out[mon] = v
        else:
            out.pop(mon, None)
    return out


def elt_mul(alg: AlgebraSpec, x: Element, y: Element) -> Element:
    out = {}
    p = alg.p
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            prod = mul_monomials(alg, m1, m2)
            if prod is None:
                continue
            mon, sign = prod
            v = (out.get(mon, 0) + sign * c1 * c2) % p
            if v:
                out[mon] = v
            else:
                out.pop(mon, None)
    return out


def elt_bidegree(alg: AlgebraSpec, x: Element):
    """Bidegree of a homogeneous element, None for 0; raises if mixed."""
    deg = None
    for mon in x:
        d = monomial_bidegree(alg, mon)
        if deg is None:
            deg = d
        elif d != deg:
            raise ValueError(f"element is not homogeneous: {deg} vs {d}")
    return deg


def _entry_degree(gens, k: int, l: int) -> int:
    """Cohomological degree of a differential entry from gen k to gen l."""
    return gens[k][0] - gens[l][0] + 1


class DictModule:
    """A module as nested dicts, with the dict-walking validate."""

    def __init__(self, algebra, gens, diff):
        self.algebra, self.gens, self.diff = algebra, tuple(gens), diff

    @classmethod
    def of(cls, M: SemifreeDgModule) -> "DictModule":
        return cls(M.algebra, M.gens, to_nested(M))

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
            for m in sorted(acc):
                if acc[m]:
                    issues.append(f"d^2 != 0 from gen {k} to gen {m}")
                    break
        return issues

    def shift(self, a: int, b: int) -> "DictModule":
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
        return DictModule(self.algebra, gens, diff)

    def dualize(self) -> "DictModule":
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
        return DictModule(self.algebra, gens, diff)


class DictMap:
    """A chain map as nested dicts, with the dict-walking validate."""

    def __init__(self, source: DictModule, target: DictModule, matrix):
        self.source, self.target, self.matrix = source, target, matrix

    @classmethod
    def of(cls, phi: DgMap) -> "DictMap":
        return cls(DictModule.of(phi.source), DictModule.of(phi.target), to_nested(phi))

    def validate(self) -> list[str]:
        """Chain-map and homogeneity checks, on every source generator."""
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
            for m in sorted(acc):
                if acc[m]:
                    issues.append(f"chain condition fails from gen {k} to gen {m}")
                    break
        return issues


def cone(phi: DictMap) -> DictModule:
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
    return DictModule(phi.source.algebra, gens, diff)
