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
bitmask over ext generators, with sign given by inversion parity.  An
algebra element is a dict monomial -> coefficient in [1, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .bigraded import Bidegree
from .linalg import check_modulus

Monomial = tuple[tuple[int, ...], int]
Element = dict  # Monomial -> int coefficient

KINDS = ("S", "R", "T", "Q", "P")

# Entries kept by each monomial-table cache here and in ``dgmodule``.  One
# benchmark pass misses at most 1,914 times in ``dgmodule._block``
# (roundtrip-e3; scale-e4 1,902, duality-grid 782) and at most 618 times in
# every other cache, so no pass evicts; a run of any length holds at most
# this many tables per cache.  The e = f = 5 round trip (trials 0-2) uses
# 7,415 distinct blocks and recomputes about 2,100 evicted ones.
CACHE_SIZE = 4096


@dataclass(frozen=True)
class AlgebraSpec:
    kind: str
    e: int
    f: int
    p: int

    @cached_property
    def n_sym(self) -> int:
        return {"S": self.f, "R": self.f, "T": 0, "Q": self.e - self.f, "P": self.e - self.f}[self.kind]

    @cached_property
    def n_ext(self) -> int:
        return {"S": 0, "R": 0, "T": self.f, "Q": self.e, "P": 0}[self.kind]

    @cached_property
    def sym_deg(self) -> Bidegree:
        return {"S": (2, -2), "R": (0, -2), "T": (0, 0), "Q": (0, 2), "P": (0, 2)}[self.kind]

    @property
    def ext_deg(self) -> Bidegree:
        return (-1, 2)

    def d_ext_target(self, i: int):
        """Index of the sym generator hit by d on ext generator i, or None."""
        if self.kind == "Q" and i >= self.f:
            return i - self.f
        return None

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

    def key(self):
        return (self.kind, self.e, self.f, self.p)


def make_algebra(kind: str, e: int, f: int, p: int) -> AlgebraSpec:
    if kind not in KINDS:
        raise ValueError(f"unknown algebra kind {kind!r}")
    if not (0 <= f <= e):
        raise ValueError(f"need 0 <= f <= e, got f={f}, e={e}")
    check_modulus(p)
    return AlgebraSpec(kind, e, f, p)


def monomial_bidegree(alg: AlgebraSpec, mon: Monomial) -> Bidegree:
    t = sum(mon[0])
    m = bin(mon[1]).count("1")
    si, sj = alg.sym_deg
    ei, ej = alg.ext_deg
    return (t * si + m * ei, t * sj + m * ej)


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
            tgt = alg.d_ext_target(i)
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


@lru_cache(maxsize=CACHE_SIZE)
def _compositions(total: int, parts: int) -> tuple:
    if parts == 0:
        return ((),) if total == 0 else ()
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=CACHE_SIZE)
def _monomials_by_internal(key, jlo: int, jhi: int):
    """All monomials with internal degree in [jlo, jhi], grouped by bidegree.

    The cached result is shared by every caller, so it is read-only: a
    mapping of bidegree to a sorted tuple of monomials.

    Terminates because every generator in every kind has internal degree
    +-2, so each internal degree bounds the total monomial length.
    """
    alg = AlgebraSpec(*key)
    si, sj = alg.sym_deg
    ei, ej = alg.ext_deg
    table: dict[Bidegree, list[Monomial]] = {}
    for mask in range(1 << alg.n_ext):
        m = bin(mask).count("1")
        if alg.n_sym == 0:
            cands = [0]
        else:
            # want jlo <= t*sj + m*ej <= jhi with t >= 0 and |sj| = 2;
            # enumerate a safe superset and filter below
            lo, hi = jlo - m * ej, jhi - m * ej
            cands = range(0, max(abs(lo), abs(hi)) // 2 + 1)
        for t in cands:
            j = t * sj + m * ej
            if not (jlo <= j <= jhi):
                continue
            i = t * si + m * ei
            bucket = table.setdefault((i, j), [])
            for exps in _compositions(t, alg.n_sym):
                bucket.append((exps, mask))
    return MappingProxyType({bd: tuple(sorted(bucket)) for bd, bucket in table.items()})


def monomials_by_internal(alg: AlgebraSpec, jlo: int, jhi: int):
    return _monomials_by_internal(alg.key(), jlo, jhi)
