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
bitmask over ext generators.  This module holds the algebra specs, the
monomial bidegrees and the enumeration of monomials by internal degree;
the arithmetic (products, wedge signs by inversion parity, d_A) runs on
arrays in ``dgmodule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType

from .bigraded import Bidegree
from .linalg import check_modulus

Monomial = tuple[tuple[int, ...], int]

KINDS = ("S", "R", "T", "Q", "P")

# Entries kept by each monomial-table cache here and in ``dgmodule``.  One
# benchmark pass misses at most 1,914 blocks in ``dgmodule._blocks``
# (roundtrip-e3, built in 140 batches; scale-e4 1,902 in 20, duality-grid
# 782 in 320) and at most 618 times in every other cache, so no pass
# evicts; a run of any length holds at most this many tables per cache.
# The e = f = 5 round trip (trials 0-2) builds 9,508 blocks in 28 batches,
# about 2,100 of them again after eviction.
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


# Largest e: Q has e ext generators, and ``dgmodule`` holds ext masks as
# int64 bit sets (``_arrays``), and so the wedge-sign weight masks
# (``_weights``) and the masks d_A clears (``_d_A``): bits 0 to 61.
MAX_E = 62


def make_algebra(kind: str, e: int, f: int, p: int) -> AlgebraSpec:
    if kind not in KINDS:
        raise ValueError(f"unknown algebra kind {kind!r}")
    if not (0 <= f <= e):
        raise ValueError(f"need 0 <= f <= e, got f={f}, e={e}")
    if e > MAX_E:
        raise ValueError(f"e = {e} is over the limit of {MAX_E} (ext masks are int64 bit sets)")
    check_modulus(p)
    return AlgebraSpec(kind, e, f, p)


def monomial_bidegree(alg: AlgebraSpec, mon: Monomial) -> Bidegree:
    t = sum(mon[0])
    m = bin(mon[1]).count("1")
    si, sj = alg.sym_deg
    ei, ej = alg.ext_deg
    return (t * si + m * ei, t * sj + m * ej)


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
    for m in range(alg.n_ext + 1):  # bidegrees first met in order of m, then t
        lo, hi = jlo - m * ej, jhi - m * ej  # left for the sym part: t * sj, t >= 0
        if alg.n_sym == 0:
            ts = range(int(lo <= 0 <= hi))
        else:  # |sj| = 2
            lo, hi = (-hi, -lo) if sj < 0 else (lo, hi)
            ts = range(max(0, -(-lo // 2)), hi // 2 + 1)
        # only the masks of the m that occur: a narrow range of a large
        # exterior part is enumerated in its size, not in 2^n_ext steps
        masks = [sum(1 << b for b in bits) for bits in combinations(range(alg.n_ext), m)] if ts else []
        for t in ts:
            bucket = table.setdefault((t * si + m * ei, t * sj + m * ej), [])
            bucket += [(exps, mask) for mask in masks for exps in _compositions(t, alg.n_sym)]
    return MappingProxyType({bd: tuple(sorted(bucket)) for bd, bucket in table.items()})


def monomials_by_internal(alg: AlgebraSpec, jlo: int, jhi: int):
    return _monomials_by_internal(alg.key(), jlo, jhi)
