"""Cross-check of the vectorized expansion kernel against the per-element rule.

``ReferenceExpansion`` and ``_d_terms`` are the per-basis-element Python
rule the kernel replaced, kept verbatim: d(m e_k) term by term through
``elt_d``/``elt_mul``, and the action of one generator through
``mul_monomials``, each looked up in a dict index.  The kernel must give
the same basis, bidegrees, differential and generator actions, entry for
entry, on seeded random modules over all five algebra kinds and on ranges
that cut products off on both sides.
"""

import numpy as np
import pytest

from dict_reference import elt_mul, to_nested
from koszulkit.algebra import (
    elt_d,
    make_algebra,
    monomial_bidegree,
    monomials_by_internal,
    mul_monomials,
)
from koszulkit.bigraded import Bidegree, bidegree_add
from koszulkit.dgmodule import Expansion, SemifreeDgModule, _blocks, _table
from koszulkit.lkd import regrade_xi
from koszulkit.qmodel import pushforward_p
from koszulkit.samples import random_module, stream


def _d_terms(module: SemifreeDgModule, k: int, mon):
    """Terms ((l, monomial), coeff) of d(mon . e_k), unreduced mod p.

    d(m e_k) = d_A(m) e_k + (-1)^{|m|} m sum_l d_kl e_l, d_kl read from the
    module's terms as a dict; the same
    (l, monomial) pair may come more than once.
    """
    A = module.algebra
    for mon2, c in elt_d(A, {mon: 1}).items():
        yield (k, mon2), c
    sign = -1 if monomial_bidegree(A, mon)[0] & 1 else 1
    for l, entry in to_nested(module).get(k, {}).items():
        for mon2, c in elt_mul(A, {mon: 1}, entry).items():
            yield (l, mon2), sign * c


class ReferenceExpansion:
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


def _triples(rows, cols, vals):
    return np.stack([rows, cols, vals], axis=1).tolist()


def _modules(e, f, p, trial):
    rng = stream(2024, f"kernel:{e}:{f}:{p}:{trial}")
    S, T, Q = (make_algebra(kind, e, f, p) for kind in "STQ")
    M = random_module(S, rng, max_gens=4)
    yield M
    yield regrade_xi(M)
    yield random_module(T, rng, max_gens=4)
    MQ = random_module(Q, rng, max_gens=4)
    yield MQ
    yield pushforward_p(MQ)[0]


def _ranges(module):
    js = [j for _, j in module.gens]
    lo, hi = min(js), max(js)
    # whole generator hull with room, then cut below, above and on both sides
    return [(lo - 6, hi + 6), (lo + 2, hi + 6), (lo - 6, hi - 2), (lo + 2, hi - 2), (hi, lo)]


CONFIGS = [(1, 1, 3), (2, 1, 5), (2, 2, 3), (3, 0, 3), (3, 1, 5), (3, 2, 3)]


@pytest.mark.parametrize("e,f,p", CONFIGS)
def test_kernel_matches_per_element_rule(e, f, p):
    kinds = set()
    for trial in range(3):
        for module in _modules(e, f, p, trial):
            kinds.add(module.algebra.kind)
            A = module.algebra
            for jlo, jhi in _ranges(module):
                ref = ReferenceExpansion(module, jlo, jhi)
                exp = Expansion(module, jlo, jhi)
                assert exp.basis == ref.basis
                assert exp.degs.tolist() == [list(ref.bidegree_of(n)) for n in range(len(ref))]
                want = [[n, m, c] for n in range(len(ref)) for m, c in ref.d_of(n)]
                assert _triples(*exp.d) == want
                for is_ext, count in ((False, A.n_sym), (True, A.n_ext)):
                    for g in range(count):
                        want = [[n, m, c] for n in range(len(ref)) for m, c in ref.act(is_ext, g, n)]
                        assert _triples(*exp.action(is_ext, g)) == want
    assert kinds == {"S", "R", "T", "Q", "P"}


def test_cached_tables_are_read_only():
    S = make_algebra("S", 2, 2, 3)
    table = monomials_by_internal(S, -4, 0)
    with pytest.raises(TypeError):
        table[(0, 0)] = ()
    with pytest.raises(AttributeError):
        table[(0, 0)].append(((9, 9), 0))
    for array in _table(S.key(), -4, 0)[1:]:
        with pytest.raises(ValueError):
            array[0] = 7
    with pytest.raises(ValueError):
        _blocks(S.key(), [((-4, 0), (-6, -2), ((1, 0), 0), False)])[0][1][0] = 0
    assert monomials_by_internal(S, -4, 0)[(0, 0)] == (((0, 0), 0),)
