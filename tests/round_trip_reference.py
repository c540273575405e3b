"""The counit and unit that ``lkd`` replaced, kept as the reference the
window-cut maps are cross-checked against.  They build each functor image
on its whole range: F at the cutoff jcut, G on every basis element, so the
counit's G(F(M)) reaches down to jcut - 2f and the unit's F(G(N)) holds
every generator down to jcut - 2f as well."""

import numpy as np

from koszulkit.algebra import parity, weights
from koszulkit.dgmodule import DgMap, canonical
from koszulkit.lkd import functor_F, functor_G


def counit(M, jcut: int) -> DgMap:
    """The chain map G(F(M)) -> M on G(F(M)) whole, F cut at jcut."""
    fm = functor_F(M, jcut)
    gfm = functor_G(fm.module)
    full = (1 << M.algebra.f) - 1
    fgen, tmons, tmon = gfm.expansion.labels()
    g = np.array([mask == full for _, mask in tmons], dtype=bool)[tmon].nonzero()[0]
    b = fgen[g]
    k, smons, smon = fm.expansion.labels()
    sigma = np.where(fm.expansion.degs[b, 1] // 2 & 1, M.algebra.p - 1, 1)
    terms = canonical(smons, np.array([g, k[b], smon[b], sigma]), M.rank, M.algebra.p)
    return DgMap(gfm.module, M, *terms, min_internal=jcut + 2)


def unit(N, jcut: int) -> DgMap:
    """The chain map N -> F(G(N)) with F(G(N)) cut at jcut."""
    gn = functor_G(N)
    fgn = functor_F(gn.module, jcut)
    full = (1 << N.algebra.f) - 1
    c, smons, smon = fgn.expansion.labels()
    b = np.array([mon == gn.module.algebra.one() for mon in smons], dtype=bool)[smon].nonzero()[0]
    c = c[b]
    k, tmons, tmon = gn.expansion.labels()
    J = np.array([mask for _, mask in tmons], dtype=np.int64)
    sgn = 1 - 2 * parity(full & ~J & weights(J, N.algebra.f, True), N.algebra.f)[tmon[c]]
    eps = np.where(gn.expansion.degs[c, 1] // 2 & 1, -1, 1)
    thetas = [((), full & ~mask) for _, mask in tmons]
    terms = canonical(thetas, np.array([k[c], b, tmon[c], eps * sgn]), fgn.module.rank, N.algebra.p)
    return DgMap(N, fgn.module, *terms, min_internal=jcut + 2)
