"""Renumbering by bidegree.

Expansions hold their basis in generator order, and the functor images
and restrictions built on them number their generators the same way.  The
references they are compared with (the per-term and per-element kernels,
the all-i cohomology loop, the pinned presentation digests) hold the
bidegree order: a stable sort of the generator order by bidegree, so that
within one bidegree the order is (generator, table row).  ``by_bidegree``
renumbers one onto the other.
"""

import numpy as np


def by_bidegree(degs, *arrays, order=None):
    """A basis or generator list renumbered by a stable sort on its (n, 2)
    bidegrees ``degs``, or by the permutation ``order`` when given: returns
    ``order`` (new position -> old), the bidegrees in that order, and each
    of ``arrays`` renumbered.  An array's first two rows are positions in
    the list (d's or an action's (rows, cols, vals), a module's terms (src,
    tgt, mon, coeff)); it comes back as an int64 array sorted by its rows
    in turn, so d is sorted by (row, col) and terms are canonical again."""
    if order is None:
        order = np.lexsort((degs[:, 1], degs[:, 0]))
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    out = []
    for a in arrays:
        a = np.array([place[a[0]], place[a[1]], *a[2:]], dtype=np.int64).reshape(len(a), -1)
        out.append(a[:, np.lexsort(a[::-1])])
    return (order, degs[order], *out)
