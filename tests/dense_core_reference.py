"""The per-map dense core that ``dgmodule._cores`` ranked before it ranked
each connected component once: what structural pivots leave of each map,
its live rows by its live columns, made dense whole and ranked.  Kept as
the reference the component ranking is cross-checked against; it takes and
fills the same arguments as ``dgmodule._cores``."""

import numpy as np

from koszulkit import dgmodule
from koszulkit.linalg import MAX_RANK_CELLS, rank as mat_rank


def cores(degs, starts, rows, cols, vals, p: int, ranked):
    """Rank each map's core and add the rank at one row and one column of
    it.  ValueError when a core would take more than MAX_RANK_CELLS * 8
    bytes, before any core is allocated."""
    core_rows, r = np.unique(rows, return_inverse=True)
    core_cols, c = np.unique(cols, return_inverse=True)
    _, r0, nr = np.unique(np.searchsorted(starts, core_rows, "right"), return_index=True, return_counts=True)
    _, c0, nc = np.unique(np.searchsorted(starts, core_cols, "right"), return_index=True, return_counts=True)
    big = (nr * nc).argmax()
    dtype = np.min_scalar_type(p)
    size, limit = nr[big] * nc[big] * dtype.itemsize, MAX_RANK_CELLS * 8
    if size > limit:
        raise ValueError(
            f"the map out of bidegree {tuple(degs[core_rows[r0[big]]].tolist())} needs a dense {nr[big]} x {nc[big]} core "
            f"({size:,} bytes as {dtype}), over the limit of {limit:,} bytes"
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


def column_cohomology(degs, d, window, p: int):
    """``dgmodule._column_cohomology`` with the per-map cores above."""
    saved, dgmodule._cores = dgmodule._cores, cores
    try:
        return dgmodule._column_cohomology(degs, d, window, p)
    finally:
        dgmodule._cores = saved
