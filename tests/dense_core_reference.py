"""The per-map dense core that ``dgmodule._cores`` ranked before it ranked
each connected component once: what structural pivots leave of each map,
its live rows by its live columns, made dense whole and ranked.  Kept as
the reference the component ranking is cross-checked against; it takes and
fills the same arguments as ``dgmodule._cores``."""

import numpy as np

from koszulkit import dgmodule
from koszulkit.linalg import MAX_RANK_CELLS, rank as mat_rank


def cores(degs, rows, cols, vals, p: int, ranked):
    """Rank each map's core and add the rank at one row and one column of
    it; a map is the entries whose rows share a bidegree.  ValueError when
    a core would take more than MAX_RANK_CELLS * 8 bytes, before any core
    is allocated."""
    code = degs[:, 0] << 32 | degs[:, 1] & 0xFFFFFFFF  # one int per bidegree
    maps = np.unique(code[rows], return_inverse=True)[1]
    cores = []
    for k in range(maps.max() + 1):
        e = maps == k
        core_rows, r = np.unique(rows[e], return_inverse=True)
        core_cols, c = np.unique(cols[e], return_inverse=True)
        cores.append((core_rows, core_cols, r, c, vals[e]))
    big = max(cores, key=lambda core: len(core[0]) * len(core[1]))
    nr, nc, dtype = len(big[0]), len(big[1]), np.min_scalar_type(p)
    size, limit = nr * nc * dtype.itemsize, MAX_RANK_CELLS * 8
    if size > limit:
        raise ValueError(
            f"the map out of bidegree {tuple(degs[big[0][0]].tolist())} needs a dense {nr} x {nc} core "
            f"({size:,} bytes as {dtype}), over the limit of {limit:,} bytes"
        )
    for core_rows, core_cols, r, c, v in cores:
        a = np.zeros((len(core_rows), len(core_cols)), dtype=dtype)
        a[r, c] = (v % p).astype(dtype)
        rk = mat_rank(a, p)
        ranked[core_rows[0]] += rk
        ranked[core_cols[0]] += rk


def column_cohomology(degs, d, window, p: int):
    """``dgmodule._column_cohomology`` with the per-map cores above."""
    saved, dgmodule._cores = dgmodule._cores, cores
    try:
        return dgmodule._column_cohomology(degs, d, window, p)
    finally:
        dgmodule._cores = saved
