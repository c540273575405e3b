"""The functor images of compat, exactness, shifts and the extend-restrict
unit at the cuts they had before each was cut where its window reads: a
margin of 2(f+1) internal degrees below the window (the restriction unit:
2(e+1) above it).  Kept as the reference the exact cuts are checked
against; each returns what its suite checks."""

from koszulkit.dgmodule import DgMap
from koszulkit.homdual import dualize_S
from koszulkit.lkd import functor_F, functor_jcut, kappa
from koszulkit.qmodel import restriction_unit


def compat_modules(M, window):
    """``check_compat``'s D_T(kappa(M)) and kappa(D_S(M)), one cut for both."""
    n = M.algebra.f
    jcut = min(window.j0, -window.j1, window.j0 - 2 * n) - 2 * (n + 1)
    return kappa(M, jcut).dualize(), kappa(dualize_S(M), jcut)


def exactness_module(M, window):
    """F(M) of the F-acyclic check."""
    return functor_F(M, functor_jcut(window, M.algebra.f)).module


def shifts_modules(M, window, m):
    """kappa(M<m>) and kappa(M) of the kappa-shift check, one cut for both."""
    jcut = functor_jcut(window, M.algebra.f) - 2 * abs(m)
    return kappa(M.shift(0, m), jcut), kappa(M, jcut)


def extend_restrict_unit(N, e, window) -> DgMap:
    """The extend-restrict unit, R's generators kept up to window.j1 + 2(e+1)."""
    return restriction_unit(N, e, window.j1 + 2 * (e + 1))
