"""Homological dualities for S- and T-modules and their compatibility.

Two independent routes compute the dual of a T-module:

* ``dualize_T_res``: Hom into the free rank-one module, directly on the
  semifree presentation (semifree objects are split for this functor);
* ``dualize_T_formula``: the closed form on a finite-dimensional module,
  namely the k-linear dual with the action twisted by
  (t.phi)(m) = (-1)^{|t||phi|} phi(t.m), shifted by [n]<2n> where
  n = dim F.

``oracle_compare_T`` certifies that both routes give the same bigraded
cohomology; ``check_compat`` certifies that Koszul duality intertwines the
two dualities up to the same [n]<2n> twist.  Equality of derived objects
is certified at the level of cohomology dimension tables (plus the
explicit involution identities); reports say so.

Tables read only d, so the finite modules hold no generator actions: the
twisted action enters the oracle only through the sign it puts on the
dual's d (see ``k_linear_dual_T``).  That the twisted actions satisfy the
module axioms with this d is checked in the test suite, on actions built
from ``Expansion.action``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigraded import BigradedDims, Window
from .dgmodule import (
    Expansion,
    FiniteDgModule,
    SemifreeDgModule,
    cohomology,
    expansion_to_finite,
    signed,
)
from .lkd import kappa

CERTIFICATION = "equality certified on bigraded cohomology dimension tables"


@dataclass
class DualityReport:
    name: str
    window: Window
    left: BigradedDims
    right: BigradedDims
    verdict: str

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "window": list(self.window.as_tuple()),
            "left": self.left.to_triples(),
            "right": self.right.to_triples(),
            "verdict": self.verdict,
            "certification": CERTIFICATION,
        }


def compare(name: str, window: Window, left: BigradedDims, right: BigradedDims) -> DualityReport:
    lw, rw = left.restrict(window), right.restrict(window)
    if lw == rw:
        verdict = "equal"
    else:
        mismatches = sorted(set(lw.table) ^ set(rw.table) | {
            bd for bd in set(lw.table) & set(rw.table) if lw[bd] != rw[bd]
        })
        verdict = f"first mismatch at {mismatches[0]}"
    return DualityReport(name, window, lw, rw, verdict)


def dualize_S(M: SemifreeDgModule) -> SemifreeDgModule:
    if M.algebra.kind != "S":
        raise ValueError("dualize_S expects a module over S")
    return M.dualize()


def dualize_T_res(M: SemifreeDgModule) -> SemifreeDgModule:
    if M.algebra.kind != "T":
        raise ValueError("dualize_T_res expects a module over T")
    return M.dualize()


def k_linear_dual_T(M: FiniteDgModule) -> FiniteDgModule:
    """k-linear dual with the sign-twisted T-action (no shift applied).

    d is transposed by swapping its rows and cols, and row a of the
    transpose is scaled by -(-1)^{i_a}, a ``signed`` flip (in int64), so
    values stay in [1, p).  Acting on the dual by (t.phi)(m) =
    (-1)^{|t||phi|} phi(t.m) makes d of the dual satisfy the Leibniz rule
    only with that sign; the actions are not built (see the module docstring).
    """
    rows, cols, vals = M.d
    odd = M.basis_degs[:, 0] & 1  # odd[a]: (-1)^{i_a} = -1
    return FiniteDgModule(M.algebra, -M.basis_degs, (cols, rows, signed(vals, 1 - odd[cols], M.algebra.p)))


def dualize_T_formula(M: FiniteDgModule) -> FiniteDgModule:
    """The closed form: k-linear dual twisted as above, then [n]<2n>."""
    if M.algebra.kind != "T":
        raise ValueError("dualize_T_formula expects a module over T")
    n = M.algebra.f
    return k_linear_dual_T(M).shift(n, 2 * n)


def expand_T_module(M: SemifreeDgModule) -> FiniteDgModule:
    """Full (finite) expansion of a semifree T-module: every internal degree
    its basis reaches, as bidegrees and d."""
    hull = Window.hull(M.degs)
    return expansion_to_finite(Expansion(M, hull.j0, hull.j1 + 2 * M.algebra.f))


def oracle_window(M: SemifreeDgModule) -> Window:
    """Window covering the full support of M and of its dual."""
    win = Window.hull(M.degs).enlarge(M.algebra.f, 2 * M.algebra.f)
    return win.union(win.negate()).enlarge(1, 2)


def oracle_compare_T(M: SemifreeDgModule, window: Window | None = None) -> DualityReport:
    """eq oracle: resolution-route dual vs closed-formula dual, in cohomology."""
    if window is None:
        window = oracle_window(M)
    left = cohomology(dualize_T_res(M), window)
    right = dualize_T_formula(expand_T_module(M)).cohomology(window)
    return compare("duality-oracle", window, left, right)


def compat_window(M: SemifreeDgModule) -> Window:
    win = Window.hull(M.degs)
    return win.union(win.negate()).enlarge(1, 2)


def check_compat(M: SemifreeDgModule, window: Window | None = None) -> DualityReport:
    """Koszul duality versus homological duality, as dimension tables.

    Compares D_T(kappa(M)) with kappa(D_S(M)) shifted by [n]<2n>, on the
    window; n = dim F and the twisting line is one-dimensional in
    bidegree (0, 0).

    Each kappa is cut at the least T-column its window reads (``lkd``):
    the right side at the shifted window's j0.  On the left, kappa(M)'s
    generator w_b sits at j(b) - 2n and its dual at 2n - j(b), so the cut
    2n - window.j1 keeps the dual's generators up to window.j1: a
    dg-submodule of the whole dual, equal to it on the window.
    """
    if M.algebra.kind != "S":
        raise ValueError("check_compat expects a module over S")
    n = M.algebra.f
    if window is None:
        window = compat_window(M)
    left = cohomology(kappa(M, 2 * n - window.j1).dualize(), window)
    shifted_window = window.shift(-n, -2 * n)
    right = cohomology(kappa(dualize_S(M), shifted_window.j0), shifted_window).shift(n, 2 * n)
    return compare("compat", window, left, right)
