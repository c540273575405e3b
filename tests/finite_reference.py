"""The dense finite layer, kept as a reference, with the generator actions.

Before finite dg-modules held term arrays, ``FiniteDgModule`` stored d and
every generator action as dense (n, n) int64 matrices reduced mod p, row =
source, and ``k_linear_dual_T`` and ``shift`` transposed and scaled them.
This module keeps that ``validate`` verbatim, and ``shift`` and
``k_linear_dual_T`` with the constructor's reduction mod p folded in, on a
plain (algebra, basis_degs, d, sym_act, ext_act) record.

``FiniteDgModule`` now holds only d, since cohomology tables read nothing
else.  The actions are built here from ``Expansion.action``
(``from_expansion``), so tests can check that the twisted, shifted actions
satisfy the module axioms with the reference d, and that the program's d
equals the reference d (``assert_same_d``).
"""

from typing import NamedTuple

import numpy as np

from dict_reference import d_ext_target
from koszulkit.dgmodule import ONE_SHIFT, Expansion


class Dense(NamedTuple):
    algebra: object
    basis_degs: np.ndarray
    d: np.ndarray
    sym_act: list
    ext_act: list


def scatter(m, n: int, p: int) -> np.ndarray:
    """Term arrays (rows, cols, vals) as a dense (n, n) matrix mod p."""
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (m[0], m[1]), m[2])
    return out % p


def from_expansion(exp: Expansion) -> Dense:
    """An expansion's d and every generator action (``Expansion.action``)
    as dense matrices mod p."""
    A, n = exp.module.algebra, len(exp)
    sym = [scatter(exp.action(False, s), n, A.p) for s in range(A.n_sym)]
    ext = [scatter(exp.action(True, g), n, A.p) for g in range(A.n_ext)]
    return Dense(A, exp.degs, scatter(exp.d, n, A.p), sym, ext)


def expand_T(M) -> Dense:
    """The record of ``homdual.expand_T_module(M)`` with its actions: the
    expansion on the same internal-degree range."""
    A = M.algebra
    if M.rank == 0:
        return Dense(A, np.zeros((0, 2), dtype=np.int64), np.zeros((0, 0), dtype=np.int64), [], [np.zeros((0, 0), dtype=np.int64)] * A.n_ext)
    jlo = min(j for _, j in M.gens)
    return from_expansion(Expansion(M, jlo, max(j for _, j in M.gens) + 2 * A.f))


def assert_same_d(fin, want: Dense):
    """A finite module's d has distinct positions and values in [1, p),
    and it and the basis bidegrees equal the reference's."""
    rows, cols, vals = fin.d
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    assert ((1 <= vals) & (vals < fin.algebra.p)).all()
    assert np.array_equal(fin.basis_degs, want.basis_degs)
    assert np.array_equal(scatter(fin.d, fin.dim, fin.algebra.p), want.d)


def validate(M: Dense) -> list[str]:
    p = M.algebra.p
    d, degs = M.d, M.basis_degs
    rows, cols = d.nonzero()
    wrong = (degs[cols] - degs[rows] != ONE_SHIFT).any(axis=1)
    issues = [f"d entry {n}->{m} is not of bidegree (1,0)" for n, m in zip(rows[wrong].tolist(), cols[wrong].tolist())]
    for kind, acts, deg in (("sym", M.sym_act, M.algebra.sym_deg), ("ext", M.ext_act, M.algebra.ext_deg)):
        for g, act in enumerate(acts):
            rows, cols = act.nonzero()
            wrong = (degs[cols] - degs[rows] != deg).any(axis=1)
            issues += [
                f"{kind} generator {g} entry {n}->{m} is not of bidegree {deg}"
                for n, m in zip(rows[wrong].tolist(), cols[wrong].tolist())
            ]
    if (d @ d % p).any():
        issues.append("d^2 != 0")
    for g, act in enumerate(M.ext_act):
        if (act @ act % p).any():
            issues.append(f"ext generator {g} does not square to zero")
        # Leibniz: d(theta m) = d_A(theta) m - theta d(m)
        residue = act @ d + d @ act
        tgt = d_ext_target(M.algebra, g)
        if tgt is not None:
            residue -= M.sym_act[tgt]
        if (residue % p).any():
            issues.append(f"Leibniz fails for ext generator {g}")
    for s, act in enumerate(M.sym_act):
        if ((act @ d - d @ act) % p).any():
            issues.append(f"sym generator {s} does not commute with d")
    return issues


def shift(M: Dense, a: int, b: int) -> Dense:
    """[a]<b>: d picks up (-1)^a, odd generator actions pick up (-1)^a."""
    sgn, p = -1 if a & 1 else 1, M.algebra.p
    return Dense(M.algebra, M.basis_degs + (-a, b), sgn * M.d % p, M.sym_act, [sgn * m % p for m in M.ext_act])


def k_linear_dual_T(M: Dense) -> Dense:
    sign, p = 1 - 2 * (M.basis_degs[:, :1] & 1), M.algebra.p  # column of (-1)^{i_a}
    return Dense(M.algebra, -M.basis_degs, -sign * M.d.T % p, [a.T for a in M.sym_act], [sign * a.T % p for a in M.ext_act])
