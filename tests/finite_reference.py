"""The dense finite layer, kept as a reference.

Before finite dg-modules held term arrays, ``FiniteDgModule`` stored d and
every generator action as dense (n, n) int64 matrices reduced mod p, row =
source, and ``k_linear_dual_T`` and ``shift`` transposed and scaled them.
This module keeps that ``validate`` verbatim, and ``shift`` and
``k_linear_dual_T`` with the constructor's reduction mod p folded in, on a
plain (algebra, basis_degs, d, sym_act, ext_act) record, so tests can
compare the term-array layer with them matrix for matrix and message for
message.
"""

from typing import NamedTuple

import numpy as np

from koszulkit.dgmodule import ONE_SHIFT


class Dense(NamedTuple):
    algebra: object
    basis_degs: np.ndarray
    d: np.ndarray
    sym_act: list
    ext_act: list


def dense(fin) -> Dense:
    """A finite module's term arrays scattered into dense matrices mod p."""
    n, p = fin.dim, fin.algebra.p

    def scatter(m):
        out = np.zeros((n, n), dtype=np.int64)
        np.add.at(out, (m[0], m[1]), m[2])
        return out % p

    return Dense(fin.algebra, fin.basis_degs, scatter(fin.d), [scatter(m) for m in fin.sym_act], [scatter(m) for m in fin.ext_act])


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
        tgt = M.algebra.d_ext_target(g)
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
