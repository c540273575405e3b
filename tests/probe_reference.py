"""The Koszulity probe that ``blockalg`` replaced, kept as the reference the
whole-basis probe is cross-checked against.  It holds each syzygy as dense
columns over the whole ambient, acts one algebra element per call, and
reads each kernel vector's degree at its first nonzero.  It reads the
algebra's dense product tables (``block_reference.Dense``).  Its
elimination is ``linalg``'s, which ``test_linalg`` checks against
``dense_reference``; ``entries`` hands its dense columns to ``linalg``."""

import numpy as np

from block_reference import Dense, column_basis
from koszulkit.linalg import independent_columns, kernel_basis


def entries(x: np.ndarray) -> tuple:
    """The dense columns x as ``linalg`` takes them: (rows, cols, vals, width)."""
    rows, cols = x.nonzero()
    return rows, cols, x[rows, cols], x.shape[1]


class ProjectiveSum:
    """P = direct sum of shifted projectives A.e, with a concrete basis."""

    def __init__(self, algebra: Dense, summands):
        self.algebra = algebra
        self.summands = list(summands)  # (idempotent index, degree shift)
        # basis element n is algebra element element[n] in summand summand[n]
        columns = [column_basis(algebra, e) for e, _ in self.summands]
        self.summand = np.repeat(np.arange(len(columns), dtype=np.int64), [len(c) for c in columns])
        self.element = np.array([b for c in columns for b in c], dtype=np.int64)
        # row[g, b]: position of (g, b) in the basis, -1 when b is not in A.e_g
        self.row = np.full((len(columns), algebra.dim), -1, dtype=np.int64)
        self.row[self.summand, self.element] = np.arange(self.dim)
        shifts = np.array([shift for _, shift in self.summands], dtype=np.int64)
        self.degrees = algebra.degrees[self.element] + shifts[self.summand]

    @property
    def dim(self) -> int:
        return len(self.element)

    def act(self, a: int, x: np.ndarray) -> np.ndarray:
        """a.x for x a vector or a matrix of columns in this basis."""
        A = self.algebra
        coeff = A.coeff[a, self.element]
        hit = coeff.nonzero()[0]
        rows = self.row[self.summand[hit], A.idx[a, self.element[hit]]]
        out = np.zeros_like(x)
        np.add.at(out, rows, (x[hit].T * coeff[hit]).T)  # row n of x scaled by coeff[n]
        return out % A.p


class Syzygy:
    """A homogeneous submodule of a ProjectiveSum, as column vectors."""

    def __init__(self, ambient: ProjectiveSum, columns: np.ndarray, degrees):
        self.ambient = ambient
        self.columns = columns  # shape (ambient.dim, k)
        self.degrees = np.asarray(degrees, dtype=np.int64)

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def simple_socle_start(algebra: Dense, idem: int) -> Syzygy:
    """First syzygy of the simple at ``idem``: the positive-degree part of
    A.e (exact because degree 0 is semisimple, so J = A_{>0})."""
    amb = ProjectiveSum(algebra, [(idem, 0)])
    keep = amb.degrees >= 1
    return Syzygy(amb, np.eye(amb.dim, dtype=np.int64)[:, keep], amb.degrees[keep])


def minimal_generators(syz: Syzygy) -> list[tuple]:
    """Generators of top(K) = K / JK as (class_label, degree, vector).

    Works degree by degree: J K in degree d is spanned by positive-degree
    algebra elements applied to lower-degree columns of K; multiplicity of
    the simple of class r is read off by applying its idempotent.
    """
    A, amb = syz.ambient.algebra, syz.ambient
    out = []
    pos_elems = [(a, da) for a, da in enumerate(A.degrees.tolist()) if da >= 1]
    by_degree = {d: syz.columns[:, syz.degrees == d] for d in sorted(set(syz.degrees.tolist()))}
    for d, kd in by_degree.items():
        jk = np.concatenate(
            [np.zeros((amb.dim, 0), dtype=np.int64)]
            + [amb.act(a, by_degree[d - da]) for a, da in pos_elems if d - da in by_degree],
            axis=1,
        )
        for label, e, _ in A.idempotents:
            ek = amb.act(e, kd)
            out.extend((label, d, ek[:, c]) for c in independent_columns(entries(jk), entries(ek), amb.dim, A.p))
    return out


def next_syzygy(syz: Syzygy, gens) -> Syzygy:
    """Kernel of the projective cover built on ``gens`` mapping onto syz."""
    A = syz.ambient.algebra
    p = A.p
    idx_of = {label: e for label, e, _ in A.idempotents}
    cover = ProjectiveSum(A, [(idx_of[label], d) for label, d, _ in gens])
    targets = np.column_stack(
        [np.zeros((syz.ambient.dim, 0), dtype=np.int64)] + [v for _, _, v in gens]
    )
    phi = np.zeros((syz.ambient.dim, cover.dim), dtype=np.int64)
    for b in np.unique(cover.element).tolist():
        cols = np.nonzero(cover.element == b)[0]
        phi[:, cols] = syz.ambient.act(b, targets[:, cover.summand[cols]])
    rows, cols, vals, nullity = kernel_basis(entries(phi), syz.ambient.dim, p)
    ker = np.zeros((cover.dim, nullity), dtype=np.int64)
    ker[rows, cols] = vals
    # kernel vectors of a graded map are homogeneous (elimination only combines
    # rows of one degree), so each column's degree is read at its first nonzero
    return Syzygy(cover, ker, cover.degrees[(ker != 0).argmax(axis=0)])


def koszulity_probe(algebra: Dense, hbound: int) -> dict:
    """Linear-resolution probe out to homological degree hbound.

    For every simple module, computes the minimal graded projective
    resolution and reports the internal degrees of the generators of each
    syzygy; linear means the i-th syzygy is generated exactly in degree i.
    """
    if hbound < 1:
        raise ValueError("hbound must be >= 1")
    report = {"hbound": hbound, "simples": [], "linear": True}
    for label, e, _ in algebra.idempotents:
        entry = {"simple": label, "steps": [], "witness": None}
        syz = simple_socle_start(algebra, e)
        for step in range(1, hbound + 1):
            if syz.dim == 0:
                break
            gens = minimal_generators(syz)
            degs = sorted(set(d for _, d, _ in gens))
            entry["steps"].append({"syzygy": step, "generator_degrees": degs})
            if degs != [step]:
                bad = next(d for d in degs if d != step)
                entry["witness"] = [step, bad]
                report["linear"] = False
                break
            syz = next_syzygy(syz, gens)
        report["simples"].append(entry)
    return report
