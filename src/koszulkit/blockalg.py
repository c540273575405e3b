"""Finite-dimensional graded algebras by structure tables, and the graded
module machinery behind the Koszulity probe.

A BlockAlgebra has a basis whose pairwise products are single basis
elements with a scalar coefficient (all the algebras built here are of
this monomial shape).  It is built from product arrays (a, b, c, coeff)
into dense tables with an extra "zero" slot so that products vectorize;
associativity, unitality and grading multiplicativity are machine-checked
on construction, associativity only on the triples where a side can be
nonzero, which is exact because products are monomial.  Every consumer
(the Frobenius form, the anti-automorphism and Cartan checks, idempotent
columns and the action on projectives) gathers from
``mult_idx``/``mult_coeff`` directly.

Graded left modules are represented as homogeneous subspaces of direct
sums of shifted projectives A.e; ``ProjectiveSum.act`` applies one algebra
element to a vector or to a whole matrix of columns.  Minimal projective
covers are computed degreewise by splitting the radical, which is the
positive-degree part because degree 0 is semisimple.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_modulus, independent_columns, kernel_basis, sorted_join


class BlockAlgebra:
    """Graded associative unital algebra over GF(p) with monomial products.

    products: arrays (a, b, c, coeff) saying a.b = coeff c; pairs not
    listed, and zero coefficients, mean a.b = 0.
    idempotents: one primitive idempotent index per isomorphism class of
    simple module, with the simple's dimension (matrix-block size).
    trace: the linear functional whose pairing tr(xy) is the candidate
    Frobenius form.
    """

    def __init__(self, p, labels, degrees, products, unit_indices, idempotents, trace):
        check_modulus(p)
        self.p = p
        self.labels = list(labels)
        dim = len(self.labels)
        self.dim = dim
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != dim:
            raise ValueError("duplicate basis labels")
        self.degrees = np.asarray(degrees, dtype=np.int64)
        a, b, c, coeff = np.asarray(products, dtype=np.int64).reshape(4, -1)
        live = coeff % p != 0
        # row and column dim are the zero slot
        self.mult_idx = np.full((dim + 1, dim + 1), dim, dtype=np.int64)
        self.mult_coeff = np.zeros((dim + 1, dim + 1), dtype=np.int64)
        self.mult_idx[a[live], b[live]] = c[live]
        self.mult_coeff[a[live], b[live]] = coeff[live] % p
        self.unit_indices = list(unit_indices)
        self.idempotents = list(idempotents)  # (class_label, index, simple_dim)
        self.trace = dict(trace)
        problems = self.check_axioms()
        if problems:
            raise ValueError("; ".join(problems))

    # -- axioms -----------------------------------------------------------
    def check_axioms(self) -> list[str]:
        issues = []
        dim, p = self.dim, self.p
        idx, cf = self.mult_idx, self.mult_coeff
        # grading: deg(ab) = deg a + deg b on nonzero products
        a_idx, b_idx = np.nonzero(cf[:dim, :dim])
        prod = idx[a_idx, b_idx]
        if not (self.degrees[prod] == self.degrees[a_idx] + self.degrees[b_idx]).all():
            issues.append("grading is not multiplicative")
        # unit: row b of table is (sum of units).b, resp. b.(sum of units),
        # with the zero slot last
        basis = np.arange(dim)[:, None]
        units = np.asarray(self.unit_indices, dtype=np.int64)[None, :]
        for side, pos in (("left", (units, basis)), ("right", (basis, units))):
            table = np.zeros((dim, dim + 1), dtype=np.int64)
            np.add.at(table, (basis, idx[pos]), cf[pos])
            bad = (table % p != np.eye(dim, dim + 1, dtype=np.int64)).any(axis=1).nonzero()[0]
            if len(bad):
                issues.append(f"unit fails on the {side} at basis {bad[0]}")
        if not self.is_associative():
            issues.append("multiplication is not associative")
        return issues

    def is_associative(self) -> bool:
        """(ab)c == a(bc) for all basis triples.

        Products are monomial, so (ab)c is nonzero only on triples where ab
        and then (ab).c are nonzero, and a(bc) only where bc and a.(bc) are.
        Both sides vanish off these two triple sets, so comparing them on
        the union is exact.  A zero product sits at the zero slot, whose
        products are zero, so indices compare as they are.
        """
        dim, p = self.dim, self.p
        idx, cf = self.mult_idx, self.mult_coeff
        x, y = np.nonzero(cf[:dim, :dim])  # nonzero products xy, sorted by x
        ty, tx = np.nonzero(cf[:dim, :dim].T)  # the same, sorted by y
        # one set at a time, for memory: xy = ab joins rows, xy = bc joins columns
        for by, other, joins_rows in ((x, y, True), (ty, tx, False)):
            n, m = sorted_join(idx[x, y], by)
            a, b, c = (x[n], y[n], other[m]) if joins_rows else (other[m], x[n], y[n])
            ab, bc = idx[a, b], idx[b, c]
            same_c = cf[a, b] * cf[ab, c] % p == cf[b, c] * cf[a, bc] % p
            if not ((idx[ab, c] == idx[a, bc]).all() and same_c.all()):
                return False
        return True

    # -- basic structure ---------------------------------------------------
    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[int(d)] = out.get(int(d), 0) + 1
        return out

    def poincare_coefficients(self) -> list[int]:
        table = self.dims_by_degree()
        top = max(table)
        if min(table) < 0:
            raise ValueError("negative degrees present")
        return [table.get(d, 0) for d in range(top + 1)]

    def column_basis(self, e: int) -> list[int]:
        """Basis indices spanning A.e (valid because products are monomial)."""
        idx, coeff = self.mult_idx[: self.dim, e], self.mult_coeff[: self.dim, e]
        hit = coeff.nonzero()[0]
        if (idx[hit] != hit).any() or (coeff[hit] != 1).any():
            raise ValueError("idempotent column is not basis-aligned")
        return hit.tolist()


class ProjectiveSum:
    """P = direct sum of shifted projectives A.e, with a concrete basis."""

    def __init__(self, algebra: BlockAlgebra, summands):
        self.algebra = algebra
        self.summands = list(summands)  # (idempotent index, degree shift)
        # basis element n is algebra element element[n] in summand summand[n]
        columns = [algebra.column_basis(e) for e, _ in self.summands]
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
        coeff = A.mult_coeff[a, self.element]
        hit = coeff.nonzero()[0]
        rows = self.row[self.summand[hit], A.mult_idx[a, self.element[hit]]]
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


def simple_socle_start(algebra: BlockAlgebra, idem: int) -> Syzygy:
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
            out.extend((label, d, ek[:, c]) for c in independent_columns(jk, ek, A.p))
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
    ker = kernel_basis(phi, p)
    # kernel vectors of a graded map are homogeneous (elimination only combines
    # rows of one degree), so each column's degree is read at its first nonzero
    return Syzygy(cover, ker, cover.degrees[(ker != 0).argmax(axis=0)])


def koszulity_probe(algebra: BlockAlgebra, hbound: int) -> dict:
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
