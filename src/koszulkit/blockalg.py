"""Finite-dimensional graded algebras by structure tables, and the graded
module machinery behind the Koszulity probe.

A BlockAlgebra has a basis whose pairwise products are single basis
elements with a scalar coefficient (all the algebras built here are of
this monomial shape).  Tables carry an extra "zero" slot so that products
vectorize; associativity, unitality and grading multiplicativity are
machine-checked on construction.

Graded left modules are represented as homogeneous subspaces of direct
sums of shifted projectives A.e; minimal projective covers are computed
degreewise by splitting the radical, which is the positive-degree part
because degree 0 is semisimple.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_modulus, kernel_basis, rank


class BlockAlgebra:
    """Graded associative unital algebra over GF(p) with monomial products.

    mult maps (a, b) -> (index, coeff) with missing pairs meaning 0.
    idempotents: one primitive idempotent index per isomorphism class of
    simple module, with the simple's dimension (matrix-block size).
    trace: the linear functional whose pairing tr(xy) is the candidate
    Frobenius form.
    """

    def __init__(self, p, labels, degrees, mult, unit_indices, idempotents, trace):
        check_modulus(p)
        self.p = p
        self.labels = list(labels)
        dim = len(self.labels)
        self.dim = dim
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != dim:
            raise ValueError("duplicate basis labels")
        self.degrees = np.asarray(degrees, dtype=np.int64)
        z = dim  # zero slot
        self.mult_idx = np.full((dim + 1, dim + 1), z, dtype=np.int64)
        self.mult_coeff = np.zeros((dim + 1, dim + 1), dtype=np.int64)
        for (a, b), (c, coeff) in mult.items():
            coeff %= p
            if coeff:
                self.mult_idx[a, b] = c
                self.mult_coeff[a, b] = coeff
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
        # unit: sum of unit_indices acts as identity both ways
        for b in range(dim):
            acc = {}
            for e in self.unit_indices:
                c, coeff = int(idx[e, b]), int(cf[e, b])
                if coeff:
                    acc[c] = (acc.get(c, 0) + coeff) % p
            if {k: v for k, v in acc.items() if v} != {b: 1}:
                issues.append(f"unit fails on the left at basis {b}")
                break
        for b in range(dim):
            acc = {}
            for e in self.unit_indices:
                c, coeff = int(idx[b, e]), int(cf[b, e])
                if coeff:
                    acc[c] = (acc.get(c, 0) + coeff) % p
            if {k: v for k, v in acc.items() if v} != {b: 1}:
                issues.append(f"unit fails on the right at basis {b}")
                break
        if not self.is_associative():
            issues.append("multiplication is not associative")
        return issues

    def is_associative(self) -> bool:
        """(ab)c == a(bc) for all basis triples, vectorized per a."""
        dim, p = self.dim, self.p
        idx, cf = self.mult_idx[: dim, : dim], self.mult_coeff[: dim, : dim]
        z = self.dim
        for a in range(dim):
            ab_i, ab_c = self.mult_idx[a, :dim], self.mult_coeff[a, :dim]
            left_i = self.mult_idx[ab_i][:, :dim]
            left_c = ab_c[:, None] * self.mult_coeff[ab_i][:, :dim] % p
            right_i = self.mult_idx[a, idx]
            right_c = cf * self.mult_coeff[a, idx] % p
            left_i = np.where(left_c == 0, z, left_i)
            right_i = np.where(right_c == 0, z, right_i)
            if not ((left_i == right_i).all() and (left_c == right_c).all()):
                return False
        return True

    # -- basic structure ---------------------------------------------------
    def product(self, a: int, b: int):
        return int(self.mult_idx[a, b]), int(self.mult_coeff[a, b])

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
        out = []
        for b in range(self.dim):
            i, coeff = self.product(b, e)
            if coeff:
                if i != b or coeff != 1:
                    raise ValueError("idempotent column is not basis-aligned")
                out.append(b)
        return out


class ProjectiveSum:
    """P = direct sum of shifted projectives A.e, with a concrete basis."""

    def __init__(self, algebra: BlockAlgebra, summands):
        self.algebra = algebra
        self.summands = list(summands)  # (idempotent index, degree shift)
        self.basis = []  # (summand number, algebra basis index)
        for g, (e, _) in enumerate(self.summands):
            for b in algebra.column_basis(e):
                self.basis.append((g, b))
        self.pos = {gb: n for n, gb in enumerate(self.basis)}
        self.degrees = np.array(
            [int(self.algebra.degrees[b]) + self.summands[g][1] for g, b in self.basis],
            dtype=np.int64,
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def act(self, a: int, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        p = self.algebra.p
        for n, c in enumerate(vec):
            if not c:
                continue
            g, b = self.basis[n]
            i, coeff = self.algebra.product(a, b)
            if coeff:
                m = self.pos[(g, i)]
                out[m] = (out[m] + c * coeff) % p
        return out


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
    cols, degs = [], []
    for n, (g, b) in enumerate(amb.basis):
        d = int(algebra.degrees[b])
        if d >= 1:
            v = np.zeros(amb.dim, dtype=np.int64)
            v[n] = 1
            cols.append(v)
            degs.append(d)
    mat = np.stack(cols, axis=1) if cols else np.zeros((amb.dim, 0), dtype=np.int64)
    return Syzygy(amb, mat, degs)


def _rank(mat: np.ndarray, p: int) -> int:
    return rank(mat, p) if mat.size else 0


def minimal_generators(syz: Syzygy) -> list[tuple]:
    """Generators of top(K) = K / JK as (class_label, degree, vector).

    Works degree by degree: J K in degree d is spanned by positive-degree
    algebra elements applied to lower-degree columns of K; multiplicity of
    the simple of class r is read off by applying its idempotent.
    """
    A = syz.ambient.algebra
    p = A.p
    out = []
    if syz.dim == 0:
        return out
    degrees = sorted(set(int(d) for d in syz.degrees))
    pos_elems = [a for a in range(A.dim) if A.degrees[a] >= 1]
    for d in degrees:
        kd = syz.columns[:, syz.degrees == d]
        jk = []
        for a in pos_elems:
            da = int(A.degrees[a])
            lower = syz.columns[:, syz.degrees == d - da]
            for cidx in range(lower.shape[1]):
                jk.append(syz.ambient.act(a, lower[:, cidx]))
        jk_mat = (
            np.stack(jk, axis=1) if jk else np.zeros((syz.ambient.dim, 0), dtype=np.int64)
        )
        base = _rank(jk_mat, p)
        for label, e, _ in A.idempotents:
            evecs = []
            for cidx in range(kd.shape[1]):
                v = np.zeros(syz.ambient.dim, dtype=np.int64)
                for n, c in enumerate(kd[:, cidx]):
                    if not c:
                        continue
                    g, b = syz.ambient.basis[n]
                    i, coeff = A.product(e, b)
                    if coeff:
                        v[syz.ambient.pos[(g, i)]] = (
                            v[syz.ambient.pos[(g, i)]] + c * coeff
                        ) % p
                if v.any():
                    evecs.append(v)
            spanned = jk_mat
            rk = base
            for v in evecs:
                cand = np.concatenate([spanned, v.reshape(-1, 1)], axis=1)
                r2 = _rank(cand, p)
                if r2 > rk:
                    spanned, rk = cand, r2
                    out.append((label, d, v))
    return out


def next_syzygy(syz: Syzygy, gens) -> Syzygy:
    """Kernel of the projective cover built on ``gens`` mapping onto syz."""
    A = syz.ambient.algebra
    p = A.p
    idx_of = {label: e for label, e, _ in A.idempotents}
    cover = ProjectiveSum(A, [(idx_of[label], d) for label, d, _ in gens])
    phi = np.zeros((syz.ambient.dim, cover.dim), dtype=np.int64)
    for n, (g, b) in enumerate(cover.basis):
        img = np.zeros(syz.ambient.dim, dtype=np.int64)
        target = gens[g][2]
        img = syz.ambient.act(b, target)
        phi[:, n] = img
    ker = kernel_basis(phi, p)
    degs = []
    cols = []
    for cidx in range(ker.shape[1]):
        v = ker[:, cidx]
        support = np.nonzero(v)[0]
        dset = set(int(cover.degrees[n]) for n in support)
        if len(dset) != 1:
            # split a mixed kernel vector degreewise (kernel of a graded map
            # decomposes; canonical echelon vectors are already homogeneous
            # because the basis is degree-sorted per summand, but guard anyway)
            for d in sorted(dset):
                w = np.where(cover.degrees == d, v, 0)
                cols.append(w)
                degs.append(d)
        else:
            cols.append(v)
            degs.append(dset.pop())
    mat = np.stack(cols, axis=1) if cols else np.zeros((cover.dim, 0), dtype=np.int64)
    return Syzygy(cover, mat, degs)


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
