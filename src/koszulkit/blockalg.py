"""Finite-dimensional graded algebras by structure tables, and the graded
module machinery behind the Koszulity probe.

A BlockAlgebra has a basis whose pairwise products are single basis
elements with a scalar coefficient (all the algebras built here are of
this monomial shape).  It is built from product arrays (a, b, c, coeff)
into dense (dim + 1)^2 tables with an extra "zero" slot so that products
are O(1) gathers: ``mult_idx`` holds int32 positions and ``mult_coeff``
residues in the narrowest unsigned dtype that holds p, so every reader
widens to int64 before it multiplies two residues.  The positions of the
nonzero products are listed once (``nonzero_products``).  The checks read
only those: the grading and the unit on construction, associativity on
the triples where (ab)c is nonzero, joined in slices of bounded size and
counted against the triples where a(bc) is, which is exact because
products are monomial, and in ``sl2`` the Cartan table, the Frobenius
form and the anti-automorphism.  Idempotent columns and the action on
projectives gather from ``mult_idx``/``mult_coeff`` directly.

Graded left modules are represented as submodules of direct sums of
shifted projectives A.e, whose basis is ordered by degree.  A syzygy is
held one degree at a time, as {degree d: columns over the basis in degree
d}, so every degree is known by construction.  ``ProjectiveSum.act`` maps
columns in one degree to another in one gather from their nonzero
entries, acting by one algebra element or by one per column.  Minimal
projective covers are computed degreewise by splitting the radical, which
is the positive-degree part because degree 0 is semisimple; every
elimination is a ``linalg.rref`` of one degree's block.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import check_modulus, independent_columns, kernel_basis, sorted_join

# Triples is_associative compares at once, whatever the block's size.  A
# slice costs about 49 bytes a triple (tracemalloc): two intp positions,
# two int32 keys and one side's int64 products at a time, with the casts
# of the keys to intp at each gather.  At p = 37 (limits lifted, 7.1M
# triples) is_associative peaks at 59 MB, and at p = 53 (30M) at 75 MB.
ASSOCIATIVITY_SLICE = 1 << 20


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
        # a.b sits at a * (dim + 1) + b in the raveled tables, an int32 key
        if (dim + 1) ** 2 >= 1 << 31:
            raise ValueError(f"the algebra has dimension {dim}, over the limit of 46339 ((dim + 1)^2 < 2^31)")
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != dim:
            raise ValueError("duplicate basis labels")
        self.degrees = np.asarray(degrees, dtype=np.int64)
        a, b, c, coeff = np.asarray(products, dtype=np.int64).reshape(4, -1)
        live = coeff % p != 0
        # row and column dim are the zero slot
        self.mult_idx = np.full((dim + 1, dim + 1), dim, dtype=np.int32)
        self.mult_coeff = np.zeros((dim + 1, dim + 1), dtype=np.min_scalar_type(p))
        self.mult_idx[a[live], b[live]] = c[live]
        self.mult_coeff[a[live], b[live]] = coeff[live] % p
        self.unit_indices = list(unit_indices)
        self.idempotents = list(idempotents)  # (class_label, index, simple_dim)
        self.trace = dict(trace)
        problems = self.check_axioms()
        if problems:
            raise ValueError("; ".join(problems))

    @functools.cached_property
    def nonzero_products(self):
        """Positions (a, b) of the nonzero products, sorted by a, then b."""
        return np.nonzero(self.mult_coeff[: self.dim, : self.dim])

    # -- axioms -----------------------------------------------------------
    def check_axioms(self) -> list[str]:
        issues = []
        dim, p = self.dim, self.p
        x, y = self.nonzero_products
        xy, coeff = self.mult_idx[x, y], self.mult_coeff[x, y].astype(np.int64)
        # grading: deg(ab) = deg a + deg b on nonzero products
        if not (self.degrees[xy] == self.degrees[x] + self.degrees[y]).all():
            issues.append("grading is not multiplicative")
        # unit: (sum of units).b = b = b.(sum of units), a unit listed k times
        # counting k times.  The nonzero products u.b (resp. b.u) are summed
        # by (b, target); b fails unless its only nonzero sum is 1 at b.
        times = np.bincount(np.asarray(self.unit_indices, dtype=np.int64), minlength=dim)
        for side, u, b in (("left", x, y), ("right", y, x)):
            on = times[u] > 0
            key, group = np.unique(b[on] * (dim + 1) + xy[on], return_inverse=True)
            sums = np.zeros(len(key), dtype=np.int64)
            np.add.at(sums, group, coeff[on] * times[u[on]])
            row, target = np.divmod(key, dim + 1)
            bad = np.ones(dim, dtype=bool)
            bad[row[row == target]] = False
            bad[row[sums % p != (row == target)]] = True
            if bad.any():
                issues.append(f"unit fails on the {side} at basis {bad.argmax()}")
        if not self.is_associative():
            issues.append("multiplication is not associative")
        return issues

    def is_associative(self) -> bool:
        """(ab)c == a(bc) for all basis triples, read from nonzero products.

        Products are monomial, so (ab)c is nonzero exactly on the triples
        where ab and then (ab).c are nonzero products, and a(bc) exactly
        where bc and a.(bc) are.  One join lists the first set, in slices of
        ASSOCIATIVITY_SLICE triples, and compares the two sides there, so
        a(bc) is nonzero on each of them.  The second set has, for each
        nonzero bc, as many triples as column bc has nonzero products; when
        the two sets have the same size they are equal, and both sides
        vanish off them.  A zero product sits at the zero slot, whose
        products are zero, so indices compare as they are.

        A triple is held as the positions n, m of its two products in the
        list of nonzero products (intp, since each indexes three gathers)
        and the keys of bc and a.(bc) in the raveled tables, which are int32
        because the constructor keeps (dim + 1)^2 below 2^31.
        """
        dim, p = self.dim, self.p
        x, y = self.nonzero_products
        xy, coeff = self.mult_idx[x, y], self.mult_coeff[x, y]
        in_row = np.bincount(x, minlength=dim + 1)
        per = in_row[xy]  # the triples (a, b, c) with ab = product n: one per product (ab).c
        triples = int(per.sum())
        if triples != np.bincount(y, minlength=dim + 1)[xy].sum():
            return False
        ends = per.cumsum()
        # triple k is product n = ab times product m = (ab).c, the products
        # of row ab in order: m = k + shift[n]
        shift = np.r_[0, in_row.cumsum()][xy] - ends + per
        x, y = x.astype(np.int32), y.astype(np.int32)
        idx, cf = self.mult_idx.ravel(), self.mult_coeff.ravel()  # a.b at a * (dim + 1) + b
        for lo in range(0, triples, ASSOCIATIVITY_SLICE):
            hi = min(lo + ASSOCIATIVITY_SLICE, triples)
            # the slice meets the triples of products first to last
            first, last = ends.searchsorted([lo, hi - 1], "right")
            n = np.arange(first, last + 1).repeat(per[first : last + 1])
            n = n[lo - ends[first] + per[first] :][: hi - lo]
            m = shift[n]
            m += np.arange(lo, hi)
            bc = y[n] * (dim + 1) + y[m]
            a_bc = x[n] * (dim + 1) + idx[bc]
            if not (xy[m] == idx[a_bc]).all():
                return False
            left = coeff[n].astype(np.int64)
            left *= coeff[m]
            del n, m
            left %= p
            right = cf[bc].astype(np.int64)
            right *= cf[a_bc]
            right %= p
            if not (left == right).all():
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
    """P = direct sum of shifted projectives A.e, with its basis ordered by
    degree; ``at[d]`` is the slice of the basis in degree d."""

    def __init__(self, algebra: BlockAlgebra, summands):
        self.algebra = algebra
        self.summands = list(summands)  # (idempotent index, degree shift)
        # basis element n is algebra element element[n] in summand summand[n]
        columns = [algebra.column_basis(e) for e, _ in self.summands]
        summand = np.repeat(np.arange(len(columns), dtype=np.int64), [len(c) for c in columns])
        element = np.array([b for c in columns for b in c], dtype=np.int64)
        shifts = np.array([shift for _, shift in self.summands], dtype=np.int64)
        degrees = algebra.degrees[element] + shifts[summand]
        order = degrees.argsort(kind="stable")
        self.summand, self.element, self.degrees = summand[order], element[order], degrees[order]
        # row[g, b]: position of (g, b) in the basis, -1 when b is not in A.e_g
        self.row = np.full((len(columns), algebra.dim), -1, dtype=np.int64)
        self.row[self.summand, self.element] = np.arange(len(order))
        ds, starts, counts = np.unique(self.degrees, return_index=True, return_counts=True)
        self.at = {d: slice(s, s + n) for d, s, n in zip(ds.tolist(), starts.tolist(), counts.tolist())}

    def act(self, a, x, d: int, t: int) -> np.ndarray:
        """a.x for x columns over the degree-d basis, given as their nonzero
        entries (n, c, vals, width): vals[i] in row n[i] of column c[i] <
        width.  ``a`` is one algebra element of degree t - d, or one per
        column; the result is dense over the degree-t basis."""
        n, c, vals, width = x
        A, src, dst = self.algebra, self.at[d], self.at.get(t, slice(0, 0))
        a, n = np.broadcast_to(a, width)[c], src.start + n
        b = self.element[n]
        vals = A.mult_coeff[a, b].astype(np.int64) * vals  # coefficient of a_c.b_n times x
        live = vals.nonzero()[0]
        c, vals = c[live], vals[live]
        rows = self.row[self.summand[n[live]], A.mult_idx[a[live], b[live]]] - dst.start
        out = np.zeros((dst.stop - dst.start, width), dtype=np.int64)
        np.add.at(out, (rows, c), vals)
        out[rows, c] %= A.p  # only the entries written can be p or more
        return out


def _entries(x: np.ndarray) -> tuple:
    """The columns of x as ``ProjectiveSum.act`` takes them."""
    n, c = x.nonzero()
    return n, c, x[n, c], x.shape[1]


def minimal_generators(amb: ProjectiveSum, syz: dict) -> list[tuple]:
    """Generators of top(K) = K / JK as (class_label, degree, vector), for K
    held as {degree d: columns over the degree-d basis of ``amb``}.

    Works degree by degree: (JK)_d is spanned by the algebra elements of
    degree d - c applied to K_c, all of them in one action on the nonzero
    entries of K_c, for each lower degree c; the multiplicity of the simple
    of class r is read off by applying its idempotent.
    """
    A = amb.algebra
    a, b = A.nonzero_products
    entries, acts = {}, {}
    for c, kc in syz.items():
        entries[c] = _entries(kc)
        # the algebra elements that act on degree c of amb at all
        on = np.zeros(A.dim, dtype=bool)
        on[amb.element[amb.at[c]]] = True
        acts[c] = np.zeros(A.dim, dtype=bool)
        acts[c][a[on[b]]] = True
    out = []
    for d, kd in syz.items():
        jk = [np.zeros((len(kd), 0), dtype=np.int64)]
        for c in syz:
            if c < d:  # elems[r] on column j of K_c is column r * width + j
                elems = ((A.degrees == d - c) & acts[c]).nonzero()[0]
                n, j, vals, width = entries[c]
                k = len(elems)
                x = n.repeat(k), (j[:, None] + width * np.arange(k)).ravel(), vals.repeat(k), k * width
                jk.append(amb.act(elems.repeat(width), x, c, d))
        jk = np.concatenate(jk, axis=1)
        jk = jk[:, jk.any(axis=0)]  # zero columns span nothing; rref need not read them
        for label, e, _ in A.idempotents:
            ek = amb.act(e, entries[d], d, d)
            out.extend((label, d, ek[:, i]) for i in independent_columns(jk, ek, A.p))
    return out


def next_syzygy(amb: ProjectiveSum, gens, step: int):
    """(cover, kernel) of the projective cover built on ``gens``, all in
    degree ``step``, mapping onto the submodule of ``amb`` they generate; the
    kernel is {degree t: columns over the cover's degree-t basis}, one
    action and one kernel per degree of the cover."""
    A = amb.algebra
    idx_of = {label: e for label, e, _ in A.idempotents}
    cover = ProjectiveSum(A, [(idx_of[label], step) for label, _, _ in gens])
    targets = np.column_stack([v for _, _, v in gens])
    g, n = targets.T.nonzero()  # the targets' entries, by generator
    vals = targets[n, g]
    ker = {}
    for t, at in cover.at.items():
        # cover basis element j in degree t maps to its element times its generator's target
        j, i = sorted_join(cover.summand[at], g)
        k = kernel_basis(amb.act(cover.element[at], (n[i], j, vals[i], at.stop - at.start), step, t), A.p)
        if k.shape[1]:
            ker[t] = k
    return cover, ker


def koszulity_probe(algebra: BlockAlgebra, hbound: int) -> dict:
    """Linear-resolution probe out to homological degree hbound.

    For every simple module, computes the minimal graded projective
    resolution and reports the internal degrees of the generators of each
    syzygy; linear means the i-th syzygy is generated exactly in degree i,
    and the probe of a simple stops at the first step where it is not.
    """
    if hbound < 1:
        raise ValueError("hbound must be >= 1")
    report = {"hbound": hbound, "simples": [], "linear": True}
    for label, e, _ in algebra.idempotents:
        entry = {"simple": label, "steps": [], "witness": None}
        # the first syzygy is the positive-degree part of A.e (exact because
        # degree 0 is semisimple, so J = A_{>0})
        amb = ProjectiveSum(algebra, [(e, 0)])
        syz = {d: np.eye(at.stop - at.start, dtype=np.int64) for d, at in amb.at.items() if d >= 1}
        for step in range(1, hbound + 1):
            if not syz:
                break
            gens = minimal_generators(amb, syz)
            degs = sorted(set(d for _, d, _ in gens))
            entry["steps"].append({"syzygy": step, "generator_degrees": degs})
            if degs != [step]:
                bad = next(d for d in degs if d != step)
                entry["witness"] = [step, bad]
                report["linear"] = False
                break
            amb, syz = next_syzygy(amb, gens, step)
        report["simples"].append(entry)
    return report
