"""Finite-dimensional graded algebras of matrix units over a type table,
and the graded module machinery behind the Koszulity probe.

A BlockAlgebra is held as its type table.  Each basis element, a label,
is a matrix unit (t, i, j) of a type t; each type has a degree and a
(source, target) pair of blocks, and each block a size.  A T x T table
gives the type and coefficient of each product of two types, and
(t, i, j).(u, k, l) is that coefficient times (t.u, i, l) when j == k and
0 otherwise.  An algebra given by structure constants on a basis is one
type per label, all on one block of size 1.  Every check and reader works
on the type table and never lists the labels.  The grading, the unit and
associativity are checked there (see ``BlockAlgebra``), as are the
Frobenius form, the anti-automorphism and the Cartan table in ``sl2``.
The Koszulity probe resolves the simples of the corner algebra spanned by
the labels (t, 0, 0), which multiply as the type table does; it is graded
Morita equivalent to the algebra.  Nothing here allocates in proportion to
the dimension, and a resolution depends on the corner alone.

Graded left modules are represented as submodules of direct sums of
shifted projectives A.e, whose basis is ordered by degree.  Every syzygy,
action and kernel is held as the entries (rows, cols, vals, width) of
homogeneous columns over the whole basis, vals[i] in row rows[i] of column
cols[i] < width, and none is made dense.  ``ProjectiveSum.act`` acts on
each column by its own type, of any degree.  Minimal projective covers are
computed by splitting the radical, which is the positive-degree part
because degree 0 is semisimple.  A probe step makes a fixed number of
calls, whatever its degrees and however many simples there are: two
actions and one ``independent_columns`` for the generators, one action
and one ``kernel_basis`` for the next syzygy.

The lemma that makes one elimination over every degree exact: every type
is homogeneous, so a type acting on a homogeneous column gives one, and
every column the probe eliminates is homogeneous.  So each matrix it
eliminates is block-diagonal by degree, up to the order of its rows and
columns: a row, a basis element of degree d, has entries only in columns
of degree d.  ``linalg``'s row reduction subtracts a pivot row from a row
only when their least columns match, so both lie in the block of that
column's degree, and every row stays in its block.  A column is a pivot
exactly when it is independent of those before it, and a homogeneous
column is, exactly when it is independent of those of its own degree.
So the greedy pass keeps, degree by degree, what a pass over one degree
would keep, and each kernel column, read off reduced rows of one block, is
homogeneous.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_modulus, independent_columns, kernel_basis, sorted_join, summed


class BlockAlgebra:
    """Graded associative unital algebra over GF(p) of matrix units over a
    type table.

    types: one name per type; degrees: the degree of each type; blocks:
    its (source, target) pair of blocks; sizes: the size of each block.
    Type t spans the labels (t, i, j) with i < sizes[source], j <
    sizes[target], numbered type by type, then by i, then by j.
    products: arrays (t, u, v, coeff) of type indices saying t.u = coeff v;
    pairs not listed, and zero coefficients, mean t.u = 0.  A nonzero t.u
    must compose, from t's source block through t's target, which is u's
    source, to u's target, and v must run between those two blocks.
    units: type names, each from a block to itself, whose identity
    matrices (the sums of the labels (t, i, i)) sum to the unit, a name
    listed k times counting k times; held as type indices.
    idempotents: (class_label, type name) for the primitive idempotent
    (t, 0, 0) of each isomorphism class of simple module; held as
    (class_label, type index).
    trace: {type name: value}, each type from a block to itself, the linear
    functional with (t, i, i) -> value whose pairing tr(xy) is the
    candidate Frobenius form; held per type, mod p, 0 where not listed.

    The lemma the checks rest on: when every block has size at least 1,
    for labels a = (t, i, j), b = (u, k, l), c = (w, m, n) both (ab)c and
    a(bc) equal [j == k][l == m] times the type-level products (tu)w and
    t(uw), coefficients included, placed at (i, n).  So the algebra is
    associative exactly when its type table is: a failing type triple fails
    at the labels (t, 0, 0), (u, 0, 0), (w, 0, 0).  Off the composable type
    triples both sides are zero, so the check reads every triple of types
    at once.  Likewise ab has degree deg a + deg b for every nonzero ab
    exactly when the type table is graded, and the identity matrix of a
    unit type t times (w, m, n) is t.w at (m, n), so the unit laws hold
    exactly when they hold on the type table.  With one type per label
    these are the label-level checks themselves.

    The same placement carries the readers in ``sl2`` to the type table.
    tr((t, i, j).(u, k, l)) is [j == k][i == l] C[t, u] tr(P[t, u]), for
    product types P and coefficients C, so the label Gram is a direct sum
    of copies of the type Gram's pieces, one copy per (i, j).  A type map
    phi that swaps each type's blocks lifts to (t, i, j) -> (phi t, j, i),
    and it reverses products exactly when it does on the type table.  A
    primitive idempotent (t, 0, 0) fixes from the left only labels in row
    0, and from the right only labels in column 0, so a Cartan table counts
    types.

    The Koszulity probe runs on the type table by graded Morita
    equivalence.  Let e be the sum of the labels (u, 0, 0) over the unit
    types, each counted as often as ``units`` lists it; e has degree 0.  The
    unit law on the type table gives e.(t, 0, 0) = (t, 0, 0) = (t, 0, 0).e,
    so the corner eAe is spanned by the labels (t, 0, 0), and they multiply
    exactly as the type table does.  e is full: (t, i, j) is the sum over
    unit types u and w of (u, i, 0).(t, 0, 0).(w, 0, j), and (u, i, 0) lies
    in Ae.  So Ae (x)_{eAe} - is an equivalence of graded module
    categories; it sends each projective cover and simple to the matching
    ones, and minimal resolutions to minimal resolutions with the same
    generator degrees.
    """

    def __init__(self, p, types, degrees, blocks, sizes, products, units, idempotents, trace):
        check_modulus(p)
        self.p = p
        self.types = list(types)
        where = {name: t for t, name in enumerate(self.types)}
        if len(where) != len(self.types):
            raise ValueError("duplicate type names")
        self.type_degrees = np.asarray(degrees, dtype=np.int64)
        self.blocks = np.asarray(blocks, dtype=np.int64).reshape(-1, 2)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if (self.sizes < 1).any():
            raise ValueError("every block must have size at least 1")
        source, target = self.sizes[self.blocks].T
        # type t's labels are offset[t] .. offset[t + 1] - 1
        self.offset = np.r_[0, (source * target).cumsum()]
        self.dim = int(self.offset[-1])
        t, u, v, coeff = np.asarray(products, dtype=np.int64).reshape(4, -1)
        live = coeff % p != 0
        # product_type is read only where product_coeff is nonzero
        self.product_type = np.zeros((len(self.types),) * 2, dtype=np.int64)
        self.product_coeff = np.zeros((len(self.types),) * 2, dtype=np.int64)
        self.product_type[t[live], u[live]] = v[live]
        self.product_coeff[t[live], u[live]] = coeff[live] % p
        t, u = self.product_coeff.nonzero()
        v = self.product_type[t, u]
        (ts, tt), (us, ut), (vs, vt) = self.blocks[t].T, self.blocks[u].T, self.blocks[v].T
        off = (tt != us) | (vs != ts) | (vt != ut)
        if off.any():
            t, u, v = (self.types[x[off.argmax()]] for x in (t, u, v))
            raise ValueError(f"types {t} and {u} do not compose to {v}")
        self.units = [where[name] for name in units]
        traced = [where[name] for name in trace]
        square = self.blocks[[*self.units, *traced]]
        if (square[:, 0] != square[:, 1]).any():
            raise ValueError("a unit or trace type must run from a block to itself")
        self.idempotents = [(label, where[name]) for label, name in idempotents]
        self.trace = np.zeros(len(self.types), dtype=np.int64)
        self.trace[traced] = [v % p for v in trace.values()]
        problems = self.check_axioms()
        if problems:
            raise ValueError("; ".join(problems))

    # -- axioms -----------------------------------------------------------
    def check_axioms(self) -> list[str]:
        issues = []
        t, u = self.product_coeff.nonzero()
        if not (self.type_degrees[self.product_type[t, u]] == self.type_degrees[t] + self.type_degrees[u]).all():
            issues.append("grading is not multiplicative")
        # unit: (sum of units).b = b = b.(sum of units), a unit type listed k
        # times counting k times.  On the left, the identity matrix of t
        # times (w, m, n) is t.w at (m, n), so sums[w, v] sums the
        # coefficients of the products t.w = v; b fails unless its type's
        # only nonzero sum is 1 at itself.  The right is the transpose.
        T = len(self.types)
        times = np.bincount(np.asarray(self.units, dtype=np.int64), minlength=T)[:, None]
        w = np.broadcast_to(np.arange(T), (T, T))
        for side, P, C in (("left", self.product_type, self.product_coeff), ("right", self.product_type.T, self.product_coeff.T)):
            sums = np.zeros((T, T), dtype=np.int64)
            np.add.at(sums, (w, P), C * times)
            bad = (sums % self.p != np.eye(T, dtype=np.int64)).any(axis=1)
            if bad.any():
                issues.append(f"unit fails on the {side} at basis {self.offset[bad.argmax()]}")
        if not self.is_associative():
            issues.append("multiplication is not associative")
        return issues

    def is_associative(self) -> bool:
        """(tu)w == t(uw) for every triple of types, coefficients included:
        associativity itself, by the lemma in the class docstring."""
        P, C, p = self.product_type, self.product_coeff, self.p
        left = C[:, :, None] * C[P] % p  # [t, u, w]: C[t, u] C[tu, w]
        right = C[None] * C[:, P] % p  # C[u, w] C[t, uw]
        return bool((left == right).all() and (P[P] == P[:, P])[left != 0].all())

    # -- basic structure ---------------------------------------------------
    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d, n in zip(self.type_degrees.tolist(), np.diff(self.offset).tolist()):
            out[d] = out.get(d, 0) + n
        return out

    def poincare_coefficients(self) -> list[int]:
        table = self.dims_by_degree()
        top = max(table)
        if min(table) < 0:
            raise ValueError("negative degrees present")
        return [table.get(d, 0) for d in range(top + 1)]

    def column_basis(self, e: int) -> list[int]:
        """The types t with t.e nonzero, for an idempotent type e: they span
        the corner algebra's projective at e.  Each t.e must be t, and the
        idempotents orthogonal, as ``minimal_generators`` splits by them."""
        hit = self.product_coeff[:, e].nonzero()[0]
        if (self.product_type[hit, e] != hit).any() or (self.product_coeff[hit, e] != 1).any():
            raise ValueError("idempotent column is not basis-aligned")
        idems = [t for _, t in self.idempotents]
        if np.count_nonzero(self.product_coeff[np.ix_(idems, idems)]) > np.count_nonzero(self.product_coeff[idems, idems]):
            raise ValueError("idempotents are not orthogonal: e_r.e_s != 0 for some r != s")
        return hit.tolist()


class ProjectiveSum:
    """P = direct sum of shifted projectives A.e over the corner algebra of
    types (see ``BlockAlgebra``), with its basis ordered by degree: a basis
    element is a type in one summand, and ``degrees`` holds its degree."""

    def __init__(self, algebra: BlockAlgebra, summands):
        self.algebra = algebra
        self.summands = list(summands)  # (idempotent index, degree shift)
        # basis element n is type element[n] in summand summand[n]; the basis
        # runs by degree, then summand, then type (each column is ascending)
        basis = {e: algebra.column_basis(e) for e in dict.fromkeys(e for e, _ in self.summands)}
        degree = algebra.type_degrees.tolist()
        elements = sorted((degree[u] + shift, g, u) for g, (e, shift) in enumerate(self.summands) for u in basis[e])
        ds, summand, element = zip(*elements) if elements else ((), (), ())
        self.degrees, self.summand, self.element = (np.array(x, dtype=np.int64) for x in (ds, summand, element))
        # row[g, u]: position of (g, u) in the basis, -1 when u is not in A.e_g
        self.row = np.full((len(self.summands), len(algebra.types)), -1, dtype=np.int64)
        self.row[self.summand, self.element] = np.arange(len(ds))

    def act(self, a, x):
        """a.x for x columns over the basis, given as their entries (n, c,
        vals, width): vals[i] in row n[i] of column c[i] < width.  ``a``
        holds one type per column, of any degree: the product of a type
        with basis element (g, u) is a multiple of (g, a.u), which lies in
        a's degree plus u's.  The result is the entries of a.x, merged by
        ``summed``: distinct, sorted by (row, column), with values in [1, p)."""
        n, c, vals, width = x
        A = self.algebra
        a, b = a[c], self.element[n]
        vals = A.product_coeff[a, b] * vals % A.p  # coefficient of a_c.b_n times x
        # every entry's key, those of the vanishing products dropped after
        key = self.row[self.summand[n], A.product_type[a, b]] * width + c
        live = vals != 0
        key, vals = summed(key[live], vals[live], A.p)
        return *np.divmod(key, width), vals, width


def _copies(types, x):
    """(one type per column, columns): the columns x once for each of
    ``types``, column j under types[r] at r * width + j."""
    n, j, vals, width = x
    k = len(types)
    return np.repeat(types, width), (n.repeat(k), (j[:, None] + width * np.arange(k)).ravel(), vals.repeat(k), k * width)


def minimal_generators(amb: ProjectiveSum, syz) -> tuple:
    """Generators of top(K) = K / JK, for K held as the entries of
    homogeneous columns over the basis of ``amb``: (classes, degrees,
    columns), each generator's index in ``idempotents``, its degree, and
    the entries (rows, cols, vals, count) of its column, sorted by column.

    JK is spanned by the types of positive degree applied to the columns of
    K, all in one action, and every idempotent e_r in one more; one greedy
    pass over [JK | e_0 K | e_1 K | ...] keeps the generators of class r in
    e_r K, as a pass per idempotent would, since the idempotents are
    orthogonal and JK is a submodule: e_r k = j + sum_s x_s, j in JK and x_s
    kept in e_s K, gives e_r k = e_r j + x_r.  By the lemma in the module
    docstring, it keeps per degree what a pass over one degree would keep."""
    A = amb.algebra
    # the types that act on amb at all: t acts on a basis element of type u
    # exactly when t.u is nonzero
    on = (A.type_degrees > 0) & (A.product_coeff[:, amb.element] != 0).any(axis=1)
    jk = amb.act(*_copies(on.nonzero()[0], syz))
    ek = n, j, vals, width = amb.act(*_copies(np.array([e for _, e in A.idempotents], dtype=np.int64), syz))
    kept = np.array(independent_columns(jk, ek, len(amb.element), A.p), dtype=np.int64)
    g = np.full(width, -1)
    g[kept] = np.arange(len(kept))  # each kept column's generator, -1 for the others
    at = g[j].argsort(kind="stable")[np.count_nonzero(g[j] < 0):]  # the kept columns' entries, by column
    n, g = n[at], g[j[at]]
    first = g.searchsorted(np.arange(len(kept)))  # each column lies in the degree of its first entry
    return kept // syz[3], amb.degrees[n[first]], (n, g, vals[at], len(kept))


def next_syzygy(amb: ProjectiveSum, gens, step: int):
    """(cover, kernel) of the projective cover built on ``gens``, from
    ``minimal_generators`` in degree ``step``, onto the submodule of ``amb``
    they generate: one action for the whole map and one kernel, as the
    entries of homogeneous columns over the cover's basis (see the module
    docstring).  In a degree that ``amb`` lacks the map is zero, so its
    basis elements are free columns, each its own kernel column."""
    A = amb.algebra
    classes, _, (n, g, vals, _) = gens
    cover = ProjectiveSum(A, [(A.idempotents[r][1], step) for r in classes.tolist()])
    # cover basis element j maps to its element times its generator's target
    j, i = sorted_join(cover.summand, g)
    phi = amb.act(cover.element, (n[i], j, vals[i], len(cover.element)))
    return cover, kernel_basis(phi, len(amb.element), A.p)


def koszulity_probe(algebra: BlockAlgebra, hbound: int) -> dict:
    """Linear-resolution probe out to homological degree hbound.

    For every simple module, computes the minimal graded projective
    resolution and reports the internal degrees of the generators of each
    syzygy; linear means the i-th syzygy is generated exactly in degree i,
    and the probe of a simple stops at the first step where it is not.
    It resolves the simples of the corner algebra of types, which are the
    algebra's up to graded Morita equivalence (see ``BlockAlgebra``), so
    its cost does not depend on the sizes of the blocks.
    """
    if hbound < 1:
        raise ValueError("hbound must be >= 1")
    report = {"hbound": hbound, "simples": [], "linear": True}
    for label, e in algebra.idempotents:
        entry = {"simple": label, "steps": [], "witness": None}
        # the first syzygy is the positive-degree part of A.e (exact because
        # degree 0 is semisimple, so J = A_{>0})
        amb = ProjectiveSum(algebra, [(e, 0)])
        top = (amb.degrees >= 1).nonzero()[0]
        syz = top, np.arange(len(top)), np.ones(len(top), dtype=np.int64), len(top)
        for step in range(1, hbound + 1):
            if not syz[3]:
                break
            gens = minimal_generators(amb, syz)
            degs = sorted(set(gens[1].tolist()))
            entry["steps"].append({"syzygy": step, "generator_degrees": degs})
            if degs != [step]:
                bad = next(d for d in degs if d != step)
                entry["witness"] = [step, bad]
                report["linear"] = False
                break
            if step < hbound:  # the syzygy after the last step is never read
                amb, syz = next_syzygy(amb, gens, step)
        report["simples"].append(entry)
    return report
