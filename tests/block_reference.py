"""Algebras as dense (dim + 1)^2 product tables with a zero slot, the
representation ``BlockAlgebra``'s type table replaced, kept as the
reference its products and checks are cross-checked against.

A table is built from the per-pair builders of the blocks and of the
quiver below, or from product arrays a test gives; nothing here reads a
product from the code under test.  Rescaled, mutated and random tables
are tables of this kind, and every check here reads the dense tables pair
by pair or triple by triple."""

import functools

import numpy as np

import dense_reference

# The largest prime held in uint8 and the least held in uint16 and in
# uint32; at 251 an unwidened product of two residues wraps.
WIDE_PRIMES = (251, 257, 65537)


class Dense:
    """An algebra by structure constants on a basis: a.b = coeff[a, b] times
    idx[a, b]; row and column dim, and every zero product, sit at the zero
    slot dim."""

    def __init__(self, p, labels, degrees, products, unit_indices, idempotents, trace):
        self.p, self.labels = p, list(labels)
        self.dim = dim = len(self.labels)
        self.degrees = np.asarray(degrees, dtype=np.int64)
        a, b, c, coeff = np.asarray(products, dtype=np.int64).reshape(4, -1)
        live = coeff % p != 0
        self.idx = np.full((dim + 1, dim + 1), dim, dtype=np.int64)
        self.coeff = np.zeros((dim + 1, dim + 1), dtype=np.int64)
        self.idx[a[live], b[live]] = c[live]
        self.coeff[a[live], b[live]] = coeff[live] % p
        self.unit_indices = list(unit_indices)
        self.idempotents = list(idempotents)  # (class_label, index, simple_dim)
        self.trace = dict(trace)

    def product(self, a, b):
        """The single product a.b as (index, coeff), (dim, 0) when zero."""
        return int(self.idx[a, b]), int(self.coeff[a, b])

    def products(self):
        """The nonzero products as arrays (a, b, c, coeff)."""
        a, b = self.coeff[: self.dim, : self.dim].nonzero()
        return a, b, self.idx[a, b], self.coeff[a, b]


# -- the per-pair builders ------------------------------------------------------

def _compose(x, y):
    """Single product of two regular-block labels, or None."""
    if x[0] == "E" and y[0] == "E":
        r, d1, i, j = x[1:]
        r2, d2, k, l = y[1:]
        if r != r2 or j != k or d1 + d2 > 2:
            return None
        return ("E", r, d1 + d2, i, l)
    if x[0] == "E" and y[0] == "V":
        r, d, i, j = x[1:]
        r2, s, t, k, l = y[1:]
        if r != r2 or j != k or d:
            return None
        return ("V", r, s, t, i, l)
    if x[0] == "V" and y[0] == "E":
        r, s, t, i, j = x[1:]
        r2, d, k, l = y[1:]
        if s != r2 or j != k or d:
            return None
        return ("V", r, s, t, i, l)
    r, s, t, i, j = x[1:]
    r2, s2, u, k, l = y[1:]
    if s != r2 or j != k:
        return None
    # evaluation pairing: v_t against its dual basis vector only
    if s2 != r or t != u:
        return None
    return ("E", r, 2, i, l)


def _by_pairs(p, labels, degrees, compose, units, idempotents, trace):
    """A Dense table with one compose call per pair of labels."""
    index = {lab: k for k, lab in enumerate(labels)}
    products = [
        (a, b, index[lc], 1)
        for a, la in enumerate(labels)
        for b, lb in enumerate(labels)
        if (lc := compose(la, lb)) is not None
    ]
    return Dense(
        p,
        labels,
        degrees,
        np.array(products).T,
        [index[u] for u in units],
        [(cls, index[e], n) for cls, e, n in idempotents],
        {index[lab]: v for lab, v in trace.items()},
    )


def regular_block(p, lam):
    """The regular block at weight lam, one compose per pair."""
    n = (lam + 1, p - 1 - lam)
    labels = [("E", r, d, i, j) for r in range(2) for d in (0, 2) for i in range(n[r]) for j in range(n[r])]
    labels += [("V", r, s, t, i, j) for r, s in ((0, 1), (1, 0)) for t in range(2) for i in range(n[r]) for j in range(n[s])]
    degrees = [lab[2] if lab[0] == "E" else 1 for lab in labels]
    units = [("E", r, 0, i, i) for r in range(2) for i in range(n[r])]
    idems = [(f"L{r}", ("E", r, 0, 0, 0), n[r]) for r in range(2)]
    trace = {("E", r, 2, i, i): 1 for r in range(2) for i in range(n[r])}
    return _by_pairs(p, labels, degrees, _compose, units, idems, trace)


def singular_block(p):
    """The p x p matrix algebra in degree 0."""
    labels = [("E", 0, 0, i, j) for i in range(p) for j in range(p)]
    units = [("E", 0, 0, i, i) for i in range(p)]

    def compose(x, y):
        return ("E", 0, 0, x[3], y[4]) if x[4] == y[3] else None

    return _by_pairs(p, labels, [0] * len(labels), compose, units, [("L", units[0], p)], dict.fromkeys(units, 1))


# the quiver's nonzero products, written out: the vertices act as the
# identity on the paths from or to them, and ubar.u = vbar.v = z1,
# u.ubar = v.vbar = z2
QUIVER_PRODUCTS = {
    ("e1", "e1"): "e1", ("e2", "e2"): "e2",
    ("e2", "u"): "u", ("e2", "v"): "v", ("e1", "ubar"): "ubar", ("e1", "vbar"): "vbar",
    ("u", "e1"): "u", ("v", "e1"): "v", ("ubar", "e2"): "ubar", ("vbar", "e2"): "vbar",
    ("e1", "z1"): "z1", ("z1", "e1"): "z1", ("e2", "z2"): "z2", ("z2", "e2"): "z2",
    ("ubar", "u"): "z1", ("vbar", "v"): "z1", ("u", "ubar"): "z2", ("v", "vbar"): "z2",
}


def quiver(p):
    """The quiver's basic algebra on the paths e1, e2, u, v, ubar, vbar, z1, z2."""
    labels = ["e1", "e2", "u", "v", "ubar", "vbar", "z1", "z2"]
    degrees = [0, 0, 1, 1, 1, 1, 2, 2]
    idems = [("L0", "e1", 1), ("L1", "e2", 1)]
    return _by_pairs(p, labels, degrees, lambda x, y: QUIVER_PRODUCTS.get((x, y)), ["e1", "e2"], idems, {"z1": 1, "z2": 1})


@functools.lru_cache(maxsize=None)
def block(q, lam, p):
    """The block at q and lam (singular when lam is None), rescaled over
    GF(p) when that is not q's."""
    D = singular_block(q) if lam is None else regular_block(q, lam)
    return D if p == q else rescaled(D, p, p)


def expansion(A):
    """The dense table of a ``BlockAlgebra`` A on its labels (type name, i,
    j), built from A's types, blocks and sizes and numbered as A.offset
    says: each label product from A's type table by the j == k rule, one
    pair of labels at a time, with A's degrees, unit, idempotents and trace
    carried to the labels."""
    P, C = A.product_type, A.product_coeff
    size = A.sizes[A.blocks].tolist()  # [t] = (rows, columns) of type t
    labels = [(t, i, j) for t, (m, n) in enumerate(size) for i in range(m) for j in range(n)]
    index = {lab: k for k, lab in enumerate(labels)}
    assert len(labels) == A.dim and [index[(t, 0, 0)] for t in range(len(size))] == A.offset[:-1].tolist()
    products = [
        (x, y, index[(P[t, u], i, l)], C[t, u])
        for x, (t, i, j) in enumerate(labels)
        for y, (u, k, l) in enumerate(labels)
        if j == k and C[t, u]
    ]
    diagonal = [(t, i) for t, (m, _) in enumerate(size) for i in range(m)]
    return Dense(
        A.p,
        [(A.types[t], i, j) for t, i, j in labels],
        A.type_degrees[[t for t, _, _ in labels]],
        np.array(products, dtype=np.int64).T.reshape(4, -1),
        [index[(t, i, i)] for t in A.units for i in range(size[t][0])],
        [(cls, index[(t, 0, 0)], size[t][0]) for cls, t in A.idempotents],
        {index[(t, i, i)]: int(A.trace[t]) for t, i in diagonal if A.trace[t]},
    )


# -- tables derived from others -------------------------------------------------

def rescaled(D, seed, p=None):
    """D over GF(p), D's own field by default, in the basis b' = s_b b with
    random nonzero s_b (1 on the unit's summands), so its structure
    constants and trace values are not all 1.  D's structure constants must
    be 1 when p is not D's field (true of every block built here)."""
    p = p or D.p
    s = np.random.default_rng(seed).integers(1, p, size=D.dim)
    s[D.unit_indices] = 1
    a, b, c, coeff = D.products()
    inverse = np.array([pow(int(v), p - 2, p) for v in s], dtype=np.int64)
    coeff = coeff * s[a] % p * s[b] % p * inverse[c] % p
    trace = {i: v * int(s[i]) for i, v in D.trace.items()}
    return Dense(p, D.labels, D.degrees, (a, b, c, coeff), D.unit_indices, D.idempotents, trace)


def random_table(seed):
    """A random monomial table on at most 12 elements, in degree 0, with no
    unit, idempotent or trace."""
    rng = np.random.default_rng(seed)
    p, dim = int(rng.choice([3, 5, 7, *WIDE_PRIMES])), int(rng.integers(1, 13))
    a, b = (rng.random((dim, dim)) < rng.random()).nonzero()
    idx, coeff = rng.integers(0, dim, size=(dim, dim)), rng.integers(1, p, size=(dim, dim))
    return Dense(p, range(dim), [0] * dim, (a, b, idx[a, b], coeff[a, b]), [], [], {})


MUTATIONS = ("none", "coefficient", "redirect", "zero", "add")


def mutated_block(seed, mutation):
    """A block at p <= 7, over GF(p) or rescaled over a field of WIDE_PRIMES,
    with one product mutated."""
    rng = np.random.default_rng(seed)
    p = int(rng.choice([3, 5, 7, *WIDE_PRIMES]))
    q = p if p <= 7 else int(rng.choice([3, 5, 7]))  # the block's own p
    lam = [*range((q - 1) // 2), None][int(rng.integers(0, (q + 1) // 2))]
    D = block(q, lam, p)
    dim, idx, coeff = D.dim, D.idx.copy(), D.coeff.copy()
    live = np.argwhere(coeff[:dim, :dim])
    a, b = live[rng.integers(len(live))]
    if mutation == "coefficient":
        coeff[a, b] = 1 + (coeff[a, b] - 1 + rng.integers(1, p - 1)) % (p - 1)
    elif mutation == "redirect":
        idx[a, b] = (idx[a, b] + rng.integers(1, dim)) % dim
    elif mutation == "zero":
        idx[a, b], coeff[a, b] = dim, 0
    elif mutation == "add":
        dead = np.argwhere(coeff[:dim, :dim] == 0)
        a, b = dead[rng.integers(len(dead))]
        idx[a, b], coeff[a, b] = rng.integers(0, dim), rng.integers(1, p)
    a, b = coeff[:dim, :dim].nonzero()
    return Dense(p, D.labels, D.degrees, (a, b, idx[a, b], coeff[a, b]), D.unit_indices, D.idempotents, D.trace)


# -- the checks, densely --------------------------------------------------------

def is_associative(D):
    """(ab)c == a(bc) for all basis triples, vectorized per a."""
    dim, p, z = D.dim, D.p, D.dim
    idx, cf = D.idx[:dim, :dim], D.coeff[:dim, :dim]
    for a in range(dim):
        ab_i, ab_c = D.idx[a, :dim], D.coeff[a, :dim]
        left_i = D.idx[ab_i][:, :dim]
        left_c = ab_c[:, None] * D.coeff[ab_i][:, :dim] % p
        right_i = D.idx[a, idx]
        right_c = cf * D.coeff[a, idx] % p
        left_i = np.where(left_c == 0, z, left_i)
        right_i = np.where(right_c == 0, z, right_i)
        if not ((left_i == right_i).all() and (left_c == right_c).all()):
            return False
    return True


def check_axioms(D):
    """The constructor's checks on dense (dim x dim+1) unit tables."""
    issues = []
    dim, p, idx, cf = D.dim, D.p, D.idx, D.coeff
    a_idx, b_idx = np.nonzero(cf[:dim, :dim])
    prod = idx[a_idx, b_idx]
    if not (D.degrees[prod] == D.degrees[a_idx] + D.degrees[b_idx]).all():
        issues.append("grading is not multiplicative")
    basis = np.arange(dim)[:, None]
    units = np.asarray(D.unit_indices, dtype=np.int64)[None, :]
    for side, pos in (("left", (units, basis)), ("right", (basis, units))):
        table = np.zeros((dim, dim + 1), dtype=np.int64)
        np.add.at(table, (basis, idx[pos]), cf[pos])
        bad = (table % p != np.eye(dim, dim + 1, dtype=np.int64)).any(axis=1).nonzero()[0]
        if len(bad):
            issues.append(f"unit fails on the {side} at basis {bad[0]}")
    if not is_associative(D):
        issues.append("multiplication is not associative")
    return issues


def frobenius_form(D, topdeg):
    """The Gram matrix as a dense (dim x dim) table, ranked densely."""
    dim, p = D.dim, D.p
    trace = np.zeros(dim + 1, dtype=np.int64)
    for i, v in D.trace.items():
        trace[i] = v % p
    gram = D.coeff[:dim, :dim] * trace[D.idx[:dim, :dim]] % p
    symmetric = (gram == gram.T).all()
    degree_sum = D.degrees[:, None] + D.degrees[None, :]
    graded = ((gram == 0) | (degree_sum == topdeg)).all()
    rk = dense_reference.rank(gram, p)
    return {
        "topdeg": topdeg,
        "gram_rank": int(rk),
        "dim": dim,
        "nondegenerate": rk == dim,
        "symmetric": bool(symmetric),
        "graded": bool(graded),
    }


def transpose(label):
    """The anti-automorphism on labels: E(r, d, i, j) -> E(r, d, j, i),
    V(r, s, t, i, j) -> V(s, r, t, j, i), and each arrow to its bar."""
    if label[0] == "E":
        return ("E", *label[1:3], label[4], label[3])
    if label[0] == "V":
        _, r, s, t, i, j = label
        return ("V", s, r, t, j, i)
    return {"u": "ubar", "ubar": "u", "v": "vbar", "vbar": "v"}.get(label, label)


def anti_automorphism_check(D):
    """The label map's verdicts on two dense (dim x dim) gathers."""
    dim = D.dim
    index = {lab: k for k, lab in enumerate(D.labels)}
    perm = np.array([index[transpose(lab)] for lab in D.labels], dtype=np.int64)
    phi = np.append(perm, dim)
    idx, coeff = D.idx[:dim, :dim], D.coeff[:dim, :dim]
    swapped = np.ix_(perm, perm)
    return {
        "involution": bool((perm[perm] == np.arange(dim)).all()),
        "degree_preserving": bool((D.degrees[perm] == D.degrees).all()),
        "antimultiplicative": bool((coeff == coeff[swapped].T).all() and (phi[idx] == idx[swapped].T).all()),
    }


def column_basis(D, e):
    """The basis elements b with b.e = b, one product at a time."""
    out = []
    for b in range(D.dim):
        i, coeff = D.product(b, e)
        if coeff:
            assert i == b and coeff == 1
            out.append(b)
    return out


def act(D, summands, a, vec):
    """a times one vector over the sum of the projectives A.e shifted by
    ``summands`` ((e, shift) pairs), one product at a time; the basis is
    summand by summand, each in ``column_basis`` order."""
    basis = [(g, b) for g, (e, _) in enumerate(summands) for b in column_basis(D, e)]
    pos = {gb: n for n, gb in enumerate(basis)}
    out = np.zeros_like(vec)
    for n, c in enumerate(vec):
        if not c:
            continue
        g, b = basis[n]
        i, coeff = D.product(a, b)
        if coeff:
            m = pos[(g, i)]
            out[m] = (out[m] + c * coeff) % D.p
    return out


def graded_cartan(D):
    """dims of e_r A e_s per degree, one product at a time."""
    out = {}
    for rlab, e_r, _ in D.idempotents:
        for slab, e_s, _ in D.idempotents:
            dims = {}
            for b in range(D.dim):
                i1, c1 = D.product(e_r, b)
                i2, c2 = D.product(b, e_s)
                if c1 and i1 == b and c2 and i2 == b:
                    d = int(D.degrees[b])
                    dims[d] = dims.get(d, 0) + 1
            out[(rlab, slab)] = dims
    return out
