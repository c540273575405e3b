"""Seed-deterministic random semifree modules and chain maps.

Trial t of suite s with seed n draws from ``random.Random(f"{n}:{s}:{t}")``,
so parallel and serial executions see identical streams.  Valid differentials
are produced structurally (cones of random chain maps between zero-
differential modules are valid for any homogeneous matrix, since the
algebra differential vanishes on S and T), topped up by rejection-sampled
chain maps into the result.  Entries draw from the rows of ``algebra.table``
of their bidegree, and maps are built by ``dgmodule.canonical``.
"""

from __future__ import annotations

import random

import numpy as np

from .algebra import AlgebraSpec, table
from .bigraded import bidegree_add
from .dgmodule import DgMap, SemifreeDgModule, canonical, cone, free_module, identity_map


def stream(seed, trial) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def random_homogeneous(alg: AlgebraSpec, bidegree, rng: random.Random):
    """Random element of the given bidegree (possibly zero): each monomial
    of ``table`` on [j, j] of that bidegree, in its order, drawn with
    probability 0.6 and a random nonzero coefficient."""
    i, j = bidegree
    t = table(alg, j, j)
    out = {}
    for mon in map(t.mons.__getitem__, (t.degs[:, 0] == i).nonzero()[0].tolist()):
        if rng.random() < 0.6:
            out[mon] = rng.randrange(1, alg.p)
    return out


def _gen_lattice(alg: AlgebraSpec, rng: random.Random, count: int):
    """Generator bidegrees: a small base offset by monomial bidegrees."""
    base = (rng.randrange(-1, 2), 2 * rng.randrange(-1, 2))
    steps = []
    if alg.n_sym:
        steps.append(alg.sym_deg)
    if alg.n_ext:
        steps.append(alg.ext_deg)
    gens = []
    for _ in range(count):
        g = base
        if steps:
            for _ in range(rng.randrange(0, 2)):
                g = bidegree_add(g, rng.choice(steps))
        gens.append(g)
    return gens


def random_chain_map(alg: AlgebraSpec, source: SemifreeDgModule, target: SemifreeDgModule, rng: random.Random) -> DgMap:
    """A valid chain map source -> target in at most 4 draws; falls back to
    the zero map."""
    for _ in range(4):
        mons, terms = [], []
        for k, gk in enumerate(source.gens):
            for l, gl in enumerate(target.gens):
                for mon, c in random_homogeneous(alg, (gk[0] - gl[0], gk[1] - gl[1]), rng).items():
                    terms.append((k, l, len(mons), c))
                    mons.append(mon)
        phi = DgMap(source, target, *canonical(mons, np.array(terms, dtype=np.int64).reshape(-1, 4).T, target.rank, alg.p))
        if not phi.validate():
            return phi
    return DgMap(source, target)


def random_module(alg: AlgebraSpec, rng: random.Random, max_gens: int = 4) -> SemifreeDgModule:
    """Random valid semifree module with at most max_gens generators."""
    style = rng.random()
    if style < 0.2:
        return free_module(alg, _gen_lattice(alg, rng, rng.randrange(1, max_gens + 1)))
    r1 = rng.randrange(1, max(2, max_gens // 2 + 1))
    r2 = rng.randrange(1, max_gens - r1 + 1)
    a = free_module(alg, _gen_lattice(alg, rng, r1))
    b = free_module(alg, _gen_lattice(alg, rng, r2))
    m = cone(random_chain_map(alg, a, b, rng))
    if rng.random() < 0.3:
        m = m.shift(rng.randrange(-1, 2), 2 * rng.randrange(-1, 2))
    return m


def random_acyclic(alg: AlgebraSpec, rng: random.Random):
    """Cone of the identity map of a random module with at most 2
    generators: acyclic by construction."""
    return cone(identity_map(random_module(alg, rng, max_gens=2)))
