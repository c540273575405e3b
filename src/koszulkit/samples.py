"""Seed-deterministic random semifree modules and chain maps.

Trial t of a run with seed s draws from ``random.Random(f"{s}:{t}")``, so
parallel and serial executions see identical streams.  Valid differentials
are produced structurally (cones of random chain maps between zero-
differential modules are valid for any homogeneous matrix, since the
algebra differential vanishes on S and T), topped up by rejection-sampled
chain maps into the result.
"""

from __future__ import annotations

import random

from .algebra import AlgebraSpec, monomials_by_internal
from .bigraded import bidegree_add
from .dgmodule import DgMap, SemifreeDgModule, cone, free_module, nested_terms


def stream(seed, trial) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def random_homogeneous(alg: AlgebraSpec, bidegree, rng: random.Random):
    """Random element of the given bidegree (possibly zero)."""
    i, j = bidegree
    table = monomials_by_internal(alg, j, j)
    mons = table.get((i, j), [])
    if not mons:
        return {}
    out = {}
    for mon in mons:
        if rng.random() < 0.6:
            c = rng.randrange(1, alg.p)
            out[mon] = c
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


def random_chain_map(alg: AlgebraSpec, source: SemifreeDgModule, target: SemifreeDgModule, rng: random.Random, attempts: int = 4) -> DgMap:
    """A valid chain map source -> target; falls back to the zero map."""
    for _ in range(attempts):
        matrix = {}
        for k, gk in enumerate(source.gens):
            row = {}
            for l, gl in enumerate(target.gens):
                entry = random_homogeneous(alg, (gk[0] - gl[0], gk[1] - gl[1]), rng)
                if entry:
                    row[l] = entry
            if row:
                matrix[k] = row
        phi = DgMap(source, target, *nested_terms(alg, matrix))
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


def random_acyclic(alg: AlgebraSpec, rng: random.Random, max_gens: int = 2):
    """Cone of an identity map: acyclic by construction."""
    from .dgmodule import identity_map

    m = random_module(alg, rng, max_gens=max_gens)
    return cone(identity_map(m))
