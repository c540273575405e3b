"""Seeded verification suites with machine-readable, byte-reproducible
reports.

A suite is one trial's checks: given the config and the trial's random
stream, it yields (check, ok, detail).  ``run_verify`` runs `trials`
independent instances; trial t of suite s draws from the stream named
f"{s}:{t}" of the seed before any of its work, so reruns and parallel
executions agree.  Reports carry no timing or environment data: identical
configuration means identical bytes.  On failure the offending instance's
tables are embedded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import make_algebra
from .bigraded import SHIFT_CONVENTION, Window
from .dgmodule import DgMap, cohomology, identity_map, is_quasi_iso
from .homdual import (
    check_compat,
    dualize_S,
    dualize_T_formula,
    dualize_T_res,
    expand_T_module,
    oracle_compare_T,
    oracle_window,
)
from .lkd import counit, functor_F, functor_G, kappa, regrade_xi, standard_window, unit
from .qmodel import check_fbot, restriction_unit
from .samples import random_acyclic, random_module, stream

SCHEMA = 1


@dataclass
class Config:
    e: int = 1
    f: int = 1
    p: int = 3
    trials: int = 10
    seed: int = 0
    window: Window | None = None

    def validate(self):
        if not (0 <= self.f <= self.e):
            raise ValueError(f"need 0 <= dim-f <= dim-e, got f={self.f}, e={self.e}")
        self.algebra("S")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def algebra(self, kind):
        return make_algebra(kind, self.e, self.f, self.p)

    def to_dict(self):
        d = {"e": self.e, "f": self.f, "p": self.p, "trials": self.trials, "seed": self.seed}
        if self.window is not None:
            d["window"] = list(self.window.as_tuple())
        return d


def _round_trip(cfg, rng):
    """Counit and unit quasi-isomorphisms on seeded random modules."""
    M = random_module(cfg.algebra("S"), rng, max_gens=4)
    W = cfg.window or standard_window(M)
    # each map is held only by the verdict's call, so the counit's
    # G(F(M)) is freed before the unit builds F(G(N))
    yield "counit-quasi-iso", is_quasi_iso(counit(M, W), W), None
    N = random_module(cfg.algebra("T"), rng, max_gens=4)
    WN = cfg.window or standard_window(N)
    yield "unit-quasi-iso", is_quasi_iso(unit(N, WN), WN), None


def _exactness(cfg, rng):
    """Functors of acyclic modules have empty cohomology tables."""
    M = random_acyclic(cfg.algebra("S"), rng)
    W = cfg.window or standard_window(M)
    table = cohomology(functor_F(M, W.j0).module, W)  # F cut at c is exact on T-columns >= c
    yield "F-acyclic", not table, table.to_triples()
    N = random_acyclic(cfg.algebra("T"), rng)
    table = cohomology(functor_G(N).module, cfg.window or standard_window(N))
    yield "G-acyclic", not table, table.to_triples()


def _duality_oracle(cfg, rng):
    """Resolution dual vs closed-formula dual, plus biduality identities."""
    N = random_module(cfg.algebra("T"), rng, max_gens=4)
    rep = oracle_compare_T(N, cfg.window)
    yield "oracle-agreement", rep.equal, rep.to_dict()
    DD = dualize_T_res(dualize_T_res(N))
    ident = identity_map(N)
    ok = DD == N and is_quasi_iso(DgMap(N, DD, ident.mons, ident.terms), cfg.window or standard_window(N))
    yield "T-biduality", ok, None
    fin = expand_T_module(N)
    W = cfg.window or oracle_window(N)
    yield "formula-biduality", dualize_T_formula(dualize_T_formula(fin)).cohomology(W) == cohomology(N, W), None
    M = random_module(cfg.algebra("S"), rng, max_gens=4)
    yield "S-involution", dualize_S(dualize_S(M)) == M, None


def _compat(cfg, rng):
    """Koszul duality against homological duality (the core gate)."""
    rep = check_compat(random_module(cfg.algebra("S"), rng, max_gens=3), cfg.window)
    yield "compat", rep.equal, rep.to_dict()


def _fbot(cfg, rng):
    """Pushforward-duality identity for Q-modules, plus the T -> Q unit."""
    rep = check_fbot(random_module(cfg.algebra("Q"), rng, max_gens=3), cfg.window)
    yield "fbot", rep.equal, rep.to_dict()
    N = random_module(cfg.algebra("T"), rng, max_gens=3)
    W = standard_window(N)
    eta = restriction_unit(N, cfg.e, W.j1)  # exact on the window; T's d never raises j, so it keeps every row validate joins
    yield "extend-restrict-quasi-iso", is_quasi_iso(eta, W), None


def _shifts(cfg, rng):
    """Regrading and Koszul duality against internal shifts, m in [-2, 2]."""
    M = random_module(cfg.algebra("S"), rng, max_gens=3)
    W = cfg.window or standard_window(M)
    for m in range(-2, 3):
        lhs = regrade_xi(M.shift(0, m))
        rhs = regrade_xi(M).shift(-m, m)
        ok = lhs.gens == rhs.gens
        if ok:
            WX = standard_window(lhs)
            ok = cohomology(lhs, WX) == cohomology(rhs, WX)
        yield f"xi-shift(m={m})", ok, None
        jcut = W.j0 - 2 * abs(m)  # one cut, exact on both windows: each side truncates M at its own degree
        shifted_first = cohomology(kappa(M.shift(0, m), jcut), Window(W.i0, W.i1, W.j0 + m, W.j1 + m))
        shifted_after = cohomology(kappa(M, jcut), W).shift(0, m)
        yield f"kappa-shift(m={m})", shifted_first == shifted_after, None


SUITES = {
    "round-trip": _round_trip,
    "exactness": _exactness,
    "duality-oracle": _duality_oracle,
    "compat": _compat,
    "fbot": _fbot,
    "shifts": _shifts,
}


def run_verify(suite: str, cfg: Config) -> dict:
    """Run a named suite (or 'all') and assemble the report document."""
    cfg.validate()
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {(*SUITES, 'all')}")
    sections = []
    for name in names:
        results = []
        for t in range(cfg.trials):
            for check, ok, detail in SUITES[name](cfg, stream(cfg.seed, f"{name}:{t}")):
                r = {"trial": t, "check": check, "verdict": "pass" if ok else "FAIL"}
                if detail is not None and not ok:
                    r["detail"] = detail
                results.append(r)
        sections.append(
            {
                "suite": name,
                "results": results,
                "passed": all(r["verdict"] == "pass" for r in results),
            }
        )
    return {
        "schema": SCHEMA,
        "command": "verify",
        "shift_convention": SHIFT_CONVENTION,
        "config": cfg.to_dict(),
        "sections": sections,
        "passed": all(s["passed"] for s in sections),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
