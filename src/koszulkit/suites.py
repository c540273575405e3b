"""Seeded verification suites with machine-readable, byte-reproducible
reports.

Every suite runs `trials` independent instances; trial t draws from the
stream (seed, t), so reruns and parallel executions agree.  Reports carry
no timing or environment data: identical configuration means identical
bytes.  On failure the offending instance's tables are embedded.
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
from .lkd import counit, functor_F, functor_G, functor_jcut, kappa, regrade_xi, standard_window, unit
from .qmodel import check_fbot, extend_to_Q, restriction_unit
from .samples import random_acyclic, random_module, stream

SCHEMA = 1
SUITES = ("round-trip", "exactness", "duality-oracle", "compat", "fbot", "shifts")


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
        make_algebra("S", self.e, self.f, self.p)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def to_dict(self):
        d = {"e": self.e, "f": self.f, "p": self.p, "trials": self.trials, "seed": self.seed}
        if self.window is not None:
            d["window"] = list(self.window.as_tuple())
        return d


def _result(trial, check, ok, detail=None):
    r = {"trial": trial, "check": check, "verdict": "pass" if ok else "FAIL"}
    if detail is not None and not ok:
        r["detail"] = detail
    return r


def suite_round_trip(cfg: Config) -> list[dict]:
    """Counit and unit quasi-isomorphisms on seeded random modules."""
    S = make_algebra("S", cfg.e, cfg.f, cfg.p)
    T = make_algebra("T", cfg.e, cfg.f, cfg.p)
    results = []
    for t in range(cfg.trials):
        rng = stream(cfg.seed, f"round-trip:{t}")
        M = random_module(S, rng, max_gens=4)
        W = cfg.window or standard_window(M)
        jcut = functor_jcut(W, cfg.f)
        eps, _, _ = counit(M, jcut)
        ok = not eps.validate(min_internal=jcut + 2) and is_quasi_iso(eps, W)
        results.append(_result(t, "counit-quasi-iso", ok))
        N = random_module(T, rng, max_gens=4)
        WN = cfg.window or standard_window(N)
        jcutN = functor_jcut(WN, cfg.f)
        eta, _, _ = unit(N, jcutN)
        ok = not eta.validate(min_internal=jcutN + 2) and is_quasi_iso(eta, WN)
        results.append(_result(t, "unit-quasi-iso", ok))
    return results


def suite_exactness(cfg: Config) -> list[dict]:
    """Functors of acyclic modules have empty cohomology tables."""
    S = make_algebra("S", cfg.e, cfg.f, cfg.p)
    T = make_algebra("T", cfg.e, cfg.f, cfg.p)
    results = []
    for t in range(cfg.trials):
        rng = stream(cfg.seed, f"exactness:{t}")
        M = random_acyclic(S, rng)
        W = cfg.window or standard_window(M)
        table = cohomology(functor_F(M, functor_jcut(W, cfg.f)).module, W)
        results.append(_result(t, "F-acyclic", not table, detail=table.to_triples()))
        N = random_acyclic(T, rng)
        WN = cfg.window or standard_window(N)
        table = cohomology(functor_G(N).module, WN)
        results.append(_result(t, "G-acyclic", not table, detail=table.to_triples()))
    return results


def suite_duality_oracle(cfg: Config) -> list[dict]:
    """Resolution dual vs closed-formula dual, plus biduality identities."""
    T = make_algebra("T", cfg.e, cfg.f, cfg.p)
    results = []
    for t in range(cfg.trials):
        rng = stream(cfg.seed, f"duality-oracle:{t}")
        N = random_module(T, rng, max_gens=4)
        rep = oracle_compare_T(N, cfg.window)
        results.append(_result(t, "oracle-agreement", rep.equal, detail=rep.to_dict()))
        DD = dualize_T_res(dualize_T_res(N))
        ok = DD == N
        if ok:
            ident = identity_map(N)
            biduality = DgMap(N, DD, ident.mons, ident.terms)
            ok = not biduality.validate() and is_quasi_iso(
                biduality, cfg.window or standard_window(N)
            )
        results.append(_result(t, "T-biduality", ok))
        fin = expand_T_module(N)
        W = cfg.window or oracle_window(N)
        ok = dualize_T_formula(dualize_T_formula(fin)).cohomology(W) == cohomology(N, W)
        results.append(_result(t, "formula-biduality", ok))
        S = make_algebra("S", cfg.e, cfg.f, cfg.p)
        M = random_module(S, rng, max_gens=4)
        results.append(_result(t, "S-involution", dualize_S(dualize_S(M)) == M))
    return results


def suite_compat(cfg: Config) -> list[dict]:
    """Koszul duality against homological duality (the core gate)."""
    S = make_algebra("S", cfg.e, cfg.f, cfg.p)
    results = []
    for t in range(cfg.trials):
        rng = stream(cfg.seed, f"compat:{t}")
        M = random_module(S, rng, max_gens=3)
        rep = check_compat(M, cfg.window)
        results.append(_result(t, "compat", rep.equal, detail=rep.to_dict()))
    return results


def suite_fbot(cfg: Config) -> list[dict]:
    """Pushforward-duality identity for Q-modules, plus the T -> Q unit."""
    T = make_algebra("T", cfg.e, cfg.f, cfg.p)
    Q = make_algebra("Q", cfg.e, cfg.f, cfg.p)
    results = []
    for t in range(cfg.trials):
        rng = stream(cfg.seed, f"fbot:{t}")
        M = random_module(Q, rng, max_gens=3)
        rep = check_fbot(M, cfg.window)
        results.append(_result(t, "fbot", rep.equal, detail=rep.to_dict()))
        N = random_module(T, rng, max_gens=3)
        W = Window.hull(N.gens).enlarge(1, 2)
        eta = restriction_unit(N, cfg.e, W.j1 + 2 * (cfg.e + 1))
        ok = not eta.validate() and is_quasi_iso(eta, W)
        results.append(_result(t, "extend-restrict-quasi-iso", ok))
    return results


def suite_shifts(cfg: Config) -> list[dict]:
    """Regrading and Koszul duality against internal shifts, m in [-2, 2]."""
    S = make_algebra("S", cfg.e, cfg.f, cfg.p)
    results = []
    for t in range(cfg.trials):
        rng = stream(cfg.seed, f"shifts:{t}")
        M = random_module(S, rng, max_gens=3)
        W = cfg.window or standard_window(M)
        for m in range(-2, 3):
            lhs = regrade_xi(M.shift(0, m))
            rhs = regrade_xi(M).shift(-m, m)
            ok = lhs.gens == rhs.gens
            if ok:
                WX = Window.hull(lhs.gens).enlarge(1, 2)
                ok = cohomology(lhs, WX) == cohomology(rhs, WX)
            results.append(_result(t, f"xi-shift(m={m})", ok))
            jcut = functor_jcut(W, cfg.f) - 2 * abs(m)
            shifted_first = cohomology(
                kappa(M.shift(0, m), jcut), Window(W.i0, W.i1, W.j0 + m, W.j1 + m)
            )
            shifted_after = cohomology(kappa(M, jcut), W).shift(0, m)
            ok = shifted_first == shifted_after
            results.append(_result(t, f"kappa-shift(m={m})", ok))
    return results


_RUNNERS = {
    "round-trip": suite_round_trip,
    "exactness": suite_exactness,
    "duality-oracle": suite_duality_oracle,
    "compat": suite_compat,
    "fbot": suite_fbot,
    "shifts": suite_shifts,
}


def run_verify(suite: str, cfg: Config) -> dict:
    """Run a named suite (or 'all') and assemble the report document."""
    cfg.validate()
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in _RUNNERS:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    sections = []
    for name in names:
        results = _RUNNERS[name](cfg)
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
