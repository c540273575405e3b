"""The benchmark's workloads: which public entry points one pass calls, on
which inputs, and which layers each workload must and must not reach.

A pass is one fresh interpreter running a list of jobs.  A job is either a
verify suite run through ``suites.run_verify`` or one ``sl2.block_report``.
Every pass of a workload runs the same instances, the seeded trials of the
acceptance seed 2024; the run's seed only sets the orders of the jobs.  Two
measurements on a 2-vCPU VM set this design:

* single trials are heavy-tailed (at e = f = 3 their cost has a coefficient
  of variation of about 0.4, at e = f = 4 the peak memory of one trial
  ranges from 113 to 386 MB), so instances drawn from the run's seed would
  make a run's time and memory depend on the seed more than on the code;
* the machine's speed drifts by tens of percent within seconds, so a run
  repeats identical passes, each of which gauges the machine's speed while
  it runs (reference.py), and reports medians of normalised times.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 2024

GRID = [(e, f) for e in range(4) for f in range(e + 1)]
PRIMES = (3, 5)
SL2_PRIMES = (7, 11)

# Checks each suite emits per trial; a configuration that raises before it
# produces a report counts this many failed checks per trial.
CHECKS_PER_TRIAL = {
    "round-trip": 2,
    "exactness": 2,
    "duality-oracle": 4,
    "compat": 1,
    "fbot": 2,
    "shifts": 10,
}

WORKLOADS = ("roundtrip-e3", "scale-e4", "duality-grid", "sl2-blocks")

# Wall seconds of one untraced pass, start-up and exit included, measured at
# the commit that introduced the benchmark (2 vCPUs, numpy backend).  A run
# makes the number of pairs of passes that fills --seconds best, at least
# MIN_PAIRS, so the number of passes is fixed by --seconds and identical on
# every commit compared.
PASS_SECONDS = {
    "roundtrip-e3": 4.7,
    "scale-e4": 10.5,
    "duality-grid": 4.5,
    "sl2-blocks": 6.8,
}
MIN_PAIRS = 2
MAX_PAIRS = 6

# Layers each workload reaches.  Every span of a layer outside this set must
# stay silent; every span of a layer inside it must fire, except the spans
# listed in IDLE_SPANS for that workload.
LAYERS = {
    "roundtrip-e3": {"lkd", "dgmodule", "linalg", "samples", "suites"},
    "scale-e4": {"lkd", "dgmodule", "linalg", "homdual", "samples", "suites"},
    "duality-grid": {"lkd", "dgmodule", "linalg", "homdual", "qmodel", "samples", "suites"},
    "sl2-blocks": {"blockalg", "sl2", "linalg"},
}
IDLE_SPANS = {
    "roundtrip-e3": {"dgmodule.expansion_to_finite", "dgmodule.FiniteDgModule.cohomology", "samples.random_acyclic"},
    "scale-e4": {
        "dgmodule.expansion_to_finite",
        "dgmodule.FiniteDgModule.cohomology",
        "homdual.dualize_T_res",
        "homdual.k_linear_dual_T",
        "homdual.dualize_T_formula",
        "homdual.expand_T_module",
        "homdual.oracle_compare_T",
        "samples.random_acyclic",
    },
    "duality-grid": set(),
    "sl2-blocks": set(),
}


def verify_job(suite, e, f, p, trials, seed):
    return {"kind": "verify", "suite": suite, "e": e, "f": f, "p": p, "trials": trials, "seed": seed}


def sl2_job(p, lam):
    return {"kind": "sl2", "p": p, "lambda": lam}


def sl2_blocks():
    """Every regular block and the singular block at each prime in SL2_PRIMES."""
    return [(p, lam) for p in SL2_PRIMES for lam in [*range((p - 1) // 2), None]]


def _jobs(workload: str) -> list[dict]:
    s = DEFAULT_SEED
    if workload == "roundtrip-e3":
        # The C01 grid: trials 0-4 of each configuration.
        return [verify_job("round-trip", e, f, p, 5, s) for p in PRIMES for e, f in GRID]
    if workload == "scale-e4":
        # One large round-trip instance (a 7.7M-cell rank input) and two
        # compat trials at the same size.
        return [verify_job("round-trip", 4, 4, 3, 1, s), verify_job("compat", 4, 4, 3, 2, s)]
    if workload == "duality-grid":
        # The C02-C07 grids, the first half of each criterion's trials; C03
        # and C04 share one duality-oracle run.
        jobs = []
        for suite, trials in (("exactness", 5), ("duality-oracle", 13), ("compat", 13), ("fbot", 5)):
            jobs += [verify_job(suite, e, f, p, trials, s) for p in PRIMES for e, f in GRID]
        return jobs + [verify_job("shifts", f, f, p, 3, s) for p in PRIMES for f in range(4)]
    if workload == "sl2-blocks":
        return [sl2_job(p, lam) for p, lam in sl2_blocks()]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def pass_jobs(workload: str, seed: int, k: int) -> list[dict]:
    """Jobs of pass k of a run with the given seed, in execution order.

    Passes come in pairs: pass 2j runs an order drawn from the seed and j,
    pass 2j + 1 runs it reversed.  A job's time depends on what ran before
    it in the same process (koszulkit caches monomial tables), and so does
    peak memory, so every pair runs each job both early and late, and a run
    samples several orders rather than depending on one.
    """
    jobs = _jobs(workload)
    random.Random(seed * 1009 + k // 2).shuffle(jobs)
    return jobs if k % 2 == 0 else jobs[::-1]


def job_key(job: dict) -> str:
    """Names a job; reports enter a pass's digest in the order of these keys."""
    if job["kind"] == "sl2":
        return f"sl2:p={job['p']:03d}:{'singular' if job['lambda'] is None else job['lambda']}"
    return "{suite}:e={e}:f={f}:p={p:03d}:trials={trials}:seed={seed}".format(**job)


def expected_checks(job: dict) -> int:
    """Checks a job reports when it runs to the end."""
    if job["kind"] == "sl2":
        return 7 if job["lambda"] is not None else 5
    return CHECKS_PER_TRIAL[job["suite"]] * job["trials"]


def passes_for(workload: str, seconds: float) -> int:
    pairs = round(seconds / (2 * PASS_SECONDS[workload]))
    return 2 * max(MIN_PAIRS, min(MAX_PAIRS, pairs))
