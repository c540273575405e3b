"""Acceptance criteria, one test per criterion, run at the stated sizes.

Each test prints a single PASS line (visible with pytest -s or in the
captured output of a failing run).  Criteria with stated runtime budgets
assert wall-clock time after the row's kernels are warm.
"""

import time

import pytest

from koszulkit.sl2 import (
    anti_automorphism_check,
    block_ext_dims,
    build_regular_block,
    build_singular_block,
    frobenius_form,
    koszulity_probe,
    poincare_symmetry,
    quiver_presentation,
    regular_lambdas,
)
from koszulkit.suites import SUITES, Config, report_to_json, run_verify

GRID = [(e, f) for e in range(4) for f in range(e + 1)]
PRIMES = (3, 5)
SEED = 2024


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # warm numpy's first call (imports, first allocation) outside any timed section
    import numpy as np

    from koszulkit.linalg import rank

    rank(np.eye(4, dtype=np.int64), 3)


def _run(suite, cfg, wanted=None):
    report = run_verify(suite, cfg)
    results = report["sections"][0]["results"]
    if wanted is not None:
        results = [r for r in results if r["check"].split("(")[0] in wanted]
    assert results, "criterion exercised no checks"
    bad = [r for r in results if r["verdict"] != "pass"]
    assert not bad, f"{suite}: {bad[:3]}"
    return len(results)


def test_c01_kappa_round_trip():
    t0 = time.perf_counter()
    checks = 0
    for p in PRIMES:
        for e, f in GRID:
            checks += _run("round-trip", Config(e=e, f=f, p=p, trials=25, seed=SEED))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 01 kappa round trip: PASS ({checks} checks, {elapsed:.1f}s)")
    assert elapsed < 30.0, f"round-trip suite took {elapsed:.1f}s (budget 30s)"


def test_c02_exactness():
    checks = 0
    for p in PRIMES:
        for e, f in GRID:
            checks += _run("exactness", Config(e=e, f=f, p=p, trials=10, seed=SEED))
    print(f"ACCEPTANCE 02 exactness of the duality functors: PASS ({checks} checks)")


def test_c03_duality_oracle():
    checks = 0
    for p in PRIMES:
        for e, f in GRID:
            checks += _run(
                "duality-oracle",
                Config(e=e, f=f, p=p, trials=25, seed=SEED),
                wanted={"oracle-agreement"},
            )
    print(f"ACCEPTANCE 03 duality oracle agreement: PASS ({checks} checks)")


def test_c04_biduality():
    checks = 0
    for p in PRIMES:
        for e, f in GRID:
            checks += _run(
                "duality-oracle",
                Config(e=e, f=f, p=p, trials=25, seed=SEED),
                wanted={"T-biduality", "formula-biduality", "S-involution"},
            )
    print(f"ACCEPTANCE 04 biduality identities: PASS ({checks} checks)")


def test_c05_compatibility_suite():
    checks = 0
    for p in PRIMES:
        for e, f in GRID:
            checks += _run("compat", Config(e=e, f=f, p=p, trials=25, seed=SEED))
    print(f"ACCEPTANCE 05 Koszul duality vs homological duality: PASS ({checks} checks)")


def test_c06_fbot_suite():
    checks = 0
    for p in PRIMES:
        for e, f in GRID:
            checks += _run(
                "fbot", Config(e=e, f=f, p=p, trials=10, seed=SEED), wanted={"fbot"}
            )
    print(f"ACCEPTANCE 06 pushforward duality identity: PASS ({checks} checks)")


def test_c07_shift_identities():
    checks = 0
    for p in PRIMES:
        for f in range(4):
            checks += _run("shifts", Config(e=f, f=f, p=p, trials=5, seed=SEED))
    print(f"ACCEPTANCE 07 shift identities: PASS ({checks} checks)")


def test_c08_regular_blocks():
    t0 = time.perf_counter()
    assert block_ext_dims(0, 0) == {0: 1, 2: 1}
    assert block_ext_dims(0, 1) == {1: 2}
    assert block_ext_dims(1, 0) == {1: 2}
    blocks = 0
    for p in (3, 5, 7):
        for lam in regular_lambdas(p):
            A = build_regular_block(p, lam)
            assert A.dim == 2 * p * p
            n1, n2 = lam + 1, p - 1 - lam
            assert A.dims_by_degree() == {
                0: n1 * n1 + n2 * n2,
                1: 4 * n1 * n2,
                2: n1 * n1 + n2 * n2,
            }
            rep = quiver_presentation(p, lam)
            assert rep["basic_dims_by_degree"] == {0: 2, 1: 4, 2: 2}
            assert rep["cartan_match"] and rep["inflated_dims_match"]
            blocks += 1
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 08 regular block dimensions: PASS ({blocks} blocks, {elapsed:.1f}s)")
    assert elapsed < 10.0, f"block construction took {elapsed:.1f}s (budget 10s)"


def test_c09_frobenius_structure():
    checked = 0
    for p in (3, 5, 7):
        for lam in regular_lambdas(p):
            A = build_regular_block(p, lam)
            frob = frobenius_form(A, 2)
            assert frob["nondegenerate"] and frob["symmetric"] and frob["graded"]
            anti = anti_automorphism_check(A)
            assert all(anti.values())
            assert poincare_symmetry(A, 1)["palindromic"]
            checked += 1
        S = build_singular_block(p)
        frob = frobenius_form(S, 0)
        assert frob["nondegenerate"] and frob["symmetric"] and frob["graded"]
        assert poincare_symmetry(S, 0)["palindromic"]
        checked += 1
    print(f"ACCEPTANCE 09 Frobenius structure: PASS ({checked} blocks)")


def test_c10_koszulity_probe():
    t0 = time.perf_counter()
    probed = 0
    for p in (3, 5, 7):
        for lam in regular_lambdas(p):
            rep = koszulity_probe(build_regular_block(p, lam), 4)
            assert rep["linear"], rep
            for entry in rep["simples"]:
                assert [s["generator_degrees"] for s in entry["steps"]] == [[1], [2], [3], [4]]
            probed += 1
        rep = koszulity_probe(build_singular_block(p), 4)
        assert rep["linear"]
        probed += 1
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 10 Koszulity probe to degree 4: PASS ({probed} blocks, {elapsed:.1f}s)")
    assert elapsed < 60.0, f"koszulity probe took {elapsed:.1f}s (budget 60s)"


def test_c11_singular_block():
    from test_sl2 import product

    for p in (3, 5, 7):
        A = build_singular_block(p)
        assert A.dim == p * p
        assert A.dims_by_degree() == {0: p * p}
        # structure constants are exactly those of the matrix algebra
        for a, (_, _, _, i, j) in enumerate(A.labels):
            for b, (_, _, _, k, l) in enumerate(A.labels):
                idx, coeff = product(A, a, b)
                if j == k:
                    assert coeff == 1 and A.labels[idx] == ("E", 0, 0, i, l)
                else:
                    assert coeff == 0
    print("ACCEPTANCE 11 singular block is a matrix algebra: PASS (p in {3,5,7})")


def test_c12_determinism():
    cfg = Config(e=2, f=1, p=3, trials=3, seed=SEED)
    for suite in SUITES:
        first = report_to_json(run_verify(suite, cfg))
        second = report_to_json(run_verify(suite, cfg))
        assert first == second, f"suite {suite} is not byte-deterministic"
    import json

    from koszulkit.sl2 import block_report

    r1 = json.dumps(block_report(5, 1), sort_keys=True)
    r2 = json.dumps(block_report(5, 1), sort_keys=True)
    assert r1 == r2
    print("ACCEPTANCE 12 determinism: PASS (all suites byte-identical on rerun)")
