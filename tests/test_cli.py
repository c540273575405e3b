import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.cli import main, parse_window
from koszulkit.suites import SUITES

RUN = [sys.executable, "-m", "koszulkit.cli"]


def run_cli(args, env=None):
    import os

    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=e)


def test_window_parsing():
    w = parse_window("-2:3,-4:6")
    assert w.as_tuple() == (-2, 3, -4, 6)
    with pytest.raises(ValueError):
        parse_window("1,2")
    with pytest.raises(ValueError):
        parse_window("3:1,0:0")


def test_verify_compat_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--suite", "compat", "--dim-e", "2", "--dim-f", "2",
        "-p", "5", "--trials", "5", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert doc["config"] == {"e": 2, "f": 2, "p": 5, "trials": 5, "seed": 7}


def test_verify_all_degenerate_f0():
    code = main(["verify", "--suite", "all", "--dim-e", "1", "--dim-f", "0",
                 "--trials", "2", "--seed", "1", "--out", "/dev/null"])
    assert code == 0


def test_verify_rejects_f_bigger_than_e():
    proc = run_cli(["verify", "--dim-f", "4", "--dim-e", "3"])
    assert proc.returncode == 2


def test_verify_rejects_e_over_the_limit(capsys):
    assert main(["verify", "--dim-e", "63", "--dim-f", "1"]) == 2
    assert capsys.readouterr().err == "error: e = 63 is over the limit of 62 (ext masks are int64 bit sets)\n"


def test_verify_rejects_bad_prime():
    proc = run_cli(["verify", "-p", "4"])
    assert proc.returncode == 2


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "round-trip", "--dim-e", "1", "--dim-f", "1",
            "-p", "3", "--trials", "3", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_fallback(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "exactness", "--trials", "2", "--format", "json"]
    p1 = run_cli(args + ["--out", str(a)], env={"KOSZULKIT_SEED": "5"})
    p2 = run_cli(args + ["--seed", "5", "--out", str(b)])
    assert p1.returncode == 0 and p2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_exit_one_on_math_failure(monkeypatch, tmp_path):
    import koszulkit.cli as cli

    def failing(suite, cfg):
        return {
            "schema": 1,
            "command": "verify",
            "shift_convention": "",
            "config": cfg.to_dict(),
            "sections": [
                {"suite": suite, "results": [
                    {"trial": 0, "check": "x", "verdict": "FAIL"}
                ], "passed": False}
            ],
            "passed": False,
        }

    monkeypatch.setattr(cli, "run_verify", failing)
    code = main(["verify", "--suite", "compat", "--trials", "1",
                 "--seed", "0", "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_a_failing_oracle_is_reported_with_its_detail(monkeypatch, tmp_path):
    """A closed-formula dual shifted by [1] disagrees with the resolution
    dual.  The report records oracle-agreement as a FAIL that carries the
    comparison, every passing check carries no detail, and the CLI exits 1
    and prints each FAIL line with its detail in the human format."""
    from koszulkit import homdual
    from koszulkit.suites import Config, run_verify

    formula = homdual.dualize_T_formula
    monkeypatch.setattr(homdual, "dualize_T_formula", lambda M: formula(M).shift(1, 0))
    report = run_verify("duality-oracle", Config(e=1, f=1, p=3, trials=2, seed=0))
    (section,) = report["sections"]
    failed = [r for r in section["results"] if r["verdict"] == "FAIL"]
    assert [(r["trial"], r["check"]) for r in failed] == [(0, "oracle-agreement"), (1, "oracle-agreement")]
    assert all(r["detail"]["verdict"].startswith("first mismatch at") for r in failed)
    passed = [r for r in section["results"] if r["verdict"] == "pass"]
    assert len(passed) == 6 and all("detail" not in r for r in passed)
    assert section["passed"] is False and report["passed"] is False

    out = tmp_path / "r.txt"
    assert main(["verify", "--suite", "duality-oracle", "--trials", "2", "--seed", "0",
                 "--format", "human", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert "suite duality-oracle: FAIL (8 checks)" in lines and lines[-1] == "overall: FAIL"
    for r in failed:
        at = lines.index(f"  trial {r['trial']} oracle-agreement: FAIL")
        assert lines[at + 1] == "    " + json.dumps(r["detail"], sort_keys=True)


@pytest.mark.parametrize("suite", list(SUITES))
def test_each_trial_draws_its_stream_before_its_samples(suite, monkeypatch):
    """Trial t of a suite draws the stream named f"{suite}:{t}" before any
    of its samples, and every sample of the trial comes from that stream:
    the benchmark marks a trial's start at its stream call."""
    from koszulkit import suites

    events = []  # (stream key or None for a sample, the Random it returned or drew from)
    stream = suites.stream

    def recorded_stream(seed, key):
        assert seed == 5
        events.append((key, stream(seed, key)))
        return events[-1][1]

    def recorded(draw):
        def run(A, rng, **kwargs):
            events.append((None, rng))
            return draw(A, rng, **kwargs)

        return run

    monkeypatch.setattr(suites, "stream", recorded_stream)
    monkeypatch.setattr(suites, "random_module", recorded(suites.random_module))
    monkeypatch.setattr(suites, "random_acyclic", recorded(suites.random_acyclic))
    suites.run_verify(suite, suites.Config(e=1, f=1, p=3, trials=3, seed=5))
    assert [key for key, _ in events if key is not None] == [f"{suite}:{t}" for t in range(3)]
    samples, current = [], None
    for key, rng in events:
        if key is not None:
            samples.append(0)
            current = rng
        else:
            assert rng is current
            samples[-1] += 1
    assert len(samples) == 3 and all(samples)


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 79.0 MiB for an array with shape (3520, 2940) and data type int64"),
     "error: out of memory: Unable to allocate 79.0 MiB for an array with shape (3520, 2940) and data type int64\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_verify_exits_2_when_an_allocation_fails(monkeypatch, capsys, exc, line):
    import koszulkit.cli as cli

    def failing(suite, cfg):
        raise exc

    monkeypatch.setattr(cli, "run_verify", failing)
    assert main(["verify", "--suite", "round-trip", "--trials", "1", "--seed", "0", "--out", "/dev/null"]) == 2
    err = capsys.readouterr().err
    assert err == line and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "round-trip", "--trials", "1", "--seed", "0"],
    ["sl2", "-p", "3", "--lambda", "0"],
    ["table", "{module}"],
])
def test_out_into_a_missing_directory_exits_2_before_any_work(tmp_path, monkeypatch, args):
    """--out into a missing directory is a usage error (exit 2, one line
    naming the path), found before the report is computed."""
    import koszulkit.cli as cli
    from koszulkit.algebra import make_algebra
    from koszulkit.dgmodule import free_module, serialize_module

    module = tmp_path / "mod.json"
    module.write_text(serialize_module(free_module(make_algebra("T", 1, 1, 5), [(0, 0)])))
    args = [a.format(module=module) for a in args]
    out = tmp_path / "missing" / "r.json"
    assert run_cli(args + ["--out", str(tmp_path / "r.json")]).returncode == 0
    proc = run_cli(args + ["--out", str(out)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot write {out}: no directory {out.parent}\n"

    def no_work(*_args):
        raise AssertionError("the report was computed")

    for name in ("run_verify", "cohomology", "deserialize_module"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr("koszulkit.sl2.block_report", no_work)
    assert main(args + ["--out", str(out)]) == 2


def test_out_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys):
    """--out naming a directory, or a file the process may not write, is a
    usage error found before the report is computed, and creates nothing."""
    import koszulkit.cli as cli

    def no_work(*_args):
        raise AssertionError("the report was computed")

    monkeypatch.setattr("koszulkit.sl2.block_report", no_work)
    assert main(["sl2", "-p", "3", "--lambda", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
    # root may write any file, so the permission is stubbed: refused for the file, then for a new file's directory
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    old = tmp_path / "old.json"
    old.write_text("kept")
    for out in (old, tmp_path / "new.json"):
        assert main(["sl2", "-p", "3", "--lambda", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
    assert old.read_text() == "kept"


def test_sl2_regular_report(tmp_path):
    out = tmp_path / "sl2.json"
    code = main(["sl2", "-p", "3", "--lambda", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    rep = doc["report"]
    assert rep["dimension"] == 18
    assert rep["poincare"] == [5, 8, 5]
    assert all(rep["verdicts"].values())


def test_sl2_singular_report(tmp_path):
    out = tmp_path / "sl2.json"
    code = main(["sl2", "-p", "5", "--singular", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["dimension"] == 25
    assert doc["report"]["dims_by_degree"] == {"0": 25}


def test_sl2_rejects_composite_p():
    assert main(["sl2", "-p", "4", "--lambda", "0"]) == 2


def test_sl2_rejects_lambda_out_of_range():
    assert main(["sl2", "-p", "5", "--lambda", "2"]) == 2


def test_sl2_lambda_error_names_the_range(capsys):
    assert main(["sl2", "-p", "7", "--lambda", "3"]) == 2
    assert "lambda must lie in [0, (p-3)/2] = [0, 2], got 3" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["-p", "16777259", "--lambda", "0"], "modulus 16777259 is at or above the limit of 16,777,216 (int64 sums of products must stay below 2^63)"),
    (["-p", "7", "--lambda", "0", "--hbound", "33"], "hbound must lie in [1, 32], got 33"),
])
def test_sl2_refuses_oversized_input(args, message):
    start = time.monotonic()
    res = run_cli(["sl2", *args])
    assert time.monotonic() - start < 5
    assert res.returncode == 2
    assert res.stderr == f"error: {message}\n"
    assert "Traceback" not in res.stderr and res.stdout == ""


@pytest.mark.parametrize("block", [["--lambda", "0"], ["--lambda", "8388605"], ["--singular"]])
def test_sl2_reports_the_largest_modulus(tmp_path, block):
    """Every verdict reads the type table, so the blocks at the largest p
    below the modulus limit (dimension 2p^2 = 562,949,752,094,738 regular,
    p^2 singular) pass in seconds; the dimension, past 2^48, is exact."""
    p, out = 16777213, tmp_path / "sl2.json"
    start = time.monotonic()
    res = run_cli(["sl2", "-p", str(p), *block, "--hbound", "8", "--out", str(out)])
    assert time.monotonic() - start < 5
    assert res.returncode == 0 and res.stderr == ""
    rep = json.loads(out.read_text())["report"]
    assert rep["dimension"] == (p * p if block == ["--singular"] else 2 * p * p)
    assert all(rep["verdicts"].values())


def test_sl2_requires_block_choice():
    assert main(["sl2", "-p", "5"]) == 2
    assert main(["sl2", "-p", "5", "--lambda", "0", "--singular"]) == 2


def test_table_free_module(tmp_path):
    from koszulkit.algebra import make_algebra
    from koszulkit.dgmodule import free_module, serialize_module

    T = make_algebra("T", 1, 1, 5)
    path = tmp_path / "mod.json"
    path.write_text(serialize_module(free_module(T, [(0, 0)])))
    out = tmp_path / "table.json"
    assert main(["table", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["table"] == [[-1, 2, 1], [0, 0, 1]]


def test_table_of_kappa_of_point(tmp_path):
    from koszulkit.algebra import make_algebra
    from koszulkit.dgmodule import free_module, serialize_module
    from koszulkit.lkd import kappa

    S = make_algebra("S", 1, 1, 5)
    FS = kappa(free_module(S, [(0, 0)]), -10)
    path = tmp_path / "kappa.json"
    path.write_text(serialize_module(FS))
    out = tmp_path / "table.json"
    assert main(["table", str(path), "--window=-3:3,-4:4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["table"] == [[0, 0, 1]]


def _two_core_module(tmp_path, p=3):
    """A module file whose table has a 2 x 2 and then a 4 x 4 core left by
    structural pivots, each made of 2 x 2 components."""
    from koszulkit.algebra import make_algebra
    from dict_reference import module
    from koszulkit.dgmodule import serialize_module

    # d(e2) = x1 e0 + x2 e1 and d(e3) = x1 e0 + 2 x2 e1.  Out of bidegree
    # (1, -2) the map is a 2 x 4 cell whose core {e2, e3} x {x1 e0, x2 e1}
    # has rank 2 and 4 nonzeros; out of (3, -4) a 4 x 6 cell whose 4 x 4
    # core is two such blocks, each a connected component equal to the
    # first.  Structural pivots clear neither core.
    S = make_algebra("S", 2, 2, p)
    d = {k: {0: {((1, 0), 0): 1}, 1: {((0, 1), 0): c}} for k, c in ((2, 1), (3, 2))}
    M = module(S, [(0, 0), (0, 0), (1, -2), (1, -2)], d)
    path = tmp_path / f"mod-{p}.json"
    path.write_text(serialize_module(M))
    return path


def _one_component_module(tmp_path, p=3):
    """A module file whose table ranks a 2 x 4 and then a connected 4 x 6 block."""
    from koszulkit.algebra import make_algebra
    from dict_reference import module
    from koszulkit.dgmodule import serialize_module

    # d(e2) = (x1 + x2) e0 + (x1 + 2 x2) e1 and d(e3) = (x1 + 2 x2) e0 +
    # (x1 + x2) e1.  Out of bidegree (1, -2) the map is a 2 x 4 cell of
    # rank 2 and 8 nonzeros, and out of (3, -4) a 4 x 6 cell of rank 4 and
    # 16 nonzeros.  Structural pivots clear neither, each is one connected
    # component, and eliminating either fills in nothing.
    S = make_algebra("S", 2, 2, p)
    x1, x2 = ((1, 0), 0), ((0, 1), 0)
    d = {k: {0: {x1: 1, x2: a}, 1: {x1: 1, x2: 3 - a}} for k, a in ((2, 1), (3, 2))}
    M = module(S, [(0, 0), (0, 0), (1, -2), (1, -2)], d)
    path = tmp_path / f"one-{p}.json"
    path.write_text(serialize_module(M))
    return path


def test_table_refuses_an_oversized_rank_cell(tmp_path, monkeypatch, capsys):
    from koszulkit import dgmodule

    # the bound is MAX_RANK_CELLS * 8 bytes per connected component; an
    # entry is 1 byte at p = 3 and 2 at p = 257, so the 4 x 6 component
    # takes 24 and 48 bytes, and the 2 x 4 one 8 and 16
    for p, fits, size, dtype in ((257, 6, 48, "uint16"), (3, 3, 24, "uint8")):
        path = _two_core_module(tmp_path, p)
        assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
        want = capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setattr(dgmodule, "MAX_RANK_CELLS", 1)  # 8 bytes: each 2 x 2 component, not the 4 x 4 core
            assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
        assert capsys.readouterr().out == want
        path = _one_component_module(tmp_path, p)
        assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(dgmodule, "MAX_RANK_CELLS", fits)
        assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
        assert capsys.readouterr().out == want
        with monkeypatch.context() as m:
            m.setattr(dgmodule, "MAX_RANK_CELLS", fits - 1)
            ranked = []
            m.setattr(dgmodule, "mat_rank", lambda a, p: ranked.append(a.shape))
            assert main(["table", str(path), "--window=0:4,-4:0"]) == 2
        assert ranked == []  # refused before the component out of (1, -2) is ranked
        err = capsys.readouterr().err
        assert err == (
            "error: the map out of bidegree (3, -4) has a connected 4 x 6 component "
            f"({size} bytes as {dtype}), over the limit of {8 * (fits - 1)} bytes\n"
        )
        assert "Traceback" not in err


def test_table_refuses_a_row_reduction_past_its_fill_bound(tmp_path, monkeypatch, capsys):
    from koszulkit import dgmodule, linalg

    # on internal degree -4 alone, the table ranks one connected 4 x 6 block
    path, args = _one_component_module(tmp_path), ["--window=0:4,-4:-4"]
    assert main(["table", str(path), *args]) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 128)  # 16 entries: the block's nonzeros
    assert main(["table", str(path), *args]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 127)  # 15 entries
    calls, ranked = [], []

    def recording_rank(a, p):
        calls.append(a.shape)
        ranked.append(linalg.rank(a, p))
        return ranked[-1]

    monkeypatch.setattr(dgmodule, "mat_rank", recording_rank)
    assert main(["table", str(path), *args]) == 2
    assert calls == [(4, 6)] and ranked == []  # the first elimination is refused
    err = capsys.readouterr().err
    assert err == "error: row reduction of a 4 x 6 matrix holds 16 entries in its rows (about 1,024 bytes), over the limit of 15\n"
    assert "Traceback" not in err


def test_verify_refuses_an_oversized_expansion(monkeypatch, capsys):
    from koszulkit import dgmodule

    args = ["verify", "--suite", "duality-oracle", "--dim-e", "2", "--dim-f", "1", "--trials", "1", "--seed", "1"]
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(dgmodule, "MAX_EXPANSION_BASIS", 5)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: the expansion on internal degrees [-6, 6] has 8 basis elements, over the limit of 5; "
        "generator 0 alone spans monomial degrees [0, 2] with 2 monomials\n"
    )
    assert "Traceback" not in err


def test_table_of_a_contractible_module_past_the_expansion_limit(tmp_path, capsys):
    """The cone of the identity on S e0 over S(4, 4) is contractible, and
    k (x)_S M is acyclic, so its table is certified empty with no expansion,
    though the one on internal degrees [-200, 0] would be over the limit.
    The free module on the same two generators is not contractible and is
    still refused at the expansion preflight."""
    from koszulkit.algebra import make_algebra
    from koszulkit.dgmodule import cone, free_module, identity_map, serialize_module

    S = make_algebra("S", 4, 4, 3)
    M = cone(identity_map(free_module(S, [(0, 0)])))
    path, out, args = tmp_path / "mod.json", tmp_path / "table.json", ["--window=-2:2,-200:0"]
    path.write_text(serialize_module(M))
    assert main(["table", str(path), "--out", str(out), *args]) == 0
    assert json.loads(out.read_text())["table"] == []
    path.write_text(serialize_module(free_module(S, M.gens)))
    assert main(["table", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: the expansion on internal degrees [-200, 0] has 9,196,252 basis elements, over the limit of 1,000,000; "
        "generator 0 alone spans monomial degrees [-200, 0] with 4,598,126 monomials\n"
    )


@pytest.mark.parametrize("command", ["verify", "sl2", "table"])
def test_a_modulus_at_or_above_the_limit_is_refused(tmp_path, capsys, command):
    from koszulkit.linalg import MAX_MODULUS

    for p in (4294967311, MAX_MODULUS, 10**18 + 3):
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(dict(_S1, algebra=dict(_S1["algebra"], p=p), diff=[])))
        args = {
            "verify": ["verify", "--suite", "round-trip", "--dim-e", "2", "--dim-f", "2", "--trials", "6", "--seed", "3", "-p", str(p)],
            "sl2": ["sl2", "--lambda", "0", "-p", str(p)],
            "table": ["table", str(path)],
        }[command]
        assert main(args) == 2
        prefix = "cannot read module file: " if command == "table" else ""
        message = f"modulus {p} is at or above the limit of 16,777,216 (int64 sums of products must stay below 2^63)"
        assert capsys.readouterr().err == f"error: {prefix}{message}\n"


def test_the_largest_modulus_below_the_limit_is_accepted(tmp_path):
    # every suite, the round trip that gave false FAILs at p = 4294967311 among them
    args = ["verify", "--suite", "all", "--dim-e", "2", "--dim-f", "2", "--trials", "6", "--seed", "3"]
    assert main(args + ["-p", "16777213", "--out", str(tmp_path / "r.json")]) == 0


_S1 = {"algebra": {"e": 1, "f": 1, "kind": "S", "p": 3}, "gens": [[0, 0], [1, -2]], "schema": 1}
_T21 = {"algebra": {"e": 2, "f": 1, "kind": "T", "p": 3}, "gens": [[0, 0], [-2, 2]], "schema": 1}
MALFORMED = {
    "not-json": "{not json",
    "gen-index": json.dumps(dict(_S1, gens=[[0, 0]], diff=[[0, 5, [[1, [1], 0]]]])),
    "schema": json.dumps(dict(_S1, schema=9, diff=[[1, 0, [[1, [1], 0]]]])),
    "exponent-length": json.dumps(dict(_S1, diff=[[1, 0, [[1, [0, 1], 0]]]])),
    "ext-mask": json.dumps(dict(_T21, diff=[[1, 0, [[1, [], 2]]]])),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_table_malformed_file(tmp_path, case):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED[case])
    assert main(["table", str(path)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": 1},
        dict(_S1, schema=True, diff=[]),
        dict(_S1, schema=1.0, diff=[]),
        dict(_S1, algebra={"e": 1, "f": 1, "kind": "S"}, diff=[]),
        dict(_S1, gens=5, diff=[]),
        dict(_S1, gens=[5], diff=[]),
        dict(_S1, diff=5),
        dict(_S1, diff=[[1, 0, [5]]]),
        dict(_S1, algebra=[1], diff=[]),
    ],
)
def test_a_missing_or_mistyped_member_is_a_value_error(tmp_path, capsys, doc):
    """A missing key or a value of the wrong JSON type (once a KeyError or
    TypeError out of ``deserialize_module``) is a ValueError, and ``table``
    exits 2 with one line."""
    from koszulkit.dgmodule import deserialize_module

    with pytest.raises(ValueError):
        deserialize_module(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read module file: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(_S1, gens=[[0, 0], [1, 10**30]], diff=[]), f"generator degree {10**30} is out of range"),
        (dict(_T21, gens=[[0, 0], [-(1 << 30) - 1, 2]], diff=[]), f"generator degree {-(1 << 30) - 1} is out of range"),
        (dict(_S1, diff=[[1, 0, [[1, [10**30], 0]]]]), f"exponent {10**30} is out of range"),
        (dict(_S1, diff=[[1, 0, [[1, [1 << 30], 0]]]]), f"exponent {1 << 30} is out of range"),
        (dict(_T21, algebra=dict(_T21["algebra"], e=63, f=63), diff=[]), "e = 63 is over the limit of 62 (ext masks are int64 bit sets)"),
    ],
)
def test_table_refuses_integers_beyond_the_bounds(tmp_path, capsys, doc, message):
    """Degrees, exponents and e past their bounds (once an int64 overflow
    traceback, or a hang) exit 2 with one line."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["table", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read module file: {message}\n"


@pytest.mark.parametrize(
    "diff, message",
    [
        ([[1, 0, [[1, [], 1]]], [1, 0, [[2, [], 1]]]], "entry [1, 0] is repeated"),
        ([[1, 0, [[1, [], 1], [2, [], 1]]]], "entry [1, 0] repeats the monomial with exponents [] and ext mask 1"),
    ],
)
def test_table_refuses_repeated_entries(tmp_path, capsys, diff, message):
    """A repeated entry, or a monomial repeated within one entry, once read
    as the last one given (the table of coefficient 2 here; summing would
    give 0 mod 3 and another table), exits 2 with one line."""
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(dict(_T21, algebra=dict(_T21["algebra"], e=1, f=1), diff=diff)))
    assert main(["table", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read module file: {message}\n"


def test_table_names_the_least_failing_target(tmp_path, capsys):
    """d(e0) = eta_2 e1 and d(e1) = z e2 over Q(2, 1): d^2(e0) fails at gen 1
    (d_A(eta_2) = z) and at gen 2 (eta_2 z); the least target is named."""
    path = tmp_path / "two-targets.json"
    path.write_text('{"schema":1,"algebra":{"kind":"Q","e":2,"f":1,"p":5},"gens":[[-3,4],[-1,2],[0,0]],"diff":[[0,1,[[1,[0],2]]],[1,2,[[1,[1],0]]]]}')
    assert main(["table", str(path)]) == 2
    assert capsys.readouterr().err == "error: cannot read module file: invalid module: d^2 != 0 from gen 0 to gen 1\n"


def test_table_refuses_a_deeply_nested_file(tmp_path):
    """200,000 nested arrays (once a RecursionError traceback from json.loads
    and exit 1, the code of a mathematical FAIL) exit 2 with one line."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    res = run_cli(["table", str(path)])
    assert res.returncode == 2
    assert res.stderr == "error: cannot read module file: the document is nested too deeply\n"
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_table_refuses_a_document_over_the_length_bound(tmp_path, monkeypatch, capsys):
    """A module file longer than ``MAX_DOCUMENT`` (once parsed whatever its
    size, and so killed for memory instead of refused) exits 2 with one line
    before it is parsed; one at the bound is read."""
    from koszulkit import cli, dgmodule

    text = json.dumps(dict(_S1, diff=[[1, 0, [[1, [1], 0]]]]))
    path = tmp_path / "mod.json"
    path.write_text(text)
    for bound in (len(text), len(text) - 1):
        monkeypatch.setattr(cli, "MAX_DOCUMENT", bound)
        monkeypatch.setattr(dgmodule, "MAX_DOCUMENT", bound)
        code = main(["table", str(path), "--out", str(tmp_path / "table.json")])
        err = capsys.readouterr().err
        if bound == len(text):
            assert code == 0 and err == ""
        else:
            assert code == 2 and err == f"error: cannot read module file: the document is longer than {bound:,} characters\n"


def test_table_refuses_a_d_squared_join_over_the_bound(tmp_path, monkeypatch, capsys):
    """A module file whose d^2 check joins more than ``MAX_JOIN_PAIRS``
    pairs of terms (a count cubic in a layer's width) exits 2 with one line
    naming the count and the limit, before any pair is built; one at the
    bound is checked and read."""
    from koszulkit import linalg

    # d(e0) = e1 + e2, d(e1) = e3, d(e2) = -e3: two composable pairs, d^2 = 0
    diff = [[0, 1, [[1, [0], 0]]], [0, 2, [[1, [0], 0]]], [1, 3, [[1, [0], 0]]], [2, 3, [[2, [0], 0]]]]
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(dict(_S1, gens=[[0, 0], [1, 0], [1, 0], [2, 0]], diff=diff)))
    for bound in (2, 1):
        monkeypatch.setattr(linalg, "MAX_JOIN_PAIRS", bound)
        code = main(["table", str(path), "--out", str(tmp_path / "table.json")])
        err = capsys.readouterr().err
        if bound == 2:
            assert code == 0 and err == ""
        else:
            assert code == 2 and err == "error: cannot read module file: a join of 2 pairs is over the limit of 1\n"


def _edge_t62(c):
    """A T(62, 62) square on the top two ext generators, d^2 = 0 when c = 1:
    d(e0) = theta61 e1 + theta60 e2, d(e1) = theta60 e3, d(e2) = c theta61 e3."""
    t61, t60 = 1 << 61, 1 << 60
    diff = [[0, 1, [[1, [], t61]]], [0, 2, [[1, [], t60]]], [1, 3, [[1, [], t60]]], [2, 3, [[c, [], t61]]]]
    return dict(_T21, algebra=dict(_T21["algebra"], e=62, f=62), gens=[[0, 0], [2, -2], [2, -2], [4, -4]], diff=diff)


def test_table_at_the_bounds(tmp_path, capsys):
    """The largest degrees and e pass; a narrow window over 62 ext
    generators enumerates only the masks it holds; validate reads the
    top ext bits (the int64 mask edge) with their signs, and a module
    whose d^2 fails only there exits 2."""
    for doc, args, want in [
        (
            dict(_T21, gens=[[0, -(1 << 30)], [(1 << 30) - 1, 2]], diff=[]),
            [],
            [[-1, -(1 << 30) + 2, 1], [0, -(1 << 30), 1], [(1 << 30) - 2, 4, 1], [(1 << 30) - 1, 2, 1]],
        ),
        (dict(_T21, algebra=dict(_T21["algebra"], e=62, f=62), gens=[[0, 0]], diff=[]), ["--window=-2:0,0:2"], [[-1, 2, 62], [0, 0, 1]]),
        (_edge_t62(1), ["--window=0:4,-4:0"], [[1, 0, 2], [2, 0, 1770], [3, -2, 60], [4, -4, 1]]),
        (_edge_t62(2), ["--window=0:4,-4:0"], "error: cannot read module file: invalid module: d^2 != 0 from gen 0 to gen 3\n"),
    ]:
        path, out = tmp_path / "mod.json", tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        code = main(["table", str(path), "--out", str(out), *args])
        if isinstance(want, str):
            assert code == 2 and capsys.readouterr().err == want
        else:
            assert code == 0
            assert json.loads(out.read_text())["table"] == want


def test_a_window_past_the_degree_bound_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    """Window ends obey the module files' degree bound, +-2^30: an end past
    it (here one that overflows int64 in the monomial exponents) exits 2
    with one error line before the module is read or a suite runs."""
    from koszulkit import cli

    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(_S1, gens=[[0, 0]], diff=[])))
    bound = 1 << 30
    assert parse_window(f"{-bound}:{bound - 1},{-bound}:{bound - 1}").as_tuple() == (-bound, bound - 1, -bound, bound - 1)
    assert main(["table", str(path), "--window=0:0,-20000000000000000000:-19999999999999000000"]) == 2
    assert capsys.readouterr().err == "error: window bound -20000000000000000000 is out of range\n"
    monkeypatch.setattr(cli, "deserialize_module", None)
    monkeypatch.setattr(cli, "run_verify", None)
    for window, end in [(f"0:0,{-(2**63)}:0", -(2**63)), (f"0:{bound},0:0", bound), (f"{-bound - 1}:0,0:0", -bound - 1)]:
        for args in (["table", str(path)], ["verify", "--suite", "compat"]):
            assert main([*args, f"--window={window}"]) == 2
            assert capsys.readouterr().err == f"error: window bound {end} is out of range\n"


def _fuzz_bases():
    from koszulkit.algebra import make_algebra
    from koszulkit.dgmodule import serialize_module
    from koszulkit.samples import random_module, stream

    docs = [dict(_S1, diff=[[1, 0, [[1, [1], 0]]]]), dict(_T21, diff=[])]
    for kind, e, f in (("S", 2, 2), ("T", 2, 2), ("Q", 2, 1), ("R", 2, 1)):
        for seed in range(40):
            M = random_module(make_algebra(kind, e, f, 3), stream(seed, "fuzz"), max_gens=3)
            if M.terms.shape[1]:
                docs.append(json.loads(serialize_module(M)))
                break
    return docs


_FUZZ_BASES = _fuzz_bases()
_FUZZ_INTS = st.sampled_from([0, 1, 2, 3, 5, 7, -1, -2, 62, 63, 64, 1 << 30, -(1 << 30), 1 << 31, 2**63, -(2**63), 10**30, -(10**30)])
_FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | _FUZZ_INTS | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _places(node, path=()):
    """Every path to a value inside a JSON document."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _places(v, path + (k,))


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(_FUZZ_BASES), data=st.data())
def test_table_of_mutated_module_files_exits_0_or_2(tmp_path_factory, base, data):
    """Module JSON with values replaced, ints pushed to their limits and
    entries deleted: ``table`` exits 0 or 2 with at most one line on
    stderr, and never raises."""
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        *parent, last = data.draw(st.sampled_from(list(_places(doc))[1:]), label="place")
        holder = doc
        for k in parent:
            holder = holder[k]
        how = data.draw(st.sampled_from(["value", "int", "delete"]), label="how")
        if how == "delete":
            del holder[last]
        else:
            holder[last] = data.draw(_FUZZ_VALUES if how == "value" else _FUZZ_INTS, label="new")
        if not doc:
            break
    path = tmp_path_factory.mktemp("fuzz") / "mod.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["table", str(path), "--out", str(path.with_suffix(".out"))]) in (0, 2)
    assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") <= 1


SHIFT_LINE = "# shift convention: M[a]<b>^i_j = M^{i+a}_{j-b}"
SL2_VERDICTS = ("antiauto", "frobenius_graded", "frobenius_nondegenerate", "frobenius_symmetric",
                "koszul_linear", "poincare_palindromic", "quiver_cartan_match")
FORMAT_TEXT = {
    ("verify", "tsv"): ["suite\ttrial\tcheck\tverdict", "compat\t0\tcompat\tpass", "compat\t1\tcompat\tpass"],
    ("verify", "human"): [
        SHIFT_LINE,
        '# config: {"e": 1, "f": 1, "p": 3, "seed": 3, "trials": 2}',
        "suite compat: PASS (2 checks)",
        "overall: PASS",
    ],
    ("sl2", "tsv"): ["key\tvalue", *(f"{k}\tpass" for k in SL2_VERDICTS)],
    ("sl2", "human"): [
        SHIFT_LINE,
        '# block: {"block": "regular", "lambda": 0, "p": 3}',
        "dimension: 18",
        'dims by degree: {"0": 5, "1": 8, "2": 5}',
        "Poincare polynomial: 5 + 8t^1 + 5t^2",
        *(f"{k}: pass" for k in SL2_VERDICTS),
    ],
    ("table", "tsv"): ["i\tj\tdim", "-1\t2\t1", "0\t0\t1"],
    ("table", "human"): [
        SHIFT_LINE,
        "# window: [-2, 2, -4, 4]",
        "h(q, t) = q^-1*t^2 + q^0*t^0",
        "(i, j) -> dim",
        "(-1, 2) -> 1",
        "(0, 0) -> 1",
    ],
}


@pytest.mark.parametrize("command, fmt", list(FORMAT_TEXT))
def test_tsv_and_human_formats(tmp_path, command, fmt):
    """Every command in both text formats: compat over two trials, the
    regular block at p = 3 and the table of a free T-module on one
    generator, each rendered line for line."""
    from koszulkit.algebra import make_algebra
    from koszulkit.dgmodule import free_module, serialize_module

    module = tmp_path / "mod.json"
    module.write_text(serialize_module(free_module(make_algebra("T", 1, 1, 5), [(0, 0)])))
    args = {
        "verify": ["verify", "--suite", "compat", "--trials", "2", "--seed", "3"],
        "sl2": ["sl2", "-p", "3", "--lambda", "0"],
        "table": ["table", str(module)],
    }[command]
    out = tmp_path / f"r.{fmt}"
    assert main([*args, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text().splitlines() == FORMAT_TEXT[command, fmt]
