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


def test_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    assert main(["sl2", "-p", "3", "--lambda", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"


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
    (["-p", "101", "--lambda", "0"], "the block has dimension 20402, over the limit of 1058"),
    (["-p", "37", "--singular"], "the block has dimension 1369, over the limit of 1058"),
    (["-p", "7", "--lambda", "0", "--hbound", "9"], "hbound must lie in [1, 8], got 9"),
])
def test_sl2_refuses_oversized_input(args, message):
    start = time.monotonic()
    res = run_cli(["sl2", *args])
    assert time.monotonic() - start < 5
    assert res.returncode == 2
    assert res.stderr == f"error: {message}\n"
    assert "Traceback" not in res.stderr and res.stdout == ""


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


def _two_core_module(tmp_path):
    """A module file whose table ranks a 2 x 2 and then a 4 x 4 core."""
    from koszulkit.algebra import make_algebra
    from dict_reference import module
    from koszulkit.dgmodule import serialize_module

    # d(e2) = x1 e0 + x2 e1 and d(e3) = x1 e0 + 2 x2 e1.  Out of bidegree
    # (1, -2) the map is a 2 x 4 cell whose core {e2, e3} x {x1 e0, x2 e1}
    # has rank 2 and 4 nonzeros; out of (3, -4) a 4 x 6 cell whose 4 x 4
    # core is two such blocks.  Structural pivots clear neither core, and
    # eliminating a core fills in nothing.
    S = make_algebra("S", 2, 2, 3)
    d = {k: {0: {((1, 0), 0): 1}, 1: {((0, 1), 0): c}} for k, c in ((2, 1), (3, 2))}
    M = module(S, [(0, 0), (0, 0), (1, -2), (1, -2)], d)
    path = tmp_path / "mod.json"
    path.write_text(serialize_module(M))
    return path


def test_table_refuses_an_oversized_rank_cell(tmp_path, monkeypatch, capsys):
    from koszulkit import dgmodule

    path = _two_core_module(tmp_path)
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(dgmodule, "MAX_RANK_CELLS", 16)  # the core, not the 4 x 6 cell
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(dgmodule, "MAX_RANK_CELLS", 15)
    ranked = []
    monkeypatch.setattr(dgmodule, "mat_rank", lambda a, p: ranked.append(a.shape))
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 2
    assert ranked == []  # refused before the core out of (1, -2) is ranked
    err = capsys.readouterr().err
    assert err == (
        "error: the map out of bidegree (3, -4) needs a dense 4 x 4 core "
        "(16 bytes as uint8), over the limit of 15 entries\n"
    )
    assert "Traceback" not in err


def test_table_refuses_a_row_reduction_past_its_fill_bound(tmp_path, monkeypatch, capsys):
    from koszulkit import linalg

    path = _two_core_module(tmp_path)
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 64)  # 8 entries: the 4 x 4 core's nonzeros
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(linalg, "MAX_RANK_CELLS", 63)  # 7 entries: the 2 x 2 core passes, the 4 x 4 does not
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: row reduction of a 4 x 4 matrix holds 8 entries in its rows (about 512 bytes), over the limit of 7\n"
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


def test_tsv_and_human_formats(tmp_path):
    out = tmp_path / "r.tsv"
    assert main(["verify", "--suite", "compat", "--trials", "2", "--seed", "3",
                 "--format", "tsv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite\ttrial\tcheck\tverdict"
    assert len(lines) == 3
    out2 = tmp_path / "r.txt"
    assert main(["sl2", "-p", "3", "--lambda", "0", "--format", "human",
                 "--out", str(out2)]) == 0
    assert "shift convention" in out2.read_text()
