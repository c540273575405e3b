import json
import subprocess
import sys
import time

import pytest

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


def test_table_refuses_an_oversized_rank_cell(tmp_path, monkeypatch, capsys):
    from koszulkit import dgmodule
    from koszulkit.algebra import make_algebra
    from dict_reference import module
    from koszulkit.dgmodule import serialize_module

    # two maps within the window: e1 -> (x1 e0, x2 e0) in internal degree
    # -2 is a 1 x 2 cell, x e1 -> x x' e0 in internal degree -4 a 2 x 3 one
    S = make_algebra("S", 2, 2, 3)
    M = module(S, [(0, 0), (1, -2)], {1: {0: {((1, 0), 0): 1}}})
    path = tmp_path / "mod.json"
    path.write_text(serialize_module(M))
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(dgmodule, "MAX_RANK_CELLS", 5)
    assert main(["table", str(path), "--window=0:4,-4:0"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: the map out of bidegree (3, -4) needs a dense 2 x 3 cell "
        "(48 bytes as int64), over the limit of 5 entries\n"
    )
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
