"""Command line harness: verification suites, block calculators, tables.

Exit codes: 0 all verdicts pass, 1 a mathematical verdict failed,
2 usage or input error or a failed allocation.  Reports are deterministic:
the same arguments and seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .bigraded import SHIFT_CONVENTION, Window
from .dgmodule import MAX_DEGREE, MAX_DOCUMENT, _check_int, cohomology, deserialize_module
from .suites import SUITES, Config, report_to_json, run_verify

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def parse_window(text: str) -> Window:
    """The window i0:i1,j0:j1; each bound within a module file's degree
    bound, ``MAX_DEGREE``, so that no expansion on it overflows int64."""
    try:
        ipart, jpart = text.split(",")
        i0, i1 = (int(x) for x in ipart.split(":"))
        j0, j1 = (int(x) for x in jpart.split(":"))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"window must look like i0:i1,j0:j1 (got {text!r}): {exc}")
    return Window(*(_check_int(x, "window bound", -MAX_DEGREE, MAX_DEGREE) for x in (i0, i1, j0, j1)))


def default_seed() -> int:
    env = os.environ.get("KOSZULKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"KOSZULKIT_SEED must be an integer, got {env!r}")
    return 0


def _emit(doc: dict, fmt: str, out_path):
    if fmt == "json":
        text = report_to_json(doc)
    elif fmt == "tsv":
        text = _to_tsv(doc)
    else:
        text = _to_human(doc)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _check_out(path: str):
    """ValueError unless ``path`` names a file this process may write:
    checked before any work, and it creates nothing."""
    parent = os.path.dirname(path)
    if not os.path.isdir(parent or "."):
        raise ValueError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    if not os.access(path if os.path.exists(path) else parent or ".", os.W_OK):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.EACCES)}")


def _to_tsv(doc: dict) -> str:
    lines = []
    if doc.get("command") == "verify":
        lines.append("suite\ttrial\tcheck\tverdict")
        for section in doc["sections"]:
            for r in section["results"]:
                lines.append(f"{section['suite']}\t{r['trial']}\t{r['check']}\t{r['verdict']}")
    elif doc.get("command") == "sl2":
        lines.append("key\tvalue")
        for k, v in sorted(doc["report"]["verdicts"].items()):
            lines.append(f"{k}\t{'pass' if v else 'FAIL'}")
    else:
        lines.append("i\tj\tdim")
        for i, j, d in doc["table"]:
            lines.append(f"{i}\t{j}\t{d}")
    return "\n".join(lines) + "\n"


def _to_human(doc: dict) -> str:
    lines = [f"# shift convention: {SHIFT_CONVENTION}"]
    if doc.get("command") == "verify":
        lines.append(f"# config: {json.dumps(doc['config'], sort_keys=True)}")
        for section in doc["sections"]:
            status = "PASS" if section["passed"] else "FAIL"
            lines.append(f"suite {section['suite']}: {status} ({len(section['results'])} checks)")
            for r in section["results"]:
                if r["verdict"] != "pass":
                    lines.append(f"  trial {r['trial']} {r['check']}: FAIL")
                    if "detail" in r:
                        lines.append(f"    {json.dumps(r['detail'], sort_keys=True)}")
        lines.append("overall: " + ("PASS" if doc["passed"] else "FAIL"))
    elif doc.get("command") == "sl2":
        rep = doc["report"]
        lines.append(f"# block: {json.dumps(rep['descriptor'], sort_keys=True)}")
        lines.append(f"dimension: {rep['dimension']}")
        lines.append(f"dims by degree: {json.dumps(rep['dims_by_degree'], sort_keys=True)}")
        poly = " + ".join(
            f"{c}t^{d}" if d else str(c) for d, c in enumerate(rep["poincare"]) if c
        )
        lines.append(f"Poincare polynomial: {poly}")
        for k, v in sorted(rep["verdicts"].items()):
            lines.append(f"{k}: {'pass' if v else 'FAIL'}")
    else:
        lines.append(f"# window: {doc['window']}")
        terms = []
        for i, j, d in doc["table"]:
            coeff = "" if d == 1 else f"{d}*"
            terms.append(f"{coeff}q^{i}*t^{j}")
        lines.append("h(q, t) = " + (" + ".join(terms) if terms else "0"))
        lines.append("(i, j) -> dim")
        for i, j, d in doc["table"]:
            lines.append(f"({i}, {j}) -> {d}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    window = parse_window(args.window) if args.window else None
    cfg = Config(
        e=args.dim_e, f=args.dim_f, p=args.prime,
        trials=args.trials, seed=args.seed, window=window,
    )
    report = run_verify(args.suite, cfg)
    _emit(report, args.format, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_sl2(args) -> int:
    from .sl2 import block_report

    if args.singular == (args.lam is not None):
        raise ValueError("give exactly one of --lambda or --singular")
    rep = block_report(args.prime, None if args.singular else args.lam, hbound=args.hbound)
    doc = {
        "schema": 1,
        "command": "sl2",
        "shift_convention": SHIFT_CONVENTION,
        "report": rep,
    }
    _emit(doc, args.format, args.out)
    return EXIT_OK if all(rep["verdicts"].values()) else EXIT_FAIL


def cmd_table(args) -> int:
    window = parse_window(args.window) if args.window else None
    try:
        with open(args.module) as fh:
            module = deserialize_module(fh.read(MAX_DOCUMENT + 1))  # enough to refuse a longer file
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read module file: {exc}")
    if window is None:
        f = module.algebra.f
        window = Window.hull(module.degs).enlarge(f + 1, 2 * (f + 1))
    table = cohomology(module, window)
    doc = {
        "schema": 1,
        "command": "table",
        "shift_convention": SHIFT_CONVENTION,
        "window": list(window.as_tuple()),
        "table": table.to_triples(),
    }
    _emit(doc, args.format, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszulkit",
        description="Verification suites and block calculators for exact "
        "bigraded homological algebra over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a randomized verification suite")
    pv.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    pv.add_argument("--dim-e", type=int, default=1)
    pv.add_argument("--dim-f", type=int, default=1)
    pv.add_argument("-p", "--prime", type=int, default=3)
    pv.add_argument("--trials", type=int, default=10)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--window", default=None, help="i0:i1,j0:j1")
    pv.add_argument("--format", default="json", choices=("json", "tsv", "human"))
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sl2", help="build and verify a block algebra")
    ps.add_argument("-p", "--prime", type=int, required=True)
    ps.add_argument("--lambda", dest="lam", type=int, default=None)
    ps.add_argument("--singular", action="store_true")
    ps.add_argument("--hbound", type=int, default=4)
    ps.add_argument("--format", default="json", choices=("json", "tsv", "human"))
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_sl2)

    pt = sub.add_parser("table", help="cohomology table of a serialized module")
    pt.add_argument("module")
    pt.add_argument("--window", default=None, help="i0:i1,j0:j1")
    pt.add_argument("--format", default="json", choices=("json", "tsv", "human"))
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and args.command == "verify":
        try:
            args.seed = default_seed()
        except ValueError as exc:
            parser.exit(EXIT_USAGE, f"error: {exc}\n")
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory{f': {exc}' if str(exc) else ''}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
