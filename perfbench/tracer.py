"""Outside-in tracing of koszulkit's layers, installed from the benchmark.

Each entry of SPANS names a public function or method of the program.  The
tracer replaces it at every binding site: ``from .x import y`` copies the
name into the importing module, so wrapping the defining module alone would
miss most callers.  Installation fails loudly when a target is gone, and
run.py checks that each span fires on the workloads that must reach it, so
a refactor that moves a function cannot turn into a layer reporting 0 s.

A span records (name index, start, end, parent span index, instance id,
cells, nonzeros).  Spans stay in memory and are written once, at exit.
The hot helpers in ``algebra`` and ``Expansion.d_of`` are deliberately not
spanned; their cost stays in the self time of their callers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _gens(args, result):
    return len(result.module.gens), 0


def _basis(args, result):
    return len(args[0].basis), 0


def _matrix(args, result):
    import numpy as np

    a, p = args[0], args[1]
    return int(a.size), int(np.count_nonzero(np.mod(a, p)))


# (span name, defining module, attribute path, measure).  The span name's
# first component is the layer.  A measure returns (cells, nonzeros), or
# (count, 0) for spans that count work items.
SPANS = [
    ("lkd.functor_F", "koszulkit.lkd", "functor_F", _gens),
    ("lkd.functor_G", "koszulkit.lkd", "functor_G", _gens),
    ("dgmodule.SemifreeDgModule.__init__", "koszulkit.dgmodule", "SemifreeDgModule.__init__", None),
    ("dgmodule.Expansion.__init__", "koszulkit.dgmodule", "Expansion.__init__", _basis),
    ("dgmodule.expansion_to_finite", "koszulkit.dgmodule", "expansion_to_finite", None),
    ("dgmodule.cohomology", "koszulkit.dgmodule", "cohomology", None),
    ("dgmodule.FiniteDgModule.cohomology", "koszulkit.dgmodule", "FiniteDgModule.cohomology", None),
    ("dgmodule.cone", "koszulkit.dgmodule", "cone", None),
    ("dgmodule.DgMap.validate", "koszulkit.dgmodule", "DgMap.validate", None),
    ("linalg.rref", "koszulkit.linalg", "rref", _matrix),
    ("homdual.dualize_S", "koszulkit.homdual", "dualize_S", None),
    ("homdual.dualize_T_res", "koszulkit.homdual", "dualize_T_res", None),
    ("homdual.k_linear_dual_T", "koszulkit.homdual", "k_linear_dual_T", None),
    ("homdual.dualize_T_formula", "koszulkit.homdual", "dualize_T_formula", None),
    ("homdual.expand_T_module", "koszulkit.homdual", "expand_T_module", None),
    ("homdual.oracle_compare_T", "koszulkit.homdual", "oracle_compare_T", None),
    ("homdual.check_compat", "koszulkit.homdual", "check_compat", None),
    ("qmodel.extend_to_Q", "koszulkit.qmodel", "extend_to_Q", None),
    ("qmodel.restrict_to_T", "koszulkit.qmodel", "restrict_to_T", None),
    ("qmodel.restriction_unit", "koszulkit.qmodel", "restriction_unit", None),
    ("qmodel.pushforward_p", "koszulkit.qmodel", "pushforward_p", None),
    ("qmodel.dualize_Q", "koszulkit.qmodel", "dualize_Q", None),
    ("qmodel.check_fbot", "koszulkit.qmodel", "check_fbot", None),
    ("blockalg.BlockAlgebra.check_axioms", "koszulkit.blockalg", "BlockAlgebra.check_axioms", None),
    ("blockalg.koszulity_probe", "koszulkit.blockalg", "koszulity_probe", None),
    ("sl2.block_report", "koszulkit.sl2", "block_report", None),
    ("sl2.build_regular_block", "koszulkit.sl2", "build_regular_block", None),
    ("sl2.build_singular_block", "koszulkit.sl2", "build_singular_block", None),
    ("sl2.quiver_basic_algebra", "koszulkit.sl2", "quiver_basic_algebra", None),
    ("sl2.quiver_presentation", "koszulkit.sl2", "quiver_presentation", None),
    ("sl2.graded_cartan", "koszulkit.sl2", "graded_cartan", None),
    ("sl2.frobenius_form", "koszulkit.sl2", "frobenius_form", None),
    ("sl2.anti_automorphism_check", "koszulkit.sl2", "anti_automorphism_check", None),
    ("sl2.poincare_symmetry", "koszulkit.sl2", "poincare_symmetry", None),
    ("sl2.koszulity_probe", "koszulkit.sl2", "koszulity_probe", None),
    ("samples.random_module", "koszulkit.samples", "random_module", None),
    ("samples.random_acyclic", "koszulkit.samples", "random_acyclic", None),
    ("suites.run_verify", "koszulkit.suites", "run_verify", None),
    ("suites.report_to_json", "koszulkit.suites", "report_to_json", None),
]
SPAN_NAMES = [name for name, *_ in SPANS]


class InstallError(RuntimeError):
    pass


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.instance = -1

    def wrap(self, index: int, fn, measure):
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                cells, nonzeros = measure(args, result) if measure else (0, 0)
            finally:
                end = clock()
                stack.pop()
            spans[slot] = (index, start, end, parent, self.instance, cells, nonzeros)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str):
        # A span whose call raised keeps its None slot; the pass is then
        # failed anyway, so it is dropped rather than guessed.
        with open(path, "w") as fh:
            json.dump({"names": SPAN_NAMES, "spans": [s for s in self.spans if s]}, fh)


def _resolve(module_name: str, path: str):
    holder = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        holder = getattr(holder, name)
    return holder, attr


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every SPANS target at every binding site; return the site counts."""
    modules = [m for name, m in sys.modules.items() if name == "koszulkit" or name.startswith("koszulkit.")]
    sites = {}
    for index, (name, module_name, path, measure) in enumerate(SPANS):
        try:
            holder, attr = _resolve(module_name, path)
            original = vars(holder)[attr]
        except (AttributeError, KeyError, ImportError) as exc:
            raise InstallError(f"span {name}: {module_name}.{path} not found ({exc})") from exc
        wrapped = tracer.wrap(index, original, measure)
        count = 0
        if isinstance(holder, type):
            setattr(holder, attr, wrapped)
            count = 1
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    count += 1
        sites[name] = count
    return sites
