"""Pure arithmetic of the benchmark: speed normalisation, self times,
percentiles, failure counts and the per-layer metrics drawn from a traced
pass's spans."""

from __future__ import annotations

import statistics

from reference import REF_MS

# Reference samples a speed factor takes at least: the ones nearest to the
# interval when fewer than this many fall within it.
REF_NEAR = 3

# (metric, unit, aggregate, spans).  spans is a list of span names or a
# layer prefix ending in "."; aggregates: "self" sums self time, "calls"
# counts spans, "sum" and "max" aggregate the span's first measure, and
# "density" is the sum of its second measure over the sum of its first.
LAYER_METRICS = [
    ("lkd.functor_F_s", "s", "self", ["lkd.functor_F"]),
    ("lkd.functor_G_s", "s", "self", ["lkd.functor_G"]),
    ("lkd.functor_gens", "count", "sum", ["lkd.functor_F", "lkd.functor_G"]),
    ("dgmodule.construct_s", "s", "self", ["dgmodule.SemifreeDgModule.__init__"]),
    ("dgmodule.construct_calls", "count", "calls", ["dgmodule.SemifreeDgModule.__init__"]),
    ("dgmodule.expansion_s", "s", "self", ["dgmodule.Expansion.__init__", "dgmodule.expansion_to_finite"]),
    ("dgmodule.expansion_basis", "count", "sum", ["dgmodule.Expansion.__init__"]),
    ("dgmodule.cohomology_s", "s", "self", ["dgmodule.cohomology", "dgmodule.FiniteDgModule.cohomology"]),
    ("dgmodule.cone_s", "s", "self", ["dgmodule.cone"]),
    ("dgmodule.validate_s", "s", "self", ["dgmodule.DgMap.validate"]),
    ("linalg.rref_s", "s", "self", ["linalg.rref"]),
    ("linalg.rref_calls", "count", "calls", ["linalg.rref"]),
    ("linalg.rref_cells", "cells", "sum", ["linalg.rref"]),
    ("linalg.max_cells", "cells", "max", ["linalg.rref"]),
    ("linalg.density", "1", "density", ["linalg.rref"]),
    ("homdual.self_s", "s", "self", "homdual."),
    ("qmodel.self_s", "s", "self", "qmodel."),
    ("blockalg.axioms_s", "s", "self", ["blockalg.BlockAlgebra.check_axioms"]),
    ("blockalg.probe_s", "s", "self", ["blockalg.koszulity_probe"]),
    ("sl2.self_s", "s", "self", "sl2."),
    ("sl2.blocks_built", "count", "calls", ["sl2.build_regular_block", "sl2.build_singular_block", "sl2.quiver_basic_algebra"]),
    ("samples.self_s", "s", "self", "samples."),
    ("suites.self_s", "s", "self", "suites."),
]
OVERHEAD = ("trace.overhead_s", "s")
COUNT_METRICS = [name for name, _, agg, _ in LAYER_METRICS if agg != "self"]


def local_speed(ref, start: float, end: float) -> float:
    """Speed factor over [start, end]: the median reference-kernel time of
    the samples taken within it, or of the REF_NEAR nearest when fewer fall
    within it, over REF_MS.  ref holds (time, ms) pairs."""
    inside = [ms for t, ms in ref if start <= t <= end]
    if len(inside) < REF_NEAR:
        nearest = sorted(ref, key=lambda s: max(start - s[0], s[0] - end))
        inside = [ms for _, ms in nearest[:REF_NEAR]]
    return statistics.median(inside) / REF_MS


def normalised(spans: dict, ref) -> dict[str, float]:
    """Each {key: (start, end)} span's duration over its local speed."""
    return {key: (end - start) / local_speed(ref, start, end) for key, (start, end) in spans.items()}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    spans: sequences (name, start, end, parent index, ...), parents indexing
    into the same list.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def tail(samples, q: int = 90):
    """(q-th percentile, samples strictly beyond it) of pooled samples."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return value, sum(x > value for x in samples)


def pass_failures(checks: int, failed: int, digest: str, golden: str | None) -> int:
    """Failed checks of a pass: all of them when its report bytes differ
    from the golden digest, else those with a FAIL verdict or exception."""
    if golden is not None and digest != golden:
        return checks
    return failed


def _matches(name: str, wanted) -> bool:
    return name.startswith(wanted) if isinstance(wanted, str) else name in wanted


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics summed over traces, each {"names", "spans"}."""
    acc = {metric: [0.0, 0.0, 0.0] for metric, *_ in LAYER_METRICS}
    for trace in traces:
        names = trace["names"]
        targets = [[(m, agg) for m, _, agg, wanted in LAYER_METRICS if _matches(name, wanted)] for name in names]
        spans = trace["spans"]
        for s, t in zip(spans, self_times(spans)):
            cells, nonzeros = s[5], s[6]
            for metric, agg in targets[s[0]]:
                a = acc[metric]
                if agg == "self":
                    a[0] += t
                elif agg == "calls":
                    a[0] += 1
                elif agg == "sum":
                    a[0] += cells
                elif agg == "max":
                    a[0] = max(a[0], cells)
                else:
                    a[1] += cells
                    a[2] += nonzeros
    out = {}
    for metric, _, agg, _ in LAYER_METRICS:
        a = acc[metric]
        if agg == "density":
            out[metric] = a[2] / a[1] if a[1] else 0.0
        elif agg == "self":
            out[metric] = a[0]
        else:
            out[metric] = int(a[0])
    return out


def fired(traces) -> dict[str, int]:
    counts: dict[str, int] = {}
    for trace in traces:
        for s in trace["spans"]:
            name = trace["names"][s[0]]
            counts[name] = counts.get(name, 0) + 1
    return counts


def coverage_problems(counts: dict[str, int], span_names, layers: set[str], idle: set[str]) -> list[str]:
    """Spans that fired where they must stay silent, or stayed silent where
    they must fire."""
    problems = []
    for name in span_names:
        n = counts.get(name, 0)
        used = name.split(".")[0] in layers
        if used and name not in idle and n == 0:
            problems.append(f"span {name} never fired")
        elif not used and n:
            problems.append(f"span {name} fired {n} times outside its workload's layers")
    return problems
