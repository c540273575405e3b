"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import hashlib
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from metrics import coverage_problems, layer_metrics, local_speed, normalised, pass_failures, self_times, tail  # noqa: E402
from reference import REF_MS, Gauge, sample  # noqa: E402
from run import per_key_medians, plan, speed  # noqa: E402
from tracer import SPAN_NAMES, InstallError, Tracer, install  # noqa: E402
from workloads import WORKLOADS, pass_jobs, passes_for  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.spill", 8.0, 11.0, 3),  # clipped to its parent's end
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_aggregate_self_time_and_counts():
    names = ["dgmodule.cohomology", "linalg.rref", "dgmodule.Expansion.__init__"]
    trace = {
        "names": names,
        "spans": [
            [0, 0.0, 5.0, -1, 0, 0, 0],
            [2, 0.5, 1.5, 0, 0, 40, 0],
            [1, 2.0, 3.0, 0, 0, 100, 10],
            [1, 3.0, 3.5, 0, 0, 300, 30],
        ],
    }
    m = layer_metrics([trace, trace])
    assert m["dgmodule.cohomology_s"] == pytest.approx(2 * 2.5)
    assert m["dgmodule.expansion_s"] == pytest.approx(2 * 1.0)
    assert m["dgmodule.expansion_basis"] == 80
    assert m["linalg.rref_s"] == pytest.approx(2 * 1.5)
    assert (m["linalg.rref_calls"], m["linalg.rref_cells"], m["linalg.max_cells"]) == (4, 800, 300)
    assert m["linalg.density"] == pytest.approx(0.1)
    assert m["lkd.functor_F_s"] == 0


def test_p90_and_count_beyond():
    value, beyond = tail(list(range(1, 201)))
    assert value == pytest.approx(180.1)
    assert beyond == 20
    assert tail([float(x) for x in range(100)])[1] == 10


def test_local_speed_uses_the_samples_within_or_the_nearest():
    ref = [(0.0, REF_MS), (1.0, 2 * REF_MS), (2.0, 2 * REF_MS), (3.0, 4 * REF_MS), (9.0, 3 * REF_MS)]
    assert local_speed(ref, 0.5, 3.5) == 2.0  # median of 2, 2, 4
    assert local_speed(ref, -1.0, -0.5) == 2.0  # nearest three: 0, 1, 2
    assert local_speed(ref, 8.0, 8.5) == 3.0  # nearest three: 9, 3, 2
    spans = {"a": (1.0, 3.0), "b": (-0.5, -0.2)}
    assert normalised(spans, ref) == pytest.approx({"a": 2.0 / 2.0, "b": 0.3 / 2.0})


def test_medians_per_key_and_pass_speed():
    maps = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 4.0}, {"a": 5.0}]
    assert sorted(per_key_medians(maps)) == [2.5, 3.0]
    assert speed({"ref": [(0.0, REF_MS), (1.0, 3 * REF_MS), (2.0, 2 * REF_MS)]}) == 2.0


def test_gauge_clock_leaves_kernel_samples_out():
    gauge = Gauge()
    t0 = gauge.clock()
    for _ in range(5):
        gauge.tick()
    kernel_s = sum(ms for _, ms in gauge.samples) / 1e3
    assert len(gauge.samples) == 5 and 0 < sample() < 100 * REF_MS
    assert gauge.clock() - t0 < kernel_s / 2
    assert gauge.paused >= kernel_s


def test_one_byte_report_change_fails_every_check():
    report = b'{"passed":true,"sections":[]}\n' * 3
    golden = hashlib.sha256(report).hexdigest()
    changed = bytearray(report)
    changed[7] ^= 1
    checks = 40
    assert pass_failures(checks, 0, hashlib.sha256(report).hexdigest(), golden) == 0
    assert pass_failures(checks, 0, hashlib.sha256(bytes(changed)).hexdigest(), golden) / checks == 1
    assert pass_failures(checks, 3, "any", None) == 3


def test_coverage_flags_silent_and_stray_spans():
    names = ["lkd.functor_F", "linalg.rref", "sl2.block_report"]
    counts = {"linalg.rref": 5, "sl2.block_report": 1}
    problems = coverage_problems(counts, names, {"lkd", "linalg"}, set())
    assert problems == [
        "span lkd.functor_F never fired",
        "span sl2.block_report fired 1 times outside its workload's layers",
    ]
    assert coverage_problems(counts, names, {"lkd", "linalg", "sl2"}, {"lkd.functor_F"}) == []


def test_plan_interleaves_workloads_and_pairs_traced_passes():
    order = plan(["roundtrip-e3", "sl2-blocks"], 6.0, True, True)
    assert order[:4] == [
        ("roundtrip-e3", 0, False),
        ("roundtrip-e3", 0, True),
        ("sl2-blocks", 0, False),
        ("sl2-blocks", 0, True),
    ]
    assert sum(1 for w, _, t in order if w == "sl2-blocks" and not t) == 4


def test_passes_come_in_pairs_of_reversed_orders():
    assert [passes_for(w, 20) for w in WORKLOADS] == [4, 4, 4, 4]
    assert [passes_for(w, 30) for w in WORKLOADS] == [6, 4, 6, 4]
    first, second, third = (pass_jobs("roundtrip-e3", 7, k) for k in range(3))
    assert second == first[::-1] and third != first
    assert pass_jobs("roundtrip-e3", 7, 1) == second


def _uninstall():
    for name, module in list(sys.modules.items()):
        if name.startswith("koszulkit"):
            for key, value in list(vars(module).items()):
                if hasattr(value, "__wrapped__"):
                    setattr(module, key, value.__wrapped__)
                elif isinstance(value, type):
                    for attr, member in list(vars(value).items()):
                        if hasattr(member, "__wrapped__"):
                            setattr(value, attr, member.__wrapped__)


def test_install_wraps_every_binding_site():
    import koszulkit.cli  # noqa: F401
    import koszulkit.sl2  # noqa: F401
    from koszulkit import blockalg, dgmodule, homdual, linalg, qmodel, sl2, suites

    tracer = Tracer()
    try:
        sites = install(tracer)
        assert set(sites) == set(SPAN_NAMES) and all(sites.values())
        assert sites["dgmodule.cohomology"] >= 4  # dgmodule, suites, homdual, qmodel
        for module in (dgmodule, suites, homdual, qmodel):
            assert module.cohomology.__wrapped__ is not None
        assert sl2._koszulity_probe is blockalg.koszulity_probe
        dgmodule.mat_rank(np.eye(3, dtype=np.int64), 5)
        (name, *_rest, cells, nonzeros), = [s for s in tracer.spans]
        assert SPAN_NAMES[name] == "linalg.rref" and (cells, nonzeros) == (9, 3)
    finally:
        _uninstall()
    assert not hasattr(linalg.rref, "__wrapped__")


def test_install_fails_loudly_when_a_target_moves():
    from koszulkit import lkd

    functor_G = lkd.functor_G
    del lkd.functor_G
    try:
        with pytest.raises(InstallError, match="lkd.functor_G"):
            install(Tracer())
    finally:
        lkd.functor_G = functor_G
        _uninstall()
