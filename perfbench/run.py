"""koszulkit end-to-end benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every pass is a fresh interpreter
(perfbench/child.py), started one at a time: every CLI user pays cold
caches, and the machine has few cores.  Every pass of a workload runs the
same instances, in an order drawn from the seed.

With --trace 0 a run makes pairs of PASS_SECONDS-sized passes to fill S
seconds, at least MIN_PAIRS, and reports the end-to-end metrics.  Every
pass runs the same jobs, a pair in one order and its reverse.  The host's speed drifts by tens of percent within seconds,
so each pass also times a fixed reference kernel while it runs
(reference.py), and every job's and instance's time is divided by the speed
factor around it: every reported time is a time at the nominal machine
speed, and the raw pass times and each pass's median factor are printed
beside them.  wall_s is the median over passes of a pass's normalised job
times summed, the verdict percentiles are taken over each instance's median
normalised time, setup_s is the median normalised set-up time, and
peak_rss_mb is the highest peak of any pass (it depends on job order).
With --trace 1 it runs passes 0 and 1 untraced and then traced, and reports
the per-layer metrics of the faster traced pass, its times divided by that
pass's median factor.  ``--workload all`` does both for every workload,
interleaving the workloads pass by pass, and prints one table.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``failed / attempted`` is the fail ratio: a check fails on a FAIL
verdict or an exception, and every check of a pass fails when its report
bytes differ from the workload's golden digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    COUNT_METRICS,
    LAYER_METRICS,
    OVERHEAD,
    coverage_problems,
    fired,
    layer_metrics,
    local_speed,
    normalised,
    pass_failures,
    tail,
)
from reference import REF_MS  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402
from workloads import DEFAULT_SEED, IDLE_SPANS, LAYERS, WORKLOADS, passes_for  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench")
TRACED_PASSES = (0, 1)
DEADLINE_S = 170  # a single-workload run must end within 180 s
END_TO_END = [
    ("wall_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def tree_digest(*dirs: str) -> str:
    """SHA-256 over the Python sources of the given directories."""
    h = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "none"


def run_pass(workload: str, seed: int, k: int, traced: bool, deadline: float | None) -> dict:
    """One pass in a fresh interpreter; returns its result with setup_s."""
    spans_path = os.path.join(OUT, f"spans-{workload}-{seed}-{k}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, str(seed), str(k), "1" if traced else "0", spans_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env={**os.environ, **THREAD_PINS})
    try:
        remaining = None if deadline is None else max(1.0, deadline - time.monotonic())
        if not select.select([proc.stdout], [], [], remaining)[0]:
            raise subprocess.TimeoutExpired(cmd, remaining)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise BenchError(f"{workload} pass {k}: set-up failed")
        remaining = None if deadline is None else max(1.0, deadline - time.monotonic())
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {k}: out of time")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {k}: exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result.update(setup_s=setup_s, k=k, traced=traced)
    if traced:
        with open(spans_path) as fh:
            result["trace"] = json.load(fh)
    return result


def plan(workloads, seconds: float, end_to_end: bool, per_layer: bool):
    """(workload, pass, traced) in execution order, workloads interleaved."""
    rounds = []
    for w in workloads:
        untraced = set(range(passes_for(w, seconds))) if end_to_end else set()
        if per_layer:
            untraced |= set(TRACED_PASSES)
        jobs = [[(w, k, False)] for k in sorted(untraced)]
        if per_layer:
            for k in TRACED_PASSES:
                jobs[k].append((w, k, True))
        rounds.append(jobs)
    order = []
    for r in range(max(len(j) for j in rounds)):
        for jobs in rounds:
            if r < len(jobs):
                order += jobs[r]
    return order


def check_counts(workload: str, counts: dict) -> list[str]:
    """Count metrics must repeat exactly across runs of one program and
    one benchmark."""
    key = tree_digest(os.path.join(ROOT, "src", "koszulkit"), HERE)[:16]
    path = os.path.join(OUT, f"counts-{key}-{workload}.json")
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        return [f"{m} was {before[m]}, now {counts[m]}" for m in counts if before.get(m) != counts[m]]
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


def speed(p: dict) -> float:
    """A pass's median speed factor: its median kernel time over REF_MS."""
    return statistics.median(ms for _, ms in p["ref"]) / REF_MS


def per_key_medians(maps) -> list[float]:
    """Each key's median over several {key: value} maps."""
    by_key: dict[str, list[float]] = {}
    for values in maps:
        for key, v in values.items():
            by_key.setdefault(key, []).append(v)
    return [statistics.median(vs) for vs in by_key.values()]


def summarize(workload: str, passes: list[dict], golden: str | None, end_to_end: bool, per_layer: bool):
    """Metrics, attempted and failed checks, and problems of one workload."""
    problems = []
    attempted = failed = 0
    want = golden or passes[0]["digest"]
    for p in passes:
        bad = pass_failures(p["checks"], p["failed"], p["digest"], want)
        if p["digest"] != want:
            problems.append(f"pass {p['k']}{' traced' if p['traced'] else ''}: report digest {p['digest'][:16]} != {want[:16]}")
        attempted += p["checks"]
        failed += bad
    for p in passes:
        p["norm_wall_s"] = sum(normalised(p["jobs"], p["ref"]).values())
    untraced = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["norm_wall_s"] for p in untraced)
    metrics = {}
    notes = [
        "raw pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in untraced),
        "speed " + " ".join(f"{speed(p):.3f}" for p in untraced),
    ]
    if end_to_end:
        samples = [s * 1e3 for s in per_key_medians(normalised(p["instances"], p["ref"]) for p in untraced)]
        p90, beyond = tail(samples)
        values = {
            "wall_s": wall,
            "verdict_ms_p50": statistics.median(samples),
            "verdict_ms_p90": p90,
            "peak_rss_mb": max(p["rss_mb"] for p in untraced),
            "setup_s": statistics.median(p["setup_s"] / local_speed(p["ref"], -p["setup_s"], 0.0) for p in untraced),
        }
        metrics.update({m: {"value": values[m], "unit": u} for m, u in END_TO_END})
        notes.append(f"{len(untraced)} passes, {len(samples)} instances, {beyond} beyond p90")
    if per_layer:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics([p["trace"]]) for p in traced]
        counts = [{m: v[m] for m in COUNT_METRICS} for v in per_pass]
        if any(c != counts[0] for c in counts):
            problems.append(f"count metrics differ between traced passes: {counts}")
        quick = min(range(len(traced)), key=lambda i: traced[i]["norm_wall_s"])
        factor = speed(traced[quick])
        units = {m: u for m, u, *_ in LAYER_METRICS}
        values = {m: v / factor if units[m] == "s" else v for m, v in per_pass[quick].items()}
        values[OVERHEAD[0]] = traced[quick]["norm_wall_s"] - wall
        units[OVERHEAD[0]] = OVERHEAD[1]
        metrics.update({m: {"value": values[m], "unit": units[m]} for m in units})
        problems += coverage_problems(fired(p["trace"] for p in traced), SPAN_NAMES, LAYERS[workload], IDLE_SPANS[workload])
        problems += check_counts(workload, counts[0])
        notes.append(f"per-layer metrics from the faster of traced passes {list(TRACED_PASSES)}")
    notes.append(f"digest {passes[0]['digest'][:16]}")
    return metrics, attempted, failed, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so run_pass still stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "koszulkit", "__init__.py")):
        print(f"error: no koszulkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    src = tree_digest(os.path.join(ROOT, "src", "koszulkit"))
    both = args.workload == "all"
    workloads = WORKLOADS if both else (args.workload,)
    end_to_end, per_layer = both or not args.trace, both or bool(args.trace)
    deadline = None if both else time.monotonic() + DEADLINE_S

    passes = {w: [] for w in workloads}
    for w, k, traced in plan(workloads, args.seconds, end_to_end, per_layer):
        passes[w].append(run_pass(w, args.seed, k, traced, deadline))

    first = passes[workloads[0]][0]
    print(
        f"env: git={git_sha()} src={src[:16]} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={first['numpy']} numba={'importable' if first['numba'] else 'absent'} "
        + " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    )
    results, ok = {}, True
    for w in workloads:
        metrics, attempted, failed, problems, notes = summarize(
            w, passes[w], golden.get(w), end_to_end, per_layer
        )
        print(f"{w} seed={args.seed}: " + "; ".join(notes))
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_ratio':28s} {failed / attempted:>14.6g} 1 ({failed} of {attempted} checks)")
        for problem in problems:
            print(f"  PROBLEM {problem}", file=sys.stderr)
        ok = ok and not problems and not failed
        results[w] = {"correct": not problems and not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
    if not both:
        print(json.dumps(results[args.workload]))
        return 0
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
