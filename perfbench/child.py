"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: python3 perfbench/child.py ROOT WORKLOAD SEED PASS TRACE SPANS_PATH

Set-up (interpreter start, importing numpy and koszulkit, the first
``linalg.rank`` call) ends with a ``ready`` line on stdout, which the parent
times.  The pass then runs its jobs through the public entry points and
prints one JSON result line.  While the jobs run, a reference.Gauge times
the reference kernel every REF_EVERY_S, and REF_AT_ENDS times before the
first job and after the last; every time the pass records is read from the
gauge's clock, which leaves those samples out.  Times are seconds from the
start of the first job.  With TRACE=1 the layer spans are installed first
and written to SPANS_PATH at exit.
"""

import hashlib
import importlib.util
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REF_AT_ENDS = 3


def setup(root: str):
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import numpy as np

    import koszulkit.cli  # noqa: F401  (every CLI user pays these imports)
    import koszulkit.sl2  # noqa: F401
    from koszulkit.linalg import rank

    rank(np.eye(4, dtype=np.int64), 3)
    print("ready", flush=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process since it was exec'd.

    ru_maxrss is not used: Linux carries the spawning parent's peak over
    exec into it, so it would report the harness's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_verify_job(suites, job, marks, clock):
    """Run one suite; return (report bytes, [(trial, start, end, checks, failed)])."""
    cfg = suites.Config(e=job["e"], f=job["f"], p=job["p"], trials=job["trials"], seed=job["seed"])
    marks.clear()
    report = suites.run_verify(job["suite"], cfg)
    marks.append(clock())
    results = report["sections"][0]["results"]
    instances = []
    for t in range(job["trials"]):
        mine = [r for r in results if r["trial"] == t]
        failed = sum(r["verdict"] != "pass" for r in mine)
        instances.append((t, marks[t], marks[t + 1], len(mine), failed))
    return suites.report_to_json(report).encode(), instances


def run_sl2_job(sl2, job, clock):
    # Serialized here rather than through suites.report_to_json, so that
    # sl2-blocks stays clear of the suites layer.
    start = clock()
    rep = sl2.block_report(job["p"], job["lambda"])
    end = clock()
    verdicts = rep["verdicts"].values()
    data = json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"
    return data.encode(), [(0, start, end, len(verdicts), sum(not v for v in verdicts))]


def main():
    _, root, workload, seed, k, trace, spans_path = sys.argv
    setup(root)

    import numpy as np

    from koszulkit import sl2, suites
    from reference import Gauge
    from tracer import Tracer, install
    from workloads import expected_checks, job_key, pass_jobs

    jobs = pass_jobs(workload, int(seed), int(k))
    gauge = Gauge()
    clock = gauge.clock
    tracer = Tracer(clock)
    if trace == "1":
        install(tracer)

    # Trial boundaries: every suite draws its trial's stream first.
    marks = []
    stream = suites.stream

    def marked_stream(seed_, trial):
        marks.append(clock())
        tracer.instance += 1
        return stream(seed_, trial)

    suites.stream = marked_stream

    reports, instance_spans, job_spans, checks, failed, errors = [], {}, {}, 0, 0, 0
    for _ in range(REF_AT_ENDS):
        gauge.tick()
    t0 = clock()
    gauge.start()
    try:
        for job in jobs:
            key = job_key(job)
            start = clock()
            try:
                if job["kind"] == "verify":
                    data, instances = run_verify_job(suites, job, marks, clock)
                else:
                    tracer.instance += 1
                    data, instances = run_sl2_job(sl2, job, clock)
            except Exception:  # one broken instance must not end the pass
                traceback.print_exc()
                errors += 1
                n = expected_checks(job)
                checks += n
                failed += n
                reports.append((key, b"error\n"))
                continue
            job_spans[key] = (start - t0, clock() - t0)
            reports.append((key, data))
            for t, i0, i1, n, bad in instances:
                instance_spans[f"{key}:{t}"] = (i0 - t0, i1 - t0)
                checks += n
                failed += bad
        wall = clock() - t0
    finally:
        gauge.stop()
    for _ in range(REF_AT_ENDS):
        gauge.tick()

    reports.sort()
    digest = hashlib.sha256(b"".join(data for _, data in reports)).hexdigest()
    if trace == "1":
        tracer.dump(spans_path)
    print(
        json.dumps(
            {
                "wall_s": wall,
                "rss_mb": peak_rss_mb(),
                "ref": [(t - t0, ms) for t, ms in gauge.samples],
                "instances": instance_spans,
                "jobs": job_spans,
                "checks": checks,
                "failed": failed,
                "errors": errors,
                "digest": digest,
                "numpy": np.__version__,
                "numba": importlib.util.find_spec("numba") is not None,
            }
        )
    )


if __name__ == "__main__":
    main()
