"""Record the golden report digest of every workload.

    python3 perfbench/make_golden.py

Runs two untraced passes of each workload, in two job orders, checks that
they agree and pass every check, and writes perfbench/golden.json.
Regenerate only on a commit whose reports are known to be right: the
benchmark fails every check of a pass whose report bytes differ.
"""

import json
import os
import sys

from run import HERE, OUT, run_pass
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    os.makedirs(OUT, exist_ok=True)
    golden = {}
    for w in WORKLOADS:
        passes = [run_pass(w, DEFAULT_SEED, k, False, None) for k in range(2)]
        if any(p["failed"] or p["errors"] for p in passes) or passes[0]["digest"] != passes[1]["digest"]:
            sys.exit(f"error: {w} fails checks or is not deterministic; no digests written")
        golden[w] = passes[0]["digest"]
        print(w, golden[w], flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
