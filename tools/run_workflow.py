"""Run every `run:` step of the tier-1 workflow, in order, on this machine.

Usage: python3 tools/run_workflow.py

The tree is copied to a temporary directory first, so steps that write
files (err.log, module files, perfbench.log) leave the checkout clean.
Each step runs as GitHub Actions runs it on Linux: a step with
`shell: bash` under `bash --noprofile --norc -eo pipefail`, any other under
`bash -e`.  `uses:` steps and the Install step (it needs the network) are
skipped; PYTHONPATH is cleared, as on a fresh runner, so the steps import
the copy's src.  One line per step gives its verdict, exit code and wall time;
the script exits 1 if any step fails.  Needs PyYAML.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {"Install": "needs the network"}
SHELLS = {"bash": ["bash", "--noprofile", "--norc", "-eo", "pipefail"], None: ["bash", "-e"]}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")


def main():
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        jobs = yaml.safe_load(fh)["jobs"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    failed = ran = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for job in jobs.values():
            for n, step in enumerate(job["steps"], 1):
                name = step.get("name", step.get("uses", ""))
                if "run" not in step or name in SKIP:
                    print(f"skip  {n:2d}      -        {name}: {SKIP.get(name, 'not a run step')}", flush=True)
                    continue
                with open(os.path.join(tmp, "step.sh"), "w") as fh:
                    fh.write(step["run"])
                start = time.monotonic()
                res = subprocess.run([*SHELLS[step.get("shell")], fh.name], cwd=tree, env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
                ran += 1
                failed += res.returncode != 0
                verdict = "PASS" if res.returncode == 0 else "FAIL"
                print(f"{verdict}  {n:2d}  exit {res.returncode:3d}  {time.monotonic() - start:6.1f}s  {name}", flush=True)
                if res.returncode:
                    print("".join(f"      | {line}\n" for line in res.stdout.splitlines()[-20:]), end="")
    print(f"{ran - failed} of {ran} run steps passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
