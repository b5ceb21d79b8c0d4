"""Record `baseline.json`: golden answers and the run record of each workload.

    python3 perfbench/record.py

Run once, from the root of a git checkout, at the commit whose answers are
golden.  Each op of each corpus runs once; its answer digest, the input
sizes and generator bounds of the workload, and the machine (nproc, Python
version, git SHA of the measured code) are written out.  Recording stops
if an op fails a suite property, since such an answer cannot be golden.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from time import perf_counter

from run import BASELINE, ROOT, SRC, digest


def git_sha() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def record_workload(workload) -> dict:
    from workloads import input_sizes

    items = workload.build()
    golden = {}
    start = perf_counter()
    for item in items:
        outcome = workload.op(item.payload)
        if not outcome.ok:
            raise SystemExit(f"{workload.name} op {item.key} fails a suite property; "
                             "not recording it as golden")
        golden[item.key] = digest(outcome.answer)
    elapsed = perf_counter() - start
    print(f"{workload.name}: {len(items)} ops in {elapsed:.2f} s", file=sys.stderr)
    return {"generator": workload.generator,
            "inputs": input_sizes(items), "pass_seconds_at_record": round(elapsed, 2),
            "golden": golden}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    baseline = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "git_sha": git_sha()},
        "workloads": {name: record_workload(w) for name, w in WORKLOADS.items()},
    }
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
