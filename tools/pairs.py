"""Alternating base/change pairs of the benchmark, on one or more workloads and a seed.

    python3 tools/pairs.py --workload rank-query [--workload witness ...] --seed 1 \
        --seconds 12 --pairs 10 [--base REV]

Run from anywhere inside a checkout.  The base is the commit REV (HEAD by
default), exported with `git archive` into a temporary directory; the change
is the working tree.  Each side runs its own, unchanged `perfbench/run.py`
with `--trace 0`.  Pair i runs the base first when i is even and the change
first when it is odd, so that drift in the machine's speed falls on both
sides alike.  The workloads run one after the other, each with its own pairs.

For each workload and each end-to-end metric of `BENCHMARK.json` it prints
the median and the quartiles of each side, the ratio of the medians, and in
how many pairs the change was better, and counts the runs whose answers were
not all correct.  A metric whose change/base median ratio is worse than the
metric's `bound` in `BENCHMARK.json` (below 1 - bound for a metric where
higher is better, above 1 + bound where lower is) is marked WORSE.  It exits
1 if any run was not correct or any metric is marked.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> None:
    """The tracked files of `rev`, without any build output, under `into`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run(tree: Path, workload: str, args) -> dict:
    """One benchmark run in `tree`: the JSON object of its last output line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    # neither side writes bytecode, so neither reads a cache the other lacks
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"pairs: {' '.join(command)} in {tree} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def worse(ratio: float, metric: dict) -> bool:
    """Is a change/base median ratio past the metric's bound, in its bad direction?"""
    if metric["better"] == "higher":
        return ratio < 1 - metric["bound"]
    return ratio > 1 + metric["bound"]


def pairs(base: Path, workload: str, args) -> dict[str, list[dict]]:
    """The runs of each side over the alternating pairs of one workload."""
    sides = {"base": base, "change": ROOT}
    results: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            results[side].append(run(sides[side], workload, args))
        values = {side: results[side][-1]["metrics"]["ops_per_s"]["value"] for side in results}
        print(f"{workload} pair {i + 1}: ops_per_s base {values['base']:.4g} "
              f"change {values['change']:.4g}", flush=True)
    return results


def report(workload: str, results: dict[str, list[dict]], metrics: list[dict], args) -> bool:
    """Print one workload's summary; True if a run was not correct or a metric is worse."""
    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g}-s "
          f"runs; base {args.base} against the working tree")
    print("metric: base median [q1, q3] | change median [q1, q3] | change/base | "
          "change better")
    marked = False
    for metric in metrics:
        name = metric["name"]
        series = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        wins = sum((c > b) if metric["better"] == "higher" else (c < b)
                   for b, c in zip(series["base"], series["change"]))
        ratio = statistics.median(series["change"]) / statistics.median(series["base"])
        flag = f" | WORSE than its bound {metric['bound']:g}" if worse(ratio, metric) else ""
        marked |= bool(flag)
        print(f"{name}: {spread(series['base'])} | {spread(series['change'])} | "
              f"{ratio:.3f} | {wins} of {args.pairs}{flag}")
    wrong = {side: sum(not r["correct"] for r in runs) for side, runs in results.items()}
    print(f"runs not correct: base {wrong['base']}, change {wrong['change']}")
    return marked or any(wrong.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; give it again for more")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if (ROOT / "src" / "gbs" / "__pycache__").exists():
        print("pairs: the working tree holds src/gbs/__pycache__; setup_s and "
              "peak_rss_mb of the change read it", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tmp:
        export(args.base, Path(tmp))
        results = {workload: pairs(Path(tmp), workload, args) for workload in args.workload}
    failed = [workload for workload in args.workload
              if report(workload, results[workload], metrics, args)]
    if failed:
        print(f"\nnot correct or worse than a bound: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
