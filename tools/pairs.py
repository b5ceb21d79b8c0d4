"""Alternating base/change pairs of the benchmark, on one workload and seed.

    python3 tools/pairs.py --workload rank-query --seed 1 --seconds 12 --pairs 10 [--base REV]

Run from anywhere inside a checkout.  The base is the commit REV (HEAD by
default), exported with `git archive` into a temporary directory; the change
is the working tree.  Each side runs its own, unchanged `perfbench/run.py`
with `--trace 0`.  Pair i runs the base first when i is even and the change
first when it is odd, so that drift in the machine's speed falls on both
sides alike.

For each end-to-end metric of `BENCHMARK.json` it prints the median and the
quartiles of each side, the ratio of the medians, and in how many pairs the
change was better, and counts the runs whose answers were not all correct.
It exits 1 if any run was not correct.
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


def run(tree: Path, args) -> dict:
    """One benchmark run in `tree`: the JSON object of its last output line."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    if (ROOT / "src" / "gbs" / "__pycache__").exists():
        print("pairs: the working tree holds src/gbs/__pycache__; setup_s and "
              "peak_rss_mb of the change read it", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tmp:
        base = Path(tmp)
        export(args.base, base)
        sides = {"base": base, "change": ROOT}
        results: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                results[side].append(run(sides[side], args))
            values = {side: results[side][-1]["metrics"]["ops_per_s"]["value"]
                      for side in results}
            print(f"pair {i + 1}: ops_per_s base {values['base']:.4g} "
                  f"change {values['change']:.4g}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g}-s "
          f"runs; base {args.base} against the working tree")
    print("metric: base median [q1, q3] | change median [q1, q3] | change/base | "
          "change better")
    for name, direction in better.items():
        series = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        wins = sum((c > b) if direction == "higher" else (c < b)
                   for b, c in zip(series["base"], series["change"]))
        ratio = statistics.median(series["change"]) / statistics.median(series["base"])
        print(f"{name}: {spread(series['base'])} | {spread(series['change'])} | "
              f"{ratio:.3f} | {wins} of {args.pairs}")
    wrong = {side: sum(not r["correct"] for r in runs) for side, runs in results.items()}
    print(f"runs not correct: base {wrong['base']}, change {wrong['change']}")
    return 1 if any(wrong.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
