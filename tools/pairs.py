"""Alternating base/change pairs of the benchmark, on one or more workloads and a seed.

    python3 tools/pairs.py --workload rank-query [--workload witness ...] --seed 1 \
        --seconds 12 --pairs 10 [--base REV]
    python3 tools/pairs.py --workload map-suites --seed 1 --passes 5 --pairs 10 [--base REV]
    python3 tools/pairs.py --imports 20 [--base REV]

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
higher is better, above 1 + bound where lower is) is marked WORSE.  A metric
whose base runs spread wider than its bound (interquartile distance over the
median) is marked UNRESOLVED, unless every change run is better than every
base run: such runs cannot show that the metric did not move.  It exits 1 if
any run was not correct or any metric is marked WORSE.  It also prints the two
parts of each side's `setup_s`, the import and the input build, as run.py
reports them.

With `--passes K` each side instead runs, in one fresh process per pair, K
passes over the workload's ops through that tree's own `perfbench/workloads.py`,
each pass in an order drawn from the seed as `perfbench/run.py` draws it.  It
prints the least CPU seconds of a pass of each side (median and quartiles over
the pairs), their ratio and the pairs the change won, and exits 1 if any op
answered differently on the two sides.  No golden answers are read.

With `--imports N` (no workload needed) each side instead runs N fresh
processes, alternating as above, that each time one fresh `import gbs` from
the tree's `src` with that tree's run.py `import_seconds` (CPU seconds, with
the modules it needs already loaded, as in run.py's setup), writing and
reading no bytecode.  It prints each side's median and quartiles, the
ratio of the medians, the pairs the change won and each side's line count of
`src/gbs`, the source that such an import compiles.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
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


def output(command: list[str], tree: Path, label: str) -> list[str]:
    """Run `command`, called `label` in an error, in `tree`: its output lines."""
    # neither side writes bytecode, so neither reads a cache the other lacks
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"pairs: {label} in {tree} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return done.stdout.strip().splitlines()


def last_json(command: list[str], tree: Path, label: str) -> dict:
    """The JSON object of the last output line of `command`."""
    return json.loads(output(command, tree, label)[-1])


# run.py's line "setup_s=S s (median import I s + median input build B s, ...)"
SETUP_LINE = re.compile(r"setup_s=\S+ s \(median import (\S+) s \+ median input build (\S+) s")


def setup_parts(lines: list[str]) -> dict[str, float] | None:
    """The import and input-build seconds of run.py's setup_s line, if it printed one."""
    found = next(filter(None, map(SETUP_LINE.match, lines)), None)
    return found and {"import": float(found[1]), "build": float(found[2])}


def run(tree: Path, workload: str, args) -> dict:
    """One benchmark run in `tree`: run.py's JSON object, with its setup parts."""
    command = ["perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    lines = output([sys.executable, *command], tree, " ".join(command))
    return {**json.loads(lines[-1]), "setup_parts": setup_parts(lines)}


# one side's process in passes mode: argv is workload, seed, passes; prints one JSON
# object of the CPU seconds of each pass and the digest of each op's answer
PASSES = """
import hashlib, json, random, sys
from time import process_time
sys.path[:0] = ["src", "perfbench"]
from workloads import WORKLOADS
workload, rng = WORKLOADS[sys.argv[1]], random.Random(int(sys.argv[2]))
items, seconds, answers = workload.build(), [], {}
for _ in range(int(sys.argv[3])):
    start = process_time()
    for item in rng.sample(items, len(items)):
        answers.setdefault(item.key, set()).add(workload.op(item.payload).answer)
    seconds.append(process_time() - start)
digests = {key: sorted(hashlib.sha256(a.encode()).hexdigest()[:16] for a in found)
           for key, found in answers.items()}
print(json.dumps({"seconds": seconds, "answers": digests}))
"""


def run_passes(tree: Path, workload: str, args) -> dict:
    """One passes-mode process in `tree`."""
    return last_json([sys.executable, "-c", PASSES, workload, str(args.seed),
                      str(args.passes)], tree, f"the {workload} passes")


# one side's process in imports mode: the CPU seconds of a fresh `import gbs`, by the
# tree's own run.py after a first import, as its setup loads the workloads first
IMPORT = """
import sys
sys.path[:0] = ["src", "perfbench"]
import gbs
from run import import_seconds
print(import_seconds())
"""


def run_import(tree: Path) -> float:
    """One imports-mode process in `tree`."""
    return float(output([sys.executable, "-c", IMPORT], tree, "import gbs")[-1])


def source_lines(tree: Path) -> int:
    """Lines of the Python files of `src/gbs` in `tree`."""
    return sum(len(path.read_text().splitlines())
               for path in (tree / "src" / "gbs").glob("*.py"))


def imports_report(seconds: dict[str, list[float]], lines: dict[str, int], base: str) -> None:
    """Print the imports summary of each side's seconds and source lines."""
    summary = pass_summary(seconds["base"], seconds["change"])
    print(f"\nimport gbs, {summary['pairs']} pairs of fresh processes; base {base} "
          f"against the working tree")
    print("CPU s per import: base median [q1, q3] | change median [q1, q3] | "
          "change/base | change quicker")
    print(" | ".join(f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                     for q in (summary["base"], summary["change"]))
          + f" | {summary['ratio']:.3f} | {summary['wins']} of {summary['pairs']}")
    print(f"src/gbs lines: base {lines['base']} | change {lines['change']} "
          f"({lines['change'] - lines['base']:+d})")


def differing_answers(runs: list[dict]) -> list[str]:
    """The ops, by key, whose answer digests are not the same in every run."""
    keys = sorted(set().union(*(run["answers"] for run in runs)))
    return [key for key in keys if len({tuple(run["answers"].get(key, ())) for run in runs}) > 1]


def pass_summary(base: list[float], change: list[float]) -> dict:
    """Medians and quartiles of each side's seconds (least pass or import), one per
    pair; the change/base ratio of the medians; the pairs the change was quicker in."""
    return {"base": statistics.quantiles(base, n=4, method="inclusive"),
            "change": statistics.quantiles(change, n=4, method="inclusive"),
            "ratio": statistics.median(change) / statistics.median(base),
            "wins": sum(c < b for b, c in zip(base, change)), "pairs": len(base)}


def passes_report(workload: str, results: dict[str, list[dict]], args) -> bool:
    """Print one workload's passes summary; True if the two sides answered differently."""
    least = {side: [min(run["seconds"]) for run in runs] for side, runs in results.items()}
    summary = pass_summary(least["base"], least["change"])
    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of {args.passes} passes; "
          f"base {args.base} against the working tree")
    print("least CPU s per pass: base median [q1, q3] | change median [q1, q3] | "
          "change/base | change quicker")
    print(" | ".join(f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                     for q in (summary["base"], summary["change"]))
          + f" | {summary['ratio']:.3f} | {summary['wins']} of {summary['pairs']}")
    differ = differing_answers(results["base"] + results["change"])
    print(f"ops answered differently: {len(differ)}" + (f" ({', '.join(differ[:5])})"
                                                        if differ else ""))
    return bool(differ)


def spread(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def worse(ratio: float, metric: dict) -> bool:
    """Is a change/base median ratio past the metric's bound, in its bad direction?"""
    if metric["better"] == "higher":
        return ratio < 1 - metric["bound"]
    return ratio > 1 + metric["bound"]


def marks(base: list[float], change: list[float], metric: dict) -> list[str]:
    """WORSE when the change/base median ratio is past the metric's bound;
    UNRESOLVED when the base's interquartile distance over its median exceeds
    the bound, unless every change run is better than every base run."""
    found = []
    if worse(statistics.median(change) / statistics.median(base), metric):
        found.append(f"WORSE than its bound {metric['bound']:g}")
    q1, median, q3 = statistics.quantiles(base, n=4, method="inclusive")
    apart = (min(change) > max(base) if metric["better"] == "higher"
             else max(change) < min(base))
    if (q3 - q1) / median > metric["bound"] and not apart:
        found.append(f"UNRESOLVED: base spread {(q3 - q1) / median:.3f} exceeds "
                     f"its bound {metric['bound']:g}")
    return found


def sides_in_order(i: int) -> tuple[str, str]:
    """Pair i runs the base first when i is even and the change first when it is odd."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def pairs(base: Path, workload: str, args) -> dict[str, list[dict]]:
    """The runs of each side over the alternating pairs of one workload."""
    sides = {"base": base, "change": ROOT}
    results: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in sides_in_order(i):
            results[side].append((run_passes if args.passes else run)(sides[side], workload, args))
        if args.passes:
            values = {side: f"{min(results[side][-1]['seconds']):.4g} s" for side in results}
        else:
            values = {side: f"{results[side][-1]['metrics']['ops_per_s']['value']:.4g}"
                      for side in results}
        print(f"{workload} pair {i + 1}: {'least pass' if args.passes else 'ops_per_s'} "
              f"base {values['base']} change {values['change']}", flush=True)
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
        found = marks(series["base"], series["change"], metric)
        marked |= any(mark.startswith("WORSE") for mark in found)
        print(f"{name}: {spread(series['base'])} | {spread(series['change'])} | "
              f"{ratio:.3f} | {wins} of {args.pairs}" + "".join(f" | {m}" for m in found))
    for part in ("import", "build"):
        sides = {side: [r["setup_parts"][part] for r in runs if r.get("setup_parts")]
                 for side, runs in results.items()}
        if all(sides.values()):
            print(f"setup_s {part} part: base {spread(sides['base'])} | "
                  f"change {spread(sides['change'])}")
    wrong = {side: sum(not r["correct"] for r in runs) for side, runs in results.items()}
    print(f"runs not correct: base {wrong['base']}, change {wrong['change']}")
    return marked or any(wrong.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json; give it again for more")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--passes", type=int, default=None,
                        help="time K in-process corpus passes per side instead of run.py")
    parser.add_argument("--imports", type=int, default=None,
                        help="time N fresh `import gbs` processes per side instead")
    args = parser.parse_args(argv)
    if args.imports is not None:
        if args.imports < 2:
            parser.error("--imports must be at least 2")
    elif not args.workload or args.seed is None:
        parser.error("--workload and --seed are required without --imports")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if (ROOT / "src" / "gbs" / "__pycache__").exists():
        print("pairs: the working tree holds src/gbs/__pycache__; setup_s and "
              "peak_rss_mb of the change read it", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tmp:
        export(args.base, Path(tmp))
        if args.imports:
            sides = {"base": Path(tmp), "change": ROOT}
            seconds: dict[str, list[float]] = {"base": [], "change": []}
            for i in range(args.imports):
                for side in sides_in_order(i):
                    seconds[side].append(run_import(sides[side]))
            imports_report(seconds, {side: source_lines(tree) for side, tree in sides.items()},
                           args.base)
            return 0
        results = {workload: pairs(Path(tmp), workload, args) for workload in args.workload}
    if args.passes:
        failed = [workload for workload in args.workload
                  if passes_report(workload, results[workload], args)]
    else:
        failed = [workload for workload in args.workload
                  if report(workload, results[workload], metrics, args)]
    if failed:
        print(f"\n{'answers differ' if args.passes else 'not correct or worse than a bound'}: "
              f"{', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
