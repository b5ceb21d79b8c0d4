"""Benchmark of `gbs`: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `gbs` is imported from `src/` there.  One
process, one thread, closed loop: one op at a time, the next starting when
the previous one ends.  The ops of a workload form a fixed corpus (see
`workloads.py`); a pass runs every op once, in an order drawn from the seed.

`--trace 0` runs whole passes until `--seconds` of wall time have elapsed
and reports the end-to-end metrics.  `--trace 1` does the same, running
each op once untraced and once traced, and reports the per-layer metrics
of one traced pass.  Op times are process CPU time, which on an idle core
equals wall time and on a shared one leaves out the time other processes
held the CPU.  Every op is checked against the golden answers in
`baseline.json`.  The last line of standard output is one JSON object;
`README.md` describes it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from probes import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline.json"
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile


def digest(answer: str) -> str:
    return hashlib.sha256(answer.encode()).hexdigest()[:16]


def import_seconds() -> float:
    """CPU time of a fresh `import gbs`, compiling too if no bytecode is cached.

    The modules already loaded are set aside for the timing and put back
    afterwards, so every caller keeps using the same module objects.
    """
    def loaded() -> list[str]:
        return [name for name in sys.modules if name == "gbs" or name.startswith("gbs.")]

    saved = {name: sys.modules.pop(name) for name in loaded()}
    try:
        start = process_time()
        importlib.import_module("gbs")
        return process_time() - start
    finally:
        for name in loaded():
            del sys.modules[name]
        sys.modules.update(saved)


class Tally:
    """Ops attempted and failed, checked against the golden answers."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def run(self, workload, item):
        """Run one op and check it: (CPU seconds, outcome or None if it failed)."""
        self.attempted += 1
        error = outcome = None
        start = process_time()
        try:
            outcome = workload.op(item.payload)
        except Exception:  # a failed op is counted; the run goes on
            error = traceback.format_exc()
        elapsed = process_time() - start
        if error is None and not outcome.ok:
            error = "a suite property or consistency check is false"
        elif error is None and digest(outcome.answer) != self.golden.get(item.key):
            error = "answer differs from the golden answer"
        if error is None:
            return elapsed, outcome
        self.failed += 1
        if self.failed <= 5:
            print(f"failed op {item.key}: {error}", file=sys.stderr)
        return elapsed, None


def measure_untraced(workload, items, seed: int, seconds: float, tally: Tally):
    """Whole passes until `seconds` have elapsed.

    Returns the op latencies, the CPU and wall seconds of the loop, and the
    number of passes.
    """
    rng = random.Random(seed)
    latencies: list[float] = []
    passes = 0
    start, cpu_start = perf_counter(), process_time()
    while True:
        for item in rng.sample(items, len(items)):
            latencies.append(tally.run(workload, item)[0])
        passes += 1
        wall = perf_counter() - start
        if wall >= seconds:
            return latencies, process_time() - cpu_start, wall, passes


def measure_traced(workload, items, seed: int, seconds: float, tally: Tally):
    """Whole passes until `seconds` have elapsed, each op run untraced and traced.

    The two runs of an op follow each other, in alternating order, so that
    their time ratio is the tracing overhead.  Returns the exact counts of
    one traced pass, the probe times averaged over the passes, the overhead
    ratio, the pass count, and whether every pass made the same calls.
    """
    rng = random.Random(seed)
    tracer = Tracer()
    untraced = traced = 0.0
    passes = 0
    exact = None
    steady = True
    times = {name: [0.0, 0.0] for name in tracer.stats}
    start = perf_counter()
    while True:
        tracer.reset()
        counts: dict[str, int] = {}
        for i, item in enumerate(rng.sample(items, len(items))):
            for trace_it in ((False, True) if i % 2 == 0 else (True, False)):
                if trace_it:
                    tracer.install()
                try:
                    elapsed, outcome = tally.run(workload, item)
                finally:
                    if trace_it:
                        tracer.uninstall()
                if not trace_it:
                    untraced += elapsed
                    continue
                traced += elapsed
                for name, value in (outcome.counts if outcome else {}).items():
                    counts[name] = counts.get(name, 0) + value
        passes += 1
        calls = {name: row[0] for name, row in tracer.stats.items()}
        steady = steady and exact in (None, (calls, counts))
        exact = (calls, counts)
        for name, row in tracer.stats.items():
            times[name][0] += row[1]
            times[name][1] += row[2]
        if perf_counter() - start >= seconds:
            break
    times = {name: (incl / passes, own / passes) for name, (incl, own) in times.items()}
    return calls, counts, times, traced / untraced, passes, steady, tracer.missing


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(part: int, base: int) -> float:
    return part / base if base else 0.0


def layer_metrics(calls: dict, counts: dict, times: dict, overhead: float,
                  ops: int) -> dict:
    """Every per-layer metric of one traced pass."""
    out = {}
    for name, n in calls.items():
        incl, own = times[name]
        out[f"{name}.calls"] = _metric(n, "count")
        out[f"{name}.incl_s"] = _metric(incl, "s")
        out[f"{name}.self_s"] = _metric(own, "s")
    audited = counts.get("audited_maps", 0)
    witnesses = counts.get("witnesses_found", 0)
    out.update({
        "covering.size_limit_refusals": _metric(counts.get("size_limit_refusals", 0), "count"),
        "covering.cover_source_vertices": _metric(counts.get("cover_source_vertices", 0),
                                                  "count"),
        "bench.ops": _metric(ops, "count"),
        "bench.audited_maps": _metric(audited, "count"),
        "bench.witnesses_found": _metric(witnesses, "count"),
        "waste.verify_admissible_per_op": _metric(
            _ratio(calls["covering.verify_admissible"], ops), "calls/op"),
        "waste.label_primes_per_op": _metric(
            _ratio(calls["plateau.label_primes"], ops), "calls/op"),
        "waste.minimal_plateaux_per_audited_map": _metric(
            _ratio(calls["analysis.minimal_plateaux"], audited), "calls/map"),
        "waste.find_isomorphism_per_witness": _metric(
            _ratio(calls["isomorphism.find_isomorphism"], witnesses), "calls/witness"),
        "waste.voltage_cover_per_op": _metric(
            _ratio(calls["covering.voltage_cover"], ops), "calls/op"),
        "trace.overhead_ratio": _metric(overhead, "ratio"),
    })
    return out


def percentile_line(name: str, value_ms: float, samples: int) -> str:
    note = f"n={samples}"
    if name == "latency_p90_ms" and samples < P90_MIN_SAMPLES:
        note += f", under {P90_MIN_SAMPLES}: fewer than ten samples lie beyond it"
    return f"{name}={value_ms:.3f} ms ({note})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gbs" / "__init__.py").is_file():
        print(f"perfbench: no gbs sources at {SRC / 'gbs'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, input_sizes

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = json.loads(BASELINE.read_text())["workloads"][workload.name]

    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = process_time()
        items = workload.build()
        builds.append(process_time() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    sizes = input_sizes(items)
    inputs_ok = sizes == record["inputs"]
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"inputs={json.dumps(sizes)}")
    if not inputs_ok:
        print(f"inputs differ from the recorded {json.dumps(record['inputs'])}",
              file=sys.stderr)

    tally = Tally(record["golden"])
    if args.trace == 0:
        latencies, elapsed, wall, passes = measure_untraced(workload, items, args.seed,
                                                            args.seconds, tally)
        steady = True
        p50 = statistics.median(latencies) * 1e3
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
        metrics = {
            "ops_per_s": _metric(len(latencies) / elapsed, "1/s"),
            "latency_p50_ms": _metric(p50, "ms"),
            "latency_p90_ms": _metric(p90, "ms"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"ops_per_s={metrics['ops_per_s']['value']:.3f} 1/s "
              f"({len(latencies)} ops in {elapsed:.3f} CPU s; {wall:.3f} s wall, "
              f"{passes} passes)")
        print(percentile_line("latency_p50_ms", p50, len(latencies)))
        print(percentile_line("latency_p90_ms", p90, len(latencies)))
        print(f"setup_s={setup_s:.4f} s (median import {statistics.median(imports):.4f} s"
              f" + median input build {statistics.median(builds):.4f} s, "
              f"{SETUP_REPEATS} each)")
        print(f"peak_rss_mb={metrics['peak_rss_mb']['value']:.1f} MB")
    else:
        calls, counts, times, overhead, passes, steady, missing = measure_traced(
            workload, items, args.seed, args.seconds, tally)
        metrics = layer_metrics(calls, counts, times, overhead, len(items))
        print(f"traced passes={passes} overhead_ratio={overhead:.3f}")
        for name, m in metrics.items():
            print(f"{name}={m['value']} {m['unit']}")
        if missing:
            print(f"probes with no function to wrap: {missing}", file=sys.stderr)
        if not steady:
            print("traced passes disagree on an exact count", file=sys.stderr)
    print(f"error_rate={_ratio(tally.failed, tally.attempted)} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    print(json.dumps({"correct": inputs_ok and steady and tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
