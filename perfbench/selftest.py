"""Self-test of the probes: each must fire on the workloads that exercise it.

    python3 perfbench/selftest.py

Runs one traced pass over a small slice of each workload's corpus and
checks the probe call counts against the table below: a probe listed as
active must record calls, one listed as idle must record none.  A probe
installed only where its function is defined, and not where other modules
imported it, reads zero here and fails the test.  Exit status 1 on any
miss.  Takes about fifteen seconds.
"""

from __future__ import annotations

import json
import sys

from run import BASELINE, SRC, Tally, measure_traced

PLATEAU = ("primes.is_prime", "plateau.label_primes", "plateau.plateaux_for_prime",
           "graph.LabelledGraph.components")
ACTIVE = {
    "plateau-free-cover": PLATEAU + (
        "plateau.all_plateaux", "plateau.minimum_hitting_set",
        "covering.plateau_free_cover", "covering.verify_admissible", "covering.compose"),
    "map-suites": PLATEAU + (
        "plateau.all_plateaux", "plateau.minimum_hitting_set",
        "covering.verify_admissible", "covering.compose", "covering.voltage_cover",
        "covering.branched_cover", "analysis.check_inequalities", "analysis.classify",
        "analysis.minimal_plateaux", "generate.generate_admissible_map"),
    "rank-query": PLATEAU + (
        "plateau.all_plateaux", "plateau.minimum_hitting_set", "io.parse_graph"),
    "witness": PLATEAU + (
        "covering.voltage_cover", "covering.verify_admissible",
        "coloring.stable_colorings", "isomorphism.find_isomorphism",
        "decide.commensurable"),
}
OWNED = {  # probes that must stay idle outside the one workload named
    "covering.plateau_free_cover": "plateau-free-cover",
    "isomorphism.find_isomorphism": "witness",
    "coloring.stable_colorings": "witness",
    "decide.commensurable": "witness",
    "analysis.check_inequalities": "map-suites",
    "analysis.classify": "map-suites",
    "analysis.minimal_plateaux": "map-suites",
    "generate.generate_admissible_map": "map-suites",
    "io.parse_graph": "rank-query",
}
SLICES = {"plateau-free-cover": 20, "map-suites": 40, "rank-query": 10, "witness": 1}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    baseline = json.loads(BASELINE.read_text())["workloads"]
    misses = []
    for name, workload in WORKLOADS.items():
        items = workload.build()[:SLICES[name]]
        tally = Tally(baseline[name]["golden"])
        calls, *_, missing = measure_traced(workload, items, 1, 0.0, tally)
        misses += [f"{name}: no function to wrap for {probe}" for probe in missing]
        misses += [f"{name}: {tally.failed} of {tally.attempted} ops failed"] * bool(tally.failed)
        for probe, n in calls.items():
            if probe in ACTIVE[name] and n == 0:
                misses.append(f"{name}: {probe} recorded no calls")
            if OWNED.get(probe, name) != name and n != 0:
                misses.append(f"{name}: {probe} recorded {n} calls, expected none")
        print(f"{name}: " + " ".join(f"{probe}={n}" for probe, n in calls.items() if n))
    for miss in misses:
        print(f"MISS {miss}", file=sys.stderr)
    print("selftest " + ("failed" if misses else "passed"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
