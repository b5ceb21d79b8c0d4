"""Seed-driven property suites over generated admissible maps.

Each suite checks one family of guaranteed facts on a corpus of generated
instances and reports one line per property per instance.  A failure means
a bug in this package, never bad luck with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import check_inequalities
from .covering import (AdmissibleMap, covering_characterizations, plateau_free_cover,
                       verify_admissible)
from .errors import InputError
from .generate import GeneratorConfig, generate_admissible_map, generate_graph
from .graph import LabelledGraph
from .plateau import has_proper_plateau, mu, rank

RECIPES: tuple[tuple[str, ...], ...] = (
    ("voltage:2",),
    ("branched",),
    ("voltage:3",),
    ("branched", "voltage:2"),
    ("voltage:2", "branched"),
    ("branched", "branched"),
)


def _map_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                           max_label_magnitude=18,
                           map_recipe=RECIPES[seed % len(RECIPES)])


@dataclass(frozen=True)
class SuiteReport:
    name: str
    instances: int
    failures: int
    lines: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def render(self) -> str:
        body = "\n".join(self.lines)
        summary = f"suite={self.name} instances={self.instances} failures={self.failures}"
        return f"{body}\n{summary}" if body else summary


class _Collector:
    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.failures = 0
        self.instances = 0

    def record(self, tag: str, prop: str, passed: bool) -> None:
        self.lines.append(f"suite={self.name} instance={tag} property={prop} "
                          f"pass={str(passed).lower()}")
        if not passed:
            self.failures += 1

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, self.instances, self.failures,
                           tuple(self.lines))


def _rank_monotonicity(out: _Collector, tag: str, m: AdmissibleMap) -> None:
    out.record(tag, "admissible", bool(verify_admissible(m)))
    src, tgt = m.source, m.target
    out.record(tag, "rank-monotonicity", rank(src) >= rank(tgt))
    out.record(tag, "betti-monotonicity", src.betti() >= tgt.betti())
    lhs = 2 * tgt.betti() + len(tgt.terminal_vertices())
    rhs = 2 * src.betti() + len(src.terminal_vertices())
    out.record(tag, "betti-terminal-half", lhs <= rhs)
    total = m.total_multiplicity()
    conserved = all(sum(m.edge_multiplicity[name] for name in m.edge_preimages[rec.name]) == total
                    for rec in tgt.edges)
    out.record(tag, "edge-multiplicity-conservation", conserved)


def suite_rank_monotonicity(count: int, base_seed: int) -> SuiteReport:
    out = _Collector("rank-monotonicity")
    for i in range(count):
        seed = base_seed + i
        m = generate_admissible_map(_map_config(seed))
        out.instances += 1
        _rank_monotonicity(out, str(seed), m)
    return out.report()


def suite_covering_equivalence(count: int, base_seed: int) -> SuiteReport:
    out = _Collector("covering-equivalence")
    for i in range(count):
        seed = base_seed + i
        m = generate_admissible_map(_map_config(seed))
        out.instances += 1
        chars = covering_characterizations(m)
        out.record(str(seed), "characterizations-agree", len(set(chars.values())) == 1)
    return out.report()


def suite_audit(count: int, base_seed: int) -> SuiteReport:
    out = _Collector("audit")
    for tag, m in exceptional_fixture_maps():
        out.instances += 1
        out.record(tag, "inequalities", check_inequalities(m).ok)
    for i in range(count):
        seed = base_seed + i
        m = generate_admissible_map(_map_config(seed))
        out.instances += 1
        out.record(str(seed), "inequalities", check_inequalities(m).ok)
    return out.report()


_COVER_SIZE_LIMIT = 1500


def suite_plateau_free(count: int, base_seed: int) -> SuiteReport:
    """Random graphs with labels up to 60, skipping candidates whose cover
    would exceed the desk-scale vertex limit (many distinct label primes
    multiply the cover size beyond reach; correctness is unaffected)."""
    out = _Collector("plateau-free-cover")
    seed = base_seed - 1
    while out.instances < count:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                              max_label_magnitude=60)
        g = generate_graph(cfg)
        try:
            m = plateau_free_cover(g, size_limit=_COVER_SIZE_LIMIT)
        except InputError:
            continue
        out.instances += 1
        tag = str(seed)
        out.record(tag, "admissible", bool(verify_admissible(m)))
        out.record(tag, "connected-source", m.source.is_connected())
        out.record(tag, "plateau-free-source", not has_proper_plateau(m.source))
        out.record(tag, "mu-monotonicity", m.source.betti() + mu(m.source)
                   >= g.betti() + mu(g))
    return out.report()


SUITES = {
    "rank-monotonicity": suite_rank_monotonicity,
    "covering-equivalence": suite_covering_equivalence,
    "audit": suite_audit,
    "plateau-free-cover": suite_plateau_free,
}


def run_suite(name: str, count: int = 1000, base_seed: int = 1) -> SuiteReport:
    if count < 0:
        raise InputError(f"count must be a nonnegative integer, not {count}")
    try:
        runner = SUITES[name]
    except KeyError:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)}") from None
    return runner(count, base_seed)


# -- handcrafted exceptional maps ---------------------------------------------


def _segment_target() -> LabelledGraph:
    return LabelledGraph.build(["u", "w"], [("s", "u", "w", 2, 2)])


def accordion_fixture(size: int) -> AdmissibleMap:
    """Circle wrapped 2*size times over a segment labelled (2, 2)."""
    target = _segment_target()
    vertices = []
    for i in range(1, size + 1):
        vertices += [f"x{i}", f"y{i}"]
    records = []
    emap = {}
    for i in range(1, size + 1):
        up = f"a{i}"
        down = f"b{i}"
        nxt = f"x{i % size + 1}"
        records.append((up, f"x{i}", f"y{i}", 1, 1))
        records.append((down, f"y{i}", nxt, 1, 1))
        emap[up] = ("s", True)
        emap[down] = ("s", False)  # descending strand runs against the segment
    source = LabelledGraph.build(vertices, records)
    vmap = {v: ("u" if v.startswith("x") else "w") for v in vertices}
    return AdmissibleMap(source, target, vmap, emap, {v: 2 for v in vertices},
                         {name: 1 for name, *_ in records})


def star_branched_fixture() -> AdmissibleMap:
    """Genuine branched 2-cover of a 3-pronged star."""
    target = LabelledGraph.build(
        ["c", "l1", "l2", "l3"],
        [(f"t{i}", "c", f"l{i}", 3, 2) for i in (1, 2, 3)])
    vertices = ["c1", "c2", "x1", "x2", "x3"]
    records = []
    emap = {}
    for i in (1, 2, 3):
        for j in (1, 2):
            name = f"b{i}_{j}"
            records.append((name, f"c{j}", f"x{i}", 3, 1))
            emap[name] = (f"t{i}", True)
    source = LabelledGraph.build(vertices, records)
    vmap = {"c1": "c", "c2": "c", "x1": "l1", "x2": "l2", "x3": "l3"}
    return AdmissibleMap(source, target, vmap, emap,
                         {"c1": 1, "c2": 1, "x1": 2, "x2": 2, "x3": 2},
                         {name: 1 for name, *_ in records})


def two_plateau_branched_fixture() -> AdmissibleMap:
    """Index-2 witness branched over a terminal vertex and a loop plateau."""
    target = LabelledGraph.build(["u", "w"], [("s", "u", "w", 2, 2),
                                              ("l", "w", "w", 3, 5)])
    source = LabelledGraph.build(["x", "y"], [("a", "x", "y", 1, 1),
                                              ("b", "x", "y", 1, 1),
                                              ("m", "y", "y", 3, 5)])
    return AdmissibleMap(source, target, {"x": "u", "y": "w"},
                         {"a": ("s", True), "b": ("s", True), "m": ("l", True)},
                         {"x": 2, "y": 2}, {"a": 1, "b": 1, "m": 2})


def exceptional_fixture_maps() -> list[tuple[str, AdmissibleMap]]:
    return [
        ("accordion-size-1", accordion_fixture(1)),
        ("accordion-size-2", accordion_fixture(2)),
        ("accordion-size-3", accordion_fixture(3)),
        ("star-branched-cover", star_branched_fixture()),
        ("two-plateau-branched", two_plateau_branched_fixture()),
    ]
