"""The four workloads: a fixed corpus of ops each, and the op itself.

Every op goes through the public functions of `gbs` and returns its answer
as text.  The golden file holds a digest of each answer recorded at the
baseline commit, so an op whose answer changes counts as failed.  An op
also fails when one of the suite properties it checks is false.

Corpora are fixed so that every op has a golden answer, and so that the
cost of a pass does not hinge on which ops a seed happens to draw: single
ops here span four orders of magnitude.  The seed given to the benchmark
sets the order of the ops in each pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import gbs
from gbs import GeneratorConfig, InputError, LabelledGraph, suites


@dataclass
class Outcome:
    answer: str
    ok: bool  # every suite property or consistency check held
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Item:
    key: str
    payload: object
    graphs: tuple[LabelledGraph, ...]  # what the op is fed, for the size record


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict  # bounds and seeds, for the run record
    build: Callable[[], list[Item]]
    op: Callable[[object], Outcome]


def _fresh(g: LabelledGraph) -> LabelledGraph:
    """Copy without the cached lookups of `g`, so every op starts cold."""
    return LabelledGraph(g.vertices, g.edges)


def _line(suite: str, tag: str, prop: str, passed: bool) -> str:
    return f"suite={suite} instance={tag} property={prop} pass={str(passed).lower()}"


def _outcome(lines: list[str], counts: dict[str, int] | None = None) -> Outcome:
    return Outcome("\n".join(lines), all(line.endswith("pass=true") for line in lines),
                   counts or {})


# -- plateau-free-cover -------------------------------------------------------
# Heavy and long-tailed: plateau detection, cover construction and
# verification carry it.  Labels stay at or below 60, so `primes` is idle.

COVER_SIZE_LIMIT = 1500
COVER_CANDIDATES = range(1, 125)  # `gbs suite plateau-free-cover --count 100 --seed 1`


def _cover_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                           max_label_magnitude=60)


def _build_covers() -> list[Item]:
    items = []
    for seed in COVER_CANDIDATES:
        g = gbs.generate_graph(_cover_config(seed))
        items.append(Item(str(seed), (str(seed), g), (g,)))
    return items


def _cover_op(payload) -> Outcome:
    tag, graph = payload
    g = _fresh(graph)
    try:
        m = gbs.plateau_free_cover(g, size_limit=COVER_SIZE_LIMIT)
    except InputError:
        return Outcome(f"instance={tag} skipped=size-limit", True,
                       {"size_limit_refusals": 1})
    suite = "plateau-free-cover"
    lines = [
        _line(suite, tag, "admissible", bool(gbs.verify_admissible(m))),
        _line(suite, tag, "connected-source", m.source.is_connected()),
        _line(suite, tag, "plateau-free-source", not gbs.has_proper_plateau(m.source)),
        _line(suite, tag, "mu-monotonicity",
              m.source.betti() + gbs.mu(m.source) >= g.betti() + gbs.mu(g)),
    ]
    return _outcome(lines, {"cover_source_vertices": len(m.source.vertices)})


# -- map-suites ---------------------------------------------------------------
# The other three suites: many small maps through generate, covering and
# analysis.  `plateau_free_cover` is never called.

MAP_SEEDS = range(1, 601)
FIXTURES = {
    "accordion-size-1": lambda: suites.accordion_fixture(1),
    "accordion-size-2": lambda: suites.accordion_fixture(2),
    "accordion-size-3": lambda: suites.accordion_fixture(3),
    "star-branched-cover": suites.star_branched_fixture,
    "two-plateau-branched": suites.two_plateau_branched_fixture,
}


def _map_config(seed: int) -> GeneratorConfig:
    """The generator settings of the three map suites."""
    return GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                           max_label_magnitude=18,
                           map_recipe=suites.RECIPES[seed % len(suites.RECIPES)])


def _build_maps() -> list[Item]:
    items = [Item(tag, (tag, None), (make().target,)) for tag, make in FIXTURES.items()]
    for seed in MAP_SEEDS:
        cfg = _map_config(seed)
        items.append(Item(str(seed), (str(seed), cfg), (gbs.generate_graph(cfg),)))
    return items


def _map_op(payload) -> Outcome:
    tag, cfg = payload
    if cfg is None:  # exceptional fixtures run in the audit suite only
        m = FIXTURES[tag]()
        return _outcome([_line("audit", tag, "inequalities", gbs.check_inequalities(m).ok)],
                        {"audited_maps": 1})
    m = gbs.generate_admissible_map(cfg)
    src, tgt = m.source, m.target
    total = m.total_multiplicity()
    conserved = all(sum(m.edge_multiplicity[name] for name in m.edge_preimages[rec.name])
                    == total for rec in tgt.edges)
    suite = "rank-monotonicity"
    lines = [
        _line(suite, tag, "admissible", bool(gbs.verify_admissible(m))),
        _line(suite, tag, "rank-monotonicity", gbs.rank(src) >= gbs.rank(tgt)),
        _line(suite, tag, "betti-monotonicity", src.betti() >= tgt.betti()),
        _line(suite, tag, "betti-terminal-half",
              2 * tgt.betti() + len(tgt.terminal_vertices())
              <= 2 * src.betti() + len(src.terminal_vertices())),
        _line(suite, tag, "edge-multiplicity-conservation", conserved),
        _line("covering-equivalence", tag, "characterizations-agree",
              len(set(gbs.covering_characterizations(m).values())) == 1),
        _line("audit", tag, "inequalities", gbs.check_inequalities(m).ok),
    ]
    return _outcome(lines, {"audited_maps": 1})


# -- rank-query ---------------------------------------------------------------
# The query side of the plateau layer, no covers built: trial division
# dominates on labels up to 10^9.

RANK_SEEDS = range(1, 121)


def _rank_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, max_vertices=12, max_edges=20,
                           max_label_magnitude=10**9)


def _build_rank_texts() -> list[Item]:
    items = []
    for seed in RANK_SEEDS:
        g = gbs.generate_graph(_rank_config(seed))
        items.append(Item(str(seed), gbs.emit_graph(g), (g,)))
    return items


def _rank_op(text) -> Outcome:
    g = gbs.parse_graph(text)
    r = gbs.rank(g)
    inventory = gbs.all_plateaux(g).proper_plateaux
    # the mu witness from the inventory already at hand, as `mu` computes it
    witness = gbs.minimum_hitting_set(g.vertices, [P.vertices for P in inventory]
                                      + [frozenset(g.vertices)])
    keep = g.vertices[:max(1, len(g.vertices) // 2)]
    verdict = gbs.generates(g, keep)
    order = g.vertex_position
    plateaux = " ".join(
        f"p={P.prime}:{','.join(sorted(P.vertices, key=order.get))}"
        f":{','.join(sorted(P.edges))}" for P in inventory)
    answer = (f"rank={r} mu-witness={','.join(sorted(witness, key=order.get))} "
              f"plateaux=[{plateaux}] generates={str(verdict).lower()}")
    consistent = (len(witness) == r - g.betti()
                  and verdict == all(set(keep) & P.vertices for P in inventory))
    return Outcome(answer, consistent)


# -- witness ------------------------------------------------------------------

R3 = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 5, 7),
                                 ("c", "v", "v", 11, 13)])
R2 = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 5, 7)])
# (kind, pair seed): R3 against a degree-4 cover of R3 searched to degree 4,
# which is dominated by cover enumeration, and a degree-2 against a degree-3
# cover of R2 searched to degree 3, which is dominated by isomorphism checks.
WITNESS_PAIRS = (("r3", 1), ("r3", 2), ("r2", 1))


def _random_connected_cover(rng: random.Random, g: LabelledGraph,
                            degree: int) -> LabelledGraph:
    while True:
        assignment = {rec.name: tuple(rng.sample(range(degree), degree))
                      for rec in g.edges}
        source = gbs.voltage_cover(g, degree, assignment).source
        if source.is_connected():
            return source


def _build_pairs() -> list[Item]:
    items = []
    for kind, seed in WITNESS_PAIRS:
        rng = random.Random(f"{kind}-{seed}")
        if kind == "r3":
            a, b, degree = R3, _random_connected_cover(rng, R3, 4), 4
        else:
            a = _random_connected_cover(rng, R2, 2)
            b = _random_connected_cover(rng, R2, 3)
            degree = 3
        items.append(Item(f"{kind}-{seed}", (a, b, degree), (a, b)))
    return items


def _witness_op(payload) -> Outcome:
    a, b, degree = payload
    verdict = gbs.commensurable(_fresh(a), _fresh(b), witness_max_degree=degree)
    found = verdict.witness is not None
    degrees = (" ".join(str(part.total_multiplicity()) for part in verdict.witness)
               if found else "-")
    return Outcome(f"{verdict.render()}\nwitness-degrees={degrees}", True,
                   {"witnesses_found": int(found)})


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("plateau-free-cover",
             {"generator": "generate_graph", "seeds": "1-124", "max_vertices": 5,
              "max_edges": 7, "max_label_magnitude": 60, "size_limit": COVER_SIZE_LIMIT},
             _build_covers, _cover_op),
    Workload("map-suites",
             {"generator": "generate_admissible_map", "seeds": "1-600",
              "max_vertices": 5, "max_edges": 7, "max_label_magnitude": 18,
              "recipes": "suites.RECIPES by seed", "fixtures": len(FIXTURES)},
             _build_maps, _map_op),
    Workload("rank-query",
             {"generator": "generate_graph + emit_graph", "seeds": "1-120",
              "max_vertices": 12, "max_edges": 20, "max_label_magnitude": 10**9},
             _build_rank_texts, _rank_op),
    Workload("witness",
             {"generator": "random connected voltage covers",
              "pairs": [f"{kind}-{seed}" for kind, seed in WITNESS_PAIRS],
              "r3_degree": 4, "r2_degrees": [2, 3]},
             _build_pairs, _witness_op),
)}


def input_sizes(items: list[Item]) -> dict[str, int]:
    """Total vertices and edges fed in, and the largest label magnitude."""
    graphs = [g for item in items for g in item.graphs]
    return {
        "ops": len(items),
        "vertices": sum(len(g.vertices) for g in graphs),
        "edges": sum(len(g.edges) for g in graphs),
        "max_label_magnitude": max((max(abs(r.label_origin), abs(r.label_terminus))
                                    for g in graphs for r in g.edges), default=0),
    }
