"""Deterministic random instances for the property suites.

The generator is a Mersenne Twister (`random.Random`) seeded explicitly,
so identical configurations reproduce identical graphs and maps bit for
bit on every platform.  Maps are assembled only from the constructions in
:mod:`gbs.covering`, so they are admissible by construction (and verified
anyway).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .covering import (AdmissibleMap, branched_cover, compose, identity_map,
                       restrict_to_component, voltage_cover)
from .errors import InputError
from .graph import EdgeRecord, LabelledGraph
from .plateau import all_plateaux


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_vertices: int = 5
    max_edges: int = 7
    max_label_magnitude: int = 18
    map_recipe: tuple[str, ...] = ("voltage:2",)

    def __post_init__(self):
        if self.max_vertices < 1 or self.max_edges < 0:
            raise InputError("size bounds must be positive")
        if self.max_label_magnitude < 2:
            raise InputError("max_label_magnitude must be at least 2")


def _label(rng: random.Random, cfg: GeneratorConfig, loop: bool) -> int:
    low = 1 if loop else 2  # a label +-1 off a loop would not be reduced
    magnitude = rng.randint(low, cfg.max_label_magnitude)
    return -magnitude if rng.random() < 0.15 else magnitude


def _random_graph(rng: random.Random, cfg: GeneratorConfig) -> LabelledGraph:
    n = rng.randint(1, cfg.max_vertices)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    records: list[EdgeRecord] = []
    for i in range(2, n + 1):
        j = rng.randint(1, i - 1)
        records.append(EdgeRecord(f"e{len(records) + 1}", f"v{j}", f"v{i}",
                                  _label(rng, cfg, False), _label(rng, cfg, False)))
    extra = rng.randint(0, max(0, cfg.max_edges - len(records)))
    for _ in range(extra):
        a, b = rng.randint(1, n), rng.randint(1, n)
        loop = a == b
        records.append(EdgeRecord(f"e{len(records) + 1}", f"v{a}", f"v{b}",
                                  _label(rng, cfg, loop), _label(rng, cfg, loop)))
    return LabelledGraph(vertices, tuple(records))


def generate_graph(cfg: GeneratorConfig) -> LabelledGraph:
    """Connected reduced labelled graph within the configured bounds."""
    return _random_graph(random.Random(cfg.seed), cfg)


def random_voltage_assignment(rng: random.Random, g: LabelledGraph,
                              degree: int) -> dict[str, tuple[int, ...]]:
    """One shuffled permutation of 0..degree-1 per edge, in declaration order."""
    assignment = {}
    for rec in g.edges:
        perm = list(range(degree))
        rng.shuffle(perm)
        assignment[rec.name] = tuple(perm)
    return assignment


def _voltage_step(rng: random.Random, current: AdmissibleMap,
                  degree: int) -> AdmissibleMap:
    src = current.source
    assignment = random_voltage_assignment(rng, src, degree)
    return restrict_to_component(voltage_cover(src, degree, assignment))


def _branched_step(rng: random.Random, current: AdmissibleMap) -> AdmissibleMap:
    src = current.source
    plateaux = all_plateaux(src).proper_plateaux
    if not plateaux:
        # plateau-free source: fall back to a degree-2 voltage cover
        return _voltage_step(rng, current, 2)
    return branched_cover(src, plateaux[rng.randrange(len(plateaux))])


def generate_admissible_map(cfg: GeneratorConfig) -> AdmissibleMap:
    """Composite of covers over a generated graph, following the recipe.

    Recipe steps: `branched` (cover ramified over a random proper plateau,
    degree-2 voltage cover when there is none) and `voltage:<d>`.
    The source is connected and the target is the generated reduced graph.
    """
    rng = random.Random(cfg.seed)
    g = _random_graph(rng, cfg)
    current = identity_map(g)
    for step in cfg.map_recipe:
        if step == "branched":
            inner = _branched_step(rng, current)
        elif step.startswith("voltage:"):
            inner = _voltage_step(rng, current, int(step.split(":", 1)[1]))
        else:
            raise InputError(f"unknown recipe step {step!r}")
        current = compose(current, inner)
    return current
