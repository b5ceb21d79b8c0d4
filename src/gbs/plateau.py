"""Plateaux of a labelled graph, the rank formula, and generating subsets.

For a prime p, a p-plateau is a nonempty connected subgraph P such that a
label at an origin inside P is divisible by p exactly when its oriented
edge is not contained in P.  The whole graph is a plateau for all large
primes, so any vertex set meeting every plateau is nonempty; the minimum
size of such a set, plus the first Betti number, is the rank of the
presented group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Any, Callable, Sequence

from .errors import InputError
from .graph import LabelledGraph
from .primes import is_prime, prime_factors


@dataclass(frozen=True)
class Plateau:
    prime: int
    vertices: frozenset[str]
    edges: frozenset[str]


@dataclass(frozen=True)
class PlateauCollection:
    """All proper plateaux of a graph; the whole graph is always a plateau."""

    proper_plateaux: tuple[Plateau, ...]


def _memo(g: LabelledGraph, key: str, compute: Callable[[LabelledGraph], Any]) -> Any:
    """compute(g), once per graph: kept in g.__dict__, where cached_property keeps
    `_components`.  g is frozen, so the memo is exact; == and hash never read it."""
    if key not in g.__dict__:
        g.__dict__[key] = compute(g)
    return g.__dict__[key]


def _factors(g: LabelledGraph) -> dict[int, tuple[int, ...]]:
    """The prime factors of each label magnitude of g, each magnitude factored once,
    as tuples of ints, which the cyclic garbage collector stops tracking."""
    return _memo(g, "_factors", lambda g: {n: tuple(prime_factors(n))
                                           for n in set(map(abs, g._index[0]))})


def label_primes(g: LabelledGraph) -> list[int]:
    """Distinct primes dividing at least one label magnitude."""
    return sorted({p for ps in _factors(g).values() for p in ps})


def _walk(g: LabelledGraph, darts: Sequence[int]) -> list[tuple[frozenset[str], frozenset[str]]]:
    """The proper plateaux (vertices, edges) of a prime dividing the labels at exactly
    the darts listed in `darts`, by least vertex index: the only test of the
    divisibility dichotomy.  g may be disconnected.

    The candidates are the components of the edges with no divisible dart; one
    is proper unless a vertex of it is a frontier vertex, where a coprime dart's
    reverse is divisible, or it is the whole graph.  The walk stops at the frontier
    and starts at the first vertex of each component of g and at the vertices with
    a divisible dart.  These roots suffice: a candidate that is not a whole component
    of g meets an edge outside it with a divisible dart: at the candidate's end, a
    root then, or else only at the far end, which makes that end a frontier vertex."""
    heads = g._index[1]
    kept, frontier = bytearray(b"\1" * len(heads)), bytearray(len(g.vertices))
    roots = {comp[0] for comp in g._components}
    for d in darts:
        kept[d] = 0
        roots.add(heads[d])
    for d in darts:  # d ^ 1 still kept: coprime at its origin, divisible at its far end
        if kept[d ^ 1]:
            kept[d ^ 1], frontier[heads[d ^ 1]] = 0, 1
    out = {}  # by least vertex index
    for comp in g._component_walk(kept, roots, frontier):
        edges = g._kept_edges(comp, kept)
        if len(comp) < len(g.vertices) or len(edges) < len(heads) // 2:  # not the whole graph
            out[min(comp)] = (frozenset(g.vertices[v] for v in comp),
                              frozenset(g.edges[i].name for i in edges))
    return [out[least] for least in sorted(out)]


def plateaux_for_prime(g: LabelledGraph, p: int) -> list[Plateau]:
    """The proper p-plateaux of a connected g (pairwise vertex-disjoint).

    Each is a component of the subgraph keeping only edges with both labels
    coprime to p.  The whole graph qualifies as a p-plateau exactly when p
    divides no label at all; that case is tracked by :func:`all_plateaux`
    instead of being listed here.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    g._require_connected()
    return _plateaux(g, p)


def _plateaux(g: LabelledGraph, p: int, labels: Sequence[int] | None = None) -> list[Plateau]:
    """:func:`plateaux_for_prime` for a prime p, read with `labels` (a label per dart,
    in index order; g's own by default); g may be disconnected."""
    return [Plateau(p, vertices, edges) for vertices, edges in _walk(g, [
        d for d, label in enumerate(g._index[0] if labels is None else labels) if label % p == 0])]


def check_plateau(g: LabelledGraph, plateau: Plateau) -> bool:
    """Is `plateau` a plateau of g?  A proper one is listed by :func:`_plateaux`;
    the whole graph is one when connected with no label divisible by the prime."""
    p = plateau.prime
    return is_prime(p) and (plateau in _plateaux(g, p) or (
        plateau.vertices == set(g.vertices) and plateau.edges == {r.name for r in g.edges}
        and g.is_connected() and all(r.label_origin % p and r.label_terminus % p
                                     for r in g.edges)))


def all_plateaux(g: LabelledGraph) -> PlateauCollection:
    """Every proper plateau of g, over all primes dividing some label.

    Primes dividing the labels of the same darts have the same plateaux, so
    g is walked at most once per such divisibility class."""
    g._require_connected()

    def compute(g: LabelledGraph) -> PlateauCollection:
        darts, factors = {p: [] for p in label_primes(g)}, _factors(g)  # factors the labels
        for d, label in enumerate(g._index[0]):  # each prime's divisible darts, ascending
            for p in factors[abs(label)]:
                darts[p].append(d)
        # a class of one divisible dart d on a loop or a non-bridge edge has no plateau:
        # g less that edge is connected and holds d's far end, a frontier vertex
        walks = {c: [] if len(c) == 1 and not g._bridges[c[0] >> 1] else _walk(g, c)
                 for c in set(map(tuple, darts.values()))}
        return PlateauCollection(tuple(Plateau(p, vertices, edges) for p, ds in darts.items()
                                       for vertices, edges in walks[tuple(ds)]))
    return _memo(g, "_all_plateaux", compute)


def has_proper_plateau(g: LabelledGraph) -> bool:
    """Does the connected graph g have a proper plateau for some prime?"""
    return bool(all_plateaux(g).proper_plateaux)


# -- exact minimum hitting set ------------------------------------------------


def minimum_hitting_set(order: tuple[str, ...],
                        constraints: list[frozenset[str]]) -> frozenset[str]:
    """Smallest subset of `order` meeting every constraint (exact search).

    Branch and bound over the constraints: singleton constraints are
    propagated, branching picks a smallest unmet constraint, candidates are
    tried in declaration order, and a set of pairwise disjoint unmet
    constraints provides the lower bound.  Deterministic for fixed input.
    """
    position = {v: i for i, v in enumerate(order)}
    if outside := {v for c in constraints for v in c} - position.keys():
        raise InputError(f"constraint elements outside the order: {sorted(outside, key=repr)}")
    work = sorted({frozenset(c) for c in constraints},
                  key=lambda c: (len(c), sorted(position[v] for v in c)))
    if frozenset() in work:
        raise InputError("unsatisfiable empty constraint")
    # drop supersets of other constraints: hitting the subset hits them too
    kept: list[frozenset[str]] = []
    for c in work:
        if not any(map(c.__gt__, kept)):  # no kept constraint is a proper subset
            kept.append(c)

    def greedy(unmet: list[frozenset[str]]) -> set[str]:
        """The most frequent element, the first in `order` on a tie, until every
        constraint is hit; a heap entry is current while it holds its count."""
        chosen, counts = set(), Counter(chain.from_iterable(unmet))
        heap = [(-n, position[v], v) for v, n in counts.items()]
        heapify(heap)
        while unmet:
            n, _, best = heappop(heap)
            if -n == counts[best]:
                chosen.add(best)
                hit = [c for c in unmet if best in c]
                unmet = [c for c in unmet if best not in c]
                counts.subtract(chain.from_iterable(hit))
                for v in {v for c in hit for v in c if counts[v]}:
                    heappush(heap, (-counts[v], position[v], v))
        return chosen

    def lower_bound(unmet: list[frozenset[str]]) -> int:
        picked, union = 0, set()  # a constraint misses every picked one iff it misses their union
        for c in unmet:
            if union.isdisjoint(c):
                picked += 1
                union |= c
        return picked

    best: set[str] = greedy(kept)

    def search(unmet: list[frozenset[str]], chosen: set[str]) -> None:
        nonlocal best
        # propagate forced singletons
        while True:
            units = [c for c in unmet if len(c) == 1]
            if not units:
                break
            for c in units:
                chosen = chosen | c
            unmet = [c for c in unmet if not c & chosen]
        if not unmet:
            if len(chosen) < len(best):
                best = chosen
            return
        if len(chosen) + lower_bound(unmet) >= len(best):
            return
        # every unmet list keeps the sorted order of `kept`, smallest first
        for v in sorted(unmet[0], key=position.get):
            search([c for c in unmet if v not in c], chosen | {v})

    search(kept, set())
    return frozenset(best)


# -- plateaunic number, rank, generating subsets ------------------------------


def minimum_generating_vertices(g: LabelledGraph) -> frozenset[str]:
    """A smallest vertex set meeting every plateau (deterministic witness)."""
    sets = [P.vertices for P in all_plateaux(g).proper_plateaux]
    if not sets:  # the whole graph is the only plateau: the search would pick vertex 0
        return frozenset(g.vertices[:1])
    sets.append(frozenset(g.vertices))  # the whole graph is a plateau
    return minimum_hitting_set(g.vertices, sets)


def mu(g: LabelledGraph) -> int:
    """Minimum number of vertices meeting every plateau of g."""
    return len(minimum_generating_vertices(g))


def rank(g: LabelledGraph) -> int:
    """Minimal number of generators of the presented group: Betti number + mu."""
    return mu(g) + g.betti()


def generates(g: LabelledGraph, keep: frozenset[str] | set[str]) -> bool:
    """Do the vertex generators over `keep`, plus all stable letters, generate?

    True exactly when `keep` meets every plateau (the whole graph included,
    so the empty set never generates).
    """
    plateaux = all_plateaux(g).proper_plateaux
    keep = frozenset(keep)
    for v in keep:
        if not g.has_vertex(v):
            raise InputError(f"unknown vertex {v!r}")
    return bool(keep) and all(keep & P.vertices for P in plateaux)
