"""Plateaux of a labelled graph, the rank formula, and generating subsets.

For a prime p, a p-plateau is a nonempty connected subgraph P such that a
label at an origin inside P is divisible by p exactly when its oriented
edge is not contained in P.  The whole graph is a plateau for all large
primes, so any vertex set meeting every plateau is nonempty; the minimum
size of such a set, plus the first Betti number, is the rank of the
presented group.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def label_primes(g: LabelledGraph) -> list[int]:
    """Distinct primes dividing at least one label magnitude."""
    def compute(g: LabelledGraph) -> list[int]:
        magnitudes = {abs(label) for rec in g.edges
                      for label in (rec.label_origin, rec.label_terminus)}
        return sorted({p for n in magnitudes for p in prime_factors(n)})
    return list(_memo(g, "_label_primes", compute))


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


def _plateaux(g: LabelledGraph, p: int,
              labels: dict[str, Sequence[int]] | None = None) -> list[Plateau]:
    """:func:`plateaux_for_prime` for a prime p, read with `labels` (each edge's
    [origin, terminus] labels by name; g's own by default).  The only test of the
    divisibility dichotomy; g may be disconnected."""
    if labels is None:
        labels = _memo(g, "_label_table", lambda g: {
            rec.name: (rec.label_origin, rec.label_terminus) for rec in g.edges})
    keep = {name for name, (lo, lt) in labels.items() if lo % p != 0 and lt % p != 0}
    out: list[Plateau] = []
    n_vertices, n_edges = len(g.vertices), len(g.edges)
    for vertices, edges in g.subgraph_components(keep):
        if len(vertices) == n_vertices and len(edges) == n_edges:
            continue  # whole graph
        if all(dart.edge in edges or labels[dart.edge][0 if dart.forward else 1] % p == 0
               for v in vertices for dart in g.darts_at(v)):
            out.append(Plateau(p, frozenset(vertices), edges))
    out.sort(key=lambda P: min(g.vertex_position[v] for v in P.vertices))
    return out


def check_plateau(g: LabelledGraph, plateau: Plateau) -> bool:
    """Is `plateau` a plateau of g?  A proper one is listed by :func:`_plateaux`;
    the whole graph is one when connected with no label divisible by the prime."""
    p = plateau.prime
    return is_prime(p) and (plateau in _plateaux(g, p) or (
        plateau.vertices == set(g.vertices) and plateau.edges == {r.name for r in g.edges}
        and g.is_connected() and all(r.label_origin % p and r.label_terminus % p
                                     for r in g.edges)))


def all_plateaux(g: LabelledGraph) -> PlateauCollection:
    """Every proper plateau of g, over all primes dividing some label."""
    g._require_connected()
    return _memo(g, "_all_plateaux", lambda g: PlateauCollection(
        tuple(P for p in label_primes(g) for P in _plateaux(g, p))))


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
        if not any(other < c for other in kept):
            kept.append(c)

    def greedy(unmet: list[frozenset[str]]) -> set[str]:
        chosen: set[str] = set()
        while unmet:
            counts: dict[str, int] = {}
            for c in unmet:
                for v in c:
                    counts[v] = counts.get(v, 0) + 1
            best = min(counts, key=lambda v: (-counts[v], position[v]))
            chosen.add(best)
            unmet = [c for c in unmet if best not in c]
        return chosen

    def lower_bound(unmet: list[frozenset[str]]) -> int:
        picked: list[frozenset[str]] = []
        for c in unmet:
            if all(c.isdisjoint(d) for d in picked):
                picked.append(c)
        return len(picked)

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
