"""Labelled multigraphs and their elementary transformations.

A labelled graph is a finite multigraph (loops and parallel edges allowed)
in which every oriented edge carries a nonzero integer label near its
origin.  A non-oriented edge is stored once as an :class:`EdgeRecord`; its
two orientations are addressed through :class:`Dart` handles, so the two
labels of an edge live independently at its two ends.

Everything here is immutable: transformations (`reduce`, sign changes,
`normalize_signs`) return graphs and never modify their input, and all
operations are deterministic in the declaration order of vertices and edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, cycle, permutations
from operator import itemgetter
from typing import Container, Iterable, Iterator, NamedTuple

from .errors import InputError


class Dart(NamedTuple):
    """One orientation of an edge: the forward dart runs origin -> terminus."""

    edge: str
    forward: bool

    def reverse(self) -> "Dart":
        return Dart(self.edge, not self.forward)

    def render(self) -> str:
        return self.edge if self.forward else "~" + self.edge


class EdgeRecord(NamedTuple):
    name: str
    origin: str
    terminus: str
    label_origin: int
    label_terminus: int

    @property
    def is_loop(self) -> bool:
        return self.origin == self.terminus


class ModulusEntry(NamedTuple):
    loop: tuple[Dart, ...]
    value: Fraction


@dataclass(frozen=True)
class CycleBasisModulus:
    """Label ratios around the fundamental cycles of a spanning tree."""

    entries: tuple[ModulusEntry, ...]

    def values(self) -> list[Fraction]:
        return [entry.value for entry in self.entries]

    def is_unimodular(self) -> bool:
        return all(abs(value) == 1 for value in self.values())

    def is_trivial(self) -> bool:
        return all(value == 1 for value in self.values())

    def takes_negative_value(self) -> bool:
        return any(value < 0 for value in self.values())


def _check_identifier(kind: str, name: str) -> None:
    if not isinstance(name, str) or not name or name.split() != [name]:
        raise InputError(f"bad {kind} identifier {name!r}: must be a nonempty "
                         "string without whitespace")


@dataclass(frozen=True)
class LabelledGraph:
    """Finite multigraph with a nonzero integer label at each edge end."""

    vertices: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("a labelled graph needs at least one vertex")
        position: dict[str, int] = {}
        for i, v in enumerate(self.vertices):
            _check_identifier("vertex", v)
            if v in position:
                raise InputError(f"duplicate vertex {v!r}")
            position[v] = i
        by_name: dict[str, EdgeRecord] = {}
        for rec in self.edges:
            _check_identifier("edge", rec.name)
            if rec.name in by_name:
                raise InputError(f"duplicate edge {rec.name!r}")
            by_name[rec.name] = rec
            for end in (rec.origin, rec.terminus):
                if end not in position:
                    raise InputError(f"edge {rec.name!r} uses unknown vertex {end!r}")
            for label in (rec.label_origin, rec.label_terminus):
                if not isinstance(label, int) or isinstance(label, bool) or label == 0:
                    raise InputError(f"edge {rec.name!r} carries a zero or "
                                     f"non-integer label {label!r}")
        # the checking pass's tables: declaration index by vertex, record by edge name
        object.__setattr__(self, "vertex_position", position)
        object.__setattr__(self, "_edge_by_name", by_name)

    @classmethod
    def build(cls, vertices: Iterable[str],
              edges: Iterable[tuple[str, str, str, int, int]]) -> "LabelledGraph":
        return cls(tuple(vertices), tuple(EdgeRecord(*e) for e in edges))

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], edges: tuple[EdgeRecord, ...]) -> "LabelledGraph":
        """A graph valid by construction, with the checking pass's tables, unchecked."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, edges=edges,
                          vertex_position=dict(zip(vertices, range(len(vertices)))),
                          _edge_by_name={rec.name: rec for rec in edges})
        return g

    # -- indexed access -------------------------------------------------

    @cached_property
    def _index(self) -> tuple[tuple[int, ...], ...]:
        """Dart 2i is edge i at its origin and 2i+1 at its terminus, so d ^ 1 reverses d.
        (labels, heads, order, start): the label and vertex index of each dart, and the
        darts at vertex v in declaration order, order[start[v]:start[v + 1]].  Built once
        per graph, as tuples of ints, which the cyclic garbage collector stops tracking."""
        labels = tuple(chain.from_iterable(map(itemgetter(3, 4), self.edges)))
        heads = tuple(map(self.vertex_position.__getitem__,
                          chain.from_iterable(map(itemgetter(1, 2), self.edges))))
        order = tuple(sorted(range(len(heads)), key=heads.__getitem__))  # a stable sort
        counts = Counter(heads)
        return labels, heads, order, tuple(accumulate(
            map(counts.__getitem__, range(len(self.vertices))), initial=0))

    @cached_property
    def _darts(self) -> tuple[Dart, ...]:
        """Each dart of the index as a `Dart`: the view for name-level callers."""
        names = [rec.name for rec in self.edges]
        return tuple(map(Dart, chain.from_iterable(zip(names, names)), cycle((True, False))))

    @cached_property
    def _darts_at(self) -> tuple[tuple[Dart, ...], ...]:
        _, _, order, start = self._index
        return tuple(tuple(map(self._darts.__getitem__, order[start[v]:start[v + 1]]))
                     for v in range(len(self.vertices)))

    def edge(self, name: str) -> EdgeRecord:
        try:
            return self._edge_by_name[name]
        except KeyError:
            raise InputError(f"unknown edge {name!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self.vertex_position

    def has_edge(self, name: str) -> bool:
        return name in self._edge_by_name

    def origin(self, dart: Dart) -> str:
        rec = self.edge(dart.edge)
        return rec.origin if dart.forward else rec.terminus

    def terminus(self, dart: Dart) -> str:
        return self.origin(dart.reverse())

    def label(self, dart: Dart) -> int:
        rec = self.edge(dart.edge)
        return rec.label_origin if dart.forward else rec.label_terminus

    def darts(self) -> tuple[Dart, ...]:
        """Every dart, in index order: dart 2i is Dart(edge i, True)."""
        return self._darts

    def darts_at(self, v: str) -> tuple[Dart, ...]:
        """Oriented edges with origin v; a loop at v contributes both darts."""
        return self._darts_at[self._position(v)]

    def _position(self, v: str) -> int:
        try:
            return self.vertex_position[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def valence(self, v: str) -> int:
        start, i = self._index[3], self._position(v)
        return start[i + 1] - start[i]

    def terminal_vertices(self) -> tuple[str, ...]:
        start = self._index[3]
        return tuple(v for v, a, b in zip(self.vertices, start, start[1:]) if b - a == 1)

    # -- connectivity and Betti number ----------------------------------

    def _component_walk(self, mask: bytes, roots: Iterable[int]) -> Iterator[list[int]]:
        """The one component walk.  Yields the vertex indices of each component of
        the spanning subgraph on the darts marked in `mask` that meets `roots`, in
        the order `roots` first reaches them, each in the discovery order of a
        depth-first walk with a stack."""
        _, heads, order, start = self._index
        seen = bytearray(len(self.vertices))
        for root in roots:
            if seen[root]:
                continue
            seen[root] = 1
            comp, stack = [root], [root]
            while stack:
                v = stack.pop()
                for d in order[start[v]:start[v + 1]]:
                    if mask[d] and not seen[w := heads[d ^ 1]]:
                        seen[w] = 1
                        comp.append(w)
                        stack.append(w)
            yield comp

    def _kept_edges(self, comp: list[int], mask: bytes) -> set[int]:
        """Indices of the edges with a dart marked in `mask` at a vertex of `comp`."""
        _, _, order, start = self._index
        return {d >> 1 for v in comp for d in order[start[v]:start[v + 1]] if mask[d]}

    def subgraph_components(self, keep: Container[str] | None = None,
                            starts: Iterable[str] | None = None
                            ) -> Iterator[tuple[tuple[str, ...], frozenset[str]]]:
        """Components of the spanning subgraph on the edges in `keep`.

        Yields one (vertices, edges) pair per component that meets `starts`
        (every vertex when None), in the order `starts` first reaches them:
        the vertices in depth-first discovery order and the names of the
        kept edges inside the component.  `keep=None` keeps every edge.
        """
        mask = bytearray(2 * len(self.edges))
        mask[::2] = mask[1::2] = bytes(keep is None or rec.name in keep for rec in self.edges)
        roots = range(len(self.vertices)) if starts is None else map(self._position, starts)
        for comp in self._component_walk(mask, roots):
            yield (tuple(self.vertices[v] for v in comp),
                   frozenset(self.edges[i].name for i in self._kept_edges(comp, mask)))

    @cached_property
    def _components(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(self.vertices[v] for v in comp)
                     for comp in self._component_walk(b"\1" * (2 * len(self.edges)),
                                                      range(len(self.vertices))))

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Vertex sets of the connected components, each in discovery order (walked once)."""
        return self._components

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def betti(self) -> int:
        """First Betti number |E| - |V| + number of components."""
        return len(self.edges) - len(self.vertices) + len(self.components())

    def is_reduced(self) -> bool:
        """True when every edge carrying a label +-1 is a loop."""
        return all(rec.is_loop or (abs(rec.label_origin) != 1 and abs(rec.label_terminus) != 1)
                   for rec in self.edges)

    # -- spanning tree and modulus --------------------------------------

    def maximal_subtree(self) -> frozenset[str]:
        """Edge names of a spanning tree, chosen in declaration order."""
        self._require_connected()
        parent: dict[str, str] = {v: v for v in self.vertices}

        def find(v: str) -> str:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        tree: list[str] = []
        for rec in self.edges:
            if rec.is_loop:
                continue
            a, b = find(rec.origin), find(rec.terminus)
            if a != b:
                parent[a] = b
                tree.append(rec.name)
        return frozenset(tree)

    def _require_connected(self) -> None:
        if not self.is_connected():
            raise InputError("operation requires a connected graph")

    def _tree_structure(self, tree: frozenset[str]):
        """BFS order and parent darts of the spanning tree from the first vertex."""
        root = self.vertices[0]
        parent_dart: dict[str, Dart] = {}
        order = [root]
        for v in order:  # the list grows as the queue
            for dart in self.darts_at(v):
                w = self.terminus(dart)
                if dart.edge in tree and w != root and w not in parent_dart:
                    parent_dart[w] = dart  # dart runs parent -> child
                    order.append(w)
        return order, parent_dart

    def _tree_path(self, a: str, b: str, parent_dart, depth) -> list[Dart]:
        """Darts of the spanning-tree path from a to b, climbing only to where they meet."""
        up_a: list[Dart] = []
        up_b: list[Dart] = []
        while a != b:
            if depth[a] >= depth[b]:
                up_a.append(parent_dart[a].reverse())
                a = self.origin(parent_dart[a])
            else:
                up_b.append(parent_dart[b].reverse())
                b = self.origin(parent_dart[b])
        return up_a + [d.reverse() for d in reversed(up_b)]

    def modulus(self) -> CycleBasisModulus:
        """Label-ratio products over the fundamental cycles of the chosen tree."""
        tree = self.maximal_subtree()
        order, parent_dart = self._tree_structure(tree)
        depth = {order[0]: 0}
        for v in order[1:]:
            depth[v] = depth[self.origin(parent_dart[v])] + 1
        entries: list[ModulusEntry] = []
        for rec in self.edges:
            if rec.name in tree:
                continue
            d0 = Dart(rec.name, True)
            loop = [d0] + self._tree_path(rec.terminus, rec.origin, parent_dart, depth)
            value = Fraction(1)
            for dart in loop:
                value *= Fraction(self.label(dart), self.label(dart.reverse()))
            entries.append(ModulusEntry(tuple(loop), value))
        return CycleBasisModulus(tuple(entries))

    def has_nontrivial_center(self) -> bool:
        """True when the modulus is identically 1 on the cycle basis."""
        return self.modulus().is_trivial()

    # -- structural predicates ------------------------------------------

    def is_strongly_slide_free(self) -> bool:
        """No label near a vertex divides another label near the same vertex."""
        labels, _, order, start = self._index
        return not any(labels[e] % labels[d] == 0 for v in range(len(self.vertices))
                       for d, e in permutations(order[start[v]:start[v + 1]], 2))

    def is_circle(self) -> bool:
        # all valences 2 make |E| = |V|, so a connected one has Betti number 1
        return (self.is_connected() and len(self.edges) >= 1
                and all(self.valence(v) == 2 for v in self.vertices))

    def circle_products(self) -> tuple[int, int]:
        """Products of the co-oriented and counter-oriented labels of a circle."""
        if not self.is_circle():
            raise InputError("circle_products requires a graph homeomorphic to a circle")
        labels, heads, order, start = self._index
        forward = backward = 1
        d = first = order[0]  # the first dart at the first vertex
        while True:
            forward, backward = forward * labels[d], backward * labels[d ^ 1]
            w = heads[d ^ 1]  # leave w by its other dart
            d = next(e for e in order[start[w]:start[w + 1]] if e != d ^ 1)
            if d == first:
                return forward, backward

    # -- sign changes ----------------------------------------------------

    def sign_change_vertex(self, v: str) -> "LabelledGraph":
        """Negate every label near v; the presented group is unchanged."""
        self._position(v)  # refuses an unknown vertex
        new = []
        for rec in self.edges:
            lo = -rec.label_origin if rec.origin == v else rec.label_origin
            lt = -rec.label_terminus if rec.terminus == v else rec.label_terminus
            new.append(EdgeRecord(rec.name, rec.origin, rec.terminus, lo, lt))
        return LabelledGraph(self.vertices, tuple(new))

    def sign_change_edge(self, name: str) -> "LabelledGraph":
        """Negate both labels carried by one edge."""
        if not self.has_edge(name):
            raise InputError(f"unknown edge {name!r}")
        new = [EdgeRecord(r.name, r.origin, r.terminus, -r.label_origin, -r.label_terminus)
               if r.name == name else r for r in self.edges]
        return LabelledGraph(self.vertices, tuple(new))

    def normalize_signs(self) -> "LabelledGraph":
        """Push negative signs off a spanning tree by admissible sign changes.

        Afterwards every spanning-tree label is positive and each remaining
        edge carries at most one negative label; when the modulus takes only
        positive values this makes every label positive.
        """
        tree = self.maximal_subtree()
        order, parent_dart = self._tree_structure(tree)
        g = self
        for v in order[1:]:
            dart = parent_dart[v]  # runs parent -> v
            if g.label(dart) < 0:
                g = g.sign_change_edge(dart.edge)
            if g.label(dart.reverse()) < 0:
                g = g.sign_change_vertex(v)
        for name in [r.name for r in self.edges if r.name not in tree]:
            if g.edge(name).label_origin < 0 and g.edge(name).label_terminus < 0:
                g = g.sign_change_edge(name)
        return g

    # -- reduction ---------------------------------------------------------

    def reduce(self) -> "LabelledGraph":
        """Collapse non-loop edges with a label +-1 until none remain.

        Collapsing an edge merges its endpoints: the vertex at the +-1 end
        disappears, and each of its remaining edge ends moves to the other
        endpoint with its label multiplied by the product of the collapsed
        edge's two labels.  Collapses follow declaration order; the result
        does not depend on that order, up to isomorphism.
        """
        self._require_connected()
        verts = list(self.vertices)
        recs = {r.name: [r.origin, r.terminus, r.label_origin, r.label_terminus]
                for r in self.edges}
        while True:
            target = next((name for name, (o, t, lo, lt) in recs.items()
                           if o != t and (abs(lo) == 1 or abs(lt) == 1)), None)
            if target is None:
                break
            o, t, lo, lt = recs.pop(target)
            dying, surviving = (o, t) if abs(lo) == 1 else (t, o)
            factor = lo * lt
            for fields in recs.values():
                if fields[0] == dying:
                    fields[0] = surviving
                    fields[2] *= factor
                if fields[1] == dying:
                    fields[1] = surviving
                    fields[3] *= factor
            verts.remove(dying)
        return LabelledGraph(tuple(verts), tuple(
            EdgeRecord(name, *fields) for name, fields in recs.items()))
