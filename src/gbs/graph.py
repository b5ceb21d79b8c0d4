"""Labelled multigraphs and their elementary transformations.

A labelled graph is a finite multigraph (loops and parallel edges allowed)
in which every oriented edge carries a nonzero integer label near its
origin.  A non-oriented edge is stored once as an :class:`EdgeRecord`; its
two orientations are addressed through :class:`Dart` handles, so the two
labels of an edge live independently at its two ends.  A construction may
give a graph its integer dart index instead; its records are then built on
first read.

Everything here is immutable: transformations (`reduce`, sign changes,
`normalize_signs`) return graphs and never modify their input, and all
operations are deterministic in the declaration order of vertices and edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, cycle
from math import gcd, prod
from operator import itemgetter
from typing import Any, Callable, Container, Iterable, Iterator, NamedTuple

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


# the most darts that the loops of `CycleBasisModulus.entries` may hold, as bounded
# from the tree depths before any is built; they are Θ(|E|·depth) long by nature
MODULUS_LOOP_LIMIT = 100_000


class CycleBasisModulus:
    """Label ratios around the fundamental cycles of the declaration-order spanning
    tree, one per non-tree edge e from o to t in declaration order: ratio(e)·pot(o)/pot(t)
    for potentials on the tree's vertices.  The signs are read off parity potentials;
    the `Fraction` values and the loops of `entries` are built when first read."""

    def __init__(self, graph: LabelledGraph):
        self._graph, self._cycles = graph, [i for i, kept in enumerate(graph._tree[0]) if not kept]

    @cached_property
    def _values(self) -> list[Fraction]:
        labels, heads, _, _ = self._graph._index
        pot = self._graph._potentials(Fraction(1), lambda p, a, b: p * Fraction(a, b))
        return [Fraction(labels[2 * i], labels[2 * i + 1]) * pot[heads[2 * i]]
                / pot[heads[2 * i + 1]] for i in self._cycles]

    def values(self) -> list[Fraction]:
        return list(self._values)

    def is_unimodular(self) -> bool:
        return all(abs(value) == 1 for value in self._values)

    def is_trivial(self) -> bool:
        return all(value == 1 for value in self._values)

    def takes_negative_value(self) -> bool:
        labels, heads, _, _ = self._graph._index
        negative = self._graph._negative()
        return any(negative[heads[2 * i]] ^ negative[heads[2 * i + 1]]
                   ^ ((labels[2 * i] < 0) != (labels[2 * i + 1] < 0)) for i in self._cycles)

    @cached_property
    def entries(self) -> tuple[ModulusEntry, ...]:
        """Each non-tree edge's forward dart, then the tree path back to its origin,
        with its value.  Past MODULUS_LOOP_LIMIT darts, bounded first, InputError."""
        g = self._graph
        heads, parent = g._index[1], g._tree[2]
        depth = g._potentials(0, lambda p, a, b: p + 1)
        bound = sum(1 + depth[heads[2 * i]] + depth[heads[2 * i + 1]] for i in self._cycles)
        if bound > MODULUS_LOOP_LIMIT:
            raise InputError(f"the modulus loops could hold {bound} darts, above the "
                             f"limit {MODULUS_LOOP_LIMIT}")
        entries = []
        for i, value in zip(self._cycles, self._values):
            a, b, up, down = heads[2 * i + 1], heads[2 * i], [], []
            while a != b:  # climb from the deeper end until the two meet
                if depth[a] >= depth[b]:
                    up.append(parent[a] ^ 1)
                    a = heads[parent[a]]
                else:
                    down.append(parent[b])
                    b = heads[parent[b]]
            loop = (Dart(g.edges[d >> 1].name, not d & 1) for d in (2 * i, *up, *reversed(down)))
            entries.append(ModulusEntry(tuple(loop), value))
        return tuple(entries)


def _find(into: list[int], factor: list[int], v: int) -> int:
    """The root of v in a union-find whose links carry factors.  Compresses the
    path: afterwards into[v] is the root and factor[v] the product on the way."""
    path = []
    while into[v] != v:
        path.append(v)
        v = into[v]
    product = 1
    for u in reversed(path):  # the nearest to the root first
        product *= factor[u]
        into[u], factor[u] = v, product
    return v


def _check_identifier(kind: str, name: str) -> None:
    if not isinstance(name, str) or not name or name.split() != [name]:
        raise InputError(f"bad {kind} identifier {name!r}: must be a nonempty "
                         "string without whitespace")


@dataclass(frozen=True)
class LabelledGraph:
    """Finite multigraph with a nonzero integer label at each edge end."""

    vertices: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]
    # the checking pass's tables (index by vertex, record by edge name), else built on first use
    vertex_position = cached_property(lambda self: dict(zip(self.vertices, count())))
    _edge_by_name = cached_property(lambda self: {rec.name: rec for rec in self.edges})

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
    def _trusted(cls, vertices: tuple[str, ...],
                 edges: tuple[EdgeRecord, ...] | Callable[[], Iterable[str]],
                 index: tuple[tuple[int, ...], tuple[int, ...]] | None = None) -> LabelledGraph:
        """A graph valid by construction, unchecked.  `edges` is its records or, for a
        graph born as its dart `index` (labels, heads), a rule that names its edges in
        order, from which the records are built when first read."""
        g = object.__new__(cls)
        g.__dict__.update({"vertices": vertices, "edges": edges} if index is None else
                          {"vertices": vertices, "_born": index, "_edge_names": edges})
        return g

    def __getattr__(self, name: str):  # only reached for an attribute missing from the graph
        if name != "edges" or "_born" not in self.__dict__:
            raise AttributeError(name)
        labels, heads = self._born  # the records of a graph born as its index, named by its rule
        ends = list(map(self.vertices.__getitem__, heads))
        edges = self.__dict__["edges"] = tuple(map(
            EdgeRecord, self._edge_names(), ends[::2], ends[1::2], labels[::2], labels[1::2]))
        return edges

    def __reduce__(self):  # pickled and copied as its records: a naming rule is code
        return LabelledGraph._trusted, (self.vertices, self.edges)

    # -- indexed access -------------------------------------------------

    @cached_property
    def _index(self) -> tuple[tuple[int, ...], ...]:
        """Dart 2i is edge i at its origin and 2i+1 at its terminus, so d ^ 1 reverses d.
        (labels, heads, order, start): the label and vertex index of each dart, and the
        darts at vertex v in declaration order, order[start[v]:start[v + 1]].  Built once
        per graph, as tuples of ints, which the cyclic garbage collector stops tracking;
        a graph born as its index was given its labels and heads."""
        labels, heads = self.__dict__.get("_born") or (
            tuple(chain.from_iterable(map(itemgetter(3, 4), self.edges))),
            tuple(map(self.vertex_position.__getitem__,
                      chain.from_iterable(map(itemgetter(1, 2), self.edges)))))
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

    def _component_walk(self, mask: bytes, roots: Iterable[int],
                        stops: bytearray | None = None) -> Iterator[list[int]]:
        """The one component walk.  Yields the vertex indices of each component of
        the spanning subgraph on the darts marked in `mask` that meets `roots`, in
        the order `roots` first reaches them, each in the discovery order of a
        depth-first walk with a stack.  `stops`, a byte per vertex, is 1 at the stops:
        a component that reaches one is dropped at once, unyielded, and the vertices
        it reached become stops; the walk writes 2 at the vertices it yields."""
        _, heads, order, start = self._index
        seen = bytearray(len(self.vertices)) if stops is None else stops
        for root in roots:
            if seen[root]:
                continue
            seen[root] = 2
            comp, stack = [root], [root]
            while stack:
                v = stack.pop()
                for d in order[start[v]:start[v + 1]]:
                    if mask[d] and seen[w := heads[d ^ 1]] != 2:
                        if seen[w]:  # a stop
                            for u in comp:
                                seen[u] = 1
                            comp = stack = []
                            break
                        seen[w] = 2
                        comp.append(w)
                        stack.append(w)
            if comp:
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
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """The vertex indices of each connected component, in discovery order."""
        return tuple(map(tuple, self._component_walk(b"\1" * len(self._index[1]),
                                                     range(len(self.vertices)))))

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Vertex sets of the connected components, each in discovery order (walked once)."""
        return tuple(tuple(map(self.vertices.__getitem__, comp)) for comp in self._components)

    def is_connected(self) -> bool:
        return len(self._components) == 1

    def betti(self) -> int:
        """First Betti number |E| - |V| + number of components."""
        return len(self._index[1]) // 2 - len(self.vertices) + len(self._components)

    @cached_property
    def _bridges(self) -> bytes:
        """1 for each edge whose removal splits its component, else 0 (so 0 for a loop
        or an edge with a parallel twin): a depth-first walk, then low points in reverse
        preorder (Tarjan, 1974)."""
        _, heads, order, start = self._index
        pre, into, walk = [-1] * len(self.vertices), [-1] * len(self.vertices), []
        for root in range(len(self.vertices)):
            if pre[root] < 0:
                pre[root], stack = len(walk), list(order[start[root]:start[root + 1]])
                walk.append(root)
                while stack:  # a vertex is entered by the first dart to it popped
                    e = stack.pop()
                    if pre[w := heads[e ^ 1]] < 0:
                        pre[w], into[w] = len(walk), e
                        walk.append(w)
                        stack += order[start[w]:start[w + 1]]
        low, bridges = pre[:], bytearray(len(heads) // 2)
        for v in reversed(walk):  # each child of v has passed its low point up
            for e in order[start[v]:start[v + 1]]:
                if pre[heads[e ^ 1]] < low[v] and e ^ 1 != into[v]:
                    low[v] = pre[heads[e ^ 1]]
            if into[v] >= 0:
                bridges[into[v] >> 1] = low[v] == pre[v]  # no other dart leaves v's subtree
                low[heads[into[v]]] = min(low[heads[into[v]]], low[v])
        return bytes(bridges)

    def is_reduced(self) -> bool:
        """True when every edge carrying a label +-1 is a loop."""
        return all(rec.is_loop or (abs(rec.label_origin) != 1 and abs(rec.label_terminus) != 1)
                   for rec in self.edges)

    # -- spanning tree and modulus --------------------------------------

    @cached_property
    def _tree(self) -> tuple[bytearray, list[int], list[int]]:
        """The declaration-order spanning tree: a union-find over the edges in
        declaration order picks its edges, and a breadth-first walk along them from
        vertex 0, in index dart order, orders the vertices.  (tree, walk, parent):
        a flag per edge, the vertices in walk order, and the tree dart from each
        vertex's parent to it (-1 at the root)."""
        self._require_connected()
        _, heads, order, start = self._index
        n = len(self.vertices)
        root, ones, tree = list(range(n)), [1] * n, bytearray(len(self.edges))
        for i in range(len(self.edges)):
            a, b = _find(root, ones, heads[2 * i]), _find(root, ones, heads[2 * i + 1])
            if a != b:
                root[a], tree[i] = b, 1
        parent, walk = [-1] * n, [0]
        for v in walk:  # the list grows as the queue
            for d in order[start[v]:start[v + 1]]:
                w = heads[d ^ 1]
                if tree[d >> 1] and w and parent[w] < 0:
                    parent[w] = d
                    walk.append(w)
        return tree, walk, parent

    def maximal_subtree(self) -> frozenset[str]:
        """Edge names of a spanning tree, chosen in declaration order."""
        return frozenset(rec.name for rec, kept in zip(self.edges, self._tree[0]) if kept)

    def _require_connected(self) -> None:
        if not self.is_connected():
            raise InputError("operation requires a connected graph")

    def _potentials(self, root: Any, step: Callable[[Any, int, int], Any]) -> list:
        """A potential per vertex on the tree: `root` at vertex 0, and at a child
        step(its parent's, label of the tree dart at the parent, label at the child)."""
        labels, heads, _, _ = self._index
        _, walk, parent = self._tree
        potential = [root] * len(self.vertices)
        for w in walk[1:]:
            d = parent[w]
            potential[w] = step(potential[heads[d]], labels[d], labels[d ^ 1])
        return potential

    def _negative(self) -> list[int]:
        """1 at each vertex whose tree path from vertex 0 has a negative label ratio."""
        return self._potentials(0, lambda p, a, b: p ^ ((a < 0) != (b < 0)))

    def modulus(self) -> CycleBasisModulus:
        """Label-ratio products over the fundamental cycles of the chosen tree."""
        return CycleBasisModulus(self)

    def has_nontrivial_center(self) -> bool:
        """True when the modulus is identically 1 on the cycle basis."""
        return self.modulus().is_trivial()

    # -- structural predicates ------------------------------------------

    def is_strongly_slide_free(self) -> bool:
        """No label near a vertex divides another label near the same vertex.  Only
        +-1 and the labels a with gcd(a, P/a) > 1, P the product of the magnitudes at
        the vertex, can divide another; gcd(P mod a² // a, a) is that gcd."""
        labels, _, order, start = self._index
        for v in range(len(self.vertices)):
            magnitudes = [abs(labels[d]) for d in order[start[v]:start[v + 1]]]
            product = prod(magnitudes)
            for a in magnitudes:  # a zero beside a's own is another label that a divides
                if (a == 1 or gcd(product % (a * a) // a, a) > 1) and list(
                        map(a.__rmod__, magnitudes)).count(0) > 1:
                    return False
        return True

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

    def _negated(self, negated: list) -> "LabelledGraph":
        """The labels of the darts flagged in `negated` negated; the graph itself if none is."""
        if not any(negated):
            return self
        signed = [-x if neg else x for x, neg in zip(self._index[0], negated)]
        return LabelledGraph._trusted(self.vertices, tuple(
            rec._replace(label_origin=signed[2 * i], label_terminus=signed[2 * i + 1])
            for i, rec in enumerate(self.edges)))

    def sign_change_vertex(self, v: str) -> "LabelledGraph":
        """Negate every label near v; the presented group is unchanged."""
        i = self._position(v)
        return self._negated([h == i for h in self._index[1]])

    def sign_change_edge(self, name: str) -> "LabelledGraph":
        """Negate both labels carried by one edge."""
        i = self.edges.index(self.edge(name))
        return self._negated([d >> 1 == i for d in range(2 * len(self.edges))])

    def normalize_signs(self) -> "LabelledGraph":
        """Push negative signs off a spanning tree by admissible sign changes.

        Afterwards every spanning-tree label is positive and each remaining
        edge carries at most one negative label; when the modulus takes only
        positive values this makes every label positive.  In one pass: a vertex
        is negated when its tree path from vertex 0 has a negative label ratio,
        then a tree edge when its label at its parent's end is negative, and
        any other edge when both its labels are.  The graph itself is returned
        when no label changes sign.
        """
        labels, heads, _, _ = self._index
        _, walk, parent = self._tree
        negative = self._negative()
        below = [(x < 0) ^ negative[v] for x, v in zip(labels, heads)]  # once vertices flip
        flip = [below[2 * i] and below[2 * i + 1] for i in range(len(self.edges))]
        for w in walk[1:]:
            flip[parent[w] >> 1] = below[parent[w]]
        return self._negated([flip[d >> 1] ^ negative[v] for d, v in enumerate(heads)])

    # -- reduction ---------------------------------------------------------

    def reduce(self) -> "LabelledGraph":
        """Collapse non-loop edges with a label +-1 until none remain.

        Collapsing an edge merges its endpoints: the vertex at the +-1 end
        disappears, and each of its remaining edge ends moves to the other
        endpoint with its label multiplied by the product of the collapsed
        edge's two labels.  Collapses follow declaration order; the result
        does not depend on that order, up to isomorphism; a reduced graph is
        returned itself.  A collapse keeps loops loops and multiplies labels by
        factors of magnitude at least 1, so one scan finds every collapse; each
        dead vertex links to the one it merged into with the collapse's factor.
        """
        self._require_connected()
        if self.is_reduced():
            return self
        labels, heads, _, _ = self._index
        into, factor = list(range(len(self.vertices))), [1] * len(self.vertices)

        def end(d: int) -> tuple[int, int]:  # the vertex dart d starts at now, its label there
            v = _find(into, factor, heads[d])
            return v, labels[d] * factor[heads[d]]

        collapsed = bytearray(len(self.edges))
        for i in range(len(self.edges)):
            (o, lo), (t, lt) = end(2 * i), end(2 * i + 1)
            if o != t and (abs(lo) == 1 or abs(lt) == 1):
                dying, surviving = (o, t) if abs(lo) == 1 else (t, o)
                into[dying], factor[dying], collapsed[i] = surviving, lo * lt, 1
        edges = []
        for i, rec in enumerate(self.edges):
            if not collapsed[i]:
                (o, lo), (t, lt) = end(2 * i), end(2 * i + 1)
                edges.append(EdgeRecord(rec.name, self.vertices[o], self.vertices[t], lo, lt))
        return LabelledGraph._trusted(
            tuple(v for i, v in enumerate(self.vertices) if into[i] == i), tuple(edges))

