"""Admissible maps between labelled graphs: finite-index subgroup witnesses.

A graph morphism together with positive vertex and edge multiplicities is
admissible when, at every source vertex x over v and every oriented edge e
with origin v, exactly k = gcd(m_x, |label of e|) lifts of e start at x,
each carrying label/k (sign preserved) and multiplicity m_x / k.  These
maps compose, and the label-preserving ones are exactly the topological
coverings.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InternalError
from .graph import Dart, EdgeRecord, LabelledGraph
from .plateau import Plateau, _plateaux, check_plateau, has_proper_plateau, label_primes
from .primes import smallest_prime_factor, valuation


# (vertex image, dart image, vertex multiplicities, edge multiplicities), by index
_Tables = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_NAME_VIEWS: dict[str, Callable[["AdmissibleMap"], Iterable[tuple]]] = {
    "vertex_map": lambda m: zip(m.source.vertices, map(m.target.vertices.__getitem__,
                                                       m._tables[0])),
    "edge_map": lambda m: ((rec.name, (m.target.edges[d >> 1].name, not d & 1))
                           for rec, d in zip(m.source.edges, m._tables[1][::2])),
    "vertex_multiplicity": lambda m: zip(m.source.vertices, m._tables[2]),
    "edge_multiplicity": lambda m: zip((rec.name for rec in m.source.edges), m._tables[3]),
}


@dataclass(frozen=True, eq=False)
class AdmissibleMap:
    """Graph morphism (commuting with reversal) with vertex and edge multiplicities.

    Its tables are built once: by the constructions, or for a map given by
    names by the check's structural pass.  The target dart of source dart d is
    2·image + flip, so the reverse of an image is image ^ 1.  The four name
    mappings are read-only; a map built from tables makes them on first use.
    """

    source: LabelledGraph
    target: LabelledGraph
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, bool]]  # edge -> (image edge, same orientation)
    vertex_multiplicity: Mapping[str, int]
    edge_multiplicity: Mapping[str, int]

    def __post_init__(self):  # read-only copies: no caller can make a kept verdict stale
        for name in _NAME_VIEWS:
            object.__setattr__(self, name, types.MappingProxyType(dict(getattr(self, name))))

    def __getattr__(self, name: str):  # only reached for a name missing from the map
        if name not in _NAME_VIEWS:
            raise AttributeError(name)
        view = self.__dict__[name] = types.MappingProxyType(dict(_NAME_VIEWS[name](self)))
        return view

    @classmethod
    def _from_tables(cls, source: LabelledGraph, target: LabelledGraph,
                     *tables: Iterable[int]) -> "AdmissibleMap":
        m = object.__new__(cls)  # its tables take the place of the name checks
        m.__dict__.update(source=source, target=target, _tables=tuple(map(tuple, tables)))
        return m

    @cached_property
    def _tables(self) -> _Tables:
        """The tables of a map given by names, from the check's structural pass."""
        tables = _name_tables(self)
        if isinstance(tables, Verification):
            raise InputError(f"not a map from its source to its target: {tables.render()}")
        return tables

    def map_dart(self, dart: Dart) -> Dart:
        image, same = self.edge_map[dart.edge]
        return Dart(image, dart.forward == same)

    @cached_property
    def vertex_preimages(self) -> dict[str, tuple[str, ...]]:
        table: list[list[str]] = [[] for _ in self.target.vertices]
        for x, v in zip(self.source.vertices, self._tables[0]):
            table[v].append(x)
        return dict(zip(self.target.vertices, map(tuple, table)))

    @cached_property
    def edge_preimages(self) -> dict[str, tuple[str, ...]]:
        table: list[list[str]] = [[] for _ in self.target.edges]
        for rec, d in zip(self.source.edges, self._tables[1][::2]):
            table[d >> 1].append(rec.name)
        return {rec.name: tuple(es) for rec, es in zip(self.target.edges, table)}

    def total_multiplicity(self) -> int:
        vertex_image, _, vertex_mult, _ = self._tables
        return sum(mult for v, mult in zip(vertex_image, vertex_mult) if v == 0)


@dataclass(frozen=True)
class Verification:
    ok: bool
    kind: str | None = None
    site: str | None = None
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def render(self) -> str:
        if self.ok:
            return "admissible=true"
        return f"admissible=false kind={self.kind} site={self.site} detail={self.message}"


def _fail(kind: str, site: str, message: str) -> Verification:
    return Verification(False, kind, site, message)


def verify_admissible(m: AdmissibleMap) -> Verification:
    """Check the local gcd condition and constant total multiplicity.

    The first violated site, in declaration order, is reported; morphism
    incidence problems are reported distinctly from multiplicity problems.
    The verdict is kept on m, so each map is checked once; == never reads it.
    """
    if "_verdict" not in m.__dict__:
        m.__dict__["_verdict"] = _check_admissible(m)
    return m.__dict__["_verdict"]


def _name_tables(m: AdmissibleMap) -> _Tables | Verification:
    """The structural pass of a map given by names: its tables, or the first failure."""
    src, tgt = m.source, m.target
    vm, em = m.vertex_map, m.edge_map
    vmult, emult = m.vertex_multiplicity, m.edge_multiplicity

    if vm.keys() != src.vertex_position.keys():
        return _fail("structure", "vertex-map", "vertex map must cover exactly the source vertices")
    if em.keys() != src._edge_by_name.keys():
        return _fail("structure", "edge-map", "edge map must cover exactly the source edges")
    tgt_vertex = tgt.vertex_position
    tgt_edge = dict(zip(tgt._edge_by_name, range(len(tgt.edges))))
    vertex_image: list[int] = []
    for x in src.vertices:  # names are strings, so no other image is in the target
        if not isinstance(vm[x], str) or vm[x] not in tgt_vertex:
            return _fail("structure", x, f"image vertex {vm[x]!r} is not in the target")
        mult = vmult.get(x)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult <= 0:
            return _fail("structure", x, f"vertex multiplicity {mult!r} must be a positive integer")
        vertex_image.append(tgt_vertex[vm[x]])
    dart_image: list[int] = []
    for rec in src.edges:
        try:
            image, same = em[rec.name]
        except (TypeError, ValueError):
            return _fail("structure", rec.name, f"edge map value {em[rec.name]!r} must be "
                                                "an (image edge, orientation flag) pair")
        if not isinstance(image, str) or image not in tgt_edge:
            return _fail("structure", rec.name, f"image edge {image!r} is not in the target")
        if not isinstance(same, bool):
            return _fail("structure", rec.name, f"orientation flag {same!r} must be a bool")
        mult = emult.get(rec.name)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult <= 0:
            return _fail("structure", rec.name, f"edge multiplicity {mult!r} must be a positive integer")
        d = 2 * tgt_edge[image] + (0 if same else 1)
        dart_image += (d, d ^ 1)
    return (tuple(vertex_image), tuple(dart_image), tuple(map(vmult.__getitem__, src.vertices)),
            tuple(emult[rec.name] for rec in src.edges))


def _check_admissible(m: AdmissibleMap) -> Verification:
    try:
        vertex_image, dart_image, vertex_mult, edge_mult = tables = m._tables
    except InputError:  # a map given by names that fails its structural pass
        return _name_tables(m)
    src, tgt = m.source, m.target
    # each fact is read once from the tables and the two dart indices; a Dart only
    # names a failing site
    src_labels, src_heads, src_order, src_start = src._index
    tgt_labels, tgt_heads, tgt_order, tgt_start = tgt._index
    if (list(map(len, tables)) != [len(src.vertices), len(src_heads), len(src.vertices),
                                   len(src_heads) // 2]
            or not set(vertex_image).issubset(range(len(tgt.vertices)))
            or not set(dart_image).issubset(range(len(tgt_heads)))
            or dart_image[1::2] != tuple(d ^ 1 for d in dart_image[::2])
            or min(vertex_mult) < 1 or min(edge_mult, default=1) < 1):
        return _fail("structure", "tables", "the map's tables do not fit its source and target")
    origins = list(map(vertex_image.__getitem__, src_heads))
    if list(map(tgt_heads.__getitem__, dart_image)) != origins:  # each image starts there
        d = next(d for d, v in enumerate(origins) if tgt_heads[dart_image[d]] != v)
        return _fail("incidence", src.edges[d >> 1].name,
                     "edge image is not incident to the images of its endpoints")

    totals = [0] * len(tgt.vertices)
    for x_index, (x, v, mult_x) in enumerate(zip(src.vertices, vertex_image, vertex_mult)):
        totals[v] += mult_x
        grouped: dict[int, list[int]] = {}
        for d in src_order[src_start[x_index]:src_start[x_index + 1]]:
            grouped.setdefault(dart_image[d], []).append(d)
        for target_dart in tgt_order[tgt_start[v]:tgt_start[v + 1]]:
            label = tgt_labels[target_dart]
            k = math.gcd(mult_x, abs(label))
            lifts = grouped.get(target_dart, ())
            if len(lifts) != k:
                return _fail("condition-star", f"{x}/{tgt.darts()[target_dart].render()}",
                             f"expected {k} lifts, found {len(lifts)}")
            want_label = label // k
            want_mult = mult_x // k
            for lift in lifts:
                if src_labels[lift] != want_label:
                    return _fail("condition-star", f"{x}/{src.darts()[lift].render()}",
                                 f"lift label {src_labels[lift]} differs from {want_label}")
                if edge_mult[lift >> 1] != want_mult:
                    return _fail("condition-star", f"{x}/{src.edges[lift >> 1].name}",
                                 f"lift multiplicity {edge_mult[lift >> 1]} "
                                 f"differs from {want_mult}")

    if len(set(totals)) > 1:
        low = min(range(len(totals)), key=lambda v: (totals[v], v))
        return _fail("total-multiplicity", tgt.vertices[low],
                     f"preimage multiplicities sum to {sorted(set(totals))}")
    return Verification(True)


def assert_admissible(m: AdmissibleMap, context: str) -> AdmissibleMap:
    result = verify_admissible(m)
    if not result:
        raise InternalError(f"{context} produced a non-admissible map: {result.render()}")
    return m


def identity_map(g: LabelledGraph) -> AdmissibleMap:
    n, e = len(g.vertices), len(g.edges)
    return AdmissibleMap._from_tables(g, g, range(n), range(2 * e), (1,) * n, (1,) * e)


def compose(outer: AdmissibleMap, inner: AdmissibleMap) -> AdmissibleMap:
    """Composite of inner: K -> H with outer: H -> G; the inputs and the
    composite are checked, and a map already checked is not checked again."""
    if inner.target != outer.source:
        raise InputError("compose requires inner.target == outer.source")
    for role, m in (("outer", outer), ("inner", inner)):
        result = verify_admissible(m)
        if not result:
            raise InputError(f"compose: the {role} map is not admissible: {result.render()}")
    outer_vertex, outer_dart, outer_vmult, outer_emult = outer._tables
    inner_vertex, inner_dart, inner_vmult, inner_emult = inner._tables
    return assert_admissible(AdmissibleMap._from_tables(
        inner.source, outer.target, map(outer_vertex.__getitem__, inner_vertex),
        map(outer_dart.__getitem__, inner_dart),
        map(int.__mul__, inner_vmult, map(outer_vmult.__getitem__, inner_vertex)),
        (mult * outer_emult[d >> 1] for mult, d in zip(inner_emult, inner_dart[::2]))),
        "compose")


# -- covering characterizations ------------------------------------------------


def covering_characterizations(m: AdmissibleMap) -> dict[str, bool]:
    """Four equivalent descriptions of a topological covering, evaluated independently."""
    if not verify_admissible(m):
        raise InputError("covering characterizations require an admissible map")
    vertex_image, dart_image, vertex_mult, edge_mult = m._tables
    src_labels, src_heads, src_order, src_start = m.source._index
    tgt_labels, _, tgt_order, tgt_start = m.target._index

    # the darts at x map onto the darts at its image, which run in index order
    local_bijection = all(
        sorted(map(dart_image.__getitem__, src_order[src_start[x]:src_start[x + 1]]))
        == list(tgt_order[tgt_start[v]:tgt_start[v + 1]]) for x, v in enumerate(vertex_image))
    unit_gcds = all(math.gcd(mult, abs(tgt_labels[d])) == 1
                    for v, mult in zip(vertex_image, vertex_mult)
                    for d in tgt_order[tgt_start[v]:tgt_start[v + 1]])
    label_preserving = tuple(map(tgt_labels.__getitem__, dart_image)) == src_labels
    # one value on a component: each edge carries the multiplicity of both its ends
    constant_multiplicity = all(edge_mult[d >> 1] == vertex_mult[x]
                                for d, x in enumerate(src_heads))
    return {
        "local-bijection": local_bijection,
        "unit-gcds": unit_gcds,
        "label-preserving": label_preserving,
        "constant-multiplicity": constant_multiplicity,
    }


def is_topological_covering(m: AdmissibleMap) -> bool:
    """True when the map preserves labels, i.e. every local gcd is 1.

    All four characterizations are evaluated and must agree; a mismatch
    would be a bug and raises InternalError.
    """
    chars = covering_characterizations(m)
    if len(set(chars.values())) > 1:
        raise InternalError(f"covering characterizations disagree: {chars}")
    return chars["unit-gcds"]


# -- constructions -------------------------------------------------------------


# (multiplicity, sheet numbers) of a vertex
_VertexSheets = tuple[int, Iterable[int | str]]
# (label at origin, label at terminus, multiplicity, origin places, terminus places) of an
# edge: its sheet j joins the sheets at places origins[j] and termini[j] of its two ends
_EdgeSheets = tuple[int, int, int, Sequence[int], Iterable[int]]


def _sheeted_cover(g: LabelledGraph, vertex_sheets: Iterable[_VertexSheets],
                   edge_sheets: Iterable[_EdgeSheets],
                   edge_numbers: Callable[[int], Iterable[int | str]]) -> AdmissibleMap:
    """Assemble a cover of g, born as its dart index, from the sheets of its vertices
    and of its edges, each in the declaration order of g, unchecked.

    Sheet i of vertex v is named `v.i`.  The sheets of the edge e of index k are
    named `e.j` for the numbers j of edge_numbers(k) in order, when the cover's edges
    are first read.  Every edge maps onto its base edge with the same orientation.
    """
    vertices, vertex_image, vertex_mult, offsets = [], [], [], []
    for v_index, (v, (mult, sheets)) in enumerate(zip(g.vertices, vertex_sheets)):
        offsets.append(len(vertices))
        vertices += [f"{v}.{i}" for i in sheets]
        vertex_image += [v_index] * (len(vertices) - offsets[-1])
        vertex_mult += [mult] * (len(vertices) - offsets[-1])
    base_heads, labels, heads, dart_image, edge_mult = g._index[1], [], [], [], []
    for e, (lo, lt, mult, origins, termini) in enumerate(edge_sheets):
        o, t = offsets[base_heads[2 * e]], offsets[base_heads[2 * e + 1]]
        heads += chain.from_iterable(zip(map(o.__add__, origins), map(t.__add__, termini)))
        labels += (lo, lt) * len(origins)
        dart_image += (2 * e, 2 * e + 1) * len(origins)
        edge_mult += [mult] * len(origins)
    source = LabelledGraph._trusted(tuple(vertices), lambda: (
        f"{rec.name}.{j}" for k, rec in enumerate(g.edges) for j in edge_numbers(k)),
        (tuple(labels), tuple(heads)))
    return AdmissibleMap._from_tables(source, g, vertex_image, dart_image, vertex_mult, edge_mult)


# the most source vertices of a `branched_cover`, a `voltage_cover`, a default
# `plateau_free_cover`, a commensurability witness and any `gbs cover` output;
# each predicts the size first and refuses a larger cover
COVER_VERTEX_LIMIT = 10_000


def check_cover_size(predicted: int) -> None:
    """Refuse a cover predicted to have more than COVER_VERTEX_LIMIT vertices."""
    if predicted > COVER_VERTEX_LIMIT:
        raise InputError(f"cover would have {predicted} vertices, above the limit "
                         f"{COVER_VERTEX_LIMIT}")


def branched_cover(g: LabelledGraph, plateau: Plateau) -> AdmissibleMap:
    """Degree-p cover ramified over a proper p-plateau.

    Points of the plateau keep one preimage of multiplicity p; everything
    else is copied p times with multiplicity 1.  Labels are copied except
    on oriented edges leaving the plateau, whose labels are divided by p.
    """
    if not check_plateau(g, plateau):
        raise InputError("not a plateau of this graph")
    if len(plateau.vertices) == len(g.vertices) and len(plateau.edges) == len(g.edges):
        raise InputError("branched covers require a proper plateau")
    p = plateau.prime
    inside = plateau.vertices
    check_cover_size(len(inside) + p * (len(g.vertices) - len(inside)))

    def edge_sheets(rec: EdgeRecord) -> _EdgeSheets:
        if rec.name in plateau.edges:
            return rec.label_origin, rec.label_terminus, p, (0,), (0,)
        o_in, t_in = rec.origin in inside, rec.terminus in inside
        return (rec.label_origin // p if o_in else rec.label_origin,
                rec.label_terminus // p if t_in else rec.label_terminus,
                1, (0,) * p if o_in else range(p), (0,) * p if t_in else range(p))

    vertex_sheets = [(p, (0,)) if v in inside else (1, range(1, p + 1)) for v in g.vertices]
    return assert_admissible(_sheeted_cover(
        g, vertex_sheets, map(edge_sheets, g.edges),
        lambda i: (0,) if g.edges[i].name in plateau.edges else range(1, p + 1)),
        "branched_cover")


def voltage_cover(g: LabelledGraph, degree: int,
                  assignment: Mapping[str, Sequence[int]]) -> AdmissibleMap:
    """Topological covering built from one permutation of {0..degree-1} per edge.

    Sheet i of an edge runs from (origin, i) to (terminus, sigma(i)); labels
    are copied and every multiplicity is 1.  The source may be disconnected;
    use :func:`restrict_to_component` to pick out a connected piece.  More
    than COVER_VERTEX_LIMIT sheets of vertices are refused before anything
    is built.
    """
    if degree < 1:
        raise InputError("degree must be positive")
    check_cover_size(degree * len(g.vertices))
    perms: dict[str, tuple[int, ...]] = {}
    for rec in g.edges:
        if rec.name not in assignment:
            raise InputError(f"no permutation assigned to edge {rec.name!r}")
        sigma = tuple(assignment[rec.name])
        if sorted(sigma) != list(range(degree)):
            raise InputError(f"assignment for edge {rec.name!r} is not a "
                             f"permutation of 0..{degree - 1}")
        perms[rec.name] = sigma
    sheets = range(1, degree + 1)
    cover = _sheeted_cover(g, [(1, sheets)] * len(g.vertices), (
        (rec.label_origin, rec.label_terminus, 1, range(degree), perms[rec.name])
        for rec in g.edges), lambda i: sheets)
    return assert_admissible(cover, "voltage_cover")


def restrict_to_component(m: AdmissibleMap, vertex: str | None = None) -> AdmissibleMap:
    """Restrict a map to one connected component of its source.

    Defaults to the component containing the first source vertex in
    declaration order.  The target is left untouched; over a connected
    target the restriction is again admissible.  A component holding every
    source vertex is the whole source, and `m` itself is returned.
    """
    src, every = m.source, b"\1" * len(m.source._index[1])
    reached = next(src._component_walk(every, (0 if vertex is None else src._position(vertex),)))
    if len(reached) == len(src.vertices):
        return m
    vertices, edges = sorted(reached), sorted(src._kept_edges(reached, every))
    vertex_image, dart_image, vertex_mult, edge_mult = m._tables
    sub = LabelledGraph._trusted(tuple(map(src.vertices.__getitem__, vertices)),
                                 tuple(map(src.edges.__getitem__, edges)))
    return AdmissibleMap._from_tables(
        sub, m.target, map(vertex_image.__getitem__, vertices),
        (dart_image[d] for i in edges for d in (2 * i, 2 * i + 1)),
        map(vertex_mult.__getitem__, vertices), map(edge_mult.__getitem__, edges))


def orientation_double_cover(g: LabelledGraph) -> AdmissibleMap | None:
    """Connected index-2 cover on which the modulus becomes positive.

    Edges whose two labels have opposite signs swap the two sheets.  When
    the modulus is already positive there is nothing to do and None is
    returned (the identity map already serves).
    """
    if not g.modulus().takes_negative_value():
        return None
    assignment = {}
    for rec in g.edges:
        swap = rec.label_origin * rec.label_terminus < 0
        assignment[rec.name] = (1, 0) if swap else (0, 1)
    cover = voltage_cover(g, 2, assignment)
    if not cover.source.is_connected():
        raise InternalError("orientation double cover should be connected")
    if cover.source.modulus().takes_negative_value():
        raise InternalError("orientation double cover should have positive modulus")
    return cover


def extract_proper_plateau(m: AdmissibleMap) -> Plateau:
    """Recover a proper plateau of the target from a non-covering admissible map.

    Picks the first site (declaration order) whose local gcd exceeds 1 and
    its smallest prime p; target vertices with a preimage of maximal p-adic
    multiplicity valuation, joined by edges with both labels coprime to p,
    split into p-plateaux.  The component containing the earliest target
    vertex is returned.
    """
    if not verify_admissible(m):
        raise InputError("extract_proper_plateau requires an admissible map")
    tgt = m.target
    vertex_image, _, vertex_mult, _ = m._tables
    labels, _, order, start = tgt._index
    gcds = (math.gcd(mult, abs(labels[d])) for v, mult in zip(vertex_image, vertex_mult)
            for d in order[start[v]:start[v + 1]])
    k = next((k for k in gcds if k > 1), None)
    if k is None:
        raise InputError("topological covering: no proper plateau to extract")
    prime = smallest_prime_factor(k)

    delta = max(valuation(mult, prime) for mult in vertex_mult)
    marked = {tgt.vertices[v] for v, mult in zip(vertex_image, vertex_mult)
              if valuation(mult, prime) >= delta}
    kept_edges = {rec.name for rec in tgt.edges
                  if rec.origin in marked and rec.terminus in marked
                  and rec.label_origin % prime != 0
                  and rec.label_terminus % prime != 0}

    first = min(marked, key=tgt.vertex_position.get)
    vertices, edges = next(tgt.subgraph_components(kept_edges, (first,)))
    plateau = Plateau(prime, frozenset(vertices), edges)
    if plateau not in _plateaux(tgt, prime):
        raise InternalError("extracted component is not a proper plateau")
    return plateau


# -- plateau-free covers -------------------------------------------------------

def _prime_power_cover(g: LabelledGraph, primes: Iterable[int],
                       size_limit: int) -> AdmissibleMap | None:
    """Cover of g with no proper p-plateau upstairs for any p in `primes`, unchecked.

    Each prime's rounds run on g, from the labels the previous prime left:
    a round divides by p every label leaving the union of the proper
    p-plateaux.  After R rounds a vertex or edge that lay in the union k
    times gets p**(R - k) sheets of multiplicity p**k, edge sheet j joining
    vertex sheets j modulo their counts; a sheet is the tuple of its
    numbers, first prime first.  Returns None if no prime has a round, and
    refuses more than `size_limit` vertices before building anything.

    Running the rounds on g is enough: dividing labels by powers of p
    changes no label's divisibility by another prime q, and every dart still
    lifts, so the q-plateaux of the cover for p are the components of the
    preimages of g's; the cover is a pullback (Stallings 1983).

    If g is connected, so is each single-prime cover:
    1. An edge kept in a round (both labels prime to p) is never divided,
       so it stays kept in every later round.
    2. A proper plateau P of round r+1 meets the round-r union U_r: else P
       has the same labels, kept edges and boundary in round r, so it is a
       round-r plateau and lies in U_r.  So P meets some round-r plateau Q;
       Q stays joined by kept edges, hence Q lies in P.
    3. Chaining down from a last-round plateau gives a vertex in every
       union: it has occupancy R and hence one sheet.
    4. For each j < p**R, the vertex sheets j mod n_v and the edge sheets
       j mod n_e form a connected copy of g, since n_origin and n_terminus
       divide n_e.  Every vertex sheet lies in such a copy, and every copy
       contains that one-sheet vertex.
    """
    labels, heads, order, start = g._index
    labels = list(labels)  # a label per dart, divided as the rounds go
    n, edge_at = len(g.vertices), {rec.name: i for i, rec in enumerate(g.edges)}
    vertex_mult, edge_mult = [1] * n, [1] * len(edge_at)
    # the sheet counts of each vertex and edge, one for each prime with a round
    vertex_counts, edge_counts = [[] for _ in range(n)], [[] for _ in edge_at]
    for p in primes:
        vertex_count, edge_count, rounds = [0] * n, [0] * len(edge_at), 0
        while plateaux := _plateaux(g, p, labels):
            rounds += 1
            union_edges = {edge_at[name] for plat in plateaux for name in plat.edges}
            for i in union_edges:
                edge_count[i] += 1
            for v in (g.vertex_position[v] for plat in plateaux for v in plat.vertices):
                vertex_count[v] += 1
                for d in order[start[v]:start[v + 1]]:  # divide the labels leaving the union
                    if d >> 1 not in union_edges:
                        if labels[d] % p != 0:
                            raise InternalError("label leaving a plateau union must be divisible")
                        labels[d] //= p
        if not rounds:
            continue
        for mult, counts, occupancy in ((vertex_mult, vertex_counts, vertex_count),
                                        (edge_mult, edge_counts, edge_count)):
            for x, k in enumerate(occupancy):
                mult[x] *= p ** k
                counts[x].append(p ** (rounds - k))
        predicted = sum(map(math.prod, vertex_counts))
        if predicted > size_limit:
            raise InputError(f"plateau-free cover would need {predicted} vertices "
                             f"for prime {p}, above the limit {size_limit}")
    if not vertex_counts[0]:  # no prime had a round
        return None

    def sheets(counts: list[int]) -> Iterator[str]:
        """The sheets of `counts` named by their numbers from 1, first prime first."""
        return map(".".join, product(*([str(j + 1) for j in range(c)] for c in counts)))

    def positions(counts: list[int], modulo: list[int]) -> list[int]:
        """The place of sheet j mod `modulo` among those of `modulo`, for each sheet j."""
        out = [0]
        for c, m in zip(counts, modulo):
            out = [x * m + j % m for x in out for j in range(c)]
        return out

    return _sheeted_cover(g, zip(vertex_mult, map(sheets, vertex_counts)), (
        (labels[2 * i], labels[2 * i + 1], edge_mult[i],
         positions(counts, vertex_counts[heads[2 * i]]),
         positions(counts, vertex_counts[heads[2 * i + 1]]))
        for i, counts in enumerate(edge_counts)), lambda i: sheets(edge_counts[i]))


def plateau_free_cover(g: LabelledGraph,
                       size_limit: int = COVER_VERTEX_LIMIT) -> AdmissibleMap:
    """Admissible map onto g with connected, plateau-free source.

    For each prime, labels leaving the union of its proper plateaux are
    divided until none remains, and the sheets of all primes multiply into
    one cover.  Its total multiplicity is a product of one prime power per
    prime, so labels with many primes can demand covers too large to
    materialize: one past `size_limit` source vertices is refused with
    InputError before anything is built.  Only the final map is checked.
    """
    g._require_connected()
    cover = _prime_power_cover(g, label_primes(g), size_limit) or identity_map(g)
    if not cover.source.is_connected():
        raise InternalError("plateau_free_cover left a disconnected source")
    if has_proper_plateau(cover.source):
        raise InternalError("plateau_free_cover left a proper plateau")
    return assert_admissible(cover, "plateau_free_cover")
