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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError, InternalError
from .graph import Dart, EdgeRecord, LabelledGraph
from .plateau import (Plateau, check_plateau, has_proper_plateau, label_primes,
                      plateaux_for_prime)
from .primes import smallest_prime_factor, valuation


@dataclass(frozen=True, eq=False)
class AdmissibleMap:
    """Graph morphism (commuting with reversal) with vertex and edge multiplicities."""

    source: LabelledGraph
    target: LabelledGraph
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, bool]]  # edge -> (image edge, same orientation)
    vertex_multiplicity: Mapping[str, int]
    edge_multiplicity: Mapping[str, int]

    def map_dart(self, dart: Dart) -> Dart:
        image, same = self.edge_map[dart.edge]
        return Dart(image, dart.forward == same)

    @cached_property
    def vertex_preimages(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {v: [] for v in self.target.vertices}
        for x in self.source.vertices:
            table[self.vertex_map[x]].append(x)
        return {v: tuple(xs) for v, xs in table.items()}

    @cached_property
    def edge_preimages(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {r.name: [] for r in self.target.edges}
        for rec in self.source.edges:
            table[self.edge_map[rec.name][0]].append(rec.name)
        return {name: tuple(es) for name, es in table.items()}

    def lifts_at(self, x: str, target_dart: Dart) -> tuple[Dart, ...]:
        """Source darts with origin x mapping onto the given target dart."""
        return tuple(d for d in self.source.darts_at(x)
                     if self.map_dart(d) == target_dart)

    def local_gcd(self, x: str, target_dart: Dart) -> int:
        return math.gcd(self.vertex_multiplicity[x],
                        abs(self.target.label(target_dart)))

    def total_multiplicity(self) -> int:
        v = self.target.vertices[0]
        return sum(self.vertex_multiplicity[x] for x in self.vertex_preimages[v])


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
    """
    src, tgt = m.source, m.target
    vm, em = m.vertex_map, m.edge_map

    if set(vm) != set(src.vertices):
        return _fail("structure", "vertex-map", "vertex map must cover exactly the source vertices")
    if set(em) != {r.name for r in src.edges}:
        return _fail("structure", "edge-map", "edge map must cover exactly the source edges")
    for x in src.vertices:
        if not tgt.has_vertex(vm[x]):
            return _fail("structure", x, f"image vertex {vm[x]!r} is not in the target")
        mult = m.vertex_multiplicity.get(x)
        if not isinstance(mult, int) or mult <= 0:
            return _fail("structure", x, f"vertex multiplicity {mult!r} must be a positive integer")
    for rec in src.edges:
        image, _ = em[rec.name]
        if not tgt.has_edge(image):
            return _fail("structure", rec.name, f"image edge {image!r} is not in the target")
        mult = m.edge_multiplicity.get(rec.name)
        if not isinstance(mult, int) or mult <= 0:
            return _fail("structure", rec.name, f"edge multiplicity {mult!r} must be a positive integer")

    for rec in src.edges:
        for dart in (Dart(rec.name, True), Dart(rec.name, False)):
            if tgt.origin(m.map_dart(dart)) != vm[src.origin(dart)]:
                return _fail("incidence", rec.name,
                             "edge image is not incident to the images of its endpoints")

    for x in src.vertices:
        v = vm[x]
        mult_x = m.vertex_multiplicity[x]
        grouped: dict[Dart, list[Dart]] = {}
        for dart in src.darts_at(x):
            grouped.setdefault(m.map_dart(dart), []).append(dart)
        for target_dart in tgt.darts_at(v):
            label = tgt.label(target_dart)
            k = math.gcd(mult_x, abs(label))
            lifts = grouped.get(target_dart, [])
            if len(lifts) != k:
                return _fail("condition-star", f"{x}/{target_dart.render()}",
                             f"expected {k} lifts, found {len(lifts)}")
            want_label = label // k
            want_mult = mult_x // k
            for lift in lifts:
                if src.label(lift) != want_label:
                    return _fail("condition-star", f"{x}/{lift.render()}",
                                 f"lift label {src.label(lift)} differs from {want_label}")
                if m.edge_multiplicity[lift.edge] != want_mult:
                    return _fail("condition-star", f"{x}/{lift.edge}",
                                 f"lift multiplicity {m.edge_multiplicity[lift.edge]} "
                                 f"differs from {want_mult}")

    totals = {}
    for v in tgt.vertices:
        totals[v] = sum(m.vertex_multiplicity[x] for x in m.vertex_preimages[v])
    if len(set(totals.values())) > 1:
        low = min(totals, key=lambda v: (totals[v], tgt.vertex_position[v]))
        return _fail("total-multiplicity", low,
                     f"preimage multiplicities sum to {sorted(set(totals.values()))}")
    return Verification(True)


def assert_admissible(m: AdmissibleMap, context: str) -> AdmissibleMap:
    result = verify_admissible(m)
    if not result:
        raise InternalError(f"{context} produced a non-admissible map: {result.render()}")
    return m


def identity_map(g: LabelledGraph) -> AdmissibleMap:
    return AdmissibleMap(g, g, {v: v for v in g.vertices},
                         {r.name: (r.name, True) for r in g.edges},
                         {v: 1 for v in g.vertices}, {r.name: 1 for r in g.edges})


def _compose(outer: AdmissibleMap, inner: AdmissibleMap) -> AdmissibleMap:
    """Composite of inner: K -> H with outer: H -> G, unchecked: admissible maps compose."""
    vm = {x: outer.vertex_map[inner.vertex_map[x]] for x in inner.source.vertices}
    em = {}
    for rec in inner.source.edges:
        mid, same1 = inner.edge_map[rec.name]
        out, same2 = outer.edge_map[mid]
        em[rec.name] = (out, same1 == same2)
    vmult = {x: inner.vertex_multiplicity[x]
             * outer.vertex_multiplicity[inner.vertex_map[x]]
             for x in inner.source.vertices}
    emult = {rec.name: inner.edge_multiplicity[rec.name]
             * outer.edge_multiplicity[inner.edge_map[rec.name][0]]
             for rec in inner.source.edges}
    return AdmissibleMap(inner.source, outer.target, vm, em, vmult, emult)


def compose(outer: AdmissibleMap, inner: AdmissibleMap) -> AdmissibleMap:
    """Composite of two admissible maps; the inputs and the composite are checked."""
    if inner.target != outer.source:
        raise InputError("compose requires inner.target == outer.source")
    for role, m in (("outer", outer), ("inner", inner)):
        result = verify_admissible(m)
        if not result:
            raise InputError(f"compose: the {role} map is not admissible: {result.render()}")
    return assert_admissible(_compose(outer, inner), "compose")


# -- covering characterizations ------------------------------------------------


def covering_characterizations(m: AdmissibleMap) -> dict[str, bool]:
    """Four equivalent descriptions of a topological covering, evaluated independently."""
    if not verify_admissible(m):
        raise InputError("covering characterizations require an admissible map")
    src, tgt = m.source, m.target

    local_bijection = True
    for x in src.vertices:
        images = [m.map_dart(d) for d in src.darts_at(x)]
        if sorted(images) != sorted(tgt.darts_at(m.vertex_map[x])):
            local_bijection = False
            break

    unit_gcds = all(m.local_gcd(x, td) == 1
                    for x in src.vertices
                    for td in tgt.darts_at(m.vertex_map[x]))

    label_preserving = all(src.label(d) == tgt.label(m.map_dart(d))
                           for d in src.darts())

    constant_multiplicity = True
    for vertices, edges in src.subgraph_components():
        values = {m.vertex_multiplicity[x] for x in vertices}
        values.update(m.edge_multiplicity[name] for name in edges)
        if len(values) > 1:
            constant_multiplicity = False
            break

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
_VertexSheets = tuple[int, Iterable[int]]
# (label at origin, label at terminus, multiplicity, sheets) of an edge, where
# sheet j is the triple (j, origin sheet, terminus sheet)
_EdgeSheets = tuple[int, int, int, Iterable[tuple[int, int, int]]]


def _sheeted_cover(g: LabelledGraph, vertex_sheets: Callable[[str], _VertexSheets],
                   edge_sheets: Callable[[EdgeRecord], _EdgeSheets]) -> AdmissibleMap:
    """Assemble a cover of g from its sheets, unchecked.

    Sheet i of vertex v is named `v.i` and sheet j of edge e is named `e.j`,
    in the declaration order of g; every edge maps onto its base edge with
    the same orientation.
    """
    vertices: list[str] = []
    vmap: dict[str, str] = {}
    vmult: dict[str, int] = {}
    for v in g.vertices:
        mult, sheets = vertex_sheets(v)
        for i in sheets:
            name = f"{v}.{i}"
            vertices.append(name)
            vmap[name] = v
            vmult[name] = mult
    records: list[EdgeRecord] = []
    emap: dict[str, tuple[str, bool]] = {}
    emult: dict[str, int] = {}
    for rec in g.edges:
        lo, lt, mult, sheets = edge_sheets(rec)
        for j, i, k in sheets:
            name = f"{rec.name}.{j}"
            records.append(EdgeRecord(name, f"{rec.origin}.{i}", f"{rec.terminus}.{k}", lo, lt))
            emap[name] = (rec.name, True)
            emult[name] = mult
    source = LabelledGraph(tuple(vertices), tuple(records))
    return AdmissibleMap(source, g, vmap, emap, vmult, emult)


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

    def vertex_sheets(v: str) -> _VertexSheets:
        return (p, (0,)) if v in inside else (1, range(1, p + 1))

    def edge_sheets(rec: EdgeRecord) -> _EdgeSheets:
        if rec.name in plateau.edges:
            return rec.label_origin, rec.label_terminus, p, ((0, 0, 0),)
        o_in, t_in = rec.origin in inside, rec.terminus in inside
        return (rec.label_origin // p if o_in else rec.label_origin,
                rec.label_terminus // p if t_in else rec.label_terminus,
                1, ((i, 0 if o_in else i, 0 if t_in else i) for i in range(1, p + 1)))

    return assert_admissible(_sheeted_cover(g, vertex_sheets, edge_sheets), "branched_cover")


def voltage_cover(g: LabelledGraph, degree: int,
                  assignment: Mapping[str, Sequence[int]]) -> AdmissibleMap:
    """Topological covering built from one permutation of {0..degree-1} per edge.

    Sheet i of an edge runs from (origin, i) to (terminus, sigma(i)); labels
    are copied and every multiplicity is 1.  The source may be disconnected;
    use :func:`split_components` or :func:`restrict_to_component` to pick
    out connected pieces.
    """
    if degree < 1:
        raise InputError("degree must be positive")
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
    cover = _sheeted_cover(
        g, lambda v: (1, sheets),
        lambda rec: (rec.label_origin, rec.label_terminus, 1,
                     ((i, i, perms[rec.name][i - 1] + 1) for i in sheets)))
    return assert_admissible(cover, "voltage_cover")


def restrict_to_component(m: AdmissibleMap, vertex: str | None = None) -> AdmissibleMap:
    """Restrict a map to one connected component of its source.

    Defaults to the component containing the first source vertex in
    declaration order.  The target is left untouched; over a connected
    target the restriction is again admissible.  A component holding every
    source vertex is the whole source, and `m` itself is returned.
    """
    src = m.source
    if vertex is None:
        vertex = src.vertices[0]
    reached, edges = next(src.subgraph_components(starts=(vertex,)))
    if len(reached) == len(src.vertices):
        return m
    component = set(reached)
    vertices = tuple(v for v in src.vertices if v in component)
    records = tuple(r for r in src.edges if r.name in edges)
    sub = LabelledGraph(vertices, records)
    return AdmissibleMap(sub, m.target,
                         {v: m.vertex_map[v] for v in vertices},
                         {r.name: m.edge_map[r.name] for r in records},
                         {v: m.vertex_multiplicity[v] for v in vertices},
                         {r.name: m.edge_multiplicity[r.name] for r in records})


def split_components(m: AdmissibleMap) -> list[AdmissibleMap]:
    return [restrict_to_component(m, comp[0]) for comp in m.source.components()]


def orientation_double_cover(g: LabelledGraph) -> AdmissibleMap | None:
    """Connected index-2 cover on which the modulus becomes positive.

    Edges whose two labels have opposite signs swap the two sheets.  When
    the modulus is already positive there is nothing to do and None is
    returned (the identity map already serves).
    """
    g._require_connected()
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
    src, tgt = m.source, m.target
    prime = None
    for x in src.vertices:
        for target_dart in tgt.darts_at(m.vertex_map[x]):
            k = m.local_gcd(x, target_dart)
            if k > 1:
                prime = smallest_prime_factor(k)
                break
        if prime is not None:
            break
    if prime is None:
        raise InputError("topological covering: no proper plateau to extract")

    delta = max(valuation(m.vertex_multiplicity[x], prime) for x in src.vertices)
    marked = {v for v in tgt.vertices
              if any(valuation(m.vertex_multiplicity[x], prime) >= delta
                     for x in m.vertex_preimages[v])}
    kept_edges = {rec.name for rec in tgt.edges
                  if rec.origin in marked and rec.terminus in marked
                  and rec.label_origin % prime != 0
                  and rec.label_terminus % prime != 0}

    first = min(marked, key=tgt.vertex_position.get)
    vertices, edges = next(tgt.subgraph_components(kept_edges, (first,)))
    plateau = Plateau(prime, frozenset(vertices), edges)
    if not check_plateau(tgt, plateau):
        raise InternalError("extracted component is not a plateau")
    if len(plateau.vertices) == len(tgt.vertices) and len(plateau.edges) == len(tgt.edges):
        raise InternalError("extracted plateau is not proper")
    return plateau


# -- plateau-free covers -------------------------------------------------------


def _single_prime_cover(g: LabelledGraph, p: int,
                        size_limit: int | None = None) -> AdmissibleMap | None:
    """Cover of g with p-power multiplicities and no proper p-plateau upstairs.

    Round 1 finds the proper p-plateaux of g; each later round finds those
    of the stage graph, which has g's edges with every label that left the
    previous round's plateau union divided by p.  After R rounds a vertex
    or edge that lay in the union k times gets p**(R - k) sheets of
    multiplicity p**k, edge sheet j joining vertex sheets j modulo their
    counts, and the edges carry the last stage's labels.  Returns None when
    g has no proper p-plateau.

    If g is connected, so is the cover:
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
    vertex_count = {v: 0 for v in g.vertices}
    edge_count = {r.name: 0 for r in g.edges}
    rounds = 0
    stage = g
    while plateaux := plateaux_for_prime(stage, p):
        rounds += 1
        union_vertices = set().union(*(plat.vertices for plat in plateaux))
        union_edges = set().union(*(plat.edges for plat in plateaux))
        for v in union_vertices:
            vertex_count[v] += 1
        for name in union_edges:
            edge_count[name] += 1

        def divided(label: int, origin: str) -> int:
            if origin not in union_vertices:
                return label
            if label % p != 0:
                raise InternalError("label leaving a plateau union must be divisible")
            return label // p

        stage = LabelledGraph(g.vertices, tuple(
            rec if rec.name in union_edges else
            EdgeRecord(rec.name, rec.origin, rec.terminus,
                       divided(rec.label_origin, rec.origin),
                       divided(rec.label_terminus, rec.terminus))
            for rec in stage.edges))
    if rounds == 0:
        return None

    def sheet_count(occupancy: int) -> int:
        return p ** (rounds - occupancy)

    if size_limit is not None:
        predicted = sum(sheet_count(vertex_count[v]) for v in g.vertices)
        if predicted > size_limit:
            raise InputError(f"plateau-free cover would need {predicted} vertices "
                             f"for prime {p}, above the limit {size_limit}")

    def vertex_sheets(v: str) -> _VertexSheets:
        return p ** vertex_count[v], range(1, sheet_count(vertex_count[v]) + 1)

    def edge_sheets(rec: EdgeRecord) -> _EdgeSheets:
        final = stage.edge(rec.name)
        n_origin = sheet_count(vertex_count[rec.origin])
        n_terminus = sheet_count(vertex_count[rec.terminus])
        return (final.label_origin, final.label_terminus, p ** edge_count[rec.name],
                ((j + 1, j % n_origin + 1, j % n_terminus + 1)
                 for j in range(sheet_count(edge_count[rec.name]))))

    return _sheeted_cover(g, vertex_sheets, edge_sheets)


def plateau_free_cover(g: LabelledGraph,
                       size_limit: int | None = None) -> AdmissibleMap:
    """Admissible map onto g with connected, plateau-free source.

    Handles one prime at a time: the labels of oriented edges leaving the
    union of that prime's proper plateaux are divided until no proper
    plateau remains, and the iteration record prescribes preimage counts
    and multiplicities (all powers of the prime).  Successive primes are
    handled by composing covers; removing powers of one prime never creates
    plateaux for another.

    The total multiplicity is the product of a prime power per prime with
    proper plateaux, so graphs whose labels involve many primes can demand
    covers too large to materialize; pass `size_limit` to refuse (with
    InputError) any intermediate source beyond that many vertices.  The
    steps and their composites are trusted; only the final map is checked.
    """
    g._require_connected()
    current = identity_map(g)
    for p in label_primes(g):
        step = _single_prime_cover(current.source, p, size_limit)
        if step is not None:
            current = _compose(current, step)
    if has_proper_plateau(current.source):
        raise InternalError("plateau_free_cover left a proper plateau")
    return assert_admissible(current, "plateau_free_cover")
