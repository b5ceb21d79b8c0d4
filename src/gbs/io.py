"""Line-oriented text formats for graphs, admissible maps, and automorphisms.

Graph files hold one declaration per line ('#' starts a comment line):

    vertex <id>
    edge <id> <origin-id> <terminus-id> <label-at-origin> <label-at-terminus>

Map files name their two graph files in a header, then give the vertex and
edge assignments with multiplicities ('~' marks an orientation reversal):

    map from <source-file> to <target-file>
    vmap <source-vertex> <target-vertex> <multiplicity>
    emap <source-edge> <target-edge | ~target-edge> <multiplicity>

Automorphism files start with a graph block whose edge labels may be
omitted (they are ignored), followed by `fv <v> <image>` and
`fe <e> <image | ~image>` lines.
"""

from __future__ import annotations

import os
from typing import Callable

from .covering import AdmissibleMap
from .errors import ParseError
from .graph import EdgeRecord, LabelledGraph
from .torus import GraphAutomorphism


def _significant_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line.split()


def _parse_label(token: str, number: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(number, f"label {token!r} is not an integer") from None
    if value == 0:
        raise ParseError(number, "zero label")
    return value


def _parse_graph_line(tokens, number, vertices, records, vertex_set, edge_set,
                      labels_required=True) -> bool:
    """Handle one vertex/edge declaration; returns False for foreign lines."""
    if tokens[0] == "vertex":
        if len(tokens) != 2:
            raise ParseError(number, "vertex lines take exactly one identifier")
        if tokens[1] in vertex_set:
            raise ParseError(number, f"duplicate vertex {tokens[1]!r}")
        vertex_set.add(tokens[1])
        vertices.append(tokens[1])
        return True
    if tokens[0] == "edge":
        if len(tokens) == 4 and not labels_required:
            name, origin, terminus = tokens[1:]
            lo = lt = 1
        elif len(tokens) == 6:
            name, origin, terminus = tokens[1:4]
            lo = _parse_label(tokens[4], number)
            lt = _parse_label(tokens[5], number)
        else:
            raise ParseError(number, "edge lines take id, endpoints and two labels")
        if name in edge_set:
            raise ParseError(number, f"duplicate edge {name!r}")
        for end in (origin, terminus):
            if end not in vertex_set:
                raise ParseError(number, f"unknown vertex {end!r}")
        edge_set.add(name)
        records.append(EdgeRecord(name, origin, terminus, lo, lt))
        return True
    return False


def parse_graph(text: str) -> LabelledGraph:
    vertices: list[str] = []
    records: list[EdgeRecord] = []
    vertex_set: set[str] = set()
    edge_set: set[str] = set()
    for number, tokens in _significant_lines(text):
        if not _parse_graph_line(tokens, number, vertices, records,
                                 vertex_set, edge_set):
            raise ParseError(number, f"unrecognized declaration {tokens[0]!r}")
    if not vertices:
        raise ParseError(None, "graph file declares no vertices")
    return LabelledGraph(tuple(vertices), tuple(records))


def emit_graph(g: LabelledGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {r.name} {r.origin} {r.terminus} {r.label_origin} {r.label_terminus}"
              for r in g.edges]
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; other bytes are a ParseError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                         f"{path} is not UTF-8 text") from None


def load_graph(path: str) -> LabelledGraph:
    return parse_graph(_read_text(path))


def _parse_oriented(token: str) -> tuple[str, bool]:
    if token.startswith("~"):
        return token[1:], False
    return token, True


def parse_map(text: str, resolve: Callable[[str], str]) -> AdmissibleMap:
    """Parse a map file; `resolve` turns the referenced paths into graph text."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(None, "empty map file")
    number, tokens = lines[0]
    if len(tokens) != 5 or tokens[0] != "map" or tokens[1] != "from" or tokens[3] != "to":
        raise ParseError(number, "map files start with `map from <file> to <file>`")
    source_ref, target_ref = tokens[2], tokens[4]
    try:
        source = parse_graph(resolve(source_ref))
        target = parse_graph(resolve(target_ref))
    except OSError as exc:
        raise ParseError(number, f"cannot read referenced graph: {exc}") from None

    vertex_map: dict[str, str] = {}
    edge_map: dict[str, tuple[str, bool]] = {}
    vmult: dict[str, int] = {}
    emult: dict[str, int] = {}
    for number, tokens in lines[1:]:
        if tokens[0] == "vmap":
            if len(tokens) != 4:
                raise ParseError(number, "vmap lines take vertex, image, multiplicity")
            x, v, mult = tokens[1:]
            if not source.has_vertex(x):
                raise ParseError(number, f"unknown source vertex {x!r}")
            if not target.has_vertex(v):
                raise ParseError(number, f"unknown target vertex {v!r}")
            if x in vertex_map:
                raise ParseError(number, f"repeated vmap for {x!r}")
            vertex_map[x] = v
            vmult[x] = _parse_positive(mult, number)
        elif tokens[0] == "emap":
            if len(tokens) != 4:
                raise ParseError(number, "emap lines take edge, image, multiplicity")
            name, image_token, mult = tokens[1:]
            image, same = _parse_oriented(image_token)
            if not source.has_edge(name):
                raise ParseError(number, f"unknown source edge {name!r}")
            if not target.has_edge(image):
                raise ParseError(number, f"unknown target edge {image!r}")
            if name in edge_map:
                raise ParseError(number, f"repeated emap for {name!r}")
            edge_map[name] = (image, same)
            emult[name] = _parse_positive(mult, number)
        else:
            raise ParseError(number, f"unrecognized declaration {tokens[0]!r}")
    missing = [x for x in source.vertices if x not in vertex_map]
    if missing:
        raise ParseError(None, f"no vmap line for source vertex {missing[0]!r}")
    missing = [r.name for r in source.edges if r.name not in edge_map]
    if missing:
        raise ParseError(None, f"no emap line for source edge {missing[0]!r}")
    return AdmissibleMap(source, target, vertex_map, edge_map, vmult, emult)


def _parse_positive(token: str, number: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(number, f"multiplicity {token!r} is not an integer") from None
    if value <= 0:
        raise ParseError(number, "multiplicities must be positive")
    return value


def emit_map(m: AdmissibleMap, source_ref: str, target_ref: str) -> str:
    lines = [f"map from {source_ref} to {target_ref}"]
    for x in m.source.vertices:
        lines.append(f"vmap {x} {m.vertex_map[x]} {m.vertex_multiplicity[x]}")
    for rec in m.source.edges:
        image, same = m.edge_map[rec.name]
        token = image if same else "~" + image
        lines.append(f"emap {rec.name} {token} {m.edge_multiplicity[rec.name]}")
    return "\n".join(lines) + "\n"


def load_map(path: str) -> AdmissibleMap:
    base = os.path.dirname(os.path.abspath(path))
    return parse_map(_read_text(path), lambda ref: _read_text(os.path.join(base, ref)))


def parse_automorphism(text: str) -> GraphAutomorphism:
    vertices: list[str] = []
    records: list[EdgeRecord] = []
    vertex_set: set[str] = set()
    edge_set: set[str] = set()
    vertex_map: dict[str, str] = {}
    edge_map: dict[str, tuple[str, bool]] = {}
    for number, tokens in _significant_lines(text):
        if _parse_graph_line(tokens, number, vertices, records, vertex_set,
                             edge_set, labels_required=False):
            continue
        if tokens[0] == "fv":
            if len(tokens) != 3:
                raise ParseError(number, "fv lines take a vertex and its image")
            v, image = tokens[1:]
            for name in (v, image):
                if name not in vertex_set:
                    raise ParseError(number, f"unknown vertex {name!r}")
            if v in vertex_map:
                raise ParseError(number, f"repeated fv for {v!r}")
            vertex_map[v] = image
        elif tokens[0] == "fe":
            if len(tokens) != 3:
                raise ParseError(number, "fe lines take an edge and its image")
            name, image_token = tokens[1:]
            image, same = _parse_oriented(image_token)
            for e in (name, image):
                if e not in edge_set:
                    raise ParseError(number, f"unknown edge {e!r}")
            if name in edge_map:
                raise ParseError(number, f"repeated fe for {name!r}")
            edge_map[name] = (image, same)
        else:
            raise ParseError(number, f"unrecognized declaration {tokens[0]!r}")
    if not vertices:
        raise ParseError(None, "automorphism file declares no vertices")
    missing = [v for v in vertices if v not in vertex_map]
    if missing:
        raise ParseError(None, f"no fv line for vertex {missing[0]!r}")
    missing = [r.name for r in records if r.name not in edge_map]
    if missing:
        raise ParseError(None, f"no fe line for edge {missing[0]!r}")
    graph = LabelledGraph(tuple(vertices), tuple(records))
    return GraphAutomorphism(graph, vertex_map, edge_map)


def emit_automorphism(a: GraphAutomorphism) -> str:
    text = emit_graph(a.graph)
    lines = [f"fv {v} {a.vertex_map[v]}" for v in a.graph.vertices]
    for rec in a.graph.edges:
        image, same = a.edge_map[rec.name]
        lines.append(f"fe {rec.name} {image if same else '~' + image}")
    return text + "\n".join(lines) + "\n"


def load_automorphism(path: str) -> GraphAutomorphism:
    return parse_automorphism(_read_text(path))
