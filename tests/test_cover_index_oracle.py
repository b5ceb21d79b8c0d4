"""Covers born as their dart index against the name-built covers they replaced.

The reference below is the body `covering._sheeted_cover` had while covers
were built from names: it names every vertex and edge sheet, builds an
`EdgeRecord` per edge sheet and hands the records to the trusted constructor,
whose dart index is then read back through the vertex names.  Every call the
constructions make to the builder is replayed through the reference, from the
same sheets, and the two covers must agree on the vertex names, the records,
the records by name, the vertex table, the dart index, the four map tables,
the emitted text, == and hash.  `branched_cover` and `voltage_cover` are
also compared with their former bodies, which gave the reference each edge
sheet as a (number, origin place, terminus place) triple.

The inputs are the `plateau-free-cover` corpus of `perfbench/`, 500
generated graphs, and covers of covers, whose naming rule reads names that
are themselves built on first read.
"""

import pickle
import random

import pytest

from gbs import (AdmissibleMap, EdgeRecord, GeneratorConfig, InputError, LabelledGraph,
                 all_plateaux, branched_cover, check_plateau, emit_graph, emit_map,
                 generate_graph, plateau_free_cover, restrict_to_component, voltage_cover)
from gbs import covering
from test_benchmark_api import perfbench_workloads

SIZE_LIMIT = 1500  # the corpus's own limit on plateau-free covers


def reference_sheeted_cover(g, vertex_sheets, edge_sheets):
    """The name-built cover: sheet i of vertex v is `v.i`, and each edge sheet
    (j, i, k) is the record `e.j` from sheet i of e's origin to sheet k of its
    terminus, its places in their vertices' sheet lists."""
    vertices, vertex_image, vertex_mult, names = [], [], [], []
    for v_index, (v, (mult, sheets)) in enumerate(zip(g.vertices, vertex_sheets)):
        names.append([f"{v}.{i}" for i in sheets])
        vertices += names[-1]
        vertex_image += [v_index] * len(names[-1])
        vertex_mult += [mult] * len(names[-1])
    records, dart_image, edge_mult, position = [], [], [], g.vertex_position
    for e_index, (rec, (lo, lt, mult, sheets)) in enumerate(zip(g.edges, edge_sheets)):
        origin, terminus = names[position[rec.origin]], names[position[rec.terminus]]
        sheet_records = [EdgeRecord(f"{rec.name}.{j}", origin[i], terminus[k], lo, lt)
                         for j, i, k in sheets]
        records += sheet_records
        dart_image += (2 * e_index, 2 * e_index + 1) * len(sheet_records)
        edge_mult += [mult] * len(sheet_records)
    source = LabelledGraph._trusted(tuple(vertices), tuple(records))
    return AdmissibleMap._from_tables(source, g, vertex_image, dart_image, vertex_mult, edge_mult)


def reference_branched_cover(g, plateau):
    """`branched_cover`'s former sheets, given to the reference."""
    p, inside = plateau.prime, plateau.vertices

    def edge_sheets(rec):
        if rec.name in plateau.edges:
            return rec.label_origin, rec.label_terminus, p, ((0, 0, 0),)
        o_in, t_in = rec.origin in inside, rec.terminus in inside
        return (rec.label_origin // p if o_in else rec.label_origin,
                rec.label_terminus // p if t_in else rec.label_terminus,
                1, ((i, 0 if o_in else i - 1, 0 if t_in else i - 1) for i in range(1, p + 1)))

    vertex_sheets = [(p, (0,)) if v in inside else (1, range(1, p + 1)) for v in g.vertices]
    return reference_sheeted_cover(g, vertex_sheets, map(edge_sheets, g.edges))


def reference_voltage_cover(g, degree, assignment):
    """`voltage_cover`'s former sheets, given to the reference."""
    sheets = range(1, degree + 1)
    return reference_sheeted_cover(g, [(1, sheets)] * len(g.vertices), (
        (rec.label_origin, rec.label_terminus, 1,
         ((i, i - 1, assignment[rec.name][i - 1]) for i in sheets)) for rec in g.edges))


@pytest.fixture
def replayed(monkeypatch):
    """(cover, reference) for every cover the constructions build from here on,
    the reference built by `reference_sheeted_cover` from the same sheets."""
    pairs, real = [], covering._sheeted_cover

    def building(g, vertex_sheets, edge_sheets, edge_numbers):
        vertex_sheets = [(mult, list(sheets)) for mult, sheets in vertex_sheets]
        edge_sheets = [(lo, lt, mult, list(origins), list(termini))
                       for lo, lt, mult, origins, termini in edge_sheets]
        for k, (_, _, _, origins, termini) in enumerate(edge_sheets):
            assert len(list(edge_numbers(k))) == len(origins) == len(termini)
        cover = real(g, vertex_sheets, edge_sheets, edge_numbers)
        pairs.append((cover, reference_sheeted_cover(g, vertex_sheets, [
            (lo, lt, mult, zip(edge_numbers(k), origins, termini))
            for k, (lo, lt, mult, origins, termini) in enumerate(edge_sheets)])))
        return cover
    monkeypatch.setattr(covering, "_sheeted_cover", building)
    return pairs


def assert_same_cover(cover, *references):
    """`cover` agrees with each reference cover; no construction or check read its
    records or vertex table before this, so its dart index is the one it was born as."""
    src = cover.source
    assert "edges" not in src.__dict__ and "vertex_position" not in src.__dict__
    for reference in references:
        ref = reference.source
        assert src._index == ref._index  # the reference's read back through its names
        assert cover._tables == reference._tables
        assert src.vertices == ref.vertices
        assert src.edges == ref.edges
        assert list(src._edge_by_name.items()) == list(ref._edge_by_name.items())
        assert list(src.vertex_position.items()) == list(ref.vertex_position.items())
        assert src == ref and hash(src) == hash(ref)
        assert (emit_graph(src) + emit_map(cover, "s.gbs", "t.gbs")
                == emit_graph(ref) + emit_map(reference, "s.gbs", "t.gbs"))
    assert src == LabelledGraph(src.vertices, src.edges)  # the checked constructor agrees
    assert pickle.loads(pickle.dumps(src)) == src  # as its records


def corpus_graphs():
    items = perfbench_workloads().WORKLOADS["plateau-free-cover"].build()
    return [graph for _, graph in (item.payload for item in items)]


def generated_graphs():
    return [generate_graph(GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                                           max_label_magnitude=18))
            for seed in range(1000, 1500)]


@pytest.fixture(scope="module")
def graphs():
    corpus, generated = corpus_graphs(), generated_graphs()
    assert len(corpus) == 124 and len(generated) == 500
    return corpus + generated


def plateau_free_covers(graphs):
    for g in graphs:
        try:
            yield g, plateau_free_cover(g, size_limit=SIZE_LIMIT)
        except InputError:
            continue


def test_plateau_free_covers(graphs, replayed):
    built = 0
    for g, cover in plateau_free_covers(graphs):
        if cover.source is g:  # no prime had a round: the identity, no cover built
            assert replayed == []
            continue
        ((made, reference),) = replayed
        replayed.clear()
        assert made is cover
        assert_same_cover(cover, reference)
        built += 1
    assert built > 300


def test_plateau_free_sheet_names_follow_their_wiring(graphs):
    """Names checked against the wiring rule alone, not against a replay: in a
    plateau-free cover a sheet is named by one number per prime with a round,
    from 1, and edge sheet `e.j` joins at each end the vertex sheet whose numbers
    are j's modulo the vertex's sheet counts, which its largest numbers give."""
    built = 0
    for g, cover in plateau_free_covers(graphs[:124]):
        if cover.source is g:
            continue

        def numbers(name, base):
            return tuple(map(int, name[len(base) + 1:].split(".")))
        at = {x: numbers(x, v) for x, v in cover.vertex_map.items()}
        counts = {}
        for x, v in cover.vertex_map.items():
            counts[v] = tuple(map(max, counts.get(v, at[x]), at[x]))
        for rec in cover.source.edges:
            j = numbers(rec.name, cover.edge_map[rec.name][0])
            for end in (rec.origin, rec.terminus):
                assert at[end] == tuple((n - 1) % c + 1
                                        for n, c in zip(j, counts[cover.vertex_map[end]]))
        built += 1
    assert built == 71


def test_branched_covers(graphs, replayed):
    built = 0
    for g in graphs:
        for plateau in all_plateaux(g).proper_plateaux[:3]:
            cover = branched_cover(g, plateau)
            assert_same_cover(cover, replayed.pop()[1], reference_branched_cover(g, plateau))
            built += 1
    assert built > 500 and replayed == []


def test_voltage_covers_and_their_components(graphs, replayed):
    rng, split = random.Random(36), 0
    for g in graphs:
        degree = rng.randint(1, 3)
        assignment = {rec.name: tuple(rng.sample(range(degree), degree)) for rec in g.edges}
        cover = voltage_cover(g, degree, assignment)
        reference = reference_voltage_cover(g, degree, assignment)
        assert_same_cover(cover, replayed.pop()[1], reference)
        for vertex in cover.source.vertices[::degree + 1]:
            part = restrict_to_component(cover, vertex)
            assert part.source == restrict_to_component(reference, vertex).source
            split += part is not cover
    assert split > 100 and replayed == []


def test_covers_of_covers(graphs, replayed):
    """A cover of an index-born cover names its edges from the base's names, which
    the base builds on first read: a voltage double cover and a branched cover of
    each plateau-free cover of at most 60 vertices."""
    built = 0
    for _, base in plateau_free_covers(graphs[:200]):
        g = base.source
        if len(g.vertices) > 60:
            continue
        replayed.clear()
        assert "edges" not in g.__dict__ or g is base.target
        assignment = {rec.name: (1, 0) if i % 2 else (0, 1) for i, rec in enumerate(g.edges)}
        cover = voltage_cover(g, 2, assignment)
        assert_same_cover(cover, replayed.pop()[1], reference_voltage_cover(g, 2, assignment))
        built += 1
    assert built > 50


def test_branched_covers_of_covers(replayed):
    """Two rounds of branching from one base, each over the first proper plateau."""
    built = 0
    for seed in range(1, 201):
        g = generate_graph(GeneratorConfig(seed=seed, max_vertices=4, max_edges=6,
                                           max_label_magnitude=12))
        for _ in range(2):
            plateaux = all_plateaux(g).proper_plateaux
            if not plateaux or not check_plateau(g, plateaux[0]):
                break
            cover = branched_cover(g, plateaux[0])
            assert_same_cover(cover, replayed.pop()[1], reference_branched_cover(g, plateaux[0]))
            g, built = cover.source, built + 1
    assert built > 150 and replayed == []
