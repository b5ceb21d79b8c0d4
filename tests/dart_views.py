"""Name-level views of darts, for the test oracles.

The package reads a dart as an integer of a graph's index and builds a `Dart`
only to name one in output.  The oracles read darts as `Dart` handles instead,
through these views.  They are built from the edge records and the name maps
alone, never from a graph's `_index`, so the oracles stay independent of the
code they check.
"""

import weakref

from gbs import Dart, InputError

_VIEWS: dict[int, tuple[tuple[Dart, ...], dict[str, tuple[Dart, ...]]]] = {}


def _views(g) -> tuple[tuple[Dart, ...], dict[str, tuple[Dart, ...]]]:
    """(every dart, the darts at each vertex) of g, built once per graph."""
    if id(g) not in _VIEWS:
        at: dict[str, list[Dart]] = {v: [] for v in g.vertices}
        for rec in g.edges:
            at[rec.origin].append(Dart(rec.name, True))
            at[rec.terminus].append(Dart(rec.name, False))
        every = tuple(Dart(rec.name, forward) for rec in g.edges for forward in (True, False))
        _VIEWS[id(g)] = every, {v: tuple(darts) for v, darts in at.items()}
        weakref.finalize(g, _VIEWS.pop, id(g))
    return _VIEWS[id(g)]


def darts(g) -> tuple[Dart, ...]:
    """Every dart, in index order: the forward, then the reverse dart of each edge."""
    return _views(g)[0]


def darts_at(g, v: str) -> tuple[Dart, ...]:
    """Oriented edges with origin v: for each edge in declaration order, its
    origin dart, then its terminus dart, so a loop at v contributes both."""
    try:
        return _views(g)[1][v]
    except KeyError:
        raise InputError(f"unknown vertex {v!r}") from None


def origin(g, dart: Dart) -> str:
    rec = g.edge(dart.edge)
    return rec.origin if dart.forward else rec.terminus


def terminus(g, dart: Dart) -> str:
    return origin(g, dart.reverse())


def label(g, dart: Dart) -> int:
    rec = g.edge(dart.edge)
    return rec.label_origin if dart.forward else rec.label_terminus


def map_dart(m, dart: Dart) -> Dart:
    """The image of a dart under an edge map, edge -> (image edge, same orientation)."""
    image, same = m.edge_map[dart.edge]
    return Dart(image, dart.forward == same)


# an automorphism's edge map has the form of an admissible map's
dart_image = map_dart
