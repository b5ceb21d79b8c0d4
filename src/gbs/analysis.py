"""Structural analysis of admissible maps.

The quantities audited here relate the Betti number, terminal-vertex count
and plateau structure of the two ends of an admissible map.  They hold for
every map produced by the constructions in :mod:`gbs.covering`; a failed
check indicates a bug, not bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, InternalError
from .covering import AdmissibleMap, verify_admissible
from .graph import LabelledGraph
from .plateau import Plateau, all_plateaux, check_plateau, minimum_hitting_set
from .primes import valuation


def _doubled_deltas(m: AdmissibleMap) -> dict[str, int]:
    """Per target vertex v: 2 * (sum over preimages x of |d_x/2 - 1|  -  |d_v/2 - 1|).

    Doubling keeps the arithmetic exact; the values sum to
    2*((beta+t of the source) - (beta+t of the target)).
    """
    src_start, tgt_start = m.source._index[3], m.target._index[3]
    out = [-abs(b - a - 2) for a, b in zip(tgt_start, tgt_start[1:])]
    for x, v in enumerate(m._tables[0]):
        out[v] += abs(src_start[x + 1] - src_start[x] - 2)
    return dict(zip(m.target.vertices, out))


def _bad_vertices(m: AdmissibleMap) -> frozenset[str]:
    """Terminal target vertices all of whose preimages have valence 2."""
    labels, _, order, start = m.target._index
    out = set()
    for i, (v, preimages) in enumerate(m.vertex_preimages.items()):  # in target order
        if start[i + 1] - start[i] != 1:
            continue
        if preimages and all(m.source.valence(x) == 2 for x in preimages):
            if labels[order[start[i]]] % 2 != 0:
                raise InternalError(f"bad vertex {v!r} must carry an even label")
            out.add(v)
    return frozenset(out)


def totally_unfolded(m: AdmissibleMap, plateau: Plateau) -> bool:
    """Does p divide the number of lifts of every oriented edge leaving the plateau?
    The count is read off the gcd condition, so the map must be admissible."""
    _require_admissible(m, "totally_unfolded")
    if not check_plateau(m.target, plateau):
        raise InputError("not a plateau of the target graph")
    return _totally_unfolded(m, plateau)


def _totally_unfolded(m: AdmissibleMap, plateau: Plateau) -> bool:
    """A dart leaving the plateau has p | label, so its gcd(m_x, |label|) lifts at
    x are a multiple of p exactly when p | m_x."""
    leaving = {v for v, darts in _leaving_darts(m.target, plateau).items() if darts}
    vertex_image, _, vertex_mult, _ = m._tables
    return all(mult % plateau.prime == 0
               for v, mult in zip(vertex_image, vertex_mult) if v in leaving)


def _leaving_darts(g: LabelledGraph, plateau: Plateau) -> dict[int, list[int]]:
    """The darts at each plateau vertex whose edges lie outside the plateau, by index."""
    _, _, order, start = g._index
    return {v: [d for d in order[start[v]:start[v + 1]]
                if g.edges[d >> 1].name not in plateau.edges]
            for v in sorted(map(g.vertex_position.__getitem__, plateau.vertices))}


def _require_admissible(m: AdmissibleMap, caller: str) -> None:
    if not verify_admissible(m):
        raise InputError(f"{caller} requires an admissible map")


def _strictly_contains(big: Plateau, small: Plateau) -> bool:
    return (small.vertices <= big.vertices and small.edges <= big.edges
            and (small.vertices, small.edges) != (big.vertices, big.edges))


def minimal_plateaux(m: AdmissibleMap) -> list[Plateau]:
    """Interior, totally unfolded plateaux of the target, minimal by inclusion."""
    _require_admissible(m, "minimal_plateaux")
    candidates = [P for P in all_plateaux(m.target).proper_plateaux
                  if all(m.target.valence(v) != 1 for v in P.vertices)  # interior
                  and _totally_unfolded(m, P)]
    return [P for P in candidates
            if not any(_strictly_contains(P, Q) for Q in candidates if Q is not P)]


def _hitting_number(g: LabelledGraph, minimal: list[Plateau]) -> int:
    """Minimum number of vertices of g meeting every minimal plateau."""
    if not minimal:
        return 0
    return len(minimum_hitting_set(g.vertices, [P.vertices for P in minimal]))


def _boundary_darts(g: LabelledGraph, plateau: Plateau) -> list[int]:
    """Darts with origin in the plateau and terminus outside it, by index."""
    heads, leaving = g._index[1], _leaving_darts(g, plateau)
    return [d for darts in leaving.values() for d in darts if heads[d ^ 1] not in leaving]


def _bad_plateaux(m: AdmissibleMap, minimal: list[Plateau]) -> list[Plateau]:
    """Minimal 2-unfolded plateaux whose single boundary edge has exactly 2 lifts."""
    out = []
    for plateau in minimal:
        if plateau.prime != 2:
            continue
        boundary = _boundary_darts(m.target, plateau)
        if len(boundary) != 1:
            continue
        labels, heads, _, _ = m.target._index
        vertex_image, _, vertex_mult, _ = m._tables
        label, origin = abs(labels[boundary[0]]), heads[boundary[0]]
        lifts = sum(math.gcd(mult, label)
                    for v, mult in zip(vertex_image, vertex_mult) if v == origin)
        if lifts == 2:
            out.append(plateau)
    return out


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class MapClassification:
    kind: str  # accordion | branched-2-cover-of-tree | generalized-branched | ordinary
    size: int | None = None
    branching_plateaux: tuple[Plateau, ...] = ()

    @property
    def exceptional(self) -> bool:
        return self.kind != "ordinary"

    def render(self) -> str:
        size = str(self.size) if self.size is not None else "-"
        return (f"kind={self.kind} exceptional={str(self.exceptional).lower()} "
                f"size={size} branching-plateaux={len(self.branching_plateaux)}")


def _is_interval(g: LabelledGraph) -> bool:
    # valences 1, 1, 2, ... sum to 2|V| - 2 = 2|E|: a connected one is a tree
    return (g.is_connected() and len(g.vertices) >= 2
            and sorted(g.valence(v) for v in g.vertices) ==
            [1, 1] + [2] * (len(g.vertices) - 2))


def _collapses_to_tree(g: LabelledGraph, chosen: tuple[Plateau, ...]) -> bool:
    """Is the quotient of g by the chosen (disjoint) plateaux a tree?

    Each plateau is connected, so the quotient is connected exactly when g is.
    """
    node_of = {v: i for i, plateau in enumerate(chosen) for v in plateau.vertices}
    collapsed_edges = {name for plateau in chosen for name in plateau.edges}
    n_nodes = len(g.vertices) - len(node_of) + len(chosen)
    n_edges = 0
    for rec in g.edges:
        if rec.name in collapsed_edges:
            continue
        if node_of.get(rec.origin, rec.origin) == node_of.get(rec.terminus, rec.terminus):
            return False  # quotient loop
        n_edges += 1
    return n_edges == n_nodes - 1 and g.is_connected()


def _is_generalized_branched(m: AdmissibleMap, chosen: tuple[Plateau, ...]) -> bool:
    tgt = m.target
    if not _collapses_to_tree(tgt, chosen):
        return False
    in_plateau_vertices = {v for plateau in chosen for v in plateau.vertices}
    in_plateau_edges = {name for plateau in chosen for name in plateau.edges}
    for v in tgt.vertices:
        if tgt.valence(v) == 1:
            if len(m.vertex_preimages[v]) != 1:
                return False
        elif v not in in_plateau_vertices:
            if len(m.vertex_preimages[v]) != 2:
                return False
    for rec in tgt.edges:
        if rec.name not in in_plateau_edges:
            if len(m.edge_preimages[rec.name]) != 2:
                return False
    frontier_points = {tgt._index[1][d] for plateau in chosen
                       for d in _boundary_darts(tgt, plateau)}
    return all(m._tables[0].count(v) == 1 for v in frontier_points)


def classify(m: AdmissibleMap) -> MapClassification:
    """Accordion, (generalized) branched 2-cover of a tree, or ordinary.

    An accordion wraps a circle onto an interval in 2n monotone strands; a
    size-1 accordion is reported as a branched 2-cover.  The one branching
    locus that can pass is read off the map and checked once: the minimal
    2-plateaux with a vertex that has other than two preimages.
    """
    _require_admissible(m, "classify")
    if not m.source.is_connected():
        raise InputError("classify requires a connected source")
    return _classify(m, minimal_plateaux(m))


def _classify(m: AdmissibleMap, minimal: list[Plateau]) -> MapClassification:
    src, tgt = m.source, m.target

    if src.is_circle() and _is_interval(tgt):
        ends = [v for v in tgt.vertices if tgt.valence(v) == 1]
        counts = [len(m.vertex_preimages[v]) for v in ends]
        if counts[0] != counts[1]:
            raise InternalError("accordion fold counts differ between the two ends")
        size = counts[0]
        if size == 1:
            return MapClassification("branched-2-cover-of-tree")
        return MapClassification("accordion", size=size)

    # outside the locus a non-terminal vertex needs 2 preimages; inside, a
    # plateau needs a frontier point with 1 or it leaves a quotient loop
    chosen = tuple(P for P in minimal if P.prime == 2
                   and any(len(m.vertex_preimages[v]) != 2 for v in P.vertices))
    if not _is_generalized_branched(m, chosen):
        return MapClassification("ordinary")
    if chosen:
        return MapClassification("generalized-branched", branching_plateaux=chosen)
    return MapClassification("branched-2-cover-of-tree")


# -- the audit -----------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        return f"check={self.name} pass={str(self.passed).lower()} detail={self.detail}"


@dataclass(frozen=True)
class AuditReport:
    classification: MapClassification
    quantities: dict[str, int]
    entries: tuple[AuditEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def render(self) -> str:
        lines = [self.classification.render()]
        lines.append(" ".join(f"{k}={v}" for k, v in sorted(self.quantities.items())))
        lines.extend(entry.render() for entry in self.entries)
        lines.append(f"audit={'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def check_inequalities(m: AdmissibleMap) -> AuditReport:
    """Evaluate the Betti/terminal/plateau inequalities on one admissible map."""
    _require_admissible(m, "audit")
    if not m.source.is_connected():
        raise InputError("audit requires a connected source")
    if not m.target.is_reduced():
        raise InputError("audit requires a reduced target")
    src, tgt = m.source, m.target
    inventory = all_plateaux(tgt).proper_plateaux

    beta, t = tgt.betti(), len(tgt.terminal_vertices())
    beta_bar, t_bar = src.betti(), len(src.terminal_vertices())
    bad = _bad_vertices(m)
    t_good = t - len(bad)
    minimal = minimal_plateaux(m)
    # one subgraph may qualify for several primes; count subgraphs once
    subgraphs = {(P.vertices, P.edges) for P in minimal}
    c = _hitting_number(tgt, minimal)
    bad_subgraphs = {(P.vertices, P.edges) for P in _bad_plateaux(m, minimal)}
    good_plateau_count = len(subgraphs) - len(bad_subgraphs)
    classification = _classify(m, minimal)

    quantities = {
        "beta": beta, "t": t, "beta-source": beta_bar, "t-source": t_bar,
        "t-good": t_good, "c": c, "c-good": good_plateau_count,
        "bad-vertices": len(bad), "minimal-plateaux": len(subgraphs),
        "total-multiplicity": m.total_multiplicity(),
    }
    entries: list[AuditEntry] = []

    delta_sum = sum(_doubled_deltas(m).values())
    expected = 2 * ((beta_bar + t_bar) - (beta + t))
    entries.append(AuditEntry("delta-sum", delta_sum == expected,
                              f"sum(2*delta)={delta_sum} expected={expected}"))

    lhs, rhs = beta + t, beta_bar + t_bar
    if classification.kind in ("accordion", "branched-2-cover-of-tree"):
        entries.append(AuditEntry("terminal-betti", lhs == rhs + 1,
                                  f"beta+t={lhs} must equal source value {rhs}+1"))
    else:
        entries.append(AuditEntry("terminal-betti", lhs <= rhs,
                                  f"beta+t={lhs} must not exceed source value {rhs}"))

    entries.append(AuditEntry("good-count-bound", beta + t_good + good_plateau_count <= rhs,
                              f"beta+t_good+c_good={beta + t_good + good_plateau_count} "
                              f"vs {rhs}"))

    slack = 1 if classification.exceptional else 0
    entries.append(AuditEntry("minimal-plateau-bound", beta + t + c <= rhs + slack,
                              f"beta+t+c={beta + t + c} vs {rhs}+{slack}"))

    two_plateaux = [P for P in inventory if P.prime == 2]

    def parity_varies(plateau: Plateau) -> bool:
        parities = {len(m.vertex_preimages[v]) % 2 for v in plateau.vertices}
        parities |= {len(m.edge_preimages[name]) % 2 for name in plateau.edges}
        return len(parities) > 1

    parity_plateaux = list(two_plateaux)
    if all(label % 2 for label in tgt._index[0]):
        parity_plateaux.append(Plateau(2, frozenset(tgt.vertices),
                                       frozenset(r.name for r in tgt.edges)))
    varying = next((P for P in parity_plateaux if parity_varies(P)), None)
    entries.append(AuditEntry(
        "parity-constant", varying is None,
        "all 2-plateaux have constant preimage parity" if varying is None
        else f"parity varies on 2-plateau {sorted(varying.vertices)}"))

    def odd_multiplicity(plateau: Plateau) -> bool:
        mults = [m.vertex_multiplicity[x]
                 for v in plateau.vertices for x in m.vertex_preimages[v]]
        mults += [m.edge_multiplicity[name]
                  for ename in plateau.edges for name in m.edge_preimages[ename]]
        mults.append(m.total_multiplicity())
        return any(value % 2 != 0 for value in mults)

    odd = next((P for P in two_plateaux
                if _totally_unfolded(m, P) and odd_multiplicity(P)), None)
    entries.append(AuditEntry(
        "unfolded-even-multiplicity", odd is None,
        "2-unfolded plateaux carry even multiplicities" if odd is None
        else f"odd multiplicity over 2-plateau {sorted(odd.vertices)}"))

    folded = next((P for P in inventory
                   if not _has_plateau_preimage_component(m, P)
                   and not _totally_unfolded(m, P)), None)
    entries.append(AuditEntry(
        "unfolded-preimage", folded is None,
        "plateaux without plateau preimages are unfolded" if folded is None
        else (f"{folded.prime}-plateau {sorted(folded.vertices)} has no "
              "plateau preimage yet is not totally unfolded")))

    return AuditReport(classification, quantities, tuple(entries))


def _has_plateau_preimage_component(m: AdmissibleMap, plateau: Plateau) -> bool:
    """Is some component of the preimage subgraph itself a plateau of the source?

    Lifts of the plateau's edges keep labels prime to p, and a component holds
    every such lift at its points.  A lift at x of a dart d leaving the plateau
    keeps a label divisible by p exactly when v_p(m_x) < v_p(d's label), so a
    component is a plateau exactly when that holds at each of its points.
    """
    p, tgt = plateau.prime, m.target
    labels = tgt._index[0]
    leaving = {v: min((valuation(labels[d], p) for d in darts), default=math.inf)
               for v, darts in _leaving_darts(tgt, plateau).items()}
    vertex_image, dart_image, vertex_mult, _ = m._tables
    inside = bytes(rec.name in plateau.edges for rec in tgt.edges for _ in (0, 1))  # by dart
    pre_darts = bytes(map(inside.__getitem__, dart_image))
    pre_vertices = sorted((x for x, v in enumerate(vertex_image) if v in leaving),
                          key=vertex_image.__getitem__)  # target order, then source order
    return any(all(valuation(vertex_mult[x], p) < leaving[vertex_image[x]] for x in comp)
               for comp in m.source._component_walk(pre_darts, pre_vertices))
