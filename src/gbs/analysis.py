"""Structural analysis of admissible maps.

The quantities audited here relate the Betti number, terminal-vertex count
and plateau structure of the two ends of an admissible map.  They hold for
every map produced by the constructions in :mod:`gbs.covering`; a failed
check indicates a bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, InternalError
from .covering import AdmissibleMap, verify_admissible
from .graph import LabelledGraph
from .plateau import (Plateau, all_plateaux, check_plateau,
                      minimum_hitting_set)


def doubled_deltas(m: AdmissibleMap) -> dict[str, int]:
    """Per target vertex v: 2 * (sum over preimages x of |d_x/2 - 1|  -  |d_v/2 - 1|).

    Doubling keeps the arithmetic exact; the values sum to
    2*((beta+t of the source) - (beta+t of the target)).
    """
    out = {}
    for v in m.target.vertices:
        total = sum(abs(m.source.valence(x) - 2) for x in m.vertex_preimages[v])
        out[v] = total - abs(m.target.valence(v) - 2)
    return out


def bad_vertices(m: AdmissibleMap) -> frozenset[str]:
    """Terminal target vertices all of whose preimages have valence 2."""
    out = set()
    for v in m.target.vertices:
        if m.target.valence(v) != 1:
            continue
        preimages = m.vertex_preimages[v]
        if preimages and all(m.source.valence(x) == 2 for x in preimages):
            dart = m.target.darts_at(v)[0]
            if m.target.label(dart) % 2 != 0:
                raise InternalError(f"bad vertex {v!r} must carry an even label")
            out.add(v)
    return frozenset(out)


def totally_unfolded(m: AdmissibleMap, plateau: Plateau) -> bool:
    """Does p divide the number of lifts of every oriented edge leaving the plateau?"""
    if not check_plateau(m.target, plateau):
        raise InputError("not a plateau of the target graph")
    p = plateau.prime
    for v in plateau.vertices:
        for dart in m.target.darts_at(v):
            if dart.edge in plateau.edges:
                continue
            for x in m.vertex_preimages[v]:
                if len(m.lifts_at(x, dart)) % p != 0:
                    return False
    return True


def _is_interior(g: LabelledGraph, plateau: Plateau) -> bool:
    if len(plateau.vertices) == len(g.vertices) and len(plateau.edges) == len(g.edges):
        return False
    return all(g.valence(v) != 1 for v in plateau.vertices)


def _strictly_contains(big: Plateau, small: Plateau) -> bool:
    return (small.vertices <= big.vertices and small.edges <= big.edges
            and (small.vertices, small.edges) != (big.vertices, big.edges))


def minimal_plateaux(m: AdmissibleMap) -> list[Plateau]:
    """Interior, totally unfolded plateaux of the target, minimal by inclusion."""
    candidates = [P for P in all_plateaux(m.target).proper_plateaux
                  if _is_interior(m.target, P) and totally_unfolded(m, P)]
    return [P for P in candidates
            if not any(_strictly_contains(P, Q) for Q in candidates if Q is not P)]


def _hitting_number(g: LabelledGraph, minimal: list[Plateau]) -> int:
    if not minimal:
        return 0
    return len(minimum_hitting_set(g.vertices, [P.vertices for P in minimal]))


def minimal_plateau_hitting_number(m: AdmissibleMap) -> int:
    """Minimum number of target vertices meeting every minimal plateau."""
    return _hitting_number(m.target, minimal_plateaux(m))


def _boundary_darts(g: LabelledGraph, plateau: Plateau):
    """Oriented edges with origin in the plateau and terminus outside it."""
    for v in plateau.vertices:
        for dart in g.darts_at(v):
            if dart.edge not in plateau.edges and g.terminus(dart) not in plateau.vertices:
                yield dart


def _bad_plateaux(m: AdmissibleMap, minimal: list[Plateau]) -> list[Plateau]:
    out = []
    for plateau in minimal:
        if plateau.prime != 2:
            continue
        boundary = list(_boundary_darts(m.target, plateau))
        if len(boundary) != 1:
            continue
        dart = boundary[0]
        lifts = sum(len(m.lifts_at(x, dart))
                    for x in m.vertex_preimages[m.target.origin(dart)])
        if lifts == 2:
            out.append(plateau)
    return out


def bad_plateaux(m: AdmissibleMap) -> list[Plateau]:
    """Minimal 2-unfolded plateaux whose single boundary edge has exactly 2 lifts."""
    return _bad_plateaux(m, minimal_plateaux(m))


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
    return (g.is_connected() and g.betti() == 0 and len(g.vertices) >= 2
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
    frontier_points = {tgt.origin(d) for plateau in chosen
                       for d in _boundary_darts(tgt, plateau)}
    return all(len(m.vertex_preimages[v]) == 1 for v in frontier_points)


def classify(m: AdmissibleMap) -> MapClassification:
    """Accordion, (generalized) branched 2-cover of a tree, or ordinary.

    An accordion wraps a circle onto an interval in 2n monotone strands; a
    size-1 accordion is reported as a branched 2-cover.  The generalized
    branched search tries subsets of the minimal 2-plateaux as branching
    loci, smallest subsets first.
    """
    if not verify_admissible(m):
        raise InputError("classify requires an admissible map")
    if not m.source.is_connected():
        raise InputError("classify requires a connected source")
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

    candidates = [P for P in minimal_plateaux(m) if P.prime == 2]
    for r in range(len(candidates) + 1):
        for chosen in combinations(candidates, r):
            if _is_generalized_branched(m, chosen):
                if chosen:
                    return MapClassification("generalized-branched",
                                             branching_plateaux=chosen)
                return MapClassification("branched-2-cover-of-tree")
    return MapClassification("ordinary")


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
    if not verify_admissible(m):
        raise InputError("audit requires an admissible map")
    if not m.source.is_connected():
        raise InputError("audit requires a connected source")
    if not m.target.is_reduced():
        raise InputError("audit requires a reduced target")
    src, tgt = m.source, m.target

    beta, t = tgt.betti(), len(tgt.terminal_vertices())
    beta_bar, t_bar = src.betti(), len(src.terminal_vertices())
    bad = bad_vertices(m)
    t_good = t - len(bad)
    minimal = minimal_plateaux(m)
    # one subgraph may qualify for several primes; count subgraphs once
    subgraphs = {(P.vertices, P.edges) for P in minimal}
    c = _hitting_number(tgt, minimal)
    bad_subgraphs = {(P.vertices, P.edges) for P in _bad_plateaux(m, minimal)}
    good_plateau_count = len(subgraphs) - len(bad_subgraphs)
    classification = classify(m)

    quantities = {
        "beta": beta, "t": t, "beta-source": beta_bar, "t-source": t_bar,
        "t-good": t_good, "c": c, "c-good": good_plateau_count,
        "bad-vertices": len(bad), "minimal-plateaux": len(subgraphs),
        "total-multiplicity": m.total_multiplicity(),
    }
    entries: list[AuditEntry] = []

    delta_sum = sum(doubled_deltas(m).values())
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

    inventory = all_plateaux(tgt).proper_plateaux
    two_plateaux = [P for P in inventory if P.prime == 2]

    def parity_varies(plateau: Plateau) -> bool:
        parities = {len(m.vertex_preimages[v]) % 2 for v in plateau.vertices}
        parities |= {len(m.edge_preimages[name]) % 2 for name in plateau.edges}
        return len(parities) > 1

    parity_plateaux = list(two_plateaux)
    if all(tgt.label(d) % 2 != 0 for d in tgt.darts()):
        parity_plateaux.append(Plateau(2, frozenset(tgt.vertices),
                                       frozenset(r.name for r in tgt.edges),
                                       is_whole_graph=True))
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
                if totally_unfolded(m, P) and odd_multiplicity(P)), None)
    entries.append(AuditEntry(
        "unfolded-even-multiplicity", odd is None,
        "2-unfolded plateaux carry even multiplicities" if odd is None
        else f"odd multiplicity over 2-plateau {sorted(odd.vertices)}"))

    folded = next((P for P in inventory
                   if not _has_plateau_preimage_component(m, P)
                   and not totally_unfolded(m, P)), None)
    entries.append(AuditEntry(
        "unfolded-preimage", folded is None,
        "plateaux without plateau preimages are unfolded" if folded is None
        else (f"{folded.prime}-plateau {sorted(folded.vertices)} has no "
              "plateau preimage yet is not totally unfolded")))

    return AuditReport(classification, quantities, tuple(entries))


def _has_plateau_preimage_component(m: AdmissibleMap, plateau: Plateau) -> bool:
    """Is some component of the preimage subgraph itself a plateau of the source?"""
    pre_vertices = [x for v in plateau.vertices for x in m.vertex_preimages[v]]
    pre_edges = {name for ename in plateau.edges for name in m.edge_preimages[ename]}
    return any(check_plateau(m.source, Plateau(plateau.prime, frozenset(vertices), edges))
               for vertices, edges in m.source.subgraph_components(pre_edges, pre_vertices))
