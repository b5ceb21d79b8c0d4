"""Command-line front end.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 usage or
parse error (including out-of-scope inputs), 3 internal invariant failure.
The environment variable GBS_SEED overrides any --seed option.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import io
from .analysis import check_inequalities, classify
from .covering import (branched_cover, compose, extract_proper_plateau,
                       is_topological_covering, plateau_free_cover,
                       verify_admissible, voltage_cover, restrict_to_component)
from .decide import commensurable, is_large
from .errors import GbsError, InputError, InternalError
from .generate import random_voltage_assignment
from .graph import LabelledGraph
from .plateau import (all_plateaux, generates, minimum_generating_vertices, mu,
                      plateaux_for_prime, rank)
from .suites import run_suite
from .torus import _mapping_torus_graph, _subdivide_inverted_edges, verify_automorphism

# the most source vertices a `cover` command may build; each predicts the
# size first and refuses a larger cover with exit 2, writing nothing
COVER_VERTEX_LIMIT = 10_000


def _check_cover_size(predicted: int) -> None:
    if predicted > COVER_VERTEX_LIMIT:
        raise InputError(f"cover would have {predicted} vertices, above the limit "
                         f"{COVER_VERTEX_LIMIT}")


def _plateau_line(g: LabelledGraph, plateau) -> str:
    vertices = ",".join(v for v in g.vertices if v in plateau.vertices)
    edges = ",".join(r.name for r in g.edges if r.name in plateau.edges)
    return f"p={plateau.prime} vertices={vertices} edges={edges}"


def _seed(args) -> int:
    env = os.environ.get("GBS_SEED")
    if env is None:
        return args.seed
    if not env.isdecimal():
        raise InputError(f"GBS_SEED must be a nonnegative integer, not {env!r}")
    return int(env)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote={path}")


def _emit_cover(m, out_prefix: str, target_path: str) -> None:
    source_path = f"{out_prefix}.src.gbs"
    map_path = f"{out_prefix}.map"
    # references are resolved relative to the map file when loaded back
    map_dir = os.path.dirname(os.path.abspath(map_path))
    target_ref = os.path.relpath(os.path.abspath(target_path), start=map_dir)
    _write(source_path, io.emit_graph(m.source))
    _write(map_path, io.emit_map(m, os.path.basename(source_path), target_ref))
    print(f"total-multiplicity={m.total_multiplicity()}")


def cmd_rank(args) -> int:
    g = io.load_graph(args.file)
    plateaunic, betti = mu(g), g.betti()
    print(f"rank={betti + plateaunic} betti={betti} mu={plateaunic}")
    return 0


def cmd_mu(args) -> int:
    g = io.load_graph(args.file)
    witness = minimum_generating_vertices(g)
    ordered = ",".join(v for v in g.vertices if v in witness)
    print(f"mu={len(witness)} witness={ordered}")
    return 0


def cmd_plateaux(args) -> int:
    g = io.load_graph(args.file)
    plateaux = plateaux_for_prime(g, args.prime) if args.prime \
        else all_plateaux(g).proper_plateaux
    for plateau in plateaux:
        print(_plateau_line(g, plateau))
    return 0


def cmd_generates(args) -> int:
    g = io.load_graph(args.file)
    keep = frozenset(v for v in args.keep.split(",") if v)
    verdict = generates(g, keep)
    print(f"generates={str(verdict).lower()}")
    return 0 if verdict else 1


def cmd_reduce(args) -> int:
    print(io.emit_graph(io.load_graph(args.file).reduce()), end="")
    return 0


def cmd_normalize(args) -> int:
    print(io.emit_graph(io.load_graph(args.file).normalize_signs()), end="")
    return 0


def cmd_modulus(args) -> int:
    g = io.load_graph(args.file)
    modulus = g.modulus()
    for entry in modulus.entries:
        loop = ",".join(d.render() for d in entry.loop)
        print(f"loop={loop} value={entry.value}")
    print(f"unimodular={str(modulus.is_unimodular()).lower()} "
          f"nontrivial-center={str(modulus.is_trivial()).lower()}")
    return 0


def cmd_large(args) -> int:
    verdict = is_large(io.load_graph(args.file))
    print(f"large={str(verdict).lower()}")
    return 0 if verdict else 1


def cmd_commensurable(args) -> int:
    g1, g2 = io.load_graph(args.file1), io.load_graph(args.file2)
    degree = args.max_degree if args.witness else None
    verdict = commensurable(g1, g2, witness_max_degree=degree)
    print(verdict.render())
    if verdict.witness is not None:
        first, second = verdict.witness
        prefix = args.out
        _write(f"{prefix}.target1.gbs", io.emit_graph(first.target))
        _write(f"{prefix}.target2.gbs", io.emit_graph(second.target))
        _emit_cover(first, f"{prefix}.cover1", f"{prefix}.target1.gbs")
        _emit_cover(second, f"{prefix}.cover2", f"{prefix}.target2.gbs")
        for v, image in verdict.isomorphism.items():
            print(f"iso-vertex {v} {image}")
        for name, image in verdict.edge_isomorphism.items():
            print(f"iso-edge {name} {image}")
    if verdict.answer == "commensurable":
        return 0
    if verdict.answer == "not-commensurable":
        return 1
    return 2


def cmd_cover_verify(args) -> int:
    m = io.load_map(args.map)
    result = verify_admissible(m)
    if not result:
        print(result.render())
        return 1
    print(f"admissible=true total-multiplicity={m.total_multiplicity()} "
          f"topological={str(is_topological_covering(m)).lower()}")
    return 0


def cmd_cover_branch(args) -> int:
    g = io.load_graph(args.file)
    for plateau in plateaux_for_prime(g, args.prime):
        if args.plateau_vertex in plateau.vertices:
            inside = len(plateau.vertices)
            _check_cover_size(inside + args.prime * (len(g.vertices) - inside))
            _emit_cover(branched_cover(g, plateau), args.out, args.file)
            return 0
    raise InputError(f"no proper {args.prime}-plateau contains "
                     f"vertex {args.plateau_vertex!r}")


def cmd_cover_voltage(args) -> int:
    g = io.load_graph(args.file)
    _check_cover_size(args.degree * len(g.vertices))
    assignment = random_voltage_assignment(random.Random(_seed(args)), g, args.degree)
    cover = voltage_cover(g, args.degree, assignment)
    if args.component:
        cover = restrict_to_component(cover)
    _emit_cover(cover, args.out, args.file)
    return 0


def cmd_cover_plateau_free(args) -> int:
    g = io.load_graph(args.file)
    _emit_cover(plateau_free_cover(g, size_limit=COVER_VERTEX_LIMIT), args.out, args.file)
    return 0


def cmd_cover_compose(args) -> int:
    outer = io.load_map(args.map1)
    inner = io.load_map(args.map2)
    composite = compose(outer, inner)
    target_path = f"{args.out}.target.gbs"
    _write(target_path, io.emit_graph(composite.target))
    _emit_cover(composite, args.out, target_path)
    return 0


def cmd_cover_extract(args) -> int:
    m = io.load_map(args.map)
    if is_topological_covering(m):
        print("topological covering: no proper plateau to extract")
        return 1
    print(_plateau_line(m.target, extract_proper_plateau(m)))
    return 0


def cmd_cover_classify(args) -> int:
    m = io.load_map(args.map)
    result = classify(m)
    print(result.render())
    for plateau in result.branching_plateaux:
        print(_plateau_line(m.target, plateau))
    return 0


def cmd_cover_audit(args) -> int:
    report = check_inequalities(io.load_map(args.map))
    print(report.render())
    return 0 if report.ok else 3


def cmd_mapping_torus(args) -> int:
    automorphism = io.load_automorphism(args.file)
    order = verify_automorphism(automorphism)
    quotient = _mapping_torus_graph(_subdivide_inverted_edges(automorphism))
    print(f"order={order}")
    print(io.emit_graph(quotient), end="")
    if not args.graph_only:
        print(f"rank={rank(quotient)}")
    return 0


def cmd_suite(args) -> int:
    seed = _seed(args)
    report = run_suite(args.name, count=args.count, base_seed=seed)
    print(report.render())
    return 0 if report.ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbs",
        description="Invariants and finite-index covers of labelled graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        return p

    command("rank", cmd_rank).add_argument("file")
    command("mu", cmd_mu).add_argument("file")
    p = command("plateaux", cmd_plateaux)
    p.add_argument("file")
    p.add_argument("--prime", type=int, default=None)
    p = command("generates", cmd_generates)
    p.add_argument("file")
    p.add_argument("--keep", required=True, help="comma-separated vertex ids")
    command("reduce", cmd_reduce).add_argument("file")
    command("normalize", cmd_normalize).add_argument("file")
    command("modulus", cmd_modulus).add_argument("file")
    command("large", cmd_large).add_argument("file")
    p = command("commensurable", cmd_commensurable)
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--out", default="witness")

    cover = sub.add_parser("cover").add_subparsers(dest="subcommand", required=True)

    def cover_command(name, handler):
        p = cover.add_parser(name)
        p.set_defaults(func=handler)
        return p

    cover_command("verify", cmd_cover_verify).add_argument("map")
    p = cover_command("branch", cmd_cover_branch)
    p.add_argument("file")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--plateau-vertex", required=True)
    p.add_argument("--out", default="branch")
    p = cover_command("voltage", cmd_cover_voltage)
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--component", action="store_true",
                   help="restrict to the first connected component")
    p.add_argument("--out", default="voltage")
    p = cover_command("plateau-free", cmd_cover_plateau_free)
    p.add_argument("file")
    p.add_argument("--out", default="plateaufree")
    p = cover_command("compose", cmd_cover_compose)
    p.add_argument("map1", help="outer map (its source is map2's target)")
    p.add_argument("map2", help="inner map")
    p.add_argument("--out", default="composite")
    cover_command("extract-plateau", cmd_cover_extract).add_argument("map")
    cover_command("classify", cmd_cover_classify).add_argument("map")
    cover_command("audit", cmd_cover_audit).add_argument("map")

    p = command("mapping-torus", cmd_mapping_torus)
    p.add_argument("file")
    p.add_argument("--graph-only", action="store_true")
    p = command("suite", cmd_suite)
    p.add_argument("name")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (GbsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
