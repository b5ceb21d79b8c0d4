"""Golden outputs: sheet names, wiring, witnesses, graph moves and suite reports, pinned byte for byte.

The cover constructions name and wire their sheets deterministically, and
the suite reports are deterministic for a fixed count and seed; these
values were recorded before the constructions shared one sheet builder,
the witness digests before the witness search keyed covers canonically,
the graph-move digest before `LabelledGraph` shared its sign changes and
tree walks, and they must never change silently.
"""

import hashlib

import pytest

from conftest import bs, f2, f3, witness_cases
from gbs import (GeneratorConfig, LabelledGraph, branched_cover, commensurable,
                 emit_graph, emit_map, generate_graph, is_topological_covering,
                 plateau_free_cover, plateaux_for_prime, voltage_cover)
from gbs.cli import main

PATH_2_3 = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2, 3)])
THREE_PRIMES = LabelledGraph.build(
    ["a", "b", "c"],
    [("e", "a", "b", 4, 3), ("f", "b", "c", 2, 9), ("l", "a", "a", 5, 7)])


def emitted(m) -> str:
    return emit_graph(m.source) + emit_map(m, "src.gbs", "tgt.gbs")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestCoverText:
    def test_branched_over_loop_plateau(self):
        g = bs(2, 4)
        assert emitted(branched_cover(g, plateaux_for_prime(g, 2)[0])) == (
            "vertex v.0\n"
            "edge e.1 v.0 v.0 1 2\n"
            "edge e.2 v.0 v.0 1 2\n"
            "map from src.gbs to tgt.gbs\n"
            "vmap v.0 v 2\n"
            "emap e.1 e 1\n"
            "emap e.2 e 1\n")

    def test_branched_over_terminal_plateau(self):
        assert emitted(branched_cover(PATH_2_3, plateaux_for_prime(PATH_2_3, 3)[0])) == (
            "vertex a.1\nvertex a.2\nvertex a.3\nvertex b.0\n"
            "edge e.1 a.1 b.0 2 1\n"
            "edge e.2 a.2 b.0 2 1\n"
            "edge e.3 a.3 b.0 2 1\n"
            "map from src.gbs to tgt.gbs\n"
            "vmap a.1 a 1\nvmap a.2 a 1\nvmap a.3 a 1\nvmap b.0 b 3\n"
            "emap e.1 e 1\nemap e.2 e 1\nemap e.3 e 1\n")

    def test_branched_digest(self):
        m = branched_cover(f2(), plateaux_for_prime(f2(), 3)[0])
        assert sha256(emitted(m)) == \
            "900a6539c2446739cb055e20dfd4a777ea2d6ff0e8374117a52f9cefb594eb8e"

    def test_voltage_digest(self):
        m = voltage_cover(f3(), 3, {"e_1": (1, 2, 0), "e_2": (0, 2, 1), "e_3": (2, 1, 0)})
        assert sha256(emitted(m)) == \
            "d2a0d1982b17312dc92765e24576ca672a71db4dc99e259808abf3025b323731"

    def test_plateau_free_over_two_primes(self):
        # the 2-step and the 3-step each add one suffix to the sheet names
        assert emitted(plateau_free_cover(PATH_2_3)) == (
            "vertex a.1.1\nvertex a.1.2\nvertex a.1.3\nvertex b.1.1\nvertex b.2.1\n"
            "edge e.1.1 a.1.1 b.1.1 1 1\n"
            "edge e.1.2 a.1.2 b.1.1 1 1\n"
            "edge e.1.3 a.1.3 b.1.1 1 1\n"
            "edge e.2.1 a.1.1 b.2.1 1 1\n"
            "edge e.2.2 a.1.2 b.2.1 1 1\n"
            "edge e.2.3 a.1.3 b.2.1 1 1\n"
            "map from src.gbs to tgt.gbs\n"
            "vmap a.1.1 a 2\nvmap a.1.2 a 2\nvmap a.1.3 a 2\n"
            "vmap b.1.1 b 3\nvmap b.2.1 b 3\n"
            "emap e.1.1 e 1\nemap e.1.2 e 1\nemap e.1.3 e 1\n"
            "emap e.2.1 e 1\nemap e.2.2 e 1\nemap e.2.3 e 1\n")

    def test_plateau_free_single_round(self):
        assert emitted(plateau_free_cover(bs(2, 4))) == (
            "vertex v.1\n"
            "edge e.1 v.1 v.1 1 2\n"
            "edge e.2 v.1 v.1 1 2\n"
            "map from src.gbs to tgt.gbs\n"
            "vmap v.1 v 2\n"
            "emap e.1 e 1\n"
            "emap e.2 e 1\n")

    def test_plateau_free_digest(self):
        assert sha256(emitted(plateau_free_cover(THREE_PRIMES))) == \
            "0f5c14494d2564935d36e376529e50748a3528f40934d2289314d9814d200305"

    def test_cli_voltage_digest(self, tmp_path, capsys):
        path = tmp_path / "f3.gbs"
        path.write_text(emit_graph(f3()))
        prefix = tmp_path / "volt"
        assert main(["cover", "voltage", str(path), "--degree", "3",
                     "--seed", "2", "--out", str(prefix)]) == 0
        text = (tmp_path / "volt.src.gbs").read_text() + (tmp_path / "volt.map").read_text()
        assert sha256(text) == \
            "3450ab7be729981f66b17108ce3e817c96dd04163f897eecdc591dd7c329d692"


SUITE_DIGESTS = {  # name: (count, sha256 of the report at seed 1)
    "plateau-free-cover":
        (10, "a2b6d405cea5f546e0da7a6cd3bce2bdb05f237a89a2732701159396e2a4cf3d"),
    "rank-monotonicity":
        (20, "4b88e007f8e345d9095865ee78a1758acbb277a0d099549584735b2843eee1bd"),
    "audit":
        (20, "6bd0e2eac303e652688a293de2e6d25636a2a3e672ccd4dfe86234a753b293ad"),
    "covering-equivalence":
        (20, "bbda3605b1d6f6835d0fa36218584beacca1676a30793546497113017c681d4b"),
}


@pytest.mark.parametrize("name", SUITE_DIGESTS)
def test_suite_report_digest(capsys, name):
    count, digest = SUITE_DIGESTS[name]
    assert main(["suite", name, "--count", str(count), "--seed", "1"]) == 0
    assert sha256(capsys.readouterr().out) == digest


WITNESS_DIGESTS = {  # witness case: sha256 of both witness parts, first then second
    "bs23-circle": "5ff5468c339ae17e9700d6297b1ba04864e576d1d6fccd9a7cf00627c47c82b7",
    "bs35-cover": "19673cc70628db8bbea0a86b4239bdae3bcfb5a8af4b9f5e4cd37efebf0439f4",
    "bs2m3-bs23": "4fb84e961e0114b3f627aeeb06161dbb38999a26e6c97b461f9d9a771e1b37ee",
    "r2-loops-swap": "a56f9658431f09f635d9c43f0b81f3d5a6950955221610a6b579e560f59ba686",
    "r2-swap-loops": "d602061519929405428923778554c241d71a0b922e601291ab0ac4f0131278ea",
    "r2-deg2-deg3": "3131ad6e95562d73296bc9e66ccf180daeaf67c449b0aadb6fc3d2c98d859650",
}


@pytest.mark.parametrize("name", WITNESS_DIGESTS)
def test_witness_digest(name):
    g1, g2, degree = witness_cases()[name]
    witness = commensurable(g1, g2, witness_max_degree=degree).witness
    assert sha256("".join(emitted(m) for m in witness)) == WITNESS_DIGESTS[name]
    assert all(is_topological_covering(m) for m in witness)


def test_graph_moves_digest():
    # modulus loops and values, normalize_signs and reduce on generated graphs
    lines = []
    for magnitude in (6, 18, 60):
        for seed in range(1, 501):
            g = generate_graph(GeneratorConfig(seed, max_vertices=7, max_edges=11,
                                               max_label_magnitude=magnitude))
            for entry in g.modulus().entries:
                lines.append(" ".join(d.render() for d in entry.loop) + f" {entry.value}\n")
            lines.append(emit_graph(g.normalize_signs()))
            lines.append(emit_graph(g.reduce()))
    assert sha256("".join(lines)) == \
        "70e9421e20f6293620593346c29bb567e782fa037420c8a4a096ae5b3b5620ce"
