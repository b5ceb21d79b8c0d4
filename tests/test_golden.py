"""Golden outputs: sheet names, wiring, witnesses, graph moves and suite reports, pinned byte for byte.

The cover constructions name and wire their sheets deterministically, and
the suite reports are deterministic for a fixed count and seed; these
values were recorded before the constructions shared one sheet builder,
the witness digests and those of the printed witness bijections when the
witness became the smallest fibre-product component (after both parts
passed the covering and networkx checks),
the graph-move digest before `LabelledGraph` shared its sign changes and
tree walks, and they must never change silently.
"""

import hashlib

import pytest

from conftest import THREE_PRIMES, bs, f2, f3, witness_cases
from gbs import (GeneratorConfig, LabelledGraph, branched_cover, commensurable,
                 emit_graph, emit_map, generate_graph, is_topological_covering,
                 plateau_free_cover, plateaux_for_prime, voltage_cover)
from gbs.cli import main

PATH_2_3 = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2, 3)])


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
    "bs23-circle": "06335438f257ed0cdba33e54244d66cdf366a5dbf42ad4605ead6b556231bf55",
    "bs35-cover": "6a1d70a83597a209d437e68e1b0148601a306e7184b8cda5f42255065414acb2",
    "bs2m3-bs23": "d867a7695f546c63ce4a35e6757b792a8a25898a5c31154beda63c666994dea5",
    "r2-loops-swap": "8a98337fb8d28ab6af21e672314fc6a6feaf1156d6a82a4d04db7fe84893164c",
    "r2-swap-loops": "a717db8d90b7fd407d176306f234c6080cc0f589affb6f4714f7757509ab04c9",
    "r2-deg2-deg3": "9e47e90fe5d38f8fa32293b50d68e43410d8df701140ea67c3a9c11620c6c89c",
    "r2-asymmetric-rotated": "44dc43026df4e7981769be87ce7f894adf4c8c00d3988ae277f57ac284f209b1",
    "r2-tied-components": "c03264d786eefd1af92f0a6935b8f1fc77b3ee9250612b113b1fea082c42bd38",
}


@pytest.mark.parametrize("name", WITNESS_DIGESTS)
def test_witness_digest(name):
    g1, g2, degree = witness_cases()[name]
    witness = commensurable(g1, g2, witness_max_degree=degree).witness
    assert sha256("".join(emitted(m) for m in witness)) == WITNESS_DIGESTS[name]
    assert all(is_topological_covering(m) for m in witness)


ISO_LINE_DIGESTS = {  # witness case: sha256 of the iso-vertex and iso-edge lines
    "bs23-circle": "cc04cf9a00e9fb38653521a5426079903716cd28b69925640c253d27c454e937",
    "bs35-cover": "ff3c5eef6564e8a30c8ce59cc2dfdfa1e911e4dc9a4dc91f44f955c8af3d5373",
    "bs2m3-bs23": "cc04cf9a00e9fb38653521a5426079903716cd28b69925640c253d27c454e937",
    "r2-loops-swap": "6617060d66437f81d3dc4bdf4166ca71d475d2c0130b9b090714579ef8103e06",
    "r2-swap-loops": "6617060d66437f81d3dc4bdf4166ca71d475d2c0130b9b090714579ef8103e06",
    "r2-deg2-deg3": "4e6972095c501a95b3f2007231aef4c17778eb2c10b932172b02d4b4188b352d",
    "r2-asymmetric-rotated": "528ed49a1d12852db1fbb46d690fa993a6232e8009aaf2c6fc0d142fd43d48b5",
    "r2-tied-components": "d9e188132261de267ff19faf3cbaf194b9820a1390a968b7b2e1509711d05359",
}


@pytest.mark.parametrize("name", ISO_LINE_DIGESTS)
def test_witness_iso_lines_digest(tmp_path, capsys, name):
    g1, g2, degree = witness_cases()[name]
    paths = [tmp_path / "first.gbs", tmp_path / "second.gbs"]
    for path, g in zip(paths, (g1, g2)):
        path.write_text(emit_graph(g))
    assert main(["commensurable", *map(str, paths), "--witness", "--max-degree",
                 str(degree), "--out", str(tmp_path / "wit")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines(keepends=True)
             if line.startswith("iso-")]
    assert sha256("".join(lines)) == ISO_LINE_DIGESTS[name]


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
