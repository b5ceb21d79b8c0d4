import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import R2, R3, bs, circle_graph, cyclic_cover, f1, f3, f4_map
from gbs import InternalError, emit_graph, emit_map, load_map, verify_admissible, voltage_cover
from gbs import cli, covering, plateau, torus
from gbs.cli import main


THETA_AUT = ("vertex P\nvertex Q\n"
             "edge a P Q\nedge b P Q\nedge c P Q\n"
             "fv P Q\nfv Q P\nfe a ~b\nfe b ~c\nfe c ~a\n")


def rotated_cycle(n: int) -> str:
    """The rotation by one of an n-cycle, as an automorphism file."""
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"edge e{i} v{i} v{(i + 1) % n}" for i in range(n)]
    lines += [f"fv v{i} v{(i + 1) % n}" for i in range(n)]
    lines += [f"fe e{i} e{(i + 1) % n}" for i in range(n)]
    return "\n".join(lines) + "\n"


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(emit_graph(graph))
    return str(path)


@pytest.fixture
def f4_files(tmp_path):
    m = f4_map()
    (tmp_path / "src.gbs").write_text(emit_graph(m.source))
    (tmp_path / "tgt.gbs").write_text(emit_graph(m.target))
    map_path = tmp_path / "f4.map"
    map_path.write_text(emit_map(m, "src.gbs", "tgt.gbs"))
    return str(map_path)


class TestBasicCommands:
    def test_rank(self, tmp_path, capsys):
        path = write_graph(tmp_path, "f3.gbs", f3())
        assert main(["rank", path]) == 0
        assert capsys.readouterr().out.strip() == "rank=3 betti=1 mu=2"

    def test_rank_factors_labels_once(self, tmp_path, capsys, monkeypatch):
        """Each label magnitude is factored once, and each divisibility class
        of the label primes is walked once."""
        factored, walked = [], []
        for name, calls in (("prime_factors", factored), ("_walk", walked)):
            def counting(*args, real=getattr(plateau, name), calls=calls):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(plateau, name, counting)
        path = write_graph(tmp_path, "f3.gbs", f3())
        assert main(["rank", path]) == 0
        assert capsys.readouterr().out == "rank=3 betti=1 mu=2\n"
        assert sorted(n for n, in factored) == [2, 3, 5]
        assert len(walked) == len({mask for _, mask in walked}) == 3

    def test_mu(self, tmp_path, capsys):
        path = write_graph(tmp_path, "f3.gbs", f3())
        assert main(["mu", path]) == 0
        assert capsys.readouterr().out.strip() == "mu=2 witness=v_a,v_b"

    def test_plateaux_format(self, tmp_path, capsys):
        path = write_graph(tmp_path, "f1.gbs", f1(7))
        assert main(["plateaux", path, "--prime", "2"]) == 0
        assert capsys.readouterr().out.strip() == "p=2 vertices=v_b,v_c edges=e_2"

    def test_generates_exit_codes(self, tmp_path, capsys):
        path = write_graph(tmp_path, "f1.gbs", f1(7))
        assert main(["generates", path, "--keep", "v_a,v_c"]) == 0
        assert main(["generates", path, "--keep", "v_b"]) == 1

    def test_reduce_prints_graph(self, tmp_path, capsys):
        from gbs import LabelledGraph
        g = LabelledGraph.build(["u", "w"],
                                [("s", "u", "w", 1, 3), ("l", "u", "u", 5, 7)])
        path = write_graph(tmp_path, "g.gbs", g)
        assert main(["reduce", path]) == 0
        assert capsys.readouterr().out == "vertex w\nedge l w w 15 21\n"

    def test_normalize_prints_graph(self, tmp_path, capsys):
        path = write_graph(tmp_path, "neg.gbs", bs(-2, -3))
        assert main(["normalize", path]) == 0
        assert capsys.readouterr().out == "vertex v\nedge e v v 2 3\n"

    def test_modulus(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bs.gbs", bs(2, 3))
        assert main(["modulus", path]) == 0
        out = capsys.readouterr().out
        assert "loop=e value=2/3" in out
        assert "unimodular=false nontrivial-center=false" in out

    def test_large_exit_codes(self, tmp_path):
        assert main(["large", write_graph(tmp_path, "a.gbs", bs(2, 4))]) == 0
        assert main(["large", write_graph(tmp_path, "b.gbs", bs(2, 3))]) == 1

    def test_parse_error_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.gbs"
        path.write_text("vertex v\nedge e v v 0 3\n")
        assert main(["rank", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_exit_two(self, capsys):
        assert main(["rank", "definitely-not-here.gbs"]) == 2

    @pytest.mark.parametrize("argv", [
        ["rank", "bad.gbs"], ["mapping-torus", "bad.aut"], ["cover", "verify", "bad.map"],
        ["cover", "verify", "refers.map"], ["cover", "plateau-free", "bad.gbs", "--out", "out"]],
        ids=["graph", "automorphism", "map", "referenced-graph", "plateau-free"])
    def test_non_utf8_input_is_exit_two(self, tmp_path, capsys, monkeypatch, argv):
        (tmp_path / "bad.gbs").write_bytes(b"vertex a\xff\n")
        (tmp_path / "bad.aut").write_bytes(b"vertex a\nfv a a\n# \xff\n")
        (tmp_path / "bad.map").write_bytes(b"map from bad.gbs to bad.gbs\xff\n")
        (tmp_path / "refers.map").write_text("map from bad.gbs to bad.gbs\nvmap a a 1\n")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line ") and "is not UTF-8 text" in captured.err
        assert sorted(tmp_path.iterdir()) == before

    def test_internal_error_is_exit_three(self, tmp_path, capsys, monkeypatch):
        def broken(g):
            raise InternalError("planted")

        monkeypatch.setattr(cli, "mu", broken)
        assert main(["rank", write_graph(tmp_path, "f3.gbs", f3())]) == 3
        assert capsys.readouterr().err == "internal error: planted\n"

    @pytest.mark.parametrize("error, need", [(MemoryError, "memory"),
                                             (RecursionError, "recursion depth")])
    @pytest.mark.parametrize("command", ["rank", "suite"])
    def test_running_out_is_exit_two_without_a_traceback(self, tmp_path, capsys, monkeypatch,
                                                         error, need, command):
        """A backstop: an input that escapes every bound and exhausts memory or the
        recursion depth is refused with exit 2, not answered with exit 1."""
        def exhausted(*args, **kwargs):
            raise error("planted")

        argv = {"rank": ["rank", write_graph(tmp_path, "f3.gbs", f3())],
                "suite": ["suite", "plateau-free-cover", "--count", "1"]}[command]
        monkeypatch.setattr(cli, {"rank": "mu", "suite": "run_suite"}[command], exhausted)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == f"error: the input needs more {need} than this process has\n"


class TestCoverCommands:
    def test_verify(self, f4_files, capsys):
        assert main(["cover", "verify", f4_files]) == 0
        out = capsys.readouterr().out
        assert "admissible=true" in out and "topological=false" in out
        assert "total-multiplicity=2" in out

    def test_verify_reports_the_first_violation(self, tmp_path, capsys):
        m = f4_map()
        (tmp_path / "src.gbs").write_text(emit_graph(m.source))
        (tmp_path / "tgt.gbs").write_text(emit_graph(m.target))
        broken = replace(m, edge_multiplicity={"a": 2, "b": 1, "m": 2})
        (tmp_path / "bad.map").write_text(emit_map(broken, "src.gbs", "tgt.gbs"))
        assert main(["cover", "verify", str(tmp_path / "bad.map")]) == 1
        assert capsys.readouterr().out == ("admissible=false kind=condition-star site=x/a "
                                           "detail=lift multiplicity 2 differs from 1\n")

    def test_disconnected_graph_is_rejected_before_branching(self, tmp_path, capsys):
        path = str(tmp_path / "g.gbs")
        Path(path).write_text("vertex a\nvertex b\nedge e a a 2 3\n")
        assert main(["plateaux", path, "--prime", "2"]) == 2
        assert main(["plateaux", path]) == 2
        assert main(["cover", "branch", path, "--prime", "2", "--plateau-vertex", "b",
                     "--out", str(tmp_path / "b")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: operation requires a connected graph\n" * 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.gbs"]

    def test_branch_writes_a_loadable_map(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bs24.gbs", bs(2, 4))
        out_prefix = str(tmp_path / "branch")
        assert main(["cover", "branch", path, "--prime", "2",
                     "--plateau-vertex", "v", "--out", out_prefix]) == 0
        loaded = load_map(out_prefix + ".map")
        assert verify_admissible(loaded)
        assert loaded.total_multiplicity() == 2

    def test_branch_without_plateau(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bs23.gbs", bs(2, 3))
        assert main(["cover", "branch", path, "--prime", "2",
                     "--plateau-vertex", "v", "--out", str(tmp_path / "x")]) == 2

    def test_voltage_and_classify(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bs23.gbs", bs(2, 3))
        prefix = str(tmp_path / "volt")
        assert main(["cover", "voltage", path, "--degree", "2",
                     "--seed", "3", "--out", prefix]) == 0
        assert main(["cover", "verify", prefix + ".map"]) == 0
        assert main(["cover", "classify", prefix + ".map"]) == 0
        assert "kind=" in capsys.readouterr().out
        # seed 0 draws the identity, two sheets apart; --component keeps the first
        assert main(["cover", "voltage", path, "--degree", "2", "--seed", "0",
                     "--component", "--out", prefix]) == 0
        part = load_map(prefix + ".map")
        assert part.source.vertices == ("v.1",) and verify_admissible(part)

    def test_plateau_free(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bs24.gbs", bs(2, 4))
        prefix = str(tmp_path / "pf")
        assert main(["cover", "plateau-free", path, "--out", prefix]) == 0
        loaded = load_map(prefix + ".map")
        assert verify_admissible(loaded)

    def test_extract_and_audit(self, f4_files, capsys):
        assert main(["cover", "extract-plateau", f4_files]) == 0
        assert capsys.readouterr().out.strip() == "p=2 vertices=u edges="
        assert main(["cover", "audit", f4_files]) == 0
        out = capsys.readouterr().out
        assert "audit=pass" in out and "kind=generalized-branched" in out
        assert main(["cover", "classify", f4_files]) == 0
        assert capsys.readouterr().out == (
            "kind=generalized-branched exceptional=true size=- branching-plateaux=1\n"
            "p=2 vertices=w edges=l\n")

    def test_extract_on_topological_cover(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bs23.gbs", bs(2, 3))
        prefix = str(tmp_path / "volt")
        main(["cover", "voltage", path, "--degree", "2", "--seed", "1",
              "--out", prefix])
        capsys.readouterr()
        assert main(["cover", "extract-plateau", prefix + ".map"]) == 1

    def test_compose(self, tmp_path, f4_files, capsys):
        m = f4_map()
        identity_path = tmp_path / "id.map"
        identity_lines = ["map from src.gbs to src.gbs"]
        identity_lines += [f"vmap {v} {v} 1" for v in m.source.vertices]
        identity_lines += [f"emap {r.name} {r.name} 1" for r in m.source.edges]
        identity_path.write_text("\n".join(identity_lines) + "\n")
        prefix = str(tmp_path / "comp")
        assert main(["cover", "compose", f4_files, str(identity_path),
                     "--out", prefix]) == 0
        out = capsys.readouterr().out
        assert "total-multiplicity=2" in out

    @pytest.mark.parametrize("bad_first", [True, False], ids=["outer", "inner"])
    def test_compose_rejects_non_admissible_input(self, tmp_path, capsys, bad_first):
        (tmp_path / "g.gbs").write_text("vertex v\nedge a v v 2 3\n")
        (tmp_path / "bad.map").write_text("map from g.gbs to g.gbs\nvmap v v 1\nemap a a 2\n")
        (tmp_path / "id.map").write_text("map from g.gbs to g.gbs\nvmap v v 1\nemap a a 1\n")
        bad, good = str(tmp_path / "bad.map"), str(tmp_path / "id.map")
        maps = [bad, good] if bad_first else [good, bad]
        assert main(["cover", "compose", *maps, "--out", str(tmp_path / "o")]) == 2
        role = "outer" if bad_first else "inner"
        assert f"{role} map is not admissible" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.map", "g.gbs", "id.map"]
        assert main(["cover", "classify", bad]) == 2


class TestInputBounds:
    # 2**61 - 1 is prime, far past trial division
    BIG = "vertex a\nvertex b\nedge e a b 2305843009213693951 2\n"

    def test_rank_on_a_huge_prime_label(self, tmp_path, capsys):
        path = tmp_path / "big.gbs"
        path.write_text(self.BIG)
        start = time.perf_counter()
        assert main(["rank", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "rank=2 betti=0 mu=2\n"

    def test_unfactorable_label_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "square.gbs"
        path.write_text(f"vertex a\nvertex b\nedge e a b {1000003 ** 2} 2\n")
        assert main(["rank", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot factor {1000003 ** 2}: ")

    @pytest.mark.parametrize("prime", ["0", "1", "4", "-3"])
    def test_non_prime_is_exit_two(self, tmp_path, capsys, prime):
        path = write_graph(tmp_path, "f3.gbs", f3())
        assert main(["plateaux", path, "--prime", prime]) == 2
        assert main(["cover", "branch", path, "--prime", prime, "--plateau-vertex", "v_a",
                     "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {prime} is not prime\n" * 2)
        assert not list(tmp_path.glob("out*"))

    def test_composite_past_trial_division_is_not_prime(self, tmp_path, capsys):
        path = write_graph(tmp_path, "f3.gbs", f3())
        assert main(["plateaux", path, "--prime", str(1000003 ** 2)]) == 2
        assert capsys.readouterr().err == "error: 1000006000009 is not prime\n"

    @pytest.mark.parametrize("argv, predicted", [
        (["voltage", "two-loops.gbs", "--degree", "200000"], 200000),
        (["plateau-free", "big.gbs"], 2 ** 61 + 1),
        (["branch", "big.gbs", "--prime", "2305843009213693951", "--plateau-vertex", "a"],
         2 ** 61),
    ], ids=["voltage", "plateau-free", "branch"])
    def test_oversized_cover_is_exit_two(self, tmp_path, capsys, argv, predicted):
        (tmp_path / "big.gbs").write_text(self.BIG)
        write_graph(tmp_path, "two-loops.gbs", R2)
        start = time.perf_counter()
        assert main(["cover", argv[0], str(tmp_path / argv[1]), *argv[2:],
                     "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f" {predicted} vertices" in err and f"limit {covering.COVER_VERTEX_LIMIT}" in err
        assert not list(tmp_path.glob("out*"))

    def test_plateau_free_refused_at_a_later_prime(self, tmp_path, capsys):
        # the 2-sheets alone give 3 vertices, the 10007-sheets on top of them 10,009
        path = tmp_path / "two-primes.gbs"
        path.write_text("vertex a\nvertex b\nedge e a b 2 10007\n")
        assert main(["cover", "plateau-free", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: plateau-free cover would need 10009 vertices for prime 10007, "
            f"above the limit {covering.COVER_VERTEX_LIMIT}\n")
        assert not list(tmp_path.glob("out*"))

    def test_mapping_torus_of_a_long_cycle(self, tmp_path, capsys):
        path = tmp_path / "cycle.aut"
        path.write_text(rotated_cycle(3200))
        start = time.perf_counter()
        assert main(["mapping-torus", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert out.startswith("order=3200\n") and out.endswith("\nrank=2\n")

    @staticmethod
    def orbit_steps(tmp_path, monkeypatch) -> list[int]:
        """The members of every orbit walked, vertices and darts alike, by
        `gbs mapping-torus` on the rotated 200-cycle."""
        steps, real = [], torus._orbit

        def counting(start, image):
            orbit = real(start, image)
            steps.extend(orbit)
            return orbit

        monkeypatch.setattr(torus, "_orbit", counting)
        path = tmp_path / "cycle.aut"
        path.write_text(rotated_cycle(200))
        assert main(["mapping-torus", str(path)]) == 0
        return steps

    def test_mapping_torus_steps_each_dart_a_few_times(self, tmp_path, capsys, monkeypatch):
        steps = self.orbit_steps(tmp_path, monkeypatch)
        assert len(steps) <= 4 * 400  # 400 darts; quadratic walks made 120,600 steps

    def test_mapping_torus_walks_the_forward_orbits_once(self, tmp_path, capsys, monkeypatch):
        """The order walks the 200 vertices and 400 darts, `_inverted_edges` the 200
        forward darts, and the quotient the 200 forward darts again: 1,200.  The
        subdivision keeps its empty inverted set, so the quotient does not walk the
        forward darts a third time (1,400)."""
        assert len(self.orbit_steps(tmp_path, monkeypatch)) == 1200

    def test_cover_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(covering, "COVER_VERTEX_LIMIT", 6)
        path = write_graph(tmp_path, "bs23.gbs", bs(2, 3))
        assert main(["cover", "voltage", path, "--degree", "6",
                     "--out", str(tmp_path / "six")]) == 0
        assert main(["cover", "voltage", path, "--degree", "7",
                     "--out", str(tmp_path / "seven")]) == 2
        assert main(["cover", "branch", write_graph(tmp_path, "f1.gbs", f1(6)), "--prime", "3",
                     "--plateau-vertex", "v_a", "--out", str(tmp_path / "br")]) == 2
        err = capsys.readouterr().err
        assert err.count("error: cover would have 7 vertices, above the limit 6\n") == 2
        assert not list(tmp_path.glob("seven*")) and not list(tmp_path.glob("br*"))


class TestOtherCommands:
    def test_commensurable_exit_codes(self, tmp_path, capsys):
        a = write_graph(tmp_path, "a.gbs", bs(2, 3))
        b = write_graph(tmp_path, "b.gbs", circle_graph([(2, 3), (2, 3)]))
        c = write_graph(tmp_path, "c.gbs", bs(4, 9))
        d = write_graph(tmp_path, "d.gbs", bs(2, 4))
        assert main(["commensurable", a, b]) == 0
        assert main(["commensurable", a, c]) == 1
        assert main(["commensurable", d, a]) == 2

    def test_commensurable_witness_files(self, tmp_path, capsys):
        a = write_graph(tmp_path, "a.gbs", bs(2, 3))
        b = write_graph(tmp_path, "b.gbs", circle_graph([(2, 3), (2, 3)]))
        prefix = str(tmp_path / "wit")
        assert main(["commensurable", a, b, "--witness", "--max-degree", "2",
                     "--out", prefix]) == 0
        out = capsys.readouterr().out
        assert "iso-vertex" in out
        assert main(["cover", "verify", prefix + ".cover1.map"]) == 0

    def test_witness_search_over_the_limit_is_exit_two(self, tmp_path, capsys):
        # cyclic covers of R2 with 101 and 103 sheets: every common cover has
        # a multiple of 10,403 vertices, so nothing is walked
        a, b = (write_graph(tmp_path, f"c{n}.gbs", cyclic_cover(n)) for n in (101, 103))
        assert main(["commensurable", a, b, "--witness", "--max-degree", "103",
                     "--out", str(tmp_path / "wit")]) == 2
        assert capsys.readouterr().err == \
            "error: the smallest common cover has over 10000 vertices\n"
        assert not list(tmp_path.glob("wit*"))

    def test_walk_cut_at_the_limit_is_exit_two(self, tmp_path, capsys):
        # 101-sheeted cyclic covers of R2 turning different loops: the walk
        # of their one common cover, of 10,201 vertices, is cut at 10,000
        a = write_graph(tmp_path, "a.gbs", cyclic_cover(101))
        b = write_graph(tmp_path, "b.gbs", cyclic_cover(101, "b"))
        assert main(["commensurable", a, b, "--witness", "--max-degree", "100",
                     "--out", str(tmp_path / "wit")]) == 2
        assert capsys.readouterr().err == \
            "error: the smallest common cover has over 10000 vertices\n"
        assert not list(tmp_path.glob("wit*"))

    def test_nothing_is_walked_past_the_smallest_size(self, tmp_path, capsys):
        # every common cover of cyclic covers of R2 with 1000 and 999 sheets
        # has a multiple of 999,000 vertices, past the default degree 4
        a, b = (write_graph(tmp_path, f"c{n}.gbs", cyclic_cover(n)) for n in (1000, 999))
        start = time.perf_counter()
        assert main(["commensurable", a, b, "--witness", "--out", str(tmp_path / "wit")]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.endswith("; no witness within total multiplicity 4\n")
        assert not list(tmp_path.glob("wit*"))

    def test_r3_degree_five_witness(self, tmp_path, capsys):
        cover = voltage_cover(R3, 5, {e: (1, 2, 3, 4, 0) for e in "abc"}).source
        a = write_graph(tmp_path, "a.gbs", cover)
        b = write_graph(tmp_path, "b.gbs", R3)
        prefix = str(tmp_path / "wit")
        start = time.perf_counter()
        assert main(["commensurable", a, b, "--witness", "--max-degree", "5",
                     "--out", prefix]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert "; witness degrees 1 and 5\n" in out
        assert out.count("iso-vertex") == 5 and out.count("iso-edge") == 15
        for part in ("cover1", "cover2"):
            assert main(["cover", "verify", f"{prefix}.{part}.map"]) == 0
            assert "topological=true" in capsys.readouterr().out

    def test_zero_max_degree_is_exit_two_on_every_pair(self, tmp_path, capsys):
        a = write_graph(tmp_path, "a.gbs", bs(2, 3))
        others = [write_graph(tmp_path, name, g) for name, g in (
            ("b.gbs", circle_graph([(2, 3), (2, 3)])), ("c.gbs", bs(4, 9)), ("d.gbs", bs(2, 4)))]
        for other in others:  # commensurable, not commensurable, out of scope
            assert main(["commensurable", a, other, "--witness", "--max-degree", "0",
                         "--out", str(tmp_path / "wit")]) == 2
        assert capsys.readouterr().err == \
            "error: witness_max_degree must be positive\n" * 3
        assert not list(tmp_path.glob("wit*"))

    def test_mapping_torus(self, tmp_path, capsys):
        path = tmp_path / "theta.aut"
        path.write_text(THETA_AUT)
        assert main(["mapping-torus", str(path)]) == 0
        out = capsys.readouterr().out
        assert "order=6" in out and "rank=2" in out
        assert main(["mapping-torus", str(path), "--graph-only"]) == 0
        assert "rank=" not in capsys.readouterr().out

    def test_mapping_torus_verifies_once(self, tmp_path, capsys, monkeypatch):
        calls = []  # real checks: an automorphism keeps its order, as its subdivision does
        real = torus._check_automorphism

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(torus, "_check_automorphism", counting)
        path = tmp_path / "theta.aut"
        path.write_text(THETA_AUT)
        assert main(["mapping-torus", str(path)]) == 0
        assert "order=6" in capsys.readouterr().out
        assert len(calls) == 1

    def test_suite_runs(self, capsys):
        assert main(["suite", "rank-monotonicity", "--count", "5",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "suite=rank-monotonicity instances=5 failures=0" in out

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, "bs23.gbs", bs(2, 3))
        prefix1 = str(tmp_path / "one")
        prefix2 = str(tmp_path / "two")
        monkeypatch.setenv("GBS_SEED", "9")
        main(["cover", "voltage", path, "--degree", "2", "--seed", "1",
              "--out", prefix1])
        main(["cover", "voltage", path, "--degree", "2", "--seed", "2",
              "--out", prefix2])
        text1 = Path(prefix1 + ".map").read_text().replace("one", "x")
        text2 = Path(prefix2 + ".map").read_text().replace("two", "x")
        assert text1 == text2

    @pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
    def test_bad_env_seed_is_exit_two(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GBS_SEED", value)
        assert main(["suite", "rank-monotonicity", "--count", "1"]) == 2
        assert "GBS_SEED" in capsys.readouterr().err

    def test_negative_count_is_exit_two(self, capsys):
        assert main(["suite", "audit", "--count", "-3", "--seed", "1"]) == 2
        assert "count" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert main(["suite", "nope"]) == 2
