"""`tools/pairs.py`: the passes mode's summary and answer comparison, the
setup parts read off run.py's output, the WORSE and UNRESOLVED marks, and the
imports mode's report, source line count and pair order.

All are pure functions of the runs' output or of a small tree written here,
so no tree is exported and no process is started here.
"""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reads_medians_quartiles_ratio_and_wins(pairs):
    base = [1.0, 1.2, 0.9, 1.1, 1.0]
    change = [0.8, 1.3, 0.7, 0.9, 0.8]
    summary = pairs.pass_summary(base, change)
    assert summary["base"] == pytest.approx([1.0, 1.0, 1.1])
    assert summary["change"] == pytest.approx([0.8, 0.8, 0.9])
    assert summary["ratio"] == pytest.approx(0.8)
    assert (summary["wins"], summary["pairs"]) == (4, 5)


def test_a_tie_is_no_win(pairs):
    assert pairs.pass_summary([1.0, 2.0], [1.0, 2.0])["wins"] == 0


def run(seconds, **answers):
    return {"seconds": seconds, "answers": answers}


def test_equal_answers_do_not_differ(pairs):
    runs = [run([0.5, 0.4], a=["11"], b=["22"]), run([0.3], b=["22"], a=["11"])]
    assert pairs.differing_answers(runs) == []


def test_a_changed_missing_or_unsteady_answer_differs(pairs):
    reference = run([0.5], a=["11"], b=["22"], c=["33"], d=["44"])
    other = run([0.5], a=["11"], b=["2f"], d=["44", "45"], e=["55"])
    assert pairs.differing_answers([reference, reference, other]) == ["b", "c", "d", "e"]


def test_setup_parts_are_read_off_the_setup_line(pairs):
    lines = ["workload=witness seed=1 trace=0 inputs={}",
             "ops_per_s=1433.000 1/s (17196 ops in 12.000 CPU s; 12.1 s wall, 5732 passes)",
             "setup_s=0.1212 s (median import 0.0950 s + median input build 0.0262 s, 5 each)",
             "peak_rss_mb=25.2 MB", '{"correct": true}']
    assert pairs.setup_parts(lines) == {"import": 0.095, "build": 0.0262}
    assert pairs.setup_parts(lines[:2] + lines[3:]) is None


OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


def test_a_steady_metric_within_its_bound_is_not_marked(pairs):
    assert pairs.marks([100, 102, 98, 101, 99], [90, 92, 88, 91, 89], OPS) == []


def test_a_metric_past_its_bound_is_worse(pairs):
    (mark,) = pairs.marks([1.0, 1.02, 0.98, 1.01], [1.3, 1.32, 1.28, 1.31], SETUP)
    assert mark.startswith("WORSE")


def test_a_base_spread_past_the_bound_leaves_the_metric_unresolved(pairs):
    base = [0.06, 0.08, 0.10, 0.12, 0.14]  # quartiles 0.08 and 0.12 about 0.10
    (mark,) = pairs.marks(base, [0.09, 0.10, 0.11, 0.12, 0.13], SETUP)
    assert mark.startswith("UNRESOLVED: base spread 0.400")
    # unless every change run is better than every base run
    assert pairs.marks(base, [0.02, 0.03, 0.04, 0.05, 0.055], SETUP) == []
    assert pairs.marks([60, 80, 100, 120, 140], [150, 160, 170, 180, 190], OPS) == []
    # a worse change with a wide base spread carries both marks
    assert [m.split()[0] for m in pairs.marks(base, [0.2] * 5, SETUP)] == \
        ["WORSE", "UNRESOLVED:"]


def test_pairs_alternate_which_side_runs_first(pairs):
    assert [pairs.sides_in_order(i) for i in range(3)] == [
        ("base", "change"), ("change", "base"), ("base", "change")]


def test_source_lines_count_the_python_files_of_the_package(pairs, tmp_path):
    package = tmp_path / "src" / "gbs"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("a = 1\nb = 2\n")
    (package / "graph.py").write_text("x = 1\n\ny = 2")  # no final newline
    (package / "notes.txt").write_text("not source\n")
    assert pairs.source_lines(tmp_path) == 5


def test_imports_report_reads_medians_ratio_wins_and_lines(pairs, capsys):
    seconds = {"base": [0.044, 0.046, 0.045, 0.043], "change": [0.045, 0.044, 0.047, 0.046]}
    pairs.imports_report(seconds, {"base": 3232, "change": 3290}, "HEAD")
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "import gbs, 4 pairs of fresh processes; base HEAD against the working tree"
    assert lines[2] == "0.0445 [0.04375, 0.04525] | 0.0455 [0.04475, 0.04625] | 1.022 | 1 of 4"
    assert lines[3] == "src/gbs lines: base 3232 | change 3290 (+58)"


@pytest.mark.parametrize("argv, message", [
    (["--imports", "1"], "--imports must be at least 2"),
    (["--seed", "1"], "--workload and --seed are required without --imports"),
    (["--workload", "witness"], "--workload and --seed are required without --imports")])
def test_imports_mode_and_workload_mode_check_their_arguments(pairs, capsys, argv, message):
    with pytest.raises(SystemExit) as exit:
        pairs.main(argv)
    assert exit.value.code == 2 and message in capsys.readouterr().err
