"""The passes mode of `tools/pairs.py`: its summary and its answer comparison.

Both are pure functions of the runs' JSON objects, so no tree is exported and
no process is started here.
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
