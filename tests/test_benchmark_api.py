"""The package surface that the benchmark in perfbench/ reads, and its answers.

The benchmark calls `gbs` by name and counts an exception as a failed op,
so a name removed from the package would show up there as failures and
not as a test error; and it counts an op whose answer's digest differs from
the golden one in `perfbench/baseline.json` as failed.  These tests fail
first instead.
"""

import ast
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import gbs
from conftest import f3
from gbs import Plateau, Verification, all_plateaux

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def names_used_by_the_benchmark() -> set[str]:
    """Every `gbs.<name>` attribute and `from gbs import <name>` in perfbench/."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "gbs":
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "gbs":
                names.update(alias.name for alias in node.names)
    return names


def test_every_name_the_benchmark_uses_resolves():
    names = names_used_by_the_benchmark()
    assert {"all_plateaux", "has_proper_plateau", "verify_admissible", "commensurable"} <= names
    assert sorted(name for name in names if not hasattr(gbs, name)) == []


def test_plateau_inventory_is_a_tuple_of_plateaux():
    proper = all_plateaux(f3()).proper_plateaux
    assert isinstance(proper, tuple) and proper
    assert all(isinstance(P, Plateau) for P in proper)


def test_failed_verification_is_false():
    assert not bool(Verification(False))
    assert bool(Verification(True))


def perfbench_workloads():
    """`perfbench/workloads.py`, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["plateau-free-cover", "map-suites", "rank-query", "witness"])
def test_every_op_gives_its_golden_answer(name):
    """Each op of the workload's corpus, run once, answers with the digest that
    `baseline.json` holds for it, as `perfbench/run.py` checks it."""
    workload = perfbench_workloads().WORKLOADS[name]
    golden = json.loads((PERFBENCH / "baseline.json").read_text())["workloads"][name]["golden"]
    items = workload.build()
    assert sorted(item.key for item in items) == sorted(golden)
    differing = []
    for item in items:
        outcome = workload.op(item.payload)
        if not outcome.ok or hashlib.sha256(
                outcome.answer.encode()).hexdigest()[:16] != golden[item.key]:
            differing.append(item.key)
    assert differing == []
