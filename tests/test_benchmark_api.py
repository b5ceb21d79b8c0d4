"""The package surface that the benchmark in perfbench/ reads.

The benchmark calls `gbs` by name and counts an exception as a failed op,
so a name removed from the package would show up there as failures and
not as a test error.  These tests fail first instead.
"""

import ast
from pathlib import Path

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
