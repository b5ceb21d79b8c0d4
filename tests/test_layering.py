"""Module boundaries inside the package: a module calls another module's
public functions.

A private name imported from another module skips a check that its public
twin makes.  Each one below is allowed for a reason; any other private
import fails here, and so does an entry that no module imports any more.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gbs"

# (importing module, imported module, name)
ALLOWED = {
    # the rounds of a plateau-free cover run on g itself and pass a label
    # table that carries over from prime to prime, which the public
    # `plateaux_for_prime` does not take, and a prime from `label_primes`,
    # on which it would run `is_prime`, trial division up to its square root
    ("covering", "plateau", "_plateaux"),
}


def private_imports() -> set[tuple[str, str, str]]:
    """Every `from .module import _name` in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    return found


def test_private_imports_are_allowed():
    assert private_imports() == ALLOWED
