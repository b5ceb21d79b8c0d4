"""Call counters and timers wrapped around `gbs` functions from outside.

A probe replaces a function in every `gbs` module namespace that bound it,
so calls made through `from .x import f` are counted too.  A wrapper placed
only in the defining module would miss those and silently read zero.

Times are process CPU seconds.  Self time is inclusive time minus the
inclusive time of the probed calls nested directly inside.  None of the probed functions calls itself, so
inclusive times are not double counted.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import process_time

# (module, attribute path) of every probed function, named in the metrics
# as "<module>.<attribute path>.<stat>".
PROBES: tuple[tuple[str, str], ...] = (
    ("primes", "is_prime"),
    ("plateau", "label_primes"),
    ("plateau", "plateaux_for_prime"),
    ("plateau", "all_plateaux"),
    ("plateau", "minimum_hitting_set"),
    ("covering", "plateau_free_cover"),
    ("covering", "verify_admissible"),
    ("covering", "compose"),
    ("covering", "voltage_cover"),
    ("covering", "branched_cover"),
    ("analysis", "check_inequalities"),
    ("analysis", "classify"),
    ("analysis", "minimal_plateaux"),
    ("coloring", "stable_colorings"),
    ("isomorphism", "find_isomorphism"),
    ("decide", "commensurable"),
    ("generate", "generate_admissible_map"),
    ("io", "parse_graph"),
    ("graph", "LabelledGraph.components"),
)

PROBE_NAMES: tuple[str, ...] = tuple(f"{mod}.{attr}" for mod, attr in PROBES)


def gbs_modules() -> list:
    """The `gbs` package and every one of its modules, imported."""
    package = importlib.import_module("gbs")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"gbs.{info.name}")
    return [module for name, module in sorted(sys.modules.items())
            if name == "gbs" or name.startswith("gbs.")]


class Tracer:
    """Per-probe [calls, inclusive seconds, self seconds], kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in PROBE_NAMES}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._sites: list | None = None

    def reset(self) -> None:
        for row in self.stats.values():
            row[:] = [0, 0.0, 0.0]

    def _wrap(self, name: str, fn):
        row = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack.append(0.0)
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = process_time() - start
                nested = stack.pop()
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return probe

    def _find_sites(self) -> list[tuple[object, str, object, object]]:
        """(namespace, name, original, wrapper) for every binding of a probe."""
        modules = gbs_modules()
        sites = []
        self.missing = []
        for (mod, attr), name in zip(PROBES, PROBE_NAMES):
            owner = sys.modules.get(f"gbs.{mod}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if path:  # a method: the class attribute is the only binding
                sites.append((owner, leaf, original, wrapper))
                continue
            sites.extend((module, key, original, wrapper)
                         for module in modules
                         for key, value in vars(module).items() if value is original)
        return sites

    def install(self) -> None:
        """Replace each probed function wherever a `gbs` namespace binds it."""
        if self._sites is None:
            self._sites = self._find_sites()
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._sites or ():
            setattr(owner, key, original)
