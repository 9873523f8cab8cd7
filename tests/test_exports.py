import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import kyfanorth


def test_every_export_is_bound():
    # a name left in __all__ after its definition went breaks
    # ``from kyfanorth.<module> import *`` and misleads the reader
    stale = []
    for info in pkgutil.iter_modules(kyfanorth.__path__):
        module = importlib.import_module(f"kyfanorth.{info.name}")
        stale += [f"{info.name}.{name}"
                  for name in getattr(module, "__all__", [])
                  if not hasattr(module, name)]
    stale += [name for name in kyfanorth.__all__
              if not hasattr(kyfanorth, name)]
    assert stale == []


def test_package_exports_each_name_once():
    twice = [name for name, count in Counter(kyfanorth.__all__).items()
             if count > 1]
    assert twice == []


# acceptance references that nothing in the program calls: they stand
# beside the engine so that tests can check it against the definitions
_REFERENCES = {"fd_directional", "directional_derivative",
               "sample_subgradient", "subgradient_membership"}


def _referenced_names(paths) -> set:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_or_a_reference():
    # a public name that no module and no bench reads is dead API
    package = Path(kyfanorth.__file__).parent
    bench = package.parents[1] / "perfbench"
    used = _referenced_names(
        [p for p in package.glob("*.py") if p.name != "__init__.py"]
        + list(bench.glob("*.py")))
    # dunder names such as __version__ are package metadata
    unused = [name for name in kyfanorth.__all__
              if name not in used | _REFERENCES and not name.startswith("__")]
    assert unused == []
