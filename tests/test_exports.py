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


_MODULES = {info.name for info in pkgutil.iter_modules(kyfanorth.__path__)}


def _module_aliases(tree) -> set:
    """Names a module binds to kyfanorth or one of its modules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name.split(".")[0]
                        for alias in node.names
                        if alias.name.split(".")[0] == "kyfanorth"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module == "kyfanorth"):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name in _MODULES}
    return aliases


def _referenced_names(paths) -> set:
    """What the modules read: names loaded, names imported from a module,
    and attributes of kyfanorth or of one of its modules. A field, a
    parameter or an attribute of anything else (``np.linalg.svd``) that
    happens to share an export's name does not count."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and _of_a_module(
                    node.value, aliases):
                names.add(node.attr)
    return names


def _of_a_module(node, aliases: set) -> bool:
    """Whether ``node`` is a name bound to kyfanorth or one of its modules,
    or an attribute chain such as ``kyfanorth.linalg`` down to one."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    return (isinstance(node, ast.Attribute) and node.attr in _MODULES
            and _of_a_module(node.value, aliases))


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


def test_decisions_of_orthogonality_do_not_sweep():
    # one nearest-point search decides pairs and subspaces; the sweep of
    # the support function serves check_parallel alone, through
    # RangeSetModel.maximum
    source = Path(kyfanorth.__file__).parent / "decide.py"
    swept = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in {"minimum", "swept_minimum", "_inner_bound"}:
                swept.add(f"{name} at line {node.lineno}")
    assert swept == set()


def _imported_names(module) -> set:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    return imported


def test_the_verifier_imports_nothing_from_the_engine_or_the_referee():
    # a certificate is evidence only while the routine that passes it
    # shares no code with the frame that built it
    import kyfanorth.verify

    imported = _imported_names(kyfanorth.verify)
    assert imported.isdisjoint({"decide", "subdiff", "oracle"}), imported
    assert imported & _MODULES <= {"linalg", "norms", "model", "errors"}


def test_the_package_exports_the_verifiers_own_function():
    # perfbench reads verify_certificate from the top level, and its
    # {"kind", "checks", "ok"} report
    import kyfanorth.verify

    assert kyfanorth.verify_certificate is kyfanorth.verify.verify_certificate
