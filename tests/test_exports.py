import importlib
import pkgutil
from collections import Counter

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
