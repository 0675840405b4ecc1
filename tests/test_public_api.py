"""Each module's __all__ names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import decolab

MODULES = [importlib.import_module(f"decolab.{info.name}")
           for info in pkgutil.iter_modules(decolab.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_matches_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"listed in __all__ but undefined: {missing}"
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    unlisted = sorted(public - set(module.__all__))
    assert not unlisted, f"public but not in __all__: {unlisted}"
