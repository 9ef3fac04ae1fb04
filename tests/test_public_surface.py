"""The public surface: every exported name resolves."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ncbieberbach


def _exports(module):
    """``__all__`` of a submodule; for the package, the names ``__init__.py`` imports."""
    if module is not ncbieberbach:
        return module.__all__
    tree = ast.parse(Path(ncbieberbach.__file__).read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


MODULES = [ncbieberbach] + [
    module for module in (importlib.import_module(info.name)
                          for info in pkgutil.iter_modules(ncbieberbach.__path__, "ncbieberbach."))
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    names = _exports(module)
    assert names
    assert [name for name in names if not hasattr(module, name)] == []
