"""The public surface: every exported name resolves."""
import ast
import importlib
import pkgutil
import sys
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


def test_src_imports_only_the_standard_library():
    """``dependencies = []``: every import in the package, the ones inside
    functions too, is a standard-library module or the package itself."""
    package = Path(ncbieberbach.__file__).parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    top_level = {name.split(".")[0] for name in imported}
    assert {"fractions", "os", "pickle", "signal"} <= top_level  # the walk sees the lazy imports
    assert sorted(top_level - sys.stdlib_module_names - {"ncbieberbach"}) == []
