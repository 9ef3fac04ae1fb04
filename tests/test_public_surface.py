"""The public surface: every exported name resolves."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncbieberbach


def _exports(module):
    """``__all__`` of a submodule; for the package, the names of its name -> submodule table."""
    if module is not ncbieberbach:
        return module.__all__
    return list(ncbieberbach._SUBMODULE)


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


def test_the_package_names_come_from_their_submodules():
    for name, module in ncbieberbach._SUBMODULE.items():
        assert getattr(ncbieberbach, name) is getattr(importlib.import_module(f"ncbieberbach.{module}"), name)
    assert sorted(ncbieberbach.__all__) == sorted(ncbieberbach._SUBMODULE)
    assert set(ncbieberbach._SUBMODULE) <= set(dir(ncbieberbach))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ncbieberbach.no_such_name


def test_star_import_and_submodule_import_in_a_fresh_interpreter():
    """``import *`` binds every table name, and a submodule that is no table
    name still imports with ``from ncbieberbach import``."""
    code = (
        "import sys\n"
        "from ncbieberbach import *\n"
        "import ncbieberbach\n"
        "missing = [n for n in ncbieberbach._SUBMODULE if n not in globals()]\n"
        "from ncbieberbach import crossed\n"
        "print(missing, crossed.__name__, sys.modules['ncbieberbach.crossed'] is crossed)\n"
    )
    src = str(Path(ncbieberbach.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["[]", "ncbieberbach.crossed", "True"]


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


def test_src_certifies_without_assert_statements():
    """Certificates must survive ``python -O``, which strips ``assert``: the
    package has no ``assert`` statement, and only ``scalars.certify`` raises
    AssertionError itself."""
    package = Path(ncbieberbach.__file__).parent
    paths = sorted(package.rglob("*.py"))
    found, certify_nodes = [], 0
    for path in paths:
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "certify"
                   for node in ast.walk(fn)}
        certify_nodes += len(allowed)
        for node in ast.walk(tree):
            raises_assertion = (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                                and getattr(node.exc.func, "id", None) == "AssertionError")
            if isinstance(node, ast.Assert) or (raises_assertion and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert len(paths) >= 9 and certify_nodes  # the walk saw the modules and certify itself
    assert found == []
