"""The public names of convexlab resolve: a name removed from a module cannot
stay listed in its ``__all__`` or imported by the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import convexlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(convexlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"convexlab.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    """Each name the package __init__ imports is its module's object under
    the same name, and public there: listed in the module's ``__all__``."""
    tree = ast.parse(Path(convexlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(convexlab, alias.asname or alias.name) is getattr(module, alias.name)
            assert alias.name in module.__all__, (node.module, alias.name)
