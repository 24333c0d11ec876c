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


SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(convexlab.__file__).parent.glob("*.py"))}

# private names that nothing in the package reads, each with its reason
UNREFERENCED_ALLOWED = {
    ("localconvex", "_secant_piece"):
        "bench/tracing.py wraps it to count secant pieces; ROADMAP direction 4",
}


def _loaded_names(tree) -> set:
    """The names a module reads: bare names and attributes."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def _listed(tree) -> set:
    """The names of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_convexlab_name_it_does_not_use():
    """A module other than the package's ``__init__`` uses, or lists in its
    ``__all__``, every name it imports from convexlab: a deletion cannot
    leave a stale import behind."""
    unused = []
    for name, tree in SOURCES.items():
        if name == "__init__":
            continue
        kept = _loaded_names(tree) | _listed(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("convexlab"):
                unused += [(name, alias.asname or alias.name) for alias in node.names
                           if (alias.asname or alias.name) not in kept]
            elif isinstance(node, ast.Import):
                unused += [(name, alias.asname or alias.name) for alias in node.names
                           if alias.name.startswith("convexlab")
                           and (alias.asname or alias.name).split(".")[0] not in kept]
    assert unused == []


def test_every_private_module_name_is_read_somewhere_in_the_package():
    """A private function, class or constant defined at a module's top level
    is read somewhere in the package, so a deletion cannot leave one behind;
    the exceptions are UNREFERENCED_ALLOWED, each still unread."""
    read = set().union(*map(_loaded_names, SOURCES.values()))
    unread = set()
    for name, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread |= {(name, d) for d in defined if d.startswith("_")
                       and not d.startswith("__") and d not in read}
    assert unread == set(UNREFERENCED_ALLOWED)
