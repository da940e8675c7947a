"""Static checks of the package source with the standard library's `ast`."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "geosplit")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    """Each name a module imports (other than from __future__) is read
    somewhere in that module; `__init__.py` imports only to re-export."""
    with open(os.path.join(SRC, name)) as fh:
        tree = ast.parse(fh.read())
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _private_definitions(tree):
    """Module-level functions, classes and assigned constants whose name has
    one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_read():
    """Each module-level private name of `src/geosplit` (function, class or
    constant with one leading underscore) is read somewhere in the package:
    as a name or as an attribute; a definition alone is not a read."""
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name] = ast.parse(fh.read())
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    unread = [f"{name}: {private}" for name, tree in trees.items()
              for private in _private_definitions(tree) if private not in read]
    assert unread == []
