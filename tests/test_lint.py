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
