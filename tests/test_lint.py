"""Static checks of the package source with the standard library's `ast`."""

import ast
import os
import re

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


PERFBENCH = os.path.join(ROOT, "perfbench")


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _reads_of(tree, name):
    """The nodes of `tree` that read or import `name`: a loaded name, an
    attribute or an imported alias."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name]


def _is_power_of_two(node):
    return isinstance(node, ast.BinOp) and (
        isinstance(node.op, ast.LShift)
        or isinstance(node.op, ast.Pow) and isinstance(node.left, ast.Constant)
        and node.left.value == 2)


def test_one_block_size():
    """`core.BLOCK` is the package's one block size: only the helper
    `core.blocks` reads it and no other module names it.  The only other
    module-level `1 << k` (or `2**k`) constants are the two sizes of the
    geodesic enumeration, its chunks and its batches, so a new blocked loop
    cannot bring its own size."""
    sizes = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            tree = _parse(os.path.join(SRC, name))
            reads = _reads_of(tree, "BLOCK")
            helper = set(ast.walk(_definitions(tree)["blocks"])) if name == "core.py" else set()
            assert [node.lineno for node in reads if node not in helper] == [], name
            assert reads or name != "core.py"
            sizes |= {(name, constant) for constant, node in _definitions(tree).items()
                      if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
                      and any(map(_is_power_of_two, ast.walk(node.value)))}
    assert sizes == {("core.py", "BLOCK"), ("geodesics.py", "_CHUNK_PAIRS"),
                     ("geodesics.py", "_BATCH_ROWS")}


def _definitions(tree):
    """Module-level function, class and constant name -> its node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((n.id, node) for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return out


def _relative_imports(tree):
    """Name -> (module, name) of every `from .module import name`."""
    return {alias.asname or alias.name: (node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def _perfbench_roots(src_modules, exported):
    """(module, name) of every geosplit name a perfbench file imports, of
    every attribute it reads or rebinds on an imported geosplit module, and
    of every ("geosplit.module", "name", ...) target it lists."""
    roots = set()
    for name in sorted(os.listdir(PERFBENCH)):
        if not name.endswith(".py"):
            continue
        tree = _parse(os.path.join(PERFBENCH, name))
        modules = {}  # local name -> geosplit module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("geosplit"):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "geosplit" and alias.name in src_modules:
                        modules[local] = alias.name
                    elif node.module == "geosplit":
                        roots.add(exported[alias.name])
                    else:
                        roots.add((node.module.split(".")[1], alias.name))
            elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                  and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                          for e in node.elts[:2])
                  and node.elts[0].value.startswith("geosplit.")):
                roots.add((node.elts[0].value.split(".")[1], node.elts[1].value))
        roots |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    return roots


def test_every_definition_is_reachable():
    """An `ast` walk of the package from `cli.main`, the names
    `geosplit/__init__.py` exports and the geosplit names perfbench imports
    or rebinds reaches every module-level function, class and constant of
    `src/geosplit`.  A definition reaches each name it reads (a local
    definition or a `from .module import`); module-level statements that
    define nothing run on import and are roots too.  Code that no route
    calls belongs in tests/reference.py, not in src."""
    trees = {name[:-3]: _parse(os.path.join(SRC, name)) for name in sorted(os.listdir(SRC))
             if name.endswith(".py")}
    exported = _relative_imports(trees.pop("__init__"))
    defs = {mod: _definitions(tree) for mod, tree in trees.items()}
    scope = {mod: {**{n: (mod, n) for n in defs[mod]}, **_relative_imports(tree)}
             for mod, tree in trees.items()}
    pending = [("cli", "main"), *exported.values(), *_perfbench_roots(set(trees), exported)]
    pending += [(mod, node) for mod, tree in trees.items() for node in tree.body
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                         ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom))]
    reached = set()
    while pending:
        mod, item = pending.pop()
        if isinstance(item, str):
            if (mod, item) in reached or item not in defs.get(mod, {}):
                continue
            reached.add((mod, item))
            item = defs[mod][item]
        for node in ast.walk(item):
            if isinstance(node, ast.Name) and node.id in scope[mod]:
                pending.append(scope[mod][node.id])
    unreached = sorted(f"{mod}.{name}" for mod in defs for name in defs[mod]
                       if not name.startswith("__") and (mod, name) not in reached)
    assert unreached == []


def _requirement_name(requirement):
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()


def test_mpmath_is_a_test_dependency_only():
    """No module of `src/geosplit` imports mpmath (the zeta sums have one
    arithmetic, in doubles; mpmath is the tests' reference), and
    pyproject.toml lists it under the `test` extra and nowhere else."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            tree = _parse(os.path.join(SRC, name))
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names}
            imported |= {node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module}
            assert sorted(m for m in imported if m.split(".")[0] == "mpmath") == [], name
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    lists = {"dependencies": project["dependencies"],
             **{f"extra {k}": v for k, v in project["optional-dependencies"].items()}}
    assert [k for k, reqs in lists.items()
            if "mpmath" in map(_requirement_name, reqs)] == ["extra test"]
