"""The public API is what the program itself calls.

Every name the package root re-exports must be used, as a name or an
attribute, by some other module of the package, and so must every
function, method and class the package defines.  A function that only
tests call belongs in the tests (model_reference.py), not in carpool.
Every field of the graph structures (ExpandedGraph, TripleIndex,
EdgeGraph) must be read by the package too: a field that only tests
read is an array that every graph build stores for nothing.  Every
module-level import of a module but __init__ must be read in it, as no
linter runs on the package.
"""

import ast
import dataclasses
from pathlib import Path

import carpool
from carpool import EdgeGraph, ExpandedGraph, TripleIndex

PACKAGE = Path(carpool.__file__).parent


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names() -> set[str]:
    """Names read or written, and attributes taken, outside __init__."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def read_attributes() -> set[str]:
    """Attributes read anywhere in the package."""
    return {node.attr for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def defined_names() -> set[str]:
    """Every function, method and class defined in the package, nested
    ones included; dunder methods, which Python calls itself, are left
    out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, kinds) and not (node.name.startswith("__")
                                                and node.name.endswith("__"))}


def unused_imports(path: Path) -> list[str]:
    """Names that the module at path imports at its top level, other than
    from __future__, and never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, ast.Import) or (
                 isinstance(node, ast.ImportFrom)
                 and node.module != "__future__")
             for alias in node.names]
    return [name for name in bound if name not in read]


def test_every_export_is_used_inside_the_package():
    exported = exported_names()
    assert "solve" in exported and "plain_routing_cost" in exported
    assert sorted(exported - used_names()) == []


def test_every_definition_is_used_inside_the_package():
    defined = defined_names()
    assert {"solve", "RouteSearch", "rows"} <= defined
    assert sorted(defined - used_names()) == []


def test_every_graph_field_is_read_inside_the_package():
    # the three are plain dataclasses, so no read is in a constructor
    read = read_attributes()
    for cls in (ExpandedGraph, TripleIndex, EdgeGraph):
        fields = [f.name for f in dataclasses.fields(cls)]
        assert [name for name in fields if name not in read] == [], \
            cls.__name__


def test_every_module_import_is_used():
    modules = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    assert {p.name for p in modules} >= {"cli.py", "edge_graph.py"}
    assert {p.name: unused_imports(p) for p in modules} == \
        {p.name: [] for p in modules}
