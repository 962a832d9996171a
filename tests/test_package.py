"""The package holds what the CLI runs, and the 50-digit reference stays
apart from it: checked on their sources with ``ast``."""

import ast
from pathlib import Path

import reference

import ptwaveguide

TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(Path(ptwaveguide.__file__).parent.glob("*.py"))}


def read_names(node: ast.AST) -> set[str]:
    """Identifiers a node reads, as a loaded name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of the modules a tree imports; ``from a import b`` gives
    both a and a.b."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_package_holds_what_it_runs():
    # each public module-level function and class is read somewhere in the
    # package outside its own definition: code that only tests call lives in
    # tests/oracles.py; the package never imports scipy.integrate, and never
    # threading: the stepper's second solve runs on the standard library's
    # executor, not on a hand-written thread handoff
    statements = [(module, stmt, read_names(stmt))
                  for module, tree in TREES.items() for stmt in tree.body]
    unused = sorted(
        f"{module}.{stmt.name}" for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for _, other, names in statements
                    if other is not stmt))
    assert not unused, f"read nowhere else in the package: {', '.join(unused)}"
    for banned in ("scipy.integrate", "threading"):
        importing = sorted(module for module, tree in TREES.items()
                           if banned in imported_modules(tree))
        assert not importing, f"import {banned}: {', '.join(importing)}"


def test_reference_stays_independent():
    # perfbench/reference.py, the 50-digit oracle of the tests and the
    # benchmark, is independent only while it imports nothing from the
    # package; and the package never runs it
    path = Path(reference.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    from_package = sorted(name for name in imported_modules(tree)
                          if name.split(".")[0] == "ptwaveguide")
    assert not from_package, f"reference.py imports {', '.join(from_package)}"
    importing = sorted(module for module, tree in TREES.items()
                       if "reference" in imported_modules(tree))
    assert not importing, f"import reference: {', '.join(importing)}"
