"""The package holds what the CLI runs, and the 50-digit reference stays
apart from it: checked on their sources with ``ast``."""

import ast
import importlib
import re
from pathlib import Path

import reference

import ptwaveguide

README = Path(__file__).resolve().parents[1] / "README.md"

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


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class and, for
    an ``Enum``, its members, or the targets of an assignment."""
    if isinstance(stmt, ast.FunctionDef):
        return [stmt.name]
    if isinstance(stmt, ast.ClassDef):
        enum = any("Enum" in read_names(base) for base in stmt.bases)
        return [stmt.name, *(target.id for node in stmt.body if enum
                             and isinstance(node, ast.Assign)
                             for target in node.targets if isinstance(target, ast.Name))]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_package_holds_what_it_runs():
    # each public module-level function, class, constant and Enum member is
    # read somewhere in the package outside its own definition: code that
    # only tests call lives in tests/oracles.py; the package never imports
    # scipy.integrate, and never threading: the stepper's second solve runs
    # on the standard library's executor, not on a hand-written thread handoff
    statements = [(module, stmt, read_names(stmt))
                  for module, tree in TREES.items() for stmt in tree.body]
    unused = sorted(
        f"{module}.{name}" for module, stmt, _ in statements
        for name in defined_names(stmt)
        if not name.startswith("_")
        and not any(name in names for _, other, names in statements
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


def test_readme_code_references_resolve():
    # a backticked `module.name` in README.md, of a module of the package,
    # names an attribute of that module
    modules = sorted(set(TREES) - {"__init__", "__main__"})
    found = re.findall(rf"`({'|'.join(modules)})\.(\w+)", README.read_text(encoding="utf-8"))
    assert found
    missing = sorted({f"{module}.{name}" for module, name in found
                      if not hasattr(importlib.import_module(f"ptwaveguide.{module}"), name)})
    assert not missing, f"README.md names missing attributes: {', '.join(missing)}"
