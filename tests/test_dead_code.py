"""Static checks over the package source: no unused import, private module-level name or parameter.

No linter is a test dependency, so these walk the syntax trees with ast.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ctsg

SOURCES = sorted(Path(ctsg.__file__).resolve().parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in tree: bare names, attribute names and names in __all__."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assignments whose names start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_sources_found():
    assert "solver.py" in TREES and "__init__.py" in TREES


def test_no_unused_import():
    unused = [
        f"{module}: {name}"
        for module, tree in TREES.items()
        for name in _imported_names(tree)
        if name not in _loaded_names(tree)
    ]
    assert unused == []


def test_no_unused_private_module_level_name():
    # A private name counts as used where any module reads it or imports it by name.
    used = set().union(*(_loaded_names(tree) for tree in TREES.values()))
    used |= {
        alias.name
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        f"{module}: {name}"
        for module, tree in TREES.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert unused == []


# deviation_gain takes paths and rng_seed and ignores them: bench/workloads.py passes them,
# test_deviation_gain_takes_the_bench_keywords pins them, and ROADMAP item 1 deletes them.
UNREAD_PARAMETERS = {"simulate.py: deviation_gain(paths)", "simulate.py: deviation_gain(rng_seed)"}


def test_no_unused_parameter():
    # A parameter counts as read where its function, or a function nested in it, reads the name.
    unread = set()
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            unread |= {
                f"{module}: {name}({p.arg})"
                for p in params
                if p is not None and p.arg not in read and p.arg not in ("self", "cls")
            }
    assert unread == UNREAD_PARAMETERS
