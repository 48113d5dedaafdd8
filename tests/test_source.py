"""Source hygiene of src/mist, checked on the syntax tree with the stdlib.

A module must use every name it imports (or re-export it in __all__), and
every module-level private function must be referenced by some module of
the package, so helpers left behind by a deletion show up here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mist"


def _trees():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _reads(tree) -> set[str]:
    """Names the module reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(trees) -> list[str]:
    out = []
    for name, tree in trees.items():
        used = _reads(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        out.append(f"{name}: {bound}")
    return out


def unreferenced_private_functions(trees) -> list[str]:
    referenced = set()
    for tree in trees.values():
        referenced |= _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]


def test_every_import_is_used_or_exported():
    assert unused_imports(_trees()) == []


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(_trees()) == []


def test_the_checks_catch_a_dead_import_and_a_dead_helper():
    tree = ast.parse("import os\nfrom .graph import Graph\n\ndef _dead():\n    return Graph\n")
    assert unused_imports({"m.py": tree}) == ["m.py: os"]
    assert unreferenced_private_functions({"m.py": tree}) == ["m.py: _dead"]
