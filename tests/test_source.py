"""Source hygiene of src/mist, checked on the syntax tree with the stdlib.

A module must use every name it imports (or re-export it in __all__), and
every module-level private function must be referenced by some module of
the package, so helpers left behind by a deletion show up here.  Imports
sit at module level, never inside a function, and the exact oracles stand
below the layers that use them: exact.py imports none of them.  Importing
the package and its CLI loads neither dataclasses nor inspect, whose code
generation and import cost every `mist` call would pay again.

A cover keeps its component list until an edit drops it, and only its
edge and vertex edits do.  So only the graph and the reduction engine may
add, pop or revive vertex ids, write rows wholesale or edit bare rows, and
only methods of Graph and Cover may assign a graph's adjacency, alive mask
or kept components.
"""

import ast
import os
import subprocess
import sys
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


def function_level_imports(trees) -> list[str]:
    out = []
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out += [
                    f"{name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    return sorted(set(out))


ABOVE_EXACT = {"cover", "preprocess", "transform", "pipeline"}


def upward_imports(trees, name="exact.py") -> list[str]:
    """The modules of ABOVE_EXACT that the module name imports from."""
    out = []
    for node in ast.walk(trees[name]):
        if isinstance(node, ast.ImportFrom):
            mods = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        else:
            continue
        out += [m for m in mods if m.rpartition(".")[2] in ABOVE_EXACT]
    return out


VERTEX_EDITS = {
    "add_vertex", "pop_vertex", "revive", "write_rows", "add_edge_in", "remove_edge_in", "revive_in"
}
VERTEX_EDITORS = {"graph.py", "reduce.py"}
GUARDED = {"adj", "alive", "_comps", "_index"}
OWNERS = {"Graph", "Cover"}


def _written(node) -> list[str]:
    """Attributes an assignment or deletion writes, through any subscripts."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    out = []
    for t in targets:
        for e in t.elts if isinstance(t, ast.Tuple) else [t]:
            while isinstance(e, ast.Subscript):
                e = e.value
            if isinstance(e, ast.Attribute):
                out.append(e.attr)
    return out


def cover_edit_escapes(trees) -> list[str]:
    """Edits that could change a cover without dropping its kept components."""
    out = []
    for name, tree in trees.items():
        owned = {
            id(n)
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name in OWNERS
            for n in ast.walk(c)
        }
        found = []
        for node in ast.walk(tree):
            if (
                name not in VERTEX_EDITORS
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in VERTEX_EDITS
            ):
                found.append((node.lineno, f"{name}:{node.lineno}: {node.func.attr}"))
            if id(node) not in owned:
                found += [
                    (node.lineno, f"{name}:{node.lineno}: assigns .{attr}")
                    for attr in _written(node)
                    if attr in GUARDED
                ]
        out += [msg for _, msg in sorted(found)]
    return out


def test_every_import_is_used_or_exported():
    assert unused_imports(_trees()) == []


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(_trees()) == []


def test_the_checks_catch_a_dead_import_and_a_dead_helper():
    tree = ast.parse("import os\nfrom .graph import Graph\n\ndef _dead():\n    return Graph\n")
    assert unused_imports({"m.py": tree}) == ["m.py: os"]
    assert unreferenced_private_functions({"m.py": tree}) == ["m.py: _dead"]


def test_no_function_imports_a_module():
    assert function_level_imports(_trees()) == []


def test_exact_imports_no_layer_above_it():
    assert upward_imports(_trees()) == []


def test_the_import_checks_catch_a_late_import_and_an_upward_one():
    tree = ast.parse(
        "from .graph import Graph\n\n"
        "def f(g):\n    from .exact import tree_result\n    return tree_result(g, ())\n\n"
        "class C:\n    def m(self):\n        import json\n        return json\n"
    )
    assert function_level_imports({"m.py": tree}) == ["m.py:4", "m.py:9"]
    tree = ast.parse(
        "from .graph import Graph\nfrom .cover import Cover\nfrom . import pipeline\n"
        "import mist.transform\nfrom mist.preprocess import preprocess\n"
    )
    assert upward_imports({"exact.py": tree}) == [
        "cover", "pipeline", "mist.transform", "mist.preprocess"
    ]


def test_importing_mist_loads_neither_dataclasses_nor_inspect():
    # -S: no site-packages, whose .pth files might import either module
    probe = "import sys, mist, mist.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_only_graph_and_cover_methods_edit_what_a_cover_keeps():
    assert cover_edit_escapes(_trees()) == []


def test_the_edit_check_catches_a_vertex_edit_and_a_raw_write():
    tree = ast.parse(
        "class Cover:\n    def ok(self):\n        self._comps = None\n\n"
        "def bad(c, v):\n    c.revive(v)\n    c.alive[v] = False\n    c._comps, c.x = [], 1\n"
    )
    assert cover_edit_escapes({"m.py": tree}) == [
        "m.py:6: revive",
        "m.py:7: assigns .alive",
        "m.py:8: assigns ._comps",
    ]
    assert cover_edit_escapes({"graph.py": ast.parse("g.revive(v)\n")}) == []
    tree = ast.parse("def bad(c, rows, alive):\n    c.write_rows(rows, alive)\n")
    assert cover_edit_escapes({"m.py": tree, "reduce.py": tree}) == ["m.py:2: write_rows"]
