"""The benchmark's per-layer hooks still find every name they wrap.

perfbench/spans.py wraps mist functions by name from outside the package.
A renamed or removed target is recorded as absent and its metric reads 0,
so a refactor that drops one must fail here rather than go unnoticed: the
only targets allowed to be absent are those named in REMOVED.  A
target that still exists but that no module of the program calls any more
reads 0 just as silently, so each target's name must also be read
somewhere under src/mist.  These tests only read perfbench.
"""

import ast
import sys
from pathlib import Path

import mist  # noqa: F401  imports every module the tracer patches
from mist import run

from helpers import build_graph

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from spans import COUNTS, SPANS, Tracer  # noqa: E402

# targets no module of the program calls since the one lowpoint pass
# replaced them; ROADMAP item 2's benchmark change wraps graph.separations
# instead, and then this set must shrink to nothing
UNCALLED = {"mist.graph:find_bridges", "mist.graph:find_cutpoints"}

# targets the program no longer has, so their metrics read 0; the next
# benchmark change should span mist.cover:max_tfpcc, the one cover solver,
# instead (see the FOUND line on exact.tfpcc in CHANGES.md), and then this
# set must be empty
REMOVED = {"mist.exact:max_tfpcc_exact"}


def test_every_benchmark_hook_target_exists():
    with Tracer() as tracer:
        pass
    assert set(tracer.absent) == REMOVED


def _names_read() -> set[str]:
    """Every name some module of src/mist reads, bare or as an attribute."""
    out = set()
    for path in (ROOT / "src" / "mist").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_benchmark_hook_target_is_called_by_the_program():
    read = _names_read()
    uncalled = {
        target
        for _, target in SPANS + COUNTS
        if target.partition(":")[2].rpartition(".")[2] not in read
    }
    assert uncalled == UNCALLED | REMOVED


def test_a_traced_run_counts_the_path_searches_of_op10():
    # op10's block {2, 3} between 0 and 1 is tested with a path search on
    # the host graph; the exact.ham span must see it
    g = build_graph(6, [(0, 2), (2, 3), (3, 1), (0, 3), (1, 4), (4, 5), (5, 0)])
    with Tracer() as tracer:
        report = run(g, "refined")
    assert report.trace.nodes[0].applied.kind == "op10"
    assert tracer.summary()["exact.ham"]["calls"] >= 1
