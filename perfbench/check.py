"""Output checks that do not rely on the program's own verifier.

Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

RATIOS = {"simple": (3, 4), "refined": (13, 17)}

# The exact cover search refuses cores above this many vertices (ROADMAP item 1).
EXACT_CAP = 16


def expected_failure(family: str, n: int, mode: str, error: str) -> bool:
    """Whether an exception is the known cap defect rather than a new fault.

    In simple mode a cycle or theta is irreducible, so above EXACT_CAP
    vertices it reaches the exact cover search, which raises SizeCapExceeded.
    Every other exception, a MistError or not, makes the run incorrect.
    """
    return (
        error == "SizeCapExceeded"
        and mode == "simple"
        and family in ("cycle", "theta")
        and n > EXACT_CAP
    )


def check_tree(n: int, edges, tree_edges, weight: int, upper_bound: int) -> list[str]:
    """A spanning tree of the n-vertex graph `edges` with `weight` internal vertices."""
    problems = []
    graph_edges = {(min(u, v), max(u, v)) for u, v in edges}
    if len(tree_edges) != n - 1:
        problems.append(f"{len(tree_edges)} tree edges for {n} vertices")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deg = [0] * n
    parts = n
    for u, v in tree_edges:
        if (min(u, v), max(u, v)) not in graph_edges:
            problems.append(f"tree edge {u}-{v} is not a graph edge")
            continue
        deg[u] += 1
        deg[v] += 1
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    if parts != 1:
        problems.append(f"tree leaves {parts} components")
    internal = sum(1 for d in deg if d >= 2)
    if internal != weight:
        problems.append(f"tree has {internal} internal vertices, reported {weight}")
    if weight > upper_bound:
        problems.append(f"weight {weight} above upper bound {upper_bound}")
    return problems


def check_ratio(mode: str, weight: int, opt: int) -> list[str]:
    """The mode's approximation guarantee against the exact optimum."""
    num, den = RATIOS[mode]
    if den * weight < num * opt:
        return [f"{mode} weight {weight} below {num}/{den} of optimum {opt}"]
    return []
