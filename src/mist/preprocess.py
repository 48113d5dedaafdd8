"""Cover rewrites that grow a termination measure until a fixpoint.

Each rewrite exchanges edges one for one: the cover stays a triangle-free
path-cycle cover of the same size.  Termination is certified by a measure
that rises at every step (component merges, then path lengths, then dead
paths coming alive), checked after every step, with a step budget as backstop.
"""

from __future__ import annotations

from typing import NamedTuple

from .cover import (
    Cover,
    component_ports,
    first_edge,
    lower_edge_at,
    path_is_dead,
    step_budget,
    validate_tfpcc,
)
from .errors import InternalInvariant, NonTermination
from .exact import hamiltonian_path_between
from .graph import Edge, Graph, norm_edge

RULE_ORDER = {
    "simple": ("op5", "op6", "op7"),
    "refined": ("op5", "op6", "op7", "op12"),
}


class CoverRewrite(NamedTuple):
    kind: str
    removed: tuple[Edge, ...]
    added: tuple[Edge, ...]
    witness: tuple


def measure(cover: Cover, g: Graph):
    """Strictly increases with every rewrite (each keeps the edge count)."""
    comps = cover.components()
    paths = [c for c in comps if c.kind == "path"]
    dead = sum(1 for c in paths if path_is_dead(g, c))
    lengths = tuple(sorted((c.length for c in paths), reverse=True))
    return (-len(comps), lengths, -dead)


def find_op5(cover: Cover, g: Graph) -> CoverRewrite | None:
    """Reroute a short dead path so one endpoint becomes a port."""
    for comp in cover.components():
        if comp.kind != "path" or not 2 <= comp.length <= 4:
            continue
        if not path_is_dead(g, comp):
            continue
        ports = set(component_ports(g, comp))
        if not ports:
            continue
        p_edges = set(comp.edges)
        for a in comp.vertices:
            if a not in ports:
                continue
            for b in comp.vertices:
                if b == a:
                    continue
                path = hamiltonian_path_between(g, a, b, comp.vertices)
                if path is None:
                    continue
                q_edges = {norm_edge(x, y) for x, y in zip(path, path[1:])}
                if q_edges == p_edges:
                    continue
                return CoverRewrite(
                    "op5",
                    tuple(sorted(p_edges - q_edges)),
                    tuple(sorted(q_edges - p_edges)),
                    (comp.key, a, b),
                )
    return None


def find_op6(cover: Cover, g: Graph) -> CoverRewrite | None:
    """Hook a path endpoint into an adjacent cycle, opening the cycle."""
    at = cover.index()
    for comp in cover.components():
        if comp.kind != "path":
            continue
        edge = first_edge(g, comp.endpoints, lambda v: at[v].kind == "cycle")
        if edge:
            u, v = edge
            drop = lower_edge_at(cover, v)
            return CoverRewrite("op6", (drop,), (norm_edge(u, v),), (comp.key, u, v))
    return None


def find_op7(cover: Cover, g: Graph) -> CoverRewrite | None:
    """Regraft a path endpoint onto another path if the longest piece grows."""
    at = cover.index()
    for p1 in cover.components():
        if p1.kind != "path":
            continue
        for u1 in p1.endpoints:
            for u2 in g.adj[u1]:
                if u2 in p1.vertices:
                    continue
                p2 = at[u2]
                if p2.kind != "path" or cover.degree(u2) != 2:
                    continue
                order = p2.order
                k = order.index(u2)
                total = p2.length
                old_max = max(p1.length, total)
                cands = []
                for i in (k - 1, k):
                    cut = norm_edge(order[i], order[i + 1])
                    with_u2 = total - 1 - i if i == k - 1 else i
                    other = total - 1 - with_u2
                    q1 = p1.length + 1 + with_u2
                    new_max = max(q1, other)
                    if new_max > old_max:
                        cands.append((-new_max, cut))
                if cands:
                    cands.sort()
                    cut = cands[0][1]
                    return CoverRewrite(
                        "op7", (cut,), (norm_edge(u1, u2),), (p1.key, u1, u2)
                    )
    return None


def find_op12(cover: Cover, g: Graph) -> CoverRewrite | None:
    """Swap two parallel host edges across a cycle and another component."""
    comps = cover.components()
    for c1 in comps:
        if c1.kind != "cycle":
            continue
        for e1 in c1.edges:
            a, b = e1
            for c2 in comps:
                if c2.key == c1.key or not c2.edges:
                    continue
                for e2 in c2.edges:
                    c, d = e2
                    for x, y in (((a, c), (b, d)), ((a, d), (b, c))):
                        if g.has_edge(*x) and g.has_edge(*y):
                            return CoverRewrite(
                                "op12",
                                (e1, e2),
                                tuple(sorted((norm_edge(*x), norm_edge(*y)))),
                                (c1.key, c2.key, e1, e2),
                            )
    return None


_FINDERS = {
    "op5": find_op5,
    "op6": find_op6,
    "op7": find_op7,
    "op12": find_op12,
}


def find_cover_rewrite(cover: Cover, g: Graph, mode: str) -> CoverRewrite | None:
    for kind in RULE_ORDER[mode]:
        rw = _FINDERS[kind](cover, g)
        if rw is not None:
            return rw
    return None


def apply_rewrite(cover: Cover, rw: CoverRewrite) -> None:
    """Apply the rewrite, an exchange of edges, and check the result."""
    if len(rw.added) != len(rw.removed):
        raise InternalInvariant(f"{rw.kind} would change the cover size")
    for u, v in rw.removed:
        cover.remove_edge(u, v)
    for u, v in rw.added:
        cover.add_edge(u, v)
    validate_tfpcc(cover)


def preprocess(cover: Cover, g: Graph, mode: str) -> Cover:
    """Rewrite to fixpoint; returns a new cover, input left untouched.

    The cover searches its components once per step: the list serves the
    check after the step, the measure and the next step's finders.  Each
    cover is measured once: a step's measure after is the next one's before.
    """
    work = cover.copy()
    budget = step_budget(g)
    steps = 0
    before = None
    while True:
        rw = find_cover_rewrite(work, g, mode)
        if rw is None:
            return work
        if before is None:
            before = measure(work, g)
        apply_rewrite(work, rw)
        after = measure(work, g)
        if not after > before:
            raise InternalInvariant(f"{rw.kind} did not raise the measure")
        before = after
        steps += 1
        if steps > budget:
            raise NonTermination(f"more than {budget} rewrites")


# -- fixpoint postconditions ------------------------------------------------
#
# Each check returns a list of violation strings; empty means it holds.


def check_short_paths_alive(cover: Cover, g: Graph) -> list[str]:
    out = []
    for comp in cover.components():
        if comp.kind == "path" and comp.length <= 3 and path_is_dead(g, comp):
            out.append(f"dead path of length {comp.length} at {comp.key}")
    return out


def check_port_neighbor_growth(cover: Cover, g: Graph) -> list[str]:
    """Outside neighbors of alive path endpoints sit deep in long paths."""
    out = []
    at = cover.index()
    for comp in cover.components():
        if comp.kind != "path":
            continue
        inside = comp.vertex_set()
        for v in comp.endpoints:
            for u in g.adj[v]:
                if u in inside:
                    continue
                q = at[u]
                if q.kind != "path":
                    out.append(f"endpoint {v} sees {u} in a {q.kind}")
                elif cover.degree(u) != 2:
                    out.append(f"endpoint {v} sees endpoint {u}")
                elif q.length < 2 * comp.length + 2:
                    out.append(
                        f"endpoint {v} sees {u} in a path of length {q.length}"
                        f" < {2 * comp.length + 2}"
                    )
    return out


def check_pairs_off_cycles(cover: Cover, pairs) -> list[str]:
    out = []
    at = cover.index()
    for p in pairs:
        if at[p.u1].kind == "cycle":
            out.append(f"pair vertex {p.u1} lies on a cycle")
    return out


def check_dead_four_paths_pendant_ends(cover: Cover, g: Graph) -> list[str]:
    out = []
    for comp in cover.components():
        if comp.kind == "path" and comp.length == 4 and path_is_dead(g, comp):
            for v in comp.endpoints:
                if g.degree(v) != 1:
                    out.append(f"dead 4-path endpoint {v} has degree {g.degree(v)}")
    return out


def check_four_cycles_three_ports(cover: Cover, g: Graph) -> list[str]:
    out = []
    for comp in cover.components():
        if comp.kind == "cycle" and comp.length == 4:
            ports = component_ports(g, comp)
            if len(ports) < 3:
                out.append(f"4-cycle at {comp.key} has {len(ports)} ports")
    return out


def cycle_port_properties(g: Graph, comp) -> list[str]:
    """Port structure of a short cover cycle in an irreducible graph.

    Applies to cycles on at most 8 vertices; longer cycles may span the
    whole graph and have no ports at all.
    """
    if comp.length > 8:
        return []
    ports = component_ports(g, comp)
    out = []
    if len(ports) < 2:
        out.append(f"cycle at {comp.key} has {len(ports)} ports")
    if len(ports) == 2:
        a, b = ports
        order = comp.order
        ia, ib = order.index(a), order.index(b)
        gap = (ib - ia) % len(order)
        if gap == 1 or gap == len(order) - 1:
            out.append(f"the two ports {a},{b} are adjacent on the cycle")
        if comp.length == 5:
            out.append("5-cycle with exactly two ports")
        if comp.length == 4:
            # the cycle's 4 edges, each seen from both ends, and no more
            inside = set(comp.vertices)
            if sum(y in inside for x in comp.vertices for y in g.adj[x]) != 8:
                out.append("4-cycle with two ports has a chord")
    return out
