"""Optimum-preserving graph reductions and the lifts that undo them.

Strong reductions (op1, op2, op8, op9, op10) delete edges or a pendant
vertex without changing the optimum.  Weak reductions (op3, op4, op11)
replace the graph by one or two smaller graphs whose optima determine the
original through an additive constant c, and every weak reduction carries
a lift that rebuilds a spanning tree of the original graph from spanning
trees of the parts, gaining at least c internal vertices.

reduce_to_fixpoint applies these until none fires, recording every step
in a trace forest so the leaf solutions can be lifted back to the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ArityMismatch, BadParams, DisconnectedInput, InternalInvariant, StaleWitness
from .exact import TreeResult, opt_spanning_tree, tree_result, tree_vertices, hamiltonian_path_between
from .graph import (
    Edge,
    Graph,
    Separations,
    component_of,
    connected_components,
    induced_subgraph,
    norm_edge,
    separations,
    twin_groups,
)

RULESETS = {
    "simple": (("op1", "op2"), ("op3", "op4")),
    "refined": (("op1", "op2", "op8", "op9", "op10"), ("op3", "op4", "op11")),
}


@dataclass(frozen=True)
class StrongReduction:
    kind: str
    removed_vertices: tuple[int, ...]
    removed_edges: tuple[Edge, ...]
    restore_edges: tuple[Edge, ...]  # put back when lifting (op1 only)
    witness: tuple


@dataclass(frozen=True)
class WeakReduction:
    kind: str
    c: int
    parts: int
    bridge: Edge | None = None
    sides: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    cut_vertex: int | None = None
    component: tuple[int, ...] | None = None
    pendant: int | None = None
    inner_tree: tuple[Edge, ...] | None = None
    inner_opt: int | None = None
    merged: Edge | None = None
    outside: tuple[int, int] | None = None


# -- strong reductions ----------------------------------------------------
#
# Every finder takes the graph, assumed connected, and optionally its
# separations(g); the fixpoint driver computes that once per trace node.
# In a connected graph, "g - u has a component without w" holds exactly
# when u is a cut vertex, that is when g - u has at least two pieces.


def find_op1(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Two pendant vertices at the same support: drop the larger one."""
    if g.n_alive() <= 3:
        return None
    for v in g.alive_list():
        leaves = [u for u in g.adj[v] if g.degree(u) == 1]
        if len(leaves) >= 2:
            u1, u2 = leaves[0], leaves[1]
            e = norm_edge(u2, v)
            return StrongReduction("op1", (u2,), (e,), (e,), (u1, u2, v))
    return None


def find_op2(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Cycle edge whose endpoints each cut the rest apart: delete it."""
    sep = sep or separations(g)
    for e in g.edge_list():
        u1, u2 = e
        if e not in sep.bridges and sep.pieces[u1] >= 2 and sep.pieces[u2] >= 2:
            return StrongReduction("op2", (), (e,), (), (u1, u2))
    return None


def find_op8(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Twin pair whose boundary vertex separates off the other boundary."""
    sep = sep or separations(g)
    for key, twins in twin_groups(g):
        if len(twins) < 2:
            continue
        u3, u4 = twins[0], twins[1]
        for u2 in key:
            if sep.pieces[u2] >= 2:
                u1 = key[1] if u2 == key[0] else key[0]
                e = norm_edge(u2, u3)
                return StrongReduction("op8", (), (e,), (), (u1, u2, u3, u4))
    return None


def find_op9(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Three twins over one boundary pair: drop one support edge."""
    for key, twins in twin_groups(g):
        if len(twins) >= 3:
            u2, u1 = key[0], key[1]
            u3, u4, u5 = twins[0], twins[1], twins[2]
            e = norm_edge(u2, u3)
            return StrongReduction("op9", (), (e,), (), (u1, u2, u3, u4, u5))
    return None


def find_op10(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Small separated block with a Hamiltonian path: keep only the path.

    The block K is a component of g - {u, v} with at most six vertices;
    pairs u < v are tried in ascending order, the blocks of one pair by
    smallest member.  A Hamiltonian u-v path through K needs both u and v
    adjacent to K, so one lowpoint pass over g - u yields every candidate
    for every v: the DFS subtree of each child that v cuts off, and the
    rest of v's DFS tree, which holds its root.  The path uses |K| + 1
    edges, so a block with no more edges than that has none to remove and
    is never searched.
    """
    cap = min(6, g.n_alive() - 3)
    if cap < 1:
        return None
    for u in g.alive_list():
        s = separations(g, skip=u)
        blocks = []
        start = 0
        while start < len(s.order):
            root = s.order[start]
            end = start + s.size[root]
            for v in s.order[start:end]:
                if v < u:
                    continue
                kids = s.cut.get(v, ())
                for c in kids:
                    if s.size[c] <= cap:
                        blocks.append((v, s.order[s.disc[c] : s.disc[c] + s.size[c]]))
                rest = end - start - 1 - sum(s.size[c] for c in kids)
                if v != root and rest <= cap:
                    blocks.append((v, _rest_of_tree(s, start, end, v, kids)))
            start = end
        found = sorted(
            (v, sorted(k)) for v, k in blocks if _has_spare_edge(g, u, v, k)
        )
        for v, k_comp in found:
            sub, old = induced_subgraph(g, k_comp + [u, v])
            pos = {x: idx for idx, x in enumerate(old)}
            path = hamiltonian_path_between(sub, pos[u], pos[v])
            if path is None:
                continue
            keep = {norm_edge(old[a], old[b]) for a, b in zip(path, path[1:])}
            extra = [
                norm_edge(old[a], old[b])
                for a, b in sub.edge_list()
                if norm_edge(old[a], old[b]) not in keep
            ]
            return StrongReduction(
                "op10", (), tuple(sorted(extra)), (), (u, v, tuple(k_comp))
            )
    return None


def _rest_of_tree(s: Separations, start: int, end: int, v: int, kids) -> list[int]:
    """The DFS tree s.order[start:end] without v and the subtrees v cuts off."""
    out = []
    i = start
    while i < end:
        x = s.order[i]
        if x in kids:
            i += s.size[x]
            continue
        if x != v:
            out.append(x)
        i += 1
    return out


def _has_spare_edge(g: Graph, u: int, v: int, k: list[int]) -> bool:
    """Whether K touches u and v and K + {u, v} has more than |K| + 1 edges.

    K is a component of g - {u, v}, so its degree sum counts each inner
    edge twice and each edge to u or v once.
    """
    to_u = sum(g.has_edge(x, u) for x in k)
    to_v = sum(g.has_edge(x, v) for x in k)
    edges = (sum(g.degree(x) for x in k) + to_u + to_v) // 2 + g.has_edge(u, v)
    return to_u > 0 and to_v > 0 and edges > len(k) + 1


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise StaleWitness(msg)


def _revalidate_strong(g: Graph, r: StrongReduction) -> None:
    for u, v in r.removed_edges:
        _check(g.has_edge(u, v), f"edge {u}-{v} gone")
    for v in r.removed_vertices:
        _check(g.is_alive(v), f"vertex {v} gone")
    if r.kind == "op1":
        u1, u2, v = r.witness
        _check(g.n_alive() > 3, "graph too small for op1")
        _check(g.degree(u1) == 1 and g.degree(u2) == 1, "twins not pendant")
        _check(g.has_edge(u1, v) and g.has_edge(u2, v), "support edges gone")
    elif r.kind == "op2":
        u1, u2 = r.witness
        sep = separations(g)
        _check(norm_edge(u1, u2) not in sep.bridges, "edge became a bridge")
        _check(
            sep.pieces[u1] >= 2 and sep.pieces[u2] >= 2, "separation condition gone"
        )
    elif r.kind in ("op8", "op9"):
        twins = r.witness[2:] if r.kind == "op8" else r.witness[2:5]
        u1, u2 = r.witness[0], r.witness[1]
        for t in twins:
            _check(
                g.degree(t) == 2 and set(g.adj[t]) == {u1, u2},
                f"twin {t} changed",
            )
        if r.kind == "op8":
            _check(separations(g).pieces[u2] >= 2, "separation condition gone")
    elif r.kind == "op10":
        u, v, k_comp = r.witness
        _check(g.is_alive(u) and g.is_alive(v), f"boundary {u} or {v} gone")
        _check(g.is_alive(k_comp[0]), f"block vertex {k_comp[0]} gone")
        block = component_of(g, k_comp[0], blocked=frozenset((u, v)))
        _check(block == list(k_comp), "separated block changed")
        touched = {y for x in block for y in g.adj[x]} - set(block)
        _check(touched == {u, v}, f"block neighbourhood is not exactly {{{u}, {v}}}")


def apply_strong_reduction(g: Graph, r: StrongReduction) -> Graph:
    _revalidate_strong(g, r)
    h = g.copy()
    for u, v in r.removed_edges:
        h.remove_edge(u, v)
    for v in r.removed_vertices:
        h.remove_vertex(v)
    if not (
        h.edge_count() < g.edge_count()
        and h.n_alive() + h.edge_count() < g.n_alive() + g.edge_count()
    ):
        raise InternalInvariant(f"{r.kind} did not shrink the graph")
    if not h.is_connected():
        raise InternalInvariant(f"{r.kind} disconnected the graph")
    return h


def lift_strong(r: StrongReduction, t: TreeResult) -> TreeResult:
    if not r.restore_edges:
        return t
    verts = set(tree_vertices(t))
    verts.update(r.removed_vertices)
    lifted = tree_result(verts, list(t.edges) + list(r.restore_edges))
    if lifted.weight < t.weight:
        raise InternalInvariant("strong lift lost weight")
    return lifted


# -- weak reductions ------------------------------------------------------


def find_op3(g: Graph, sep: Separations | None = None) -> WeakReduction | None:
    """Bridge whose endpoints are cut-points of their own sides: split.

    A bridge endpoint cuts its own side exactly when removing it leaves the
    other side plus at least two pieces of its own.
    """
    sep = sep or separations(g)
    for e in sorted(sep.bridges):
        u1, u2 = e
        if sep.pieces[u1] >= 3 and sep.pieces[u2] >= 3:
            side1 = component_of(g, u1, blocked=frozenset((u2,)))
            side2 = component_of(g, u2, blocked=frozenset((u1,)))
            return WeakReduction(
                "op3", 0, 2, bridge=e, sides=(tuple(side1), tuple(side2))
            )
    return None


def find_op4(g: Graph, sep: Separations | None = None) -> WeakReduction | None:
    """Cut-point with a small hanging block: solve the block exactly."""
    sep = sep or separations(g)
    for v in g.alive_list():
        if sep.pieces[v] <= sep.parts:
            continue
        comps = connected_components(g, blocked=frozenset((v,)))
        for k_comp in comps:
            if not 2 <= len(k_comp) <= 8:
                continue
            sub, old = induced_subgraph(g, list(k_comp) + [v])
            pos = {x: idx for idx, x in enumerate(old)}
            pend = sub.add_vertex()
            sub.add_edge(pos[v], pend)
            t = opt_spanning_tree(sub)
            inner = tuple(
                sorted(
                    norm_edge(old[a], old[b])
                    for a, b in t.edges
                    if a != pend and b != pend
                )
            )
            return WeakReduction(
                "op4",
                t.weight - 1,
                1,
                cut_vertex=v,
                component=tuple(k_comp),
                pendant=g.vertex_count,
                inner_tree=inner,
                inner_opt=t.weight,
            )
    return None


def find_op11(g: Graph, sep: Separations | None = None) -> WeakReduction | None:
    """Edge between two degree-2 vertices: contract it."""
    for u1, u2 in g.edge_list():
        if g.degree(u1) == 2 and g.degree(u2) == 2:
            o1 = next(x for x in g.adj[u1] if x != u2)
            o2 = next(x for x in g.adj[u2] if x != u1)
            return WeakReduction(
                "op11", 1, 1, merged=(u1, u2), outside=(o1, o2)
            )
    return None


def apply_weak_reduction(g: Graph, r: WeakReduction) -> list[Graph]:
    before = g.n_alive() + g.edge_count()
    if r.kind == "op3":
        u1, u2 = r.bridge
        _check(g.has_edge(u1, u2), "bridge gone")
        scratch = g.copy()
        scratch.remove_edge(u1, u2)
        comps = connected_components(scratch)
        _check(
            sorted(map(tuple, comps)) == sorted(map(tuple, r.sides)),
            "bridge sides changed",
        )
        out = []
        for keep in r.sides:
            h = g.copy()
            drop = set(g.alive_list()) - set(keep)
            for x in sorted(drop):
                h.remove_vertex(x)
            out.append(h)
    elif r.kind == "op4":
        v, k_comp = r.cut_vertex, r.component
        _check(g.is_alive(v), "cut vertex gone")
        comps = connected_components(g, blocked=frozenset((v,)))
        _check(list(k_comp) in comps, "hanging block changed")
        _check(r.pendant == g.vertex_count, "pendant id mismatch")
        h = g.copy()
        for x in k_comp:
            h.remove_vertex(x)
        u = h.add_vertex()
        h.add_edge(v, u)
        out = [h]
    elif r.kind == "op11":
        u1, u2 = r.merged
        o1, o2 = r.outside
        _check(g.has_edge(u1, u2), "contracted edge gone")
        _check(g.degree(u1) == 2 and g.degree(u2) == 2, "degrees changed")
        _check(o1 in g.adj[u1] and o2 in g.adj[u2], "outside neighbors changed")
        h = g.copy()
        h.remove_vertex(u2)
        if o1 != o2:
            h.add_edge(u1, o2)
        out = [h]
    else:
        raise InternalInvariant(f"unknown weak reduction {r.kind}")
    after = sum(h.n_alive() + h.edge_count() for h in out)
    if after >= before:
        raise InternalInvariant(f"{r.kind} did not shrink the graph")
    if sum(h.n_alive() for h in out) > g.n_alive() or sum(
        h.edge_count() for h in out
    ) > g.edge_count():
        raise InternalInvariant(f"{r.kind} grew a coordinate")
    for h in out:
        if not h.is_connected():
            raise InternalInvariant(f"{r.kind} produced a disconnected part")
    return out


def lift_tree(r: WeakReduction, subtrees: list[TreeResult]) -> TreeResult:
    """Rebuild a spanning tree of the reduced graph's parent from part trees."""
    if len(subtrees) != r.parts:
        raise ArityMismatch(f"{r.kind} expects {r.parts} subtrees, got {len(subtrees)}")
    if r.kind == "op3":
        t1, t2 = subtrees
        verts = set(tree_vertices(t1)) | set(tree_vertices(t2))
        lifted = tree_result(verts, list(t1.edges) + list(t2.edges) + [r.bridge])
        floor = t1.weight + t2.weight + r.c
    elif r.kind == "op4":
        (t1,) = subtrees
        pe = norm_edge(r.cut_vertex, r.pendant)
        if pe not in t1.edges:
            raise InternalInvariant("pendant edge missing from subtree")
        edges = [e for e in t1.edges if e != pe] + list(r.inner_tree)
        verts = (set(tree_vertices(t1)) - {r.pendant}) | set(r.component)
        lifted = tree_result(verts, edges)
        floor = t1.weight + r.c
        if lifted.weight != floor:
            raise InternalInvariant("block lift must gain exactly c")
    elif r.kind == "op11":
        (t1,) = subtrees
        u1, u2 = r.merged
        o1, o2 = r.outside
        edges = set(t1.edges)
        swap = norm_edge(u1, o2)
        if swap in edges:
            edges.remove(swap)
            edges.add(norm_edge(u2, o2))
        edges.add(norm_edge(u1, u2))
        verts = set(tree_vertices(t1)) | {u2}
        lifted = tree_result(verts, edges)
        floor = t1.weight + r.c
    else:
        raise InternalInvariant(f"unknown weak reduction {r.kind}")
    if lifted.weight < floor:
        raise InternalInvariant(f"{r.kind} lift fell below its floor")
    return lifted


# -- fixpoint driver ------------------------------------------------------

_FINDERS = {
    "op1": find_op1,
    "op2": find_op2,
    "op8": find_op8,
    "op9": find_op9,
    "op10": find_op10,
    "op3": find_op3,
    "op4": find_op4,
    "op11": find_op11,
}


def find_reduction(g: Graph, kinds, sep: Separations) -> StrongReduction | WeakReduction | None:
    """First reduction of the given kinds that fires, in the order given."""
    for k in kinds:
        r = _FINDERS[k](g, sep)
        if r is not None:
            return r
    return None


@dataclass
class TraceNode:
    index: int
    graph: Graph
    parent: int | None
    applied: StrongReduction | WeakReduction | None = None
    children: list[int] = field(default_factory=list)


class ReductionTrace:
    def __init__(self, mode: str):
        self.mode = mode
        self.nodes: list[TraceNode] = []

    def add_node(self, graph: Graph, parent: int | None) -> int:
        idx = len(self.nodes)
        self.nodes.append(TraceNode(idx, graph, parent))
        return idx

    def leaves(self) -> list[int]:
        return [n.index for n in self.nodes if not n.children]

    def weak_constant_total(self) -> int:
        return sum(
            n.applied.c
            for n in self.nodes
            if isinstance(n.applied, WeakReduction)
        )

    def lift_all(self, leaf_trees: dict[int, TreeResult]) -> TreeResult:
        trees: dict[int, TreeResult] = {}
        for node in reversed(self.nodes):
            if not node.children:
                if node.index not in leaf_trees:
                    raise InternalInvariant(f"no tree for leaf {node.index}")
                t = leaf_trees[node.index]
            else:
                subs = [trees[c] for c in node.children]
                if isinstance(node.applied, StrongReduction):
                    t = lift_strong(node.applied, subs[0])
                else:
                    t = lift_tree(node.applied, subs)
            _assert_spans(t, node.graph)
            trees[node.index] = t
        return trees[0]


def _assert_spans(t: TreeResult, g: Graph) -> None:
    if tree_vertices(t) != g.alive_list():
        raise InternalInvariant("tree does not span the graph")
    for u, v in t.edges:
        if not g.has_edge(u, v):
            raise InternalInvariant(f"tree edge {u}-{v} is not a graph edge")


def reduce_to_fixpoint(g: Graph, mode: str) -> ReductionTrace:
    """Apply reductions until none fires, strong ones first at every step."""
    if mode not in RULESETS:
        raise BadParams(f"unknown mode {mode!r}")
    if not g.is_connected():
        raise DisconnectedInput("input graph is not connected")
    strong_kinds, weak_kinds = RULESETS[mode]
    trace = ReductionTrace(mode)
    work = [trace.add_node(g.copy(), None)]
    while work:
        idx = work.pop(0)
        node = trace.nodes[idx]
        sep = separations(node.graph)
        r = find_reduction(node.graph, strong_kinds, sep)
        if r is not None:
            h = apply_strong_reduction(node.graph, r)
            node.applied = r
            node.children = [trace.add_node(h, idx)]
            work.append(node.children[0])
            continue
        w = find_reduction(node.graph, weak_kinds, sep)
        if w is not None:
            parts = apply_weak_reduction(node.graph, w)
            node.applied = w
            node.children = [trace.add_node(h, idx) for h in parts]
            work.extend(node.children)
    return trace
