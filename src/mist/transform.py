"""Turning a preprocessed cover into a spanning tree.

The simple route attaches short paths, then one cycle opener opens the
cycles along host edges and joins what is left.  The refined route runs
three stages: connect paths into trees along the growth structure left by
preprocessing, apply component-merging operations (op15 through op23)
that keep every touched component "good", then break the surviving short
cycles and join; a cover that stage 2 leaves all cycles goes to the same
opener.  Every search for a host edge leaving a vertex set is
`cover.first_edge`.  Component quality is measured against b(C), the
number of edges of the original cover lying inside the component, using
exact rationals.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .cover import (
    Cover,
    CoverComponent,
    first_edge,
    lower_edge_at,
    path_is_dead,
    step_budget,
)
from .errors import InternalInvariant, NonTermination
from .exact import TreeResult, tree_result
from .graph import Edge, Graph, find, norm_edge


# -- component quality ------------------------------------------------------


class ComponentInfo(NamedTuple):
    comp: CoverComponent
    b: int
    label: str  # "c2" | "c3" | "bad"

    @property
    def good(self) -> bool:
        return self.label != "bad"


def classify_component(comp: CoverComponent, base_edges) -> ComponentInfo:
    inside = comp.vertex_set()
    b = sum(1 for u, v in base_edges if u in inside and v in inside)
    w = len(comp.internal)
    nl = len(comp.leaves)
    label = "bad"
    if comp.kind != "cycle":
        if b >= 5 and nl <= b - 2 and w >= Fraction(4, 5) * b:
            label = "c2"
        elif b == 4 and w >= b and nl == 3:
            label = "c3"
    return ComponentInfo(comp, b, label)


_STAGE2_KINDS = ("4-cycle", "5-cycle", "0-path", "4-path", "good")


def _stage2_kind(info: ComponentInfo) -> str | None:
    comp = info.comp
    if info.good:
        return "good"
    if comp.kind == "cycle" and comp.length in (4, 5):
        return f"{comp.length}-cycle"
    if comp.kind == "path" and comp.length in (0, 4):
        return f"{comp.length}-path"
    return None


class ComponentStats(NamedTuple):
    g2: int
    g3: int
    b2: int
    b3: int
    c4: int
    c5: int
    p4: int

    @property
    def tree_floor(self) -> int:
        return 3 * self.c4 + 4 * self.c5 + 3 * self.p4 + self.g2 + self.g3

    @property
    def opt_cap_edges(self) -> int:
        return 4 * self.c4 + 5 * self.c5 + 4 * self.p4 + self.b2 + self.b3

    @property
    def opt_cap_internal(self) -> int:
        return 3 * self.c4 + 5 * self.c5 + 3 * self.p4 + 2 * self.g2 + 2 * self.g3


def compute_stats(infos) -> ComponentStats:
    """Tally the stage-2 kinds of the classified components."""
    kinds = Counter()
    good = {"c2": [0, 0], "c3": [0, 0]}  # internal vertices, base edges
    for info in infos:
        kind = _stage2_kind(info)
        if kind is None:
            raise InternalInvariant(
                f"component at {info.comp.key} left over after stage 2"
            )
        kinds[kind] += 1
        if kind == "good":
            good[info.label][0] += len(info.comp.internal)
            good[info.label][1] += info.b
    (g2, b2), (g3, b3) = good["c2"], good["c3"]
    return ComponentStats(g2, g3, b2, b3, kinds["4-cycle"], kinds["5-cycle"], kinds["4-path"])


# -- cover edits ------------------------------------------------------------


def _open_at(work: Cover, at, x: int) -> None:
    """Drop x's lower cover edge if x lies on a cycle of the index at."""
    if at[x].kind == "cycle":
        work.remove_edge(*lower_edge_at(work, x))


def _link(work: Cover, at, u: int, v: int) -> int:
    """Add the host edge uv, first opening the cycles at its ends; returns u."""
    _open_at(work, at, u)
    _open_at(work, at, v)
    work.add_edge(u, v)
    return u


def _join_components(work: Cover, g: Graph) -> None:
    if work.edge_count() == g.n_alive() - 1:
        return  # the forest already spans g
    parent = list(range(g.vertex_count))
    for u, v in work.edge_list():
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
    for u, v in g.edge_list():
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            work.add_edge(u, v)


def _cycle_exit(g: Graph, cycles, at) -> Edge | None:
    """First host edge between two cycles, else from a cycle to a non-cycle."""
    for c in cycles:
        edge = first_edge(g, c.vertices, lambda v: at[v].kind == "cycle" and at[v] is not c)
        if edge:
            return edge
    # no cycle sees another one, so every edge leaving a cycle ends off the cycles
    sources = [v for c in cycles for v in c.vertices]
    return first_edge(g, sources, lambda v: at[v].kind != "cycle")


def _open_cycles_and_join(work: Cover, g: Graph) -> TreeResult:
    """Open the cover's cycles one by one along host edges, then join the rest.

    The cover searches its components again after each opened cycle.  A
    cover that is one spanning cycle loses its smallest edge.
    """
    while cycles := [c for c in work.components() if c.kind == "cycle"]:
        at = work.index()
        if len(work.components()) == 1:  # one spanning cycle, which no edge leaves
            work.remove_edge(*cycles[0].edges[0])
        elif edge := _cycle_exit(g, cycles, at):
            _link(work, at, *edge)
        else:
            raise InternalInvariant("cycle with no way out in a connected graph")
    _join_components(work, g)
    return tree_result(g, work.edge_list())


# -- simple transform -------------------------------------------------------


def build_tree_simple(cover: Cover, g: Graph) -> TreeResult:
    """Spanning tree with at least one internal vertex per cover edge ratio.

    Short paths (length 1 to 3) are attached to the rest through a host
    edge at an endpoint, then the cycles are opened and all joined.
    """
    work = cover.copy()
    for comp in work.components():
        if comp.kind == "path" and 1 <= comp.length <= 3:
            inside = comp.vertex_set()
            edge = first_edge(g, comp.endpoints, lambda v: v not in inside)
            if edge is None:
                raise InternalInvariant(f"short path at {comp.key} has no way out")
            work.add_edge(*edge)
    return _open_cycles_and_join(work, g)


# -- refined transform ------------------------------------------------------


class TransformState:
    __slots__ = (
        "base_edges", "gamma", "gamma_prime", "stage1_added", "cover1", "cover2", "stats", "tree"
    )

    def __init__(
        self,
        base_edges: tuple[Edge, ...],
        gamma: tuple[tuple[int, int], ...],
        gamma_prime: tuple[tuple[int, int], ...],
        stage1_added: tuple[Edge, ...],
        cover1: Cover,
        cover2: Cover,
        stats: ComponentStats | None,  # None when the cover was all cycles
        tree: TreeResult,
    ):
        self.base_edges = base_edges
        self.gamma = gamma
        self.gamma_prime = gamma_prime
        self.stage1_added = stage1_added
        self.cover1 = cover1
        self.cover2 = cover2
        self.stats = stats
        self.tree = tree


def stage1_connect(work: Cover, g: Graph, base_edges):
    """Attach each path with an outside neighbor to its longest target."""
    comps, at = work.components(), work.index()
    by_key = {c.key: c for c in comps}
    gamma = set()
    for p in comps:
        if p.kind != "path" or p.length < 1:
            continue
        for v in p.endpoints:
            for u in g.adj[v]:
                if at[u] is p:
                    continue
                q = at[u]
                if q.kind != "path" or work.degree(u) != 2:
                    raise InternalInvariant(
                        f"endpoint {v} reaches {u} outside a long path interior"
                    )
                if q.length < 2 * p.length + 2:
                    raise InternalInvariant(
                        f"target path at {q.key} is too short for {p.key}"
                    )
                gamma.add((p.key, q.key))
    gamma = tuple(sorted(gamma))
    gamma_prime = []
    for pk in sorted({pk for pk, _ in gamma}):
        cands = [qk for xk, qk in gamma if xk == pk]
        cands.sort(key=lambda qk: (-by_key[qk].length, qk))
        gamma_prime.append((pk, cands[0]))
    added = []
    for pk, qk in gamma_prime:
        q = by_key[qk]
        edge = first_edge(g, by_key[pk].endpoints, lambda u: at[u] is q)
        if edge is None:
            raise InternalInvariant(f"no edge realizes the pair ({pk}, {qk})")
        work.add_edge(*edge)
        added.append(norm_edge(*edge))
    for comp in work.components():
        if comp.kind == "tree":
            info = classify_component(comp, base_edges)
            if info.label != "c2":
                raise InternalInvariant(
                    f"stage-1 tree at {comp.key} is {info.label}, not c2"
                )
    return gamma, tuple(gamma_prime), tuple(added)


def _leaf_total(comps) -> int:
    return sum(len(c.leaves) for c in comps)


def stage2_fixpoint(work: Cover, g: Graph, base_edges) -> list[ComponentInfo]:
    """Merge components to a fixpoint; returns the final components' infos in order.

    The list a step checks its result against is the next step's input.
    """
    budget = step_budget(g)
    steps = 0
    comps = work.components()
    infos = {c.key: classify_component(c, base_edges) for c in comps}
    while True:
        at = work.index()
        bad_before = sum(1 for i in infos.values() if not i.good)
        cyc_before = sum(1 for c in comps if c.kind == "cycle")
        size_before = (len(comps), _leaf_total(comps))
        check = None
        for op in _STAGE2_OPS:
            check = op(work, g, comps, infos, at)
            if check is not None:
                break
        if check is None:
            return list(infos.values())
        comps = work.components()
        infos = {c.key: classify_component(c, base_edges) for c in comps}
        touched = next(c for c in comps if check in c.vertices)
        if not infos[touched.key].good:
            raise InternalInvariant(
                f"stage-2 step left a bad component at {touched.key}"
            )
        if sum(1 for i in infos.values() if not i.good) > bad_before:
            raise InternalInvariant("stage-2 step created a bad component")
        if sum(1 for c in comps if c.kind == "cycle") > cyc_before:
            raise InternalInvariant("stage-2 step created a cycle")
        if not (len(comps), _leaf_total(comps)) < size_before:
            raise InternalInvariant("stage-2 step did not shrink the cover")
        steps += 1
        if steps > budget:
            raise NonTermination(f"stage 2 exceeded {budget} steps")


def _op15(work, g, comps, infos, at):
    cycles = [c for c in comps if c.kind == "cycle"]
    for i, c1 in enumerate(cycles):
        for c2 in cycles[i + 1 :]:
            if c1.length + c2.length < 10:
                continue
            edge = first_edge(g, c1.vertices, lambda v: at[v] is c2)
            if edge:
                return _link(work, at, *edge)
    return None


def _op16(work, g, comps, infos, at):
    for c1 in comps:
        if c1.kind != "cycle" or c1.length < 5:
            continue
        # a cycle is never good, so a good component lies outside c1
        edge = first_edge(g, c1.vertices, lambda u: infos[at[u].key].good)
        if edge:
            return _link(work, at, *edge)
    return None


def _op17(work, g, comps, infos, at):
    for c in comps:
        if c.kind != "cycle" or c.length < 6:
            continue
        edge = first_edge(
            g, c.vertices, lambda u: at[u].kind == "path" and at[u].length == 4
        )
        if edge:
            return _link(work, at, *edge)
    return None


def _op18(work, g, comps, infos, at):
    for c in comps:
        if c.kind != "path" or c.length != 0:
            continue
        u = c.vertices[0]
        nbrs = g.adj[u]
        for i, v1 in enumerate(nbrs):
            for v2 in nbrs[i + 1 :]:
                if at[v1] is at[v2]:
                    continue
                for v in (v1, v2):
                    if at[v].kind == "cycle":
                        raise InternalInvariant(
                            f"isolated {u} is adjacent to a surviving cycle"
                        )
                work.add_edge(u, v1)
                work.add_edge(u, v2)
                return u
    return None


def _op19(work, g, comps, infos, at):
    for c1 in comps:
        if not infos[c1.key].good:
            continue
        edge = first_edge(g, c1.leaves, lambda v: at[v] is not c1)
        if edge:
            return _link(work, at, *edge)
    return None


def _op20(work, g, comps, infos, at):
    for c in comps:
        if c.kind != "cycle":
            continue
        for v1, v2 in c.edges:
            n1 = [u for u in g.adj[v1] if at[u] is not c]
            n2 = [u for u in g.adj[v2] if at[u] is not c]
            for u1 in n1:
                for u2 in n2:
                    if at[u1] is at[u2]:
                        continue
                    work.remove_edge(v1, v2)
                    _open_at(work, at, u1)
                    _open_at(work, at, u2)
                    work.add_edge(v1, u1)
                    work.add_edge(v2, u2)
                    return v1
    return None


def _op21(work, g, comps, infos, at):
    for c in comps:
        if not infos[c.key].good or c.kind != "path" or c.length < 1:
            continue
        if len(c.vertices) == g.n_alive():
            continue
        if not path_is_dead(g, c):
            continue
        a, b = c.endpoints
        if not g.has_edge(a, b):
            continue
        edge = first_edge(g, c.vertices, lambda x: at[x] is not c)
        if edge is None:
            raise InternalInvariant(f"component at {c.key} is sealed off")
        u, v = edge
        work.add_edge(a, b)
        work.remove_edge(*lower_edge_at(work, u))
        _open_at(work, at, v)
        work.add_edge(u, v)
        return u
    return None


def _op22(work, g, comps, infos, at):
    for c in comps:
        if not infos[c.key].good or c.kind != "tree":
            continue
        for i, u in enumerate(c.leaves):
            for v in c.leaves[i + 1 :]:
                if not g.has_edge(u, v):
                    continue
                path = _tree_path(work, u, v)
                branch = [x for x in path[1:-1] if work.degree(x) >= 3]
                if not branch:
                    raise InternalInvariant("leaf-to-leaf path has no branch vertex")
                x = min(branch)
                k = path.index(x)
                drop = min(norm_edge(path[k - 1], x), norm_edge(x, path[k + 1]))
                work.remove_edge(*drop)
                work.add_edge(u, v)
                return u
    return None


def _op23(work, g, comps, infos, at):
    for c1 in comps:
        if c1.kind != "path" or c1.length != 0:
            continue
        v = c1.vertices[0]
        for p in comps:
            if p.kind != "path" or p.length != 4:
                continue
            u2, u3, u4 = p.order[1], p.order[2], p.order[3]
            if not (g.has_edge(v, u2) and g.has_edge(v, u4)):
                continue
            for x in g.adj[u3]:
                if at[x].key in (c1.key, p.key):
                    continue
                work.remove_edge(u2, u3)
                _open_at(work, at, x)
                work.add_edge(v, u2)
                work.add_edge(v, u4)
                work.add_edge(u3, x)
                return v
    return None


_STAGE2_OPS = (_op15, _op16, _op17, _op18, _op19, _op20, _op21, _op22, _op23)


def _tree_path(cover: Cover, u: int, v: int) -> list[int]:
    prev = {u: None}
    queue = [u]
    for x in queue:  # the list grows behind the loop, a breadth-first queue
        if x == v:
            break
        for y in cover.adj[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [v]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def stage3_finish(work: Cover, g: Graph) -> TreeResult:
    """Open every surviving cycle towards a neighbour, then join the rest."""
    at = work.index()
    for c in work.components():
        if c.kind != "cycle":
            continue
        edge = first_edge(g, c.vertices, lambda x: at[x] is not c)
        if edge is None:
            raise InternalInvariant(f"cycle at {c.key} is sealed off")
        u, v = edge
        # the cycles before c in the list are open by now
        if at[v].kind == "cycle" and at[v].key > c.key:
            raise InternalInvariant("two surviving cycles are adjacent")
        work.remove_edge(*lower_edge_at(work, u))
        work.add_edge(u, v)
    _join_components(work, g)
    return tree_result(g, work.edge_list())


def run_transform(cover: Cover, g: Graph) -> TransformState:
    """Run the three refined stages on a preprocessed cover.

    Cycles left alone by stage 2 span g: one spanning cycle or (at nine
    vertices) a 4-cycle and a 5-cycle.  The shared opener turns them into a
    spanning path, the best possible tree.
    """
    base_edges = tuple(cover.edge_list())
    work = cover.copy()
    gamma, gamma_prime, added = stage1_connect(work, g, base_edges)
    cover1 = work.copy()
    infos = stage2_fixpoint(work, g, base_edges)
    cover2 = work.copy()
    if all(i.comp.kind == "cycle" for i in infos):
        if len(infos) > 2:
            raise InternalInvariant(
                f"{len(infos)} cycle components left after stage 2"
            )
        stats = None
        tree = _open_cycles_and_join(work, g)
        if tree.weight != g.n_alive() - 2:
            raise InternalInvariant("cycle chaining missed the spanning path")
    else:
        stats = compute_stats(infos)
        tree = stage3_finish(work, g)
        if tree.weight < stats.tree_floor:
            raise InternalInvariant(
                f"tree weight {tree.weight} below floor {stats.tree_floor}"
            )
    return TransformState(
        base_edges, gamma, gamma_prime, added, cover1, cover2, stats, tree
    )


# -- structural checks on the stage-2 cover ---------------------------------


def check_stage2_structure(cover2: Cover, g: Graph, base_edges) -> list[str]:
    """Violations of the component structure expected after stage 2."""
    out = []
    comps, at = cover2.components(), cover2.index()
    infos = {c.key: classify_component(c, base_edges) for c in comps}
    kinds = {}
    for c in comps:
        kind = _stage2_kind(infos[c.key])
        if kind is None:
            out.append(f"component at {c.key} is none of {_STAGE2_KINDS}")
            kind = "bad"
        kinds[c.key] = kind

    def _internal(v):
        return cover2.degree(v) >= 2

    for c in comps:
        kind = kinds[c.key]
        inside = c.vertex_set()
        if kind == "0-path":
            u = c.vertices[0]
            targets = {at[v].key for v in g.adj[u]}
            if len(targets) != 1:
                out.append(f"isolated {u} reaches {len(targets)} components")
                continue
            cp = infos[targets.pop()]
            if cp.comp.kind == "cycle":
                out.append(f"isolated {u} reaches a cycle")
            if not all(_internal(v) for v in g.adj[u]):
                out.append(f"isolated {u} reaches a non-internal vertex")
            if not cp.good and g.degree(u) != 1:
                out.append(f"isolated {u} reaches a bad component yet d_G={g.degree(u)}")
        elif kind == "4-path":
            for v in c.endpoints:
                if g.degree(v) != 1:
                    out.append(f"4-path endpoint {v} has degree {g.degree(v)}")
            for u in c.internal:
                for v in g.adj[u]:
                    if g.degree(v) == 1:
                        continue
                    kv = kinds[at[v].key]
                    if kv == "5-cycle":
                        continue
                    if kv in ("4-path", "good") and _internal(v):
                        continue
                    out.append(f"4-path interior {u} sees {v} in a {kv}")
        elif kind == "4-cycle":
            for u in c.vertices:
                for v in g.adj[u]:
                    if v in inside:
                        continue
                    if kinds[at[v].key] != "good" or not _internal(v):
                        out.append(f"4-cycle vertex {u} sees non-good-interior {v}")
        elif kind == "5-cycle":
            for u in c.vertices:
                for v in g.adj[u]:
                    if v in inside:
                        continue
                    if kinds[at[v].key] != "4-path" or not _internal(v):
                        out.append(f"5-cycle vertex {u} sees {v} outside a 4-path interior")
        elif kind == "good":
            spanning_path = c.kind == "path" and len(c.vertices) == g.n_alive()
            if spanning_path:
                continue
            for u in c.leaves:
                for v in g.adj[u]:
                    if v not in inside or not _internal(v):
                        out.append(f"good-component leaf {u} sees {v}")

    cycles = [c for c in comps if c.kind == "cycle"]
    for i, c1 in enumerate(cycles):
        for c2 in cycles[i + 1 :]:
            if first_edge(g, c1.vertices, lambda v: at[v] is c2):
                out.append(f"cycles at {c1.key} and {c2.key} are adjacent")
    for c in cycles:
        if c.length != 4:
            continue
        targets = {at[v].key for u in c.vertices for v in g.adj[u]} - {c.key}
        if len(targets) > 1:
            out.append(f"4-cycle at {c.key} is adjacent to {len(targets)} components")
        for t in targets:
            tk = kinds[t]
            if tk in ("4-cycle", "4-path", "5-cycle"):
                out.append(f"4-cycle at {c.key} is adjacent to a {tk}")
    return out
