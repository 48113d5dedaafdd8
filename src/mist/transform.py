"""Turning a preprocessed cover into a spanning tree.

The simple route attaches short paths, opens cycles along host edges and
joins what is left.  The refined route runs three stages: connect paths
into trees along the growth structure left by preprocessing, then apply
component-merging operations (op15 through op23) that keep every touched
component "good", then break the surviving short cycles and join.
Component quality is measured against b(C), the number of edges of the
original cover lying inside the component, using exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import (
    Cover,
    CoverComponent,
    component_index,
    component_ports,
    lower_edge_at,
    path_is_dead,
)
from .errors import InternalInvariant, NonTermination
from .exact import TreeResult, tree_result
from .graph import Edge, Graph, find, norm_edge


# -- component quality ------------------------------------------------------


@dataclass(frozen=True)
class ComponentInfo:
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


@dataclass(frozen=True)
class ComponentStats:
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


def compute_stats(cover: Cover, base_edges, comps=None) -> ComponentStats:
    g2 = g3 = b2 = b3 = c4 = c5 = p4 = 0
    for comp in cover.components() if comps is None else comps:
        info = classify_component(comp, base_edges)
        if comp.kind == "cycle":
            if comp.length == 4:
                c4 += 1
            elif comp.length == 5:
                c5 += 1
            else:
                raise InternalInvariant(f"cycle of length {comp.length} survived")
        elif info.label == "c2":
            g2 += len(comp.internal)
            b2 += info.b
        elif info.label == "c3":
            g3 += len(comp.internal)
            b3 += info.b
        elif comp.kind == "path" and comp.length == 0:
            pass
        elif comp.kind == "path" and comp.length == 4:
            p4 += 1
        else:
            raise InternalInvariant(f"bad component of unexpected shape at {comp.key}")
    return ComponentStats(g2, g3, b2, b3, c4, c5, p4)


# -- simple transform -------------------------------------------------------


def _join_components(work: Cover, g: Graph) -> None:
    verts = g.alive_list()
    pos = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))
    for u, v in work.edge_list():
        ru, rv = find(parent, pos[u]), find(parent, pos[v])
        if ru != rv:
            parent[ru] = rv
    for u, v in g.edge_list():
        ru, rv = find(parent, pos[u]), find(parent, pos[v])
        if ru != rv:
            parent[ru] = rv
            work.add_edge(u, v)


def build_tree_simple(cover: Cover, g: Graph) -> TreeResult:
    """Spanning tree with at least one internal vertex per cover edge ratio.

    Short paths (length 1 to 3) are attached to the rest through a host
    edge at an endpoint, cycles are opened along host edges leaving them,
    and the resulting tree components are joined.  A cover that is one
    spanning cycle is broken at its smallest edge.
    """
    work = cover.copy()
    comps = work.components()
    attached = False
    for comp in comps:
        if comp.kind == "path" and 1 <= comp.length <= 3:
            inside = comp.vertex_set()
            attach = None
            for u in comp.endpoints:
                for v in g.adj[u]:
                    if v not in inside:
                        attach = (u, v)
                        break
                if attach:
                    break
            if attach is None:
                raise InternalInvariant(f"short path at {comp.key} has no way out")
            work.add_edge(*attach)
            attached = True
    if attached:
        comps = work.components()
    while True:
        cycles = [c for c in comps if c.kind == "cycle"]
        if not cycles:
            break
        if not (
            _open_cycle_pair(work, g, cycles, component_index(comps))
            or _open_cycle_escape(work, g, cycles)
        ):
            if len(comps) != 1 or comps[0].kind != "cycle":
                raise InternalInvariant("cycle with no way out in a connected graph")
            work.remove_edge(*comps[0].edges[0])
        comps = work.components()
    _join_components(work, g)
    return tree_result(g.alive_list(), work.edge_list())


def _open_cycle_pair(work, g, cycles, at) -> bool:
    for c1 in cycles:
        for u1 in c1.vertices:
            for u2 in g.adj[u1]:
                c2 = at[u2]
                if c2.kind == "cycle" and c2.key != c1.key:
                    work.remove_edge(*lower_edge_at(work, u1))
                    work.remove_edge(*lower_edge_at(work, u2))
                    work.add_edge(u1, u2)
                    return True
    return False


def _open_cycle_escape(work, g, cycles) -> bool:
    for c in cycles:
        inside = c.vertex_set()
        for u in c.vertices:
            for v in g.adj[u]:
                if v not in inside:
                    work.remove_edge(*lower_edge_at(work, u))
                    work.add_edge(u, v)
                    return True
    return False


# -- refined transform ------------------------------------------------------


@dataclass
class TransformState:
    base_edges: tuple[Edge, ...]
    gamma: tuple[tuple[int, int], ...]
    gamma_prime: tuple[tuple[int, int], ...]
    stage1_added: tuple[Edge, ...]
    cover1: Cover
    cover2: Cover
    stats: ComponentStats | None  # None when the cover was all cycles
    tree: TreeResult


def stage1_connect(work: Cover, g: Graph, base_edges):
    """Attach each path with an outside neighbor to its longest target."""
    comps = work.components()
    by_key = {c.key: c for c in comps}
    at = component_index(comps)
    gamma = set()
    for p in comps:
        if p.kind != "path" or p.length < 1:
            continue
        inside = p.vertex_set()
        for v in p.endpoints:
            for u in g.adj[v]:
                if u in inside:
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
        p, q = by_key[pk], by_key[qk]
        target = q.vertex_set()
        edge = None
        for v in p.endpoints:
            for u in g.adj[v]:
                if u in target:
                    edge = (v, u)
                    break
            if edge:
                break
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


def stage2_fixpoint(work: Cover, g: Graph, base_edges) -> list[CoverComponent]:
    """Merge components to a fixpoint; returns the final component list.

    The list a step checks its result against is the next step's input.
    """
    budget = g.n_alive() * g.edge_count() + g.edge_count() + 16
    steps = 0
    comps = work.components()
    infos = {c.key: classify_component(c, base_edges) for c in comps}
    while True:
        at = component_index(comps)
        bad_before = sum(1 for i in infos.values() if not i.good)
        cyc_before = sum(1 for c in comps if c.kind == "cycle")
        size_before = (len(comps), _leaf_total(comps))
        check = None
        for op in _STAGE2_OPS:
            check = op(work, g, comps, infos, at)
            if check is not None:
                break
        if check is None:
            return comps
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
            other = c2.vertex_set()
            for v1 in c1.vertices:
                for v2 in g.adj[v1]:
                    if v2 in other:
                        work.remove_edge(*lower_edge_at(work, v1))
                        work.remove_edge(*lower_edge_at(work, v2))
                        work.add_edge(v1, v2)
                        return v1
    return None


def _op16(work, g, comps, infos, at):
    for c1 in comps:
        if c1.kind != "cycle" or c1.length < 5:
            continue
        inside = c1.vertex_set()
        for v in c1.vertices:
            for u in g.adj[v]:
                if u not in inside and infos[at[u].key].good:
                    work.remove_edge(*lower_edge_at(work, v))
                    work.add_edge(v, u)
                    return v
    return None


def _op17(work, g, comps, infos, at):
    for c in comps:
        if c.kind != "cycle" or c.length < 6:
            continue
        inside = c.vertex_set()
        for v in c.vertices:
            for u in g.adj[v]:
                if u in inside:
                    continue
                p = at[u]
                if p.kind == "path" and p.length == 4:
                    work.remove_edge(*lower_edge_at(work, v))
                    work.add_edge(v, u)
                    return v
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
        inside = c1.vertex_set()
        for u in c1.leaves:
            for v in g.adj[u]:
                if v in inside:
                    continue
                if at[v].kind == "cycle":
                    work.remove_edge(*lower_edge_at(work, v))
                work.add_edge(u, v)
                return u
    return None


def _op20(work, g, comps, infos, at):
    for c in comps:
        if c.kind != "cycle":
            continue
        inside = c.vertex_set()
        for v1, v2 in c.edges:
            n1 = [u for u in g.adj[v1] if u not in inside]
            n2 = [u for u in g.adj[v2] if u not in inside]
            for u1 in n1:
                for u2 in n2:
                    if at[u1] is at[u2]:
                        continue
                    work.remove_edge(v1, v2)
                    if at[u1].kind == "cycle":
                        work.remove_edge(*lower_edge_at(work, u1))
                    if at[u2].kind == "cycle":
                        work.remove_edge(*lower_edge_at(work, u2))
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
        ports = component_ports(g, c)
        if not ports:
            raise InternalInvariant(f"component at {c.key} is sealed off")
        u = ports[0]
        work.add_edge(a, b)
        work.remove_edge(*lower_edge_at(work, u))
        inside = c.vertex_set()
        v = next(x for x in g.adj[u] if x not in inside)
        if at[v].kind == "cycle":
            work.remove_edge(*lower_edge_at(work, v))
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
                c2 = at[x]
                if c2.key in (c1.key, p.key):
                    continue
                work.remove_edge(u2, u3)
                if c2.kind == "cycle":
                    work.remove_edge(*lower_edge_at(work, x))
                work.add_edge(v, u2)
                work.add_edge(v, u4)
                work.add_edge(u3, x)
                return v
    return None


_STAGE2_OPS = (_op15, _op16, _op17, _op18, _op19, _op20, _op21, _op22, _op23)


def _tree_path(cover: Cover, u: int, v: int) -> list[int]:
    prev = {u: None}
    queue = [u]
    while queue:
        x = queue.pop(0)
        if x == v:
            break
        for y in cover.neighbors(x):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [v]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    return path


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


def stage3_finish(work: Cover, g: Graph, comps=None) -> TreeResult:
    """Open every surviving cycle towards a neighbour, then join the rest.

    comps, when given, is the cover's current component list.
    """
    comps = work.components() if comps is None else comps
    at = component_index(comps)
    for c in comps:
        if c.kind != "cycle":
            continue
        ports = component_ports(g, c)
        if not ports:
            raise InternalInvariant(f"cycle at {c.key} is sealed off")
        u = ports[0]
        inside = c.vertex_set()
        v = next(x for x in g.adj[u] if x not in inside)
        # the cycles before c in the list are open by now
        if at[v].kind == "cycle" and at[v].key > c.key:
            raise InternalInvariant("two surviving cycles are adjacent")
        work.remove_edge(*lower_edge_at(work, u))
        work.add_edge(u, v)
    _join_components(work, g)
    return tree_result(g.alive_list(), work.edge_list())


def _finish_all_cycles(work: Cover, g: Graph, comps) -> TreeResult:
    """Chain covers made of cycles only into a Hamiltonian path.

    When every component is a cycle they jointly span the graph, which
    happens only for a single spanning cycle or (at nine vertices) a
    4-cycle plus a 5-cycle.  Opening each cycle once at a connecting
    edge yields a spanning path, the best possible tree.
    """
    if len(comps) == 1:
        work.remove_edge(*comps[0].edges[0])
    elif len(comps) == 2:
        c1, c2 = comps
        other = c2.vertex_set()
        link = None
        for u in c1.vertices:
            for v in g.adj[u]:
                if v in other:
                    link = (u, v)
                    break
            if link:
                break
        if link is None:
            raise InternalInvariant("two cycle components with no connecting edge")
        work.remove_edge(*lower_edge_at(work, link[0]))
        work.remove_edge(*lower_edge_at(work, link[1]))
        work.add_edge(*link)
    else:
        raise InternalInvariant(f"{len(comps)} cycle components left after stage 2")
    return tree_result(g.alive_list(), work.edge_list())


def run_transform(cover: Cover, g: Graph) -> TransformState:
    """Run the three refined stages on a preprocessed cover."""
    base_edges = tuple(cover.edge_list())
    work = cover.copy()
    gamma, gamma_prime, added = stage1_connect(work, g, base_edges)
    cover1 = work.copy()
    comps = stage2_fixpoint(work, g, base_edges)
    if all(c.kind == "cycle" for c in comps):
        cover2 = work.copy()
        tree = _finish_all_cycles(work, g, comps)
        if tree.weight != g.n_alive() - 2:
            raise InternalInvariant("cycle chaining missed the spanning path")
        return TransformState(
            base_edges, gamma, gamma_prime, added, cover1, cover2, None, tree
        )
    for comp in comps:
        info = classify_component(comp, base_edges)
        if _stage2_kind(info) is None:
            raise InternalInvariant(
                f"component at {comp.key} left over after stage 2"
            )
    cover2 = work.copy()
    stats = compute_stats(cover2, base_edges, comps)
    tree = stage3_finish(work, g, comps)
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
    comps = cover2.components()
    infos = {c.key: classify_component(c, base_edges) for c in comps}
    at = component_index(comps)
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
            other = c2.vertex_set()
            if any(v in other for u in c1.vertices for v in g.adj[u]):
                out.append(f"cycles at {c1.key} and {c2.key} are adjacent")
    for c in cycles:
        if c.length != 4:
            continue
        inside = c.vertex_set()
        targets = {at[v].key for u in c.vertices for v in g.adj[u] if v not in inside}
        if len(targets) > 1:
            out.append(f"4-cycle at {c.key} is adjacent to {len(targets)} components")
        for t in targets:
            tk = kinds[t]
            if tk in ("4-cycle", "4-path", "5-cycle"):
                out.append(f"4-cycle at {c.key} is adjacent to a {tk}")
    return out
