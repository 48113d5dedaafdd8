"""Path-cycle covers, the maximum-cover solver and degree-2 twin pairs.

A Cover is a spanning subgraph of a host graph.  During the approximation
stages its components start as paths and cycles (a triangle-free path-cycle
cover) and later grow into trees, so the component classifier below knows
all three shapes.  max_tfpcc, the one maximum-cover solver, has no size
cap: it solves at most TFPCC_RESOLVES 2-matchings, each in polynomial
time, and reads triangles off each Cover's components.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import NamedTuple

from .errors import InternalInvariant, NonTermination, PreconditionViolated
from .graph import Edge, Graph, connected_components, norm_edge, twin_groups

TFPCC_RESOLVES = 200  # 2-matchings max_tfpcc may solve before giving up


class Cover(Graph):
    """Spanning subgraph of a host graph, over the host's vertex ids.

    components() and index() are kept until the next edit; a copy shares them.
    """

    __slots__ = ("graph", "_comps", "_index")

    def __init__(self, graph: Graph, edges=()):
        """The cover of graph with the given edges, each checked in list order
        as add_edge checks it and appended to both rows, each row sorted once."""
        n = self.vertex_count = graph.vertex_count
        alive = self.alive = list(graph.alive)
        adj = self.adj = [[] for _ in range(n)]
        has_edge = graph.has_edge
        for u, v in edges:
            if not has_edge(u, v):
                raise InternalInvariant(f"cover edge {u}-{v} is not a host edge")
            if not (0 <= u < n and alive[u] and 0 <= v < n and alive[v]):
                raise InternalInvariant(f"edge {u}-{v} touches a dead vertex")
            if v in adj[u]:
                raise InternalInvariant(f"duplicate edge {u}-{v}")
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        self._order, self._size = graph.n_alive(), sum(map(len, adj)) // 2
        self.graph = graph
        self._comps = self._index = None

    def add_edge(self, u: int, v: int) -> None:
        if not self.graph.has_edge(u, v):
            raise InternalInvariant(f"cover edge {u}-{v} is not a host edge")
        super().add_edge(u, v)
        self._comps = self._index = None

    def remove_edge(self, u: int, v: int) -> None:
        super().remove_edge(u, v)
        self._comps = self._index = None

    def remove_vertex(self, v: int) -> None:
        super().remove_vertex(v)  # an isolated v changes no edge
        self._comps = self._index = None

    def copy(self) -> Cover:
        c = super().copy()  # rows, alive mask and counts: the cover's own
        c.graph, c._comps, c._index = self.graph, self._comps, self._index
        return c

    def __repr__(self):
        return f"Cover(edges={self.edge_list()})"

    def components(self) -> list[CoverComponent]:
        """Connected components ordered by smallest vertex."""
        if self._comps is None:
            self._comps = [self._make_component(c) for c in connected_components(self)]
        return self._comps

    def index(self) -> dict[int, CoverComponent]:
        """Map every alive vertex to its component in components()."""
        if self._index is None:
            self._index = {v: c for c in self.components() for v in c.vertices}
        return self._index

    def _make_component(self, comp: list[int]) -> CoverComponent:
        vertices = tuple(comp)
        edges = tuple((u, v) for u in vertices for v in self.adj[u] if u < v)
        nv, ne = len(vertices), len(edges)
        degs = [len(self.adj[v]) for v in vertices]
        leaves = tuple(v for v, d in zip(vertices, degs) if d <= 1)
        internal = tuple(v for v, d in zip(vertices, degs) if d >= 2)
        if ne == nv and all(d == 2 for d in degs):
            kind = "cycle"
            order = self._walk(vertices[0], nv)
        elif ne == nv - 1:
            kind = "path" if all(d <= 2 for d in degs) else "tree"
            order = self._walk(leaves[0], nv) if kind == "path" else ()
        else:
            raise InternalInvariant(
                f"component {vertices} has {ne} edges; not a path, cycle or tree"
            )
        return CoverComponent(vertices, edges, kind, order, leaves, internal)

    def _walk(self, first: int, length: int) -> tuple[int, ...]:
        """The first length vertices of a path or cycle walked from first: its
        first neighbour, then at each vertex the neighbour not come from.
        """
        order, prev, cur = [first], -1, first
        for _ in range(length - 1):
            nbrs = self.adj[cur]
            prev, cur = cur, nbrs[0] if nbrs[0] != prev else nbrs[1]
            order.append(cur)
        return tuple(order)


class CoverComponent(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    kind: str  # "path" | "cycle" | "tree"
    order: tuple[int, ...]  # traversal order for paths and cycles
    leaves: tuple[int, ...]
    internal: tuple[int, ...]

    @property
    def key(self) -> int:
        return self.vertices[0]

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def endpoints(self) -> tuple[int, ...]:
        if self.kind != "path":
            raise InternalInvariant(f"endpoints of a {self.kind} component")
        if len(self.order) == 1:
            return (self.order[0],)
        return tuple(sorted((self.order[0], self.order[-1])))

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def lower_edge_at(cover: Cover, v: int) -> Edge:
    """Smallest cover edge incident to v, as a (min, max) tuple."""
    return norm_edge(v, cover.adj[v][0])


def first_edge(g: Graph, sources, ok) -> Edge | None:
    """First host edge (u, v) with ok(v), u in sources order and v ascending; or None."""
    for u in sources:
        for v in g.adj[u]:
            if ok(v):
                return u, v
    return None


def step_budget(g: Graph) -> int:
    """Backstop on the number of steps of a fixpoint over g's covers."""
    return g.n_alive() * g.edge_count() + g.edge_count() + 16


def component_ports(g: Graph, comp: CoverComponent) -> list[int]:
    """Vertices of the component with a host neighbor outside it."""
    inside = comp.vertex_set()
    return [v for v in comp.vertices if any(u not in inside for u in g.adj[v])]


def path_is_dead(g: Graph, comp: CoverComponent) -> bool:
    """A path component is dead when no endpoint has an outside neighbor."""
    if comp.kind != "path":
        raise InternalInvariant("dead/alive applies to path components")
    inside = comp.vertex_set()
    return first_edge(g, comp.endpoints, lambda u: u not in inside) is None


def validate_tfpcc(cover: Cover) -> None:
    """Raise unless the cover is a triangle-free path-cycle cover of its host."""
    if cover.alive != cover.graph.alive:
        raise InternalInvariant("cover does not span the alive vertices")
    if max(map(len, cover.adj), default=0) > 2:  # a dead vertex's row is empty
        v = next(v for v, row in enumerate(cover.adj) if len(row) > 2)
        raise InternalInvariant(f"cover degree {cover.degree(v)} at {v}")
    for comp in cover.components():
        if comp.kind == "tree" and comp.length > 0:
            raise InternalInvariant(f"non-path tree component {comp.vertices}")
        if comp.kind == "cycle" and comp.length < 4:
            raise InternalInvariant(f"cycle of length {comp.length}")


class PiPair(NamedTuple):
    u1: int
    u3: int
    boundary: tuple[int, int]
    supports: tuple[Edge, ...]


def compute_pi_pairs(g: Graph) -> list[PiPair]:
    """Pairs of degree-2 vertices with identical neighborhoods.

    This also asserts the caller's preconditions: at least nine vertices,
    no three such twins sharing a neighborhood, and every shared neighbor
    of degree at least 3.  The latter two are consequences of
    irreducibility; inputs violating any of them raise
    PreconditionViolated, so every twin group holds one pair.
    """
    if g.n_alive() < 9:
        raise PreconditionViolated(f"needs at least 9 vertices, got {g.n_alive()}")
    pairs = []
    for key, twins in twin_groups(g):  # groups of two or more
        if len(twins) >= 3:
            raise PreconditionViolated(
                f"three twins {twins[:3]} share neighborhood {key}"
            )
        for b in key:
            if g.degree(b) < 3:
                raise PreconditionViolated(
                    f"boundary vertex {b} has degree {g.degree(b)}"
                )
        u1, u3 = twins
        supports = tuple(sorted(norm_edge(u, b) for u in twins for b in key))
        pairs.append(PiPair(u1, u3, key, supports))
    pairs.sort(key=lambda p: (p.u1, p.u3))
    return pairs


def is_special(cover: Cover, pairs: list[PiPair]) -> bool:
    """True when every pair has cover degree at most 1 at u1."""
    return all(cover.degree(p.u1) <= 1 for p in pairs)


def preferred_tfpcc(g: Graph, pairs: list[PiPair]) -> Cover:
    """Maximum triangle-free path-cycle cover among the special ones.

    Special means each twin pair of g (pairs, from compute_pi_pairs) keeps
    cover degree at most 1 at its smaller vertex, which the solver enforces
    as a forced-leaf constraint.  The 2-matching search max_tfpcc picks the
    cover at every size.
    """
    cover = max_tfpcc(g, forced_leaves=[p.u1 for p in pairs])
    if not is_special(cover, pairs):
        raise InternalInvariant("solver returned a non-special cover")
    return cover


def max_tfpcc(g: Graph, forced_leaves=()) -> Cover:
    """A maximum triangle-free path-cycle cover of g.

    forced_leaves lists vertices whose cover degree must stay at most 1.
    A maximum simple 2-matching with those degree caps (_two_matching) has
    size U >= every such cover.  Every cover misses an edge of each
    triangle, so a depth-first search that bans one edge of the first
    triangle of each 2-matching it meets (a whole component of its Cover),
    and prunes every 2-matching smaller than a target, finds a
    triangle-free one of the target size exactly when a cover of that size
    exists; that Cover is returned.  The target starts at U and drops by
    one whenever a search ends empty.  Solving more than TFPCC_RESOLVES
    2-matchings raises NonTermination.
    """
    cap = [2 if up else 0 for up in g.alive]
    for v in forced_leaves:
        if not g.is_alive(v):
            raise PreconditionViolated(f"forced leaf {v} is not alive")
        cap[v] = 1
    solves = 0
    target = None
    while True:
        bans = [frozenset()]
        while bans:
            banned = bans.pop()
            solves += 1
            if solves > TFPCC_RESOLVES:
                raise NonTermination(
                    f"no triangle-free cover found in {TFPCC_RESOLVES} 2-matchings"
                )
            edges = _two_matching(g.adj, cap, banned)
            if target is None:
                target = len(edges)
            if len(edges) < target:
                continue
            cover = Cover(g, edges)
            tris = [c for c in cover.components() if c.kind == "cycle" and c.length == 3]
            if not tris:
                return cover
            bans.extend(banned | {e} for e in reversed(tris[0].edges))
        target -= 1


def _two_matching(adj: list[list[int]], cap: list[int], banned) -> list[Edge]:
    """A maximum simple 2-matching of the rows adj, ascending: at most cap[v]
    edges at each v, and none of the edges in banned.

    Tutte's gadget has cap[v] copies of each vertex v and, for each edge
    vw, two joined half-edges, one also joined to every copy of v and the
    other to every copy of w (a banned edge's half-edges are joined only to
    each other).  A maximum matching of the gadget that matches every
    half-edge holds vw exactly when both of its half-edges are matched to
    copies.  The gadget is searched from the rows: the copies of v are ids
    copy[v] to copy[v + 1] - 1, the half-edge of v toward adj[v][j] is
    half[v] + j, so a half-edge's partner is an offset plus a bisection.
    The start, a greedy 2-matching taking edges by lowest degree sum with
    every other half-edge matched to its partner, matches every half-edge,
    and augmenting keeps them matched; one search from each exposed copy
    then leaves no augmenting path (_augment).  When the greedy fills every
    cap, no copy is exposed, so by Berge's lemma it is maximum as it stands
    and is returned without building the gadget's matching (every cycle
    takes this exit).
    """
    n = len(adj)
    room = list(cap)
    order = sorted(
        (len(adj[v]) + len(adj[w]), v, w)
        for v in range(n)
        for w in adj[v]
        if v < w and (v, w) not in banned
    )
    greedy = []
    for _, v, w in order:
        if room[v] and room[w]:
            room[v] -= 1
            room[w] -= 1
            greedy.append((v, w))
    if not any(room):
        return sorted(greedy)
    copy = list(accumulate(cap, initial=0))
    ncopies = copy[-1]
    half = list(accumulate(map(len, adj), initial=ncopies))
    match = [-1] * half[-1]
    room = list(cap)  # as in the greedy: the k-th edge at a takes copy copy[a] + cap[a] - k
    for v, w in greedy:
        for a, b in ((v, w), (w, v)):
            room[a] -= 1
            x, c = half[a] + bisect_left(adj[a], b), copy[a] + room[a]
            match[x], match[c] = c, x
    for v in range(n):
        for j, w in enumerate(adj[v]):
            x = half[v] + j
            if match[x] < 0:
                y = half[w] + bisect_left(adj[w], v)
                match[x], match[y] = y, x

    def nbrs(x):
        if x < ncopies:
            v = bisect_right(copy, x) - 1
            h = half[v]
            if not banned:
                return range(h, h + len(adj[v]))
            return [h + j for j, w in enumerate(adj[v]) if norm_edge(v, w) not in banned]
        v = bisect_right(half, x) - 1
        w = adj[v][x - half[v]]
        mate = half[w] + bisect_left(adj[w], v)
        if banned and norm_edge(v, w) in banned:
            return (mate,)
        return [*range(copy[v], copy[v + 1]), mate]

    parent = [-1] * len(match)
    base = list(range(len(match)))
    for root in range(ncopies):
        if match[root] < 0:
            _augment(root, match, parent, base, nbrs)
    return [
        (v, w)
        for v in range(n)
        for j, w in enumerate(adj[v])
        if v < w and match[half[v] + j] < ncopies
    ]


def _augment(root: int, match: list[int], parent: list[int], base: list[int], nbrs) -> None:
    """Flip an augmenting path from the exposed vertex root, if there is one.

    Edmonds' blossom search: a breadth-first alternating tree grows from
    root, parent links the odd vertices back along it, and a blossom is
    contracted by pointing the base of each of its vertices at the blossom's
    base.  Each base keeps the list of the tree vertices it stands for, so
    a contraction moves only the members of the bases it absorbs, and
    queues those that turn even in the order they joined the tree (Gabow).
    parent and base are -1 and the identity outside the search, and only
    the entries of the vertices the tree reached are reset.
    """
    tree = [root]  # every vertex whose parent or base the search may set
    joined = {root: 0}  # each tree vertex's index in tree
    members = {root: [root]}  # each base's tree vertices
    even = {root}
    queue = [root]
    try:
        for v in queue:  # grows as the tree does
            for to in nbrs(v):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or match[to] >= 0 and parent[match[to]] >= 0:
                    b = _common_base(v, to, match, parent, base)
                    bases: set[int] = set()
                    _mark_blossom(v, b, to, match, parent, base, bases)
                    _mark_blossom(to, b, v, match, parent, base, bases)
                    bases.discard(b)  # b's members are even, and stay b's
                    moved = [x for c in bases for x in members.pop(c)]
                    members[b] += moved
                    for x in moved:
                        base[x] = b
                    turned = [x for x in moved if x not in even]
                    turned.sort(key=joined.__getitem__)
                    even.update(turned)
                    queue += turned
                elif parent[to] < 0:
                    parent[to] = v
                    joined[to] = len(tree)
                    members[to] = [to]
                    tree.append(to)
                    if match[to] < 0:
                        while to >= 0:
                            v = parent[to]
                            after = match[v]
                            match[to], match[v] = v, to
                            to = after
                        return
                    w = match[to]
                    even.add(w)
                    queue.append(w)
                    joined[w] = len(tree)
                    members[w] = [w]
                    tree.append(w)
    finally:
        for x in tree:
            parent[x] = -1
            base[x] = x


def _common_base(a: int, b: int, match, parent, base) -> int:
    """The base of the first blossom on both tree paths from a and b to the root."""
    on_a = set()
    while True:
        a = base[a]
        on_a.add(a)
        if match[a] < 0:
            break
        a = parent[match[a]]
    while True:
        b = base[b]
        if b in on_a:
            return b
        b = parent[match[b]]


def _mark_blossom(v: int, b: int, child: int, match, parent, base, bases: set[int]) -> None:
    """Walk from v up to the blossom base b, collecting the bases passed in
    bases and linking the even vertices the walk meets back to child."""
    while base[v] != b:
        bases.add(base[v])
        bases.add(base[match[v]])
        parent[v] = child
        child = match[v]
        v = parent[match[v]]
