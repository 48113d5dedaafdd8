"""Path-cycle covers and degree-2 twin pairs.

A Cover is a spanning subgraph of a host graph.  During the approximation
stages its components start as paths and cycles (a triangle-free path-cycle
cover) and later grow into trees, so the component classifier below knows
all three shapes.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInvariant, PreconditionViolated
from .exact import max_tfpcc
from .graph import Edge, Graph, connected_components, norm_edge, twin_groups


class Cover(Graph):
    """Spanning subgraph of a host graph, over the host's vertex ids.

    components() and index() are kept until the next edit; a copy shares them.
    """

    __slots__ = ("graph", "_comps", "_index")

    def __init__(self, graph: Graph, edges=()):
        super().__init__(graph.vertex_count)
        self.alive = list(graph.alive)
        self._order = graph.n_alive()
        self.graph = graph
        self._comps = self._index = None
        for u, v in edges:
            self.add_edge(u, v)

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
        c = Cover(self.graph)
        c.adj = [list(row) for row in self.adj]
        c._size = self._size
        c._comps, c._index = self._comps, self._index
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
        inside = set(comp)
        edges = tuple(
            (u, v) for u in vertices for v in self.adj[u] if u < v and v in inside
        )
        nv, ne = len(vertices), len(edges)
        degs = [len(self.adj[v]) for v in vertices]
        if ne == nv and all(d == 2 for d in degs):
            kind = "cycle"
            order = self._cycle_order(vertices[0])
        elif ne == nv - 1:
            kind = "path" if all(d <= 2 for d in degs) else "tree"
            order = self._path_order(vertices) if kind == "path" else ()
        else:
            raise InternalInvariant(
                f"component {vertices} has {ne} edges; not a path, cycle or tree"
            )
        leaves = tuple(v for v, d in zip(vertices, degs) if d <= 1)
        internal = tuple(v for v, d in zip(vertices, degs) if d >= 2)
        return CoverComponent(vertices, edges, kind, order, leaves, internal)

    def _cycle_order(self, start: int) -> tuple[int, ...]:
        order = [start, self.adj[start][0]]
        while True:
            nbrs = self.adj[order[-1]]
            nxt = nbrs[0] if nbrs[0] != order[-2] else nbrs[1]
            if nxt == start:
                return tuple(order)
            order.append(nxt)

    def _path_order(self, vertices: tuple[int, ...]) -> tuple[int, ...]:
        ends = [v for v in vertices if len(self.adj[v]) <= 1]
        order = [ends[0]]
        while len(order) < len(vertices):
            nbrs = self.adj[order[-1]]
            prev = order[-2] if len(order) >= 2 else -1
            order.append(nbrs[0] if nbrs[0] != prev else nbrs[1])
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
    for v in cover.alive_list():
        if cover.degree(v) > 2:
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
    for key, twins in twin_groups(g):
        if len(twins) < 2:
            continue
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
    cover = Cover(g, max_tfpcc(g, forced_leaves=[p.u1 for p in pairs]))
    if not is_special(cover, pairs):
        raise InternalInvariant("solver returned a non-special cover")
    return cover
