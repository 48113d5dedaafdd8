"""Undirected simple graphs over dense integer ids.

Vertices are integers 0..vertex_count-1 with an alive mask, so deletions
keep the ids of the survivors stable and edge witnesses stay valid across
reduction steps.  Adjacency lists are kept sorted; every traversal below
visits vertices and edges in ascending order, which makes the whole
package deterministic.  A graph counts its alive vertices and its edges as
it changes, so n_alive and edge_count take constant time.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import compress
from typing import NamedTuple

from .errors import InternalInvariant

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Return the edge as a (min, max) tuple."""
    return (u, v) if u < v else (v, u)


class Graph:
    __slots__ = ("vertex_count", "alive", "adj", "_order", "_size")

    def __init__(self, vertex_count: int, edges: list[Edge] | tuple = ()):
        """The graph on vertex_count vertices with the given edges.

        Each row is filled, then sorted once.
        """
        if vertex_count < 0:
            raise InternalInvariant("negative vertex count")
        self.vertex_count = vertex_count
        self.alive = [True] * vertex_count
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        self.adj = adj
        for u, v in edges:
            if u == v:
                raise InternalInvariant(f"self loop at {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InternalInvariant(f"edge {u}-{v} outside 0..{vertex_count - 1}")
            adj[u].append(v)
            adj[v].append(u)
        for u, row in enumerate(adj):
            row.sort()
            if len(set(row)) < len(row):
                v = next(b for a, b in zip(row, row[1:]) if a == b)
                raise InternalInvariant(f"duplicate edge {u}-{v}")
        self._order = vertex_count  # alive vertices
        self._size = sum(map(len, adj)) // 2  # edges

    @classmethod
    def from_rows(cls, adj: list[list[int]], size: int) -> Graph:
        """The graph with the rows adj, every vertex alive, and size edges.

        The caller keeps the rows sorted and symmetric, with no repeats.
        """
        g = object.__new__(cls)
        g.write_rows(adj, [True] * len(adj), (len(adj), size))
        return g

    # -- basic queries ------------------------------------------------

    def is_alive(self, v: int) -> bool:
        return 0 <= v < self.vertex_count and self.alive[v]

    def alive_list(self) -> list[int]:
        return list(compress(range(self.vertex_count), self.alive))

    def n_alive(self) -> int:
        return self._order

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edge_list(self) -> list[Edge]:
        out = []
        for u in range(self.vertex_count):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return self._size

    # -- mutation ------------------------------------------------------

    def revive(self, v: int) -> None:
        """Make the dead vertex v alive again, without edges."""
        revive_in(self.adj, self.alive, v)
        self._order += 1

    def add_edge(self, u: int, v: int) -> None:
        add_edge_in(self.adj, self.alive, u, v)
        self._size += 1

    def remove_edge(self, u: int, v: int) -> None:
        remove_edge_in(self.adj, u, v)
        self._size -= 1

    def remove_vertex(self, v: int) -> None:
        if not self.is_alive(v):
            raise InternalInvariant(f"vertex {v} already dead")
        for u in list(self.adj[v]):
            self.remove_edge(u, v)
        self.alive[v] = False
        self._order -= 1

    def write_rows(
        self, adj: list[list[int]], alive: list[bool], counts: tuple[int, int] | None = None
    ) -> None:
        """Take adj and alive as the graph's rows and alive mask.

        This ends a run of edits made on the bare lists, the graph's own or
        new ones: the caller keeps the rows sorted and symmetric.  The alive
        and edge counts are recounted, unless the caller kept them as it
        edited and passes them as counts.
        """
        if len(adj) != len(alive):
            raise InternalInvariant(f"{len(adj)} rows for {len(alive)} vertices")
        if counts is None:
            ends = sum(map(len, adj))
            if ends % 2:
                raise InternalInvariant("rows written do not pair up")
            counts = sum(alive), ends // 2
        self.vertex_count = len(adj)
        self.adj, self.alive = adj, alive
        self._order, self._size = counts

    def copy(self) -> Graph:
        g = object.__new__(type(self))  # a subclass's copy adds its own fields
        g.vertex_count = self.vertex_count
        g.alive = list(self.alive)
        g.adj = list(map(list, self.adj))
        g._order = self._order
        g._size = self._size
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.alive_list() == other.alive_list()
            and self.edge_list() == other.edge_list()
        )

    def __repr__(self):
        return f"Graph(alive={self.alive_list()}, edges={self.edge_list()})"

    # -- connectivity --------------------------------------------------

    def is_connected(self) -> bool:
        verts = self.alive_list()
        if len(verts) <= 1:
            return True
        return len(component_of(self, verts[0])) == len(verts)


# The checked edits below work on bare rows and an alive mask, so a run of
# them can skip the counts and end with Graph.write_rows; Graph's methods
# of the same names make them on its own.


def add_edge_in(adj: list[list[int]], alive: list[bool], u: int, v: int) -> None:
    if u == v:
        raise InternalInvariant(f"self loop at {u}")
    n = len(alive)
    if not (0 <= u < n and alive[u] and 0 <= v < n and alive[v]):
        raise InternalInvariant(f"edge {u}-{v} touches a dead vertex")
    row = adj[u]
    i = bisect_left(row, v)
    if i < len(row) and row[i] == v:
        raise InternalInvariant(f"duplicate edge {u}-{v}")
    row.insert(i, v)
    insort(adj[v], u)


def remove_edge_in(adj: list[list[int]], u: int, v: int) -> None:
    row = adj[u]
    i = bisect_left(row, v)
    if i == len(row) or row[i] != v:
        raise InternalInvariant(f"missing edge {u}-{v}")
    del row[i]
    adj[v].remove(u)


def revive_in(adj: list[list[int]], alive: list[bool], v: int) -> None:
    if alive[v] or adj[v]:
        raise InternalInvariant(f"vertex {v} is not dead and bare")
    alive[v] = True


def component_of(g: Graph, start: int, blocked: frozenset[int] = frozenset()) -> list[int]:
    """Sorted vertex list of the component containing start, avoiding blocked vertices."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if v not in seen and v not in blocked:
                seen.add(v)
                stack.append(v)
    return sorted(seen)


def connected_components(g: Graph, blocked: frozenset[int] = frozenset()) -> list[list[int]]:
    """Components of g minus the blocked vertices (ids of g), ordered by
    smallest member, each sorted once it is complete."""
    reached = [not a for a in g.alive]  # dead and blocked vertices count as reached
    for v in blocked:
        reached[v] = True
    out = []
    for v, done in enumerate(reached):
        if not done:
            reached[v] = True
            comp = [v]
            for u in comp:  # grows as the search does
                for w in g.adj[u]:
                    if not reached[w]:
                        reached[w] = True
                        comp.append(w)
            comp.sort()
            out.append(comp)
    return out


class TwinGroups:
    """twin_groups(g), grouped when first iterated.  Valid while g is unchanged."""

    __slots__ = ("_g", "_groups")

    def __init__(self, g: Graph):
        self._g = g
        self._groups: list[tuple[Edge, list[int]]] | None = None

    def __iter__(self):
        if self._groups is None:
            self._groups = twin_groups(self._g)
        return iter(self._groups)


class Separations(NamedTuple):
    """What separations(g) finds.  pieces' keys ascend, which the finders
    read in order; reduce.carry_separations edits the bridge set and the
    piece dict in place for a step's child and binds new twins to it."""

    bridges: set[Edge]
    pieces: dict[int, int]  # pieces[v]: number of components of g - v
    parts: int  # number of components of g
    twins: TwinGroups  # twin_groups(g), grouped when first iterated


def separations(g: Graph) -> Separations:
    """Bridges and, for every vertex v, the component count of g - v.

    One iterative Hopcroft-Tarjan lowpoint traversal.  Removing v cuts off
    each DFS child c with low[c] >= disc[v], whose subtree is then a
    component of its own; the rest of v's component is one more piece
    unless v is the root of its DFS tree.  The twin groups come along
    unbuilt, so the finders that read them share one grouping per graph.
    """
    disc = [-1] * g.vertex_count
    low = [0] * g.vertex_count
    cuts = [0] * g.vertex_count  # children cut off, -1 extra at each root
    bridges: set[Edge] = set()
    parts = count = 0
    for root in g.alive_list():
        if disc[root] >= 0:
            continue
        parts += 1
        cuts[root] = -1
        disc[root] = low[root] = count
        count += 1
        # stack holds (vertex, parent, iterator over the vertex's neighbours)
        stack = [(root, -1, iter(g.adj[root]))]
        while stack:
            u, parent, nbrs = stack[-1]
            for v in nbrs:
                if v == parent:
                    # one parent occurrence is skipped; multigraphs never arise
                    continue
                if disc[v] < 0:
                    disc[v] = low[v] = count
                    count += 1
                    stack.append((v, u, iter(g.adj[v])))
                    break
                if disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if parent == -1:
                    continue
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] >= disc[parent]:
                    cuts[parent] += 1
                    if low[u] > disc[parent]:
                        bridges.add(norm_edge(parent, u))
    pieces = {v: parts + cuts[v] for v in g.alive_list()}
    return Separations(bridges, pieces, parts, TwinGroups(g))


def find_bridges(g: Graph) -> set[Edge]:
    """All bridge edges."""
    return separations(g).bridges


def find_cutpoints(g: Graph) -> list[int]:
    """Sorted list of cut vertices: those whose removal adds a component."""
    sep = separations(g)
    return [v for v in g.alive_list() if sep.pieces[v] > sep.parts]


def find(parent: list[int] | dict[int, int], x: int) -> int:
    """Root of x in a union-find forest given by parent pointers, a list or
    a dict; there is no path compression, so a walk leaves the forest as it is.
    """
    while parent[x] != x:
        x = parent[x]
    return x


def twin_groups(g: Graph) -> list[tuple[Edge, list[int]]]:
    """Degree-2 vertices with the same two neighbours, in groups of two or
    more, sorted by neighbourhood.

    A dead vertex's row is empty, so the rows alone give the groups.
    """
    groups: dict[Edge, list[int]] = {}
    for v, row in enumerate(g.adj):
        if len(row) == 2:
            groups.setdefault(tuple(row), []).append(v)
    return sorted([item for item in groups.items() if len(item[1]) > 1])


def has_short_cycle(g: Graph, limit: int) -> bool:
    """Whether g, connected, has a cycle of at most limit edges.

    A breadth-first search to depth limit // 2 from a vertex r of a
    shortest cycle C meets an edge that closes a cycle of at most len(C)
    edges: C's vertices lie as far from r in g as along C, else a shortcut
    would close a shorter cycle, so the edge opposite r on C, or one of the
    two at its opposite vertex, joins no vertex to its parent.  Every edge
    met that does so closes a cycle within the two tree paths from r to its
    ends (Itai and Rodeh, "Finding a minimum circuit in a graph", SIAM J.
    Comput. 1978).  A cycle through no vertex of degree 3 or more is a
    whole component, so the searches start at those vertices only, and g
    without one is a path or a cycle.
    """
    if g.edge_count() < g.n_alive():
        return False  # a tree
    adj = g.adj
    reach = limit // 2
    searched = False
    for r, row in enumerate(adj):
        if len(row) < 3:
            continue
        searched = True
        parent = dict.fromkeys(row, r)
        parent[r] = r
        level = row
        # scanning depth d closes cycles of at most 2 * d + 2 edges
        for _ in range(reach - 1):
            nxt = []
            for x in level:
                p = parent[x]
                for y in adj[x]:
                    if y not in parent:
                        parent[y] = x
                        nxt.append(y)
                    elif y != p:
                        return True
            level = nxt
        if limit % 2:  # an edge within depth reach closes 2 * reach + 1
            last = set(level)
            if any(y in last for x in level for y in adj[x]):
                return True
    return not searched and g.n_alive() <= limit
