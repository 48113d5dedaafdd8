"""Exact solvers used as oracles and as the base case of the pipeline.

The solvers (opt_spanning_tree, hamiltonian_path_between, max_tfpcc_exact)
are exponential searches with pruning, guarded by the size caps OST_CAP,
HAM_CAP and TFPCC_CAP.  They break ties toward smaller vertex ids so
repeated runs return identical answers.  tree_result and internal_bound
take polynomial time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .errors import (
    DisconnectedInput,
    InternalInvariant,
    PreconditionViolated,
    SizeCapExceeded,
)
from .graph import Edge, Graph, find, norm_edge

OST_CAP = 12  # largest order opt_spanning_tree searches exactly
HAM_CAP = 10  # largest order hamiltonian_path_between searches
TFPCC_CAP = 16  # largest order max_tfpcc_exact searches


@dataclass(frozen=True)
class TreeResult:
    edges: tuple[Edge, ...]
    weight: int  # number of internal (degree >= 2) vertices
    leaves: tuple[int, ...]


def tree_result(g: Graph, edges) -> TreeResult:
    """The spanning tree of g with the given edges, checked.

    The edges must be n_alive - 1 edges of g, between ids 0..vertex_count-1,
    that close no cycle; such a set spans g's alive vertices.  The
    union-find and the degree count are lists indexed by vertex id.
    """
    n = g.n_alive()
    edges = sorted([(u, v) if u < v else (v, u) for u, v in edges])
    if len(edges) != n - 1:
        raise InternalInvariant(f"{len(edges)} edges for {n} vertices")
    adj = g.adj
    span = g.vertex_count
    deg = [0] * span
    parent = list(range(span))
    for u, v in edges:  # u <= v
        if u < 0 or v >= span:
            raise InternalInvariant(f"edge {u}-{v} leaves the vertex set")
        row = adj[u]
        i = bisect_left(row, v)
        if i == len(row) or row[i] != v:
            raise InternalInvariant(f"tree edge {u}-{v} is not a graph edge")
        deg[u] += 1
        deg[v] += 1
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            raise InternalInvariant("cycle in tree edges")
        parent[u] = v
    if n == 1:
        return TreeResult((), 0, tuple(g.alive_list()))
    # with two or more vertices every alive vertex has a tree edge, and
    # dead ones have none
    weight = span - deg.count(0) - deg.count(1)
    leaves = tuple(compress(range(span), map((1).__eq__, deg)))
    return TreeResult(tuple(edges), weight, leaves)


def internal_bound(g: Graph) -> int:
    """n - max(2, F), an upper bound on the internal vertices of any
    spanning tree of g, where F counts the vertices of degree <= 1: each
    is a leaf of every spanning tree, and a tree on n >= 3 vertices has at
    least two leaves.  0 when n <= 2.
    """
    n = g.n_alive()
    if n <= 2:
        return 0
    return n - max(2, sum(1 for v in g.alive_list() if g.degree(v) <= 1))


def opt_spanning_tree(g: Graph, floor: int = 0) -> TreeResult:
    """Spanning tree maximizing the number of internal vertices.

    Branch and bound over edges in sorted order: include (if acyclic)
    before exclude (if the rest still spans).  The available graph, the
    chosen plus the undecided edges, is connected at every node: it is at
    the root, an include leaves it unchanged, and an exclude is taken only
    when it stays connected.  So excluding (a, b) is allowed exactly when
    b is still reachable from a once (a, b) is gone, which a search over
    per-vertex neighbour bit masks answers.

    Every spanning tree has 2 + sum(deg - 2) leaves, the sum taken over
    its internal vertices, so a completion of the chosen edges has at
    least 2 + excess leaves, excess = sum(max(tdeg - 2, 0)) over the
    chosen tree degrees.  It also keeps as a leaf every vertex with at
    most one available edge.  A subtree is cut when n minus the larger of
    the two counts cannot exceed the best weight.  Since only a heavier
    tree, never an equal one, replaces the best one, the answer is the
    first optimum in include-first order, with or without the cuts.

    floor seeds the incumbent at floor - 1, so every subtree that cannot
    reach floor is cut.  Any floor <= opt returns the same tree; a floor
    above opt (or above internal_bound(g)) raises InternalInvariant.
    """
    verts = g.alive_list()
    n = len(verts)
    if n == 0:
        raise PreconditionViolated("empty graph")
    if n > OST_CAP:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {OST_CAP}")
    if not g.is_connected():
        raise DisconnectedInput("opt_spanning_tree needs a connected graph")
    # the search's root bound; unseeded calls (floor 0) cannot exceed it
    if floor > 0 and floor > internal_bound(g):
        raise InternalInvariant(f"floor {floor} above the leaf bound of g")
    if n == 1:
        return tree_result(g, ())
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in g.edge_list()]
    m = len(edges)
    parent = list(range(n))
    tdeg = [0] * n
    nbrs = [0] * n  # neighbour bit masks over the chosen and undecided edges
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    chosen: list[tuple[int, int]] = []
    best_w = floor - 1
    best_edges: list[tuple[int, int]] | None = None

    def reaches(a, b):
        seen = frontier = 1 << a
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= nbrs[low.bit_length() - 1]
                frontier ^= low
            if grown >> b & 1:
                return True
            frontier = grown & ~seen
            seen |= frontier
        return False

    def rec(k, internal, excess, forced):
        # internal, excess: over tdeg; forced: vertices with <= 1 neighbour
        nonlocal best_w, best_edges
        if len(chosen) == n - 1:
            if internal > best_w:
                best_w = internal
                best_edges = list(chosen)
            return
        if k == m or m - k < (n - 1) - len(chosen):
            return
        if n - max(forced, 2 + excess) <= best_w:
            return
        a, b = edges[k]
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
            tdeg[a] += 1
            tdeg[b] += 1
            da, db = tdeg[a], tdeg[b]
            chosen.append((a, b))
            rec(
                k + 1,
                internal + (da == 2) + (db == 2),
                excess + (da > 2) + (db > 2),
                forced,
            )
            chosen.pop()
            tdeg[a] -= 1
            tdeg[b] -= 1
            parent[ra] = ra
        nbrs[a] ^= 1 << b
        nbrs[b] ^= 1 << a
        if reaches(a, b):
            # both ends keep a neighbour, so one left means it just had two
            left = (nbrs[a].bit_count() == 1) + (nbrs[b].bit_count() == 1)
            rec(k + 1, internal, excess, forced + left)
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a

    rec(0, 0, 0, sum(1 for v in verts if g.degree(v) <= 1))
    if best_edges is None:
        raise InternalInvariant(f"no spanning tree with {floor} or more internal vertices")
    return tree_result(g, [(verts[a], verts[b]) for a, b in best_edges])


def hamiltonian_path_between(g: Graph, u: int, v: int) -> list[int] | None:
    """First Hamiltonian path from u to v in id order, or None."""
    n = g.n_alive()
    if n > HAM_CAP:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {HAM_CAP}")
    if u == v or not (g.is_alive(u) and g.is_alive(v)):
        raise PreconditionViolated(f"bad endpoints {u}, {v}")
    path = [u]
    seen = {u}

    def rec():
        if len(path) == n:
            return path[-1] == v
        cur = path[-1]
        for w in g.adj[cur]:
            if w in seen or (w == v and len(path) != n - 1):
                continue
            path.append(w)
            seen.add(w)
            if rec():
                return True
            path.pop()
            seen.remove(w)
        return False

    return list(path) if rec() else None


def max_tfpcc_exact(g: Graph, forced_leaves=()) -> list[Edge]:
    """Edges of a maximum triangle-free path-cycle cover, by branch and bound.

    forced_leaves lists vertices whose cover degree must stay at most 1.
    Components track their size through union-find, so an edge closing a
    cycle is allowed only when the component already has 4 vertices or
    more; all shorter cycles are rejected.  A subtree is cut when half
    the total room, min(degree limit - cover degree, undecided edges)
    summed over the vertices and kept up to date per edge, cannot beat the
    best cover.
    """
    verts = g.alive_list()
    n = len(verts)
    if n > TFPCC_CAP:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {TFPCC_CAP}")
    pos = {v: i for i, v in enumerate(verts)}
    for v in forced_leaves:
        if not g.is_alive(v):
            raise PreconditionViolated(f"forced leaf {v} is not alive")
    capv = [2] * n
    for v in forced_leaves:
        capv[pos[v]] = 1
    edges = [(pos[u], pos[v]) for u, v in g.edge_list()]
    m = len(edges)
    parent = list(range(n))
    size = [1] * n
    cdeg = [0] * n
    avail = [g.degree(v) for v in verts]
    chosen: list[tuple[int, int]] = []
    best = -1
    best_set: list[tuple[int, int]] = []

    def room(x):
        return min(capv[x] - cdeg[x], avail[x])

    def rec(k, cur, slack):
        # slack: the sum of room(x) over every vertex
        nonlocal best, best_set
        if cur > best:
            best = cur
            best_set = list(chosen)
        if k == m:
            return
        if cur + slack // 2 <= best:
            return
        a, b = edges[k]
        slack -= room(a) + room(b)
        avail[a] -= 1
        avail[b] -= 1
        slack += room(a) + room(b)
        if cdeg[a] < capv[a] and cdeg[b] < capv[b]:
            ra, rb = find(parent, a), find(parent, b)
            if ra != rb or size[ra] >= 4:
                merged = ra != rb
                if merged:
                    if size[ra] > size[rb]:
                        ra, rb = rb, ra
                    parent[ra] = rb
                    size[rb] += size[ra]
                before = room(a) + room(b)
                cdeg[a] += 1
                cdeg[b] += 1
                chosen.append((a, b))
                rec(k + 1, cur + 1, slack + room(a) + room(b) - before)
                chosen.pop()
                cdeg[a] -= 1
                cdeg[b] -= 1
                if merged:
                    parent[ra] = ra
                    size[rb] -= size[ra]
        rec(k + 1, cur, slack)
        avail[a] += 1
        avail[b] += 1

    rec(0, 0, sum(room(x) for x in range(n)))
    return [norm_edge(verts[a], verts[b]) for a, b in best_set]
