"""Exact solvers used as oracles and as the base case of the pipeline.

The searches opt_spanning_tree and hamiltonian_path_between are
exponential, with pruning, and refuse graphs above the size caps OST_CAP
and HAM_CAP.  They break ties toward smaller vertex ids so repeated runs
return identical answers.  opt_spanning_tree skips what a certificate
settles: a tree input is its own answer, the search stops once its best
tree meets internal_bound, and its floor, the least weight wanted, cuts
every subtree below it, so a proof that no tree beats a known weight w
searches only for heavier trees.  max_tfpcc, the one maximum-cover
solver, has no size cap: it solves at most TFPCC_RESOLVES 2-matchings,
each in polynomial time.  tree_result and the upper bounds internal_bound
and cut_bound take polynomial time too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import NamedTuple

from .errors import (
    DisconnectedInput,
    InternalInvariant,
    NonTermination,
    PreconditionViolated,
    SizeCapExceeded,
)
from .graph import Edge, Graph, norm_edge, separations

OST_CAP = 12  # largest order opt_spanning_tree searches exactly
HAM_CAP = 10  # largest order hamiltonian_path_between searches
TFPCC_RESOLVES = 200  # 2-matchings max_tfpcc may solve before giving up


class TreeResult(NamedTuple):
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
    # with two or more vertices every alive vertex has a tree edge
    leaves = tuple([v for v, d in enumerate(deg) if d == 1])
    return TreeResult(tuple(edges), n - len(leaves), leaves)


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


def cut_bound(g: Graph) -> int:
    """n - 2 - sum(max(0, c(g - v) - 2)) over the vertices v of a connected
    g, an upper bound on the internal vertices of any spanning tree of g.

    A spanning tree T has 2 + sum(deg_T(v) - 2) leaves, the sum taken over
    its internal vertices, and deg_T(v) >= c(g - v), the number of
    components of g - v, since T - v has at least as many.  c is read from
    separations(g).pieces.  0 when n <= 2.
    """
    pieces = separations(g).pieces.values()
    return max(0, g.n_alive() - 2 - sum(c - 2 for c in pieces if c > 2))


def opt_spanning_tree(g: Graph, floor: int = 0) -> TreeResult | None:
    """Spanning tree maximizing the number of internal vertices, or None
    when no spanning tree has floor or more.

    A g with n - 1 edges goes to tree_result before anything else is
    built: it is its own only spanning tree, returned as it is, unless its
    edges close a cycle, which n - 1 edges do exactly when g is
    disconnected.  Otherwise the search runs on per-vertex neighbour bit
    masks over the alive ranks, built from g's rows; they also answer
    connectivity, count the vertices of degree <= 1 and give the root
    bound internal_bound(g).  It is a branch and bound over edges in sorted
    order: include (if acyclic) before exclude (if the rest still spans).
    The available graph, the chosen plus the undecided edges, is connected
    at every node: it is at the root, an include leaves it unchanged, and
    an exclude is taken only when it stays connected.  So excluding (a, b)
    is allowed exactly when b is still reachable from a once (a, b) is
    gone, which a search over the masks answers, stopping at b.

    Every spanning tree has 2 + sum(deg - 2) leaves, the sum taken over
    its internal vertices, so a completion of the chosen edges has at
    least 2 + excess leaves, excess = sum(max(tdeg - 2, 0)) over the
    chosen tree degrees.  It also keeps as a leaf every vertex with at
    most one available edge.  A subtree is cut when n minus the larger of
    the two counts cannot exceed the best weight.  Since only a heavier
    tree, never an equal one, replaces the best one, the answer is the
    first optimum in include-first order, with or without the cuts; and
    once the best weight meets internal_bound(g) no heavier tree exists,
    so the search stops there.

    floor is the least weight wanted: it seeds the incumbent at floor - 1,
    so every subtree that cannot reach floor is cut.  Any floor <= opt
    returns the same tree, and a floor above opt returns None.  Without a
    floor, the weight of a greedy depth-first tree (_greedy_weight), which
    is at most opt, seeds it.
    """
    verts = g.alive_list()
    n = len(verts)
    if n == 0:
        raise PreconditionViolated("empty graph")
    if n > OST_CAP:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {OST_CAP}")
    if g.edge_count() == n - 1:
        try:
            t = tree_result(g, g.edge_list())
        except InternalInvariant:  # a cycle: the only error n - 1 graph edges can raise
            raise DisconnectedInput("opt_spanning_tree needs a connected graph") from None
        return t if t.weight >= floor else None
    adj = g.adj
    bit = {v: 1 << i for i, v in enumerate(verts)}
    nbrs = [sum(map(bit.__getitem__, adj[v])) for v in verts]
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = nbrs[low.bit_length() - 1] & ~seen
        seen |= grown
        frontier |= grown
    if seen != (1 << n) - 1:
        raise DisconnectedInput("opt_spanning_tree needs a connected graph")
    # the root bound, internal_bound(g): masks of at most one bit are the
    # vertices of degree <= 1, and n >= 3 as g is connected and no tree
    forced = sum(x & (x - 1) == 0 for x in nbrs)
    top = n - max(2, forced)
    if floor > top:
        return None
    edges = [(a, b) for a, x in enumerate(nbrs) for b in range(a + 1, n) if x >> b & 1]
    m = len(edges)
    parent = list(range(n))
    tdeg = [0] * n
    chosen: list[tuple[int, int]] = []
    best_w = (floor or _greedy_weight(nbrs)) - 1
    best_edges: list[tuple[int, int]] | None = None

    def rec(k, need, internal, excess, forced):
        # need: edges still to choose; internal, excess: over tdeg;
        # forced: vertices with <= 1 neighbour
        nonlocal best_w, best_edges
        if not need:
            if internal > best_w:
                best_w = internal
                best_edges = list(chosen)
            return
        if m - k < need:
            return
        if n - max(forced, 2 + excess) <= best_w:
            return
        a, b = edges[k]
        ra, rb = a, b
        while parent[ra] != ra:
            ra = parent[ra]
        while parent[rb] != rb:
            rb = parent[rb]
        if ra != rb:
            parent[ra] = rb
            tdeg[a] += 1
            tdeg[b] += 1
            da, db = tdeg[a], tdeg[b]
            chosen.append((a, b))
            rec(
                k + 1,
                need - 1,
                internal + (da == 2) + (db == 2),
                excess + (da > 2) + (db > 2),
                forced,
            )
            chosen.pop()
            tdeg[a] -= 1
            tdeg[b] -= 1
            parent[ra] = ra
            if best_w == top:
                return
        bit_a, bit_b = 1 << a, 1 << b
        nbrs[a] ^= bit_b
        nbrs[b] ^= bit_a
        # is b still reachable from a?  stop as soon as it is
        seen = frontier = bit_a
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = nbrs[low.bit_length() - 1] & ~seen
            if grown & bit_b:
                # both ends keep a neighbour, so one left means it just had two
                left = (nbrs[a].bit_count() == 1) + (nbrs[b].bit_count() == 1)
                rec(k + 1, need, internal, excess, forced + left)
                break
            seen |= grown
            frontier |= grown
        nbrs[a] |= bit_b
        nbrs[b] |= bit_a

    rec(0, n - 1, 0, 0, forced)
    del rec  # its own cell holds it: emptying the cell frees the search state now
    if best_edges is None:
        return None
    return tree_result(g, [(verts[a], verts[b]) for a, b in best_edges])


def _greedy_weight(nbrs: list[int]) -> int:
    """Internal vertices of a greedy depth-first spanning tree of the
    connected graph with neighbour bit masks nbrs.

    The tree starts at a vertex of lowest degree and always steps to the
    unvisited neighbour with the fewest unvisited neighbours, the lowest
    index on ties, so it tends to a long path with few leaves.
    """
    start = min(range(len(nbrs)), key=lambda x: nbrs[x].bit_count())
    free = ((1 << len(nbrs)) - 1) ^ (1 << start)
    tdeg = [0] * len(nbrs)
    path = [start]
    while path:
        x = path[-1]
        step = nbrs[x] & free
        if not step:
            path.pop()
            continue
        best, fewest = -1, len(nbrs)
        while step:
            low = step & -step
            step ^= low
            y = low.bit_length() - 1
            k = (nbrs[y] & free).bit_count()
            if k < fewest:
                best, fewest = y, k
        free ^= 1 << best
        tdeg[x] += 1
        tdeg[best] += 1
        path.append(best)
    return len(nbrs) - tdeg.count(1)


def hamiltonian_path_between(g: Graph, u: int, v: int, within=None) -> list[int] | None:
    """First Hamiltonian path from u to v in id order, or None.

    within, a set of alive vertices holding u and v, limits the search to
    the subgraph g induces on it: the path found is that subgraph's first,
    read from g's own rows.
    """
    free = set(g.alive_list() if within is None else within)  # off the path
    n = len(free)
    if n > HAM_CAP:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {HAM_CAP}")
    if u == v or not (g.is_alive(u) and g.is_alive(v) and u in free and v in free):
        raise PreconditionViolated(f"bad endpoints {u}, {v}")
    # depth first, with one neighbour iterator per path vertex; v is taken
    # exactly when it completes the path
    path = [u]
    free.discard(u)
    nexts = [iter(g.adj[u])]
    while nexts:
        for w in nexts[-1]:
            if w in free and (w == v) == (len(path) == n - 1):
                path.append(w)
                if w == v:
                    return path
                free.discard(w)
                nexts.append(iter(g.adj[w]))
                break
        else:
            nexts.pop()
            free.add(path.pop())
    return None


def max_tfpcc(g: Graph, forced_leaves=()) -> list[Edge]:
    """Edges of a maximum triangle-free path-cycle cover, ascending.

    forced_leaves lists vertices whose cover degree must stay at most 1.
    A maximum simple 2-matching with those degree caps (_two_matching) has
    size U >= every such cover.  Every cover misses an edge of each
    triangle, so a depth-first search that bans one edge of the first
    triangle of each 2-matching it meets, and prunes every 2-matching
    smaller than a target, finds a triangle-free one of the target size
    exactly when a cover of that size exists.  The target starts at U and
    drops by one whenever a search ends empty.  Solving more than
    TFPCC_RESOLVES 2-matchings raises NonTermination.
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
            tri = _first_triangle(edges)
            if tri is None:
                return edges
            bans.extend(banned | {e} for e in reversed(tri))
        target -= 1


def _first_triangle(edges: list[Edge]) -> list[Edge] | None:
    """The edges of the triangle through the first edge on one, or None."""
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    for u, v in edges:
        for w in nbrs[u]:
            if w != v and w in nbrs[v]:
                return sorted((norm_edge(u, w), (u, v), norm_edge(v, w)))
    return None


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
    then leaves no augmenting path (_augment).
    """
    n = len(adj)
    copy = list(accumulate(cap, initial=0))
    ncopies = copy[-1]
    half = list(accumulate(map(len, adj), initial=ncopies))
    match = [-1] * half[-1]
    room = list(cap)
    order = sorted(
        (len(adj[v]) + len(adj[w]), v, w)
        for v in range(n)
        for w in adj[v]
        if v < w and (v, w) not in banned
    )
    for _, v, w in order:
        if room[v] and room[w]:
            room[v] -= 1
            room[w] -= 1
            for a, b in ((v, w), (w, v)):
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
    base.  parent and base are -1 and the identity outside the search, and
    only the entries of the vertices the tree reached are reset.
    """
    tree = [root]  # every vertex whose parent or base the search may set
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
                    for x in tree:
                        if base[x] in bases:
                            base[x] = b
                            if x not in even:
                                even.add(x)
                                queue.append(x)
                elif parent[to] < 0:
                    parent[to] = v
                    tree.append(to)
                    if match[to] < 0:
                        while to >= 0:
                            v = parent[to]
                            after = match[v]
                            match[to], match[v] = v, to
                            to = after
                        return
                    even.add(match[to])
                    queue.append(match[to])
                    tree.append(match[to])
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
