"""Exact solvers used as oracles and as the base case of the pipeline.

The searches opt_spanning_tree and hamiltonian_path_between are
exponential, with pruning, and refuse graphs above the size caps OST_CAP
and HAM_CAP.  They break ties toward smaller vertex ids so repeated runs
return identical answers.  opt_spanning_tree skips what a certificate
settles: a tree input is its own answer, the search stops once its best
tree meets internal_bound, and its floor, the least weight wanted, cuts
every subtree below it, so a proof that no tree beats a known weight w
searches only for heavier trees.  spanning_fault, tree_result and the
upper bounds internal_bound and cut_bound take polynomial time.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import NamedTuple

from .errors import (
    DisconnectedInput,
    InternalInvariant,
    PreconditionViolated,
    SizeCapExceeded,
)
from .graph import Edge, Graph, separations

OST_CAP = 12  # largest order opt_spanning_tree searches exactly
HAM_CAP = 10  # largest order hamiltonian_path_between searches


class TreeResult(NamedTuple):
    edges: tuple[Edge, ...]
    weight: int  # number of internal (degree >= 2) vertices
    leaves: tuple[int, ...]


def spanning_fault(g: Graph, edges) -> str | None:
    """Why edges are not a spanning tree of g, or None when they are.

    They must be n_alive - 1 edges of g, between ids 0..vertex_count-1,
    that close no cycle; such a set spans g's alive vertices.  The first
    fault in their order is told.  Its row search and root walks are
    written out: they run per tree edge on every lift and verified run.
    """
    n = g.n_alive()
    if len(edges) != n - 1:
        return f"{len(edges)} edges for {n} vertices"
    adj, span = g.adj, g.vertex_count
    parent = list(range(span))
    for u, v in edges:
        if not (0 <= u < span and 0 <= v < span):
            return f"edge {min(u, v)}-{max(u, v)} leaves the vertex set"
        row = adj[u]
        i = bisect_left(row, v)
        if i == len(row) or row[i] != v:
            return f"tree edge {min(u, v)}-{max(u, v)} is not a graph edge"
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return "cycle in tree edges"
        parent[u] = v
    return None


def tree_result(g: Graph, edges) -> TreeResult:
    """The spanning tree of g with the given edges, each written smaller id
    first, sorted and checked by spanning_fault.
    """
    edges = sorted([(u, v) if u < v else (v, u) for u, v in edges])
    if fault := spanning_fault(g, edges):
        raise InternalInvariant(fault)
    if not edges:
        return TreeResult((), 0, tuple(g.alive_list()))
    # with two or more vertices every alive vertex has a tree edge
    deg = [0] * g.vertex_count
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    leaves = tuple([v for v, d in enumerate(deg) if d == 1])
    return TreeResult(tuple(edges), len(edges) + 1 - len(leaves), leaves)


def internal_bound(g: Graph) -> int:
    """n - max(2, F), an upper bound on the internal vertices of any
    spanning tree of g, where F counts the vertices of degree <= 1: each
    is a leaf of every spanning tree, and a tree on n >= 3 vertices has at
    least two leaves.  0 when n <= 2.  F is counted from the rows, a dead
    vertex's row being empty.
    """
    n = g.n_alive()
    if n <= 2:
        return 0
    return n - max(2, sum(len(row) < 2 for row in g.adj) - (g.vertex_count - n))


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
    gone.  It is not when a or b has no other available neighbour, as
    (a, b) is then a bridge; it is when a and b share one; otherwise a
    search over the masks answers, stopping at b.  The forest of chosen
    edges is the search's own union-find, its root walks written out: the
    search undoes each union on backtrack, and the chosen edges are marked
    in a list of flags, copied only when they make a heavier tree.

    Every spanning tree has 2 + sum(deg - 2) leaves, the sum taken over
    its internal vertices, so a completion of the chosen edges has at
    least 2 + excess leaves, excess = sum(max(tdeg - 2, 0)) over the
    chosen tree degrees.  It also keeps as a leaf every vertex with at
    most one available edge.  A subtree is cut when n minus the larger of
    the two counts cannot exceed the best weight, or when fewer undecided
    edges are left than edges still to choose.  Both cuts are tested
    before descending, on either branch, so a cut child costs no call, and
    the include that completes a tree is scored where it is made.  Since
    only a heavier tree, never an equal one, replaces the best one, the
    answer is the first optimum in include-first order, with or without
    the cuts; and once the best weight meets internal_bound(g) no heavier
    tree exists, so the search stops there.

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
    rank = {v: i for i, v in enumerate(verts)}
    nbrs = []
    ea: list[int] = []  # the edges in sorted order, as two rank arrays
    eb: list[int] = []
    for a, v in enumerate(verts):
        x = 0
        for w in adj[v]:
            b = rank[w]
            x |= 1 << b
            if b > a:
                ea.append(a)
                eb.append(b)
        nbrs.append(x)
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
    forced = [x & (x - 1) for x in nbrs].count(0)
    top = n - max(2, forced)
    if floor > top:
        return None
    m = len(ea)
    parent = list(range(n))
    tdeg = [0] * n
    chosen = [False] * m
    best_w = (floor or _greedy_weight(nbrs)) - 1
    best_edges: list[int] | None = None

    def rec(k, need, internal, excess, forced):
        # decide edge k; need: edges still to choose, at least one and at
        # most m - k; internal, excess: over tdeg; forced: vertices with
        # <= 1 neighbour.  The caller saw n - max(forced, 2 + excess) beat
        # best_w, so an include child, with the same forced, tests only its
        # own excess.
        nonlocal best_w, best_edges
        a, b = ea[k], eb[k]
        ra, rb = a, b
        while parent[ra] != ra:
            ra = parent[ra]
        while parent[rb] != rb:
            rb = parent[rb]
        if ra != rb:
            tdeg[a] += 1
            tdeg[b] += 1
            da, db = tdeg[a], tdeg[b]
            inner = internal + (da == 2) + (db == 2)
            over = excess + (da > 2) + (db > 2)
            if need == 1:
                if inner > best_w:
                    best_w = inner
                    best_edges = [*compress(range(k), chosen), k]
            elif n - 2 - over > best_w:
                parent[ra] = rb
                chosen[k] = True
                rec(k + 1, need - 1, inner, over, forced)
                chosen[k] = False
                parent[ra] = ra
            tdeg[a] -= 1
            tdeg[b] -= 1
            if best_w == top:
                return
        if m - k <= need:
            return  # too few edges would be left
        bit_a, bit_b = 1 << a, 1 << b
        na = nbrs[a] ^ bit_b
        nb = nbrs[b] ^ bit_a
        if not na or not nb:
            return  # ab is a bridge: an end has no other neighbour
        # both ends keep a neighbour, so one left means it just had two
        left = (na & (na - 1) == 0) + (nb & (nb - 1) == 0)
        if n - forced - left <= best_w or n - 2 - excess <= best_w:
            return
        nbrs[a], nbrs[b] = na, nb
        if na & nb:  # a common neighbour still joins the ends
            rec(k + 1, need, internal, excess, forced + left)
        else:
            # is b still reachable from a?  stop as soon as it is
            seen = frontier = bit_a
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = nbrs[low.bit_length() - 1] & ~seen
                if grown & bit_b:
                    rec(k + 1, need, internal, excess, forced + left)
                    break
                seen |= grown
                frontier |= grown
        nbrs[a] = na | bit_b
        nbrs[b] = nb | bit_a

    rec(0, n - 1, 0, 0, forced)
    del rec  # its own cell holds it: emptying the cell frees the search state now
    if best_edges is None:
        return None
    return tree_result(g, [(verts[ea[i]], verts[eb[i]]) for i in best_edges])


def _greedy_weight(nbrs: list[int]) -> int:
    """Internal vertices of a greedy depth-first spanning tree of the
    connected graph with neighbour bit masks nbrs.

    The tree starts at a vertex of lowest degree and always steps to the
    unvisited neighbour with the fewest unvisited neighbours, the lowest
    index on ties, so it tends to a long path with few leaves.
    """
    counts = [x.bit_count() for x in nbrs]
    start = counts.index(min(counts))
    free = ((1 << len(nbrs)) - 1) ^ (1 << start)
    parents = kids = 0  # the vertices given a child, and start's children
    path = [x := start]
    while free:  # once every vertex is on the tree, backing up adds nothing
        step = nbrs[x] & free
        if not step:
            path.pop()
            x = path[-1]
            continue
        fewest = len(nbrs)
        while step:
            low = step & -step
            step ^= low
            k = (nbrs[low.bit_length() - 1] & free).bit_count()
            if k < fewest:
                best, fewest = low, k
        free ^= best
        parents |= 1 << x
        kids += x == start
        path.append(x := best.bit_length() - 1)
    # a vertex other than start is internal when it has a child, start when it has two
    return (parents & ~(1 << start)).bit_count() + (kids > 1)


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
