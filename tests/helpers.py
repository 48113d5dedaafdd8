"""Naive reference implementations the tests compare against.

Everything here trades speed for obviousness: removal-and-recount for
bridges and cut-points, raw enumeration for optima, the all-pairs scan
for op10.  None of it shares code with the library beyond the Graph and
StrongReduction containers and norm_edge, so a bug cannot hide on both
sides at once.  The exceptions are replay, which rebuilds the graphs a
reduction trace does not keep by applying its steps forward; the
augmented-pendant route to a preferred cover, which checks the library's
forced-leaf route against the library's unconstrained cover search; and
the per-edit op4 and op11 loops, which apply and undo a run one checked
Graph edit at a time, as the reference for the engine's one-write sweeps;
and the op4 and op11 finders written the plain way, as the reference for
the engine's compact op4 records and walked op11 runs: op4 builds every
peel as a Peel (the first and the last through the library's _peel) from
the components of g - v for every v, and op11 re-derives each contraction
from the set of vertices merged so far and each run on the graph the runs
before it left; and the op4 and op11 finders as they were when a step
stopped at 10 vertices and took one run, cut from the library's, as the
single steps the library's batched ones stand for; and the op1, op2,
op8 and op9 finders written as whole-graph scans, as the reference for
the finders that read only their candidates (op2 and op8 over the
library's separations); and the exact
search with its cuts tested on entry to each node, whose node counts bound
the search that tests them before descending; a cover built one checked
add_edge at a time, as the reference for Cover's one-pass construction;
and the 2-matching that always runs the blossom search, as the reference
for the one that returns a greedy start which fills every cap; and
max_tfpcc's ban loop on bare edge lists, with its own triangle search, as
the reference for the one that reads triangles off a Cover's components.
The leaf rule from before a tree of any size was a leaf, for
reduce.is_leaf, is the reference for the one that stops at trees.
Some helpers serve tests only: twin pairs of graphs that break
compute_pi_pairs' preconditions, the path cover of a thinned tree,
adding or popping the last vertex id of a graph, a cycle added through a
vertex, caterpillars and lollipops, and the subgraph induced on a vertex
set.
The digest helpers at the end pin whole runs so that a refactor can be
checked to keep every tree, bound and error unchanged.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, combinations, permutations

import mist.cover
import mist.reduce
from mist import Graph, norm_edge
from mist.graph import component_of, connected_components, separations, twin_groups
from mist.cover import (
    Cover,
    PiPair,
    _augment,
    _common_base,
    _mark_blossom,
    _two_matching,
    is_special,
    validate_tfpcc,
)
from mist.errors import (
    DisconnectedInput,
    InternalInvariant,
    NonTermination,
    PreconditionViolated,
    SizeCapExceeded,
    StaleWitness,
)
from mist.exact import OST_CAP, TreeResult, tree_result
from mist.reduce import (
    Peel,
    StrongReduction,
    WeakReduction,
    _peel,
    apply_strong_reduction,
    apply_weak_reduction,
)


def build_graph(n: int, edges) -> Graph:
    return Graph(n, [norm_edge(u, v) for u, v in edges])


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph induced on the given vertices, renumbered densely.

    Returns (subgraph, old_ids) where old_ids[new] is the original id.
    """
    old_ids = sorted(vertices)
    pos = {v: i for i, v in enumerate(old_ids)}
    for v in old_ids:
        if not g.is_alive(v):
            raise InternalInvariant(f"vertex {v} not alive")
    edges = [(pos[v], pos[u]) for v in old_ids for u in g.adj[v] if v < u and u in pos]
    return Graph(len(old_ids), edges), old_ids


def _component_count(n, edges, skip_vertex=None, skip_edge=None):
    adj = {v: [] for v in range(n) if v != skip_vertex}
    banned = norm_edge(*skip_edge) if skip_edge else None
    for u, v in edges:
        if skip_vertex in (u, v) or norm_edge(u, v) == banned:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def naive_bridges(n, edges):
    base = _component_count(n, edges)
    return {
        norm_edge(u, v)
        for u, v in edges
        if _component_count(n, edges, skip_edge=(u, v)) > base
    }


def naive_pieces(n, edges):
    """For each vertex v, the number of components of the graph minus v."""
    return {v: _component_count(n, edges, skip_vertex=v) for v in range(n)}


def naive_cutpoints(n, edges):
    base = _component_count(n, edges)
    return [
        v for v in range(n) if _component_count(n, edges, skip_vertex=v) > base
    ]


def naive_components(g: Graph, blocked) -> list[list[int]]:
    """Components of g minus the blocked vertices, sorted, by smallest member."""
    seen = set(blocked)
    out = []
    for start in g.alive_list():
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.append(sorted(comp))
    return out


def naive_op10(g: Graph) -> StrongReduction | None:
    """op10 by the pair scan: for u < v and each component K of g - {u, v}
    with |K| <= 6 and |K| + 2 < n, the first Hamiltonian u-v path through K
    in lexicographic order; the first pair and block where such a path
    exists and leaves an edge of K + {u, v} unused fire."""
    verts = g.alive_list()
    n = len(verts)
    for u, v in combinations(verts, 2):
        for k in naive_components(g, (u, v)):
            if not (len(k) <= 6 and len(k) + 2 < n):
                continue
            inside = set(k) | {u, v}
            edges = {norm_edge(x, y) for x in inside for y in g.adj[x] if y in inside}
            if len(edges) <= len(k) + 1:
                continue  # a Hamiltonian path would use every edge
            for perm in permutations(k):
                walk = (u, *perm, v)
                if all(norm_edge(a, b) in edges for a, b in zip(walk, walk[1:])):
                    used = {norm_edge(a, b) for a, b in zip(walk, walk[1:])}
                    extra = tuple(sorted(edges - used))
                    return StrongReduction("op10", (), extra, (), (u, v, tuple(k)))
    return None


def _internal_count(n, subset):
    """Internal-vertex count if subset is a spanning tree of n vertices."""
    if len(subset) != max(n - 1, 0):
        return None
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deg = [0] * n
    for u, v in subset:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
        deg[u] += 1
        deg[v] += 1
    return sum(1 for d in deg if d >= 2)


def brute_opt_tree(n, edges):
    """Maximum internal count over all spanning trees, by enumeration."""
    best = -1
    for subset in combinations(edges, max(n - 1, 0)):
        w = _internal_count(n, subset)
        if w is not None and w > best:
            best = w
    return best


def brute_tfpcc(n, edges):
    """Largest edge set with all degrees <= 2 and no cycle shorter than 4."""
    edges = sorted(norm_edge(u, v) for u, v in edges)
    m = len(edges)
    deg = [0] * n
    chosen: list[tuple[int, int]] = []
    best = 0

    def cycles_ok():
        adj = {}
        for u, v in chosen:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = set()
        for start in adj:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            ne = sum(len(adj[v]) for v in comp) // 2
            if ne == len(comp) and len(comp) < 4:
                return False
        return True

    def rec(k):
        nonlocal best
        if len(chosen) + (m - k) <= best:
            return
        if k == m:
            if cycles_ok():
                best = max(best, len(chosen))
            return
        u, v = edges[k]
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            rec(k + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        rec(k + 1)

    rec(0)
    return best


def brute_ham_path(n, edges, a=None, b=None):
    """Whether a Hamiltonian path exists, optionally with fixed endpoints."""
    eset = {norm_edge(u, v) for u, v in edges}
    for perm in permutations(range(n)):
        if a is not None and perm[0] != a:
            continue
        if b is not None and perm[-1] != b:
            continue
        if all(norm_edge(perm[i], perm[i + 1]) in eset for i in range(n - 1)):
            return True
    return False


def reference_opt_spanning_tree(g: Graph, cap: int = OST_CAP) -> TreeResult:
    """Spanning tree maximizing the number of internal vertices: the search
    mist.exact.opt_spanning_tree ran before its incremental rewrite.

    Branch and bound over edges in sorted order: include (if acyclic)
    before exclude (if the rest still spans).  The bound counts vertices
    that can no longer reach degree 2.
    """
    verts = g.alive_list()
    n = len(verts)
    if n == 0:
        raise PreconditionViolated("empty graph")
    if n > cap:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {cap}")
    if not g.is_connected():
        raise DisconnectedInput("opt_spanning_tree needs a connected graph")
    if n == 1:
        return TreeResult((), 0, (verts[0],))
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in g.edge_list()]
    m = len(edges)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tdeg = [0] * n
    pdeg = [g.degree(v) for v in verts]  # tree degree plus undecided edges
    chosen: list[tuple[int, int]] = []
    best_w = -1
    best_edges: list[tuple[int, int]] = []

    def spans_without(k):
        p2 = list(range(n))

        def f2(x):
            while p2[x] != x:
                x = p2[x]
            return x

        cnt = n
        for a, b in chosen:
            ra, rb = f2(a), f2(b)
            if ra != rb:
                p2[ra] = rb
                cnt -= 1
        for i in range(k, m):
            ra, rb = f2(edges[i][0]), f2(edges[i][1])
            if ra != rb:
                p2[ra] = rb
                cnt -= 1
        return cnt == 1

    def rec(k):
        nonlocal best_w, best_edges
        if len(chosen) == n - 1:
            w = sum(1 for d in tdeg if d >= 2)
            if w > best_w:
                best_w = w
                best_edges = list(chosen)
            return
        if k == m or m - k < (n - 1) - len(chosen):
            return
        forced = sum(1 for d in pdeg if d <= 1)
        if n - max(forced, 2) <= best_w:
            return
        a, b = edges[k]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tdeg[a] += 1
            tdeg[b] += 1
            chosen.append((a, b))
            rec(k + 1)
            chosen.pop()
            tdeg[a] -= 1
            tdeg[b] -= 1
            parent[ra] = ra
        pdeg[a] -= 1
        pdeg[b] -= 1
        if spans_without(k + 1):
            rec(k + 1)
        pdeg[a] += 1
        pdeg[b] += 1

    rec(0)
    if best_w < 0:
        raise InternalInvariant("no spanning tree found in a connected graph")
    return tree_result(g, [(verts[a], verts[b]) for a, b in best_edges])


def entry_cut_opt_spanning_tree(g: Graph, floor: int = 0) -> TreeResult | None:
    """mist.exact.opt_spanning_tree as it ran before its cuts moved ahead of
    the descent: every node, the last include's too, is a call of rec that
    tests its own edge count and bound on entry, and every exclude floods
    the masks.  The same branching order, bounds and incumbent seed
    (entry_cut_greedy_weight), so the same first optimum; the node counts
    are the measure the pre-descent cuts are checked against.  g must be
    connected.
    """
    verts = g.alive_list()
    n = len(verts)
    if g.edge_count() == n - 1:
        t = tree_result(g, g.edge_list())
        return t if t.weight >= floor else None
    bit = {v: 1 << i for i, v in enumerate(verts)}
    nbrs = [sum(map(bit.__getitem__, g.adj[v])) for v in verts]
    forced = sum(x & (x - 1) == 0 for x in nbrs)
    top = n - max(2, forced)
    if floor > top:
        return None
    edges = [(a, b) for a, x in enumerate(nbrs) for b in range(a + 1, n) if x >> b & 1]
    m = len(edges)
    parent = list(range(n))
    tdeg = [0] * n
    chosen: list[tuple[int, int]] = []
    best_w = (floor or entry_cut_greedy_weight(nbrs)) - 1
    best_edges: list[tuple[int, int]] | None = None

    def rec(k, need, internal, excess, forced):
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
        seen = frontier = bit_a
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = nbrs[low.bit_length() - 1] & ~seen
            if grown & bit_b:
                left = (nbrs[a].bit_count() == 1) + (nbrs[b].bit_count() == 1)
                rec(k + 1, need, internal, excess, forced + left)
                break
            seen |= grown
            frontier |= grown
        nbrs[a] |= bit_b
        nbrs[b] |= bit_a

    rec(0, n - 1, 0, 0, forced)
    if best_edges is None:
        return None
    return tree_result(g, [(verts[a], verts[b]) for a, b in best_edges])


def entry_cut_greedy_weight(nbrs: list[int]) -> int:
    """mist.exact._greedy_weight written the plain way: a greedy depth-first
    tree from a lowest-degree vertex that always steps to the unvisited
    neighbour with the fewest unvisited neighbours, lowest index on ties,
    its internal vertices counted from its degrees."""
    start = min(range(len(nbrs)), key=lambda x: nbrs[x].bit_count())
    free = ((1 << len(nbrs)) - 1) ^ (1 << start)
    tdeg = [0] * len(nbrs)
    path = [start]
    while path:
        x = path[-1]
        step = [y for y in range(len(nbrs)) if (nbrs[x] & free) >> y & 1]
        if not step:
            path.pop()
            continue
        best = min(step, key=lambda y: (nbrs[y] & free).bit_count())
        free ^= 1 << best
        tdeg[x] += 1
        tdeg[best] += 1
        path.append(best)
    return len(nbrs) - tdeg.count(1)


def per_edge_cover(g: Graph, edges) -> Cover:
    """The cover of g with the given edges, added one checked add_edge at a
    time in list order: the first faulty edge raises add_edge's error."""
    c = Cover(g)
    for u, v in edges:
        c.add_edge(u, v)
    return c


def search_always_two_matching(adj: list[list[int]], cap: list[int], banned) -> list[tuple[int, int]]:
    """mist.cover._two_matching without its exit after a greedy start that
    fills every cap: the start is always completed to a matching of Tutte's
    gadget and searched from every exposed copy."""
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
            return [h + j for j, w in enumerate(adj[v]) if norm_edge(v, w) not in banned]
        v = bisect_right(half, x) - 1
        w = adj[v][x - half[v]]
        mate = half[w] + bisect_left(adj[w], v)
        if norm_edge(v, w) in banned:
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


def tree_scan_augment(root: int, match: list[int], parent: list[int], base: list[int], nbrs) -> None:
    """mist.cover._augment as it was before each base kept its members: after
    each contraction it scans the whole search tree for the vertices whose
    base the blossom absorbed, and queues those that turn even in tree order."""
    tree = [root]
    even = {root}
    queue = [root]
    try:
        for v in queue:
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


def edge_list_max_tfpcc(g: Graph, forced_leaves=()) -> list[tuple[int, int]]:
    """mist.cover.max_tfpcc on bare edge lists: the same 2-matchings and
    bans, each triangle found by first_triangle, and the edges returned."""
    cap = [2 if up else 0 for up in g.alive]
    for v in forced_leaves:
        cap[v] = 1
    budget = mist.cover.TFPCC_RESOLVES
    solves = 0
    target = None
    while True:
        bans = [frozenset()]
        while bans:
            banned = bans.pop()
            solves += 1
            if solves > budget:
                raise NonTermination(f"no triangle-free cover found in {budget} 2-matchings")
            edges = _two_matching(g.adj, cap, banned)
            if target is None:
                target = len(edges)
            if len(edges) < target:
                continue
            tri = first_triangle(edges)
            if tri is None:
                return edges
            bans.extend(banned | {e} for e in reversed(tri))
        target -= 1


def first_triangle(edges: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
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


def reference_max_tfpcc(g: Graph, forced_leaves=(), cap: int = 16) -> Cover:
    """Maximum triangle-free path-cycle cover by branch and bound, an
    oracle for mist.cover.max_tfpcc on graphs of up to cap vertices.

    forced_leaves lists vertices whose cover degree must stay at most 1.
    Components track their size through union-find, so an edge closing a
    cycle is allowed only when the component already has 4 vertices or
    more; all shorter cycles are rejected.
    """
    verts = g.alive_list()
    n = len(verts)
    if n > cap:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {cap}")
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

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    cdeg = [0] * n
    avail = [g.degree(v) for v in verts]
    chosen: list[tuple[int, int]] = []
    best = -1
    best_set: list[tuple[int, int]] = []

    def rec(k, cur):
        nonlocal best, best_set
        if cur > best:
            best = cur
            best_set = list(chosen)
        if k == m:
            return
        slack = sum(min(capv[x] - cdeg[x], avail[x]) for x in range(n))
        if cur + slack // 2 <= best:
            return
        a, b = edges[k]
        avail[a] -= 1
        avail[b] -= 1
        if cdeg[a] < capv[a] and cdeg[b] < capv[b]:
            ra, rb = find(a), find(b)
            if ra != rb or size[ra] >= 4:
                merged = ra != rb
                if merged:
                    if size[ra] > size[rb]:
                        ra, rb = rb, ra
                    parent[ra] = rb
                    size[rb] += size[ra]
                cdeg[a] += 1
                cdeg[b] += 1
                chosen.append((a, b))
                rec(k + 1, cur + 1)
                chosen.pop()
                cdeg[a] -= 1
                cdeg[b] -= 1
                if merged:
                    parent[ra] = ra
                    size[rb] -= size[ra]
        rec(k + 1, cur)
        avail[a] += 1
        avail[b] += 1

    rec(0, 0)
    return Cover(g, [norm_edge(verts[a], verts[b]) for a, b in best_set])


def build_augmented_graph(g: Graph, pairs: list[PiPair]) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Copy of g with one pendant vertex attached to u1 of every pair."""
    g2 = g.copy()
    pendants = {}
    for p in pairs:
        x = add_vertex(g2)
        g2.add_edge(p.u1, x)
        pendants[(p.u1, p.u3)] = x
    return g2, pendants


def preferred_tfpcc_via_augmented(g: Graph, pairs: list[PiPair]) -> Cover:
    """Preferred cover computed through the pendant-augmented graph.

    Attach a pendant x to u1 of every pair, take a maximum cover of the
    augmented graph, then repair: while some pendant is isolated, u1 must
    have cover degree 2, so swap its lower cover edge for {x, u1}.
    Stripping the pendant edges leaves a special cover of g with the same
    number of non-pendant edges.  mist.cover.preferred_tfpcc gets the same
    edge count by forcing u1 to be a leaf instead.  The pendants can take
    the augmented graph past the reference search's default cap, so it
    runs with a cap of 24.
    """
    g2, pendants = build_augmented_graph(g, pairs)
    aug = reference_max_tfpcc(g2, cap=24)
    budget = len(pairs) + 1
    while True:
        stale = [
            (key, x) for key, x in sorted(pendants.items()) if aug.degree(x) == 0
        ]
        if not stale:
            break
        budget -= 1
        if budget < 0:
            raise InternalInvariant("pendant repair loop did not settle")
        (u1, _), x = stale[0]
        if aug.degree(u1) != 2:
            raise InternalInvariant(
                f"isolated pendant {x} but u1={u1} has degree {aug.degree(u1)}"
            )
        before = aug.edge_count()
        drop = min(norm_edge(u1, w) for w in aug.adj[u1])
        aug.remove_edge(*drop)
        aug.add_edge(u1, x)
        if aug.edge_count() != before:
            raise InternalInvariant("pendant swap changed the edge count")
        validate_tfpcc(aug)
    edges = []
    pendant_ids = set(pendants.values())
    for u, v in aug.edge_list():
        if u in pendant_ids or v in pendant_ids:
            continue
        edges.append((u, v))
    cover = Cover(g, edges)
    if not is_special(cover, pairs):
        raise InternalInvariant("augmented route produced a non-special cover")
    return cover


def twin_pairs(g: Graph) -> list[PiPair]:
    """Every pair of degree-2 twins, as compute_pi_pairs gives them, but
    without its preconditions on the vertex count, the twin group sizes
    and the boundary degrees."""
    pairs = []
    for key, twins in twin_groups(g):
        for u1, u3 in combinations(twins, 2):
            supports = tuple(sorted(norm_edge(u, b) for u in (u1, u3) for b in key))
            pairs.append(PiPair(u1, u3, key, supports))
    pairs.sort(key=lambda p: (p.u1, p.u3))
    return pairs


def tree_vertices(t: TreeResult) -> list[int]:
    verts = set(t.leaves)
    for u, v in t.edges:
        verts.add(u)
        verts.add(v)
    return sorted(verts)


def path_cover_from_tree(t: TreeResult, g: Graph) -> Cover:
    """Path cover of g obtained by thinning a spanning tree.

    Root the tree at the smallest internal vertex and keep, for every
    vertex with children, only the edge to its smallest child.  The kept
    edges form vertex-disjoint paths with as many edges as the tree has
    internal vertices (or one more when the root is a leaf).
    """
    verts = tree_vertices(t)
    if verts != g.alive_list():
        raise InternalInvariant("tree does not span the host graph")
    if not t.edges:
        return Cover(g, ())
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    internal = [v for v in verts if len(adj[v]) >= 2]
    root = internal[0] if internal else verts[0]
    kept = []
    stack = [(root, -1)]
    while stack:
        u, par = stack.pop()
        children = sorted(w for w in adj[u] if w != par)
        if children:
            kept.append(norm_edge(u, children[0]))
            for w in children:
                stack.append((w, u))
    return Cover(g, kept)


def add_vertex(g: Graph) -> int:
    """Give g a new alive vertex id, one above the last, without edges."""
    v = g.vertex_count
    g.write_rows([*g.adj, []], [*g.alive, True])
    return v


def pop_vertex(g: Graph) -> None:
    """Undo add_vertex: delete the last vertex id and its edges."""
    g.remove_vertex(g.vertex_count - 1)
    g.write_rows(g.adj[:-1], g.alive[:-1])


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree, decoded from a Pruefer sequence."""
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        a = heapq.heappop(leaves)
        edges.append(norm_edge(a, x))
        deg[a] -= 1
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append(norm_edge(a, b))
    return Graph(n, edges)


def random_connected(n: int, p: float, rng: random.Random) -> Graph:
    """Random tree plus each remaining edge with probability p."""
    g = random_tree(n, rng)
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and rng.random() < p:
                g.add_edge(u, v)
    return g


def with_cycle(g: Graph, v: int, k: int) -> Graph:
    """g with a cycle of k vertices through v added, its k - 1 new vertices
    numbered after g's."""
    n = g.vertex_count
    ring = [v, *range(n, n + k - 1)]
    return Graph(n + k - 1, g.edge_list() + list(zip(ring, ring[1:] + ring[:1])))


def caterpillar(n: int, knotted: bool = False) -> Graph:
    """The path 0..n-1 with a leg of 1 + i % 3 vertices hanging off each
    vertex i; knotted, each leg of 2 or more vertices ends in a triangle,
    its last vertex joined to the one two back."""
    edges = [(i, i + 1) for i in range(n - 1)]
    top = n
    for i in range(n):
        leg = list(range(top, top + 1 + i % 3))
        edges += list(zip([i, *leg], leg))
        if knotted and len(leg) >= 2:
            edges.append(([i, *leg][-3], leg[-1]))
        top += len(leg)
    return build_graph(top, edges)


def lollipop(n: int, k: int) -> Graph:
    """The path 0..n-1 with its last k vertices closed into a cycle: a tail
    of n - k vertices on a k-cycle, no tree, so the engine reduces it.

    In simple mode a cycle of at most 8 vertices ends the tail's op4 path
    with a last piece.  In refined mode a cycle of 9 or more is left alone
    by op8, op9 and op10, so op4 peels the tail there too.
    """
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(n - k, n - 1)])


def small_leaf_rule(h: Graph, mode: str) -> bool:
    """reduce.is_leaf as it was before a tree of any size was a leaf: a
    node of at most 3 vertices, but for a refined triangle, which op11
    contracts.  The engine asks it at the root too, where it changes
    nothing: no rule fires on those graphs there either.
    """
    return h.n_alive() <= 3 and (h.edge_count() < 3 or mode == "simple")


def replay(trace) -> list[Graph]:
    """The graph of every trace node, in index order.

    The trace keeps the graphs of its root and leaves only; this applies
    each node's step forward from the root, in index order, so every parent
    is rebuilt before its children.  A step edits the graph it is given, so
    each is applied to a copy of its parent's, and every graph is kept.
    """
    graphs = {0: trace.nodes[0].graph}
    for node in trace.nodes:
        r = node.applied
        if r is None:
            continue
        g = graphs[node.index].copy()
        if isinstance(r, StrongReduction):
            parts = [apply_strong_reduction(g, r)]
        else:
            parts = apply_weak_reduction(g, r)
        graphs.update(zip(node.children, parts))
    return [graphs[i] for i in range(len(trace.nodes))]


def op4_peels(r: WeakReduction) -> list[Peel]:
    """The peels an op4 step stands for: its first peel, one per path
    vertex, then its last piece, if it has one.

    The path peel at w_i takes {w_(i-1), p + i - 1} off w_i with the pendant
    p + i, its block the path (p + i - 1)-w_(i-1)-w_i and its own inner tree.
    """
    peels = [r.peel]
    v, p = r.peel.cut_vertex, r.peel.pendant
    for w in r.path:
        block = (norm_edge(v, w), (v, p))
        peels.append(Peel(w, (v, p), p + 1, block, 2, block))
        v, p = w, p + 1
    return peels if r.last is None else [*peels, r.last]


def single_run_find_op11(g: Graph, sep=None) -> WeakReduction | None:
    """op11 one run per step, as it was before a step took every run: the
    library's step cut down to its first run, which is walked alone."""
    r = mist.reduce.find_op11(g, sep)
    return r and r._replace(c=len(r.runs[0]), runs=r.runs[:1])


def ten_left_find_op4(g: Graph, sep=None) -> WeakReduction | None:
    """op4 with a path that stops at 10 vertices left, as it was before a
    step took its last piece: the library's step without that piece."""
    r = mist.reduce.find_op4(g, sep)
    return r and r._replace(c=r.c - (r.last.inner_opt - 1 if r.last else 0), last=None)


def reference_find_op4(g: Graph) -> list[Peel] | None:
    """The peels of find_op4's step on g, each built as a Peel.

    The first peel is at the first cut vertex v with a piece of 2-8
    vertices, and takes the first such piece; the run goes on at w while
    v's neighbours left are the last pendant and w, w > v, every other
    vertex below w is gone and more than 10 vertices are left.  A path
    that stops because 10 vertices are left, at a cut vertex whose only
    neighbour besides its pendant is x, ends with the peel of the piece of
    x.  The cut vertices and their pieces are read off a search of g - v
    for every v.
    """
    for v in g.alive_list():
        pieces = connected_components(g, frozenset((v,)))
        small = [k for k in pieces if 2 <= len(k) <= 8]
        if len(pieces) >= 2 and small:
            break
    else:
        return None
    k_comp = small[0]
    kv = {v, *k_comp}
    block = tuple((x, y) for x in sorted(kv) for y in g.adj[x] if y > x and y in kv)
    p = g.vertex_count
    peels = [_peel(v, tuple(k_comp), p, block)]
    gone = set(k_comp)
    left = g.n_alive() - len(k_comp) + 1
    while left > 10:
        rest = [x for x in g.adj[v] if x not in gone]
        if len(rest) != 1:
            break
        w = rest[0]
        if w < v or any(g.alive[x] and x not in gone for x in range(w) if x != v):
            break
        gone.add(v)
        block = ((v, w), (v, p))
        peels.append(Peel(w, (v, p), p + 1, block, 2, block))
        v, p, left = w, p + 1, left - 1
    rest = [x for x in g.adj[v] if x not in gone]
    if len(peels) > 1 and left <= 10 and len(rest) == 1:
        (k_comp,) = [k for k in connected_components(g, frozenset((v,))) if rest[0] in k]
        kv = {v, *k_comp}
        block = tuple((x, y) for x in sorted(kv) for y in g.adj[x] if y > x and y in kv)
        peels.append(_peel(v, tuple(k_comp), p + 1, block))
    return peels


def reference_find_op1(g: Graph) -> StrongReduction | None:
    """find_op1 the plain way: the first vertex, in id order, with two
    neighbours of degree 1, found by looking at every neighbour of every
    vertex."""
    if g.n_alive() <= 3:
        return None
    for v in g.alive_list():
        leaves = [u for u in g.adj[v] if g.degree(u) == 1]
        if len(leaves) >= 2:
            u1, u2 = leaves[:2]
            e = norm_edge(u2, v)
            return StrongReduction("op1", (u2,), (e,), (e,), (u1, u2, v))
    return None


def reference_find_op2(g: Graph) -> StrongReduction | None:
    """find_op2 the plain way: the first edge of edge_list that is no
    bridge and whose ends both cut g, over the library's separations."""
    sep = separations(g)
    for u1, u2 in g.edge_list():
        if (u1, u2) not in sep.bridges and sep.pieces[u1] >= 2 and sep.pieces[u2] >= 2:
            return StrongReduction("op2", (), ((u1, u2),), (), (u1, u2))
    return None


def _plain_twin_groups(g: Graph) -> list[tuple[tuple[int, int], list[int]]]:
    groups: dict[tuple[int, int], list[int]] = {}
    for v in g.alive_list():
        if g.degree(v) == 2:
            groups.setdefault(tuple(g.adj[v]), []).append(v)
    return [(key, groups[key]) for key in sorted(groups)]


def reference_find_op8(g: Graph) -> StrongReduction | None:
    """find_op8 the plain way: the first twin group of two or more, by
    neighbourhood, with a boundary vertex that cuts g, over a twin grouping
    of its own and the library's separations."""
    sep = separations(g)
    for key, twins in _plain_twin_groups(g):
        if len(twins) >= 2:
            for u2 in key:
                if sep.pieces[u2] >= 2:
                    u1 = key[1] if u2 == key[0] else key[0]
                    e = norm_edge(u2, twins[0])
                    return StrongReduction("op8", (), (e,), (), (u1, u2, *twins[:2]))
    return None


def reference_find_op9(g: Graph) -> StrongReduction | None:
    """find_op9 the plain way: the first twin group of three or more, by
    neighbourhood, over a twin grouping of its own."""
    for (u2, u1), twins in _plain_twin_groups(g):
        if len(twins) >= 3:
            e = norm_edge(u2, twins[0])
            return StrongReduction("op9", (), (e,), (), (u1, u2, *twins[:3]))
    return None


def reference_find_op11(g: Graph) -> tuple[tuple[tuple[int, int, int, int], ...], ...] | None:
    """The runs of find_op11's step on g, each re-derived from a gone set
    on the graph the runs before it left.

    A run starts at the first edge whose ends both have degree 2 and,
    while u1 has two neighbours, merges its lowest-id degree-2 neighbour u2
    into it; o1 is u1's other neighbour and o2 u2's neighbour besides u1
    and the vertices merged before.  Each run is contracted on a copy of g,
    one Graph edit at a time, and the next is searched from the first
    vertex, until none is left or a run closes a triangle.
    """
    h = g.copy()
    runs = []
    while True:
        adj = h.adj
        for u1, row in enumerate(adj):
            if len(row) == 2 and (len(adj[row[0]]) == 2 or len(adj[row[1]]) == 2):
                break
        else:
            break
        gone: set[int] = set()
        run = []
        while len(row) == 2:
            live = [x for x in row if len(adj[x]) == 2]
            if not live:
                break
            u2 = live[0]
            o1 = row[1] if row[0] == u2 else row[0]
            o2 = next(x for x in adj[u2] if x != u1 and x not in gone)
            run.append((u1, u2, o1, o2))
            gone.add(u2)
            row = sorted({o1, o2})
        runs.append(tuple(run))
        for _, u2, o1, o2 in run:
            h.remove_vertex(u2)
            if o1 != o2:
                h.add_edge(u1, o2)
        if o1 == o2:
            break
    return tuple(runs) or None


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise StaleWitness(msg)


def reference_apply_run(g: Graph, r: WeakReduction) -> Graph:
    """An op4 or op11 step applied one checked Graph edit at a time, to a copy of g.

    The engine makes these edits on g's own rows and recounts them at once;
    this makes them through Graph's own methods, with the same checks and
    messages in the same order.
    """
    h = g.copy()
    if r.kind == "op4":
        peels = op4_peels(r)
        _check(r.c == sum(s.inner_opt - 1 for s in peels), "constant is not the peels' sum")
        for s in peels:
            v, k_comp = s.cut_vertex, s.component
            _check(h.is_alive(v), f"cut vertex {v} gone")
            _check(
                v not in k_comp
                and h.is_alive(k_comp[0])
                and component_of(h, k_comp[0], blocked=frozenset((v,))) == list(k_comp),
                f"hanging block at {v} changed",
            )
            _check(s.pendant == h.vertex_count, f"pendant id at {v} mismatch")
            for x in k_comp:
                h.remove_vertex(x)
            h.add_edge(v, add_vertex(h))
    elif r.kind == "op11":
        _check(r.c == sum(map(len, r.runs)), "constant is not the contraction count")
        for u1, u2, o1, o2 in (c for run in r.runs for c in run):
            _check(h.has_edge(u1, u2), f"contracted edge {u1}-{u2} gone")
            _check(h.degree(u1) == 2 and h.degree(u2) == 2, f"degrees at {u1}-{u2} changed")
            _check(
                o1 in h.adj[u1] and o2 in h.adj[u2],
                f"outside neighbors of {u1}-{u2} changed",
            )
            h.remove_vertex(u2)
            if o1 != o2:
                h.add_edge(u1, o2)
    else:
        raise ValueError(f"not a run: {r.kind}")
    return h


def reference_undo_run(r: WeakReduction, h: Graph, edges: set) -> tuple[Graph, TreeResult]:
    """An op4 or op11 step undone on its child graph h, one Graph edit at a time.

    h and the child tree's edge set are edited in place; h is returned
    with the lifted tree as tree_result checks it, before the lift's floor
    checks.
    """
    if r.kind == "op4":
        for s in reversed(op4_peels(r)):
            pe = (s.cut_vertex, s.pendant)
            if pe not in edges:
                raise InternalInvariant("pendant edge missing from subtree")
            edges.remove(pe)
            edges.update(s.inner_tree)
            h.remove_edge(*pe)
            pop_vertex(h)
            for x in s.component:
                h.revive(x)
            for u, v in s.block_edges:
                h.add_edge(u, v)
    elif r.kind == "op11":
        for u1, u2, o1, o2 in reversed([c for run in r.runs for c in run]):
            swap = norm_edge(u1, o2)
            if swap in edges:
                edges.remove(swap)
                edges.add(norm_edge(u2, o2))
            edges.add(norm_edge(u1, u2))
            if o1 != o2:
                h.remove_edge(u1, o2)
            h.revive(u2)
            h.add_edge(u1, u2)
            h.add_edge(u2, o2)
    else:
        raise ValueError(f"not a run: {r.kind}")
    return h, tree_result(h, edges)


def graph_state(g: Graph) -> tuple:
    """Everything a graph holds: rows, alive mask, id range and both counters."""
    return g.adj, g.alive, g.vertex_count, g.n_alive(), g.edge_count()


def bfs_tree(h: Graph) -> TreeResult:
    """Some spanning tree of h: every lift floor holds for any subtrees."""
    start = h.alive_list()[0]
    seen, edges, queue = {start}, [], [start]
    for u in queue:
        for v in h.adj[u]:
            if v not in seen:
                seen.add(v)
                edges.append(norm_edge(u, v))
                queue.append(v)
    return tree_result(h, edges)


def check_runs_against_reference(monkeypatch, roots, modes=("simple", "refined")) -> Counter:
    """Reduce and lift every root, checking each op4 and op11 step against the loops above.

    Applying a step must give the graph reference_apply_run gives, and
    undoing it the graph, tree edges, weight and tree degrees
    reference_undo_run gives.  The leaves get breadth-first trees.  Returns
    how many steps of each kind were checked.
    """
    seen: Counter = Counter()
    real_apply, real_undo = mist.reduce.apply_weak_reduction, mist.reduce._undo

    def apply(g, r):
        if r.kind not in ("op4", "op11"):
            return real_apply(g, r)
        want = graph_state(reference_apply_run(g, r))  # on a copy, before g is edited
        parts = real_apply(g, r)
        assert [graph_state(h) for h in parts] == [want]
        seen[f"{r.kind} apply"] += 1
        return parts

    def undo(r, parts):
        if r.kind not in ("op4", "op11"):
            return real_undo(r, parts)
        want_h, want_t = reference_undo_run(r, parts[0].graph.copy(), set(parts[0].edges))
        t = real_undo(r, parts)
        assert graph_state(t.graph) == graph_state(want_h)
        assert (t.edges, t.weight) == (set(want_t.edges), want_t.weight)
        assert t.deg == mist.reduce.Lifted.of(want_h, want_t).deg
        seen[f"{r.kind} undo"] += 1
        return t

    monkeypatch.setattr(mist.reduce, "apply_weak_reduction", apply)
    monkeypatch.setattr(mist.reduce, "_undo", undo)
    for g in roots:
        for mode in modes:
            tr = mist.reduce.reduce_to_fixpoint(g, mode)
            tr.lift_all({i: bfs_tree(tr.nodes[i].graph) for i in tr.leaves()})
    return seen


def outcome_line(name: str, mode: str, outcome) -> str:
    """A run's tree edges and upper bound, or the class of the error it raised."""
    if isinstance(outcome, Exception):
        return f"{name} {mode} {type(outcome).__name__}\n"
    return f"{name} {mode} {outcome.tree.edges} {outcome.upper_bound}\n"


def outcome_digest(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()
