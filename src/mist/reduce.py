"""Optimum-preserving graph reductions and the lifts that undo them.

Strong reductions (op1, op2, op8, op9, op10) delete edges or a pendant
vertex without changing the optimum.  Weak reductions (op3, op4, op11)
replace the graph by one or two smaller graphs whose optima determine the
original through an additive constant c, and every weak reduction carries
a lift that rebuilds a spanning tree of the original graph from spanning
trees of the parts, gaining at least c internal vertices.

reduce_to_fixpoint applies these until none fires, recording every step
in a trace forest so the leaf solutions can be lifted back to the root.
The trace keeps the graphs of its root and leaves only; lifting undoes
each step once, rebuilding the graph and the tree of its node together
from its children's.  An undone step checks only what it edits: the tree
edges it adds must be edges of the rebuilt graph, the ones it removes
must be in the tree, the tree keeps n - 1 edges and its weight meets the
step's floor.  One tree_result call at the root checks the whole lifted
tree, after one per leaf.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import NamedTuple

from .errors import ArityMismatch, BadParams, DisconnectedInput, InternalInvariant, StaleWitness
from .exact import TreeResult, hamiltonian_path_between, opt_spanning_tree, tree_result
from .graph import (
    Edge,
    Graph,
    Separations,
    add_edge_in,
    component_of,
    connected_components,
    norm_edge,
    remove_edge_in,
    revive_in,
    separations,
    twin_groups,
)

RULESETS = {
    "simple": (("op1", "op2"), ("op3", "op4")),
    "refined": (("op1", "op2", "op8", "op9", "op10"), ("op3", "op4", "op11")),
}


class StrongReduction(NamedTuple):
    kind: str
    removed_vertices: tuple[int, ...]
    removed_edges: tuple[Edge, ...]
    restore_edges: tuple[Edge, ...]  # put back when lifting (op1 only)
    witness: tuple


class Peel(NamedTuple):
    """One op4 replacement: the block K hanging off v becomes a pendant at v.

    Only a step's first peel is kept as a Peel; the path peels after it are
    implied by their cut vertices (WeakReduction.path).
    """

    cut_vertex: int
    component: tuple[int, ...]
    pendant: int
    inner_tree: tuple[Edge, ...]  # spans K + {v}; with the pendant edge, optimal
    inner_opt: int
    block_edges: tuple[Edge, ...]  # G[K + {v}], put back when undoing


class WeakReduction(NamedTuple):
    kind: str
    c: int
    parts: int
    bridge: Edge | None = None
    sides: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    # op4: the first peel, then the cut vertex w_i of each path peel after
    # it; w_i peels {w_(i-1), p + i - 1} with the pendant p + i, where w_0
    # and p are the first peel's cut vertex and pendant
    peel: Peel | None = None
    path: tuple[int, ...] | None = None
    # op11: (u1, u2, o1, o2) per contraction, in order; u2 merges into u1,
    # the same u1 for every contraction of the step
    contractions: tuple[tuple[int, int, int, int], ...] | None = None


# -- strong reductions ----------------------------------------------------
#
# Every finder takes the graph, assumed connected, and optionally its
# separations(g); the fixpoint driver computes that once for each trace
# node it searches: the root, every node of four or more vertices, and in
# refined mode a triangle (see reduce_to_fixpoint).
# In a connected graph, "g - u has a component without w" holds exactly
# when u is a cut vertex, that is when g - u has at least two pieces.
#
# Each finder reads only its candidates: op1 the rows of the vertices
# whose removal leaves three or more pieces, op2 the rows of the cut
# vertices, op8 and op9 the twin grouping the node's separations build on
# first use (one per node, shared), op4 the piece sizes and then the
# pieces of one cut vertex, op3 the bridges, and op10 the vertices of
# degree 3 or more and the degree-2 runs next to them.
#
# op10 alone also takes near, the refined driver's worklist (see find_op10
# and reduce_to_fixpoint): the other finders' candidates cost less than the
# node's lowpoint pass, so a second, local search would not pay for itself.


def find_op1(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Two pendant vertices at the same support: drop the larger one.

    The support is the first vertex with two pendant neighbours, and u1
    and u2 are its first two.  With more than 3 vertices, removing such a
    support leaves both pendants and the rest, so only the rows of the
    vertices the lowpoint pass gives three or more pieces are read.
    """
    if g.n_alive() <= 3:
        return None
    adj = g.adj
    for v, k in (sep or separations(g)).pieces.items():  # the keys ascend
        if k >= 3:
            leaves = [u for u in adj[v] if len(adj[u]) == 1]
            if len(leaves) >= 2:
                u1, u2 = leaves[:2]
                e = norm_edge(u2, v)
                return StrongReduction("op1", (u2,), (e,), (e,), (u1, u2, v))
    return None


def find_op2(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Cycle edge whose endpoints each cut the rest apart: delete it.

    The edge is the first in (u1, u2) order; only the rows of the cut
    vertices are read, in id order.
    """
    sep = sep or separations(g)
    pieces = sep.pieces
    for u1, k in pieces.items():  # the keys ascend
        if k >= 2:
            for u2 in g.adj[u1]:
                if u2 > u1 and pieces[u2] >= 2 and (u1, u2) not in sep.bridges:
                    return StrongReduction("op2", (), ((u1, u2),), (), (u1, u2))
    return None


def find_op8(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Twin pair whose boundary vertex separates off the other boundary."""
    sep = sep or separations(g)
    for key, twins in sep.twins:
        u3, u4 = twins[0], twins[1]
        for u2 in key:
            if sep.pieces[u2] >= 2:
                u1 = key[1] if u2 == key[0] else key[0]
                e = norm_edge(u2, u3)
                return StrongReduction("op8", (), (e,), (), (u1, u2, u3, u4))
    return None


def find_op9(g: Graph, sep: Separations | None = None) -> StrongReduction | None:
    """Three twins over one boundary pair: drop one support edge.

    The pair is the first with three twins in the node's grouping, which
    op8 shares.
    """
    for key, twins in sep.twins if sep else twin_groups(g):
        if len(twins) >= 3:
            u2, u1 = key[0], key[1]
            u3, u4, u5 = twins[0], twins[1], twins[2]
            e = norm_edge(u2, u3)
            return StrongReduction("op9", (), (e,), (), (u1, u2, u3, u4, u5))
    return None


def find_op10(
    g: Graph, sep: Separations | None = None, near: set[int] | None = None
) -> StrongReduction | None:
    """Small separated block with a Hamiltonian path: keep only the path.

    A block K is a connected vertex set of at most cap = min(6, n - 3)
    vertices whose neighbourhood is exactly two vertices u < v, so it is a
    component of g - {u, v} touching both.  Blocks are tried in (u, v,
    sorted K) order.  The path uses |K| + 1 edges, so only a block with an
    edge to spare in K + {u, v} can fire, and the path passes through every
    vertex of K, so each has degree 2 to |K| + 1.

    If every vertex of a block has degree 2, the block is a path with
    |K| + 1 edges at its vertices, so the spare edge is uv: K lies on a run
    of degree-2 vertices, of at most cap + 1 of them, whose outside
    neighbours are adjacent or equal.  So a block that can fire holds a
    start vertex: one of degree 3 to cap + 1, or one of degree 2 on such a
    run.  A run of more than cap + 1 vertices is long: a block meets it
    only at its ends, and taking in a boundary vertex on it moves the
    boundary one step along the run and keeps the spare edges and the
    paths.  So every block is a core, its vertices off the long runs, with
    its boundary moved along them.

    Cores are grown from the start vertices over neighbour bit masks, each
    set once, from the first start vertex it holds (ESU enumeration), and
    each core with two boundary vertices and an edge to spare is recorded
    with every move of its boundary.  A set is dropped when no core grown
    from it can have two boundary vertices (_cannot_close), and when it
    holds two degree-2 twins, as a path through both would close a cycle.

    With near=None every block is grown.  Otherwise only blocks that hold
    a vertex of near or whose boundary {u, v} lies inside near are: this is
    exact when no block fires in some trace ancestor and near holds every
    vertex whose adjacency row changed since that ancestor.  Any other
    block has the same neighbourhood, edges and Hamiltonian paths as it
    had there, and no reduction increases n, so cap has not grown since.
    Such a block holds a vertex x of near or next to near, and x or the end
    of x's degree-2 run within cap steps is a start vertex it holds; only
    those start vertices are grown from.  Each run is walked once per
    search: a walk goes on past the vertices of near and next to near that
    it meets, and stops at a vertex an earlier walk has seen (_walk_run).
    """
    cap = min(6, g.n_alive() - 3)
    if cap < 1:
        return None
    adj = g.adj
    kind: dict[int, int] = {}
    on_long: list[int] = []  # vertices seen on long runs
    marks: set[int] = set()  # the vertices of near and next to near
    reach: dict[int, list] = {}  # the run ends within cap steps of each mark on a run

    def classify(x):
        # 2 for a start vertex, 1 for another vertex a core may hold, else 0
        c = kind.get(x)
        if c is None:
            d = len(adj[x])
            if d != 2:
                c = kind[x] = 2 if 3 <= d <= cap + 1 else 0
            else:
                run, (a, b) = _walk_run(adj, x, cap + 1, marks, kind)
                if a is None or b is None or len(run) > cap + 1:
                    c = 0
                    on_long.extend(run)
                else:
                    c = 2 if a == b or g.has_edge(a, b) else 1
                kind.update(dict.fromkeys(run, c))
                for i, y in enumerate(run):
                    if y in marks:
                        reach[y] = [a if i < cap else None, b if len(run) - i <= cap else None]
        return c

    starts = set()
    if near is None:
        near_mask = -1
        # a qualifying run ends at vertices of degree 3 or more, and a block
        # on it holds the run vertex next to one of them
        for x in g.alive_list():
            if len(adj[x]) > 2:
                starts.update(y for y in (x, *adj[x]) if classify(y) == 2)
    else:
        live = [x for x in near if g.alive[x]]
        near_mask = _mask(live)
        marks.update(y for x in live for y in (x, *adj[x]))
        for x in marks:
            if classify(x) == 2:
                starts.add(x)
            elif len(adj[x]) == 2:
                # a block that can fire and holds x holds an end of x's run
                # within cap steps, and that end is a start vertex
                starts.update(e for e in reach[x] if e is not None and classify(e) == 2)
    starts = sorted(starts)
    # neighbour masks of the vertices cores can hold, within cap - 1 of a start
    nb = {x: _mask(adj[x]) for x in starts}
    frontier = starts
    for _ in range(cap - 1):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in nb and classify(y):
                    nb[y] = _mask(adj[y])
                    nxt.append(y)
        frontier = nxt
    allowed = _mask(nb)
    groups: dict[tuple[int, ...], list[int]] = {}
    for x in nb:
        if len(adj[x]) == 2:
            groups.setdefault(tuple(adj[x]), []).append(x)
    twins = {x: _mask(t) ^ 1 << x for t in groups.values() if len(t) > 1 for x in t}
    long_mask = _mask(set(on_long))
    blocks = []

    def record(k, out, edges, size):
        u = (out & -out).bit_length() - 1
        v = out.bit_length() - 1
        if edges + g.has_edge(u, v) <= size + 1:
            return
        room = cap - size
        at_v = moves(v, k, room)
        for i, (ku, u2) in enumerate(moves(u, k, room)):
            for kv, v2 in at_v[: room - i + 1]:
                k2 = k | ku | kv
                if k2 & near_mask or (near_mask >> u2) & (near_mask >> v2) & 1:
                    blocks.append((min(u2, v2), max(u2, v2), _members(k2)))

    def moves(b, k, room):
        # (absorbed vertices, new boundary vertex) for 0 to room steps from
        # the boundary vertex b of the core k along a long run
        out = [(0, b)]
        if len(adj[b]) == 2 and not classify(b):
            a, c = adj[b]
            prev = a if k >> a & 1 else c
            took = 0
            for _ in range(room):
                took |= 1 << b
                a, c = adj[b]
                prev, b = b, c if a == prev else a
                out.append((took, b))
        return out

    for s in starts:
        allowed ^= 1 << s
        # each entry is a connected core k of size vertices with out = N(k)
        # and edges edges in k or from k to out; ext holds the vertices that
        # may join, and no other vertex of out ever does.  The cores are
        # grown depth first; the blocks they give are sorted below.
        cores = [(1 << s, 1, nb[s], nb[s] & allowed, len(adj[s]))]
        while cores:
            k, size, out, ext, edges = cores.pop()
            if out.bit_count() == 2:
                record(k, out, edges, size)
            if size == cap:
                continue
            while ext:
                bit = ext & -ext
                ext ^= bit
                w = bit.bit_length() - 1
                if twins and twins.get(w, 0) & k:
                    continue  # a path through k would close a cycle at the twins
                k2 = k | bit
                out2 = (out | nb[w]) & ~k2
                bound = out2.bit_count()
                rest = cap - size - 1
                if bound - rest > 2:
                    continue
                ext2 = ext | nb[w] & allowed & ~k2 & ~out
                stuck = out2 & ~ext2
                if stuck and bound > 2:
                    n_stuck = stuck.bit_count()
                    if n_stuck > 2 or (n_stuck == 2 and long_mask or twins) and _cannot_close(
                        out2, stuck, k2, rest, nb, long_mask, twins
                    ):
                        continue
                cores.append(
                    (k2, size + 1, out2, ext2, edges + len(adj[w]) - (nb[w] & k).bit_count())
                )
    blocks.sort()
    for u, v, k_comp in blocks:
        inside = {*k_comp, u, v}
        path = hamiltonian_path_between(g, u, v, inside)
        if path is None:
            continue
        keep = {norm_edge(a, b) for a, b in zip(path, path[1:])}
        extra = [
            (a, b)
            for a in sorted(inside)
            for b in adj[a]
            if a < b and b in inside and (a, b) not in keep
        ]
        return StrongReduction("op10", (), tuple(extra), (), (u, v, tuple(k_comp)))
    return None


def _walk_run(
    adj: list[list[int]], x: int, limit: int, marks: set[int], walked: dict[int, int]
) -> tuple[list[int], list]:
    """The vertices of the degree-2 run through x seen, in order along it, and its ends.

    Each side is walked while the next vertex lies within limit steps of x
    or of a vertex of marks passed on the way.  The end on each side is the
    first vertex of another degree, or None when the walk stops first: past
    limit steps, back at x (the run closes a cycle), or at a vertex in
    walked.  An earlier walk that saw such a vertex stopped after limit
    steps past its last mark, so that end lies more than limit steps from
    every vertex this walk sees.
    """
    sides: list[list[int]] = [[], []]
    ends: list = [None, None]
    for i in (0, 1):
        prev, cur, left = x, adj[x][i], limit
        while left and cur != x:
            if len(adj[cur]) != 2:
                ends[i] = cur
                break
            if cur in walked:
                break
            sides[i].append(cur)
            left = limit if cur in marks else left - 1
            a, b = adj[cur]
            prev, cur = cur, b if a == prev else a
        if cur == x:
            break  # the whole cycle lies on the first side
    return [*reversed(sides[0]), x, *sides[1]], ends


def _cannot_close(out, stuck, k, rest, nb, long_mask, twins) -> bool:
    """Whether no core grown from k with rest more vertices has two boundary vertices.

    The vertices of out in stuck never join.  Neither does one whose twin
    is in k; and with two that never join, one next to a long run, which
    would put a run vertex in out for good, blocks every core it joins.
    Each vertex that joins removes at most one vertex from out.
    """
    free = out & ~stuck
    if twins:
        for y in _members(free):
            if twins.get(y, 0) & k:
                stuck |= 1 << y
        free = out & ~stuck
    n_stuck = stuck.bit_count()
    if n_stuck == 2 and any(nb[y] & long_mask & ~stuck for y in _members(free)):
        return True
    return n_stuck + max(0, free.bit_count() - rest) > 2


def _mask(vertices) -> int:
    """The bit mask of distinct vertices."""
    return sum(1 << x for x in vertices)


def _members(mask: int) -> list[int]:
    """The vertices of a bit mask, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise StaleWitness(msg)


def _revalidate_strong(g: Graph, r: StrongReduction, sep: Separations | None) -> None:
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
        sep = sep or separations(g)
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
            _check((sep or separations(g)).pieces[u2] >= 2, "separation condition gone")
    elif r.kind == "op10":
        u, v, k_comp = r.witness
        _check(g.is_alive(u) and g.is_alive(v), f"boundary {u} or {v} gone")
        _check(g.is_alive(k_comp[0]), f"block vertex {k_comp[0]} gone")
        block = component_of(g, k_comp[0], blocked=frozenset((u, v)))
        _check(block == list(k_comp), "separated block changed")
        touched = {y for x in block for y in g.adj[x]} - set(block)
        _check(touched == {u, v}, f"block neighbourhood is not exactly {{{u}, {v}}}")


def apply_strong_reduction(
    g: Graph, r: StrongReduction, sep: Separations | None = None
) -> Graph:
    """The graph after the step; sep is separations(g), computed when None."""
    _revalidate_strong(g, r, sep)
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
    # g is connected, so h is when the live ends of the removed edges still
    # meet: op1's one end left is its support, op2's edge is no bridge of g
    # (checked above), and op8, op9 and op10 keep a path among their witness
    if r.kind in ("op8", "op9", "op10"):
        within = {*r.witness[:2], *r.witness[2]} if r.kind == "op10" else set(r.witness)
        fence = frozenset(y for x in within for y in h.adj[x]) - within
        ends = {x for e in r.removed_edges for x in e}
        if not ends <= set(component_of(h, min(ends), blocked=fence)):
            raise InternalInvariant(f"{r.kind} disconnected the graph")
    return h


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
    """Cut-points with small hanging blocks: peel them off one after another.

    One peel solves K + {v} plus a pendant at v exactly and replaces K by
    that pendant, with c = opt - 1; a step's c sums its peels'.  The first
    peel is at the first cut vertex v whose g - v has a piece of 2-8
    vertices (the lowpoint pass gives the piece sizes, so only v is
    searched), and K is the first such piece in component order, found by
    searches from v's neighbours that stop past 8 vertices (_small_piece).

    The run goes on with the peel of K' = {v, p} off w, where p is the
    pendant just added, while v's neighbours are exactly {p, w}, v is the
    only vertex left with an id below w and more than 10 vertices are
    left.  That peel is then what find_reduction would return at the next
    node, given that it found no strong rule and no op3 here, as it has
    when the engine calls this:
    - A peel keeps the bridges among the other vertices and the component
      count of g - x for every x, and twin groups only lose members but
      for v's new group {v}.  So op2, op3, op8 and op9 stay silent, the new
      bridge v-p having the pendant p at one end, and op1 could fire only
      at v, which has one pendant.
    - An op10 block holding p has no Hamiltonian path, p having degree 1.
      One holding v but not p, with the boundary {p, x}, is v plus a block
      with the boundary {v, x} before the peel that has as many edges to
      spare and paths; one holding neither was a block before the peel.
      op10 found nothing then, and its size cap only shrinks.
    - g - v has pieces of 1 and more than 8 vertices, so the first cut
      vertex with a piece of 2-8 is w, and its first piece is {v, p}.
    Pendant ids are the ones single steps would assign.  Such a path peel
    is recorded by w alone, appended to the step's path: K' + {w} is the
    path p-v-w, a tree, so with the new pendant at w its only spanning tree
    has v and w internal, and the peel adds 1 to c.
    """
    sep = sep or separations(g)
    for v in sep.sizes:  # the cut vertices, in id order
        if any(2 <= k <= 8 for k in sep.sizes[v]):
            k_comp = _small_piece(g.adj, v)
            if k_comp:
                break
    else:
        return None
    kv = {v, *k_comp}
    block = tuple((x, y) for x in sorted(kv) for y in g.adj[x] if y > x and y in kv)
    peel = _peel(v, tuple(k_comp), g.vertex_count, block)
    path = []
    gone = set(k_comp)  # vertices of g the run has removed
    left = g.n_alive() - len(k_comp) + 1
    low = 0  # every vertex of g below low is gone but v
    while left > 10:
        rest = [x for x in g.adj[v] if x not in gone]
        if len(rest) != 1:
            break
        w = rest[0]
        if w < v or any(g.alive[x] and x not in gone for x in range(low, w) if x != v):
            break
        gone.add(v)
        low = w
        path.append(w)
        v, left = w, left - 1
    return WeakReduction("op4", peel.inner_opt - 1 + len(path), 1, peel=peel, path=tuple(path))


def _small_piece(adj: list[list[int]], v: int) -> list[int] | None:
    """The component of 2-8 vertices of the connected graph minus v with
    the least member, ascending, or None.

    Every component holds a neighbour of v, so each is searched from one,
    and a search is abandoned once it passes 8 vertices.
    """
    seen = {v}
    small = []
    for x in adj[v]:
        if x in seen:
            continue
        piece, stack = {x}, [x]
        while stack and len(piece) <= 8:
            for y in adj[stack.pop()]:
                if y != v and y not in piece:
                    piece.add(y)
                    stack.append(y)
        seen |= piece
        if 2 <= len(piece) <= 8:  # a search that stops past 8 has more
            small.append(sorted(piece))
    return min(small, default=None)


def _peel(v: int, k_comp: tuple[int, ...], pendant: int, block: tuple[Edge, ...]) -> Peel:
    """The peel of K = k_comp off v; block lists the edges of G[K + {v}] in order.

    The pendant's id is above every other.  A block with |K| edges is a
    tree, and with the pendant it is its own only spanning tree, so it is
    taken without a search; any other block plus the pendant is solved by
    opt_spanning_tree.
    """
    if len(block) == len(k_comp):
        deg = dict.fromkeys(k_comp, 0)
        deg[v] = 1  # the pendant edge
        for a, b in block:
            deg[a] += 1
            deg[b] += 1
        return Peel(v, k_comp, pendant, block, sum(d >= 2 for d in deg.values()), block)
    old = sorted([*k_comp, v, pendant])
    pos = {x: i for i, x in enumerate(old)}
    t = opt_spanning_tree(Graph(len(old), [(pos[a], pos[b]) for a, b in [*block, (v, pendant)]]))
    # old is ascending, so the renamed edges stay sorted
    inner = tuple((old[a], old[b]) for a, b in t.edges if old[b] != pendant)
    return Peel(v, k_comp, pendant, inner, t.weight, block)


def find_op11(g: Graph, sep: Separations | None = None) -> WeakReduction | None:
    """Contract a run of degree-2 edges along one chain.

    One step is k paper-op11 contractions, each with c = 1, so c = k.  The
    first merges u2 into u1, where (u1, u2) is the first edge whose
    endpoints both have degree 2, so u2 is u1's lowest-id degree-2
    neighbour.  While u1 has degree 2, its lowest-id degree-2 neighbour is
    merged into it again.  A contraction changes no degree unless it
    closes a triangle, which leaves u1 at degree 1 and ends the run, so
    each is the edge a search of the contracted graph would pick first;
    other rules are tried only between steps.  Each contraction records its
    merged pair and its outside pair (o1, o2), the other neighbours of u1
    and u2.

    The run is walked in g: u1's two current neighbours a < b are kept with
    the vertex each was reached from (u1 itself, or the run vertex merged
    before it), and a merged vertex's outside neighbour is its other
    neighbour in g.
    """
    adj = g.adj
    for u1, row in enumerate(adj):  # a dead vertex's row is empty
        if len(row) == 2 and (len(adj[row[0]]) == 2 or len(adj[row[1]]) == 2):
            break
    else:
        return None
    a, b = row
    from_a = from_b = u1
    run = []
    while True:
        if len(adj[a]) != 2:
            if len(adj[b]) != 2:
                break
            a, from_a, b, from_b = b, from_b, a, from_a
        # a merges into u1; b stays its neighbour, and a's other one joins it
        x, y = adj[a]
        o2 = y if x == from_a else x
        run.append((u1, a, b, o2))
        if o2 == b:
            break  # a triangle closed: u1 is left with one neighbour
        if o2 < b:
            a, from_a = o2, a
        else:
            a, from_a, b, from_b = b, from_b, o2, a
    return WeakReduction("op11", len(run), 1, contractions=tuple(run))


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
        s = r.peel
        _check(r.c == s.inner_opt - 1 + len(r.path), "constant is not the peels' sum")
        rows, up = _rows_of(g)
        v, k_comp = s.cut_vertex, s.component
        if not (0 <= v < len(up) and up[v]):
            raise StaleWitness(f"cut vertex {v} gone")
        if v in k_comp or not _hangs(rows, up, k_comp, v):
            raise StaleWitness(f"hanging block at {v} changed")
        p = len(rows)
        if s.pendant != p:
            raise StaleWitness(f"pendant id at {v} mismatch")
        # K goes; v is its only neighbour outside it, and gains the
        # pendant, whose id is the largest
        for x in k_comp:
            rows[x] = []
            up[x] = False
        rows[v] = [y for y in rows[v] if y not in k_comp] + [p]
        rows.append([v])
        up.append(True)
        for w in r.path:
            # v's row ends with its pendant p, whose row is [v], so {v, p}
            # is a component of the graph minus w exactly when w is neither
            # and v has no neighbour besides w and p
            if not (0 <= w < len(up) and up[w]):
                raise StaleWitness(f"cut vertex {w} gone")
            rest = rows[v][:-1]
            if w == v or w == p or rest and rest != [w]:
                raise StaleWitness(f"hanging block at {w} changed")
            rows[v], rows[p] = [], []
            up[v] = up[p] = False
            p += 1
            rows[w] = [y for y in rows[w] if y != v] + [p]
            rows.append([w])
            up.append(True)
            v = w
        h = Graph(0)
        h.write_rows(rows, up)
        out = [h]
    elif r.kind == "op11":
        _check(r.c == len(r.contractions), "constant is not the contraction count")
        _check(
            all(c[0] == r.contractions[0][0] for c in r.contractions),
            "the contractions of a run merge into more than one vertex",
        )
        rows, up = _rows_of(g)
        for u1, u2, o1, o2 in r.contractions:
            r1 = rows[u1]
            if u2 not in r1:
                raise StaleWitness(f"contracted edge {u1}-{u2} gone")
            r2 = rows[u2]
            if len(r1) != 2 or len(r2) != 2:
                raise StaleWitness(f"degrees at {u1}-{u2} changed")
            if o1 not in r1 or o2 not in r2:
                raise StaleWitness(f"outside neighbors of {u1}-{u2} changed")
            # u2 goes with its edges, then u1 and o2 are joined unless o1 is o2
            for y in r2:
                rows[y].remove(u2)
            rows[u2] = []
            up[u2] = False
            if o1 != o2:
                add_edge_in(rows, up, u1, o2)
        h = Graph(0)
        h.write_rows(rows, up)
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
    # every part is connected by the checks above: op3's sides are the
    # components of g minus the bridge, an op4 block is a component of
    # h - v, so h minus the block stays connected, and the pendant hangs
    # off v, and an op11 contraction keeps u1 joined to both o1 and o2
    return out


# An op4 or op11 step edits the same few rows once per peel or
# contraction.  Applying one sweeps private copies of the parent's rows
# and alive mask, which the parent keeps, checking each peel or
# contraction against them as the ones before it left them, and has
# Graph.write_rows recount the graph once at the end.  Where a record
# stands for Graph edits, the sweep makes them with the same checks and
# messages (graph.add_edge_in, remove_edge_in and revive_in).  An op4 path
# peel has no record but its cut vertex: apply checks its block {v, p} by
# v's row instead of a _hangs search.
#
# Undoing a step edits the rows of the child graph it rebuilds, which the
# lift owns, by the step's net edit only, and hands Graph.write_rows the
# counts it kept (see _undo and _undo_peel).


def _hangs(rows: list[list[int]], up: list[bool], k_comp: tuple[int, ...], v: int) -> bool:
    """Whether k_comp, ascending, is a component of the graph minus v.

    The search stops at the first vertex outside k_comp, so a peel's check
    costs the block, not the rest of the graph.
    """
    start = k_comp[0]
    if not (0 <= start < len(up) and up[start]):
        return False
    inside = set(k_comp)
    seen = {start}
    stack = [start]
    while stack:
        for y in rows[stack.pop()]:
            if y != v and y not in seen:
                if y not in inside:
                    return False
                seen.add(y)
                stack.append(y)
    return sorted(seen) == list(k_comp)


def _rows_of(g: Graph) -> tuple[list[list[int]], list[bool]]:
    """Private copies of g's rows and alive mask, for a sweep to edit."""
    return list(map(list, g.adj)), list(g.alive)


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


def find_reduction(
    g: Graph, kinds, sep: Separations, near: set[int] | None = None
) -> StrongReduction | WeakReduction | None:
    """First reduction of the given kinds that fires, in the order given.

    near is op10's worklist; see find_op10.
    """
    for k in kinds:
        r = _FINDERS[k](g, sep, near) if k == "op10" else _FINDERS[k](g, sep)
        if r is not None:
            return r
    return None


class TraceNode:
    __slots__ = ("index", "graph", "parent", "applied", "children")

    def __init__(
        self,
        index: int,
        graph: Graph | None,  # kept at the root and the leaves only
        parent: int | None,
        applied: StrongReduction | WeakReduction | None = None,
        children: list[int] | None = None,  # a new empty list when None
    ):
        self.index = index
        self.graph = graph
        self.parent = parent
        self.applied = applied
        self.children = [] if children is None else children


class Lifted:
    """A trace node's rebuilt graph and the tree lifted onto it.

    edges is the tree's edge set, deg the tree degree of every vertex id,
    and weight the number of vertices of tree degree 2 or more, the tree's
    internal count.  _undo edits all four in place.
    """

    __slots__ = ("graph", "edges", "deg", "weight")

    def __init__(self, graph: Graph, edges: set[Edge], deg: list[int], weight: int):
        self.graph = graph
        self.edges = edges
        self.deg = deg
        self.weight = weight

    @classmethod
    def of(cls, g: Graph, t: TreeResult) -> Lifted:
        """g with its spanning tree t, taken as checked."""
        deg = [0] * g.vertex_count
        for u, v in t.edges:
            deg[u] += 1
            deg[v] += 1
        return cls(g, set(t.edges), deg, t.weight)


class ReductionTrace:
    def __init__(self, mode: str):
        self.mode = mode
        self.nodes: list[TraceNode] = []

    def add_node(self, graph: Graph | None, parent: int | None) -> int:
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
        """Lift the leaf trees to a spanning tree of the root graph.

        Children come after their parent, so one reverse walk sees every
        node after its children.  Each internal node's graph and tree are
        rebuilt together by undoing its step once on its children's
        (_undo), starting from copies of the leaf graphs; a child's state
        is dropped once its parent has used it.  Every leaf tree must be
        the one tree_result gives for its edges on its leaf graph.  An
        undone step checks only what it edits, so the root gets the one
        whole-graph check: the rebuilt graph must equal the input, and
        tree_result of the lifted edges on it must have the weight the
        steps kept.
        """
        lifted: dict[int, Lifted] = {}
        for node in reversed(self.nodes):
            if node.children:
                lifted[node.index] = _undo(node.applied, [lifted.pop(c) for c in node.children])
                continue
            if node.index not in leaf_trees:
                raise InternalInvariant(f"no tree for leaf {node.index}")
            t = leaf_trees[node.index]
            if tree_result(node.graph, t.edges) != t:
                raise InternalInvariant(f"tree of leaf {node.index} does not match its edges")
            if node.parent is None:
                return t
            lifted[node.index] = Lifted.of(node.graph.copy(), t)
        root, top = self.nodes[0], lifted[0]
        if top.graph.alive != root.graph.alive or top.graph.adj != root.graph.adj:
            raise InternalInvariant("undoing the steps did not rebuild the input graph")
        t = tree_result(root.graph, top.edges)
        if t.weight != top.weight:
            raise InternalInvariant(f"the steps kept weight {top.weight}, the root tree has {t.weight}")
        return t


def _undo(r: StrongReduction | WeakReduction, parts: list[Lifted]) -> Lifted:
    """The graph r was applied to and its lifted tree, from the children's.

    One reverse replay of the step rebuilds the graph in place in the
    first part and edits its tree beside it, so a step costs its own
    edits, not the graph's size.  Every tree edge it adds must be an edge
    of the rebuilt rows and every one it removes must be in the tree; the
    tree keeps n - 1 edges, and its weight, kept from the degrees the step
    changed, must meet the step's floor.  op3 takes in its second part's
    rows, tree edges and degrees.
    """
    if isinstance(r, StrongReduction):
        (t,) = parts
        floor, h = t.weight, t.graph
        for v in r.removed_vertices:
            h.revive(v)
        for u, v in r.removed_edges:
            h.add_edge(u, v)
        _add_tree_edges(t, r.restore_edges)
        _check_size(t)
        if t.weight < floor:
            raise InternalInvariant("strong lift lost weight")
        return t
    if len(parts) != r.parts:
        raise ArityMismatch(f"{r.kind} expects {r.parts} subtrees, got {len(parts)}")
    floor = sum([p.weight for p in parts]) + r.c
    t = parts[0]
    if r.kind == "op3":
        t2 = parts[1]
        h, deg = t.graph, t.deg
        side, rows2, deg2 = r.sides[1], t2.graph.adj, t2.deg
        for x in side:
            h.revive(x)
            deg[x] = deg2[x]
        for x in side:
            for y in rows2[x]:
                if x < y:
                    h.add_edge(x, y)
        h.add_edge(*r.bridge)
        t.edges |= t2.edges
        t.weight += t2.weight
        _add_tree_edges(t, (r.bridge,))
    elif r.kind == "op4":
        _undo_peel(t, r.peel, r.path)
    elif r.kind == "op11":
        _undo_run(t, r.contractions)
    else:
        raise InternalInvariant(f"unknown weak reduction {r.kind}")
    _check_size(t)
    if r.kind == "op4" and t.weight != floor:
        raise InternalInvariant("block lift must gain exactly c")
    if t.weight < floor:
        raise InternalInvariant(f"{r.kind} lift fell below its floor")
    return t


def _undo_peel(t: Lifted, s: Peel, path: tuple[int, ...]) -> None:
    """Undo an op4 step on t: its path peels, last first, then its first peel.

    Path peel i took {w_(i-1), p + i - 1} off w_i with the pendant p + i,
    w_0 and p being the first peel's cut vertex and pendant.  Undone one
    at a time, each peel would revive the pendant of the peel before it
    and join it to w_(i-1), only for that peel's undo to take the edge out
    and pop the id again.  So the step is undone as its net edit: the last
    pendant edge leaves the tree and the rows, every pendant id is popped,
    each w_(i-1) is revived and joined to w_i, and K is revived with its
    block edges and inner tree.

    The last pendant edge must be in the tree and the last id alive, and
    every other pendant dead and bare, as the peel after it left it.  The
    revives and joins are checked in peel order with the messages of the
    Graph edits they stand for, and the inner tree must be a tree on
    K + {w_0}.  The rest of each peel's checks hold by construction: its
    pendant edge is the one the peel after it added.
    """
    h, edges, deg = t.graph, t.edges, t.deg
    rows, up = h.adj, h.alive
    cuts = (s.cut_vertex, *path)
    w, p = cuts[-1], s.pendant + len(path)
    if (w, p) not in edges:  # the pendant's id is the larger
        raise InternalInvariant("pendant edge missing from subtree")
    edges.remove((w, p))
    t.weight -= deg[w] == 2
    deg[w] -= 1
    remove_edge_in(rows, w, p)
    last = len(rows) - 1
    if not (last >= 0 and up[last]):
        raise InternalInvariant(f"vertex {last} already dead")
    size = h.edge_count() - 1 - len(rows[last])
    for y in rows.pop():
        rows[y].remove(last)
    up.pop()
    deg.pop()
    if any(up[s.pendant : last]) or any(rows[s.pendant : last]):
        x = next(x for x in range(s.pendant, last) if up[x] or rows[x])
        raise InternalInvariant(f"vertex {x} is not dead and bare")
    del rows[s.pendant :], up[s.pendant :], deg[s.pendant :]
    weight = t.weight
    for v, w in zip(cuts[-2::-1], cuts[:0:-1]):
        # revive w_(i-1) and join it to w_i, with the checks and messages of
        # revive_in and add_edge_in; v is bare, so the join is no duplicate
        if up[v] or rows[v]:
            raise InternalInvariant(f"vertex {v} is not dead and bare")
        up[v] = True
        e = (v, w) if v < w else (w, v)
        if v == w:
            raise InternalInvariant(f"self loop at {v}")
        if not up[w]:
            raise InternalInvariant(f"edge {e[0]}-{e[1]} touches a dead vertex")
        rows[v].append(w)
        insort(rows[w], v)
        edges.add(e)
        deg[v] += 1
        d = deg[w] = deg[w] + 1
        weight += d == 2
    t.weight = weight
    for x in s.component:
        revive_in(rows, up, x)
    for a, b in s.block_edges:
        add_edge_in(rows, up, a, b)
    order = h.n_alive() - 1 + len(path) + len(s.component)
    h.write_rows(rows, up, (order, size + len(path) + len(s.block_edges)))
    if not _is_tree_on((s.cut_vertex, *s.component), s.inner_tree):
        raise InternalInvariant(f"inner tree at {s.cut_vertex} is not a tree on its block")
    _add_tree_edges(t, s.inner_tree)


def _undo_run(t: Lifted, run: tuple[tuple[int, int, int, int], ...]) -> None:
    """Undo an op11 run on t, its contractions last first, as one net edit.

    Undoing a contraction puts u2 back on the edge u1-o2, or beside it when
    o1 is o2, so undone one at a time each would join u1 to u2, only for
    the contraction before it to take that edge out again when it puts its
    own u2 there.  Every contraction merges into the run's one u1, so the
    sweep keeps only u1's row and tree neighbours, checking each
    contraction against them with the messages of the Graph edits it
    stands for (remove u1-o2 unless o1 is o2, revive u2, add u1-u2 and
    u2-o2), and writes each row it touched once, at the end.
    """
    h, edges, deg = t.graph, t.edges, t.deg
    rows, up = h.adj, h.alive
    n = len(up)
    u1 = run[0][0]
    if any(c[0] != u1 for c in run):
        raise InternalInvariant("the contractions of a run merge into more than one vertex")
    r1 = rows[u1][:]  # u1's row as the undo goes
    t1 = [x for x in r1 if ((u1, x) if u1 < x else (x, u1)) in edges]  # its tree neighbours
    for x in t1:
        edges.remove((u1, x) if u1 < x else (x, u1))
    work: dict[int, list[int]] = {}  # the other rows the run touched, unsorted
    weight, size = t.weight, h.edge_count() + 2 * len(run)
    for _, u2, o1, o2 in reversed(run):
        if o1 != o2:
            if o2 not in r1:
                raise InternalInvariant(f"missing edge {u1}-{o2}")
            r1.remove(o2)
            size -= 1
        if up[u2] or rows[u2]:
            raise InternalInvariant(f"vertex {u2} is not dead and bare")
        up[u2] = True
        if u1 == u2 or not up[u1] or u2 == o2 or not (0 <= o2 < n and up[o2]) or o2 == u1:
            _refuse_joins(up, u1, u2, o2)
        r1.append(u2)
        work[u2] = [u1, o2]
        ro = work.get(o2)
        if ro is None:
            ro = work[o2] = rows[o2][:]
        if o1 != o2:
            ro[ro.index(u1)] = u2
        else:
            ro.append(u2)
        # the tree: u2 takes u1's tree edge to o2, if there is one, and joins u1
        if o2 in t1:
            t1[t1.index(o2)] = u2
            edges.add((u2, o2) if u2 < o2 else (o2, u2))
            deg[u2] += 2
            weight += deg[u2] == 2
        else:
            t1.append(u2)
            deg[u2] += 1
            deg[u1] += 1
            weight += deg[u1] == 2
    edges.update([(u1, x) if u1 < x else (x, u1) for x in t1])
    r1.sort()
    rows[u1] = r1
    for x, row in work.items():
        row.sort()
        rows[x] = row
    h.write_rows(rows, up, (h.n_alive() + len(run), size))
    t.weight = weight


def _refuse_joins(up: list[bool], u1: int, u2: int, o2: int) -> None:
    """Raise what add_edge_in(u1, u2) and then add_edge_in(u2, o2) raise, u2 new and bare."""
    n = len(up)
    if u1 == u2:
        raise InternalInvariant(f"self loop at {u1}")
    if not up[u1]:
        raise InternalInvariant(f"edge {u1}-{u2} touches a dead vertex")
    if u2 == o2:
        raise InternalInvariant(f"self loop at {u2}")
    if not (0 <= o2 < n and up[o2]):
        raise InternalInvariant(f"edge {u2}-{o2} touches a dead vertex")
    raise InternalInvariant(f"duplicate edge {u2}-{o2}")  # o2 is u1


def _is_tree_on(vertices: tuple[int, ...], edges: tuple[Edge, ...]) -> bool:
    """Whether edges are a tree on vertices: one fewer, between them, none closing a cycle.

    The cycle check is a union-find over the vertices alone.
    """
    parent = dict.fromkeys(vertices)  # a root's parent is None
    if len(edges) != len(parent) - 1:
        return False
    for a, b in edges:
        if a not in parent or b not in parent:
            return False
        while (up := parent[a]) is not None:
            a = up
        while (up := parent[b]) is not None:
            b = up
        if a == b:
            return False
        parent[a] = b
    return True


def _add_tree_edges(t: Lifted, edges) -> None:
    """Add edges to t's tree; each must be an edge of t's graph."""
    rows, tree, deg = t.graph.adj, t.edges, t.deg
    weight = t.weight
    for u, v in edges:
        u, v = (u, v) if u < v else (v, u)
        row = rows[u] if 0 <= u and v < len(rows) else ()
        i = bisect_left(row, v)
        if i == len(row) or row[i] != v:
            raise InternalInvariant(f"tree edge {u}-{v} is not a graph edge")
        tree.add((u, v))
        deg[u] += 1
        deg[v] += 1
        weight += (deg[u] == 2) + (deg[v] == 2)
    t.weight = weight


def _check_size(t: Lifted) -> None:
    n = t.graph.n_alive()
    if len(t.edges) != n - 1:
        raise InternalInvariant(f"{len(t.edges)} edges for {n} vertices")


def reduce_to_fixpoint(g: Graph, mode: str) -> ReductionTrace:
    """Apply reductions until none fires, strong ones first at every step.

    Nodes are processed in index order, each with its graph; only the root
    and the leaves keep theirs in the trace.  The root's lowpoint pass
    rejects a disconnected input.  Any other node of at most 3 vertices is
    a leaf with no lowpoint pass and no finder, except a triangle in
    refined mode, which op11 contracts.  No other rule fires under four
    vertices: op1 needs n > 3, op10's blocks have at most n - 3 vertices,
    op8 and op9 need two twins beside their boundary pair, op4 a cut
    vertex with a piece of 2 or more beside another piece, op3 a vertex of
    degree 3, and op2 a cycle edge between two cut vertices.

    In refined mode each node carries op10's worklist near: the vertices
    _changed since the nearest ancestor where op10 found nothing, or None
    while there is none.  A strong step adds what it changed (op10, the
    last strong rule, fired or was not searched); each part of a weak step
    starts from what the step changed in it.
    """
    if mode not in RULESETS:
        raise BadParams(f"unknown mode {mode!r}")
    strong_kinds, weak_kinds = RULESETS[mode]
    has_op10 = "op10" in strong_kinds
    trace = ReductionTrace(mode)
    root = g.copy()
    work = [(trace.add_node(root, None), root, None)]
    while work:
        idx, h, near = work.pop(0)
        node = trace.nodes[idx]
        if idx and h.n_alive() <= 3 and (h.edge_count() < 3 or "op11" not in weak_kinds):
            node.graph = h
            continue
        sep = separations(h)
        if idx == 0 and sep.parts > 1:
            raise DisconnectedInput("input graph is not connected")
        r = find_reduction(h, strong_kinds, sep, near)
        if r is not None:
            child = apply_strong_reduction(h, r, sep)
            node.applied = r
            node.children = [trace.add_node(None, idx)]
            if near is not None:
                near = near | _changed(h, child, r)
            work.append((node.children[0], child, near))
            continue
        w = find_reduction(h, weak_kinds, sep)
        if w is None:
            node.graph = h
            continue
        parts = apply_weak_reduction(h, w)
        node.applied = w
        node.children = [trace.add_node(None, idx) for _ in parts]
        for c, p in zip(node.children, parts):
            work.append((c, p, _changed(h, p, w) if has_op10 else None))
    return trace


def _changed(g: Graph, h: Graph, r: StrongReduction | WeakReduction) -> set[int]:
    """The vertices alive in h that r touches, h being a child of g by r.

    They include every vertex of h whose adjacency row differs from g's or
    whose id is new in h, so no row is compared.
    """
    if isinstance(r, StrongReduction):
        touched = {x for e in r.removed_edges for x in e}
        touched.update(y for x in r.removed_vertices for y in g.adj[x])
    elif r.kind == "op3":
        touched = set(r.bridge)
    elif r.kind == "op4":
        # every cut vertex but the last, and every pendant but the last, is dead in h
        touched = {r.path[-1] if r.path else r.peel.cut_vertex, r.peel.pendant + len(r.path)}
    else:
        touched = {x for record in r.contractions for x in record}
    return {x for x in touched if h.is_alive(x)}
