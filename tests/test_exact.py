"""Exact solvers: optimal spanning tree, Hamiltonian path, maximum cover."""

import random
import sys
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from mist import Graph, norm_edge, run, verify_run
from mist.errors import (
    BadParams,
    DisconnectedInput,
    InternalInvariant,
    NonTermination,
    PreconditionViolated,
    SizeCapExceeded,
)
import mist.cover
import mist.exact
from mist.cover import _augment, _two_matching, max_tfpcc, validate_tfpcc
from mist.exact import (
    TreeResult,
    _greedy_weight,
    cut_bound,
    hamiltonian_path_between,
    internal_bound,
    opt_spanning_tree,
    spanning_fault,
    tree_result,
)
from mist.generate import gen_cycle, gen_gnp, gen_path, gen_sparse, gen_theta, gen_twins
from mist.reduce import _peel, reduce_to_fixpoint

from graphgen import connected_graphs_up_to_iso
from helpers import (
    add_vertex,
    brute_ham_path,
    brute_opt_tree,
    brute_tfpcc,
    build_graph,
    edge_list_max_tfpcc,
    entry_cut_greedy_weight,
    entry_cut_opt_spanning_tree,
    induced_subgraph,
    naive_components,
    op4_peels,
    path_cover_from_tree,
    random_connected,
    random_tree,
    reference_max_tfpcc,
    reference_opt_spanning_tree,
    search_always_two_matching,
    tree_scan_augment,
    tree_vertices,
)


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_opt_path5():
    assert opt_spanning_tree(path(5)).weight == 3


def test_opt_star():
    assert opt_spanning_tree(star(5)).weight == 1


def test_opt_cycle6():
    assert opt_spanning_tree(cycle(6)).weight == 4


def test_opt_single_vertex():
    t = opt_spanning_tree(Graph(1))
    assert t.weight == 0
    assert t.edges == ()


def test_opt_rejects_disconnected():
    with pytest.raises(DisconnectedInput):
        opt_spanning_tree(build_graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("ids", [(0, 1, 2, 3), (9, 2, 6, 4)])
def test_opt_rejects_a_disconnected_graph_with_a_trees_edge_count(ids):
    # a triangle and an isolated vertex: n - 1 edges, but no tree
    a, b, c, lone = ids
    g = build_graph(10, [(a, b), (b, c), (a, c)])
    for v in set(range(10)) - set(ids):
        g.remove_vertex(v)
    assert (g.n_alive(), g.edge_count(), g.is_alive(lone)) == (4, 3, True)
    with pytest.raises(DisconnectedInput):
        opt_spanning_tree(g)


def test_opt_respects_cap(monkeypatch):
    with pytest.raises(SizeCapExceeded):
        opt_spanning_tree(path(13))
    monkeypatch.setattr(mist.exact, "OST_CAP", 13)
    assert opt_spanning_tree(path(13)).weight == 11


def test_tree_result_counts_internals():
    t = tree_result(path(3), [(0, 1), (1, 2)])
    assert t.weight == 1
    assert set(t.leaves) == {0, 2}
    assert tree_vertices(t) == [0, 1, 2]


def on_ids(vertices, edges):
    """The graph on ids 0..max(vertices) with the given edges, where only
    the listed vertices are alive."""
    g = Graph(max(vertices, default=-1) + 1, edges)
    for x in set(range(g.vertex_count)) - set(vertices):
        g.remove_vertex(x)
    return g


@pytest.mark.parametrize(
    "g, edges, match",
    [
        (path(3), [(0, 1), (1, 3)], "edge 1-3 leaves the vertex set"),
        (on_ids([0, 2, 4], [(0, 2), (2, 4)]), [(0, 2), (2, 3)],
         "tree edge 2-3 is not a graph edge"),
        # -1 must not wrap around to the largest id
        (cycle(4), [(0, 1), (1, 2), (-1, 3)], "edge -1-3 leaves the vertex set"),
        (on_ids([5, 6, 7], [(5, 6), (6, 7)]), [(6, 7), (4, 5)],
         "tree edge 4-5 is not a graph edge"),
        (path(3), [(0, 1), (1, 0)], "cycle in tree edges"),
        (complete(3), [(1, 1), (0, 2)], "tree edge 1-1 is not a graph edge"),
        (path(3), [(0, 1)], "1 edges for 3 vertices"),
        (Graph(0), [], "0 edges for 0 vertices"),
        (path(3), [(0, 2), (1, 2)], "tree edge 0-2 is not a graph edge"),
        (build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), [(0, 1), (1, 2), (0, 2)],
         "cycle in tree edges"),
    ],
    ids=[
        "above", "gap", "negative", "below", "repeated", "loop", "short", "empty",
        "non-edge", "triangle",
    ],
)
def test_tree_result_rejects_what_is_not_a_spanning_tree(g, edges, match):
    with pytest.raises(InternalInvariant, match=match):
        tree_result(g, edges)
    # the one check behind tree_result and verify_run's tree-spans-input
    assert spanning_fault(g, edges) == match
    if not g.n_alive():
        with pytest.raises(BadParams, match="empty graph"):
            run(g, "simple", keep_state=True)  # so no report to tamper with
        return
    report = run(g, "simple", keep_state=True)
    report.tree = report.tree._replace(edges=tuple(edges))
    assert "tree-spans-input" in [c.name for c in verify_run(g, report).failing()]


def test_tree_result_on_one_and_two_vertices():
    assert tree_result(on_ids([5], []), []) == TreeResult((), 0, (5,))
    assert tree_result(on_ids([3, 7], [(3, 7)]), [(7, 3)]) == TreeResult(((3, 7),), 0, (3, 7))
    g = on_ids([3, 9, 40], [(3, 9), (9, 40), (3, 40)])
    assert tree_result(g, [(40, 9), (3, 9)]) == TreeResult(((3, 9), (9, 40)), 1, (3, 40))


def test_ham_path_complete_graph():
    p = hamiltonian_path_between(complete(4), 0, 1)
    assert p is not None
    assert p[0] == 0 and p[-1] == 1
    assert sorted(p) == [0, 1, 2, 3]


def test_ham_path_star_leaf_to_leaf_absent():
    assert hamiltonian_path_between(star(4), 1, 2) is None


def test_ham_path_c4_opposite_absent():
    assert hamiltonian_path_between(cycle(4), 0, 2) is None


def test_ham_path_respects_cap():
    with pytest.raises(SizeCapExceeded):
        hamiltonian_path_between(path(11), 0, 10)


def test_tfpcc_triangle_drops_to_two_edges():
    assert max_tfpcc(complete(3)).edge_count() == 2


def test_tfpcc_c5_keeps_the_cycle():
    assert max_tfpcc(cycle(5)).edge_list() == cycle(5).edge_list()


def test_tfpcc_k4_four_cycle():
    assert max_tfpcc(complete(4)).edge_count() == 4
    assert brute_tfpcc(4, complete(4).edge_list()) == 4


def test_tfpcc_respects_forced_leaves():
    c = max_tfpcc(cycle(5), forced_leaves=(0,))
    assert c.degree(0) <= 1
    assert c.edge_count() == 4


def test_tfpcc_matches_brute_force_exhaustively():
    for g in connected_graphs_up_to_iso(6):
        n, edges = g.n_alive(), g.edge_list()
        assert max_tfpcc(g).edge_count() == brute_tfpcc(n, edges), g


@st.composite
def connected_instances(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    g = random_tree(n, rng)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    for u, v in pairs:
        if rng.random() < 0.4:
            g.add_edge(u, v)
    return g


@settings(max_examples=40)
@given(connected_instances())
def test_opt_matches_brute_force(g):
    n, edges = g.n_alive(), g.edge_list()
    assert opt_spanning_tree(g).weight == brute_opt_tree(n, edges)


@settings(max_examples=40)
@given(connected_instances())
def test_tfpcc_matches_brute_force(g):
    n, edges = g.n_alive(), g.edge_list()
    assert max_tfpcc(g).edge_count() == brute_tfpcc(n, edges)


@settings(max_examples=40)
@given(connected_instances(max_n=6), st.integers(min_value=0, max_value=5))
def test_ham_path_matches_permutation_oracle(g, pick):
    n = g.n_alive()
    u, v = 0, 1 + pick % (n - 1)
    found = hamiltonian_path_between(g, u, v)
    assert (found is not None) == brute_ham_path(n, g.edge_list(), u, v)
    if found is not None:
        assert found[0] == u and found[-1] == v
        assert sorted(found) == list(range(n))
        assert all(g.has_edge(a, b) for a, b in zip(found, found[1:]))


def test_tfpcc_never_below_opt_small():
    # the cover upper bound, checked on every class with up to 6 vertices
    for g in connected_graphs_up_to_iso(6):
        assert max_tfpcc(g).edge_count() >= opt_spanning_tree(g).weight


def test_tfpcc_shape_constraints():
    for g in connected_graphs_up_to_iso(5):
        c = max_tfpcc(g)
        for v in g.alive_list():
            assert c.degree(v) <= 2
        for comp in c.components():
            assert comp.kind != "cycle" or comp.length >= 4


# max_tfpcc, the 2-matching search: checked against the branch and bound
# reference_max_tfpcc up to 14 vertices, against an integer program above
# 16, and, for the 2-matching alone, against networkx


def _caps(g, forced):
    cap = [2 if up else 0 for up in g.alive]
    for v in forced:
        cap[v] = 1
    return cap


def _check_tfpcc(g, c, forced):
    """c is a cover of g, within the degree caps, with no triangle."""
    assert c.graph is g  # Cover refuses a non-edge
    validate_tfpcc(c)
    assert all(c.degree(v) <= 1 for v in forced)


def _gadget_matching(g, cap):
    """A maximum matching of Tutte's gadget of g, built explicitly, by networkx."""
    gadget = nx.Graph()
    gadget.add_nodes_from(("copy", v, i) for v in g.alive_list() for i in range(cap[v]))
    for u, v in g.edge_list():
        gadget.add_edge(("half", u, v), ("half", v, u))
        for a, b in ((u, v), (v, u)):
            gadget.add_edges_from((("half", a, b), ("copy", a, i)) for i in range(cap[a]))
    return nx.max_weight_matching(gadget, maxcardinality=True)


def _random_graphs_with_forced_leaves(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        g = random_connected(rng.randint(4, 14), rng.choice((0.1, 0.3, 0.5)), rng)
        yield g, _forced(g, rng)


def test_max_tfpcc_matches_the_exact_search_with_forced_leaves():
    gaps = 0
    for g, forced in _random_graphs_with_forced_leaves(300, 46):
        c = max_tfpcc(g, forced_leaves=forced)
        want = reference_max_tfpcc(g, forced_leaves=forced).edge_count()
        assert c.edge_count() == want, (g, forced)
        _check_tfpcc(g, c, forced)
        gaps += c.edge_count() < len(_two_matching(g.adj, _caps(g, forced), frozenset()))
    assert gaps > 0  # some draws need the target lowered


def _ilp_tfpcc(g, forced):
    """The size of a maximum triangle-free path-cycle cover of g, by scipy's
    integer program solver: a 0/1 variable per edge, at most cap(v) chosen
    edges at each vertex v and at most two on each triangle."""
    edges = g.edge_list()
    col = {e: i for i, e in enumerate(edges)}
    cap = _caps(g, forced)
    rows, ub = [], []
    for v in g.alive_list():
        rows.append([col[norm_edge(v, w)] for w in g.adj[v]])
        ub.append(cap[v])
    for u, v in edges:
        for w in g.adj[v]:
            if w > v and g.has_edge(u, w):
                rows.append([col[(u, v)], col[(u, w)], col[(v, w)]])
                ub.append(2)
    a = csr_array(
        (
            np.ones(sum(map(len, rows))),
            ([r for r, cols in enumerate(rows) for _ in cols], [c for cols in rows for c in cols]),
        ),
        shape=(len(rows), len(edges)),
    )
    m = len(edges)
    res = milp(-np.ones(m), constraints=LinearConstraint(a, ub=ub), integrality=np.ones(m), bounds=Bounds(0, 1))
    assert res.success, res.message
    return round(-res.fun)


def test_max_tfpcc_matches_an_integer_program_above_16_vertices():
    repaired = 0
    rng = random.Random(48)
    for _ in range(20):
        g = random_connected(rng.randint(17, 60), rng.choice((0.15, 0.3, 0.5)), rng)
        forced = _forced(g, rng)
        c = max_tfpcc(g, forced_leaves=forced)
        _check_tfpcc(g, c, forced)
        assert c.edge_count() == _ilp_tfpcc(g, forced), (g, forced)
        first = _two_matching(g.adj, _caps(g, forced), frozenset())
        repaired += first != c.edge_list()
    assert repaired > 0  # some first 2-matchings hold a triangle


def test_the_2_matching_matches_a_maximum_matching_of_the_gadget():
    # the gadget's maximum matching matches every half-edge: one pair per
    # edge of g, plus one per edge of the 2-matching
    for g, forced in _random_graphs_with_forced_leaves(120, 47):
        cap = _caps(g, forced)
        two = _two_matching(g.adj, cap, frozenset())
        assert len(_gadget_matching(g, cap)) == g.edge_count() + len(two), (g, forced)
        deg = [0] * g.vertex_count
        for u, v in two:
            assert g.has_edge(u, v)
            deg[u] += 1
            deg[v] += 1
        assert all(d <= c for d, c in zip(deg, cap))


def test_the_blossom_search_contracts_both_sides_of_a_blossom():
    # on this graph, searched from each exposed vertex in turn, a search that
    # contracted only the side of a blossom it walked first finds 4 edges;
    # found by that mutation among 261,453 random G(n <= 12, p) graphs
    edges = [
        (0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 7), (1, 9), (2, 4),
        (2, 6), (2, 7), (2, 9), (3, 5), (4, 6), (4, 7), (5, 8), (5, 9),
    ]
    adj = build_graph(10, edges).adj
    match, parent, base = [-1] * 10, [-1] * 10, list(range(10))
    for root in range(10):
        if match[root] < 0:
            _augment(root, match, parent, base, adj.__getitem__)
    assert len(nx.max_weight_matching(nx.Graph(edges), maxcardinality=True)) == 5
    assert match.count(-1) == 0  # a perfect matching, of 5 edges
    assert all(match[v] in adj[v] and match[match[v]] == v for v in range(10))
    assert parent == [-1] * 10 and base == list(range(10))


def _dense_graphs(rng):
    """Seeded G(n, p) graphs dense enough for blossoms, n 15-40."""
    return [gen_gnp(rng.randint(15, 40), rng.choice((0.3, 0.5, 0.7)), seed) for seed in range(120)]


def test_blossom_members_give_the_matchings_of_the_whole_tree_scan(monkeypatch):
    # each base keeps its tree vertices, so a contraction moves only those
    # of the bases it absorbs and queues the ones that turn even in the
    # order they joined the tree; every 2-matching is the one the search
    # that scans the whole tree after each contraction finds, with and
    # without forced-leaf caps and bans
    rng = random.Random(53)
    contractions = [0]
    common_base = mist.cover._common_base
    monkeypatch.setattr(
        mist.cover, "_common_base", lambda *a: contractions.__setitem__(0, contractions[0] + 1) or common_base(*a)
    )
    runs = 0
    for g in _bounded_graphs() + _dense_graphs(rng):
        edges = g.edge_list()
        for cap in (_caps(g, ()), _caps(g, _forced(g, rng))):
            for banned in (frozenset(), frozenset(rng.sample(edges, min(len(edges), 3)))):
                got = _two_matching(g.adj, cap, banned)
                with monkeypatch.context() as m:
                    m.setattr(mist.cover, "_augment", tree_scan_augment)
                    assert got == _two_matching(g.adj, cap, banned), (g, cap, banned)
                runs += 1
    assert runs > 1000 and contractions[0] > 20000, (runs, contractions)


def test_a_blossom_search_moves_at_most_the_gadget_size_plus_its_contractions(monkeypatch):
    # a vertex moves each time a blossom with a new base absorbs its own,
    # where the whole-tree scan visited every tree vertex at each
    # contraction: on dense graphs, with forced-leaf caps, and on a cover
    # solve of gen_twins, no search moves more members than the gadget has
    # vertices plus the blossoms it contracts, though searches that fail
    # contract a hundred or more
    real = mist.cover._augment
    common_base = mist.cover._common_base
    searches = []

    class Moves(list):
        moved = contracted = 0

        def __setitem__(self, i, x):
            self.moved += x != i  # the reset when the search ends writes i
            super().__setitem__(i, x)

    def counting(root, match, parent, base, nbrs):
        counted = Moves(base)
        with monkeypatch.context() as m:
            m.setattr(mist.cover, "_common_base", lambda *a: setattr(counted, "contracted", counted.contracted + 1) or common_base(*a))
            real(root, match, parent, counted, nbrs)
        base[:] = counted
        searches.append((counted.moved, counted.contracted, len(match)))

    monkeypatch.setattr(mist.cover, "_augment", counting)
    rng = random.Random(59)
    for g in _dense_graphs(rng):
        _two_matching(g.adj, _caps(g, _forced(g, rng)), frozenset())
    max_tfpcc(gen_twins(60, 1))
    assert all(moved <= size + contracted for moved, contracted, size in searches), searches
    assert max(contracted for _, contracted, _ in searches) >= 100
    assert sum(moved > 0 for moved, _, _ in searches) > 100


def test_max_tfpcc_repairs_a_triangle_in_the_first_2_matching():
    # the greedy start takes the triangle 1-2-3 and 0-4.  Banning 1-2 leaves
    # at most 3 edges, short of the target 4; banning 1-3 leaves the
    # spanning path 0-4-3-2-1
    g = build_graph(5, [(0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])
    first = _two_matching(g.adj, _caps(g, ()), frozenset())
    assert first == [(0, 4), (1, 2), (1, 3), (2, 3)]
    assert max_tfpcc(g).edge_list() == [(0, 4), (1, 2), (2, 3), (3, 4)]


def test_max_tfpcc_lowers_its_target_when_every_ban_falls_short():
    # K3's only 2-matching of size 3 is the triangle: every ban gives 2,
    # below the target 3, so the target drops to 2 and the first ban, of
    # 0-1, gives the cover
    g = complete(3)
    assert len(_two_matching(g.adj, _caps(g, ()), frozenset())) == 3
    assert max_tfpcc(g).edge_list() == [(0, 2), (1, 2)]


def test_max_tfpcc_gives_up_after_its_re_solve_budget(monkeypatch):
    # K3 takes six 2-matchings: the first and its three bans at target 3,
    # then the first and its first ban at target 2
    monkeypatch.setattr(mist.cover, "TFPCC_RESOLVES", 5)
    with pytest.raises(NonTermination, match="in 5 2-matchings"):
        max_tfpcc(complete(3))
    monkeypatch.setattr(mist.cover, "TFPCC_RESOLVES", 6)
    assert max_tfpcc(complete(3)).edge_count() == 2


def _same_cover_or_give_up(g, forced):
    """The edges max_tfpcc and the edge-list ban loop agree on, or None
    when both give up."""
    try:
        want = edge_list_max_tfpcc(g, forced)
    except NonTermination:
        with pytest.raises(NonTermination):
            max_tfpcc(g, forced)
        return None
    assert max_tfpcc(g, forced).edge_list() == want, (g, forced)
    return want


def test_max_tfpcc_bans_and_returns_what_the_edge_list_ban_loop_does(monkeypatch):
    # a 2-matching's triangles are whole components, so the first 3-cycle
    # of its Cover's components is the triangle through its first edge on
    # one: the same bans, 2-matchings and cover, with and without forced
    # leaves, on graphs that ban edges and graphs that lower the target;
    # and, on a budget of two 2-matchings, the same graphs give up
    rng = random.Random(50)
    seen = Counter()
    for _ in range(3000):
        g = random_connected(rng.randint(5, 25), rng.choice((0.15, 0.2, 0.3, 0.5)), rng)
        for forced in ((), _forced(g, rng)):
            want = _same_cover_or_give_up(g, forced)
            first = _two_matching(g.adj, _caps(g, forced), frozenset())
            seen["banned"] += first != want
            seen["lowered"] += len(first) > len(want)
    assert seen["banned"] > 1000 and seen["lowered"] > 30, seen
    monkeypatch.setattr(mist.cover, "TFPCC_RESOLVES", 2)
    for _ in range(300):
        g = random_connected(rng.randint(5, 25), rng.choice((0.15, 0.2, 0.3, 0.5)), rng)
        seen[_same_cover_or_give_up(g, ()) is None] += 1
    assert seen[True] > 15 and seen[False] > 200, seen


# path_cover_from_tree: |E(cover)| >= w(tree) with every tree leaf kept
# at cover degree <= 1


def test_path_cover_of_path_drops_one_root_edge():
    # rooting at the smallest internal vertex splits the path once;
    # the result keeps w(t) = n - 2 edges, which meets the bound exactly
    g = path(5)
    t = opt_spanning_tree(g)
    c = path_cover_from_tree(t, g)
    assert c.edge_count() == 3
    assert c.edge_count() >= t.weight


def test_path_cover_of_star_keeps_one_edge():
    g = star(5)
    t = opt_spanning_tree(g)
    c = path_cover_from_tree(t, g)
    assert c.edge_count() == 1


def test_path_cover_of_spider():
    # center 0 with three legs of length two: w = 4, cover keeps 4 edges
    g = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    t = opt_spanning_tree(g)
    assert t.weight == 4
    c = path_cover_from_tree(t, g)
    assert c.edge_count() == 4


def test_path_cover_guarantees_on_random_trees():
    rng = random.Random(7)
    for _ in range(200):
        g = random_tree(rng.randint(1, 30), rng)
        t = tree_result(g, g.edge_list())
        c = path_cover_from_tree(t, g)
        assert c.edge_count() >= t.weight
        for v in t.leaves:
            assert c.degree(v) <= 1
        for v in g.alive_list():
            assert c.degree(v) <= 2


# the incremental searches against the searches they replaced: the same
# tree and the same cover on every input, not only the same weight


def _gnp_graphs():
    return [gen_gnp(n, 0.3, seed) for n in range(8, 13) for seed in range(100)]


def _op4_blocks():
    """Every block op4 may solve: a component K of g - v, 2 <= |K| <= 8,
    with v and a pendant at v, over sparse graphs with many cut vertices."""
    rng = random.Random(44)
    out = []
    for _ in range(60):
        g = random_connected(rng.randint(6, 16), 0.08, rng)
        for v in g.alive_list():
            comps = naive_components(g, (v,))
            for k in comps if len(comps) > 1 else ():
                if 2 <= len(k) <= 8:
                    sub, old = induced_subgraph(g, k + [v])
                    sub.add_edge(old.index(v), add_vertex(sub))
                    out.append(sub)
    return out


def _forced(g, rng):
    verts = g.alive_list()
    return tuple(sorted(rng.sample(verts, rng.randint(0, len(verts) // 2))))


def test_opt_matches_the_reference_search_on_small_classes():
    for g in connected_graphs_up_to_iso(7):
        assert opt_spanning_tree(g) == reference_opt_spanning_tree(g), g


def test_opt_matches_the_reference_search_on_random_graphs_and_op4_blocks():
    graphs = _gnp_graphs() + _op4_blocks()
    assert len(graphs) > 600
    for g in graphs:
        assert opt_spanning_tree(g) == reference_opt_spanning_tree(g), g


def _solved_by_op4(v, k_comp, pendant, block):
    """opt_spanning_tree of the block plus its pendant, renumbered densely."""
    old = sorted([*k_comp, v, pendant])
    pos = {x: i for i, x in enumerate(old)}
    sub = build_graph(len(old), [(pos[a], pos[b]) for a, b in [*block, (v, pendant)]])
    t = opt_spanning_tree(sub)
    host = on_ids(old, [*block, (v, pendant)])
    return tree_result(host, [(old[a], old[b]) for a, b in t.edges])


def test_op4_blocks_without_a_search_get_the_searched_tree():
    # a tree block plus its pendant is its own only spanning tree, taken
    # as it is; every other block is searched
    trees = 0
    for sub in _op4_blocks():
        pend = sub.vertex_count - 1
        (v,) = sub.adj[pend]
        k_comp = [x for x in range(pend) if x != v]
        block = [e for e in sub.edge_list() if pend not in e]
        trees += len(block) == len(k_comp)
        s = _peel(v, tuple(k_comp), pend, tuple(block))
        t = opt_spanning_tree(sub)
        assert (s.inner_tree, s.inner_opt) == (
            tuple(e for e in t.edges if pend not in e), t.weight
        ), sub
    peels = [
        s
        for n in range(12, 40)
        for node in reduce_to_fixpoint(gen_path(n), "simple").nodes
        if node.applied is not None
        for s in op4_peels(node.applied)
    ]
    for s in peels:
        t = _solved_by_op4(s.cut_vertex, s.component, s.pendant, s.block_edges)
        assert (s.inner_tree, s.inner_opt) == (
            tuple(e for e in t.edges if s.pendant not in e), t.weight
        )
    assert trees == 56 and len(peels) == 462


def _rec_calls(search, g):
    """The result of search(g) and the number of branch-and-bound nodes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec":
            calls += 1

    sys.setprofile(count)
    try:
        result = search(g)
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize(
    "edges",
    [
        # double star 0-1 with leaves 2-4 on 0 and 5-7 on 1, leaves matched across
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (2, 5), (3, 6), (4, 7)],
        # spider with four legs of length two, leg ends joined in a path
        [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8),
         (2, 4), (4, 6), (6, 8)],
    ],
)
def test_leaf_excess_bound_prunes_and_keeps_the_first_optimum(edges):
    # the include-first search meets high-degree centres before any good
    # tree; the excess bound cuts those subtrees, the pdeg bound cannot
    g = build_graph(1 + max(max(e) for e in edges), edges)
    new, new_nodes = _rec_calls(opt_spanning_tree, g)
    ref, ref_nodes = _rec_calls(reference_opt_spanning_tree, g)
    assert new == ref
    assert new.weight == brute_opt_tree(g.n_alive(), g.edge_list())
    assert new_nodes < ref_nodes


def test_opt_search_visits_no_more_nodes_than_the_reference():
    # same branching order, an exact reachability test and a bound at least
    # as tight: the new search tree is a subtree of the reference's
    for g in connected_graphs_up_to_iso(6) + [gen_gnp(9, 0.3, s) for s in range(20)]:
        new, new_nodes = _rec_calls(opt_spanning_tree, g)
        ref, ref_nodes = _rec_calls(reference_opt_spanning_tree, g)
        assert new == ref and new_nodes <= ref_nodes, g


def test_a_floor_up_to_opt_returns_the_same_tree_and_one_above_returns_none():
    # only a strictly heavier tree replaces the incumbent, so starting it at
    # floor - 1 <= opt - 1 still ends at the first optimum in include-first
    # order; from opt on, no tree replaces it
    rng = random.Random(46)
    gnp = [gen_gnp(rng.randint(8, 12), 0.3, seed) for seed in range(200)]
    for g in connected_graphs_up_to_iso(7) + gnp:
        want = opt_spanning_tree(g)
        assert want.weight <= internal_bound(g), g
        for floor in range(want.weight + 1):
            assert opt_spanning_tree(g, floor=floor) == want, (g, floor)
        assert opt_spanning_tree(g, floor=want.weight + 1) is None, g
    assert opt_spanning_tree(path(5), floor=4) is None


def test_a_floor_one_above_opt_searches_no_more_than_a_floor_at_opt():
    # the proof that nothing beats opt is the search for opt with its last
    # improvement cut, so it visits a subtree of that search's nodes
    fewer = 0
    for g in _bounded_graphs():
        opt = opt_spanning_tree(g).weight
        at, at_nodes = _rec_calls(lambda h: opt_spanning_tree(h, floor=opt), g)
        above, above_nodes = _rec_calls(lambda h: opt_spanning_tree(h, floor=opt + 1), g)
        assert at.weight == opt and above is None, g
        assert above_nodes <= at_nodes, g
        fewer += above_nodes < at_nodes
    assert fewer > 50


@pytest.mark.parametrize(
    "g, bound",
    [(Graph(1), 0), (path(2), 0), (path(5), 3), (star(6), 1), (cycle(6), 4), (complete(5), 3)],
)
def test_internal_bound_counts_two_leaves_or_every_low_degree_vertex(g, bound):
    assert internal_bound(g) == bound


def test_internal_bound_reads_no_dead_id_as_a_leaf():
    # the bound counts F from the rows, where a dead id's row is empty: on
    # reduced leaf graphs with dead ids it equals a count over the alive
    # vertices, and one leaf has more than two of degree <= 1
    lows = []
    for g in (gen_path(30), gen_theta(30), gen_sparse(60, 6, 1), gen_sparse(40, 20, 2)):
        for mode in ("simple", "refined"):
            trace = reduce_to_fixpoint(g, mode)
            for h in (trace.nodes[i].graph for i in trace.leaves()):
                n = h.n_alive()
                if h.vertex_count > n:
                    lows.append(sum(h.degree(v) <= 1 for v in h.alive_list()))
                    assert internal_bound(h) == (0 if n <= 2 else n - max(2, lows[-1]))
    assert len(lows) == 13 and max(lows) == 5


def _masks(g):
    """The neighbour bit masks opt_spanning_tree searches, by alive rank."""
    pos = {v: i for i, v in enumerate(g.alive_list())}
    return [sum(1 << pos[w] for w in g.adj[v]) for v in pos]


def _bounded_graphs():
    rng = random.Random(47)
    gnp = [gen_gnp(rng.randint(8, 12), 0.3, seed) for seed in range(200)]
    return connected_graphs_up_to_iso(7) + gnp


def _greedy_exit(adj, cap, banned):
    """_two_matching's edges, and whether it returned its greedy start
    before building the gadget's matching."""
    exits = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is _two_matching.__code__:
            exits.append("match" not in frame.f_locals)

    sys.setprofile(watch)
    try:
        edges = _two_matching(adj, cap, banned)
    finally:
        sys.setprofile(None)
    assert len(exits) == 1
    return edges, exits[0]


def test_a_greedy_2_matching_that_fills_every_cap_is_returned_as_the_search_leaves_it():
    # no copy of the gadget is exposed, so no augmenting path starts at
    # one: the same edges in the same order as the search that always runs,
    # with forced-leaf caps and with each single edge banned
    rng = random.Random(49)
    exits = Counter()
    for g in _bounded_graphs():
        caps = (_caps(g, ()), _caps(g, _forced(g, rng)))
        for cap in caps:
            edges, exited = _greedy_exit(g.adj, cap, frozenset())
            assert edges == search_always_two_matching(g.adj, cap, frozenset()), (g, cap)
            assert not exited or 2 * len(edges) == sum(cap)
            exits[exited] += 1
        for e in g.edge_list():
            cap, banned = rng.choice(caps), frozenset((e,))
            assert _two_matching(g.adj, cap, banned) == search_always_two_matching(
                g.adj, cap, banned
            ), (g, cap, banned)
    assert exits[True] > 300 and exits[False] > 300, exits
    # a cycle's greedy takes every edge
    for n in range(3, 60):
        g = gen_cycle(n)
        edges, exited = _greedy_exit(g.adj, _caps(g, ()), frozenset())
        assert exited and edges == g.edge_list()


def test_cuts_ahead_of_the_descent_visit_fewer_nodes_for_the_same_tree():
    # a node tests its children's edge count and bound before calling
    # them, records the last include itself and answers most excludes
    # without a flood: the same tree as the search that tests every node on
    # entry, from no more nodes, with no floor and with the floor above opt
    fewer = 0
    for g in _bounded_graphs():
        if g.edge_count() >= g.n_alive():  # the search's case: not a tree
            assert _greedy_weight(_masks(g)) == entry_cut_greedy_weight(_masks(g)), g
        opt = opt_spanning_tree(g).weight
        for floor in (0, opt + 1):
            new, new_nodes = _rec_calls(lambda h: opt_spanning_tree(h, floor), g)
            old, old_nodes = _rec_calls(lambda h: entry_cut_opt_spanning_tree(h, floor), g)
            assert new == old and new_nodes <= old_nodes, (g, floor)
            fewer += new_nodes < old_nodes
    assert fewer > 1000


def test_the_cut_bound_and_the_greedy_floor_hold_opt_between_them():
    # greedy weight <= opt <= min(internal_bound, cut_bound); the cut bound
    # is the tighter one on some graphs
    tighter = 0
    for g in _bounded_graphs():
        opt = opt_spanning_tree(g).weight
        assert opt <= cut_bound(g), g
        if g.edge_count() >= g.n_alive():  # the search's case: not a tree
            assert _greedy_weight(_masks(g)) <= opt, g
        tighter += cut_bound(g) < internal_bound(g)
    assert tighter > 50


def test_a_tree_is_its_own_answer_without_a_search():
    rng = random.Random(48)
    for g in [path(2), path(7), star(6)] + [random_tree(n, rng) for n in range(3, 13)]:
        t, nodes = _rec_calls(opt_spanning_tree, g)
        assert nodes == 0
        assert t == reference_opt_spanning_tree(g) == tree_result(g, g.edge_list())


def test_the_search_stops_once_it_meets_the_leaf_bound():
    # a Hamiltonian path meets n - 2, so nothing after the first one found
    # is searched; the tree is still the reference's first optimum
    for g in [cycle(9), complete(7), gen_gnp(10, 0.5, 3)]:
        assert brute_ham_path(g.n_alive(), g.edge_list())
        new, new_nodes = _rec_calls(opt_spanning_tree, g)
        ref, ref_nodes = _rec_calls(reference_opt_spanning_tree, g)
        assert new == ref and new.weight == internal_bound(g) == g.n_alive() - 2
        assert new_nodes < ref_nodes


def test_ham_path_within_a_vertex_set_is_the_induced_subgraphs_first_path():
    rng = random.Random(49)
    for _ in range(300):
        g = random_connected(rng.randint(4, 14), 0.35, rng)
        inside = rng.sample(g.alive_list(), rng.randint(2, min(8, g.n_alive())))
        u, v = inside[:2]
        sub, old = induced_subgraph(g, inside)
        want = hamiltonian_path_between(sub, old.index(u), old.index(v))
        got = hamiltonian_path_between(g, u, v, set(inside))
        assert got == (None if want is None else [old[x] for x in want]), (g, inside)
    with pytest.raises(PreconditionViolated):
        hamiltonian_path_between(path(5), 0, 4, {0, 1, 2})
