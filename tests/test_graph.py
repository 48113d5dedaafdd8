"""Graph container, bridges, cut-points, induced subgraphs."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from mist import Graph, norm_edge
from mist.cover import Cover
from mist.errors import InternalInvariant
from mist.graph import (
    connected_components,
    component_of,
    find_bridges,
    find_cutpoints,
    has_short_cycle,
    separations,
)
from mist.generate import gen_cycle, gen_gnp, gen_path, gen_sparse, gen_theta

from graphgen import ALL_COUNTS, CONNECTED_COUNTS, _classes, connected_graphs_up_to_iso
from helpers import (
    add_vertex,
    build_graph,
    induced_subgraph,
    naive_bridges,
    naive_cutpoints,
    naive_pieces,
    pop_vertex,
)


def test_norm_edge_orders_endpoints():
    assert norm_edge(3, 1) == (1, 3)
    assert norm_edge(1, 3) == (1, 3)


def test_adjacency_stays_sorted():
    g = Graph(4)
    g.add_edge(0, 3)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    assert g.adj[0] == [1, 2, 3]
    assert g.degree(0) == 3


def test_edge_list_is_sorted_and_counted():
    g = build_graph(4, [(2, 3), (0, 1), (1, 2)])
    assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3


def test_duplicate_edge_rejected():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(InternalInvariant):
        g.add_edge(1, 0)


def test_self_loop_rejected():
    g = Graph(3)
    with pytest.raises(InternalInvariant):
        g.add_edge(1, 1)


def test_remove_vertex_keeps_ids_stable():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    g.remove_vertex(1)
    assert g.alive_list() == [0, 2, 3]
    assert not g.is_alive(1)
    assert g.edge_list() == [(2, 3)]
    assert g.n_alive() == 3
    v = add_vertex(g)
    assert v == 4


def test_remove_and_add_edge_roundtrip():
    g = build_graph(3, [(0, 1), (1, 2)])
    g.remove_edge(0, 1)
    assert not g.has_edge(0, 1)
    g.add_edge(0, 1)
    assert g.has_edge(1, 0)


def test_bulk_construction_matches_edge_by_edge_insertion():
    edges = [(3, 1), (0, 4), (2, 1), (4, 3), (0, 1)]
    one_by_one = Graph(5)
    for u, v in edges:
        one_by_one.add_edge(u, v)
    bulk = Graph(5, edges)
    assert (bulk.adj, bulk.n_alive(), bulk.edge_count()) == (one_by_one.adj, 5, 5)
    for bad in ([(0, 1), (1, 0)], [(2, 2)], [(0, 5)]):
        with pytest.raises(InternalInvariant):
            Graph(5, bad)


@pytest.mark.parametrize("edge", [(0, 5), (-1, 2), (7, 1)])
def test_bulk_construction_names_the_id_range_of_an_edge_outside_it(edge):
    # every vertex is alive when the graph is built, so the message names
    # the range of ids, not a dead vertex
    u, v = edge
    with pytest.raises(InternalInvariant, match=rf"^edge {u}-{v} outside 0\.\.4$"):
        Graph(5, [(0, 1), edge])


def _recount(g):
    return sum(g.alive), sum(len(row) for row in g.adj) // 2


# each step: (operation, a, b) on vertex ids taken modulo the vertex count
_steps = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 20), st.integers(0, 20)), max_size=60
)


@given(_steps)
def test_counters_match_a_recount_through_any_mutation(steps):
    # n_alive and edge_count are kept as counters; every mutation, copy and
    # Cover (which copies its host's alive mask) must keep them exact
    g = Graph(6)
    covers = []
    for op, a, b in steps:
        a, b = a % g.vertex_count, b % g.vertex_count
        if op == 0 and a != b and g.alive[a] and g.alive[b] and not g.has_edge(a, b):
            g.add_edge(a, b)
        elif op == 1 and g.has_edge(a, b):
            g.remove_edge(a, b)
        elif op == 2 and g.alive[a] and g.n_alive() > 1:
            g.remove_vertex(a)
        elif op == 3:
            add_vertex(g)
        elif op == 4 and g.alive[-1] and g.vertex_count > 1:
            pop_vertex(g)
        elif op == 5 and not g.alive[a]:
            g.revive(a)
        elif op == 6:
            g = g.copy()
        elif op == 8 and g.has_edge(a, b):
            # a run of edits on private copies, written at once
            rows, alive = [list(row) for row in g.adj], list(g.alive)
            rows[a].remove(b)
            rows[b].remove(a)
            g.write_rows(rows, alive)
        elif op == 7:
            c = Cover(g, g.edge_list()[b % 3 :: 3])
            covers.append(c)
            c = c.copy()
            for u, v in c.edge_list()[:a % 3]:
                c.remove_edge(u, v)
            covers.append(c)
        assert (g.n_alive(), g.edge_count()) == _recount(g)
        for c in covers:
            assert (c.n_alive(), c.edge_count()) == _recount(c)


def test_write_rows_takes_the_rows_and_recounts():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    rows, alive = [list(row) for row in g.adj], list(g.alive)
    rows[2].remove(3)
    rows[3] = []
    alive[3] = False
    rows.append([0])
    rows[0].append(4)
    alive.append(True)
    g.write_rows(rows, alive)
    assert (g.vertex_count, g.alive_list(), g.edge_list()) == (5, [0, 1, 2, 4], [(0, 1), (0, 4), (1, 2)])
    assert (g.n_alive(), g.edge_count()) == _recount(g) == (4, 3)
    with pytest.raises(InternalInvariant, match="rows written do not pair up"):
        g.write_rows([[1], [0, 2], [1], [], [0]], [True] * 5)
    with pytest.raises(InternalInvariant, match="5 rows for 4 vertices"):
        g.write_rows([[], [], [], [], []], [True] * 4)


def test_copy_is_independent():
    g = build_graph(3, [(0, 1), (1, 2)])
    h = g.copy()
    h.remove_edge(0, 1)
    assert g.has_edge(0, 1)
    assert g != h


def test_connectivity_and_components():
    g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
    assert not g.is_connected()
    assert connected_components(g) == [[0, 1], [2, 3, 4]]
    assert component_of(g, 3) == [2, 3, 4]
    assert component_of(g, 3, blocked=frozenset({2})) == [3, 4]
    g.add_edge(1, 2)
    assert g.is_connected()


# bridges: path 1-2-3 has both edges, a triangle has none, two triangles
# joined by one edge have exactly that edge


def test_bridges_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert find_bridges(g) == {(0, 1), (1, 2)}


def test_bridges_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert find_bridges(g) == set()


def test_bridges_two_triangles_joined():
    g = build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    assert find_bridges(g) == {(2, 3)}


def test_cutpoints_cycle():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert find_cutpoints(g) == []


def test_cutpoints_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert find_cutpoints(g) == [1]


def test_cutpoints_two_triangles_sharing_a_vertex():
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert find_cutpoints(g) == [2]


def test_induced_k4_triangle():
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    sub, old_ids = induced_subgraph(g, {0, 1, 2})
    assert old_ids == [0, 1, 2]
    assert sub.edge_list() == [(0, 1), (0, 2), (1, 2)]


def test_induced_empty_selection():
    g = build_graph(3, [(0, 1), (1, 2)])
    sub, old_ids = induced_subgraph(g, set())
    assert old_ids == []
    assert sub.n_alive() == 0


def test_induced_c5_one_edge_plus_isolated():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, old_ids = induced_subgraph(g, {0, 1, 3})
    assert old_ids == [0, 1, 3]
    assert sub.edge_list() == [(0, 1)]
    assert sub.degree(2) == 0


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    return n, edges


@given(small_graphs())
def test_bridges_match_removal_oracle(data):
    n, edges = data
    assert find_bridges(build_graph(n, edges)) == naive_bridges(n, edges)


@given(small_graphs())
def test_cutpoints_match_removal_oracle(data):
    n, edges = data
    g = build_graph(n, edges)
    assert find_cutpoints(g) == naive_cutpoints(n, edges)
    assert separations(g).pieces == naive_pieces(n, edges)


@given(small_graphs())
def test_induced_subgraph_unmaps_to_original_edges(data):
    n, edges = data
    g = build_graph(n, edges)
    s = set(range(0, n, 2))
    sub, old_ids = induced_subgraph(g, s)
    unmapped = {norm_edge(old_ids[u], old_ids[v]) for u, v in sub.edge_list()}
    expected = {norm_edge(u, v) for u, v in edges if u in s and v in s}
    assert unmapped == expected


def test_isomorphism_classes_match_the_known_counts():
    # graphs on n vertices up to isomorphism (OEIS A000088, A001349)
    assert [len(_classes(n)) for n in range(1, 8)] == list(ALL_COUNTS)
    sizes = [g.n_alive() for g in connected_graphs_up_to_iso(7)]
    assert [sizes.count(n) for n in range(1, 8)] == list(CONNECTED_COUNTS)


def _girth(g):
    h = nx.Graph()
    h.add_nodes_from(g.alive_list())
    h.add_edges_from(g.edge_list())
    return nx.girth(h)


def test_the_short_cycle_test_agrees_with_the_girth():
    # every connected graph on up to 7 vertices, seeded G(n, p), the chain
    # families (C3, C4 and C5, whose cycles pass through no vertex of degree
    # 3, among them) and sparse trees with a few chords; a graph with dead
    # ids, as reduce leaves them, too
    graphs = list(connected_graphs_up_to_iso(7))
    graphs += [gen_gnp(n, p, seed) for n in range(8, 17) for p in (0.15, 0.3) for seed in range(8)]
    graphs += [f(n) for n in range(3, 31) for f in (gen_cycle, gen_path)]
    graphs += [gen_theta(n) for n in range(5, 31)]
    graphs += [gen_sparse(n, k, n) for n in range(20, 201, 20) for k in (1, 3, n // 10)]
    shrunk = gen_sparse(60, 6, 1)
    for v in [v for v in shrunk.alive_list() if shrunk.degree(v) == 1]:
        shrunk.remove_vertex(v)
    assert shrunk.is_connected() and shrunk.n_alive() < 50
    graphs.append(shrunk)
    seen = set()
    for g in graphs:
        girth = _girth(g)
        for limit in range(4, 9):
            assert has_short_cycle(g, limit) == (girth <= limit), (g, limit)
            seen.add((limit, girth <= limit))
    assert len(seen) == 10  # each limit both finds and misses a cycle
