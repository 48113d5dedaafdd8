"""Pi pairs, augmented graph, preferred covers."""

import random
from collections import Counter

import pytest

from mist import Graph, compute_pi_pairs, preferred_tfpcc
from mist.cover import (
    Cover,
    component_ports,
    is_special,
    lower_edge_at,
    path_is_dead,
    validate_tfpcc,
)
from mist.errors import InternalInvariant, PreconditionViolated
from mist.exact import opt_spanning_tree
from mist.generate import gen_gnp, gen_twins

from helpers import (
    build_augmented_graph,
    build_graph,
    per_edge_cover,
    preferred_tfpcc_via_augmented,
    twin_pairs,
)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_cover_tracks_degrees_and_components():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    c = Cover(g, [(0, 1), (1, 2)])
    assert c.degree(1) == 2
    assert c.degree(3) == 0
    comps = c.components()
    assert [comp.kind for comp in comps] == ["path", "path", "path"]
    assert comps[0].order in ((0, 1, 2), (2, 1, 0))
    assert comps[0].endpoints == (0, 2)


def test_cover_keeps_its_components_until_an_edit():
    g = cycle(6)
    c = Cover(g, [(0, 1), (1, 2), (3, 4)])
    assert c.components() is c.components()
    assert c.index() is c.index()


def _assert_fresh(g, c):
    fresh = Cover(g, c.edge_list())
    assert c.components() == fresh.components()
    assert c.index() == fresh.index()


def test_every_edit_drops_the_kept_components():
    g = cycle(6)
    c = Cover(g, [(0, 1), (1, 2), (3, 4)])
    c.index()
    c.add_edge(2, 3)
    _assert_fresh(g, c)
    c.remove_edge(0, 1)
    _assert_fresh(g, c)
    for v in (4, 0):  # one vertex with cover edges, one without
        g.remove_vertex(v)
        c.remove_vertex(v)
        _assert_fresh(g, c)


def test_editing_a_copy_leaves_the_original_list():
    g = cycle(6)
    c = Cover(g, [(0, 1), (1, 2), (3, 4)])
    comps = c.components()
    snapshot = list(comps)
    d = c.copy()
    assert d.components() is comps  # shared until the copy is edited
    d.add_edge(2, 3)
    d.remove_edge(0, 1)
    assert c.components() is comps and comps == snapshot
    assert d.components() == Cover(g, d.edge_list()).components()


def test_a_copy_keeps_a_vertex_removed_from_the_cover_alone_dead():
    g = cycle(6)
    c = Cover(g, [(0, 1), (1, 2), (3, 4)])
    c.remove_vertex(5)
    d = c.copy()
    assert d.alive == c.alive and d.n_alive() == c.n_alive() == 5
    d.add_edge(2, 3)  # so the copy searches its own components
    assert [comp.vertices for comp in d.components()] == [(0, 1, 2, 3, 4)]
    assert 5 not in d.index()


def test_the_search_counter_records_each_search_and_no_kept_list(cover_searches):
    # the pipeline's tests count searches with this fixture; a hook that
    # went silent would pass every "no search" test
    c = Cover(cycle(6), [(0, 1), (1, 2), (3, 4)])
    assert cover_searches == []
    c.components()
    assert cover_searches == [c]
    c.components(), c.index(), c.copy().components()
    assert cover_searches == [c]
    d = c.copy()
    d.add_edge(2, 3)
    d.index()
    assert cover_searches == [c, d]


def _raised(build, g, edges):
    try:
        build(g, edges)
    except Exception as exc:  # the type and message are compared
        return type(exc).__name__, str(exc)
    return None


def _state(c):
    return c.adj, c.alive, c.n_alive(), c.edge_count()


def test_one_pass_construction_raises_what_the_first_faulty_add_edge_raises():
    # host: 0..7 with 7 removed; each fault is seeded among valid edges,
    # alone and after another fault
    g = build_graph(8, [(i, i + 1) for i in range(7)] + [(0, 3), (2, 5), (4, 6), (1, 7)])
    g.remove_vertex(7)
    valid = [(0, 1), (2, 3), (4, 5), (5, 6), (0, 3)]
    faults = [
        [(1, 4)],  # not a host edge
        [(6, 7)],  # a dead end
        [(-2, 5)],  # a negative id reads row 6, which holds 5: only the dead-end test refuses it
        [(3, 3)],  # a self loop
        [(2, 5), (5, 2)],  # a duplicate, written the other way round
        [(4, 6), (4, 6)],  # a duplicate
        [(2, 8)],  # an id past the last vertex
        [(9, 2)],  # an id past the last vertex, first
    ]
    messages = ("is not a host edge", "touches a dead vertex", "duplicate edge")
    rng = random.Random(50)
    seen = set()
    for first in faults:
        for second in [None] + faults:
            for _ in range(4):
                edges = list(valid)
                rng.shuffle(edges)
                for fault in (first, second):
                    if fault is not None:
                        at = rng.randint(0, len(edges))
                        edges[at:at] = fault
                want = _raised(per_edge_cover, g, edges)
                assert want is not None and _raised(Cover, g, edges) == want, edges
                seen.add(next((m for m in messages if m in want[1]), want[0]))
    assert seen == {*messages, "IndexError"}, seen
    for k in range(len(valid) + 1):
        assert _state(Cover(g, valid[:k])) == _state(per_edge_cover(g, valid[:k]))


def _assert_as_fresh(c):
    """c's kept components and index equal a fresh cover's with its edges
    and its alive vertices."""
    fresh = Cover(c.graph, c.edge_list())
    for v in c.graph.alive_list():
        if not c.alive[v]:
            fresh.remove_vertex(v)
    assert _state(c) == _state(fresh)
    assert c.components() == fresh.components()
    assert c.index() == fresh.index()


def _edit(c, choose) -> str | None:
    """One edit of c, each pick made by choose from a sequence: three times
    in five, add a host edge that keeps every component a path, cycle or
    tree (it joins two components that are not cycles, or closes a path
    into a cycle), else remove a cover edge or a vertex.  Returns what it
    did: "join", "tree" (a join that made a tree), "close", "remove",
    "vertex" or None."""
    kind = choose(("add", "add", "add", "remove", "vertex"))
    alive = c.alive_list()
    if kind == "vertex" and alive:
        c.remove_vertex(choose(alive))
        return "vertex"
    if kind == "remove" and c.edge_count():
        c.remove_edge(*choose(c.edge_list()))
        return "remove"
    at = Cover(c.graph, c.edge_list()).index()  # not c's: its kept list stays
    open_ = [
        (u, v)
        for u, v in c.graph.edge_list()
        if c.alive[u] and c.alive[v] and not c.has_edge(u, v)
        and (
            at[u] is not at[v] and "cycle" not in (at[u].kind, at[v].kind)  # joins two
            or at[u].kind == "path" and c.degree(u) < 2 and c.degree(v) < 2  # closes one
        )
    ]
    if not open_:
        return None
    u, v = choose(open_)
    c.add_edge(u, v)
    if at[u] is at[v]:
        return "close"
    return "tree" if max(c.degree(u), c.degree(v)) > 2 else "join"


def test_covers_edited_and_copied_match_a_fresh_cover():
    # runs of edits on covers and their copies, each read back after one to
    # three edits: the kept list and index equal a fresh cover's, and a
    # copy's edits and the original's leave the other's list as it was
    rng = random.Random(33)
    done = Counter()
    for _ in range(600):
        n = rng.randint(2, 14)
        g = gen_gnp(n, rng.choice((0.3, 0.5, 0.8)), rng.randrange(10**6))
        host = g.edge_list()
        c = Cover(g, rng.sample(host, min(len(host), rng.randint(0, 3))))
        if rng.random() < 0.5:
            c.index()
        for _ in range(rng.randint(1, 12)):
            way = rng.choice(("copy", "original", "plain"))
            before = c.components()
            d = c.copy() if way != "plain" else c
            assert _state(d) == _state(c)
            edited = c if way == "original" else d
            for _ in range(rng.randint(1, 3)):
                done[_edit(edited, rng.choice)] += 1
            _assert_as_fresh(edited)
            if way != "plain":
                other = d if way == "original" else c
                assert other.components() is before
                _assert_as_fresh(other)
            c = edited
    # 2432 joins, 511 of them making a tree, 125 closed paths, 1149 removed
    # edges and 1421 removed vertices when written
    minimum = {"join": 1500, "tree": 300, "close": 80, "remove": 700, "vertex": 900}
    assert all(done[kind] >= minimum[kind] for kind in minimum), done


def test_index_maps_every_alive_vertex_to_its_component():
    g = gen_gnp(12, 0.3, 5)
    c = Cover(g, [e for e in g.edge_list() if e[0] % 3 == 0][:5])
    at = c.index()
    assert sorted(at) == g.alive_list()
    for v, comp in at.items():
        assert v in comp.vertices and comp in c.components()


def test_cover_rejects_non_host_edges():
    g = build_graph(3, [(0, 1), (1, 2)])
    c = Cover(g)
    with pytest.raises(InternalInvariant):
        c.add_edge(0, 2)


def test_validate_tfpcc_flags_triangles():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Cover(g, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InternalInvariant):
        validate_tfpcc(c)


def test_ports_and_dead_paths():
    # triangle hanging off a path: the 2-path over the triangle is dead
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4)])
    c = Cover(g, [(0, 1), (1, 2), (3, 4)])
    at = c.index()
    assert component_ports(g, at[0]) == [1]
    assert path_is_dead(g, at[0])
    assert not path_is_dead(g, at[3])


def test_lower_edge_at_picks_smaller_neighbor():
    g = cycle(4)
    c = Cover(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert lower_edge_at(c, 3) == (0, 3)
    assert lower_edge_at(c, 1) == (0, 1)


def test_pi_pairs_on_c4_without_strict_checks():
    pairs = twin_pairs(cycle(4))
    assert [(p.u1, p.u3) for p in pairs] == [(0, 2), (1, 3)]
    assert pairs[0].boundary == (1, 3)


def test_pi_pairs_empty_without_twins():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert twin_pairs(g) == []


def test_pi_pairs_found_in_padded_k4_gadget():
    # K4 on 0..3, twins 4,5 on boundary {0,1}, a 2-3 path through 6,7,8
    g = build_graph(
        9,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (4, 0), (4, 1), (5, 0), (5, 1),
         (2, 6), (6, 7), (7, 8), (8, 3)],
    )
    pairs = compute_pi_pairs(g)
    assert pairs == twin_pairs(g)
    assert [(p.u1, p.u3) for p in pairs] == [(4, 5)]
    assert pairs[0].boundary == (0, 1)
    assert set(pairs[0].supports) == {(0, 4), (1, 4), (0, 5), (1, 5)}


def test_pi_pairs_strict_rejects_small_graphs():
    with pytest.raises(PreconditionViolated):
        compute_pi_pairs(cycle(4))


def test_pi_pairs_strict_rejects_triple_twins():
    # K2,3 with a tail: 2,3,4 all share the neighborhood {0,1}
    g = build_graph(
        9,
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
         (1, 5), (5, 6), (6, 7), (7, 8)],
    )
    with pytest.raises(PreconditionViolated):
        compute_pi_pairs(g)


def test_pi_pairs_strict_rejects_low_degree_boundary():
    # twins 0,1 whose boundary vertex 2 has degree 2
    g = build_graph(
        9,
        [(0, 2), (0, 3), (1, 2), (1, 3),
         (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)],
    )
    with pytest.raises(PreconditionViolated):
        compute_pi_pairs(g)


def test_augmented_graph_without_pairs_is_identity():
    g = cycle(5)
    aug, pendants = build_augmented_graph(g, [])
    assert pendants == {}
    assert aug == g


def test_augmented_graph_adds_one_pendant_per_pair():
    g = cycle(4)
    pairs = twin_pairs(g)
    aug, pendants = build_augmented_graph(g, pairs)
    assert aug.n_alive() == g.n_alive() + 2
    assert aug.edge_count() == g.edge_count() + 2
    assert set(pendants) == {(0, 2), (1, 3)}
    for (u1, _), x in pendants.items():
        assert aug.degree(x) == 1
        assert aug.has_edge(u1, x)


def two_gadget_graph():
    # two K4 gadgets, each with its own twin pair, joined by two edges
    return build_graph(
        12,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (4, 0), (4, 1), (5, 0), (5, 1),
         (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
         (10, 6), (10, 7), (11, 6), (11, 7),
         (2, 8), (3, 9)],
    )


def test_pairs_never_share_a_support_vertex():
    pairs = compute_pi_pairs(two_gadget_graph())
    assert [(p.u1, p.u3) for p in pairs] == [(4, 5), (10, 11)]
    u1s = [p.u1 for p in pairs]
    assert len(u1s) == len(set(u1s))
    supports = [set(p.supports) for p in pairs]
    assert supports[0].isdisjoint(supports[1])


def test_pairs_on_reduced_twin_instances_have_distinct_u1():
    # after refined reduction the strict checks must hold on every leaf
    from mist import reduce_to_fixpoint

    for seed in range(8):
        trace = reduce_to_fixpoint(gen_twins(11, seed), "refined")
        for idx in trace.leaves():
            h = trace.nodes[idx].graph
            if h.n_alive() < 9:
                continue
            pairs = compute_pi_pairs(h)
            assert pairs == twin_pairs(h)
            u1s = [p.u1 for p in pairs]
            assert len(u1s) == len(set(u1s))


def test_preferred_cover_of_c5_is_the_cycle():
    c = preferred_tfpcc(cycle(5), twin_pairs(cycle(5)))
    assert c.edge_count() == 5


def test_preferred_cover_of_c4_gives_up_one_edge():
    # both opposite pairs are Pi pairs, so the full 4-cycle is not special
    pairs = twin_pairs(cycle(4))
    c = preferred_tfpcc(cycle(4), pairs)
    assert c.edge_count() == 3
    assert is_special(c, pairs)


def test_special_rejects_covers_with_busy_lower_twins():
    g = cycle(4)
    pairs = twin_pairs(g)
    full = Cover(g, g.edge_list())
    assert not is_special(full, pairs)


def test_preferred_cover_is_special_on_twin_instances():
    for seed in range(8):
        g = gen_twins(9 + seed % 3, seed)
        pairs = twin_pairs(g)
        cover = preferred_tfpcc(g, pairs)
        validate_tfpcc(cover)
        assert is_special(cover, pairs)


def test_augmented_route_matches_forced_leaves_route():
    # the two mechanisms agree whenever no pairs share a support, which
    # irreducibility guarantees for real pipeline inputs
    instances = [gen_twins(n, s) for n in (9, 10) for s in range(5)]
    instances += [gen_gnp(n, 0.35, s) for n in (8, 9, 10) for s in range(4)]
    instances += [cycle(4), cycle(5), cycle(8), two_gadget_graph()]
    checked = 0
    for g in instances:
        pairs = twin_pairs(g)
        if len({p.u1 for p in pairs}) != len(pairs):
            continue
        a = preferred_tfpcc(g, pairs)
        b = preferred_tfpcc_via_augmented(g, pairs)
        assert a.edge_count() == b.edge_count()
        assert is_special(a, pairs) and is_special(b, pairs)
        checked += 1
    assert checked >= 20


def test_preferred_cover_bounds_opt():
    instances = [gen_gnp(n, 0.3, s) for n in (9, 10, 11, 12) for s in range(5)]
    instances += [gen_twins(n, s) for n in (9, 11) for s in range(3)]
    for g in instances:
        cover = preferred_tfpcc(g, twin_pairs(g))
        assert cover.edge_count() >= opt_spanning_tree(g).weight
