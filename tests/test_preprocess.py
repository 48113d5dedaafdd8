"""Cover rewrites: firing conditions, termination measure, postconditions."""

import importlib
import random

from mist import Graph, reduce_to_fixpoint
from mist.cover import Cover, compute_pi_pairs, preferred_tfpcc
from mist.exact import max_tfpcc
from mist.generate import gen_gnp, gen_twins
from mist.preprocess import (
    apply_rewrite,
    check_dead_four_paths_pendant_ends,
    check_four_cycles_three_ports,
    check_pairs_off_cycles,
    check_port_neighbor_growth,
    check_short_paths_alive,
    cycle_port_properties,
    find_cover_rewrite,
    find_op5,
    find_op6,
    find_op7,
    find_op12,
    find_op13,
    find_op14,
    measure,
    preprocess,
)

from graphgen import connected_graphs_up_to_iso
from helpers import build_graph, random_connected, reference_max_tfpcc


def test_spanning_cycle_cover_is_already_fixed():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    c = Cover(g, list(g.edge_list()))
    assert find_cover_rewrite(c, g, "simple") is None
    assert find_cover_rewrite(c, g, "refined") is None


def test_dead_short_path_reroutes_onto_a_port():
    # the 2-path 0-1-2 over the triangle is dead; rerouting through the
    # other triangle edge leaves the port vertex 1 as an endpoint
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4)])
    c = Cover(g, [(0, 1), (1, 2), (3, 4)])
    assert check_short_paths_alive(c, g) != []
    rw = find_op5(c, g)
    assert rw is not None and rw.kind == "op5"
    assert rw.removed == ((0, 1),)
    assert rw.added == ((0, 2),)
    before = measure(c, g)
    apply_rewrite(c, rw)
    after = measure(c, g)
    # same edges, same components, same lengths: only the dead count moved
    assert after > before
    assert after[:3] == before[:3]
    assert check_short_paths_alive(c, g) == []
    assert find_cover_rewrite(c, g, "simple") is None


def test_path_endpoint_opens_an_adjacent_cycle():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (0, 4)])
    c = Cover(g, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    rw = find_cover_rewrite(c, g, "simple")
    assert rw is not None and rw.kind == "op6"
    assert rw.removed == ((0, 1),)
    assert rw.added == ((0, 4),)
    before = measure(c, g)
    apply_rewrite(c, rw)
    assert measure(c, g) > before
    comps = c.components()
    assert [comp.kind for comp in comps] == ["path"]
    assert comps[0].length == 5
    assert find_cover_rewrite(c, g, "simple") is None


def test_endpoint_regrafts_where_the_longest_path_grows():
    # grafting 0-1 onto the interior vertex 3 and cutting (2, 3) turns a
    # 4-path plus a 1-path into a 5-path plus a leftover singleton
    g = build_graph(7, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)])
    c = Cover(g, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert find_op5(c, g) is None and find_op6(c, g) is None
    rw = find_op7(c, g)
    assert rw is not None and rw.kind == "op7"
    assert rw.removed == ((2, 3),)
    assert rw.added == ((1, 3),)
    before = measure(c, g)
    apply_rewrite(c, rw)
    assert measure(c, g) > before
    orders = sorted(comp.order for comp in c.components())
    assert orders == [(0, 1, 3, 4, 5, 6), (2,)]
    assert find_cover_rewrite(c, g, "simple") is None


def test_cycle_pair_swaps_through_a_host_ladder():
    # two cover 4-cycles, host rungs (0, 4) and (1, 5): the swap welds
    # them into one 8-cycle without spending an edge
    g = build_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
         (0, 4), (1, 5)],
    )
    c = Cover(g, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    for fn in (find_op5, find_op6, find_op7):
        assert fn(c, g) is None
    rw = find_op12(c, g)
    assert rw is not None and rw.kind == "op12"
    assert rw.removed == ((0, 1), (4, 5))
    assert rw.added == ((0, 4), (1, 5))
    before = measure(c, g)
    apply_rewrite(c, rw)
    assert measure(c, g) > before
    comps = c.components()
    assert [(comp.kind, comp.length) for comp in comps] == [("cycle", 8)]
    assert find_cover_rewrite(c, g, "refined") is None


def test_adjacent_path_ends_join_in_refined_mode_only():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    c = Cover(g, [(0, 1), (2, 3)])
    assert find_cover_rewrite(c, g, "simple") is None
    rw = find_cover_rewrite(c, g, "refined")
    assert rw is not None and rw.kind == "op13"
    assert rw.removed == ()
    assert rw.added == ((1, 2),)
    apply_rewrite(c, rw)
    assert c.edge_count() == 3


def test_interior_edge_detours_through_an_isolated_vertex():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])
    c = Cover(g, [(0, 1), (1, 2), (2, 3)])
    for fn in (find_op5, find_op6, find_op7, find_op12, find_op13):
        assert fn(c, g) is None
    rw = find_op14(c, g)
    assert rw is not None and rw.kind == "op14"
    assert rw.removed == ((1, 2),)
    assert rw.added == ((1, 4), (2, 4))
    apply_rewrite(c, rw)
    assert c.edge_count() == 4  # net gain of one edge
    comps = c.components()
    assert [comp.order for comp in comps] == [(0, 1, 4, 2, 3)]
    assert find_cover_rewrite(c, g, "refined") is None


def test_endpoint_join_preempts_the_detour_on_a_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Cover(g, [(0, 1)])
    rw = find_cover_rewrite(c, g, "refined")
    assert rw is not None and rw.kind == "op13"
    assert rw.added == ((0, 2),)


def test_maximum_covers_never_gain_edges():
    # the two edge-adding rewrites would contradict maximality, so they
    # must stay quiet on every exact cover
    for g in connected_graphs_up_to_iso(6):
        if g.n_alive() < 2:
            continue
        c = Cover(g, max_tfpcc(g))
        assert find_op13(c, g) is None
        assert find_op14(c, g) is None


def test_measure_rises_across_every_rewrite():
    fired = set()
    for seed in range(40):
        rng = random.Random(seed)
        g = random_connected(rng.randint(5, 9), 0.3, rng)
        for mode in ("simple", "refined"):
            c = Cover(g, max_tfpcc(g))
            prev = measure(c, g)
            while True:
                rw = find_cover_rewrite(c, g, mode)
                if rw is None:
                    break
                apply_rewrite(c, rw)
                cur = measure(c, g)
                assert cur > prev, (seed, mode, rw.kind)
                prev = cur
                fired.add(rw.kind)
    assert fired  # the loop actually exercised some rewrites


def test_preprocess_searches_components_once_per_step(monkeypatch, cover_searches):
    # one component list per step serves the measure and the next finders;
    # the branch and bound's cover takes two steps, max_tfpcc's only one
    module = importlib.import_module("mist.preprocess")
    g = gen_gnp(11, 0.3, 23)
    cover = reference_max_tfpcc(g)
    cover_searches.clear()
    steps = []
    apply = module.apply_rewrite
    monkeypatch.setattr(module, "apply_rewrite", lambda c, rw: steps.append(rw) or apply(c, rw))
    preprocess(cover, g, "simple")
    assert (len(cover_searches), len(steps)) == (3, 2)


def test_preprocess_returns_a_new_cover_of_equal_size():
    for seed in range(20):
        rng = random.Random(seed)
        g = random_connected(rng.randint(6, 10), 0.3, rng)
        c = Cover(g, max_tfpcc(g))
        snapshot = sorted(c.edge_list())
        for mode in ("simple", "refined"):
            pre = preprocess(c, g, mode)
            assert pre is not c
            assert pre.edge_count() == c.edge_count()
            assert sorted(c.edge_list()) == snapshot
            assert find_cover_rewrite(pre, g, mode) is None


def test_fixpoint_postconditions_on_reduced_leaves():
    checked = 0
    for make in (lambda s: gen_twins(11, s), lambda s: gen_gnp(12, 0.25, s)):
        for seed in range(8):
            g = make(seed)
            trace = reduce_to_fixpoint(g, "refined")
            for idx in trace.leaves():
                h = trace.nodes[idx].graph
                if h.n_alive() < 9:
                    continue
                pairs = tuple(compute_pi_pairs(h))
                pre = preprocess(preferred_tfpcc(h, pairs), h, "refined")
                assert check_short_paths_alive(pre, h) == []
                assert check_port_neighbor_growth(pre, h) == []
                assert check_dead_four_paths_pendant_ends(pre, h) == []
                assert check_four_cycles_three_ports(pre, h) == []
                assert check_pairs_off_cycles(pre, pairs) == []
                for comp in pre.components():
                    if comp.kind == "cycle":
                        assert cycle_port_properties(h, comp) == []
                checked += 1
    assert checked >= 5


def test_cycle_port_report_flags_a_portless_cycle():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = Cover(g, list(g.edge_list()))
    assert cycle_port_properties(g, c.components()[0]) != []

    # the same cycle with three outside neighbors is unobjectionable
    g = build_graph(
        7,
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (4, 5), (5, 6)],
    )
    c = Cover(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cycle_port_properties(g, c.components()[0]) == []
