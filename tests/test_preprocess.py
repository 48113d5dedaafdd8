"""Cover rewrites: firing conditions, termination measure, postconditions."""

import random
from pathlib import Path

import pytest

import mist
import mist.preprocess as pp
from mist import Graph, reduce_to_fixpoint, run
from mist.cover import Cover, compute_pi_pairs, max_tfpcc, preferred_tfpcc
from mist.errors import InternalInvariant
from mist.generate import gen_gnp, gen_twins
from mist.preprocess import (
    CoverRewrite,
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
    measure,
    preprocess,
)

from graphgen import connected_graphs_up_to_iso
from helpers import build_graph, random_connected, reference_max_tfpcc


def test_a_submodule_import_binds_the_module():
    # the package re-exports no function under a submodule's name, so
    # `import mist.preprocess as pp` gives the module with its rewrites
    assert pp.apply_rewrite is apply_rewrite and pp.preprocess is preprocess
    package = Path(pp.__file__).parent
    names = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert "preprocess" in names and not names & set(mist.__all__)


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
    # same components, same lengths: only the dead count moved
    assert after > before
    assert after[:2] == before[:2]
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


def _could_grow(cover: Cover, g: Graph) -> bool:
    """Whether one host edge could be added to the cover, or one path edge
    traded for two: two different paths have adjacent ends, or a path
    edge's ends share a neighbour that the cover leaves isolated."""
    at = cover.index()
    for p in cover.components():
        if p.kind != "path":
            continue
        for u in p.endpoints:
            for v in g.adj[u]:
                q = at[v]
                if q.key != p.key and q.kind == "path" and v in q.endpoints:
                    return True
        for u, v in p.edges:
            if any(cover.degree(x) == 0 for x in set(g.adj[u]) & set(g.adj[v])):
                return True
    return False


def _corpus():
    for make in (lambda s: gen_twins(11, s), lambda s: gen_gnp(12, 0.25, s)):
        for seed in range(40):
            yield make(seed)


def test_maximum_covers_never_gain_edges():
    # a cover that could gain an edge is not maximum, so preprocessing needs
    # no rewrite that adds one: not on exact covers, nor on the refined
    # leaves' preferred covers, nor after any step preprocessing takes
    for g in connected_graphs_up_to_iso(6):
        if g.n_alive() < 2:
            continue
        assert not _could_grow(max_tfpcc(g), g)
    steps = 0
    for g in _corpus():
        for leaf in run(g, "refined", keep_state=True).leaves:
            if leaf.method != "cover":
                continue
            h, c = leaf.graph, leaf.base_cover.copy()
            assert c.edge_count() == leaf.cover_edges
            assert not _could_grow(c, h)
            while (rw := find_cover_rewrite(c, h, "refined")) is not None:
                apply_rewrite(c, rw)
                assert not _could_grow(c, h), rw.kind
                steps += 1
            assert sorted(c.edge_list()) == sorted(leaf.pre_cover.edge_list())
    assert steps  # some leaf took a step


def test_every_applied_rewrite_is_an_exchange(monkeypatch):
    apply = pp.apply_rewrite
    fired = set()

    def checked(c, rw):
        before = c.edge_count()
        apply(c, rw)
        assert len(rw.added) == len(rw.removed), rw
        assert c.edge_count() == before, rw
        fired.add(rw.kind)

    monkeypatch.setattr(pp, "apply_rewrite", checked)
    for g in _corpus():
        for mode in ("simple", "refined"):
            run(g, mode)
    assert fired >= {"op6", "op7", "op12"}


def test_a_rewrite_that_changes_the_cover_size_is_refused():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    c = Cover(g, [(0, 1), (2, 3)])
    rw = CoverRewrite("op6", (), ((1, 2),), ())
    with pytest.raises(InternalInvariant, match="op6 would change the cover size"):
        apply_rewrite(c, rw)
    assert sorted(c.edge_list()) == [(0, 1), (2, 3)]


def test_measure_rises_across_every_rewrite():
    fired = set()
    for seed in range(40):
        rng = random.Random(seed)
        g = random_connected(rng.randint(5, 9), 0.3, rng)
        for mode in ("simple", "refined"):
            c = max_tfpcc(g)
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
    g = gen_gnp(11, 0.3, 23)
    cover = reference_max_tfpcc(g)
    cover_searches.clear()
    steps = []
    apply = pp.apply_rewrite
    monkeypatch.setattr(pp, "apply_rewrite", lambda c, rw: steps.append(rw) or apply(c, rw))
    preprocess(cover, g, "simple")
    assert (len(cover_searches), len(steps)) == (3, 2)


def test_preprocess_returns_a_new_cover_of_equal_size():
    for seed in range(20):
        rng = random.Random(seed)
        g = random_connected(rng.randint(6, 10), 0.3, rng)
        c = max_tfpcc(g)
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
