"""Cover-to-tree transforms: the simple route and the three refined stages."""

import pytest

from mist import Graph
from mist.cover import Cover, compute_pi_pairs, preferred_tfpcc
from mist.errors import InternalInvariant
from mist.exact import opt_spanning_tree
from mist.generate import gen_gnp, gen_twins
from mist.preprocess import preprocess
from mist.reduce import reduce_to_fixpoint
from mist.transform import (
    ComponentStats,
    build_tree_simple,
    check_stage2_structure,
    classify_component,
    compute_stats,
    run_transform,
    stage1_connect,
    stage2_fixpoint,
    stage3_finish,
    _op15,
    _op16,
    _op17,
    _op18,
    _op19,
    _op20,
    _op21,
    _op22,
    _op23,
)

from helpers import build_graph


def pedges(a, b):
    """Edges of the path a, a+1, ..., b."""
    return [(i, i + 1) for i in range(a, b)]


def cyc(vs):
    vs = list(vs)
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def fire(work, g, base, op):
    comps = work.components()
    infos = {c.key: classify_component(c, base) for c in comps}
    return op(work, g, comps, infos, work.index())


def cover_on(n, host_edges, cover_edges=None):
    g = build_graph(n, host_edges)
    c = Cover(g, host_edges if cover_edges is None else cover_edges)
    return g, c


def stats_of(c):
    """Stage-2 stats of the cover, each component classified against its own edges."""
    base = tuple(c.edge_list())
    return compute_stats([classify_component(x, base) for x in c.components()])


# ----------------------------------------------------------- simple route


def test_simple_route_keeps_a_hamiltonian_path():
    g, c = cover_on(6, pedges(0, 5))
    t = build_tree_simple(c, g)
    assert t.weight == 4
    assert t.edges == tuple(pedges(0, 5))


def test_simple_route_breaks_a_spanning_cycle():
    g, c = cover_on(6, cyc(range(6)))
    t = build_tree_simple(c, g)
    assert t.weight == 4
    assert t.weight == opt_spanning_tree(g).weight
    assert t.edges == ((0, 5), (1, 2), (2, 3), (3, 4), (4, 5))


def test_simple_route_attaches_a_short_path():
    # a 2-path hangs next to an 8-path; attaching it at the host edge
    # (9, 4) keeps both of its covered vertices internal
    host = pedges(0, 8) + [(9, 10), (10, 11), (9, 4)]
    g, c = cover_on(12, host, pedges(0, 8) + [(9, 10), (10, 11)])
    t = build_tree_simple(c, g)
    assert t.weight == 9
    assert 4 * t.weight >= 3 * 10  # ten cover edges
    assert t.edges == tuple(sorted(pedges(0, 8) + [(4, 9), (9, 10), (10, 11)]))


@pytest.mark.parametrize(
    "n, host, cover, searches",
    [
        (6, pedges(0, 5), None, 1),
        (6, cyc(range(6)), None, 1),
        (12, pedges(0, 8) + [(9, 10), (10, 11), (9, 4)], pedges(0, 8) + [(9, 10), (10, 11)], 2),
    ],
    ids=["path", "spanning-cycle", "short-path"],
)
def test_simple_route_searches_components_once_per_edit(cover_searches, n, host, cover, searches):
    # once up front, once after the short-path pass if it attached anything,
    # and once after each opened cycle but a spanning one, whose opening
    # leaves a Hamiltonian path
    g, c = cover_on(n, host, cover)
    build_tree_simple(c, g)
    assert len(cover_searches) == searches


# --------------------------------------------------------------- stage 1


def test_stage1_attaches_a_short_path_to_a_long_interior():
    g, c = cover_on(7, pedges(0, 4) + [(5, 6), (5, 2)], pedges(0, 4) + [(5, 6)])
    base = tuple(c.edge_list())
    work = c.copy()
    gamma, gamma_prime, added = stage1_connect(work, g, base)
    assert gamma == ((5, 0),)
    assert gamma_prime == ((5, 0),)
    assert added == ((2, 5),)
    comps = work.components()
    assert [cc.kind for cc in comps] == ["tree"]
    info = classify_component(comps[0], base)
    assert info.label == "c2" and info.b == 5
    assert comps[0].leaves == (0, 4, 6)


def test_stage1_chains_through_two_levels():
    # P (one edge) hangs off Q (four edges) which hangs off R (ten edges);
    # each target is long enough for its source, so both edges go in
    host = (
        pedges(0, 10)
        + [(11, 12), (12, 13), (13, 14), (14, 15), (16, 17)]
        + [(11, 5), (16, 13)]
    )
    cover_edges = pedges(0, 10) + [(11, 12), (12, 13), (13, 14), (14, 15), (16, 17)]
    g, c = cover_on(18, host, cover_edges)
    base = tuple(c.edge_list())
    work = c.copy()
    gamma, gamma_prime, added = stage1_connect(work, g, base)
    assert gamma == ((11, 0), (16, 11))
    assert gamma_prime == ((11, 0), (16, 11))
    assert added == ((5, 11), (13, 16))
    comps = work.components()
    assert [(cc.kind, classify_component(cc, base).label) for cc in comps] == [
        ("tree", "c2")
    ]


def test_stage1_rejects_a_target_that_is_too_short():
    # a 1-path may only climb onto a path of length at least four
    g, c = cover_on(5, [(0, 1), (1, 2), (3, 4), (3, 1)], [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(InternalInvariant):
        stage1_connect(c.copy(), g, tuple(c.edge_list()))


# --------------------------------------------------------------- stage 2


def test_two_long_cycles_weld_into_one_path():
    g, c = cover_on(10, cyc(range(0, 5)) + cyc(range(5, 10)) + [(0, 5)],
                    cyc(range(0, 5)) + cyc(range(5, 10)))
    base = tuple(c.edge_list())
    assert fire(c.copy(), g, base, _op15) is not None
    work = c.copy()
    fire(work, g, base, _op15)
    comps = work.components()
    assert [(cc.kind, cc.length) for cc in comps] == [("path", 9)]
    assert classify_component(comps[0], base).label == "c2"
    assert work.edge_list() == [
        (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (5, 9), (6, 7), (7, 8), (8, 9)
    ]


def test_a_long_cycle_opens_onto_a_good_component():
    g, c = cover_on(11, cyc(range(0, 5)) + pedges(5, 10) + [(0, 7)],
                    cyc(range(0, 5)) + pedges(5, 10))
    base = tuple(c.edge_list())
    assert fire(c.copy(), g, base, _op15) is None
    work = c.copy()
    assert fire(work, g, base, _op16) is not None
    comps = work.components()
    assert [cc.kind for cc in comps] == ["tree"]
    assert classify_component(comps[0], base).label == "c2"
    assert work.edge_list() == [
        (0, 4), (0, 7), (1, 2), (2, 3), (3, 4),
        (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
    ]


def test_a_six_cycle_opens_onto_a_dead_4_path():
    g, c = cover_on(11, cyc(range(0, 6)) + pedges(6, 10) + [(0, 8)],
                    cyc(range(0, 6)) + pedges(6, 10))
    base = tuple(c.edge_list())
    for op in (_op15, _op16):
        assert fire(c.copy(), g, base, op) is None
    work = c.copy()
    assert fire(work, g, base, _op17) is not None
    assert [cc.kind for cc in work.components()] == ["tree"]
    assert classify_component(work.components()[0], base).label == "c2"
    assert work.edge_list() == [
        (0, 5), (0, 8), (1, 2), (2, 3), (3, 4), (4, 5),
        (6, 7), (7, 8), (8, 9), (9, 10),
    ]


def test_an_isolated_vertex_bridges_two_components():
    g, c = cover_on(13, pedges(1, 6) + pedges(7, 12) + [(0, 3), (0, 9)],
                    pedges(1, 6) + pedges(7, 12))
    base = tuple(c.edge_list())
    work = c.copy()
    assert fire(work, g, base, _op18) == 0
    comps = work.components()
    assert len(comps) == 1
    assert classify_component(comps[0], base).label == "c2"
    assert work.edge_list() == [
        (0, 3), (0, 9), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
        (7, 8), (8, 9), (9, 10), (10, 11), (11, 12),
    ]


def test_a_good_leaf_swallows_an_adjacent_cycle():
    g, c = cover_on(11, pedges(0, 5) + cyc(range(6, 11)) + [(0, 6)],
                    pedges(0, 5) + cyc(range(6, 11)))
    base = tuple(c.edge_list())
    work = c.copy()
    assert fire(work, g, base, _op19) == 0
    comps = work.components()
    assert [(cc.kind, cc.length) for cc in comps] == [("path", 10)]
    assert work.edge_list() == [
        (0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5),
        (6, 10), (7, 8), (8, 9), (9, 10),
    ]


def test_a_cycle_edge_splits_toward_two_components():
    host = cyc(range(0, 4)) + pedges(4, 9) + pedges(10, 15) + [(0, 6), (1, 12)]
    g, c = cover_on(16, host, cyc(range(0, 4)) + pedges(4, 9) + pedges(10, 15))
    base = tuple(c.edge_list())
    for op in (_op15, _op16, _op17, _op18, _op19):
        assert fire(c.copy(), g, base, op) is None
    work = c.copy()
    assert fire(work, g, base, _op20) == 0
    comps = work.components()
    assert len(comps) == 1
    assert classify_component(comps[0], base).label == "c2"
    assert work.edge_list() == [
        (0, 3), (0, 6), (1, 2), (1, 12), (2, 3),
        (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        (10, 11), (11, 12), (12, 13), (13, 14), (14, 15),
    ]


def test_a_dead_path_with_an_end_chord_rolls_and_escapes():
    host = pedges(0, 5) + pedges(6, 11) + [(0, 5), (2, 8)]
    g, c = cover_on(12, host, pedges(0, 5) + pedges(6, 11))
    base = tuple(c.edge_list())
    for op in (_op15, _op16, _op17, _op18, _op19, _op20):
        assert fire(c.copy(), g, base, op) is None
    work = c.copy()
    assert fire(work, g, base, _op21) == 2
    comps = work.components()
    assert len(comps) == 1
    assert classify_component(comps[0], base).label == "c2"
    assert work.edge_list() == [
        (0, 1), (0, 5), (2, 3), (2, 8), (3, 4), (4, 5),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 11),
    ]


def test_a_tree_with_adjacent_leaves_loses_its_branch():
    tree_edges = pedges(0, 8) + [(4, 9), (9, 10)]
    g, c = cover_on(11, tree_edges + [(0, 10)], tree_edges)
    base = tuple(c.edge_list())
    for op in (_op15, _op16, _op17, _op18, _op19, _op20, _op21):
        assert fire(c.copy(), g, base, op) is None
    work = c.copy()
    assert fire(work, g, base, _op22) == 0
    comps = work.components()
    # the branch edge (3, 4) went away and the leaf chord came in
    assert [(cc.kind, cc.length) for cc in comps] == [("path", 10)]
    assert (0, 10) in work.edge_list()
    assert (3, 4) not in work.edge_list()
    assert work.edge_list() == [
        (0, 1), (0, 10), (1, 2), (2, 3), (4, 5),
        (4, 9), (5, 6), (6, 7), (7, 8), (9, 10),
    ]


def test_an_isolated_vertex_rewires_a_dead_4_path():
    host = pedges(1, 5) + pedges(6, 11) + [(0, 2), (0, 4), (3, 9)]
    g, c = cover_on(12, host, pedges(1, 5) + pedges(6, 11))
    base = tuple(c.edge_list())
    for op in (_op15, _op16, _op17, _op18, _op19, _op20, _op21, _op22):
        assert fire(c.copy(), g, base, op) is None
    work = c.copy()
    assert fire(work, g, base, _op23) == 0
    comps = work.components()
    assert len(comps) == 1
    assert classify_component(comps[0], base).label == "c2"
    edges = work.edge_list()
    assert (2, 3) not in edges
    assert {(0, 2), (0, 4), (3, 9)} <= set(edges)
    assert edges == [
        (0, 2), (0, 4), (1, 2), (3, 4), (3, 9), (4, 5),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 11),
    ]


def test_stage2_searches_components_once_per_step(cover_searches):
    # two copies of the welding instance above, joined by one host edge
    weld = cyc(range(0, 5)) + cyc(range(5, 10))
    twin = cyc(range(10, 15)) + cyc(range(15, 20))
    g, c = cover_on(20, weld + twin + [(0, 5), (10, 15), (2, 12)], weld + twin)
    infos = stage2_fixpoint(c, g, tuple(c.edge_list()))
    assert [(i.comp.kind, i.comp.length) for i in infos] == [("path", 9), ("path", 9)]
    assert [i.label for i in infos] == ["c2", "c2"]
    assert len(cover_searches) == 3  # once up front, once after each of the two welds


# ---------------------------------------------------------- classification


def test_classification_of_basic_shapes():
    g, c = cover_on(11, pedges(0, 10))
    base = tuple(c.edge_list())
    assert classify_component(c.components()[0], base).label == "c2"

    g, c = cover_on(5, pedges(0, 4))
    base = tuple(c.edge_list())
    info = classify_component(c.components()[0], base)
    assert info.label == "bad" and info.b == 4

    # four base edges inside, four internal vertices, three leaves
    g, c = cover_on(7, pedges(0, 4) + [(2, 5), (5, 6)])
    info = classify_component(c.components()[0], tuple(pedges(0, 4)))
    assert info.label == "c3"
    assert info.b == 4
    assert len(info.comp.internal) == 4 and len(info.comp.leaves) == 3


def test_stats_tally_cycles_paths_and_good_components():
    g, c = cover_on(15, cyc(range(0, 4)) + pedges(4, 14))
    st = stats_of(c)
    assert st == ComponentStats(g2=9, g3=0, b2=10, b3=0, c4=1, c5=0, p4=0)
    assert st.tree_floor == 12
    assert st.opt_cap_edges == 14
    assert st.opt_cap_internal == 21

    g, c = cover_on(10, cyc(range(0, 5)) + pedges(5, 9))
    st = stats_of(c)
    assert st == ComponentStats(g2=0, g3=0, b2=0, b3=0, c4=0, c5=1, p4=1)
    assert st.tree_floor == 7
    assert st.opt_cap_edges == 9
    assert st.opt_cap_internal == 8


def test_stats_reject_long_cycles():
    g, c = cover_on(6, cyc(range(6)))
    with pytest.raises(InternalInvariant):
        stats_of(c)


# --------------------------------------------------------------- stage 3


def test_stage3_opens_a_cycle_onto_one_it_already_opened():
    # 0-1-2-3 opens towards the path 8-9 first; 4-5-6-7 then reaches 1,
    # whose cycle is open by now, so no two surviving cycles are adjacent
    cycles = cyc(range(0, 4)) + cyc(range(4, 8))
    g, c = cover_on(10, cycles + [(8, 9), (0, 8), (1, 4)], cycles + [(8, 9)])
    t = stage3_finish(c, g)
    assert {(0, 8), (1, 4)} <= set(t.edges)


def test_stage3_rejects_a_cycle_next_to_a_surviving_cycle():
    cycles = cyc(range(0, 4)) + cyc(range(4, 8))
    g, c = cover_on(10, cycles + [(8, 9), (0, 4), (5, 8)], cycles + [(8, 9)])
    with pytest.raises(InternalInvariant, match="two surviving cycles"):
        stage3_finish(c, g)


def test_stage3_keeps_a_spanning_path():
    g, c = cover_on(6, pedges(0, 5))
    t = stage3_finish(c.copy(), g)
    assert t.weight == 4
    assert sorted(t.edges) == pedges(0, 5)


def test_stage3_opens_a_4_cycle_at_its_port():
    g, c = cover_on(10, cyc(range(0, 4)) + pedges(4, 9) + [(0, 6)],
                    cyc(range(0, 4)) + pedges(4, 9))
    st = stats_of(c)
    t = stage3_finish(c.copy(), g)
    assert t.weight == 7
    assert t.weight >= st.tree_floor == 7


def test_stage3_handles_a_5_cycle_and_a_4_path():
    g, c = cover_on(10, cyc(range(0, 5)) + pedges(5, 9) + [(0, 7)],
                    cyc(range(0, 5)) + pedges(5, 9))
    st = stats_of(c)
    t = stage3_finish(c.copy(), g)
    assert t.weight == 7 == st.tree_floor


# ------------------------------------------------------------- full runs


def leaf_states(g):
    """Transform state for every irreducible leaf big enough for covers."""
    trace = reduce_to_fixpoint(g, "refined")
    out = []
    for idx in trace.leaves():
        h = trace.nodes[idx].graph
        if h.n_alive() < 9:
            continue
        pre = preprocess(preferred_tfpcc(h, compute_pi_pairs(h)), h, "refined")
        out.append((h, pre, run_transform(pre, h)))
    return out


def test_all_cycle_covers_end_in_a_spanning_path():
    hit = 0
    for n, seed in ((10, 8), (9, 39)):
        for h, pre, state in leaf_states(gen_gnp(n, 0.3, seed)):
            if state.stats is None:
                hit += 1
                assert state.tree.weight == h.n_alive() - 2
                assert state.tree.weight == opt_spanning_tree(h).weight
    assert hit >= 2


def test_two_adjacent_cycles_open_into_one_path():
    # the only all-cycle cover with two components: a 4-cycle and a 5-cycle
    # joined by one host edge, which both of them open at
    cycles = cyc(range(0, 4)) + cyc(range(4, 9))
    g, c = cover_on(9, cycles + [(0, 4)], cycles)
    state = run_transform(c, g)
    assert state.stats is None
    assert state.tree.edges == (
        (0, 3), (0, 4), (1, 2), (2, 3), (4, 8), (5, 6), (6, 7), (7, 8)
    )
    assert state.tree.weight == 7


def test_transform_state_invariants_on_generated_instances():
    checked = 0
    for make in (
        lambda s: gen_gnp(10, 0.3, s),
        lambda s: gen_gnp(12, 0.25, s),
        lambda s: gen_twins(11, s),
    ):
        for seed in range(12):
            for h, pre, state in leaf_states(make(seed)):
                assert state.base_edges == tuple(pre.edge_list())
                assert set(state.stage1_added) <= set(state.cover1.edge_list())
                if state.stats is not None:
                    assert state.tree.weight >= state.stats.tree_floor
                    assert check_stage2_structure(
                        state.cover2, h, state.base_edges
                    ) == []
                else:
                    assert state.tree.weight == h.n_alive() - 2
                checked += 1
    assert checked >= 8
