"""End-to-end runs: solve wrappers, reports, and run verification."""

import gc
import random
import tracemalloc

import pytest

import mist.cover
import mist.pipeline
import mist.preprocess
from mist import Graph, run, solve_refined, solve_simple, verify_run
from mist.errors import BadParams, DisconnectedInput, MistError, NonTermination
from mist.exact import TreeResult, cut_bound, internal_bound, opt_spanning_tree, tree_result
from mist.generate import gen_cycle, gen_gnp, gen_path, gen_theta, gen_twins

from helpers import build_graph, outcome_digest, outcome_line

# sha256 over the outcome lines of every chain-family run below; a change to
# the reduction engine that keeps its behaviour must reproduce it exactly
CHAIN_DIGEST = "597e6bce634e4e3b132d8b1233dd0bb79173e4b2aff09b5200de3c2f4607249e"


def pedges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cyc(n):
    return [(i, (i + 1) % n) for i in range(n)]


def test_simple_solves_a_path_exactly():
    g = build_graph(7, pedges(7))
    report = run(g, "simple", keep_state=True)
    assert report.tree.weight == 5
    assert report.upper_bound == 5
    kinds = [n.applied.kind for n in report.trace.nodes if n.applied]
    assert kinds == ["op4"]
    vr = verify_run(g, report)
    assert vr.ok and vr.opt == 5
    assert [c.name for c in vr.checks] == [
        "tree-spans-input",
        "weight-below-upper-bound",
        "opt-below-upper-bound",
        "weight-at-most-opt",
        "ratio",
    ]


def test_simple_takes_the_cover_route_on_a_long_cycle():
    g = build_graph(9, cyc(9))
    report = run(g, "simple", keep_state=True)
    assert report.tree.weight == 7
    assert report.upper_bound == 9
    assert [leaf.method for leaf in report.leaves] == ["cover"]
    vr = verify_run(g, report)
    assert vr.ok and vr.opt == 7
    names = [c.name for c in vr.checks]
    assert "leaf0-cover-ratio" in names
    assert "leaf0-cover-bounds-opt" in names
    assert "ratio" in names


def test_refined_solves_a_long_path_exactly():
    g = build_graph(9, pedges(9))
    report = run(g, "refined", keep_state=True)
    assert report.tree.weight == 7
    assert report.upper_bound == 7
    vr = verify_run(g, report)
    assert vr.ok and vr.opt == 7


def test_a_refined_run_of_a_2000_path_spans_it_in_two_trace_nodes():
    # op4 peels the path down to 10 vertices and then its last piece in one
    # step, so the trace stays short and the lift linear at any length
    g = gen_path(2000)
    report = run(g, "refined", keep_state=True)
    assert len(report.trace.nodes) == 2
    assert report.tree.weight == report.upper_bound == 1998
    checks = {c.name: c.ok for c in verify_run(g, report).checks}
    assert checks["tree-spans-input"] and checks["weight-below-upper-bound"]


def test_refined_handles_the_triple_twin_instance():
    g = build_graph(
        9,
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
         (0, 5), (1, 5), (5, 6), (6, 7), (7, 8)],
    )
    report = run(g, "refined", keep_state=True)
    assert report.tree.weight == 6
    vr = verify_run(g, report)
    assert vr.ok and vr.opt == 6
    assert 17 * report.tree.weight >= 13 * vr.opt


def test_the_report_holds_the_trace_root_as_its_graph():
    # the input is copied once, into the trace root, and the report shares it
    g = gen_gnp(10, 0.4, 7)
    report = run(g, "refined")
    assert report.graph is report.trace.nodes[0].graph
    assert report.graph is not g and report.graph == g


def test_a_refined_run_of_a_200_cycle_allocates_under_one_mib():
    # the trace keeps one step per node and the graphs of its root and
    # leaves; a graph per node peaked at about 4.5 MiB here
    g = gen_cycle(200)
    tracemalloc.start()
    try:
        run(g, "refined")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("g, mode", [(gen_theta(48), "refined"), (gen_cycle(48), "simple")])
def test_a_run_and_its_verification_leave_no_cyclic_garbage(g, mode):
    # a recursive closure refers to itself through its cell, so each call
    # of its function would leave the closure, and the search state it
    # holds, for the cycle collector
    gc.collect()
    gc.disable()
    try:
        assert verify_run(g, run(g, mode, keep_state=True)).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def _count_searches(monkeypatch):
    """Record (graph, floor) for every opt_spanning_tree call verify_run makes."""
    solved = []

    def counted(h, floor=0):
        solved.append((h, floor))
        return opt_spanning_tree(h, floor=floor)

    monkeypatch.setattr(mist.pipeline, "opt_spanning_tree", counted)
    return solved


@pytest.mark.parametrize(
    "g, mode",
    [(build_graph(9, cyc(9)), "simple"), (gen_gnp(10, 0.4, 7), "refined")],
)
def test_verification_certifies_a_root_that_is_its_own_leaf_without_a_search(
    monkeypatch, g, mode
):
    # the run's tree meets the leaf bound n - max(2, #degree <= 1), so it is
    # optimal and the verifier needs no search (the 9-cycle's is a Hamiltonian path)
    report = run(g, mode, keep_state=True)
    assert [(leaf.method, leaf.graph) for leaf in report.leaves] == [("cover", g)]
    assert report.tree.weight == internal_bound(g)
    solved = _count_searches(monkeypatch)
    vr = verify_run(g, report)
    assert solved == []
    assert vr.ok and vr.opt == opt_spanning_tree(g).weight
    names = [c.name for c in vr.checks]
    assert "leaf0-cover-bounds-opt" in names and "leaf0-ratio" in names


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_verification_certifies_a_tree_that_meets_the_cut_bound_without_a_search(
    monkeypatch, mode
):
    # a spider whose three legs end in triangles: no vertex has degree 1, so
    # the leaf bound is 10 - 2 = 8, but the centre leaves three pieces, so
    # every spanning tree has at least 3 leaves and the cut bound 7 is the optimum
    legs = [(0, 1), (0, 4), (0, 7)]
    triangles = [(a, b) for x in (1, 4, 7) for a, b in ((x, x + 1), (x + 1, x + 2), (x, x + 2))]
    g = build_graph(10, legs + triangles)
    report = run(g, mode, keep_state=True)
    assert (internal_bound(g), cut_bound(g), report.tree.weight) == (8, 7, 7)
    solved = _count_searches(monkeypatch)
    vr = verify_run(g, report)
    assert solved == []
    assert vr.ok and vr.opt == opt_spanning_tree(g).weight == 7


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_verification_seeds_one_search_with_the_trees_weight(monkeypatch, mode):
    # weight 8 against a leaf bound of 9: one search for a heavier tree,
    # floor 9, for the input and its own cover leaf together
    g = gen_gnp(11, 0.3, 27)
    report = run(g, mode, keep_state=True)
    assert [(leaf.method, leaf.graph) for leaf in report.leaves] == [("cover", g)]
    assert (report.tree.weight, internal_bound(g)) == (8, 9)
    solved = _count_searches(monkeypatch)
    vr = verify_run(g, report)
    assert solved == [(g, 9)]
    assert vr.ok and vr.opt == opt_spanning_tree(g).weight == 8


@pytest.mark.parametrize(
    "g, mode",
    [(build_graph(9, cyc(9)), "simple"), (gen_gnp(10, 0.4, 7), "refined")],
)
def test_verification_searches_no_leaf_cover(cover_searches, g, mode):
    # every retained cover keeps the component list the run searched
    report = run(g, mode, keep_state=True)
    assert any(leaf.method == "cover" for leaf in report.leaves)
    cover_searches.clear()
    assert verify_run(g, report).ok
    assert cover_searches == []


def test_a_refined_leaf_searches_its_cover_once(cover_searches):
    # preprocess fires no rewrite and stage 1 adds no edge here, so the one
    # list serves preprocess, stage 1, its tree check and stage 2
    run(gen_gnp(12, 0.3, 5), "refined")
    assert len(cover_searches) == 1


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_a_cover_leaf_searches_its_first_cover_once(monkeypatch, cover_searches, mode):
    # max_tfpcc reads triangles off the components of the cover it returns,
    # and that one list serves preprocess's first finders and first measure
    solve, measure = mist.cover.max_tfpcc, mist.preprocess.measure
    firsts, searched = [], {}  # searched: leaf -> searches up to its first measure

    def solved(g, forced_leaves=()):
        cover_searches.clear()
        firsts.append(solve(g, forced_leaves))
        return firsts[-1]

    def measured(c, g):
        searched.setdefault(len(firsts) - 1, list(cover_searches))
        return measure(c, g)

    monkeypatch.setattr(mist.cover, "max_tfpcc", solved)
    monkeypatch.setattr(mist.preprocess, "measure", measured)
    for seed in range(60):
        for n, p in ((12, 0.3), (16, 0.5), (20, 0.25)):
            run(gen_gnp(n, p, seed), mode)
    for leaf, found in searched.items():
        first = firsts[leaf]
        assert [c for c in found if c is first] == [first] == found[-1:]
    banned = sum(len(found) > 1 for found in searched.values())
    assert len(searched) > 15 and banned > 1, (len(searched), banned)


def test_run_rejects_bad_inputs():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(BadParams):
        run(g, "fancy")
    with pytest.raises(BadParams):
        run(Graph(0), "simple")
    with pytest.raises(DisconnectedInput):
        run(build_graph(4, [(0, 1), (2, 3)]), "simple")


def test_a_simple_18_cycle_solves_and_verifies():
    # simple mode leaves an 18-cycle unreduced, so the root is the only
    # leaf: max_tfpcc covers it with the whole cycle
    g = gen_cycle(18)
    report = run(g, "simple", keep_state=True)
    assert [(leaf.method, leaf.graph.n_alive()) for leaf in report.leaves] == [("cover", 18)]
    assert report.upper_bound == report.leaves[0].cover_edges == 18
    assert report.tree.weight == 16
    vr = verify_run(g, report)
    assert vr.ok and vr.opt is None


def test_verification_needs_retained_state():
    g = build_graph(5, pedges(5))
    report = run(g, "simple")
    with pytest.raises(BadParams):
        verify_run(g, report)


def test_verification_catches_a_corrupted_tree():
    g = build_graph(9, cyc(9))
    report = run(g, "simple", keep_state=True)
    edges = list(report.tree.edges)
    assert not g.has_edge(0, 4)
    edges[0] = (0, 4)
    report.tree = TreeResult(
        tuple(sorted(edges)), report.tree.weight, report.tree.leaves
    )
    vr = verify_run(g, report)
    assert not vr.ok
    assert [c.name for c in vr.failing()] == ["tree-spans-input"]


def test_verification_rejects_a_cycle_plus_a_disjoint_edge():
    # n - 1 host edges touching every vertex, yet a triangle and no tree
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    report = run(g, "simple", keep_state=True)
    report.tree = TreeResult(((0, 1), (0, 2), (1, 2), (3, 4)), 3, (3, 4))
    vr = verify_run(g, report)
    assert "tree-spans-input" in [c.name for c in vr.failing()]


def test_verification_rejects_a_tree_that_writes_the_last_vertex_as_minus_one():
    # on the path 0-1-2, -1 would index vertex 2's row from the end: 2-1 is
    # a host edge and the two edges close no cycle among 0, 1 and 2
    g = build_graph(3, [(0, 1), (1, 2)])
    report = run(g, "simple", keep_state=True)
    report.tree = TreeResult(((-1, 1), (0, 1)), 1, (-1, 0))
    vr = verify_run(g, report)
    assert vr.opt == 1
    assert [c.name for c in vr.failing()] == ["tree-spans-input"]


def test_verification_rejects_a_tree_with_an_id_past_the_last_vertex():
    # 5 is past the path 0-1-2; written first, it would index a row that is
    # not there
    g = build_graph(3, [(0, 1), (1, 2)])
    report = run(g, "simple", keep_state=True)
    report.tree = TreeResult(((5, 1), (0, 1)), 1, (0, 5))
    vr = verify_run(g, report)
    assert vr.opt == 1
    assert [c.name for c in vr.failing()] == ["tree-spans-input"]


@pytest.mark.parametrize("n, seed, floors", [(10, 8, ()), (11, 82, (8, 7))])
def test_verification_certifies_a_reduced_cover_leaf_with_its_own_tree(
    monkeypatch, n, seed, floors
):
    # the leaf's tree certifies the leaf's optimum as the run's tree does the
    # input's: no search when it meets the leaf bound, one for a heavier tree
    # if not; floors lists the run's and the leaf's tree weights in that case
    g = gen_gnp(n, 0.3, seed)
    report = run(g, "refined", keep_state=True)
    (leaf,) = [leaf for leaf in report.leaves if leaf.method == "cover"]
    assert leaf.graph != g
    solved = _count_searches(monkeypatch)
    vr = verify_run(g, report)
    assert solved == list(zip((g, leaf.graph), [w + 1 for w in floors]))
    assert floors in ((), (report.tree.weight, leaf.tree.weight))
    assert vr.ok and vr.opt == opt_spanning_tree(g).weight
    assert f"leaf{leaf.node}-ratio" in [c.name for c in vr.checks]


def test_verification_falls_back_to_an_unseeded_search_for_a_tree_that_does_not_span(
    monkeypatch,
):
    g = build_graph(9, cyc(9))
    report = run(g, "simple", keep_state=True)
    edges = list(report.tree.edges)
    edges[0] = (0, 4)
    report.tree = TreeResult(tuple(sorted(edges)), report.tree.weight, report.tree.leaves)
    solved = _count_searches(monkeypatch)
    vr = verify_run(g, report)
    assert solved == [(g, 0)]
    assert vr.opt == 7
    assert [c.name for c in vr.failing()] == ["tree-spans-input"]


def test_verification_recounts_the_weight_instead_of_trusting_the_field(monkeypatch):
    # an optimal tree claiming one internal vertex more: the certificate uses
    # the recounted 7, so opt stays 7 and the claim fails against it
    g = build_graph(9, cyc(9))
    report = run(g, "simple", keep_state=True)
    report.tree = report.tree._replace(weight=report.tree.weight + 1)
    solved = _count_searches(monkeypatch)
    vr = verify_run(g, report)
    assert solved == []
    assert vr.opt == 7
    assert [c.name for c in vr.failing()] == ["weight-at-most-opt"]


def test_verification_seeds_one_search_with_a_worse_spanning_tree(monkeypatch):
    g = gen_gnp(10, 0.4, 7)
    report = run(g, "refined", keep_state=True)
    hub = max(g.alive_list(), key=g.degree)
    seen, order = {hub}, [hub]
    edges = []
    for u in order:  # breadth-first from the vertex of largest degree
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
                edges.append((min(u, v), max(u, v)))
    worse = tree_result(g, edges)
    assert worse.weight < opt_spanning_tree(g).weight == 8
    report.tree = worse
    solved = _count_searches(monkeypatch)
    vr = verify_run(g, report)
    assert solved == [(g, worse.weight + 1)]
    assert vr.opt == 8


def test_verification_catches_tampered_component_stats():
    g = gen_gnp(12, 0.25, 1)
    report = run(g, "refined", keep_state=True)
    leaf = next(
        l for l in report.leaves
        if l.method == "cover" and l.state is not None and l.state.stats is not None
    )
    stats = leaf.state.stats
    leaf.state.stats = stats._replace(c4=stats.c4 + 5)
    vr = verify_run(g, report)
    assert not vr.ok
    assert all(c.name.endswith("stage2-floor") for c in vr.failing())


def test_solvers_are_deterministic():
    g = gen_gnp(11, 0.3, 4)
    assert solve_refined(g).edges == solve_refined(g).edges
    assert solve_simple(g).edges == solve_simple(g).edges


def test_single_vertex_and_single_edge_inputs():
    t = solve_simple(Graph(1))
    assert t.weight == 0 and t.edges == ()
    t = solve_refined(build_graph(2, [(0, 1)]))
    assert t.weight == 0 and t.edges == ((0, 1),)


def test_ratio_guarantees_on_small_random_instances():
    for seed in range(15):
        g = gen_gnp(10, 0.3, seed)
        opt = opt_spanning_tree(g).weight
        assert 4 * solve_simple(g).weight >= 3 * opt
        assert 17 * solve_refined(g).weight >= 13 * opt


def test_chain_families_keep_their_trees_bounds_and_errors():
    lines = []
    for n in range(9, 25):
        for name, g in (
            (f"cycle-{n}", gen_cycle(n)),
            (f"theta-{n}", gen_theta(n)),
            (f"twins-{n}", gen_twins(n, 0)),
        ):
            for mode in ("refined", "simple"):
                try:
                    outcome = run(g, mode)
                except MistError as exc:
                    outcome = exc
                lines.append(outcome_line(name, mode, outcome))
    assert outcome_digest(lines) == CHAIN_DIGEST


def two_hub_triangles(k):
    """Hubs 0 and 1 and k triangles {a, b, c}, each a joined to 0 and each b to 1."""
    edges = []
    for a in range(2, 3 * k + 2, 3):
        b, c = a + 1, a + 2
        edges += [(a, b), (b, c), (a, c), (0, a), (1, b)]
    return build_graph(3 * k + 2, edges)


@pytest.mark.xfail(
    strict=True,
    raises=NonTermination,
    reason="max_tfpcc bans triangle edges one at a time and gives up after 200 2-matchings",
)
def test_simple_mode_covers_the_two_hub_triangles():
    g = two_hub_triangles(5)  # 17 vertices
    report = run(g, "simple", keep_state=True)
    assert verify_run(g, report).ok


def necklace(seed):
    """h = 2-4 hubs and t = 4-9 triangles {a, b, c}, each a and b joined to
    two distinct hubs drawn at random."""
    rng = random.Random(seed)
    h, t = rng.randint(2, 4), rng.randint(4, 9)
    edges = []
    for a in range(h, h + 3 * t, 3):
        x, y = rng.sample(range(h), 2)
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2), (x, a), (y, a + 1)]
    return build_graph(h + 3 * t, edges)


# the seeds whose necklace is connected and raises in simple mode
NECKLACE_SEEDS = [0, 1, 3, 4, 8, 9, 11, 12, 14, 16]


@pytest.mark.xfail(
    strict=True,
    raises=NonTermination,
    reason="max_tfpcc bans triangle edges one at a time and gives up after 200 2-matchings",
)
@pytest.mark.parametrize("seed", NECKLACE_SEEDS)
def test_simple_mode_covers_a_necklace(seed):
    g = necklace(seed)
    assert g.is_connected() and 20 <= g.n_alive() <= 27
    report = run(g, "simple", keep_state=True)
    assert verify_run(g, report).ok


@pytest.mark.parametrize("seed", NECKLACE_SEEDS)
def test_refined_mode_solves_a_necklace(seed):
    g = necklace(seed)
    report = run(g, "refined", keep_state=True)
    assert verify_run(g, report).ok


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_refined_mode_solves_the_two_hub_triangles(k):
    g = two_hub_triangles(k)
    report = run(g, "refined", keep_state=True)
    assert verify_run(g, report).ok
    assert report.tree.weight == report.upper_bound == 2 * k + 3
