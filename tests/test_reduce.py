"""Strong and weak reductions: firing conditions, safety, fixpoint traces."""

import inspect
import itertools
import operator
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import mist.graph
import mist.reduce
from mist import Graph, reduce_to_fixpoint
from mist.errors import ArityMismatch, InternalInvariant, StaleWitness
from mist.exact import opt_spanning_tree
from mist.generate import gen_cycle, gen_gnp, gen_path, gen_sparse, gen_theta, gen_twins
from mist.reduce import (
    RULESETS,
    Lifted,
    StrongReduction,
    WeakReduction,
    apply_strong_reduction,
    apply_weak_reduction,
    find_op1,
    find_op2,
    find_op3,
    find_op4,
    find_op8,
    find_op9,
    find_op10,
    find_op11,
    find_reduction,
)
from mist.graph import separations

from graphgen import connected_graphs_up_to_iso
from helpers import (
    add_vertex,
    bfs_tree,
    build_graph,
    check_runs_against_reference,
    naive_components,
    naive_op10,
    op4_peels,
    random_connected,
    reference_find_op1,
    reference_find_op2,
    reference_find_op4,
    reference_find_op8,
    reference_find_op9,
    reference_find_op11,
    replay,
)

import random


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def alive_edges(g):
    return (g.n_alive(), sorted(g.edge_list()))


# ---------------------------------------------------------------- strong ops


def test_op1_drops_larger_pendant_twin():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    r = find_op1(g)
    assert r is not None and r.kind == "op1"
    assert r.removed_vertices == (2,)
    h = apply_strong_reduction(g, r)
    assert alive_edges(h) == (3, [(0, 1), (0, 3)])
    assert opt_spanning_tree(h).weight == opt_spanning_tree(g).weight == 1


def test_op1_skips_tiny_graphs():
    # both leaves of a 2-path are pendant twins, but n must exceed 3
    assert find_op1(path(3)) is None


def test_op2_removes_redundant_cycle_edge():
    # 4-cycle with a pendant on each endpoint of the edge (0, 1): deleting
    # either endpoint strands the opposite pendant from the other endpoint
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)])
    r = find_op2(g)
    assert r is not None and r.kind == "op2"
    assert r.removed_edges == ((0, 1),)
    assert r.removed_vertices == ()
    h = apply_strong_reduction(g, r)
    assert opt_spanning_tree(h).weight == opt_spanning_tree(g).weight == 4


def test_op2_needs_the_separation_both_ways():
    # plain cycles keep everything connected after one vertex goes
    assert find_op2(cycle(5)) is None


def test_op8_removes_one_support_edge_of_a_twin_pair():
    g = build_graph(5, [(0, 2), (1, 2), (1, 3), (0, 3), (1, 4)])
    assert find_op1(g) is None and find_op2(g) is None
    r = find_op8(g)
    assert r is not None and r.kind == "op8"
    assert r.removed_edges == ((1, 2),)
    assert r.witness == (0, 1, 2, 3)
    h = apply_strong_reduction(g, r)
    assert alive_edges(h) == (5, [(0, 2), (0, 3), (1, 3), (1, 4)])
    assert opt_spanning_tree(h).weight == opt_spanning_tree(g).weight == 3


def test_op9_trims_an_edge_when_three_twins_share_supports():
    # three twins 2, 3, 4 over {0, 1}; the extra vertex 5 blocks the
    # pairwise rule so the three-twin rule gets its turn
    g = build_graph(
        6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 5), (1, 5)]
    )
    assert find_op8(g) is None
    r = find_op9(g)
    assert r is not None and r.kind == "op9"
    assert r.removed_edges == ((0, 2),)
    h = apply_strong_reduction(g, r)
    assert opt_spanning_tree(h).weight == opt_spanning_tree(g).weight == 3


def test_op10_straightens_a_small_separated_block():
    # vertices 2, 3 sit between 0 and 1; a spanning path 0-2-3-1 exists,
    # so the chord (0, 3) inside the block goes away and a 6-cycle remains
    g = build_graph(6, [(0, 2), (2, 3), (3, 1), (0, 3), (1, 4), (4, 5), (5, 0)])
    for fn in (find_op1, find_op2, find_op8, find_op9):
        assert fn(g) is None
    r = find_op10(g)
    assert r is not None and r.kind == "op10"
    assert r.removed_edges == ((0, 3),)
    assert r.witness == (0, 1, (2, 3))
    h = apply_strong_reduction(g, r)
    assert alive_edges(h) == (6, [(0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (4, 5)])
    assert opt_spanning_tree(h).weight == opt_spanning_tree(g).weight == 4


def test_op10_finds_a_block_under_a_cut_off_dfs_child():
    # a 20-cycle through 1-8-9-2 with the chord (1, 2): the block {8, 9}
    # has larger ids than the ring vertices 3-7 that follow its boundary
    ring = [1, 8, 9, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 0, 14, 15, 16, 17, 18, 19]
    g = build_graph(20, list(zip(ring, ring[1:] + ring[:1])) + [(1, 2)])
    r = find_op10(g)
    assert r == naive_op10(g)
    assert r.witness == (1, 2, (8, 9))
    assert r.removed_edges == ((1, 2),)


def test_op10_finds_a_block_that_holds_the_dfs_root():
    # block {0, 1} between 2 and 3 with the chord (2, 3), the rest a longer
    # cycle 3-4-...-9-2; the block holds the smallest vertex of the graph
    ring = [(i, i + 1) for i in range(3, 9)] + [(9, 2)]
    g = build_graph(10, [(0, 2), (0, 1), (1, 3), (2, 3)] + ring)
    r = find_op10(g)
    assert r == naive_op10(g)
    assert r.witness == (2, 3, (0, 1))
    assert r.removed_edges == ((2, 3),)


def test_op10_never_searches_a_block_that_touches_one_boundary(monkeypatch):
    # the clique on 5, 10, 11, 12 hangs off a 10-cycle at 5, so {10, 11, 12}
    # is a piece of g - {0, 5} with edges to spare that only 5 touches; the
    # rule fires inside the clique instead
    clique = [(5, 10), (5, 11), (5, 12), (10, 11), (10, 12), (11, 12)]
    g = build_graph(13, [(i, (i + 1) % 10) for i in range(10)] + clique)
    searched = []
    real = mist.reduce.hamiltonian_path_between

    def recording(h, u, v, within):
        searched.append(sorted(within))
        return real(h, u, v, within)

    monkeypatch.setattr(mist.reduce, "hamiltonian_path_between", recording)
    r = find_op10(g)
    assert r == naive_op10(g)
    assert r.witness == (5, 10, (11, 12))
    assert [0, 5, 10, 11, 12] not in searched


def _op10_roots():
    rng = random.Random(3)
    roots = [random_connected(rng.randint(6, 20), 0.15, rng) for _ in range(500)]
    return roots + [f(n) for n in range(9, 31) for f in (gen_cycle, gen_theta, gen_path)]


def _op10_corpus():
    # every connected graph on up to 7 vertices, then seeded random graphs
    # and the chain families together with every graph of their refined runs
    yield from connected_graphs_up_to_iso(7)
    for g in _op10_roots():
        yield from replay(reduce_to_fixpoint(g, "refined"))


def test_op10_matches_the_pair_scan():
    fired = 0
    for g in _op10_corpus():
        r = find_op10(g)
        assert r == naive_op10(g), g
        fired += r is not None
    assert fired > 100


def _trace_lines(trace):
    return repr(
        [
            (n.parent, n.children, n.applied, h.alive_list(), h.edge_list())
            for n, h in zip(trace.nodes, replay(trace))
        ]
    )


def _near_roots(order=7):
    roots = list(connected_graphs_up_to_iso(order)) + _op10_roots()
    roots += [f(n) for n in range(9, 61) for f in (gen_cycle, gen_theta, gen_path)]
    return roots + [gen_sparse(n, n // 2, n) for n in range(20, 81)]


def _long_run_roots():
    # a dense core with paths of 7-11 degree-2 vertices hung between core
    # vertices or off one, ids shuffled, so that blocks of the core move
    # their boundary along the paths and sort before the core's own
    out = []
    for seed in range(150):
        rng = random.Random(seed)
        core = random_connected(rng.randint(4, 7), 0.6, rng)
        n, edges = core.vertex_count, core.edge_list()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(core.vertex_count), rng.randrange(core.vertex_count)
            k = rng.randint(7, 11)
            run = [a, *range(n, n + k)] + ([b] if rng.random() < 0.8 else [])
            n += k
            edges += list(zip(run, run[1:]))
        ids = list(range(n))
        rng.shuffle(ids)
        out.append(build_graph(n, [(ids[u], ids[v]) for u, v in edges]))
    return out


def test_op10_near_search_leaves_every_refined_trace_unchanged(monkeypatch):
    # the engine hands op10 the vertices changed since its last empty search;
    # a finder that ignores them and grows every block gives the same trace
    roots = _near_roots()
    real = mist.reduce.find_op10
    calls = Counter()

    def recording(g, sep=None, near=None):
        r = real(g, sep, near)
        calls[near is None, r is None] += 1
        if g.n_alive() < 4 and g != root:
            small.append(g)
        return r

    small = []
    full = {}
    monkeypatch.setitem(mist.reduce._FINDERS, "op10", lambda g, sep=None, near=None: real(g, sep))
    for i, g in enumerate(roots):
        full[i] = _trace_lines(reduce_to_fixpoint(g, "refined"))
    monkeypatch.setitem(mist.reduce._FINDERS, "op10", recording)
    for i, root in enumerate(roots):
        assert _trace_lines(reduce_to_fixpoint(root, "refined")) == full[i], root
    # local searches run and fire, and below the root no graph under four
    # vertices is searched
    assert calls[False, True] > 0 and calls[False, False] > 0
    assert small == []


def test_every_refined_step_names_each_vertex_whose_row_it_changed():
    # op10's worklist is exact only if, at every step, _changed holds each
    # vertex of the child whose row differs from the parent's or whose id
    # is new.  It reads the step's record and compares no rows, so it may
    # hold more: an op11 step names its outside vertex o1 even when o1's
    # row stays as it was
    fired = Counter()
    unchanged_o1 = 0
    for root in _near_roots(order=6):
        trace = reduce_to_fixpoint(root, "refined")
        graphs = replay(trace)
        for node in trace.nodes:
            r = node.applied
            if r is None:
                continue
            fired[r.kind] += 1
            g = graphs[node.index]
            for c in node.children:
                h = graphs[c]
                changed = mist.reduce._changed(g, h, r)
                moved = {x for x in h.alive_list() if x >= g.vertex_count or h.adj[x] != g.adj[x]}
                assert moved <= changed <= set(h.alive_list()), (g, r)
                if r.kind == "op11":
                    unchanged_o1 += sum(o1 in changed and o1 not in moved for _, _, o1, _ in r.contractions)
    assert all(fired[k] > 0 for kinds in RULESETS["refined"] for k in kinds), fired
    assert unchanged_o1 > 0


def test_candidate_finders_match_the_whole_graph_scans_at_every_node(monkeypatch):
    # op1, op2, op8 and op9 read only their candidates: pendant rows, the
    # rows of cut vertices and the node's one twin grouping; at every node
    # the engine searches, each finds what a scan of the whole graph finds
    refs = {
        "op1": reference_find_op1,
        "op2": reference_find_op2,
        "op8": reference_find_op8,
        "op9": reference_find_op9,
    }
    roots = list(connected_graphs_up_to_iso(7))
    roots += [gen_sparse(n, n // 2, n) for n in range(20, 301, 20)]
    roots += [gen_twins(n, n) for n in range(9, 61, 3)]
    roots += [f(n) for n in range(9, 61, 3) for f in (gen_cycle, gen_theta, gen_path)]
    real = mist.reduce.find_reduction
    fired = Counter()

    def checking(g, kinds, sep, near=None):
        if "op1" in kinds:
            for k, ref in refs.items():
                r = mist.reduce._FINDERS[k](g, sep)
                assert r == ref(g), (k, g)
                fired[k] += r is not None
        return real(g, kinds, sep, near)

    monkeypatch.setattr(mist.reduce, "find_reduction", checking)
    for mode in RULESETS:
        for g in roots:
            reduce_to_fixpoint(g, mode)
    # every finder fires
    assert all(fired[k] > 50 for k in refs), fired


def test_a_refined_reduce_groups_the_twins_at_most_once_per_node(monkeypatch):
    # op8 and op9 share the grouping their node's lowpoint pass carries;
    # no graph is grouped twice, and every grouping is of a searched node
    grouped = []
    real = mist.graph.twin_groups
    for module in (mist.graph, mist.reduce):
        monkeypatch.setattr(module, "twin_groups", lambda h: grouped.append(h) or real(h))
    roots = [gen_gnp(10, 0.3, seed) for seed in range(30)]
    roots += [gen_twins(n, n) for n in range(9, 40)] + [gen_sparse(200, 100, 1)]
    fired = Counter()
    groupings = 0
    for g in roots:
        grouped.clear()
        trace = _assert_one_pass_per_node(monkeypatch, g, "refined")
        states = [(h.alive, h.adj) for h in replay(trace)]
        assert len({id(h) for h in grouped}) == len(grouped), g
        assert all((h.alive, h.adj) in states for h in grouped), g
        fired.update(n.applied.kind for n in trace.nodes if n.applied is not None)
        groupings += len(grouped)
    assert fired["op8"] > 0 and fired["op9"] > 0 and groupings > 100


def test_op10_matches_the_pair_scan_on_every_search_of_a_refined_run(monkeypatch):
    # every search the engine makes, with its near set and without, finds
    # what the pair scan finds; on the long-run family some witnesses reach
    # into a run of more than cap + 1 degree-2 vertices
    roots = [f(n) for n in range(9, 61, 4) for f in (gen_cycle, gen_theta, gen_path)]
    roots += [gen_sparse(n, n // 2, n) for n in range(20, 81, 10)] + _long_run_roots()
    real = mist.reduce.find_op10
    searches = []

    def recording(g, sep=None, near=None):
        searches.append((g.copy(), near))
        return real(g, sep, near)

    monkeypatch.setitem(mist.reduce._FINDERS, "op10", recording)
    for g in roots:
        reduce_to_fixpoint(g, "refined")
    fired = on_long_runs = 0
    for g, near in searches:
        r = naive_op10(g)
        assert real(g, None, near) == r and real(g) == r, (g, near)
        if r is not None:
            fired += 1
            cap = min(6, g.n_alive() - 3)
            on_long_runs += any(_run_size(g, x) > cap + 1 for x in r.witness[2])
    assert fired > 200 and on_long_runs > 10


def _run_size(g, x):
    """Vertices on the run of degree-2 vertices through x, 0 off runs."""
    if g.degree(x) != 2:
        return 0
    seen, stack = {x}, [x]
    while stack:
        for y in g.adj[stack.pop()]:
            if g.degree(y) == 2 and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def _grown_blocks(g, mode):
    """Sets of two or more vertices find_op10 grows in the reduce of g.

    find_op10 takes each core it grows off its stack in the line
    `k, size, out, ext, edges = cores.pop()`; the line after it reads size.
    """
    code = mist.reduce.find_op10.__code__
    lines, start = inspect.getsourcelines(code)
    after_pop = start + 1 + next(i for i, text in enumerate(lines) if "= cores.pop()" in text)
    grown = 0

    def local(frame, event, arg):
        nonlocal grown
        if event == "line" and frame.f_lineno == after_pop:
            grown += frame.f_locals["size"] > 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        reduce_to_fixpoint(g, mode)
    finally:
        sys.settrace(None)
    return grown


def _plain_starts(g, near):
    """The start vertices of find_op10's search of g with near, found by
    walking every run in full from each vertex of near and next to near."""
    adj, cap = g.adj, min(6, g.n_alive() - 3)

    def walk(x, limit):
        # the vertices of x's run within limit steps, and the end on each
        # side within limit steps, or None
        run, ends = [x], []
        for cur in adj[x]:
            prev, end = x, None
            for _ in range(limit):
                if len(adj[cur]) != 2:
                    end = cur
                    break
                if cur == x:
                    break
                run.append(cur)
                prev, cur = cur, next(y for y in adj[cur] if y != prev)
            ends.append(end)
        return run, ends

    def is_start(x):
        if len(adj[x]) != 2:
            return 3 <= len(adj[x]) <= cap + 1
        run, (a, b) = walk(x, g.vertex_count)
        return a is not None and b is not None and len(set(run)) <= cap + 1 and (
            a == b or g.has_edge(a, b)
        )

    out = set()
    for x in {y for x in near if g.alive[x] for y in (x, *adj[x])}:
        if is_start(x):
            out.add(x)
        elif len(adj[x]) == 2:
            out.update(e for e in walk(x, cap)[1] if e is not None and is_start(e))
    return sorted(out)


def test_op10_near_search_starts_from_the_run_ends_within_cap_of_near(monkeypatch):
    # a local search walks each run once, however many vertices of near
    # lie on it, and grows from the start vertices a walk of every run from
    # each vertex of near and next to near finds
    code = mist.reduce.find_op10.__code__
    seen = []
    walks = []
    real_walk = mist.reduce._walk_run

    def walk(*args):
        run, ends = real_walk(*args)
        walks[-1].extend(set(run))
        return run, ends

    monkeypatch.setattr(mist.reduce, "_walk_run", walk)

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_lines = False
        walks.append([])
        near = frame.f_locals["near"]
        graph = frame.f_locals["g"].copy()
        return lambda f, e, a: e == "return" and "starts" in f.f_locals and seen.append(
            (graph, near, f.f_locals["starts"])
        )

    # a triangle 0-1-2 hangs a long run 3-...-k back to 0; near holds two
    # vertices of the run, or one of the run and one of the triangle
    hangs = [
        build_graph(k + 1, [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, k)] + [(k, 0)])
        for k in (11, 14, 20)
    ]
    sys.settrace(tracer)
    try:
        for g in _near_roots(order=6) + _long_run_roots():
            reduce_to_fixpoint(g, "refined")
        for g in hangs:
            for near in itertools.combinations(range(1, g.vertex_count), 2):
                find_op10(g, near=set(near))
    finally:
        sys.settrace(None)
    local = [(g, near, starts) for g, near, starts in seen if near is not None]
    for g, near, starts in local:
        assert starts == _plain_starts(g, near), (g, near)
    assert len(local) > 1000 and sum(bool(starts) for _, _, starts in local) > 500
    # no vertex is walked twice in one search
    assert all(len(w) == len(set(w)) for w in walks) and sum(map(len, walks)) > 10000


@pytest.mark.parametrize("family", [gen_path, gen_cycle, gen_theta])
def test_refined_reduce_of_a_200_chain_grows_no_block(family):
    # a chain's degree-2 runs are long, a theta hub's arms end in long runs
    # or in twins, so no set of two or more vertices is grown at any node
    assert _grown_blocks(family(200), "refined") == 0
    assert _grown_blocks(gen_gnp(10, 0.3, 1), "refined") > 0


def test_op10_grows_a_block_outside_near_whose_boundary_is_inside():
    # blocks {2, 3} and {4, 5} sit between 0 and 1, each a path; the edge
    # (0, 1) gives both an edge to spare.  Adding that edge changes only the
    # rows of 0 and 1, so near = {0, 1} must still find the first block
    g = build_graph(6, [(0, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 0), (0, 1)])
    r = find_op10(g)
    assert r.witness == (0, 1, (2, 3)) and r.removed_edges == ((0, 1),)
    assert find_op10(g, near={0, 1}) == r
    assert find_op10(g, near={3}) == r  # the block holds 3
    # near 4 alone, only blocks that hold 4 are grown, so {2, 3} is skipped
    assert find_op10(g, near={4}).witness == (0, 1, (4, 5))


def test_op10_finds_a_block_whose_boundary_moved_along_a_long_run():
    # the triangle 0-1-2 hangs a run 3-...-11 of nine degree-2 vertices back
    # to 0.  A block holding the run vertex 5 is the core {1, 2} with its
    # boundary 3 moved to 6 along the run; near = {5} reaches the core's
    # start vertex 2 through the run, three steps away
    g = build_graph(12, [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, 11)] + [(11, 0)])
    r = find_op10(g, near={5})
    assert r.witness == (0, 6, (1, 2, 3, 4, 5)) and r.removed_edges == ((0, 2),)
    assert find_op10(g) == naive_op10(g) != r


def test_op10_after_op4_skips_the_blocks_that_hold_the_new_pendant(monkeypatch):
    # 0 hangs the path 0-3-4 off a ring 1-6-...-12-2-5-1 through the
    # chords (0, 5) and (0, 2); op4 puts the pendant 13 in place of {3, 4}.
    # The child's near set is {0, 13}.  The blocks {0, 5, 13} and {0, 13}
    # there have edges to spare, but no Hamiltonian path passes the pendant,
    # so op10 searches neither
    ring = [1, 6, 7, 8, 9, 10, 11, 12, 2, 5]
    g = build_graph(
        13,
        list(zip(ring, ring[1:] + ring[:1])) + [(0, 5), (0, 2), (0, 3), (3, 4)],
    )
    real = mist.reduce.find_op10
    nears = []

    def recording(h, sep=None, near=None):
        nears.append(near)
        return real(h, sep, near)

    monkeypatch.setitem(mist.reduce._FINDERS, "op10", recording)
    trace = reduce_to_fixpoint(g, "refined")
    assert trace.nodes[0].applied.kind == "op4"
    assert [s.pendant for s in op4_peels(trace.nodes[0].applied)] == [13]
    assert nears[:2] == [None, {0, 13}]
    child = replay(trace)[1]
    searched = []
    real_ham = mist.reduce.hamiltonian_path_between

    def recording_ham(h, u, v, within):
        searched.append(sorted(within))
        return real_ham(h, u, v, within)

    monkeypatch.setattr(mist.reduce, "hamiltonian_path_between", recording_ham)
    assert real(child, near={0, 13}) is None
    assert real(child) is None
    assert naive_op10(child) is None
    assert not any(13 in block for block in searched)


@pytest.mark.parametrize("family", [gen_cycle, gen_path])
def test_refined_reduce_of_a_long_chain_counts_its_searches(monkeypatch, family):
    # no block of a chain has an edge to spare, so no path search runs, and
    # each trace node makes exactly one lowpoint pass
    searches = []
    monkeypatch.setattr(
        mist.reduce, "hamiltonian_path_between", lambda *a: searches.append(a)
    )
    _assert_one_pass_per_node(monkeypatch, family(40), "refined")
    assert searches == []


@pytest.mark.parametrize("family, nodes", [(gen_cycle, 2), (gen_theta, 7)])
def test_refined_reduce_of_a_200_chain_takes_a_few_nodes(monkeypatch, family, nodes):
    # op11 contracts a whole degree-2 run in one step
    trace = _assert_one_pass_per_node(monkeypatch, family(200), "refined")
    assert len(trace.nodes) == nodes


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_reduce_of_a_200_path_takes_three_nodes(monkeypatch, mode):
    # one op4 step peels the path down to 10 vertices, a second cuts off the
    # 8-vertex end piece, and the 3-path left is the leaf; the first step
    # keeps one Peel and the 189 cut vertices of its path
    trace = _assert_one_pass_per_node(monkeypatch, gen_path(200), mode)
    assert [len(op4_peels(node.applied)) for node in trace.nodes[:2]] == [190, 1]
    assert [len(node.applied.path) for node in trace.nodes[:2]] == [189, 0]
    assert len(trace.nodes) == 3


def _assert_one_pass_per_node(monkeypatch, g, mode):
    # one pass for the root, for each node of four or more vertices and for
    # a refined triangle, and none for any other node; the passes keep their
    # graphs alive, so no two share an id
    passed = []
    real_pass = mist.reduce.separations

    def counting_pass(h, *args, **kwargs):
        passed.append(h)
        return real_pass(h, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(mist.reduce, "separations", counting_pass)
        trace = reduce_to_fixpoint(g, mode)
    searched = [
        h
        for i, h in enumerate(replay(trace))
        if i == 0
        or h.n_alive() >= 4
        or mode == "refined" and (h.n_alive(), h.edge_count()) == (3, 3)
    ]
    assert len({id(h) for h in passed}) == len(passed) == len(searched)
    assert [(h.alive, h.adj) for h in passed] == [(h.alive, h.adj) for h in searched]
    return trace


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_op2_and_op8_steps_reuse_their_nodes_lowpoint_pass(monkeypatch, mode):
    # applying op2 or op8 checks the separation condition again, on the
    # pass the engine made for that node, not on a second one
    fired = Counter()
    for seed in range(30):
        trace = _assert_one_pass_per_node(monkeypatch, gen_gnp(10, 0.3, seed), mode)
        fired.update(n.applied.kind for n in trace.nodes if n.applied is not None)
    assert fired["op2"] > 0 and (mode == "simple" or fired["op8"] > 0)


def test_large_sparse_reduces_leave_no_rule_for_a_full_search():
    # the engine's near searches must not stop early: at every leaf, a search
    # of the whole graph finds no reduction either
    strong, weak = RULESETS["refined"]
    for g in (gen_cycle(200), gen_sparse(500, 250, 1)):
        trace = reduce_to_fixpoint(g, "refined")
        for i in trace.leaves():
            leaf = trace.nodes[i].graph
            assert find_reduction(leaf, strong + weak, separations(leaf), None) is None


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_no_rule_but_op11_on_a_triangle_fires_under_four_vertices(mode):
    # why reduce_to_fixpoint makes every other node under four vertices a
    # leaf unsearched: on each connected graph of 1-3 vertices, with its ids
    # in every order, dense or spread over 0..11, only refined op11 fires,
    # and only on the triangle
    strong, weak = RULESETS[mode]
    tried = 0
    for g in connected_graphs_up_to_iso(3):
        k = g.n_alive()
        for order in itertools.permutations(range(k)):
            for span, at in ((k, order), (12, [4 + 3 * x for x in order])):
                h = build_graph(span, [(at[u], at[v]) for u, v in g.edge_list()])
                for v in set(range(span)) - set(at):
                    h.remove_vertex(v)
                fired = [
                    kind
                    for kind in strong + weak
                    if find_reduction(h, (kind,), separations(h), None) is not None
                ]
                triangle = mode == "refined" and g.edge_count() == 3
                assert fired == (["op11"] if triangle else []), h
                tried += 1
    assert tried == 2 * (1 + 2 + 6 + 6)


@pytest.mark.parametrize(
    "edges, witness, message",
    [
        ([(0, 2), (2, 3)], (0, 1, (2, 3)), "boundary"),
        ([(0, 1), (1, 3)], (0, 1, (2, 3)), "block vertex 2"),
        ([(0, 2), (0, 1), (1, 3)], (0, 1, (2,)), "neighbourhood"),
    ],
    ids=["boundary-dead", "block-dead", "one-sided"],
)
def test_op10_revalidation_names_what_changed(edges, witness, message):
    g = build_graph(4, edges)
    dead = {0, 1, 2, 3} - {x for e in edges for x in e}
    for x in dead:
        g.remove_vertex(x)
    r = StrongReduction("op10", (), (), (), witness)
    with pytest.raises(StaleWitness, match=message):
        apply_strong_reduction(g, r)


@pytest.mark.parametrize(
    "edges, r",
    [
        # the block {2, 3} between 0 and 1 loses the path edge 2-3 as well
        (
            [(0, 2), (2, 3), (3, 1), (0, 3), (1, 4), (4, 5), (5, 0)],
            StrongReduction("op10", (), ((0, 2), (2, 3)), (), (0, 1, (2, 3))),
        ),
        # the twin 2 over {0, 1} loses both its edges
        (
            [(0, 2), (1, 2), (1, 3), (0, 3), (1, 4)],
            StrongReduction("op8", (), ((0, 2), (1, 2)), (), (0, 1, 2, 3)),
        ),
    ],
    ids=["op10", "op8"],
)
def test_a_strong_step_that_disconnects_its_witness_is_rejected(edges, r):
    # the check that the graph stays connected searches the witness only
    g = build_graph(max(x for e in edges for x in e) + 1, edges)
    with pytest.raises(InternalInvariant, match=f"{r.kind} disconnected the graph"):
        apply_strong_reduction(g, r)


def test_lift_strong_restores_removed_vertices():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    tr = reduce_to_fixpoint(g, "simple")
    assert [n.applied.kind for n in tr.nodes if n.applied is not None] == ["op1"]
    lifted = tr.lift_all({i: opt_spanning_tree(tr.nodes[i].graph) for i in tr.leaves()})
    assert lifted.weight == opt_spanning_tree(g).weight
    endpoints = [v for e in lifted.edges for v in e]
    assert endpoints.count(2) == 1  # the dropped twin reattaches as a leaf


# ------------------------------------------------------------------ weak ops


def test_op3_splits_at_a_bridge_between_side_cutpoints():
    # triangle plus pendant on each side; the bridge endpoints 2 and 4
    # each separate their own side, so the split loses nothing (c = 0)
    g = build_graph(
        8,
        [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (4, 5), (5, 6), (4, 6), (4, 7)],
    )
    r = find_op3(g)
    assert r is not None and r.kind == "op3"
    assert r.bridge == (2, 4)
    assert r.sides == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert r.c == 0
    parts = apply_weak_reduction(g, r)
    assert [alive_edges(p) for p in parts] == [
        (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        (4, [(4, 5), (4, 6), (4, 7), (5, 6)]),
    ]
    total = sum(opt_spanning_tree(p).weight for p in parts) + r.c
    assert total == opt_spanning_tree(g).weight == 4


def test_op3_ignores_bridges_without_the_cutpoint_condition():
    # two bare triangles joined by a bridge: a triangle has no cutpoint,
    # so neither endpoint separates its side and the rule stays quiet
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert find_op3(g) is None


class _CountingRows(list):
    """Rows that count how many are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_op4_makes_at_most_one_component_search_per_call(monkeypatch):
    # the lowpoint pass's piece sizes pick the cut vertex v, and one search
    # of the pieces of g - v finds the first of 2-8 vertices, reading at
    # most 8 rows per neighbour of v; the witness is the one a search of
    # every cut vertex in id order finds
    searches = []
    real = mist.reduce._small_piece

    def counted(adj, v):
        searches.append(v)
        rows = _CountingRows(adj)
        piece = real(rows, v)
        small = [k for k in naive_components(g, {v}) if 2 <= len(k) <= 8]
        assert piece == (small[0] if small else None), (g, v)
        assert rows.reads <= 1 + 8 * len(adj[v]), (g, v)
        return piece

    monkeypatch.setattr(mist.reduce, "_small_piece", counted)
    rng = random.Random(47)
    graphs = [gen_sparse(n, n // 4, seed) for n in (12, 30, 60, 300) for seed in range(20)]
    graphs += [random_connected(rng.randint(6, 16), 0.1, rng) for _ in range(60)]
    fired = scanned = 0
    for g in graphs:
        sep = separations(g)
        searches.clear()
        r = find_op4(g, sep)
        assert len(searches) <= 1, g
        every = {v: [2] for v in g.alive_list() if sep.pieces[v] > sep.parts}
        searches.clear()
        assert find_op4(g, sep._replace(sizes=every)) == r, g
        fired += r is not None
        scanned += len(searches) > 1
    assert fired > 90 and scanned > 40


def test_op4_replaces_a_hanging_component_with_a_pendant():
    # cutpoint 2 hangs the triangle rump {0, 1}; the inner instance is the
    # triangle plus a fresh pendant, worth 2, so the carried constant is 1;
    # the graph left is too small for the run to go on
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert find_op3(g) is None
    r = find_op4(g)
    assert r is not None and r.kind == "op4"
    (peel,) = op4_peels(r)
    assert peel.cut_vertex == 2
    assert peel.component == (0, 1)
    assert peel.pendant == 5
    assert peel.inner_opt == 2
    assert r.c == 1
    parts = apply_weak_reduction(g, r)
    assert len(parts) == 1
    assert alive_edges(parts[0]) == (4, [(2, 3), (2, 5), (3, 4)])
    total = opt_spanning_tree(parts[0]).weight + r.c
    assert total == opt_spanning_tree(g).weight == 3


def test_op4_peels_a_path_down_to_ten_vertices_in_one_step():
    # the peels single steps would make: {0, 1} off 2, then each new
    # pendant with the last cut vertex off the next path vertex
    g = path(24)
    r = find_op4(g)
    assert r.path == tuple(range(3, 16))
    peels = op4_peels(r)
    assert [(s.cut_vertex, s.component, s.pendant) for s in peels] == [
        (2, (0, 1), 24)
    ] + [(v, (v - 1, v + 21), v + 22) for v in range(3, 16)]
    assert [s.block_edges for s in peels[1:3]] == [((2, 3), (2, 24)), ((3, 4), (3, 25))]
    assert all(s.inner_tree == s.block_edges and s.inner_opt == 2 for s in peels)
    assert r.c == 14
    (h,) = apply_weak_reduction(g, r)
    assert alive_edges(h) == (10, sorted([(15, 37)] + [(v, v + 1) for v in range(15, 23)]))


def test_an_op4_step_searches_the_components_of_g_minus_v_once(monkeypatch):
    # the finder searches the pieces of g - v once, and no whole-graph
    # component pass runs; applying the step re-checks each peel's block by
    # a search of the block alone
    searches = []
    real = mist.reduce._small_piece
    monkeypatch.setattr(
        mist.reduce, "_small_piece", lambda adj, v: searches.append(v) or real(adj, v)
    )
    monkeypatch.setattr(mist.reduce, "connected_components", lambda *a: searches.append(a))
    for g, v, peels in (
        (build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]), 2, 1),
        (path(24), 2, 14),
    ):
        searches.clear()
        r = find_op4(g)
        apply_weak_reduction(g, r)
        assert len(op4_peels(r)) == peels
        assert searches == [v]


def test_op4_rechecks_every_peel_of_its_run():
    g = path(24)
    r = find_op4(g)
    # the path peel at 5 in place of 4: 3's row is [4, 25], so {3, 25} does
    # not hang off 5 alone
    with pytest.raises(StaleWitness, match="hanging block at 5 changed"):
        apply_weak_reduction(g, _with_record(r, "path", 1, 5))
    # only the first peel stores its pendant; the path's follow from it
    with pytest.raises(StaleWitness, match="pendant id at 2 mismatch"):
        apply_weak_reduction(g, r._replace(peel=r.peel._replace(pendant=30)))
    with pytest.raises(StaleWitness, match="constant"):
        apply_weak_reduction(g, r._replace(c=r.c + 1))


def test_lift_fails_its_root_check_when_a_peel_is_dropped():
    trace = reduce_to_fixpoint(path(24), "simple")
    r = trace.nodes[0].applied
    assert r.kind == "op4" and len(op4_peels(r)) == 14
    leaf_trees = {i: opt_spanning_tree(trace.nodes[i].graph) for i in trace.leaves()}
    assert trace.lift_all(leaf_trees).weight == 22
    # the second peel becomes the first, the rest of the path kept
    trace.nodes[0].applied = r._replace(
        c=r.c - 1, peel=op4_peels(r)[1], path=r.path[1:]
    )
    with pytest.raises(InternalInvariant, match="did not rebuild the input graph"):
        trace.lift_all(leaf_trees)


def test_op11_contracts_a_degree_two_edge():
    # the run starts at the first degree-2 edge, as the single contraction
    # did, and merges vertex 0 with each next chain vertex until the cycle
    # closes into one edge
    g = cycle(6)
    r = find_op11(g)
    assert r is not None and r.kind == "op11"
    assert r.contractions == ((0, 1, 5, 2), (0, 2, 5, 3), (0, 3, 5, 4), (0, 4, 5, 5))
    assert r.c == 4
    parts = apply_weak_reduction(g, r)
    assert len(parts) == 1
    assert alive_edges(parts[0]) == (2, [(0, 5)])
    total = opt_spanning_tree(parts[0]).weight + r.c
    assert total == opt_spanning_tree(g).weight == 4


def test_op11_needs_both_endpoints_at_degree_two():
    # the middle edge of a 4-path qualifies, and the run stops there since
    # both outside neighbours are pendant; no star edge ever does
    r = find_op11(path(4))
    assert r is not None and r.contractions == ((1, 2, 0, 3),)
    assert find_op11(build_graph(4, [(0, 1), (0, 2), (0, 3)])) is None


def test_op11_rechecks_every_contraction_of_its_run():
    g = cycle(8)
    r = find_op11(g)
    run = list(r.contractions)
    run[1] = (0, 2, 7, 4)  # 2's outside neighbour is 3
    with pytest.raises(StaleWitness, match="outside neighbors of 0-2"):
        apply_weak_reduction(g, r._replace(contractions=tuple(run)))
    with pytest.raises(StaleWitness, match="constant is not the contraction count"):
        apply_weak_reduction(g, r._replace(c=r.c + 1))


def test_an_op11_run_merges_into_one_vertex():
    # a second contraction into 5, not 0, is refused when applying the run
    # and when undoing it
    g = cycle(8)
    r = find_op11(g)
    (h,) = apply_weak_reduction(g, r)
    mixed = _with_record(r, "contractions", 1, (5, 6, 4, 7))
    with pytest.raises(StaleWitness, match="merge into more than one vertex"):
        apply_weak_reduction(g, mixed)
    with pytest.raises(InternalInvariant, match="merge into more than one vertex"):
        mist.reduce._undo(mixed, [Lifted.of(h, bfs_tree(h))])


def _with_record(r, field, i, record):
    records = list(getattr(r, field))
    records[i] = record
    return r._replace(**{field: tuple(records)})


def test_op11_rechecks_each_middle_contraction_against_the_rows_so_far():
    # after two contractions 0's row is [3, 7], so 5 is no longer next to it
    g = cycle(8)
    r = find_op11(g)
    with pytest.raises(StaleWitness, match="contracted edge 0-5 gone"):
        apply_weak_reduction(g, _with_record(r, "contractions", 2, (0, 5, 7, 6)))
    # the chord's end 2 has degree 3: the run goes round the other way, and
    # a second contraction that takes 2 in is stale
    g = build_graph(9, [(i, (i + 1) % 8) for i in range(8)] + [(2, 8)])
    r = find_op11(g)
    assert r.contractions[:2] == ((0, 1, 7, 2), (0, 7, 2, 6))
    with pytest.raises(StaleWitness, match="degrees at 0-2 changed"):
        apply_weak_reduction(g, _with_record(r, "contractions", 1, (0, 2, 7, 3)))


def test_op4_rechecks_each_middle_cut_vertex_against_the_rows_so_far():
    # the second peel took 2 away, so a fourth peel at 2 is stale
    g = path(24)
    r = find_op4(g)
    with pytest.raises(StaleWitness, match="cut vertex 2 gone"):
        apply_weak_reduction(g, _with_record(r, "path", 2, 2))


def test_op4_undo_pops_only_a_live_last_id():
    # the child gets a dead id 38 above its last pendant 37: undoing the
    # last path peel removes the edge 15-37, then finds the last id dead
    g = path(24)
    r = find_op4(g)
    (h,) = apply_weak_reduction(g, r)
    t = bfs_tree(h)
    h.remove_vertex(add_vertex(h))
    with pytest.raises(InternalInvariant, match="vertex 38 already dead"):
        mist.reduce._undo(r, [Lifted.of(h, t)])


def test_lift_fails_its_root_check_when_a_contraction_is_dropped():
    trace = reduce_to_fixpoint(cycle(10), "refined")
    r = trace.nodes[0].applied
    assert r.kind == "op11" and r.c == 8
    leaf_trees = {i: opt_spanning_tree(trace.nodes[i].graph) for i in trace.leaves()}
    assert trace.lift_all(leaf_trees).weight == 8
    trace.nodes[0].applied = r._replace(
        c=r.c - 1, contractions=r.contractions[1:]
    )
    with pytest.raises(InternalInvariant, match="did not rebuild the input graph"):
        trace.lift_all(leaf_trees)


def test_op4_and_op11_sweeps_match_the_per_edit_loops_on_chains(monkeypatch):
    roots = [f(n) for n in range(4, 61) for f in (gen_path, gen_cycle)]
    roots += [gen_theta(n) for n in range(5, 61)]
    seen = check_runs_against_reference(monkeypatch, roots)
    assert seen == {"op4 apply": 270, "op4 undo": 270, "op11 apply": 219, "op11 undo": 219}


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_op4_and_op11_steps_match_the_reference_finders(monkeypatch, mode):
    # every op4 step stands for the peels the reference finder builds one
    # Peel each, and every op11 step holds the reference finder's records;
    # a path keeps one Peel per op4 step however long its run
    roots = [("path", n, gen_path(n)) for n in range(4, 201)]
    roots += [("cycle", n, gen_cycle(n)) for n in range(4, 201)]
    roots += [("theta", n, gen_theta(n)) for n in range(5, 201)]
    roots += [("twins", n, gen_twins(n, n)) for n in range(9, 61)]
    roots += [("sparse", n, gen_sparse(n, n // 10, n)) for n in range(20, 301, 10)]
    built = []
    real_peel = mist.reduce.Peel
    monkeypatch.setattr(mist.reduce, "Peel", lambda *a: built.append(a) or real_peel(*a))
    steps = Counter()
    for name, n, g in roots:
        built.clear()
        trace = reduce_to_fixpoint(g, mode)
        if (name, n) == ("path", 200):
            assert len(built) == 2
        for node, h in zip(trace.nodes, replay(trace)):
            r = node.applied
            if r is not None and r.kind == "op4":
                assert op4_peels(r) == reference_find_op4(h), (name, n)
                steps["path peels"] += len(r.path)
            elif r is not None and r.kind == "op11":
                assert r.contractions == reference_find_op11(h), (name, n)
            steps[r and r.kind] += 1
    assert (steps["op4"], steps["path peels"], steps["op11"]) == {
        "simple": (1413, 17977, 0), "refined": (1612, 17977, 782)
    }[mode]


@pytest.mark.parametrize("family, mode", [(gen_cycle, "refined"), (gen_path, "simple"), (gen_path, "refined")])
def test_reduce_and_lift_make_as_many_graph_edits_for_a_longer_chain(monkeypatch, family, mode):
    # a run is written with one Graph.write_rows call, however long it is
    counts = Counter()
    for name in ("add_edge", "remove_edge", "remove_vertex"):

        def counted(self, *args, _real=getattr(Graph, name), _name=name):
            counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Graph, name, counted)

    def edits(n):
        g = family(n)
        counts.clear()
        tr = reduce_to_fixpoint(g, mode)
        tr.lift_all({i: bfs_tree(tr.nodes[i].graph) for i in tr.leaves()})
        return dict(counts)

    assert edits(200) == edits(100)


# ---------------------------------------------------------------- fixpoints


def test_fixpoint_leaves_small_paths_alone():
    for mode in ("simple", "refined"):
        tr = reduce_to_fixpoint(path(3), mode)
        assert [n.applied for n in tr.nodes] == [None]
        assert alive_edges(tr.nodes[0].graph) == (3, [(0, 1), (1, 2)])


def test_fixpoint_triangle_depends_on_mode():
    tr = reduce_to_fixpoint(cycle(3), "simple")
    assert [n.applied for n in tr.nodes] == [None]

    tr = reduce_to_fixpoint(cycle(3), "refined")
    kinds = [n.applied.kind for n in tr.nodes if n.applied is not None]
    assert kinds == ["op11"]
    assert tr.weak_constant_total() == 1
    leaf = tr.nodes[tr.leaves()[0]].graph
    assert alive_edges(leaf) == (2, [(0, 2)])


def test_fixpoint_triple_twin_instance_uses_op9():
    g = build_graph(
        9,
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
         (0, 5), (1, 5), (5, 6), (6, 7), (7, 8)],
    )
    tr = reduce_to_fixpoint(g, "refined")
    kinds = [n.applied.kind for n in tr.nodes if n.applied is not None]
    assert kinds[0] == "op9"
    assert "op9" in kinds
    leaf_trees = {i: opt_spanning_tree(tr.nodes[i].graph) for i in tr.leaves()}
    assert tr.lift_all(leaf_trees).weight == opt_spanning_tree(g).weight == 6


def test_fixpoint_respects_mode_rulesets():
    strong_simple, weak_simple = RULESETS["simple"]
    g = build_graph(
        9,
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
         (0, 5), (1, 5), (5, 6), (6, 7), (7, 8)],
    )
    tr = reduce_to_fixpoint(g, "simple")
    for node in tr.nodes:
        if node.applied is not None:
            assert node.applied.kind in strong_simple + weak_simple


def walk_trace_checking_safety(g, mode):
    """Every strong step keeps opt; every weak step satisfies the
    constant-sum identity; the vertex+edge measure strictly drops."""
    tr = reduce_to_fixpoint(g, mode)
    graphs = replay(tr)
    for node in tr.nodes:
        red = node.applied
        if red is None:
            continue
        parent = graphs[node.index]
        kids = [graphs[c] for c in node.children]
        parent_opt = opt_spanning_tree(parent).weight
        if isinstance(red, StrongReduction):
            assert len(kids) == 1
            assert opt_spanning_tree(kids[0]).weight == parent_opt
        else:
            assert isinstance(red, WeakReduction)
            total = sum(opt_spanning_tree(k).weight for k in kids) + red.c
            assert total == parent_opt
        parent_measure = parent.n_alive() + parent.edge_count()
        kid_measure = sum(k.n_alive() + k.edge_count() for k in kids)
        assert kid_measure < parent_measure
    leaf_trees = {i: opt_spanning_tree(tr.nodes[i].graph) for i in tr.leaves()}
    lifted = tr.lift_all(leaf_trees)
    assert lifted.weight == opt_spanning_tree(g).weight
    return tr


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_lift_rebuilds_the_graphs_only_the_root_and_leaves_keep(monkeypatch, mode):
    # lifting undoes each step on the children's graphs; every leaf graph
    # tree_result checks and every graph _undo rebuilds equals the one the
    # forward replay gives, and keeps its vertex and edge counters right;
    # the root's tree_result check comes last
    checked = []
    real_check, real_undo = mist.reduce.tree_result, mist.reduce._undo

    def record(h):
        checked.append((list(h.alive), [list(row) for row in h.adj]))
        assert (h.n_alive(), h.edge_count()) == (sum(h.alive), sum(map(len, h.adj)) // 2)

    def checking(h, edges):
        record(h)
        return real_check(h, edges)

    def undoing(r, parts):
        t = real_undo(r, parts)
        record(t.graph)
        return t

    monkeypatch.setattr(mist.reduce, "tree_result", checking)
    monkeypatch.setattr(mist.reduce, "_undo", undoing)
    roots = list(connected_graphs_up_to_iso(7)) + _op10_roots()
    roots += [f(n) for n in range(31, 49) for f in (gen_cycle, gen_theta, gen_path)]
    for g in roots:
        tr = reduce_to_fixpoint(g, mode)
        kept = [n.index for n in tr.nodes if n.graph is not None]
        assert kept == sorted({0, *tr.leaves()})
        checked.clear()
        tr.lift_all({i: bfs_tree(tr.nodes[i].graph) for i in tr.leaves()})
        want = [(h.alive, h.adj) for h in reversed(replay(tr))]
        assert checked == want + want[-1:] * (len(tr.nodes) > 1), g


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_a_lift_checks_each_leaf_and_then_the_root_once(monkeypatch, mode):
    # every undone step checks only what it edits, so tree_result runs on
    # each leaf graph and then once on the root's, unless the root is a leaf
    checked = []
    real = mist.reduce.tree_result
    monkeypatch.setattr(mist.reduce, "tree_result", lambda h, edges: checked.append(h) or real(h, edges))
    roots = list(connected_graphs_up_to_iso(6))
    roots += [f(n) for n in range(5, 49) for f in (gen_cycle, gen_theta, gen_path)]
    for g in roots:
        tr = reduce_to_fixpoint(g, mode)
        leaf_trees = {i: bfs_tree(tr.nodes[i].graph) for i in tr.leaves()}
        checked.clear()
        tr.lift_all(leaf_trees)
        want = [tr.nodes[i].graph for i in reversed(tr.leaves())]
        if tr.nodes[0].children:
            want.append(tr.nodes[0].graph)
        assert len(checked) == len(want) and all(map(operator.is_, checked, want)), g


class _CountedRow(list):
    """A list that adds each edit made to it to _CountedRow.edits."""

    edits = 0

    def _count(self):
        _CountedRow.edits += 1

    def __setitem__(self, *args):
        self._count()
        super().__setitem__(*args)

    def __delitem__(self, *args):
        self._count()
        super().__delitem__(*args)

    def append(self, *args):
        self._count()
        super().append(*args)

    def insert(self, *args):
        self._count()
        super().insert(*args)

    def pop(self, *args):
        self._count()
        return super().pop(*args)

    def remove(self, *args):
        self._count()
        super().remove(*args)


def test_undoing_a_path_makes_at_most_two_row_edits_per_peel():
    # one peel at a time, a path peel would also take out, pop and put back
    # its pendant edge and id; the net edit revives each cut vertex on its
    # own row and joins it to the next, and the rest is the last pendant
    # (2 edits for its edge, 1 for its id and 1 for the ids below it) and
    # the first peel's block edges (2 each)
    g = gen_path(200)
    r = reduce_to_fixpoint(g, "simple").nodes[0].applied
    assert r.kind == "op4" and len(r.path) > 180
    (h,) = apply_weak_reduction(g, r)
    t = Lifted.of(h, bfs_tree(h))
    h.write_rows(_CountedRow(map(_CountedRow, h.adj)), h.alive)
    _CountedRow.edits = 0
    assert mist.reduce._undo(r, [t]).graph == g
    assert _CountedRow.edits <= 2 * len(r.path) + 4 + 2 * len(r.peel.block_edges)


def _lift_tampered(
    g, mode, kind, tamper, exc=InternalInvariant, match="did not rebuild the input graph"
):
    # the root's step is changed after reducing, by the fields tamper maps
    # it to; oracle leaf trees reach it intact, so the root's lift fails
    tr = reduce_to_fixpoint(g, mode)
    node = tr.nodes[0]
    assert node.applied.kind == kind
    node.applied = node.applied._replace(**tamper(node.applied))
    leaf_trees = {i: opt_spanning_tree(tr.nodes[i].graph) for i in tr.leaves()}
    with pytest.raises(exc, match=match):
        tr.lift_all(leaf_trees)


def test_lift_rejects_a_leaf_tree_that_misreports_itself_or_does_not_span():
    tr = reduce_to_fixpoint(cycle(10), "refined")
    (leaf,) = tr.leaves()
    t = opt_spanning_tree(tr.nodes[leaf].graph)
    with pytest.raises(InternalInvariant, match=f"tree of leaf {leaf} does not match its edges"):
        tr.lift_all({leaf: t._replace(weight=t.weight + 1)})
    with pytest.raises(InternalInvariant, match="0 edges for 2 vertices"):
        tr.lift_all({leaf: t._replace(edges=())})


def test_lift_rejects_an_op4_step_that_lost_a_block_edge():
    # the triangle edge the inner tree leaves out is dropped from the step,
    # so every tree still spans its graph and only the root check sees it
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    r = reduce_to_fixpoint(g, "simple").nodes[0].applied
    (peel,) = op4_peels(r)
    spare = [e for e in peel.block_edges if e not in peel.inner_tree]
    assert len(spare) == 1
    cut = peel._replace(
        block_edges=tuple(e for e in peel.block_edges if e not in spare)
    )
    _lift_tampered(g, "simple", "op4", lambda r: {"peel": cut})


def test_lift_rejects_an_op3_step_whose_bridge_moved():
    # the bridge 2-4 becomes 3-4: the lifted tree still spans, the root does not match
    g = build_graph(
        8,
        [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (4, 5), (5, 6), (4, 6), (4, 7)],
    )
    _lift_tampered(g, "simple", "op3", lambda r: {"bridge": (3, 4)})


def _move_first_cut_vertex(r):
    return {"peel": r.peel._replace(cut_vertex=r.peel.cut_vertex + 5)}


def _move_last_path_vertex(r):
    # the last path peel put the pendant 37 at 15, not at 16
    assert r.path[-1] == 15
    return {"path": (*r.path[:-1], 16)}


_BRIDGED_TRIANGLES = [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (4, 5), (5, 6), (4, 6), (4, 7)]


@pytest.mark.parametrize(
    "g, mode, kind, tamper, exc, match",
    [
        (path(24), "simple", "op4", lambda r: {"c": r.c + 1}, InternalInvariant,
         "block lift must gain exactly c"),
        (cycle(24), "refined", "op11", lambda r: {"c": r.c + 1}, InternalInvariant,
         "op11 lift fell below its floor"),
        (build_graph(8, _BRIDGED_TRIANGLES), "simple", "op3", lambda r: {"c": r.c + 1},
         InternalInvariant, "op3 lift fell below its floor"),
        (path(24), "simple", "op4", lambda r: {"parts": 2}, ArityMismatch,
         "op4 expects 2 subtrees, got 1"),
        (path(11), "simple", "op4", _move_first_cut_vertex, InternalInvariant,
         "pendant edge missing from subtree"),
        (path(24), "simple", "op4", _move_last_path_vertex, InternalInvariant,
         "pendant edge missing from subtree"),
        # the first path peel takes {7, 24} off 3, and 7 is alive again by then
        (path(24), "simple", "op4", _move_first_cut_vertex, InternalInvariant,
         "vertex 7 is not dead and bare"),
    ],
    ids=["op4-c", "op11-c", "op3-c", "op4-parts", "op4-cut-vertex", "op4-last-path-vertex",
         "op4-cut-vertex-before-a-path"],
)
def test_lift_checks_the_step_it_undoes(g, mode, kind, tamper, exc, match):
    _lift_tampered(g, mode, kind, tamper, exc, match)


def _move_a_middle_path_vertex(r):
    # peel 5 is at 7 with the pendant 29; with 8 in its place, the peel
    # after it takes {8, 29} off 8, and undoing that revives 8, alive.  A
    # middle path vertex is also the next peel's block vertex, so that
    # revive comes before its own pendant edge is looked up
    assert op4_peels(r)[5].pendant == 29 and r.path[4] == 7
    return {"path": (*r.path[:4], 8, *r.path[5:])}


def _merge_a_live_vertex(r):
    # contraction 4 is (0, 5, 9, 6); by the time it is undone, 7 is alive
    # again, so reviving it in 5's place is refused
    assert r.contractions[4] == (0, 5, 9, 6)
    run = list(r.contractions)
    run[4] = (0, 7, 9, 6)
    return {"contractions": tuple(run)}


@pytest.mark.parametrize(
    "g, mode, kind, tamper, match",
    [
        (path(24), "simple", "op4", _move_a_middle_path_vertex, "vertex 8 is not dead and bare"),
        (cycle(10), "refined", "op11", _merge_a_live_vertex, "vertex 7 is not dead and bare"),
    ],
    ids=["op4-revive", "op11-revive"],
)
def test_lift_checks_each_middle_record_against_the_rows_so_far(g, mode, kind, tamper, match):
    _lift_tampered(g, mode, kind, tamper, InternalInvariant, match)


def _restore_between_the_pendants(r):
    # op1 dropped 10, the second of the pendants 4 and 10 at 9; 4-10 is no edge
    assert r.witness == (4, 10, 9)
    return {"restore_edges": ((4, 10),)}


def _inner_tree_with_a_cycle(r):
    # the block K + {5} keeps its 7 edges, but 1-7-6-2-8-1 closes a cycle
    # and 5 is left out
    assert r.peel.cut_vertex == 5 and len(r.peel.component) == 7
    cycle_tree = ((0, 8), (1, 7), (1, 8), (2, 6), (2, 8), (3, 7), (6, 7))
    assert set(cycle_tree) <= set(r.peel.block_edges)
    return {"peel": r.peel._replace(inner_tree=cycle_tree)}


_PENDANT_AT_9 = [(0, 1), (0, 3), (0, 9), (1, 7), (1, 9), (2, 5), (2, 9), (3, 6), (3, 7), (3, 8),
                 (4, 9), (5, 9), (6, 7), (6, 8), (7, 8)]
_BLOCK_AT_5 = [(0, 8), (1, 5), (1, 7), (1, 8), (2, 5), (2, 6), (2, 8), (3, 7), (4, 9), (5, 6),
               (5, 8), (5, 9), (6, 7), (7, 8), (8, 9)]


@pytest.mark.parametrize(
    "g, mode, index, kind, tamper, match",
    [
        (gen_theta(12), "refined", 1, "op11", lambda r: {"c": r.c + 1},
         "op11 lift fell below its floor"),
        (build_graph(10, _PENDANT_AT_9), "simple", 1, "op1", _restore_between_the_pendants,
         "tree edge 4-10 is not a graph edge"),
        (build_graph(10, _BLOCK_AT_5), "simple", 3, "op4", _inner_tree_with_a_cycle,
         "inner tree at 5 is not a tree on its block"),
    ],
    ids=["op11-c", "op1-restore-edge", "op4-inner-tree"],
)
def test_lift_checks_a_step_below_the_root_where_it_is_undone(
    monkeypatch, g, mode, index, kind, tamper, match
):
    # a step below the root is changed after reducing; the lift fails at
    # that step, before the root's tree_result check would run
    tr = reduce_to_fixpoint(g, mode)
    node = tr.nodes[index]
    assert node.parent is not None and node.applied.kind == kind
    node.applied = node.applied._replace(**tamper(node.applied))
    leaf_trees = {i: opt_spanning_tree(tr.nodes[i].graph) for i in tr.leaves()}
    checked = []
    real = mist.reduce.tree_result
    monkeypatch.setattr(mist.reduce, "tree_result", lambda h, edges: checked.append(h) or real(h, edges))
    with pytest.raises(InternalInvariant, match=match):
        tr.lift_all(leaf_trees)
    assert checked and not any(h is tr.nodes[0].graph for h in checked)


def test_safety_exhaustive_small_graphs():
    fired = set()
    for g in connected_graphs_up_to_iso(6):
        if g.n_alive() < 2:
            continue
        for mode in ("simple", "refined"):
            tr = walk_trace_checking_safety(g, mode)
            fired.update(
                n.applied.kind for n in tr.nodes if n.applied is not None
            )
    # every rule except the bridge split shows up by n = 6
    assert {"op1", "op2", "op4", "op8", "op9", "op10", "op11"} <= fired


@given(st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_safety_random_instances(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    g = random_connected(n, 0.35, rng)
    for mode in ("simple", "refined"):
        walk_trace_checking_safety(g, mode)


def test_fixpoint_rejects_unknown_mode():
    from mist.errors import BadParams

    with pytest.raises(BadParams):
        reduce_to_fixpoint(path(3), "fancy")


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_fixpoint_rejects_a_disconnected_graph_up_front(mode):
    # the separation rules assume one component; two disjoint edges used to
    # reach the bridge split and fail there with an internal error
    from mist.errors import DisconnectedInput

    with pytest.raises(DisconnectedInput):
        reduce_to_fixpoint(build_graph(4, [(0, 1), (2, 3)]), mode)
