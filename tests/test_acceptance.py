"""Acceptance gate: end-to-end guarantees checked against exact oracles.

Run with -v to read the gate as a checklist, one pass/fail line per
guarantee.  The shared corpus (every connected graph on up to seven
vertices, plus two thousand seeded random graphs on eight to twelve)
is solved once per session and every test inspects that single pass.
"""

import random
import re
from collections import Counter
from dataclasses import dataclass, field

import pytest

import mist.pipeline
from mist import cli
from mist.exact import opt_spanning_tree, tree_result
from mist.fileio import emit_graph
from mist.errors import MistError
from mist.generate import gen_cycle, gen_gnp, gen_path, gen_sparse, gen_theta, gen_twins
from mist.pipeline import run, verify_run
from mist.preprocess import (
    check_dead_four_paths_pendant_ends,
    check_four_cycles_three_ports,
    check_pairs_off_cycles,
    check_port_neighbor_growth,
    check_short_paths_alive,
    cycle_port_properties,
)
from mist.reduce import StrongReduction, WeakReduction, find_op4, find_op11, reduce_to_fixpoint
from mist.transform import check_stage2_structure

from graphgen import connected_graphs_up_to_iso
from helpers import (
    caterpillar,
    check_runs_against_reference,
    lollipop,
    op4_peels,
    outcome_digest,
    outcome_line,
    path_cover_from_tree,
    random_tree,
    replay,
    single_run_find_op11,
    small_leaf_rule,
    ten_left_find_op4,
)

RANDOM_COUNT = 2000

# sha256 over the outcome lines of every survey run; a change that keeps the
# solver's behaviour must reproduce it exactly
SURVEY_DIGEST = "f8ffd66a7d8b537545ab1698fd19a06c516500452bbf8b4de5fd2552429539a1"

# sha256 over the covers of every refined cover leaf (initial, preprocessed,
# after stage 1 and after stage 2), their component counters, and every
# verify_run check of the refined runs; a change to preprocessing or to the
# stages that still ends at the same tree must reproduce it too
COVER_DIGEST = "c76c46a208ae7fe16eac84596369d9c53beb71a83812efbed944a719e77a6ac7"


def _report(label: str, checked: int, bad: list) -> None:
    print(f"{'PASS' if not bad else 'FAIL'} {label} ({checked} checked)")
    assert not bad, f"{label}: {len(bad)} violations, first {bad[:5]}"


def _corpus():
    for i, g in enumerate(connected_graphs_up_to_iso(7)):
        yield f"exh-{i}", g
    for i in range(RANDOM_COUNT):
        n = 8 + i % 5
        yield f"gnp-{n}-{i}", gen_gnp(n, 0.3, i)


def _leaf_predicates(leaf) -> list[str]:
    """Structural facts promised for an irreducible core after the cover
    cleanup and again after the component merge stage."""
    g, pre, st = leaf.graph, leaf.pre_cover, leaf.state
    probs = []
    probs += check_short_paths_alive(pre, g)
    probs += check_port_neighbor_growth(pre, g)
    probs += check_pairs_off_cycles(pre, leaf.pairs)
    probs += check_dead_four_paths_pendant_ends(pre, g)
    probs += check_four_cycles_three_ports(pre, g)
    for comp in pre.components():
        if comp.kind == "cycle":
            probs += cycle_port_properties(g, comp)
    if st.stats is not None:
        # the staged route ran; when the cover was nothing but cycles the
        # tree comes from chaining them instead and these do not apply
        probs += check_stage2_structure(st.cover2, g, st.base_edges)
        if st.tree.weight < st.stats.tree_floor:
            probs.append(
                f"tree weight {st.tree.weight} below floor {st.stats.tree_floor}"
            )
    return probs


@dataclass
class Survey:
    instances: int = 0
    cover_leaves: int = 0
    state_leaves: int = 0
    stats_leaves: int = 0
    refined_ratio_bad: list = field(default_factory=list)
    simple_ratio_bad: list = field(default_factory=list)
    leaf_slack_bad: list = field(default_factory=list)
    cover_bound_bad: list = field(default_factory=list)
    predicate_bad: list = field(default_factory=list)
    counter_bad: list = field(default_factory=list)
    certificate_bad: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    cover_lines: list = field(default_factory=list)


def _cover_line(tag: str, leaf) -> str:
    st = leaf.state
    covers = (leaf.base_cover, leaf.pre_cover, st.cover1, st.cover2)
    return f"{tag} {[c.edge_list() for c in covers]} {st.stats}\n"


def _verdict(vr) -> tuple:
    return vr.opt, [(c.name, c.ok, c.detail) for c in vr.checks]


def _unseeded_verdict(g, report) -> tuple:
    """verify_run's verdict when every optimum comes from an unseeded search."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mist.pipeline, "_certified_opt", lambda h, t: opt_spanning_tree(h).weight)
        return _verdict(verify_run(g, report))


@pytest.fixture(scope="session")
def survey():
    s = Survey()
    for name, g in _corpus():
        opt = opt_spanning_tree(g).weight
        refined = run(g, "refined", keep_state=True)
        simple = run(g, "simple", keep_state=True)
        s.instances += 1
        s.outcomes.append(outcome_line(name, "refined", refined))
        s.outcomes.append(outcome_line(name, "simple", simple))
        verdicts = [_verdict(verify_run(g, r)) for r in (refined, simple)]
        s.cover_lines.append(f"{name} {verdicts[0][1]}\n")
        for report, verdict in zip((refined, simple), verdicts):
            if verdict != _unseeded_verdict(g, report):
                s.certificate_bad.append(f"{name}/{report.mode}")
        if 17 * refined.tree.weight < 13 * opt:
            s.refined_ratio_bad.append(name)
        if 4 * simple.tree.weight < 3 * opt:
            s.simple_ratio_bad.append(name)
        for report in (refined, simple):
            for leaf in report.leaves:
                if leaf.method != "cover":
                    continue
                tag = f"{name}/{report.mode}/node{leaf.node}"
                s.cover_leaves += 1
                if leaf.graph == g:
                    leaf_opt = opt
                else:
                    leaf_opt = opt_spanning_tree(leaf.graph).weight
                if leaf.cover_edges < leaf_opt:
                    s.cover_bound_bad.append(tag)
                if report.mode == "simple":
                    if 4 * leaf.tree.weight < 3 * leaf.cover_edges:
                        s.leaf_slack_bad.append(tag)
                    continue
                s.state_leaves += 1
                s.cover_lines.append(_cover_line(tag, leaf))
                probs = _leaf_predicates(leaf)
                if probs:
                    s.predicate_bad.append(f"{tag}: {probs[0]}")
                stats = leaf.state.stats
                if stats is not None:
                    s.stats_leaves += 1
                    if leaf_opt > stats.opt_cap_edges:
                        s.counter_bad.append(f"{tag}: edge cap")
                    if leaf_opt > stats.opt_cap_internal:
                        s.counter_bad.append(f"{tag}: internal cap")
    return s


def test_corpus_is_complete(survey):
    _report("corpus solved end to end", survey.instances, [])
    assert survey.instances == 996 + RANDOM_COUNT
    assert survey.cover_leaves > 0
    assert survey.state_leaves > 0
    assert survey.stats_leaves > 0


def test_trees_and_bounds_match_the_pinned_digest(survey):
    got = outcome_digest(survey.outcomes)
    _report(
        "trees and upper bounds unchanged",
        len(survey.outcomes),
        [] if got == SURVEY_DIGEST else [got],
    )


def test_covers_and_checks_match_the_pinned_digest(survey):
    got = outcome_digest(survey.cover_lines)
    _report(
        "covers, counters and verification checks unchanged",
        len(survey.cover_lines),
        [] if got == COVER_DIGEST else [got],
    )


def test_refined_tree_within_thirteen_seventeenths_of_optimum(survey):
    _report(
        "refined: 17*weight >= 13*opt on every instance",
        survey.instances,
        survey.refined_ratio_bad,
    )


def test_simple_tree_within_three_quarters_of_optimum(survey):
    _report(
        "simple: 4*weight >= 3*opt on every instance",
        survey.instances,
        survey.simple_ratio_bad,
    )


def test_simple_leaf_trees_keep_three_quarters_of_their_cover(survey):
    _report(
        "simple: 4*weight >= 3*cover edges on every cover leaf",
        survey.cover_leaves - survey.state_leaves,
        survey.leaf_slack_bad,
    )


def test_cover_size_bounds_the_leaf_optimum(survey):
    _report(
        "cover edges >= opt on every cover leaf",
        survey.cover_leaves,
        survey.cover_bound_bad,
    )


def test_cleanup_and_merge_promises_hold_on_refined_leaves(survey):
    _report(
        "post-cleanup and post-merge structure on refined leaves",
        survey.state_leaves,
        survey.predicate_bad,
    )


def test_component_counters_bound_the_leaf_optimum(survey):
    _report(
        "counter caps bound opt on every stats leaf",
        survey.stats_leaves,
        survey.counter_bad,
    )


def test_certified_opt_and_checks_match_an_unseeded_search(survey):
    _report(
        "verify_run's opt and checks equal an unseeded search's, both modes",
        2 * survey.instances,
        survey.certificate_bad,
    )


# -- cores above 16 vertices ------------------------------------------------


def test_cores_above_the_exact_cover_cap_solve_and_verify_in_both_modes():
    # above 16 vertices, past reference_max_tfpcc's default cap, no exact
    # oracle checks a leaf's cover: every run completes and passes
    # verify_run, whose checks there are structural
    graphs = [
        (f"{family.__name__}-{n}", family(n))
        for n in range(17, 61, 3)
        for family in (gen_cycle, gen_theta)
    ]
    graphs += [(f"twins-{n}-{seed}", gen_twins(n, seed)) for n in range(17, 61, 3) for seed in range(2)]
    graphs += [
        (f"gnp-{n}-{p}-{seed}", gen_gnp(n, p, seed))
        for n in range(17, 41, 3)
        for p in (0.15, 0.3)
        for seed in range(2)
    ]
    graphs += [(f"sparse-{n}", gen_sparse(n, n // 2, 1)) for n in (100, 200, 300)]
    bad, above = [], Counter()
    for name, g in graphs:
        for mode in ("simple", "refined"):
            try:
                report = run(g, mode, keep_state=True)
                vr = verify_run(g, report)
            except MistError as exc:
                bad.append(f"{name}/{mode}: {type(exc).__name__}: {exc}")
                continue
            if not vr.ok:
                bad.append(f"{name}/{mode}: {[c.name for c in vr.failing()]}")
            above[mode] += any(leaf.graph.n_alive() > 16 for leaf in report.leaves)
    _report("runs on cores above 16 vertices verify", 2 * len(graphs), bad)
    # op11 contracts refined cycles and thetas to small leaves, and
    # gen_gnp(17, 0.15, 1) reduces to 15 and 14 vertices; every other run
    # keeps a leaf above 16 vertices
    assert above == {"simple": 94, "refined": 64}


# -- op11 runs against single contractions ---------------------------------


def _first_contraction_only(g, sep=None):
    """op11 cut down to the first contraction of its run: the single-edge rule."""
    r = find_op11(g, sep)
    return r and r._replace(c=1, runs=(r.runs[0][:1],))


def _refined_outcome(g, op11):
    with pytest.MonkeyPatch.context() as m:
        m.setitem(mist.reduce._FINDERS, "op11", op11)
        try:
            report = run(g, "refined", keep_state=True)
        except MistError as exc:
            return type(exc).__name__, None
    vr = verify_run(g, report)
    return (report.tree.weight, report.upper_bound, vr.ok, vr.opt), report.tree.edges


def test_op11_runs_keep_weights_bounds_and_verdicts_of_single_contractions():
    # a step contracts the chains the single-edge rule would contract one
    # node at a time, unless another rule fires partway along one or
    # between two; the trees may then differ, never the weight, the bound
    # or the verdict
    chains = [
        (f"{family.__name__}-{n}", family(n))
        for n in range(9, 61)
        for family in (gen_cycle, gen_theta, gen_path)
    ]
    others = list(_corpus()) + [
        (f"sparse-{n}-{seed}", gen_sparse(n, n // 10, seed))
        for n in range(20, 81, 5)
        for seed in range(3)
    ]
    chain_names = {name for name, _ in chains}
    bad, trees_differ = [], 0
    for name, g in chains + others:
        single = _refined_outcome(g, _first_contraction_only)
        whole = _refined_outcome(g, find_op11)
        if single[0] != whole[0]:
            bad.append(f"{name}: {single[0]} became {whole[0]}")
        elif single[1] != whole[1]:
            trees_differ += 1
            if name in chain_names:
                bad.append(f"{name}: tree changed")
    _report(
        f"op11 runs keep weight, bound and verdict ({trees_differ} trees differ)",
        len(chains) + len(others),
        bad,
    )
    assert trees_differ == 57


# -- op4 runs against single peels -----------------------------------------


def _first_peel_only(g, sep=None):
    """op4 cut down to the first peel of its run: one block per step."""
    r = find_op4(g, sep)
    return r and r._replace(c=r.peel.inner_opt - 1, path=(), last=None)


def _outcome(g, mode, op4):
    """The reductions a run makes, op4's peel by peel, and its tree, bound
    and checks, leaf numbers aside: shorter traces number leaves differently."""
    with pytest.MonkeyPatch.context() as m:
        m.setitem(mist.reduce._FINDERS, "op4", op4)
        try:
            report = run(g, mode, keep_state=True)
        except MistError as exc:
            return type(exc).__name__
    steps = Counter()
    for node in report.trace.nodes:
        r = node.applied
        steps.update(op4_peels(r) if r is not None and r.kind == "op4" else [r])
    opt, checks = _verdict(verify_run(g, report))
    checks = [(re.sub(r"^leaf\d+-", "leaf-", name), ok, detail) for name, ok, detail in checks]
    return steps, report.tree.edges, report.upper_bound, opt, checks


def test_op4_runs_keep_the_trees_bounds_and_checks_of_single_peels():
    # a run is exactly the peels single steps would make, so no run differs,
    # not even in the reductions it makes.  A path is a leaf, so the tails
    # end in a triangle, which simple mode peels with the tail, or in a
    # 9-cycle, which refined mode keeps too
    chains = [
        (f"{family.__name__}-{n}", family(n))
        for n in range(9, 61)
        for family in (gen_cycle, gen_theta)
    ]
    chains += [(f"lollipop-{n}-3", lollipop(n, 3)) for n in range(9, 61)]
    chains += [(f"lollipop-{n}-9", lollipop(n, 9)) for n in range(21, 61, 3)]
    others = list(_corpus()) + [
        (f"sparse-{n}-{seed}", gen_sparse(n, n // 10, seed))
        for n in range(20, 81, 5)
        for seed in range(3)
    ]
    longest = Counter()

    def counting(g, sep=None):
        r = find_op4(g, sep)
        longest[name] = max(longest[name], len(op4_peels(r)) if r else 0)
        return r

    bad = []
    for name, g in chains + others:
        for mode in ("simple", "refined"):
            if _outcome(g, mode, _first_peel_only) != _outcome(g, mode, counting):
                bad.append(f"{name}/{mode}")
    _report("op4 runs keep trees, bounds and checks", 2 * len(chains + others), bad)
    # every lollipop from 12 vertices on, and 3 others, get a run of peels
    assert sum(k > 1 for k in longest.values()) == 66


# -- batched op4 and op11 steps against single steps -----------------------

# Refined runs whose single-step engine fires op4, op8 or op10 between two
# runs of one batched op11 step, so the batched trace leaves the
# single-step graphs there; the runs of _BATCH_MOVED_TREES also end at
# another tree, of the same weight.
_BATCH_MOVED_TREES = {
    "gnp-12-59", "gnp-12-699", "gnp-12-884", "gnp-12-964", "gnp-12-1004", "gnp-11-1388",
    "gnp-12-1529", "gnp-11-1868",
}
_BATCH_LEFT_TRACES = _BATCH_MOVED_TREES | {
    "gnp-12-219", "gnp-11-433", "gnp-12-449", "gnp-12-609", "gnp-12-784", "gnp-12-974",
    "gnp-12-1299", "gnp-11-1508", "gnp-11-1613", "gnp-11-1858", "gnp-12-1984", "sparse-50-2",
}


def _stepped(g, mode, single):
    """A run's tree, bound, checks (leaf numbers aside) and opt, and the
    graph of every trace node, with single op4 and op11 steps or batched ones."""
    with pytest.MonkeyPatch.context() as m:
        if single:
            m.setitem(mist.reduce._FINDERS, "op4", ten_left_find_op4)
            m.setitem(mist.reduce._FINDERS, "op11", single_run_find_op11)
        try:
            report = run(g, mode, keep_state=True)
        except MistError as exc:
            return (type(exc).__name__, None, None, None), []
    opt, checks = _verdict(verify_run(g, report))
    checks = [(re.sub(r"^leaf\d+-", "leaf-", name), ok, detail) for name, ok, detail in checks]
    graphs = [(h.alive, h.adj) for h in replay(report.trace)]
    return (report.tree, report.upper_bound, checks, opt), graphs


def _in_order(part, whole) -> bool:
    """Whether part's items appear in whole, in order."""
    rest = iter(whole)
    return all(x in rest for x in part)


def test_batched_op4_and_op11_steps_keep_the_outcomes_of_single_steps():
    # an op4 step that also takes its last piece, and an op11 step that
    # takes every run, do what the single steps of the next nodes would,
    # unless another rule fires between two runs; the tree may then move,
    # never its weight, the bound or the checks
    chains = [
        (f"{family.__name__}-{n}", family(n))
        for n in range(9, 61)
        for family in (gen_cycle, gen_theta, gen_path)
    ]
    others = list(_corpus()) + [
        (f"sparse-{n}-{seed}", gen_sparse(n, n // 10, seed))
        for n in range(20, 81, 5)
        for seed in range(3)
    ]
    bad, moved, left = [], set(), set()
    for name, g in chains + others:
        for mode in ("simple", "refined"):
            (single, single_graphs), (batched, graphs) = (_stepped(g, mode, s) for s in (True, False))
            weights = [getattr(out[0], "weight", out[0]) for out in (single, batched)]
            if single[1:] != batched[1:] or weights[0] != weights[1]:
                bad.append(f"{name}/{mode}")
            if single[0] != batched[0]:
                moved.add(f"{name}/{mode}")
            if not _in_order(graphs, single_graphs):
                left.add(f"{name}/{mode}")
    _report(
        f"batched steps keep weight, bound and checks ({len(moved)} trees move)",
        2 * len(chains + others),
        bad,
    )
    assert moved == {f"{name}/refined" for name in _BATCH_MOVED_TREES}
    assert left == {f"{name}/refined" for name in _BATCH_LEFT_TRACES}


# -- tree leaves against the small-leaf rule -------------------------------


def _leaf_rule_outcome(g, mode, rule):
    """A run's tree, bound, opt and checks, leaf numbers aside, and how
    many of its leaves are trees of 4 or more vertices, with the leaf rule
    given."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mist.reduce, "is_leaf", rule)
        try:
            report = run(g, mode, keep_state=True)
        except MistError as exc:
            return (type(exc).__name__,), 0
    opt, checks = _verdict(verify_run(g, report))
    checks = [(re.sub(r"^leaf\d+-", "leaf-", name), ok, detail) for name, ok, detail in checks]
    trees = sum(h.edge_count() == h.n_alive() - 1 >= 3 for h in (leaf.graph for leaf in report.leaves))
    return (report.tree, report.upper_bound, opt, checks), trees


def test_tree_leaves_keep_the_trees_bounds_and_checks_of_the_small_leaf_rule():
    # a tree is its own only spanning tree, and every rule is exact on it,
    # so stopping at a tree changes no tree, bound, opt or check: trees
    # and lollipops, the survey and sparse graphs, both modes
    rng = random.Random(38)
    graphs = list(_corpus())
    graphs += [(f"tree-{n}", random_tree(n, rng)) for n in range(4, 61)]
    graphs += [(f"caterpillar-{n}", caterpillar(n)) for n in range(2, 21)]
    graphs += [(f"lollipop-{n}-{k}", lollipop(n, k)) for n in range(12, 41, 7) for k in (3, 4, 9)]
    graphs += [(f"sparse-{n}", gen_sparse(n, n // 10, n)) for n in range(20, 81, 10)]
    bad, dropped = [], []
    trees = Counter()
    for name, g in graphs:
        for mode in ("simple", "refined"):
            (small, small_made), (tree, made) = (
                _leaf_rule_outcome(g, mode, rule) for rule in (small_leaf_rule, mist.reduce.is_leaf)
            )
            trees["small", mode] += small_made
            trees["tree", mode] += made
            if small == tree:
                continue
            same = len(small) == len(tree) > 1 and (tree[0], *tree[2:]) == (small[0], *small[2:])
            if same and tree[1] < small[1]:
                dropped.append(f"{name}/{mode}")  # the same tree, opt and checks under a lower bound
            else:
                bad.append(f"{name}/{mode}")
    _report(f"tree leaves keep trees, bounds and checks ({len(dropped)} bounds drop)", 2 * len(graphs), bad)
    assert dropped == []
    # the small-leaf rule makes no tree leaf of 4 or more vertices
    assert dict(trees) == {
        ("small", "simple"): 0, ("small", "refined"): 0,
        ("tree", "simple"): 577, ("tree", "refined"): 1586,
    }


def test_op4_and_op11_sweeps_match_the_per_edit_loops_on_the_survey_corpus(monkeypatch):
    seen = check_runs_against_reference(monkeypatch, [g for _, g in _corpus()])
    _report("op4 and op11 sweeps match the per-edit loops", sum(seen.values()), [])
    assert seen["op4 apply"] == seen["op4 undo"] > 0
    assert seen["op11 apply"] == seen["op11 undo"] > 0


# -- reduction safety on everything small enough to trace with the oracle ---


def _safety_corpus():
    for i, g in enumerate(connected_graphs_up_to_iso(6)):
        if g.n_alive() >= 2:
            yield f"exh-{i}", g
    for n in (7, 8, 9):
        yield f"path-{n}", gen_path(n)
        yield f"cycle-{n}", gen_cycle(n)
        yield f"theta-{n}", gen_theta(n)
        for seed in range(25):
            yield f"gnp-{n}-{seed}", gen_gnp(n, 0.35, seed)
            yield f"twins-{n}-{seed}", gen_twins(n, seed)


@dataclass
class SafetyWalk:
    strong_steps: int = 0
    weak_steps: int = 0
    lifts: int = 0
    strong_bad: list = field(default_factory=list)
    weak_bad: list = field(default_factory=list)
    lift_bad: list = field(default_factory=list)


@pytest.fixture(scope="session")
def safety():
    s = SafetyWalk()
    for name, g in _safety_corpus():
        for mode in ("simple", "refined"):
            tr = reduce_to_fixpoint(g, mode)
            graphs = replay(tr)
            for node in tr.nodes:
                red = node.applied
                if red is None:
                    continue
                tag = f"{name}/{mode}/{red.kind}"
                parent_opt = opt_spanning_tree(graphs[node.index]).weight
                kids = [graphs[c] for c in node.children]
                if isinstance(red, StrongReduction):
                    s.strong_steps += 1
                    if opt_spanning_tree(kids[0]).weight != parent_opt:
                        s.strong_bad.append(tag)
                else:
                    assert isinstance(red, WeakReduction)
                    s.weak_steps += 1
                    total = sum(opt_spanning_tree(k).weight for k in kids)
                    if total + red.c != parent_opt:
                        s.weak_bad.append(tag)
            s.lifts += 1
            leaf_trees = {
                i: opt_spanning_tree(tr.nodes[i].graph) for i in tr.leaves()
            }
            if tr.lift_all(leaf_trees).weight != opt_spanning_tree(g).weight:
                s.lift_bad.append(f"{name}/{mode}")
    return s


def test_strong_reductions_preserve_the_optimum(safety):
    _report(
        "strong steps keep opt unchanged", safety.strong_steps, safety.strong_bad
    )
    assert safety.strong_steps > 100


def test_weak_reductions_decompose_the_optimum(safety):
    _report(
        "weak steps satisfy opt = sum of parts + constant",
        safety.weak_steps,
        safety.weak_bad,
    )
    assert safety.weak_steps > 100
    _report(
        "lifting oracle subtrees recovers opt exactly", safety.lifts, safety.lift_bad
    )


# -- path covers thinned out of spanning trees ------------------------------


def test_tree_thinning_keeps_weight_and_leaf_degrees():
    rng = random.Random(20260814)
    bad = []
    for i in range(1000):
        g = random_tree(rng.randint(1, 50), rng)
        t = tree_result(g, g.edge_list())
        c = path_cover_from_tree(t, g)
        if c.edge_count() < t.weight:
            bad.append(f"tree {i}: too few edges")
        if any(c.degree(v) > 1 for v in t.leaves):
            bad.append(f"tree {i}: tree leaf kept degree 2")
        if any(c.degree(v) > 2 for v in g.alive_list()):
            bad.append(f"tree {i}: degree above two")
    _report("path cover from 1000 random trees", 1000, bad)


# -- determinism of the command line ----------------------------------------


def test_commands_are_deterministic(tmp_path, capsys):
    path = tmp_path / "in.mist"
    path.write_text(emit_graph(gen_gnp(11, 0.3, 7)))
    outs = []
    for argv in (
        ["solve", "--algo", "refined", "--in", str(path), "--verify"],
        ["gen", "--family", "twins", "--n", "12", "--seed", "3"],
        ["sweep", "--algo", "refined", "--n-range", "9..10", "--count", "6",
         "--seed", "2"],
    ):
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        second = capsys.readouterr().out
        outs.append((first, second))
    bad = [f"command {i}" for i, (a, b) in enumerate(outs) if a != b]
    _report("repeated runs are byte-identical", len(outs), bad)
