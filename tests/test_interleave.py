"""tools/interleave.py, the paired timing of two source trees."""

import compileall
import re
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import mist
import mist.cover
import mist.reduce
from mist import norm_edge
from mist.generate import gen_sparse
from mist.reduce import StrongReduction, find_op1

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import interleave  # noqa: E402

SRC = str(ROOT / "src")


def test_a_tree_timed_against_itself_agrees_on_every_output(capsys):
    argv = [SRC, SRC, "--workload", "gate", "--seed", "3", "--scale", "0.01", "--reps", "2"]
    assert interleave.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "gate seed 3 scale 0.01: 66 ops x 2"
    assert [line.split(":")[0].strip() for line in out[1:]] == [
        "parent", "change", "change/parent total", "change/parent per rep"
    ]
    for line in out[1:3]:
        assert re.fullmatch(
            r" *\w+: total \S+ s, solve p50 \S+ ms sum \S+ ms, reduce p50 \S+ ms sum \S+ ms, "
            r"apply p50 \S+ ms sum \S+ ms, lift p50 \S+ ms sum \S+ ms, leaf p50 \S+ ms sum \S+ ms, "
            r"exact p50 \S+ ms sum \S+ ms, verify p50 \S+ ms sum \S+ ms, "
            r"\d+ trace nodes, \d+ lowpoint passes, \d+ twin groupings, \d+ op10 searches, "
            r"\d+ cover component searches per rep",
            line,
        )
    ratios, won = re.fullmatch(r"change/parent per rep: (\S+ \S+) \(change won (\d) of 2\)", out[4]).groups()
    assert sum(float(r) < 1 for r in ratios.split()) == int(won)
    assert not any(k.startswith(("mist_parent", "mist_change")) for k in sys.modules)


def test_a_sparse_graph_runs_in_both_modes_on_both_trees(capsys):
    argv = [SRC, SRC, "--sparse", "60", "--reps", "3"]
    assert interleave.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sparse 60: 2 ops x 3"
    assert re.fullmatch(r"change/parent per rep: \S+ \S+ \S+ \(change won \d of 3\)", out[4])
    corp = interleave.sparse_corpus(mist, 60)
    assert [op.mode for op in corp.ops] == ["simple", "refined"]
    g = mist.parse_graph(corp.instances[0].text)
    assert g.edge_list() == gen_sparse(60, 30, 1).edge_list()


def test_setup_reimports_both_trees_from_fresh_modules_in_turn(capsys, monkeypatch):
    loaded = []
    load = interleave.load
    monkeypatch.setattr(interleave, "load", lambda src, name: loaded.append(load(src, name)) or loaded[-1])
    assert interleave.main([SRC, SRC, "--setup", "--reps", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "setup: 2 imports per side"
    assert re.fullmatch(r"parent: import p50 \S+ ms", out[1])
    assert re.fullmatch(r"change: import p50 \S+ ms", out[2])
    ratios, won = re.fullmatch(r"change/parent per rep: (\S+ \S+) \(change won (\d) of 2\)", out[3]).groups()
    assert sum(float(r) < 1 for r in ratios.split()) == int(won)
    # one untimed import of each, then the order flips on every rep
    assert [m.__name__ for m in loaded] == [f"mist_{side}" for side in (
        "parent", "change", "parent", "change", "change", "parent"
    )]
    assert len({id(m.reduce.TraceNode) for m in loaded}) == 6
    assert not any(k.startswith(("mist_parent", "mist_change")) for k in sys.modules)


def test_a_workload_needs_a_seed_and_excludes_a_sparse_graph(capsys):
    for extra in ([], ["--seed", "1", "--sparse", "60"]):
        with pytest.raises(SystemExit):
            interleave.main([SRC, SRC, "--workload", "gate", *extra])
    assert "--workload needs --seed" in capsys.readouterr().err


def test_an_output_difference_stops_the_run():
    corp = interleave.corpus_mod.build("chains", 3, 0.05)

    def run(g, mode, keep_state=False):
        report = mist.run(g, mode, keep_state)
        report.upper_bound += mode == "refined"
        return report

    changed = SimpleNamespace(
        parse_graph=mist.parse_graph,
        run=run,
        verify_run=mist.verify_run,
        reduce=mist.reduce,
        pipeline=mist.pipeline,
        graph=mist.graph,
        cover=mist.cover,
    )
    times, diff = interleave.interleave({"parent": mist, "change": changed}, corp, 1)
    first = next(k for k, op in enumerate(corp.ops) if op.mode == "refined")
    assert diff.startswith(f"op {first} (refined): ")
    assert len(times["parent"]["solve"]) == len(times["change"]["solve"]) == first + 1
    # every operation lifts its trace once, inside its solve time
    for t in times.values():
        assert all(0 < lift < solve for lift, solve in zip(t["lift"], t["solve"]))
    # the rep cut short holds the time of the operations run
    assert all(len(t["reps"]) == 1 and t["reps"][0] > 0 for t in times.values())


def test_the_reduce_and_lift_times_are_parts_of_the_solve_time():
    # run's reduce_to_fixpoint and lift_all are timed apart, each inside
    # its solve time, and the steps' applies inside the reduce time; the
    # wrappers are gone once the operation is over
    corp = interleave.corpus_mod.build("chains", 3, 0.05)
    reduce_to_fixpoint, lift_all = mist.pipeline.reduce_to_fixpoint, mist.reduce.ReductionTrace.lift_all
    applies = mist.reduce.apply_strong_reduction, mist.reduce.apply_weak_reduction
    times, diff = interleave.interleave({"parent": mist, "change": mist}, corp, 1)
    assert diff is None
    for t in times.values():
        assert len(t["reduce"]) == len(t["apply"]) == len(corp.ops)
        for solve, reduce, apply, lift in zip(t["solve"], t["reduce"], t["apply"], t["lift"]):
            assert 0 < reduce and 0 < lift and reduce + lift < solve
            assert 0 <= apply < reduce
        # refined mode contracts every chain, and simple mode peels every path
        assert sum(apply > 0 for apply in t["apply"]) == len(corp.ops) * 2 // 3
    assert mist.pipeline.reduce_to_fixpoint is reduce_to_fixpoint
    assert mist.reduce.ReductionTrace.lift_all is lift_all
    assert (mist.reduce.apply_strong_reduction, mist.reduce.apply_weak_reduction) == applies


def test_the_exact_time_is_the_time_spent_in_the_oracle_by_run_and_verify_run():
    # most gate operations call opt_spanning_tree, from run's leaves, op4's
    # peels or verify_run's proof; its time fits in the operation's, and
    # the wrappers are gone once the operation is over
    corp = interleave.corpus_mod.build("gate", 3, 0.01)
    search = mist.exact.opt_spanning_tree
    times, diff = interleave.interleave({"parent": mist, "change": mist}, corp, 1)
    assert diff is None
    for t in times.values():
        assert len(t["exact"]) == len(corp.ops)
        spent = list(zip(t["solve"], t["exact"], t["verify"]))
        assert all(exact < solve + verify for solve, exact, verify in spent)
        assert sum(exact > 0 for _, exact, _ in spent) > len(corp.ops) // 2
    assert mist.reduce.opt_spanning_tree is mist.pipeline.opt_spanning_tree is search


def test_the_leaf_time_is_the_part_of_the_solve_time_spent_solving_leaves():
    # every operation solves at least one leaf inside run; the leaf solves
    # and the reduction are apart, and the wrapper is gone once the
    # operation is over
    corp = interleave.corpus_mod.build("chains", 3, 0.05)
    solve_leaf = mist.pipeline._solve_leaf
    times, diff = interleave.interleave({"parent": mist, "change": mist}, corp, 1)
    assert diff is None
    for t in times.values():
        assert len(t["leaf"]) == len(corp.ops)
        for solve, reduce, leaf in zip(t["solve"], t["reduce"], t["leaf"]):
            assert 0 < leaf and reduce + leaf < solve
    assert mist.pipeline._solve_leaf is solve_leaf


def test_the_counts_are_the_passes_and_searches_of_run_and_verify_run(monkeypatch):
    # each side counts the trace nodes, lowpoint passes, twin groupings from
    # all rows, op10 searches and whole-cover component searches that run
    # and verify_run make, the replay's not included; the wrappers are gone
    # once the operation is over
    corp = interleave.corpus_mod.build("gate", 3, 0.01)
    owners = (mist.reduce.ReductionTrace, mist.reduce, mist.graph, mist.reduce._FINDERS, mist.cover)
    names = ("add_node", "separations", "twin_groups", "op10", "connected_components")

    def current():
        return tuple(o[name] if isinstance(o, dict) else getattr(o, name) for o, name in zip(owners, names))

    reals = current()
    times, diff = interleave.interleave({"parent": mist, "change": mist}, corp, 2)
    assert diff is None
    assert current() == reals
    calls = [0] * len(names)

    def counting(i):
        return lambda *args: calls.__setitem__(i, calls[i] + 1) or reals[i](*args)

    for i, (o, name) in enumerate(zip(owners, names)):
        if isinstance(o, dict):
            monkeypatch.setitem(o, name, counting(i))
        else:
            monkeypatch.setattr(o, name, counting(i))
    for op in corp.ops:
        g = mist.parse_graph(corp.instances[op.instance].text)
        mist.verify_run(g, mist.run(g, op.mode, keep_state=True))
    assert all(n > 0 for n in calls)
    assert times["parent"]["calls"] == times["change"]["calls"] == [2 * n for n in calls]


def _drop_the_other_pendant(g, sep=None):
    # op1 keeps u2 and drops u1: the two are twins, so the tree, the bound
    # and the step's kind and c come out the same, but the child graph not
    r = find_op1(g, sep)
    if r is None:
        return None
    u1, u2, v = r.witness
    e = norm_edge(u1, v)
    return StrongReduction("op1", (u1,), (e,), (e,), (u2, u1, v))


def test_a_step_that_changes_a_different_graph_stops_the_run():
    corp = interleave.corpus_mod.build("gate", 3, 0.01)

    def run(g, mode, keep_state=False):
        with pytest.MonkeyPatch.context() as m:
            m.setitem(mist.reduce._FINDERS, "op1", _drop_the_other_pendant)
            return mist.run(g, mode, keep_state)

    def has_op1(op):
        report = mist.run(mist.parse_graph(corp.instances[op.instance].text), op.mode, True)
        return any(n.applied is not None and n.applied.kind == "op1" for n in report.trace.nodes)

    changed = SimpleNamespace(
        parse_graph=mist.parse_graph,
        run=run,
        verify_run=mist.verify_run,
        reduce=mist.reduce,
        pipeline=mist.pipeline,
        graph=mist.graph,
        cover=mist.cover,
    )
    times, diff = interleave.interleave({"parent": mist, "change": changed}, corp, 1)
    first = next(k for k, op in enumerate(corp.ops) if has_op1(op))
    op = corp.ops[first]
    assert diff.startswith(f"op {first} ({op.mode}): ")
    # only the replayed graphs tell the two apart
    g = mist.parse_graph(corp.instances[op.instance].text)
    reports = [mist.run(g, op.mode, True), run(g, op.mode, True)]
    assert len({(r.tree, r.upper_bound) for r in reports}) == 1
    steps = [interleave.replay_steps(mist.reduce, r.trace) for r in reports]
    assert [s[:4] for s in steps[0]] == [s[:4] for s in steps[1]] and steps[0] != steps[1]


def test_setup_refuses_trees_in_different_bytecode_states(tmp_path):
    # bytecode is read without compiling: timing it against a tree that
    # compiles on every import reads the difference as the change's
    srcs = [tmp_path / side / "src" for side in ("plain", "compiled")]
    for src in srcs:
        shutil.copytree(ROOT / "src" / "mist", src / "mist", ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(str(srcs[1] / "mist"), quiet=1)
    for argv, have, lack in ((srcs, "change", "parent"), (srcs[::-1], "parent", "change")):
        with pytest.raises(SystemExit) as exc:
            interleave.main([*map(str, argv), "--setup", "--reps", "1"])
        assert str(exc.value) == (
            f"error: the {have} tree {srcs[1]} has mist bytecode for this interpreter "
            f"and the {lack} tree {srcs[0]} has none; compile both or neither"
        )
    assert not any(k.startswith(("mist_parent", "mist_change")) for k in sys.modules)
