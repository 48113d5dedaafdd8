"""tools/interleave.py, the paired timing of two source trees."""

import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import mist
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
            r" *\w+: total \S+ s, solve p50 \S+ ms, lift p50 \S+ ms, verify p50 \S+ ms", line
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
        parse_graph=mist.parse_graph, run=run, verify_run=mist.verify_run, reduce=mist.reduce
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
        parse_graph=mist.parse_graph, run=run, verify_run=mist.verify_run, reduce=mist.reduce
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
