"""Time two source trees of mist against each other, one operation at a time.

    python3 tools/interleave.py PARENT_SRC CHANGE_SRC --workload gate --seed 1 --scale 0.25 --reps 3
    python3 tools/interleave.py PARENT_SRC CHANGE_SRC --sparse 2000 --reps 8
    python3 tools/interleave.py PARENT_SRC CHANGE_SRC --setup --reps 20

PARENT_SRC and CHANGE_SRC are src/ directories that each hold a mist
package.  Each is imported under its own package name, so both run in one
process.  The operations are those of perfbench/corpus.build, or with
--sparse N the graph gen_sparse(N, N // 2, 1) of the parent tree's
generator, emitted as text and solved in both modes.  Each (parse_graph,
run with keep_state=True, verify_run) runs alternately on the two, the
order flipped on every operation, so a drift in host speed falls on both
sides alike; separate benchmark runs on a shared host can differ by 10 %,
more than a change of a few per cent.  Any difference in the outputs (the
tree, the upper bound, the trace steps, the verify checks and opt, or the
error raised) stops the run with exit status 1.  Otherwise it prints, for
each side, the total time and the median solve, lift and verify times
(the lift time is the time run spends inside ReductionTrace.lift_all),
then each rep's change/parent ratio of total time and the number of reps
the change won, so one run shows whether it won nine reps in ten.

A trace step is compared by what it does, not by how its record is
written: for every node, its parent and children, the step's kind and
constant c, and the node's graph (alive vertices and edges) as that side's
own apply_strong_reduction and apply_weak_reduction replay it from the
root.  So two sides may store a step differently and still agree.  The
replay runs after the timed part of the operation.

--setup times imports instead of operations.  Each rep re-imports each
tree's package from fresh module objects, as perfbench/run.py's set-up
does, the order of the sides flipped on every rep, after one untimed
import of each.  It prints each side's median import time, then each rep's
change/parent ratio and the number of reps the change won.  A tree with
__pycache__ directories is imported from its bytecode; to time compiling
too, run python3 -B on trees that have none.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus as corpus_mod  # noqa: E402

SIDES = ("parent", "change")


def load(src: str, name: str):
    """The mist package under src, imported as the package name."""
    init = Path(src) / "mist" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no mist package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def drop(name: str) -> None:
    """Remove the package name and its submodules from sys.modules."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def time_imports(srcs: dict, names: dict, reps: int) -> dict:
    """Per side, the ns each rep's import of its package takes.

    Every import starts from fresh module objects: the side's modules are
    dropped from sys.modules first.
    """
    times = {side: [] for side in SIDES}
    for rep in range(reps):
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            drop(names[side])
            t = time.perf_counter_ns()
            load(srcs[side], names[side])
            times[side].append(time.perf_counter_ns() - t)
    return times


def print_reps(parent: list, change: list) -> None:
    """Each rep's change/parent ratio, and the reps the change won."""
    ratios = [c / p for p, c in zip(parent, change)]
    print(
        f"change/parent per rep: {' '.join(f'{r:.4f}' for r in ratios)} "
        f"(change won {sum(r < 1 for r in ratios)} of {len(ratios)})"
    )


def replay_steps(reduce, trace) -> list[tuple]:
    """What each trace node's step does, replayed with the reduce module given.

    Per node: parent, children, the step's kind and c (0 for a strong step,
    None at a leaf), and the node's alive vertices and edges.
    """
    graphs = {0: trace.nodes[0].graph}
    steps = []
    for node in trace.nodes:
        g, r = graphs.pop(node.index), node.applied
        kind = None if r is None else r.kind
        c = None if r is None else getattr(r, "c", 0)
        steps.append((node.parent, node.children, kind, c, g.alive_list(), g.edge_list()))
        if isinstance(r, reduce.StrongReduction):
            graphs[node.children[0]] = reduce.apply_strong_reduction(g, r)
        elif r is not None:
            graphs.update(zip(node.children, reduce.apply_weak_reduction(g, r)))
    return steps


def run_op(mist, text: str, mode: str) -> tuple[str, int, int, int, int]:
    """The operation's outputs as text, and its solve, lift, verify and total times in ns.

    The total runs from parsing to the end of verify_run or the error.  The
    lift time is read by wrapping ReductionTrace.lift_all for the operation.
    """
    trace_cls = mist.reduce.ReductionTrace
    lift_all, lift = trace_cls.lift_all, [0]

    def timed_lift(trace, leaf_trees):
        t = time.perf_counter_ns()
        try:
            return lift_all(trace, leaf_trees)
        finally:
            lift[0] += time.perf_counter_ns() - t

    trace_cls.lift_all = timed_lift
    start = t0 = t1 = time.perf_counter_ns()
    try:
        g = mist.parse_graph(text)
        t0 = time.perf_counter_ns()
        report = mist.run(g, mode, keep_state=True)
        t1 = time.perf_counter_ns()
        vr = mist.verify_run(g, report)
    except Exception as exc:  # compared across the sides like any output
        t = time.perf_counter_ns()
        return f"! {type(exc).__name__}: {exc}", t - t0, lift[0], 0, t - start
    finally:
        trace_cls.lift_all = lift_all
    t2 = time.perf_counter_ns()
    try:
        steps = replay_steps(mist.reduce, report.trace)
    except Exception as exc:  # a step its own side cannot replay
        steps = f"! replay {type(exc).__name__}: {exc}"
    out = repr((report.tree, report.upper_bound, steps, vr.checks, vr.opt))
    return out, t1 - t0, lift[0], t2 - t1, t2 - start


def interleave(mists, corp, reps: int) -> tuple[dict, str | None]:
    """Per-side times, and a description of the first output difference.

    A side's reps list holds the total time of each rep, the last one cut
    short at a difference.
    """
    times = {side: {"reps": [], "solve": [], "lift": [], "verify": []} for side in SIDES}
    flip = 0
    for _ in range(reps):
        for side in SIDES:
            times[side]["reps"].append(0)
        for k, op in enumerate(corp.ops):
            text = corp.instances[op.instance].text
            order = SIDES if flip % 2 == 0 else SIDES[::-1]
            flip += 1
            outs = {}
            for side in order:
                outs[side], solve, lift, verify, total = run_op(mists[side], text, op.mode)
                times[side]["reps"][-1] += total
                times[side]["solve"].append(solve)
                times[side]["lift"].append(lift)
                times[side]["verify"].append(verify)
            if outs["parent"] != outs["change"]:
                return times, f"op {k} ({op.mode}): {outs['parent']!r} != {outs['change']!r}"
    return times, None


def sparse_corpus(mist, n: int):
    """A corpus of gen_sparse(n, n // 2, 1) from the package mist, in both modes."""
    g = importlib.import_module(f"{mist.__name__}.generate").gen_sparse(n, n // 2, 1)
    inst = corpus_mod.Instance("sparse", n, tuple(g.edge_list()), mist.emit_graph(g))
    return corpus_mod.Corpus((inst,), tuple(corpus_mod.Op(0, mode) for mode in corpus_mod.MODES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="src/ directory of the parent tree")
    parser.add_argument("change", help="src/ directory of the changed tree")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(corpus_mod.WORKLOADS))
    what.add_argument("--sparse", type=int, metavar="N", help="time gen_sparse(N, N // 2, 1)")
    what.add_argument("--setup", action="store_true", help="time importing each package")
    parser.add_argument("--seed", type=int, help="the workload's seed")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=1)
    args = parser.parse_args(argv)
    if args.workload and args.seed is None:
        parser.error("--workload needs --seed")
    names = {side: f"mist_{side}" for side in SIDES}
    srcs = dict(zip(SIDES, (args.parent, args.change)))
    try:
        mists = {side: load(srcs[side], names[side]) for side in SIDES}
        if args.setup:
            imports = time_imports(srcs, names, args.reps)
        else:
            if args.sparse is None:
                corp = corpus_mod.build(args.workload, args.seed, args.scale)
                title = f"{args.workload} seed {args.seed} scale {args.scale}"
            else:
                corp = sparse_corpus(mists["parent"], args.sparse)
                title = f"sparse {args.sparse}"
            times, diff = interleave(mists, corp, args.reps)
    finally:
        for name in names.values():
            drop(name)
    if args.setup:
        print(f"setup: {args.reps} imports per side")
        for side in SIDES:
            print(f"{side:>6}: import p50 {statistics.median(imports[side]) / 1e6:.3f} ms")
        print_reps(imports["parent"], imports["change"])
        return 0
    if diff is not None:
        print(f"outputs differ: {diff}")
        return 1
    print(f"{title}: {len(corp.ops)} ops x {args.reps}")
    totals = {side: sum(times[side]["reps"]) for side in SIDES}
    for side in SIDES:
        t = times[side]
        print(
            f"{side:>6}: total {totals[side] / 1e9:.3f} s, "
            f"solve p50 {statistics.median(t['solve']) / 1e6:.4f} ms, "
            f"lift p50 {statistics.median(t['lift']) / 1e6:.4f} ms, "
            f"verify p50 {statistics.median(t['verify']) / 1e6:.4f} ms"
        )
    print(f"change/parent total: {totals['change'] / totals['parent']:.4f}")
    print_reps(times["parent"]["reps"], times["change"]["reps"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
