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
more than a change of a few per cent.  Any difference in the outcomes (the
tree, the upper bound, the verify checks, leaf numbers aside, and opt, or
the error raised) stops the run with exit status 1.  Otherwise it prints, for
each side, the total time and the median and summed solve, reduce, apply,
lift, leaf, exact and verify times (the reduce time is the time run spends
inside reduce_to_fixpoint, the apply time the part of it spent applying
steps, in mist.reduce's apply_strong_reduction and apply_weak_reduction,
the lift time the time it spends inside ReductionTrace.lift_all, the leaf
time the time it spends solving leaves in pipeline._solve_leaf, the exact
time the time run and verify_run spend inside opt_spanning_tree, op4's
searches within reduce included) and the number of trace nodes
(mist.reduce.ReductionTrace.add_node calls, all run's), lowpoint passes
(mist.reduce.separations calls), twin groupings read from all rows
(mist.graph.twin_groups calls), op10 searches (calls of
mist.reduce._FINDERS["op10"]) and whole-cover component searches
(mist.cover.connected_components calls) that run and verify_run make in
one rep, then each rep's change/parent ratio of total time and the number
of reps the change won, so one run shows whether it won nine reps in ten.
A sum shows a saving that only some operations make, which their median
can hide, and the counts show a saved trace node, pass, grouping or
search exactly, beside the times.

The trace itself is not compared: two sides that take different steps,
or store a step differently, agree when their outcomes do, and each
side's trace nodes are printed beside its times.  A check's name holds
the number of its leaf's trace node, which a different trace renumbers,
so that number is left out.

--setup times imports instead of operations.  Each rep re-imports each
tree's package from fresh module objects, as perfbench/run.py's set-up
does, the order of the sides flipped on every rep, after one untimed
import of each.  It prints each side's median import time, then each rep's
change/parent ratio and the number of reps the change won.  A tree with
__pycache__ directories is imported from its bytecode; to time compiling
too, run python3 -B on trees that have none.  The two trees must be in the
same state: when one has mist bytecode for the running interpreter and the
other has none, --setup stops with an error that names both.
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus as corpus_mod  # noqa: E402

SIDES = ("parent", "change")
LAYERS = ("solve", "reduce", "apply", "lift", "leaf", "exact", "verify")  # the times run_op reports, in its order
# the calls run_op counts, in its order: (module, class or dict in a
# module, function or key, what one call is)
COUNTED = (
    ("reduce.ReductionTrace", "add_node", "trace nodes"),
    ("reduce", "separations", "lowpoint passes"),
    ("graph", "twin_groups", "twin groupings"),
    ("reduce._FINDERS", "op10", "op10 searches"),
    ("cover", "connected_components", "cover component searches"),
)


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


def has_bytecode(src: str) -> bool:
    """Whether the mist package under src has bytecode for the running interpreter."""
    sources = (Path(src) / "mist").glob("*.py")
    return any(Path(importlib.util.cache_from_source(str(p))).is_file() for p in sources)


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


def timed(owner, name: str, spent: list):
    """Wrap owner.name so each call adds its ns to spent[0]; return the original."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        t = time.perf_counter_ns()
        try:
            return real(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter_ns() - t

    setattr(owner, name, wrapper)
    return real


def put(owner, name: str, value) -> None:
    """Set owner.name, or owner[name] when owner is a dict, to value."""
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def counted(owner, name: str, calls: list):
    """Wrap owner.name, or owner[name] when owner is a dict, so each call
    adds 1 to calls[0]; return the original."""
    real = owner[name] if isinstance(owner, dict) else getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    put(owner, name, wrapper)
    return real


def run_op(mist, text: str, mode: str) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """The operation's outcome as text; its solve, reduce, apply, lift,
    leaf, exact, verify and total times in ns; and its calls of each COUNTED
    function.

    The total runs from parsing to the end of verify_run or the error.  The
    reduce time is read by wrapping the reduce_to_fixpoint that
    mist.pipeline calls, the apply time by wrapping the
    apply_strong_reduction and apply_weak_reduction that reduce_to_fixpoint
    calls, the lift time by wrapping ReductionTrace.lift_all, the leaf time
    by wrapping mist.pipeline's _solve_leaf, and the exact time by wrapping
    the opt_spanning_tree that mist.reduce and mist.pipeline call, for the
    operation.  The calls are counted by wrapping the function in the module
    that calls it, or the method on its class, for run and verify_run.
    """
    trace_cls, pipeline = mist.reduce.ReductionTrace, mist.pipeline
    owners = []
    for path, _, _ in COUNTED:
        owner = mist
        for attr in path.split("."):
            owner = getattr(owner, attr)
        owners.append(owner)
    reduce, apply, lift, leaf, exact = [0], [0], [0], [0], [0]
    calls = [[0] for _ in COUNTED]
    reduce_to_fixpoint = timed(pipeline, "reduce_to_fixpoint", reduce)
    applies = [timed(mist.reduce, f"apply_{kind}_reduction", apply) for kind in ("strong", "weak")]
    lift_all = timed(trace_cls, "lift_all", lift)
    solve_leaf = timed(pipeline, "_solve_leaf", leaf)
    searches = [timed(owner, "opt_spanning_tree", exact) for owner in (mist.reduce, pipeline)]
    reals = [counted(o, name, n) for o, (_, name, _), n in zip(owners, COUNTED, calls)]
    start = t0 = t1 = time.perf_counter_ns()
    try:
        g = mist.parse_graph(text)
        t0 = time.perf_counter_ns()
        report = mist.run(g, mode, keep_state=True)
        t1 = time.perf_counter_ns()
        vr = mist.verify_run(g, report)
    except Exception as exc:  # compared across the sides like any outcome
        t = time.perf_counter_ns()
        failed = f"! {type(exc).__name__}: {exc}"
        spent = (t - t0, reduce[0], apply[0], lift[0], leaf[0], exact[0], 0, t - start)
        return failed, spent, tuple(n[0] for n in calls)
    finally:
        trace_cls.lift_all = lift_all
        pipeline.reduce_to_fixpoint = reduce_to_fixpoint
        mist.reduce.apply_strong_reduction, mist.reduce.apply_weak_reduction = applies
        pipeline._solve_leaf = solve_leaf
        mist.reduce.opt_spanning_tree, pipeline.opt_spanning_tree = searches
        for o, (_, name, _), real in zip(owners, COUNTED, reals):
            put(o, name, real)
    t2 = time.perf_counter_ns()
    checks = [(re.sub(r"^leaf\d+-", "leaf-", c.name), c.ok, c.detail) for c in vr.checks]
    out = repr((report.tree, report.upper_bound, checks, vr.opt))
    spent = (t1 - t0, reduce[0], apply[0], lift[0], leaf[0], exact[0], t2 - t1, t2 - start)
    return out, spent, tuple(n[0] for n in calls)


def interleave(mists, corp, reps: int) -> tuple[dict, str | None]:
    """Per-side times and counts, and a description of the first outcome difference.

    A side's reps list holds the total time of each rep, the last one cut
    short at a difference, and its calls list the calls of each COUNTED
    function over all reps.
    """
    times = {
        side: {"reps": [], "calls": [0] * len(COUNTED), **{layer: [] for layer in LAYERS}}
        for side in SIDES
    }
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
                outs[side], (*spent, total), calls = run_op(mists[side], text, op.mode)
                times[side]["reps"][-1] += total
                for layer, ns in zip(LAYERS, spent):
                    times[side][layer].append(ns)
                for i, n in enumerate(calls):
                    times[side]["calls"][i] += n
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
    if args.setup:
        compiled = {side: has_bytecode(srcs[side]) for side in SIDES}
        if compiled["parent"] != compiled["change"]:
            have, lack = SIDES if compiled["parent"] else SIDES[::-1]
            raise SystemExit(
                f"error: the {have} tree {srcs[have]} has mist bytecode for this interpreter "
                f"and the {lack} tree {srcs[lack]} has none; compile both or neither"
            )
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
        print(f"outcomes differ: {diff}")
        return 1
    print(f"{title}: {len(corp.ops)} ops x {args.reps}")
    totals = {side: sum(times[side]["reps"]) for side in SIDES}
    for side in SIDES:
        spent = (
            f"{layer} p50 {statistics.median(times[side][layer]) / 1e6:.4f} ms "
            f"sum {sum(times[side][layer]) / 1e6:.1f} ms"
            for layer in LAYERS
        )
        counts = (
            f"{n / args.reps:.0f} {what}" for n, (_, _, what) in zip(times[side]["calls"], COUNTED)
        )
        print(f"{side:>6}: total {totals[side] / 1e9:.3f} s, {', '.join(spent)}, {', '.join(counts)} per rep")
    print(f"change/parent total: {totals['change'] / totals['parent']:.4f}")
    print_reps(times["parent"]["reps"], times["change"]["reps"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
