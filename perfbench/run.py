"""The mist benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  Each operation is one (instance, mode) pair:
parse_graph -> run(g, mode, keep_state=True) -> verify_run, the path
`mist sweep` takes.  Passes over the seeded corpus repeat while another pass
still fits in --seconds; every output is checked after it is timed.

--trace 0 then runs a few operations again under tracemalloc, for their
peak memory, and prints the end-to-end metrics.  --trace 1 runs the same untraced
passes, then one more pass with spans around every layer, and prints the
per-layer metrics; its tree digest must equal the untraced one.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import check
import corpus as corpus_mod
from spans import Tracer
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
HARD_STOP_S = 150.0  # stop mid-pass here, so a slow build still exits in time
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
SPEED_EVERY_NS = 50_000_000  # operation time between two host-speed samples
SPEED_WINDOW = 10  # samples on each side that set an operation's speed factor
REDUCE_OPS = ("op1", "op2", "op3", "op4", "op8", "op9", "op10", "op11")


class BenchError(Exception):
    """The benchmark cannot run here (no program to import)."""


# -- set-up ----------------------------------------------------------------------


def _mist_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "mist" or k.startswith("mist.")}


def _import_mist():
    src = ROOT / "src"
    if not (src / "mist" / "__init__.py").is_file():
        raise BenchError(f"no mist package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mist = importlib.import_module("mist")
    if Path(mist.__file__).resolve().parent != (src / "mist").resolve():
        raise BenchError(f"imported mist from {mist.__file__}, not from {src}")
    return mist


def setup(workload: str, seed: int, scale: float = 1.0):
    """Import the program and build the corpus, SETUP_REPEATS times.

    Returns (mist, corpus, median set-up seconds on the reference host).
    Host-speed samples taken around the repeats give one scale factor.
    Each repeat re-imports the package from scratch; modules loaded before
    the call are put back after, so callers that already hold them keep
    consistent classes.
    """
    before = _mist_modules()
    speed = Speedometer()
    times = []
    for _ in range(SETUP_REPEATS):
        for key in _mist_modules():
            del sys.modules[key]
        speed.sample()
        t0 = time.perf_counter()
        mist = _import_mist()
        corp = corpus_mod.build(workload, seed, scale)
        times.append(time.perf_counter() - t0)
    speed.sample()
    if before:
        for key in _mist_modules():
            del sys.modules[key]
        sys.modules.update(before)
        mist = before["mist"]
    return mist, corp, statistics.median(times) * speed.scale()


# -- one pass ----------------------------------------------------------------------


@dataclass
class Outcome:
    wall_ns: int
    solve_ns: int = 0
    verify_ns: int = 0
    error: str | None = None  # exception class, when the operation raised
    problems: list[str] = field(default_factory=list)
    digest_line: str = ""
    internal: int = 0
    layer_counts: dict | None = None  # filled in the traced pass only
    scale: float = 1.0  # host-speed factor around this operation, see speed.py


@dataclass
class Pass:
    outcomes: list[Outcome]
    complete: bool
    scale: float  # host-speed factor over the whole pass, for the per-layer times

    @property
    def wall_ns(self) -> float:
        """Operation wall time, scaled to the reference host."""
        return self.prefix_ns(len(self.outcomes))

    def prefix_ns(self, n: int) -> float:
        """Wall time of the first n operations, scaled to the reference host."""
        return sum(o.wall_ns * o.scale for o in self.outcomes[:n])

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(o.digest_line.encode() + b"\n")
        return h.hexdigest()


def same_trees(a: Pass, b: Pass) -> bool:
    """Whether two passes gave the same outputs on the operations both ran."""
    return all(x.digest_line == y.digest_line for x, y in zip(a.outcomes, b.outcomes))


def _layer_counts(report, vrep) -> dict:
    counts = dict.fromkeys(REDUCE_OPS, 0)
    for node in report.trace.nodes:
        if node.applied is not None:
            counts[node.applied.kind] = counts.get(node.applied.kind, 0) + 1
    return {
        "steps": counts,
        "trace_nodes": len(report.trace.nodes),
        "leaf_n_max": max(leaf.graph.n_alive() for leaf in report.leaves),
        "leaves": len(report.leaves),
        "cover_edges": sum(leaf.cover_edges for leaf in report.leaves if leaf.method == "cover"),
        "pairs": sum(len(leaf.pairs) for leaf in report.leaves),
        "checks": len(vrep.checks),
    }


def run_op(mist, corp, k: int, keep_counts: bool = False) -> Outcome:
    op = corp.ops[k]
    inst = corp.instances[op.instance]
    t0 = time.perf_counter_ns()
    t1 = t2 = t0
    try:
        g = mist.parse_graph(inst.text)
        t1 = time.perf_counter_ns()
        report = mist.run(g, op.mode, keep_state=True)
        t2 = time.perf_counter_ns()
        vrep = mist.verify_run(g, report)
    except Exception as exc:  # every failure is counted, by class
        out = Outcome(time.perf_counter_ns() - t0, error=type(exc).__name__)
        out.digest_line = f"{k} {op.mode} ! {out.error}"
        if not check.expected_failure(inst.family, inst.n, op.mode, out.error):
            out.problems.append(f"{out.error} on {inst.family} n={inst.n} {op.mode}: {exc}")
        return out
    t3 = time.perf_counter_ns()
    out = Outcome(t3 - t0, t2 - t1, t3 - t2)
    tree = report.tree
    out.internal = tree.weight
    out.problems = check.check_tree(inst.n, inst.edges, tree.edges, tree.weight, report.upper_bound)
    if vrep.opt is not None:
        out.problems += check.check_ratio(op.mode, tree.weight, vrep.opt)
    if not vrep.ok:
        out.problems.append("verify_run failed: " + ", ".join(c.name for c in vrep.failing()))
    edges = " ".join(f"{u}-{v}" for u, v in tree.edges)
    out.digest_line = f"{k} {op.mode} {tree.weight} {report.upper_bound} {edges}"
    if keep_counts:
        out.layer_counts = _layer_counts(report, vrep)
    return out


def run_pass(mist, corp, deadline: float, tracer: Tracer | None = None) -> Pass:
    """Every operation once, with host-speed samples taken in between.

    An operation's times are scaled by the samples within SPEED_WINDOW of
    it, not by one factor for the pass: on `chains` that lowered the spread
    of solve_ms_p50 over seeds from 0.13 to 0.07 (perfbench/README.md).
    """
    speed = Speedometer()
    speed.sample()
    since = 0
    outcomes = []
    before = []  # index of the last speed sample taken before each operation
    complete = True
    for k in range(len(corp.ops)):
        if time.perf_counter() > deadline:
            complete = False
            break
        if tracer is not None:
            tracer.current_op = k
        before.append(len(speed.samples) - 1)
        outcomes.append(run_op(mist, corp, k, keep_counts=tracer is not None))
        since += outcomes[-1].wall_ns
        if since >= SPEED_EVERY_NS:
            speed.sample()
            since = 0
    speed.sample()
    for o, i in zip(outcomes, before):
        o.scale = speed.scale(i - SPEED_WINDOW, i + SPEED_WINDOW + 2)
    return Pass(outcomes, complete, speed.scale())


def measure(mist, corp, seconds: float, deadline: float) -> list[Pass]:
    """Whole passes while the next one, as long as the last, still fits."""
    passes = []
    t0 = time.perf_counter()
    while True:
        p = run_pass(mist, corp, deadline)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        if not p.complete or elapsed + elapsed / len(passes) > seconds:
            return passes


def _program(mist, text: str, mode: str) -> None:
    """The program's part of one operation; its objects are freed on return."""
    g = mist.parse_graph(text)
    mist.verify_run(g, mist.run(g, mode, keep_state=True))


def peak_memory(mist, corp, ops: list[int]) -> list[int]:
    """Peak bytes the program allocates during each of the operations `ops`.

    Runs after the timed passes, under tracemalloc, without the output
    checks; the outcomes were already checked in the timed passes.
    """
    peaks = []
    tracemalloc.start()
    try:
        for k in ops:
            op = corp.ops[k]
            gc.collect()  # no earlier garbage, and the collector's counts start at 0
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                _program(mist, corp.instances[op.instance].text, op.mode)
            except Exception:  # counted, by class, in the timed passes
                pass
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks


# -- metrics -----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[-TAIL_BEYOND - 1], 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)


def op_times(passes: list[Pass]) -> tuple[list[int], list[float], list[float]]:
    """Completed operations of the first pass, with their median solve and verify ms."""
    done = [k for k, o in enumerate(passes[0].outcomes) if o.error is None]
    solve_ms, verify_ms = [], []
    for k in done:
        runs = [p for p in passes if k < len(p.outcomes)]
        solve_ms.append(statistics.median(p.outcomes[k].solve_ns * p.outcomes[k].scale for p in runs) / 1e6)
        verify_ms.append(statistics.median(p.outcomes[k].verify_ns * p.outcomes[k].scale for p in runs) / 1e6)
    return done, solve_ms, verify_ms


def tail_note(solve_ms: list[float], verify_ms: list[float]) -> str:
    if not solve_ms:
        return "tails: no completed operations"
    (s, sp), (v, vp) = tail(solve_ms), tail(verify_ms)
    return (
        f"tails: solve_ms p{sp:.2f}={s:.4f} and verify_ms p{vp:.2f}={v:.4f} "
        f"over {len(solve_ms)} samples (per-operation medians over passes)"
    )


def end_to_end(corp, passes: list[Pass], setup_s: float, peaks: list[int]) -> tuple[dict, list[str]]:
    """End-to-end metrics over the untraced passes, and notes for the log."""
    first = passes[0]
    done, solve_ms, verify_ms = op_times(passes)
    whole = [p for p in passes if p.complete] or passes
    rates = [sum(o.error is None for o in p.outcomes) / (p.wall_ns / 1e9) for p in whole]
    internal = sum(first.outcomes[k].internal for k in done)
    span = sum(corp.instances[corp.ops[k].instance].n - 2 for k in done)
    metrics = {
        "instances_per_s": (statistics.median(rates), "1/s"),
        "solve_ms_p50": (statistics.median(solve_ms) if done else 0.0, "ms"),
        "verify_ms_p50": (statistics.median(verify_ms) if done else 0.0, "ms"),
        "completed_frac": (len(done) / len(first.outcomes), "frac"),
        "internal_frac": (internal / span if span else 0.0, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_mem_kib": (statistics.mean(peaks) / 1024, "KiB"),
    }
    notes = [
        f"passes: {len(passes)} ({sum(p.complete for p in passes)} whole), "
        f"{len(first.outcomes)} operations attempted per pass, {len(done)} completed",
        "host speed scale per pass: " + ", ".join(f"{p.scale:.3f}" for p in passes),
        tail_note(solve_ms, verify_ms),
        f"memory: {len(peaks)} operations, peak allocation per operation "
        f"mean {statistics.mean(peaks) / 1024:.1f} KiB, max {max(peaks) / 1024:.1f} KiB",
    ]
    return metrics, notes


def per_layer(tracer: Tracer, traced: Pass, passes: list[Pass], overhead: float) -> dict:
    s = tracer.summary()
    _, solve_ms, verify_ms = op_times(passes)

    def ms(name, col="total_ns"):
        return s.get(name, {}).get(col, 0) * traced.scale / 1e6

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    counts = [o.layer_counts for o in traced.outcomes if o.layer_counts]
    total = lambda key: sum(c[key] for c in counts)  # noqa: E731
    finds = tracer.counts["preprocess.find"]
    rewrites = tracer.counts["preprocess.rewrite"]
    metrics = {
        "exact.ost_verify_ms": (ms("exact.ost.verify"), "ms"),
        "exact.ost_run_ms": (ms("exact.ost.run"), "ms"),
        "exact.ost_calls": (calls("exact.ost.verify") + calls("exact.ost.run"), "count"),
        "exact.tfpcc_ms": (ms("exact.tfpcc"), "ms"),
        "exact.tfpcc_calls": (calls("exact.tfpcc"), "count"),
        "exact.ham_ms": (ms("exact.ham"), "ms"),
        "exact.ham_calls": (calls("exact.ham"), "count"),
        "reduce.self_ms": (ms("reduce.fixpoint", "self_ns"), "ms"),
        "reduce.lift_ms": (ms("reduce.lift"), "ms"),
    }
    for op in REDUCE_OPS:
        metrics[f"reduce.steps.{op}"] = (sum(c["steps"].get(op, 0) for c in counts), "count")
    metrics.update({
        "reduce.leaf_n_max": (max((c["leaf_n_max"] for c in counts), default=0), "vertices"),
        "reduce.trace_nodes": (total("trace_nodes"), "count"),
        "graph.components_calls": (calls("graph.components"), "count"),
        "graph.components_ms": (ms("graph.components"), "ms"),
        "graph.bridges_calls": (calls("graph.bridges"), "count"),
        "graph.bridges_ms": (ms("graph.bridges"), "ms"),
        "graph.cutpoints_calls": (calls("graph.cutpoints"), "count"),
        "graph.cutpoints_ms": (ms("graph.cutpoints"), "ms"),
        "graph.copy_calls": (tracer.counts["graph.copy"], "count"),
        "cover.self_ms": (ms("cover.preferred", "self_ns") + ms("cover.pi_pairs", "self_ns"), "ms"),
        "cover.edges": (total("cover_edges"), "count"),
        "cover.pairs": (total("pairs"), "count"),
        "cover.components_calls": (tracer.counts["cover.components"], "count"),
        "preprocess.self_ms": (ms("preprocess.run", "self_ns"), "ms"),
        "preprocess.finds": (finds, "count"),
        "preprocess.rewrites": (rewrites, "count"),
        "preprocess.hit_rate": (rewrites / finds if finds else 0.0, "ratio"),
        "transform.stage1_ms": (ms("transform.stage1"), "ms"),
        "transform.stage2_ms": (ms("transform.stage2"), "ms"),
        "transform.stage3_ms": (ms("transform.stage3"), "ms"),
        "transform.simple_ms": (ms("transform.simple"), "ms"),
        "transform.self_ms": (ms("transform.refined", "self_ns"), "ms"),
        "pipeline.run_self_ms": (ms("pipeline.run", "self_ns"), "ms"),
        "pipeline.verify_self_ms": (ms("pipeline.verify", "self_ns"), "ms"),
        "pipeline.leaves": (total("leaves"), "count"),
        "pipeline.checks": (total("checks"), "count"),
        "pipeline.solve_ms_tail": (tail(solve_ms)[0] if solve_ms else 0.0, "ms"),
        "pipeline.verify_ms_tail": (tail(verify_ms)[0] if verify_ms else 0.0, "ms"),
        "fileio.parse_ms": (ms("fileio.parse"), "ms"),
        "trace.overhead_frac": (overhead, "frac"),
    })
    return metrics


def isolation(metrics: dict, traced: Pass) -> str:
    """Shares of the traced pass's operation time held by each workload's target layer."""
    wall = traced.wall_ns / 1e6
    v = {k: val for k, (val, _) in metrics.items()}
    graph_ms = v["graph.components_ms"] + v["graph.bridges_ms"] + v["graph.cutpoints_ms"]
    shares = {
        "exact.ost_verify": v["exact.ost_verify_ms"],
        "exact.tfpcc+cover.self": v["exact.tfpcc_ms"] + v["cover.self_ms"],
        "reduce.self+graph": v["reduce.self_ms"] + graph_ms,
    }
    return "layer shares of traced operation time: " + ", ".join(
        f"{k}={ms / wall:.3f}" for k, ms in shares.items()
    )


# -- reporting ---------------------------------------------------------------------


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"machine: python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f'cpu="{cpu}" commit={commit()}'
    )


def commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_spans(tracer: Tracer, out: Path, workload: str, seed: int) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.tsv"
    with open(path, "w") as fh:
        fh.write("op\tspan\tcalls\ttotal_ns\n")
        for row in tracer.per_op():
            fh.write("\t".join(map(str, row)) + "\n")
    return path


def bench(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    spans_dir: Path = ROOT / "perfbench" / "out",
    log=print,
) -> dict:
    """Run one workload and return the result object; log gets the notes.

    scale shrinks the corpus and spans_dir receives the per-operation span
    table of a traced run; the command line keeps both at their defaults.
    """
    started = time.perf_counter()
    deadline = started + HARD_STOP_S
    mist, corp, setup_s = setup(workload, seed, scale)
    log(machine())
    log(f"corpus: workload={workload} seed={seed} instances={len(corp.instances)} "
        f"operations={len(corp.ops)} digest={corp.digest()}")
    passes = measure(mist, corp, seconds, deadline)
    first = passes[0]
    correct = all(same_trees(p, first) for p in passes)
    if not correct:
        log("problem: passes over the same corpus produced different trees")
    if not all(p.complete for p in passes):
        log(f"trees: a pass stopped at {HARD_STOP_S:.0f} s; passes were compared on the operations both ran")
    if trace:
        tracer = Tracer()
        with tracer:
            traced = run_pass(mist, corp, deadline, tracer)
        if not same_trees(traced, first):
            correct = False
            log("problem: the traced pass produced different trees")
        n = min(len(traced.outcomes), len(first.outcomes))
        if n < len(corp.ops):
            log(f"trees: traced and untraced trees compared on the first {n} of {len(corp.ops)} operations")
        base = statistics.median(p.prefix_ns(len(traced.outcomes)) for p in passes)
        metrics = per_layer(tracer, traced, passes, traced.wall_ns / base - 1)
        log(tail_note(*op_times(passes)[1:]))
        log(f"trace: {len(tracer.kind)} spans, absent targets: {', '.join(tracer.absent) or 'none'}, "
            f"written to {write_spans(tracer, spans_dir, workload, seed)}")
        log(isolation(metrics, traced))
        log(f"trees: traced digest={traced.digest()}")
        checked = traced
    else:
        peaks = peak_memory(mist, corp, corp.memory_ops(corpus_mod.WORKLOADS[workload].mem_points))
        metrics, notes = end_to_end(corp, passes, setup_s, peaks)
        for note in notes:
            log(note)
        checked = first
    failures = Counter(o.error for o in checked.outcomes if o.error is not None)
    for o in checked.outcomes:
        for problem in o.problems:
            correct = False
            log(f"problem: {problem}")
    failed = sum(1 for o in checked.outcomes if o.error is not None or o.problems)
    log(f"trees: digest={first.digest()}")
    log("failures by class: " + (", ".join(f"{k}={v}" for k, v in sorted(failures.items())) or "none"))
    log(f"elapsed: {time.perf_counter() - started:.1f} s")
    return {
        "correct": correct,
        "attempted": len(checked.outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus_mod.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
