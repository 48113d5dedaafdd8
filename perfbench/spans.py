"""Spans recorded around the program's layers, from outside the program.

A Tracer replaces the public names the pipeline looks up with wrappers.  A
span wrapper records name, start, end, parent span and operation id for
every call; a count wrapper only counts calls.  Spans stay in memory in
flat arrays until the traced pass ends.  Nothing under src/ changes: the
wrappers are installed into the already-imported modules and removed again.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (span name, "module:attribute") — the name is wrapped in every mist module
# that holds the same object, so `from .x import f` copies are covered too.
SPANS = (
    ("fileio.parse", "mist.fileio:parse_graph"),
    ("pipeline.run", "mist.pipeline:run"),
    ("pipeline.verify", "mist.pipeline:verify_run"),
    ("reduce.fixpoint", "mist.reduce:reduce_to_fixpoint"),
    ("reduce.lift", "mist.reduce:ReductionTrace.lift_all"),
    ("graph.components", "mist.graph:connected_components"),
    ("graph.bridges", "mist.graph:find_bridges"),
    ("graph.cutpoints", "mist.graph:find_cutpoints"),
    ("exact.ost", "mist.exact:opt_spanning_tree"),
    ("exact.tfpcc", "mist.exact:max_tfpcc_exact"),
    ("exact.ham", "mist.exact:hamiltonian_path_between"),
    ("cover.preferred", "mist.cover:preferred_tfpcc"),
    ("cover.pi_pairs", "mist.cover:compute_pi_pairs"),
    ("preprocess.run", "mist.preprocess:preprocess"),
    ("transform.refined", "mist.transform:run_transform"),
    ("transform.stage1", "mist.transform:stage1_connect"),
    ("transform.stage2", "mist.transform:stage2_fixpoint"),
    ("transform.stage3", "mist.transform:stage3_finish"),
    ("transform.simple", "mist.transform:build_tree_simple"),
)

COUNTS = (
    ("graph.copy", "mist.graph:Graph.copy"),
    ("cover.components", "mist.cover:Cover.components"),
    ("preprocess.find", "mist.preprocess:find_cover_rewrite"),
    ("preprocess.rewrite", "mist.preprocess:apply_rewrite"),
)


def _resolve(target: str):
    """(owner, attribute, object) for "module:attr" or "module:Class.attr", or None."""
    modname, _, path = target.partition(":")
    owner = sys.modules.get(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self, spans=SPANS, counts=COUNTS):
        self.names: list[str] = []
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []  # targets the program no longer has
        self.current_op = -1
        self._stack: list[int] = []
        self._targets = [(n, t, True) for n, t in spans] + [(n, t, False) for n, t in counts]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        kid = len(self.names)
        self.names.append(name)
        kind, start, end, parent, opcol, stack = (
            self.kind, self.start, self.end, self.parent, self.op, self._stack
        )
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(kid)
            parent.append(stack[-1] if stack else -1)
            opcol.append(tracer.current_op)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target the program lacks is recorded as absent."""
        modules = [
            m for k, m in list(sys.modules.items())
            if (k == "mist" or k.startswith("mist.")) and m is not None
        ]
        for name, target, timed in self._targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            wrapper = self._span(name, original) if timed else self._count(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds.

        Self time is a span's duration minus that of its direct children.
        exact.ost is split by whether a pipeline.verify span encloses it.
        """
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        verify_kid = self.names.index("pipeline.verify") if "pipeline.verify" in self.names else -1
        ost_kid = self.names.index("exact.ost") if "exact.ost" in self.names else -1
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.kind[i]]
            if self.kind[i] == ost_kid:
                name += ".run"
                p = parent[i]
                while p >= 0:
                    if self.kind[p] == verify_kid:
                        name = "exact.ost.verify"
                        break
                    p = parent[p]
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i]
        return out

    def per_op(self) -> list[tuple[int, str, int, int]]:
        """(operation, span name, calls, total ns) rows, for writing out."""
        acc: dict[tuple[int, int], list[int]] = {}
        for i in range(len(self.kind)):
            row = acc.setdefault((self.op[i], self.kind[i]), [0, 0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
        return [(op, self.names[k], c, t) for (op, k), (c, t) in sorted(acc.items())]
