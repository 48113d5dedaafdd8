"""End-to-end solvers.

A run reduces the input to a trace of irreducible leaves, solves each
leaf (exactly when small enough, through a path-cycle cover otherwise),
and lifts the leaf trees back through the trace.  verify_run replays a
retained run against the structural predicates and, when the pieces are
small enough, against the exact optimum, certified by the run's own tree
where it meets the leaf bound or the cut-vertex bound and searched for
otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

from .cover import Cover, compute_pi_pairs, preferred_tfpcc
from .errors import BadParams, InternalInvariant
from .exact import (
    OST_CAP, TreeResult, cut_bound, internal_bound, opt_spanning_tree, spanning_fault
)
from .graph import Graph
from .preprocess import (
    check_dead_four_paths_pendant_ends,
    check_four_cycles_three_ports,
    check_pairs_off_cycles,
    check_port_neighbor_growth,
    check_short_paths_alive,
    cycle_port_properties,
    preprocess,
)
from .reduce import RULESETS, ReductionTrace, reduce_to_fixpoint
from .transform import (
    TransformState,
    build_tree_simple,
    check_stage2_structure,
    run_transform,
)


BASE_ORDER = 8  # leaves up to this order are solved exactly


class LeafSolve:
    __slots__ = (
        "node", "graph", "method", "tree", "cover_edges", "pairs", "base_cover", "pre_cover", "state"
    )

    def __init__(
        self,
        node: int,
        graph: Graph,
        method: str,  # "exact" | "cover"
        tree: TreeResult,
        cover_edges: int,
        pairs: tuple = (),
        base_cover: Cover | None = None,
        pre_cover: Cover | None = None,
        state: TransformState | None = None,
    ):
        self.node = node
        self.graph = graph
        self.method = method
        self.tree = tree
        self.cover_edges = cover_edges
        self.pairs = pairs
        self.base_cover = base_cover
        self.pre_cover = pre_cover
        self.state = state

    @property
    def bound(self) -> int:
        """Upper bound on the best spanning-tree weight of this leaf."""
        return self.cover_edges if self.method == "cover" else self.tree.weight


class RunReport:
    __slots__ = ("mode", "graph", "tree", "trace", "leaves", "upper_bound", "retained")

    def __init__(
        self,
        mode: str,
        graph: Graph,  # the trace's root graph, the run's one copy of the input
        tree: TreeResult,
        trace: ReductionTrace,
        leaves: list[LeafSolve],
        upper_bound: int,
        retained: bool,
    ):
        self.mode = mode
        self.graph = graph
        self.tree = tree
        self.trace = trace
        self.leaves = leaves
        self.upper_bound = upper_bound
        self.retained = retained


def _solve_leaf(h: Graph, idx: int, mode: str, keep: bool) -> LeafSolve:
    if h.n_alive() <= BASE_ORDER:
        t = opt_spanning_tree(h)
        return LeafSolve(idx, h, "exact", t, 0)
    pairs = tuple(compute_pi_pairs(h)) if mode == "refined" else ()
    cover0 = preferred_tfpcc(h, pairs)
    e0 = cover0.edge_count()
    pre = preprocess(cover0, h, mode)
    if mode == "refined":
        state = run_transform(pre, h)
        tree = state.tree
    else:
        state = None
        tree = build_tree_simple(pre, h)
        if 4 * tree.weight < 3 * e0:
            raise InternalInvariant(
                f"weight {tree.weight} below three quarters of {e0} cover edges"
            )
    leaf = LeafSolve(idx, h, "cover", tree, e0, pairs)
    if keep:
        leaf.base_cover = cover0
        leaf.pre_cover = pre
        leaf.state = state
    return leaf


def run(g: Graph, mode: str, keep_state: bool = False) -> RunReport:
    if mode not in RULESETS:
        raise BadParams(f"unknown mode {mode!r}")
    if g.n_alive() == 0:
        raise BadParams("empty graph")
    trace = reduce_to_fixpoint(g, mode)  # rejects a disconnected input
    leaves = []
    leaf_trees = {}
    for idx in trace.leaves():
        leaf = _solve_leaf(trace.nodes[idx].graph, idx, mode, keep_state)
        leaves.append(leaf)
        leaf_trees[idx] = leaf.tree
    tree = trace.lift_all(leaf_trees)
    upper = sum(leaf.bound for leaf in leaves) + trace.weak_constant_total()
    if tree.weight > upper:
        raise InternalInvariant(f"weight {tree.weight} above upper bound {upper}")
    return RunReport(mode, trace.nodes[0].graph, tree, trace, leaves, upper, keep_state)


def solve_simple(g: Graph) -> TreeResult:
    """Spanning tree with at least three quarters of the best weight."""
    return run(g, "simple").tree


def solve_refined(g: Graph) -> TreeResult:
    """Spanning tree with at least 13/17 of the best weight."""
    return run(g, "refined").tree


# -- verification ------------------------------------------------------------


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    checks: tuple[Check, ...]
    opt: int | None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failing(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]


_RATIOS = {"simple": (3, 4), "refined": (13, 17)}


def verify_run(g: Graph, report: RunReport) -> VerificationReport:
    """Re-check every guarantee a run makes, from its retained state."""
    if not report.retained:
        raise BadParams("verification needs a run with keep_state=True")
    checks: list[Check] = []

    def add(name: str, violations) -> None:
        if isinstance(violations, list):
            ok, detail = not violations, "; ".join(violations[:4])
        else:
            ok, detail = violations, ""
        checks.append(Check(name, ok, detail))

    tree = report.tree
    spans = spanning_fault(g, tree.edges) is None
    add("tree-spans-input", spans)
    add("weight-below-upper-bound", tree.weight <= report.upper_bound)
    # certified once up front: most cover leaves are the input graph itself
    opt = _certified_opt(g, tree if spans else None) if g.n_alive() <= OST_CAP else None

    for leaf in report.leaves:
        if leaf.method != "cover":
            continue
        tag = f"leaf{leaf.node}"
        h, pre = leaf.graph, leaf.pre_cover
        add(f"{tag}-short-paths-alive", check_short_paths_alive(pre, h))
        add(f"{tag}-port-neighbor-growth", check_port_neighbor_growth(pre, h))
        if report.mode == "refined":
            add(f"{tag}-pairs-off-cycles", check_pairs_off_cycles(pre, leaf.pairs))
            add(f"{tag}-dead-4-path-ends", check_dead_four_paths_pendant_ends(pre, h))
            add(f"{tag}-4-cycle-ports", check_four_cycles_three_ports(pre, h))
            cyc = []
            for comp in pre.components():
                if comp.kind == "cycle":
                    cyc.extend(cycle_port_properties(h, comp))
            add(f"{tag}-cycle-ports", cyc)
            st = leaf.state
            if st.stats is None:
                add(
                    f"{tag}-spanning-path",
                    leaf.tree.weight == h.n_alive() - 2,
                )
            else:
                add(
                    f"{tag}-stage2-structure",
                    check_stage2_structure(st.cover2, h, st.base_edges),
                )
                add(
                    f"{tag}-stage2-floor",
                    leaf.tree.weight >= st.stats.tree_floor,
                )
        else:
            add(f"{tag}-cover-ratio", 4 * leaf.tree.weight >= 3 * leaf.cover_edges)
        if h.n_alive() <= OST_CAP:
            if h == g:
                opt_leaf = opt
            else:
                t = None if spanning_fault(h, leaf.tree.edges) else leaf.tree
                opt_leaf = _certified_opt(h, t)
            add(f"{tag}-cover-bounds-opt", leaf.cover_edges >= opt_leaf)
            num, den = _RATIOS[report.mode]
            add(f"{tag}-ratio", den * leaf.tree.weight >= num * opt_leaf)
            if report.mode == "refined" and leaf.state.stats is not None:
                st = leaf.state
                add(f"{tag}-opt-cap-edges", opt_leaf <= st.stats.opt_cap_edges)
                add(
                    f"{tag}-opt-cap-internal",
                    opt_leaf <= st.stats.opt_cap_internal,
                )

    if opt is not None:
        add("opt-below-upper-bound", opt <= report.upper_bound)
        add("weight-at-most-opt", tree.weight <= opt)
        num, den = _RATIOS[report.mode]
        add("ratio", den * tree.weight >= num * opt)
    return VerificationReport(tuple(checks), opt)


def _certified_opt(h: Graph, t: TreeResult | None) -> int:
    """Best spanning-tree weight of h, given a spanning tree t of h (None
    when there is none to go by).

    t's internal vertices, counted from its edges, never from t.weight, are
    a lower bound w on the optimum, and internal_bound(h) and cut_bound(h)
    are upper bounds; when w meets either, w is the optimum and no search
    runs.  Otherwise the search looks only for a tree heavier than w, and
    finding none proves the optimum is w.
    """
    if t is None:
        return opt_spanning_tree(h).weight
    deg = [0] * h.vertex_count
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    w = len(deg) - deg.count(0) - deg.count(1)  # tree degree >= 2
    if w == internal_bound(h) or w == cut_bound(h):
        return w
    heavier = opt_spanning_tree(h, floor=w + 1)
    return w if heavier is None else heavier.weight

