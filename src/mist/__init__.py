"""Spanning trees with many internal vertices.

Exact solvers for small graphs, safety-preserving reductions, path-cycle
covers, and two cover-based approximation pipelines with verifiable
guarantees (weight at least 3/4, respectively 13/17, of the best possible).
"""

from .cover import Cover, compute_pi_pairs, max_tfpcc, preferred_tfpcc
from .errors import (
    BadParams,
    DisconnectedInput,
    InternalInvariant,
    MistError,
    NonTermination,
    ParseError,
    PreconditionViolated,
    SizeCapExceeded,
)
from .exact import (
    TreeResult,
    hamiltonian_path_between,
    opt_spanning_tree,
    tree_result,
)
from .fileio import emit_graph, parse_graph
from .graph import Graph, norm_edge
from .pipeline import (
    RunReport,
    VerificationReport,
    run,
    solve_refined,
    solve_simple,
    verify_run,
)
from .reduce import reduce_to_fixpoint
from .transform import build_tree_simple, run_transform

__all__ = [
    "BadParams",
    "Cover",
    "DisconnectedInput",
    "Graph",
    "InternalInvariant",
    "MistError",
    "NonTermination",
    "ParseError",
    "PreconditionViolated",
    "RunReport",
    "SizeCapExceeded",
    "TreeResult",
    "VerificationReport",
    "build_tree_simple",
    "compute_pi_pairs",
    "emit_graph",
    "hamiltonian_path_between",
    "max_tfpcc",
    "norm_edge",
    "opt_spanning_tree",
    "parse_graph",
    "preferred_tfpcc",
    "reduce_to_fixpoint",
    "run",
    "run_transform",
    "solve_refined",
    "solve_simple",
    "tree_result",
    "verify_run",
]
