"""Exhaustive small-graph generation, one graph per isomorphism class.

Graphs are grown one vertex at a time: every class on n-1 vertices is
extended by a new vertex with every possible neighborhood, and the
results are deduplicated by their canonical form (the smallest edge
bitmask over all vertex relabelings, computed with numpy for all the
extensions of one class at once).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from mist import Graph

# classes per vertex count, for the self-check below
ALL_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)


@lru_cache(maxsize=None)
def _perms(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.intp)


@lru_cache(maxsize=None)
def _bit_weights(n: int) -> np.ndarray:
    return 1 << np.arange(n * (n - 1) // 2, dtype=np.int64)


def _to_matrix(code: int, n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if code >> k & 1:
            a[i, j] = a[j, i] = True
    return a


def _min_codes(a: np.ndarray) -> np.ndarray:
    """Canonical code of each adjacency matrix in the stack a."""
    n = a.shape[-1]
    p = _perms(n)
    iu = np.triu_indices(n, 1)
    relabeled = a[:, p[:, iu[0]], p[:, iu[1]]]
    # einsum, not @: matmul has no fast path for bool times int64
    return np.einsum("gpk,k->gp", relabeled, _bit_weights(n)).min(axis=1)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[int, ...]:
    """Canonical codes of every graph on n vertices, one per class."""
    if n == 1:
        return (0,)
    nbhds = np.arange(1 << (n - 1))
    rows = (nbhds[:, None] >> np.arange(n - 1) & 1).astype(bool)
    a = np.zeros((len(nbhds), n, n), dtype=bool)
    a[:, n - 1, : n - 1] = rows
    a[:, : n - 1, n - 1] = rows
    seen = set()
    for parent in _classes(n - 1):
        a[:, : n - 1, : n - 1] = _to_matrix(parent, n - 1)
        seen.update(_min_codes(a).tolist())
    return tuple(sorted(seen))


def _decode(code: int, n: int) -> Graph:
    g = Graph(n)
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if code >> k & 1:
            g.add_edge(i, j)
    return g


def connected_graphs_up_to_iso(max_n: int) -> list[Graph]:
    """One representative per isomorphism class, connected graphs only."""
    out = []
    for n in range(1, max_n + 1):
        for code in _classes(n):
            g = _decode(code, n)
            if g.is_connected():
                out.append(g)
    return out
