"""Instance generators.  All randomness flows from the seed argument."""

from __future__ import annotations

import random

from .errors import BadParams
from .graph import Graph

FAMILIES = ("gnp", "cycle", "path", "theta", "twins", "sparse")

_GNP_TRIES = 1000


def gen_path(n: int) -> Graph:
    if n < 1:
        raise BadParams(f"path needs n >= 1, got {n}")
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise BadParams(f"cycle needs n >= 3, got {n}")
    g = gen_path(n)
    g.add_edge(n - 1, 0)
    return g


def gen_theta(n: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths."""
    if n < 5:
        raise BadParams(f"theta needs n >= 5, got {n}")
    g = Graph(n)
    inner = n - 2
    sizes = [inner // 3 + (1 if i < inner % 3 else 0) for i in range(3)]
    nxt = 2
    for size in sizes:
        prev = 0
        for _ in range(size):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, 1)
    return g


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p); resamples until connected, same-seed deterministic."""
    if n < 1:
        raise BadParams(f"gnp needs n >= 1, got {n}")
    if not 0.0 < p <= 1.0:
        raise BadParams(f"gnp needs 0 < p <= 1, got {p}")
    rng = random.Random(seed)
    for _ in range(_GNP_TRIES):
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        if g.is_connected():
            return g
    raise BadParams(f"no connected draw in {_GNP_TRIES} tries for n={n} p={p}")


def gen_twins(n: int, seed: int) -> Graph:
    """Random connected core plus degree-2 twins sharing two core vertices.

    Usually a twin pair, occasionally a triple, so the output exercises
    both pair handling and the triple-twin reduction.
    """
    if n < 6:
        raise BadParams(f"twins needs n >= 6, got {n}")
    rng = random.Random(seed)
    k = 3 if n >= 7 and rng.random() < 0.25 else 2
    core = n - k
    g = Graph(n)
    for v in range(1, core):
        g.add_edge(v, rng.randrange(v))
    for u in range(core):
        for v in range(u + 1, core):
            if not g.has_edge(u, v) and rng.random() < 0.3:
                g.add_edge(u, v)
    a, b = rng.sample(range(core), 2)
    for t in range(core, n):
        g.add_edge(t, a)
        g.add_edge(t, b)
    return g


def gen_sparse(n: int, extra: int, seed: int) -> Graph:
    """Random spanning tree plus extra random chords: connected by construction.

    Vertex v > 0 hangs off a uniform earlier vertex, then chords are drawn
    uniformly among the missing edges.
    """
    if n < 1:
        raise BadParams(f"sparse needs n >= 1, got {n}")
    room = n * (n - 1) // 2 - (n - 1)
    if not 0 <= extra <= room:
        raise BadParams(f"sparse needs 0 <= extra <= {room} for n={n}, got {extra}")
    rng = random.Random(seed)
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    while extra:
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
            extra -= 1
    return g


def make(family: str, n: int, p: float = 0.3, seed: int = 0) -> Graph:
    if family == "gnp":
        return gen_gnp(n, p, seed)
    if family == "cycle":
        return gen_cycle(n)
    if family == "path":
        return gen_path(n)
    if family == "theta":
        return gen_theta(n)
    if family == "twins":
        return gen_twins(n, seed)
    if family == "sparse":
        return gen_sparse(n, round(p * n), seed)
    raise BadParams(f"unknown family {family!r}")
