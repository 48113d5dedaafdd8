"""Seeded benchmark corpora, generated without the program's own generators.

The benchmark builds its instances here so that a change to `mist.generate`
cannot change what is measured.  Every workload is a list of instances, each
solved in both modes; an operation is one (instance, mode) pair.

Sampling is stratified so that two seeds give corpora of the same shape:

* `gate` draws, for every n, a pool of POOL_FACTOR times the graphs it
  keeps, sorts the pool by edge count and keeps every POOL_FACTOR-th graph.
  The exact oracle's cost grows exponentially with the edge count, so an
  unlucky seed with a few extra dense graphs would otherwise swing a run.
* `chains` draws one n per family from each of evenly spaced n bands.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

MODES = ("simple", "refined")

GNP_P = 0.3
POOL_FACTOR = 4


@dataclass(frozen=True)
class Instance:
    family: str
    n: int
    edges: tuple[tuple[int, int], ...]  # 0-based, u < v, sorted
    text: str  # the instance as the program reads it

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Op:
    instance: int  # index into Corpus.instances
    mode: str


@dataclass(frozen=True)
class Corpus:
    instances: tuple[Instance, ...]
    ops: tuple[Op, ...]  # run order; a seeded shuffle of every (instance, mode)

    def digest(self) -> str:
        """Hash of every operation's family, size, mode and instance text."""
        h = hashlib.sha256()
        for op in self.ops:
            inst = self.instances[op.instance]
            h.update(f"{inst.family} {inst.n} {inst.m} {op.mode}\n".encode())
            h.update(inst.text.encode())
        return h.hexdigest()

    def memory_ops(self, points: int) -> list[int]:
        """Operations whose memory is measured, as indices into ops.

        For each (family, mode), `points` evenly spaced ranks of the
        (n, m) order, the largest instance included, so every seed measures
        instances of the same sizes.
        """
        groups: dict[tuple[str, str], list] = {}
        for k, op in enumerate(self.ops):
            inst = self.instances[op.instance]
            groups.setdefault((inst.family, op.mode), []).append((inst.n, inst.m, op.instance, k))
        chosen = []
        for key in sorted(groups):
            ranked = sorted(groups[key])
            p = min(points, len(ranked))
            chosen += [ranked[round((j + 1) * len(ranked) / p) - 1][-1] for j in range(p)]
        return chosen


@dataclass(frozen=True)
class GnpSpec:
    """Connected G(n, 0.3) for n in [n_lo, n_hi], edge counts stratified."""

    n_lo: int
    n_hi: int
    per_n: int
    mem_points: int  # operations per mode whose memory is measured


@dataclass(frozen=True)
class BandSpec:
    """Deterministic families with n drawn from evenly spaced bands."""

    families: tuple[str, ...]
    n_lo: int
    n_hi: int
    bands: int
    mem_points: int  # operations per (family, mode) whose memory is measured


# On a 2-core Xeon a `gate` pass takes about 22 seconds and a `chains` pass
# about 14, so a 30-second run makes one and two passes.  `gate` needs its
# size: its exact-oracle costs are heavy-tailed, and with a third of the
# graphs the throughput of two seeds differed by 20 %.  Memory is measured
# under tracemalloc, which makes an operation four to five times slower, so
# only on a few operations: about 5 s on `gate` and 8 s on `chains`.
WORKLOADS = {
    # Acceptance-gate graphs: verify_run solves every one exactly.
    "gate": GnpSpec(n_lo=8, n_hi=10, per_n=1100, mem_points=100),
    # Long degree-2 chains: reductions fire many times, leaves stay tiny.
    "chains": BandSpec(families=("cycle", "theta", "path"), n_lo=24, n_hi=48, bands=20, mem_points=1),
}


# -- generators ----------------------------------------------------------------


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def gnp(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected G(n, 0.3), by rejection."""
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < GNP_P
        ]
        if _connected(n, edges):
            return edges


def path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> list[tuple[int, int]]:
    return path(n) + [(0, n - 1)]


def theta(n: int) -> list[tuple[int, int]]:
    """Hubs 0 and 1 joined by three internally disjoint paths."""
    inner = n - 2
    edges = []
    nxt = 2
    for i in range(3):
        prev = 0
        for _ in range(inner // 3 + (1 if i < inner % 3 else 0)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return edges


def emit(family: str, n: int, edges) -> Instance:
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    lines = [f"c perfbench {family} n={n}", f"p mist {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return Instance(family, n, edges, "\n".join(lines) + "\n")


# -- corpora -------------------------------------------------------------------


def _gnp_instances(spec: GnpSpec, rng: random.Random) -> list[Instance]:
    out = []
    for n in range(spec.n_lo, spec.n_hi + 1):
        pool = [gnp(n, rng) for _ in range(POOL_FACTOR * spec.per_n)]
        pool.sort(key=len)  # stable: equal edge counts keep their random order
        start = rng.randrange(POOL_FACTOR)
        out.extend(emit("gnp", n, edges) for edges in pool[start::POOL_FACTOR])
    return out


def _band_instances(spec: BandSpec, rng: random.Random) -> list[Instance]:
    out = []
    make = {"cycle": cycle, "theta": theta, "path": path}
    width = (spec.n_hi - spec.n_lo + 1) / spec.bands
    for family in spec.families:
        for i in range(spec.bands):
            n = spec.n_lo + int((i + rng.random()) * width)
            out.append(emit(family, n, make[family](n)))
    return out


def build(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    """The corpus of one workload; the same seed always gives the same corpus.

    scale shrinks the corpus, for quick self-tests.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if isinstance(spec, GnpSpec):
        spec = replace(spec, per_n=max(1, round(spec.per_n * scale)))
        instances = _gnp_instances(spec, rng)
    else:
        spec = replace(spec, bands=max(1, round(spec.bands * scale)))
        instances = _band_instances(spec, rng)
    ops = [Op(i, mode) for i in range(len(instances)) for mode in MODES]
    rng.shuffle(ops)
    return Corpus(tuple(instances), tuple(ops))
