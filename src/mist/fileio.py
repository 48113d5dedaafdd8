"""Reading and writing edge-list files.

One header line "p mist <n> <m>", then m lines "e <u> <v>" with 1-based
vertex ids.  Lines starting with "c" and blank lines are ignored.  The
file is ASCII; any other character, in a comment too, is a parse error.
"""

from __future__ import annotations

from .errors import BadEdgeLine, BadHeader, DuplicateEdge, IdOutOfRange, ParseError, SelfLoop
from .graph import Graph, norm_edge


def parse_graph(data: str | bytes) -> Graph:
    if isinstance(data, bytes):
        data = data.decode("ascii", "replace")
    n = m = 0
    header_line = None
    edges: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(data.splitlines(), start=1):
        if not raw.isascii():
            raise ParseError("non-ASCII character", line_no)
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if header_line is None:
            if len(parts) != 4 or parts[:2] != ["p", "mist"]:
                raise BadHeader(f"expected 'p mist <n> <m>', got {line!r}", line_no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise BadHeader(f"non-integer size in {line!r}", line_no) from None
            if n < 1 or m < 0:
                raise BadHeader(f"sizes {n} {m} out of range", line_no)
            header_line = line_no
            continue
        if len(parts) != 3 or parts[0] != "e":
            raise BadEdgeLine(f"expected 'e <u> <v>', got {line!r}", line_no)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise BadEdgeLine(f"non-integer endpoint in {line!r}", line_no) from None
        if u == v:
            raise SelfLoop(f"self-loop at {u}", line_no)
        if not (1 <= u <= n and 1 <= v <= n):
            raise IdOutOfRange(f"edge {u} {v} outside 1..{n}", line_no)
        edges.append((line_no, u - 1, v - 1))
    if header_line is None:
        raise BadHeader("no 'p mist <n> <m>' line in file", 0)
    if len(edges) != m:
        raise BadHeader(f"header says {m} edges, file has {len(edges)}", header_line)
    g = Graph(n)
    seen = set()
    for line_no, u, v in edges:
        e = norm_edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {u + 1} {v + 1} appears twice", line_no)
        seen.add(e)
        g.add_edge(u, v)
    return g


def emit_graph(g: Graph) -> str:
    """Canonical file for g; dead vertex ids are compacted away."""
    verts = g.alive_list()
    ids = {v: i + 1 for i, v in enumerate(verts)}
    edges = sorted(norm_edge(ids[u], ids[v]) for u, v in g.edge_list())
    lines = [f"p mist {len(verts)} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
