"""Reading and writing edge-list files.

One header line "p mist <n> <m>", then m lines "e <u> <v>" with 1-based
vertex ids.  Lines starting with "c" and blank lines are ignored.  The
file is ASCII; any other character, in a comment too, is a parse error.
"""

from __future__ import annotations

from .errors import BadEdgeLine, BadHeader, DuplicateEdge, IdOutOfRange, ParseError, SelfLoop
from .graph import Graph, norm_edge


def parse_graph(data: str | bytes) -> Graph:
    """The graph of a file; the first faulty line, in file order, raises.

    A wrong edge count is reported before a repeated edge.  Each edge is
    appended to the rows of both its ends as it is read, and each row is
    sorted once at the end.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", "replace")
    checked = data.isascii()  # else each line is checked in turn
    n = m = 0
    header_line = None
    rows: list[list[int]] = []
    seen: set[int] = set()  # each edge u < v read so far, as u * span + v
    span = 0
    count = 0
    repeat = None  # the first repeated edge: (line, u, v)
    for line_no, raw in enumerate(data.splitlines(), start=1):
        if not checked and not raw.isascii():
            raise ParseError("non-ASCII character", line_no)
        line = raw.strip()
        if not line or line[0] == "c":
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
            header_line, span = line_no, n + 1
            rows = [[] for _ in range(n)]
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
        count += 1
        seen.add(u * span + v if u < v else v * span + u)
        if len(seen) < count:
            if repeat is None:
                repeat = (line_no, u, v)
        else:
            rows[u - 1].append(v - 1)
            rows[v - 1].append(u - 1)
    if header_line is None:
        raise BadHeader("no 'p mist <n> <m>' line in file", 0)
    if count != m:
        raise BadHeader(f"header says {m} edges, file has {count}", header_line)
    if repeat is not None:
        line_no, u, v = repeat
        raise DuplicateEdge(f"edge {u} {v} appears twice", line_no)
    for row in rows:
        row.sort()
    return Graph.from_rows(rows, count)


def emit_graph(g: Graph) -> str:
    """Canonical file for g; dead vertex ids are compacted away."""
    verts = g.alive_list()
    ids = {v: i + 1 for i, v in enumerate(verts)}
    edges = sorted(norm_edge(ids[u], ids[v]) for u, v in g.edge_list())
    lines = [f"p mist {len(verts)} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
