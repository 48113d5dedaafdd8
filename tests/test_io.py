"""Edge-list file parsing and emission."""

import pytest

from mist import parse_graph, emit_graph
from mist.errors import (
    BadEdgeLine,
    BadHeader,
    DuplicateEdge,
    IdOutOfRange,
    ParseError,
    SelfLoop,
)

from helpers import build_graph


def test_parse_a_small_path():
    g = parse_graph("p mist 3 2\ne 1 2\ne 2 3\n")
    assert g.n_alive() == 3
    assert sorted(g.edge_list()) == [(0, 1), (1, 2)]


def test_parse_accepts_bytes_comments_and_blank_lines():
    data = b"c a path on three vertices\n\np mist 3 2\nc interlude\ne 1 2\n\ne 2 3\n"
    g = parse_graph(data)
    assert sorted(g.edge_list()) == [(0, 1), (1, 2)]


def test_parse_single_vertex_file():
    g = parse_graph("p mist 1 0\n")
    assert g.n_alive() == 1
    assert g.edge_list() == []


def test_missing_header_is_rejected():
    with pytest.raises(BadHeader):
        parse_graph("e 1 2\n")
    with pytest.raises(BadHeader):
        parse_graph("")


def test_malformed_headers_are_rejected():
    for text in (
        "p tree 3 2\ne 1 2\ne 2 3\n",
        "p mist 3\n",
        "p mist three 2\n",
        "p mist 0 0\n",
        "p mist 3 -1\n",
    ):
        with pytest.raises(BadHeader):
            parse_graph(text)


def test_edge_count_mismatch_points_at_the_header():
    with pytest.raises(BadHeader) as info:
        parse_graph("p mist 3 2\ne 1 2\n")
    assert info.value.line_no == 1
    assert "header says 2" in str(info.value)


def test_bad_edge_lines_are_rejected_with_their_line_number():
    with pytest.raises(BadEdgeLine) as info:
        parse_graph("p mist 3 2\ne 1 2\nedge 2 3\n")
    assert info.value.line_no == 3
    assert str(info.value).startswith("line 3:")

    with pytest.raises(BadEdgeLine):
        parse_graph("p mist 3 1\ne 1 two\n")


def test_self_loops_are_rejected():
    with pytest.raises(SelfLoop) as info:
        parse_graph("p mist 3 2\ne 1 1\ne 2 3\n")
    assert info.value.line_no == 2


def test_duplicate_edges_are_rejected_in_both_orientations():
    with pytest.raises(DuplicateEdge):
        parse_graph("p mist 3 2\ne 1 2\ne 2 1\n")


@pytest.mark.parametrize(
    "text, error, line_no, message",
    [
        ("p mist 3 3\ne 1 2\ne 2 3\ne 2 1\n", DuplicateEdge, 4, "edge 2 1 appears twice"),
        ("p mist 3 2\ne 1 2\ne 2 1\ne 1 3\n", BadHeader, 1, "header says 2 edges, file has 3"),
        ("p mist 3 3\ne 1 2\ne 1 2\ne 3 3\n", SelfLoop, 4, "self-loop at 3"),
        ("p mist 3 2\ne 1 2\ne 1 2\nc é\n", ParseError, 4, "non-ASCII"),
        ("p mist 3 2\ne 1 2\ne 2 1\ne 2 1\n", BadHeader, 1, "file has 3"),
    ],
    ids=["repeat", "count-before-repeat", "loop-after-repeat", "ascii-after-repeat", "two-repeats"],
)
def test_the_first_fault_in_file_order_is_reported(text, error, line_no, message):
    # a repeated edge is reported after the scan and the count check, so
    # any other fault in the file comes first
    with pytest.raises(error, match=message) as info:
        parse_graph(text)
    assert info.value.line_no == line_no


def test_parsed_graphs_count_their_vertices_and_edges():
    g = parse_graph("p mist 5 4\ne 4 1\ne 1 2\ne 5 4\ne 3 1\n")
    assert g.adj == [[1, 2, 3], [0], [0], [0, 4], [3]]
    assert (g.n_alive(), g.edge_count()) == (5, 4)


def test_out_of_range_ids_are_rejected():
    for text in ("p mist 3 1\ne 0 2\n", "p mist 3 1\ne 1 4\n"):
        with pytest.raises(IdOutOfRange):
            parse_graph(text)


def test_all_parse_failures_are_parse_errors():
    for text in ("x\n", "p mist 2 1\ne 1 1\n", "p mist 2 1\ne 1 9\n"):
        with pytest.raises(ParseError):
            parse_graph(text)


def test_non_ascii_text_is_a_parse_error_naming_its_line():
    text = "p mist 2 1\nc café\ne 1 2\n"
    for data in (text, text.encode()):
        with pytest.raises(ParseError) as info:
            parse_graph(data)
        assert info.value.line_no == 2
        assert str(info.value).startswith("line 2:")


def test_emit_produces_the_canonical_form():
    g = build_graph(3, [(1, 2), (0, 1)])
    assert emit_graph(g) == "p mist 3 2\ne 1 2\ne 2 3\n"


def test_emit_compacts_dead_vertex_ids():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    g.remove_vertex(1)
    # vertices 0, 2, 3 renumber to 1, 2, 3
    assert emit_graph(g) == "p mist 3 2\ne 1 3\ne 2 3\n"


def test_parse_emit_round_trip():
    text = "p mist 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n"
    assert emit_graph(parse_graph(text)) == text
