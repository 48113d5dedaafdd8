"""Command line interface: solve, gen, sweep."""

import io
import json
import sys

from mist import cli
from mist.fileio import emit_graph, parse_graph
from mist.generate import gen_cycle, gen_path
from mist.pipeline import Check, VerificationReport

from helpers import twin_pairs


def write_instance(tmp_path, g, name="in.mist"):
    path = tmp_path / name
    path.write_text(emit_graph(g))
    return str(path)


def test_solve_refined_with_verification(tmp_path, capsys):
    path = write_instance(tmp_path, gen_path(9))
    code = cli.main(["solve", "--algo", "refined", "--in", path, "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "n=9" in lines
    assert "internal=7" in lines
    assert "opt=7" in lines
    assert "ratio=1/1" in lines
    assert "verify=ok" in lines


def test_solve_exact_on_a_cycle(tmp_path, capsys):
    path = write_instance(tmp_path, gen_cycle(6))
    code = cli.main(["solve", "--algo", "exact", "--in", path])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "algo=exact" in lines
    assert "internal=4" in lines
    assert "upper_bound=4" in lines
    assert not any(l.startswith("opt=") for l in lines)


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(emit_graph(gen_path(5))))
    code = cli.main(["solve", "--algo", "simple", "--in", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert "internal=3" in out.splitlines()


def test_solve_json_mirrors_the_text_fields(tmp_path, capsys):
    path = write_instance(tmp_path, gen_path(9))
    cli.main(["solve", "--algo", "refined", "--in", path, "--verify", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 9
    assert data["m"] == 8
    assert data["algo"] == "refined"
    assert data["internal"] == 7
    assert data["upper_bound"] == 7
    assert data["opt"] == 7
    assert data["ratio"] == [1, 1]
    assert data["verify"]["ok"] is True
    assert all(c["ok"] for c in data["verify"]["checks"])
    assert len(data["tree"]) == 8


def test_gen_cycle_emits_the_expected_file(capsys):
    code = cli.main(["gen", "--family", "cycle", "--n", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "p mist 6 6\ne 1 2\ne 1 6\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n"


def test_gen_twins_contains_a_pair(capsys):
    code = cli.main(["gen", "--family", "twins", "--n", "9", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    g = parse_graph(out)
    assert g.n_alive() == 9
    assert len(twin_pairs(g)) >= 1


def test_gen_gnp_is_deterministic(capsys):
    cli.main(["gen", "--family", "gnp", "--n", "10", "--p", "0.3", "--seed", "42"])
    first = capsys.readouterr().out
    cli.main(["gen", "--family", "gnp", "--n", "10", "--p", "0.3", "--seed", "42"])
    assert capsys.readouterr().out == first
    g = parse_graph(first)
    assert g.n_alive() == 10 and g.is_connected()


def test_gen_sparse_is_a_connected_tree_plus_chords(capsys):
    # --p counts chords per vertex for this family: 0.5 * 30 = 15 chords
    argv = ["gen", "--family", "sparse", "--n", "30", "--p", "0.5", "--seed", "3"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    cli.main(argv)
    assert capsys.readouterr().out == first
    g = parse_graph(first)
    assert g.n_alive() == 30 and g.edge_count() == 29 + 15 and g.is_connected()


def test_gen_sparse_rejects_more_chords_than_missing_edges(capsys):
    # a 4-vertex tree leaves room for 3 chords; --p 1 asks for 4
    code = cli.main(["gen", "--family", "sparse", "--n", "4", "--p", "1"])
    assert code == 1
    assert "BadParams" in capsys.readouterr().err


def test_sweep_emits_passing_rows(capsys):
    code = cli.main(
        ["sweep", "--algo", "refined", "--n-range", "9..11", "--count", "12",
         "--seed", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance,n,m,weight,upper_bound,opt,ratio_num,ratio_den,passes"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 12
    assert all(r[-1] == "true" for r in rows)
    assert [r[1] for r in rows[:4]] == ["9", "10", "11", "9"]


def test_sweep_on_cycles_meets_the_simple_ratio(capsys):
    code = cli.main(
        ["sweep", "--algo", "simple", "--n-range", "5..12", "--count", "8",
         "--family", "cycle"]
    )
    out = capsys.readouterr().out
    assert code == 0
    for row in out.splitlines()[1:]:
        parts = row.split(",")
        weight, opt = int(parts[3]), int(parts[5])
        assert 4 * weight >= 3 * opt


def test_sweep_with_empty_range_prints_only_the_header(capsys):
    code = cli.main(["sweep", "--algo", "simple", "--n-range", "6..5", "--count", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "instance,n,m,weight,upper_bound,opt,ratio_num,ratio_den,passes"
    ]


def test_parse_failures_exit_with_one(tmp_path, capsys):
    path = tmp_path / "bad.mist"
    path.write_text("garbage\n")
    code = cli.main(["solve", "--algo", "simple", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 1:")


def test_an_unreadable_input_exits_with_one(tmp_path, capsys):
    missing = tmp_path / "missing.mist"
    code = cli.main(["solve", "--algo", "simple", "--in", str(missing)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: BadParams: cannot read")
    assert str(missing) in err


def test_non_ascii_input_exits_with_one(tmp_path, capsys):
    path = tmp_path / "accent.mist"
    path.write_bytes("c café\np mist 2 1\ne 1 2\n".encode())
    code = cli.main(["solve", "--algo", "simple", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 1:")


def test_a_disconnected_input_with_a_trees_edge_count_exits_with_one(tmp_path, capsys):
    # a triangle beside a 3-path has n - 1 edges but is no tree
    path = tmp_path / "apart.mist"
    path.write_text("p mist 6 5\ne 1 2\ne 2 3\ne 1 3\ne 4 5\ne 5 6\n")
    for algo in ("simple", "refined"):
        code = cli.main(["solve", "--algo", algo, "--in", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: DisconnectedInput: input graph is not connected\n"


def test_generator_failures_exit_with_one(capsys):
    code = cli.main(["gen", "--family", "cycle", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "BadParams" in err


def test_failed_verification_exits_with_two(tmp_path, capsys, monkeypatch):
    bad = VerificationReport((Check("ratio", False, "too small"),), 5)
    monkeypatch.setattr(cli, "verify_run", lambda *a, **k: bad)
    path = write_instance(tmp_path, gen_path(9))
    code = cli.main(["solve", "--algo", "refined", "--in", path, "--verify"])
    out = capsys.readouterr().out
    assert code == 2
    assert "verify=fail" in out.splitlines()
    assert "failed=ratio too small" in out.splitlines()


def test_solve_runs_are_byte_identical(tmp_path, capsys):
    path = write_instance(tmp_path, gen_cycle(9))
    cli.main(["solve", "--algo", "refined", "--in", path, "--verify"])
    first = capsys.readouterr().out
    cli.main(["solve", "--algo", "refined", "--in", path, "--verify"])
    assert capsys.readouterr().out == first
