"""Self-tests for the benchmark: metric names, the output checker, the tracer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import corpus
import run
from spans import Tracer

sys.path.insert(0, str(run.ROOT / "src"))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


def _quiet(*_):
    pass


def test_workloads_match_the_benchmark_file():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(corpus.WORKLOADS)


def test_corpus_depends_only_on_the_seed():
    a, b, c = (corpus.build("chains", s, scale=0.2) for s in (5, 5, 6))
    assert a.digest() == b.digest() != c.digest()


def test_tiny_untraced_run_reports_every_end_to_end_metric():
    result = run.bench("chains", 1, 0.01, False, scale=0.05, log=_quiet)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run.bench("gate", 1, 0.01, True, scale=0.005, spans_dir=tmp_path, log=_quiet)
    assert result["correct"], "traced and untraced trees differ, or a check failed"
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["exact.ost_calls"]["value"] > 0
    assert list(tmp_path.glob("spans-gate-seed1.tsv"))


def test_only_the_known_cap_defect_is_an_expected_failure():
    assert check.expected_failure("cycle", 24, "simple", "SizeCapExceeded")
    assert check.expected_failure("theta", 17, "simple", "SizeCapExceeded")
    assert not check.expected_failure("cycle", 24, "refined", "SizeCapExceeded")
    assert not check.expected_failure("path", 24, "simple", "SizeCapExceeded")
    assert not check.expected_failure("gnp", 10, "simple", "SizeCapExceeded")
    assert not check.expected_failure("cycle", 24, "simple", "InternalInvariant")


@pytest.mark.parametrize("error", ["InternalInvariant", "SizeCapExceeded", "KeyError"])
def test_an_unexpected_exception_makes_the_run_incorrect(monkeypatch, error):
    import mist

    exc = KeyError if error == "KeyError" else getattr(mist.errors, error)

    def broken(*args, **kwargs):
        raise exc("broken on purpose")

    monkeypatch.setattr(mist, "run", broken)
    result = run.bench("gate", 1, 0.01, False, scale=0.002, log=_quiet)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_memory_operations_cover_every_family_and_mode():
    corp = corpus.build("chains", 3, scale=0.2)
    ops = corp.memory_ops(1)
    keys = {(corp.instances[corp.ops[k].instance].family, corp.ops[k].mode) for k in ops}
    assert len(ops) == len(keys) == 6
    largest = max(i.n for i in corp.instances if i.family == "path")
    assert largest in {corp.instances[corp.ops[k].instance].n for k in ops}


def test_checker_accepts_a_spanning_tree():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert check.check_tree(4, edges, [(0, 1), (1, 2), (2, 3)], 2, 2) == []


def test_checker_rejects_a_dropped_edge():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    problems = check.check_tree(4, edges, [(0, 1), (1, 2)], 1, 2)
    assert any("tree edges" in p for p in problems)
    assert any("components" in p for p in problems)


def test_checker_rejects_a_non_edge():
    edges = [(0, 1), (1, 2), (2, 3)]
    problems = check.check_tree(4, edges, [(0, 1), (1, 2), (0, 3)], 2, 2)
    assert any("not a graph edge" in p for p in problems)


def test_checker_rejects_a_wrong_weight_and_a_broken_ratio():
    edges = [(0, 1), (1, 2), (2, 3)]
    assert check.check_tree(4, edges, edges, 3, 3)
    assert check.check_tree(4, edges, edges, 2, 1)
    assert check.check_ratio("refined", 2, 3)
    assert check.check_ratio("simple", 3, 4) == []


def test_missing_wrapper_target_is_recorded_as_absent():
    import mist.graph

    original = mist.graph.find_bridges
    tracer = Tracer(
        spans=(
            ("graph.gone", "mist.graph:no_such_function"),
            ("nowhere.gone", "mist.no_such_module:f"),
            ("graph.bridges", "mist.graph:find_bridges"),
        ),
        counts=(("graph.gone_method", "mist.graph:Graph.no_such_method"),),
    )
    with tracer:
        assert mist.graph.find_bridges is not original
        mist.graph.find_bridges(mist.graph.Graph(2, [(0, 1)]))
    assert mist.graph.find_bridges is original
    assert tracer.absent == [
        "mist.graph:no_such_function",
        "mist.no_such_module:f",
        "mist.graph:Graph.no_such_method",
    ]
    assert tracer.summary()["graph.bridges"]["calls"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = [sys.executable, "perfbench/run.py", "--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
