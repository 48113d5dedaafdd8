"""tools/interleave.py, the paired timing of two source trees."""

import sys
from pathlib import Path
from types import SimpleNamespace

import mist

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import interleave  # noqa: E402

SRC = str(ROOT / "src")


def test_a_tree_timed_against_itself_agrees_on_every_output(capsys):
    argv = [SRC, SRC, "--workload", "gate", "--seed", "3", "--scale", "0.01", "--reps", "2"]
    assert interleave.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "gate seed 3 scale 0.01: 66 ops x 2"
    assert [line.split(":")[0].strip() for line in out[1:]] == [
        "parent", "change", "change/parent total"
    ]
    assert not any(k.startswith(("mist_parent", "mist_change")) for k in sys.modules)


def test_an_output_difference_stops_the_run():
    corp = interleave.corpus_mod.build("chains", 3, 0.05)

    def run(g, mode, keep_state=False):
        report = mist.run(g, mode, keep_state)
        report.upper_bound += mode == "refined"
        return report

    changed = SimpleNamespace(parse_graph=mist.parse_graph, run=run, verify_run=mist.verify_run)
    times, diff = interleave.interleave({"parent": mist, "change": changed}, corp, 1)
    first = next(k for k, op in enumerate(corp.ops) if op.mode == "refined")
    assert diff.startswith(f"op {first} (refined): ")
    assert len(times["parent"]["solve"]) == len(times["change"]["solve"]) == first + 1
