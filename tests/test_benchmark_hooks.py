"""The benchmark's per-layer hooks still find every name they wrap.

perfbench/spans.py wraps mist functions by name from outside the package.
A renamed or removed target is recorded as absent and its metric reads 0,
so a refactor that drops one must fail here rather than go unnoticed.
"""

import sys
from pathlib import Path

import mist  # noqa: F401  imports every module the tracer patches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Tracer  # noqa: E402


def test_every_benchmark_hook_target_exists():
    with Tracer() as tracer:
        pass
    assert tracer.absent == []
