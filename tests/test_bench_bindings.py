"""The benchmark's tracer wraps package functions by name (bench/spans.py).

A refactor that removes or renames one of them breaks ``--trace 1`` runs
only; this test installs the tracer in a fresh interpreter to catch that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import p7c4c5
import p7c4c5.cli
import p7c4c5.forge
import spans
spans.install(spans.Tracer(), p7c4c5)
"""


def test_trace_binds_every_name():
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
