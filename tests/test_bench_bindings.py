"""The benchmark's tracer wraps package functions by name (bench/spans.py),
its answer checks call into the package (bench/selftest.py), and its
workload description reads the decomposition tree (bench/describe.py).

A refactor that removes or renames a traced name breaks ``--trace 1`` runs
only, and drift between the package and the answer checks shows only in a
benchmark run; these tests run both in a fresh interpreter to catch that.
"""

import subprocess
import sys
from pathlib import Path

import pytest

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


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", ["chi_gap", "deep", "thick"])
def test_bench_describe_runs(workload):
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "describe.py"),
                           "--workload", workload, "--seed", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
