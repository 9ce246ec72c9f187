"""The benchmark's tracer wraps package functions by name (bench/spans.py),
its answer checks call into the package (bench/selftest.py), and its
workload description reads the decomposition tree (bench/describe.py).

A refactor that removes or renames a traced name breaks ``--trace 1`` runs
only, and drift between the package and the answer checks shows only in a
benchmark run; these tests run both in a fresh interpreter to catch that.
"""

import ast
import re
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
tracer = spans.Tracer()
spans.install(tracer, p7c4c5)
"""


def test_trace_binds_every_name():
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# an import the package keeps only so that the tracer can wrap it there
TRACED_IMPORT = re.compile(r"from \.\w+ import ([\w, ]+?)  # noqa: F401 -- "
                           r"bench/spans\.py traces (?:it|them) here$")


def test_trace_wraps_every_import_kept_for_it():
    # a binding the tracer drops must not leave a dead import behind
    marked = [(path.stem, line)
              for path in sorted((ROOT / "src" / "p7c4c5").glob("*.py"))
              for line in path.read_text(encoding="utf-8").splitlines()
              if "bench/spans.py traces" in line]
    assert all(TRACED_IMPORT.match(line) for _mod, line in marked), marked
    names = [(mod, name.strip()) for mod, line in marked
             for name in TRACED_IMPORT.match(line).group(1).split(",")]
    assert names
    script = f"""
import importlib, sys
sys.path[:0] = [{str(ROOT / "bench")!r}, {str(ROOT / "src")!r}]
import p7c4c5, p7c4c5.cli, p7c4c5.forge, spans
attr = lambda mod, name: getattr(importlib.import_module("p7c4c5." + mod), name)
before = {{key: attr(*key) for key in {names!r}}}
spans.install(spans.Tracer(), p7c4c5)
print([key for key, fn in before.items() if attr(*key) is fn])
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", f"imported for the tracer but not wrapped: {done.stdout}"


def test_trace_records_the_arc_layers():
    # the tracer wraps module attributes, so the solvers must reach the arc
    # functions through their module at call time for these spans to count
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src")) + """
g = p7c4c5.forge.gen_bracelet([2, 1, 3, 1, 2, 1, 1])
p7c4c5.solvers.min_coloring(g)
p7c4c5.solvers.max_weight_clique(g)
calls = tracer.calls()
print(calls["arcs.pca_color"], calls["arcs.build"], calls["solvers.atom_clique"])
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = [int(x) for x in done.stdout.split()]
    assert len(counts) == 3 and min(counts) > 0, done.stdout


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


# the decomposition tree, kept only until bench/describe.py reads atoms()
SHIM = {"Leaf", "Node", "decompose"}


def test_decomposition_tree_stays_a_shim():
    # outside cutset.py and __init__.py, a tree name may appear in src/ only
    # in an import kept for the tracer
    found = []
    for path in sorted((ROOT / "src" / "p7c4c5").glob("*.py")):
        if path.name in ("cutset.py", "__init__.py"):
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            traced = isinstance(node, ast.ImportFrom) and TRACED_IMPORT.match(lines[node.lineno - 1])
            if SHIM.intersection(names) and not traced:
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], found
