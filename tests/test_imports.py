"""No module of the package imports a name it never uses, every
module-level private function or class is referred to somewhere in the
package outside its own body, only the graph module reads the twin-free
mark, and a non-member's rejection text is built in one place.

No linter ships with the project's toolchain, so this walks the syntax
trees with ``ast``.  Exempt are ``from __future__`` imports, the names
``__init__`` re-exports in ``__all__``, and the imports kept only for the
benchmark's tracer (``TRACED_IMPORT``).
"""

import ast
from pathlib import Path

from test_bench_bindings import TRACED_IMPORT

SRC = Path(__file__).resolve().parent.parent / "src" / "p7c4c5"


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # the re-exports of a package's __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or TRACED_IMPORT.match(lines[node.lineno - 1]):
                continue
        elif not isinstance(node, ast.Import):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_no_unused_imports():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _unused_imports(path)]
    assert found == [], found


def test_an_unused_import_is_flagged(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text("from __future__ import annotations\n"
                 "import os\nfrom itertools import chain, combinations\n"
                 "print(chain)\n")
    assert _unused_imports(f) == ["mod.py:2: os", "mod.py:3: combinations"]


def _names_used(tree, skip=None) -> set[str]:
    """Every name that the tree refers to, as a name, an attribute or an
    imported name, outside the node *skip*."""
    inside = set(map(id, ast.walk(skip))) if skip else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _unreferenced_private_defs(root: Path) -> list[str]:
    """The module-level private functions and classes of the modules
    under *root* that no module refers to outside their own body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_"):
                continue
            if not any(node.name in _names_used(t, node if t is tree else None) for t in trees.values()):
                found.append(f"{path.name}:{node.lineno}: {node.name}")
    return found


def test_every_private_helper_is_used():
    found = _unreferenced_private_defs(SRC)
    assert found == [], found


def test_an_unused_private_helper_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text("def _lone():\n    return _lone()\n\n"
                                   "class _Used:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import _Used\n")
    assert _unreferenced_private_defs(tmp_path) == ["a.py:1: _lone"]


def test_only_the_graph_module_reads_the_twin_free_mark():
    # g's rows are grouped in one place, Graph.twin_classes, which alone
    # knows that a skeleton of twin_decomposition needs no grouping
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "_twin_free"]
    assert readers and {site.split(":")[0] for site in readers} == {"graph.py"}, readers


def test_the_rejection_text_is_built_once():
    # every entry point rejects a non-member in one format, NotAMember's
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node) is not None}
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "not a member graph" in node.value and id(node) not in docs]
    assert len(sites) == 1, sites
