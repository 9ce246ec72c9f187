import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import p7c4c5

from p7c4c5.cli import main
from p7c4c5.graph import read_dimacs, write_dimacs
from conftest import (cycle, glued_bracelets, induces_pattern, path, split_graph,
                      witnesses)
from test_patterns import _glued, _planted, _union
from test_solvers import _pendant_bracelet, _pendant_hole


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, g, name="g.dimacs"):
    p = tmp_path / name
    p.write_text(write_dimacs(g))
    return str(p)


def test_check_member(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(7))
    code, out, err = run(capsys, "check", f)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["member"] is True
    assert "member" in err


def test_check_certifies_a_twin_free_bracelet(capsys, tmp_path):
    # one atom, proved a member by its certificate; the kind shows on
    # stderr only
    from p7c4c5 import forge

    g = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(120, 0, -1))})
    code, out, err = run(capsys, "check", graph_file(tmp_path, g))
    assert code == 0
    assert json.loads(out) == {"member": True, "violations": {}, "n": 247, "m": 22267,
                               "schema": 1}
    assert err == "member (n=247, m=22267; certified bracelet)\n"


def test_check_summary_names_no_certificate_after_a_sweep(capsys, tmp_path):
    # a path on six vertices splits into certified atoms and no P7 crosses
    # a split, so no sweep runs; a 5-hole is one atom that fails
    # recognition, so the sweep decides and names no certificate
    code, _out, err = run(capsys, "check", graph_file(tmp_path, path(6)))
    assert code == 0 and err == "member (n=6, m=5; certified split)\n"
    code, _out, err = run(capsys, "check", graph_file(tmp_path, cycle(5)))
    assert code == 1 and err == "NOT a member (n=5, m=5)\n"


def test_verify_a_twin_free_wreath(capsys, tmp_path):
    from p7c4c5 import forge

    g = forge.gen_wreath([12] * 6, [forge.Staircase(range(12, 0, -1))] * 3)
    code, out, _ = run(capsys, "verify", graph_file(tmp_path, g))
    assert code == 0 and json.loads(out)["ok"] is True


def test_check_non_member_exit_one(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(4))
    code, out, _ = run(capsys, "check", f)
    assert code == 1
    assert json.loads(out)["violations"]["c4"]


def test_bad_input_exit_two(capsys, tmp_path):
    p = tmp_path / "bad.dimacs"
    p.write_text("nonsense\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "error" in err


def test_malformed_dimacs_exit_two(capsys, tmp_path):
    p = tmp_path / "bad.dimacs"
    for text in ("p edge -3 0\n", "p edge 3 7\ne 1 2\ne 2 3\n",
                 "p edge 3 2\ne 1 2\ne 2 1\n", "p edge 3 1\ne 2 2\n",
                 "p edge 3 1\ne 1 x\n"):
        p.write_text(text)
        for cmd in ("check", "color"):
            code, out, err = run(capsys, cmd, str(p))
            assert code == 2 and out == ""
            assert err.startswith("error: line ")


def test_recognize_and_color(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(7))
    code, out, _ = run(capsys, "recognize", f)
    assert code == 0
    assert json.loads(out)["certificate"]["kind"] == "bracelet"
    code, out, _ = run(capsys, "color", f)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3 and len(data["colors"]) == 7


def test_color_non_member_fails(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(5))
    code, out, _ = run(capsys, "color", f)
    assert code == 1
    assert "error" in json.loads(out)


def test_color_and_clique_reject_a_non_member_atom_alike(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(4))
    outs = []
    for cmd, what in (("color", "coloring"), ("clique", "clique")):
        code, out, err = run(capsys, cmd, f)
        assert code == 1, cmd
        outs.append(json.loads(out))
        assert err.startswith(f"{what} failed")
    assert outs[0] == outs[1] == {"error": "not a member graph: {'c4': [0, 1, 2, 3]}", "schema": 1}


def test_clique_rejects_a_non_member_without_positive_weights(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(4))
    w = tmp_path / "w.txt"
    w.write_text("-1\n-1\n-1\n-1\n")
    code, out, err = run(capsys, "clique", f, "--weights", str(w))
    assert code == 1
    assert err.startswith("clique failed")
    assert out == run(capsys, "clique", f)[1]
    assert json.loads(out) == {"error": "not a member graph: {'c4': [0, 1, 2, 3]}", "schema": 1}


def test_color_rejects_a_p7_across_the_splits(capsys, tmp_path):
    # every atom of these certifies; the crossing test finds the P7
    from p7c4c5.graph import Graph

    pendant_hole = Graph.build(9, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (7, 8)])
    for g in (path(7), pendant_hole):
        code, out, err = run(capsys, "color", graph_file(tmp_path, g))
        assert code == 1 and err.startswith("coloring failed")
        found = witnesses(json.loads(out)["error"])
        assert induces_pattern(g, "p7", found["p7"]), found


def test_verify_rejects_a_non_member(capsys, tmp_path):
    g = cycle(5)
    code, out, err = run(capsys, "verify", graph_file(tmp_path, g))
    assert code == 1 and "not a member" in err
    data = json.loads(out)
    assert data["ok"] is False and data["checks"] == {"member": False}
    assert data["violations"] == {"c5": [0, 1, 2, 3, 4]}


def _count_walks(monkeypatch):
    """The list that counts, by name, each ``recognize_atom`` and
    ``crossing_p7`` call of the solvers and the CLI from now on."""
    import p7c4c5.cli as cli
    import p7c4c5.solvers as solvers

    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    for mod, name in ((solvers, "recognize_atom"), (cli, "recognize_atom"),
                      (solvers, "crossing_p7")):
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    return calls


def test_verify_makes_one_certify_walk(capsys, tmp_path, monkeypatch):
    # two twin-free bracelets under a universal vertex: min_coloring's walk
    # recognizes the whole input, then each of the two atoms, and looks once
    # for a P7 across the split; verify walks no more than that
    from p7c4c5 import forge

    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(4, 0, -1))})
    g = forge.add_universal_clique(forge.glue(b, b, [], []), 1)
    calls = _count_walks(monkeypatch)
    code, out, _ = run(capsys, "verify", "--max-oracle", "0", graph_file(tmp_path, g))
    assert code == 0 and json.loads(out)["ok"] is True
    assert (calls.count("recognize_atom"), calls.count("crossing_p7")) == (3, 1)


def _count_triangulations(monkeypatch):
    """The list of the sizes of the graphs that each MCS-M pass
    (``cutset.minimal_triangulation``) triangulates from now on."""
    import p7c4c5.cutset as cutset

    calls, real = [], cutset.minimal_triangulation

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(cutset, "minimal_triangulation", counted)
    return calls


@pytest.mark.parametrize("command,want", [
    ("verify", 1), ("check", 0), ("color", 0), ("clique", 0), ("mwis", 0)])
def test_mcs_m_budget_on_a_one_atom_input(capsys, tmp_path, monkeypatch, command, want):
    # a twin-free one-atom bracelet is certified whole, so no command
    # splits it; verify's no-clique-cutset check of its one atom is the
    # one MCS-M pass, on the whole graph
    from p7c4c5 import forge

    g = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(20, 0, -1))})
    calls = _count_triangulations(monkeypatch)
    extra = ["--max-oracle", "0"] if command == "verify" else []
    assert run(capsys, command, *extra, graph_file(tmp_path, g))[0] == 0
    assert calls == [g.n] * want


def test_mcs_m_budget_of_verify_on_split_members(capsys, tmp_path, monkeypatch):
    # one MCS-M pass for the walk's split, then one per atom check: each
    # of the two bracelets under a universal vertex is checked, while a
    # split graph is chordal, so its walk splits it by the order that
    # recognition verified and its clique atoms need no pass at all
    from p7c4c5 import forge

    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(4, 0, -1))})
    bracelets = forge.add_universal_clique(forge.glue(b, b, [], []), 1)
    split = split_graph(random.Random(4), 6, 12)
    calls = _count_triangulations(monkeypatch)
    cases = [(bracelets, [bracelets.n, b.n + 1, b.n + 1]),
             (split, [])]
    for g, want in cases:
        calls.clear()
        code, out, _ = run(capsys, "verify", "--max-oracle", "0", graph_file(tmp_path, g))
        assert code == 0 and json.loads(out)["checks"]["decomposition"] is True
        assert calls == want


@pytest.mark.parametrize("command", ["check", "color", "clique", "verify", "mwis"])
def test_a_chordal_quotient_is_ordered_once_and_never_triangulated(capsys, tmp_path,
                                                                   monkeypatch, command):
    # recognition proves a split graph's quotient chordal by one maximum
    # cardinality search; the walk splits it by that order, and mwis
    # eliminates by it, so no command runs MCS-M or a second search
    import p7c4c5.chordal as chordal
    from p7c4c5.recognize import ChordalCoreError, recognize_atom

    g = split_graph(random.Random(32), 20, 60)
    with pytest.raises(ChordalCoreError):
        recognize_atom(g.twin_decomposition()[1])
    triangulated = _count_triangulations(monkeypatch)
    orders, real = [], chordal.mcs_order

    def counted(h, within=None):
        orders.append(h.n)
        return real(h, within)

    monkeypatch.setattr(chordal, "mcs_order", counted)
    extra = ["--max-oracle", "0"] if command == "verify" else []
    assert run(capsys, command, *extra, graph_file(tmp_path, g))[0] == 0
    assert triangulated == [] and orders == [g.twin_decomposition()[1].n]


def test_verify_walks_a_split_non_member_once(capsys, tmp_path, monkeypatch):
    # two bracelets sharing a vertex: the one walk recognizes the whole
    # input and each atom, finds the P7 across the split, and its verdict
    # names the violations
    g = glued_bracelets(4)
    calls = _count_walks(monkeypatch)
    code, out, err = run(capsys, "verify", "--max-oracle", "0", graph_file(tmp_path, g))
    assert code == 1 and err == "verify: not a member\n"
    data = json.loads(out)
    assert data["checks"] == {"member": False} and induces_pattern(g, "p7", data["violations"]["p7"])
    assert (calls.count("recognize_atom"), calls.count("crossing_p7")) == (3, 1)


def _planted_split(source, key, seed):
    """An input of the split corpora of test_patterns with *key* planted."""
    rng = random.Random(seed)
    make = {"glued": _glued, "union": _union,
            "split": lambda r: split_graph(r, r.randint(4, 15), r.randint(5, 30))}[source]
    g = make(rng)
    while g.n < 7:  # room for the planted pattern
        g = make(rng)
    return _planted(rng, g, key)[0]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: path(7), id="p7"),
    pytest.param(_pendant_hole, id="pendant-hole"),
    pytest.param(_pendant_bracelet, id="pendant-bracelet"),
    pytest.param(functools.partial(glued_bracelets, 120), id="glued-bracelets493"),
] + [pytest.param(functools.partial(_planted_split, source, key, seed), id=f"{source}+{key}-{seed}")
     for source in ("glued", "union", "split") for key in ("c4", "c5", "p7") for seed in (0, 1)])
def test_entry_points_name_the_verdict_of_the_walk(capsys, tmp_path, make):
    # check, color, clique and verify reject a non-member with the same witnesses
    from p7c4c5.patterns import class_membership
    from p7c4c5.solvers import max_weight_clique, min_coloring

    g = make()
    report = class_membership(g)
    want = report.violations()
    assert not report.is_member and all(induces_pattern(g, k, w) for k, w in want.items())
    for solve in (min_coloring, max_weight_clique):
        with pytest.raises(ValueError) as exc:
            solve(g)
        assert witnesses(str(exc.value)) == want, solve.__name__
        assert exc.value.report == report, solve.__name__
    f = graph_file(tmp_path, g)
    for cmd in ("check", "verify"):
        code, out, _ = run(capsys, cmd, f)
        assert code == 1 and json.loads(out)["violations"] == want, cmd


def test_verify_names_an_atom_recognition_missed(capsys, tmp_path, monkeypatch):
    # a member whose atom recognition fails is a failed check, not an error
    import p7c4c5.solvers as solvers
    from p7c4c5 import forge
    from p7c4c5.recognize import RecognitionError

    def missed(g):
        raise RecognitionError(["missed on purpose"])

    monkeypatch.setattr(solvers, "recognize_atom", missed)
    g = forge.random_wreath(0)
    code, out, err = run(capsys, "verify", graph_file(tmp_path, g))
    assert code == 1 and err == "verify: FAILED (atoms_recognized: missed on purpose)\n"
    data = json.loads(out)
    assert data["ok"] is False and data["error"] == "missed on purpose"
    assert data["checks"] == {"member": True, "atoms_recognized": False}


def test_mwis_rejects_a_hole_left_by_a_pick(capsys, tmp_path):
    # the 3x3 grid is one atom; deleting N[0] leaves the 4-hole 4-5-8-7, and
    # the atom is then searched for its patterns, as `color` names them
    from p7c4c5.graph import Graph

    grid = Graph.build(9, [(v, v + 1) for v in range(9) if v % 3 < 2]
                       + [(v, v + 3) for v in range(6)])
    f = graph_file(tmp_path, grid)
    code, out, err = run(capsys, "mwis", f)
    assert code == 1
    assert json.loads(out)["error"] == (
        "not a member graph: {'p7': [0, 1, 2, 5, 8, 7, 6], 'c4': [0, 1, 4, 3]}")
    assert err.startswith("stable set failed")
    assert run(capsys, "color", f)[:2] == (code, out)
    w = tmp_path / "w.txt"
    w.write_text("1\n")  # one weight for nine vertices
    code, out, err = run(capsys, "mwis", f, "--weights", str(w))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_mwis_names_a_hole_in_input_ids(capsys, tmp_path):
    # grid vertices 0 and 4 doubled into true twins: the stable set is
    # solved on the twin quotient, and the atom's patterns are named in
    # input ids
    from conftest import blow_up
    from p7c4c5.graph import Graph, mask_of

    grid = Graph.build(9, [(v, v + 1) for v in range(9) if v % 3 < 2]
                       + [(v, v + 3) for v in range(6)])
    g = blow_up(grid, [2, 1, 1, 1, 2, 1, 1, 1, 1])
    f = graph_file(tmp_path, g)
    code, out, err = run(capsys, "mwis", f)
    assert code == 1 and err.startswith("stable set failed")
    assert json.loads(out)["error"] == (
        "not a member graph: {'p7': [0, 2, 3, 7, 10, 9, 8], 'c4': [0, 2, 5, 4]}")
    assert run(capsys, "color", f)[:2] == (code, out)
    p7, hole = [0, 2, 3, 7, 10, 9, 8], [0, 2, 5, 4]
    for i, v in enumerate(hole):
        assert g.adj[v] & mask_of(hole) == mask_of([hole[i - 1], hole[(i + 1) % 4]])
    for i, v in enumerate(p7):
        assert g.adj[v] & mask_of(p7) == mask_of(p7[max(i - 1, 0):i] + p7[i + 1:i + 2])


def test_mwis_and_clique_with_weights(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(6))
    w = tmp_path / "w.txt"
    w.write_text("1\n2\n3\n-1\n1/2\n2\n")
    code, out, _ = run(capsys, "mwis", f, "--weights", str(w))
    assert code == 0
    data = json.loads(out)
    assert data["stable_set"] == [1, 3, 5] or data["weight"] == "5"
    code, out, _ = run(capsys, "clique", f, "--weights", str(w))
    assert code == 0
    assert json.loads(out)["weight"] == "5"


def test_rational_weights_reach_the_solvers_as_integers(capsys, tmp_path, monkeypatch):
    # the weights are scaled by the lcm of their denominators; the answer
    # is divided back, and it is the one the solvers give on the fractions
    import random
    from fractions import Fraction

    import p7c4c5.cli as cli
    from p7c4c5 import forge
    from p7c4c5.solvers import max_weight_clique, mwis

    seen = []

    def recorded(solve):
        return lambda g, w: seen.append({type(x) for x in w}) or solve(g, w)

    monkeypatch.setattr(cli, "mwis", recorded(mwis))
    monkeypatch.setattr(cli, "max_weight_clique", recorded(max_weight_clique))
    rng = random.Random(5)
    for seed in range(6):
        g = forge.random_bracelet(seed)
        w = [Fraction(rng.randint(-3, 12), rng.randint(1, 6)) for _ in range(g.n)]
        f, wf = graph_file(tmp_path, g), tmp_path / "w.txt"
        wf.write_text("".join(f"{x}\n" for x in w))
        for cmd, solve, key in (("mwis", mwis, "stable_set"),
                                ("clique", max_weight_clique, "clique")):
            code, out, err = run(capsys, cmd, f, "--weights", str(wf))
            members, value = solve(g, w)
            assert code == 0 and json.loads(out) == {key: members, "weight": str(value),
                                                     "schema": 1}
            assert f" weight {value} with " in err
    assert seen and all(types == {int} for types in seen), seen


def test_bad_weights_exit_two(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(6))
    w = tmp_path / "w.txt"
    for text, line in (("1\n2\n1/0\n1\n1\n1\n", 3), ("1\n\n2\n3\nabc\n1\n1\n", 5)):
        w.write_text(text)
        for cmd in ("mwis", "clique"):
            code, out, err = run(capsys, cmd, f, "--weights", str(w))
            assert code == 2 and out == ""
            assert err.startswith(f"error: weights line {line}: "), err


def test_gen_check_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "atom", "--seed", "12")
    assert code == 0
    g = read_dimacs(out)
    f = graph_file(tmp_path, g)
    code, out, _ = run(capsys, "verify", f)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_outputs_are_byte_identical(capsys, tmp_path):
    for seed in ("3", "4"):
        code, out1, _ = run(capsys, "gen", "member", "--seed", seed)
        code, out2, _ = run(capsys, "gen", "member", "--seed", seed)
        assert out1 == out2
        f = graph_file(tmp_path, read_dimacs(out1), name=f"m{seed}.dimacs")
        for cmd in ("check", "decompose", "recognize", "color", "mwis",
                    "clique", "verify"):
            c1, o1, _ = run(capsys, cmd, f)
            c2, o2, _ = run(capsys, cmd, f)
            assert (c1, o1) == (c2, o2)
            assert o1.endswith("\n") and json.loads(o1)["schema"] == 1


def test_decompose_reports_atoms(capsys, tmp_path):
    # two triangles sharing an edge: one clique cutset, two atoms
    from p7c4c5.graph import Graph

    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    f = graph_file(tmp_path, g)
    code, out, _ = run(capsys, "decompose", f)
    assert code == 0
    data = json.loads(out)
    assert len(data["atoms"]) == 2 and data["violations"] == []
    assert data["tree"][0]["cutset"] == [0, 1]
    assert [e["atom"] for e in data["tree"]] == data["atoms"]
    # the star K1,1200 has 1200 atoms, one level of the spine each
    star = Graph.build(1201, [(0, v) for v in range(1, 1201)])
    code, out, _ = run(capsys, "decompose", graph_file(tmp_path, star, name="star.dimacs"))
    assert code == 0
    data = json.loads(out)
    assert len(data["atoms"]) == 1200 and len(data["tree"]) == 1200
    # the empty graph is one empty atom
    f = graph_file(tmp_path, Graph(0, ()), name="empty.dimacs")
    for cmd in ("decompose", "verify"):
        code, out, _ = run(capsys, cmd, f)
        assert code == 0, cmd
    assert json.loads(run(capsys, "decompose", f)[1])["atoms"] == [[]]


def test_an_improper_coloring_is_caught(capsys, tmp_path, monkeypatch):
    import p7c4c5.cli as cli

    def one_clash(real):  # give vertex 1 the color of its neighbor 0
        def clash(*args):
            colors, *rest = real(*args)
            colors[1] = colors[0]
            return colors, *rest
        return clash

    # color calls min_coloring; verify colors from its own walk (color_walk)
    for name in ("min_coloring", "color_walk"):
        monkeypatch.setattr(cli, name, one_clash(getattr(cli, name)))
    f = graph_file(tmp_path, cycle(7))
    with pytest.raises(AssertionError):
        main(["color", f])
    code, out, _ = run(capsys, "verify", f)
    assert code == 1
    data = json.loads(out)
    assert data["checks"]["coloring_proper"] is False and data["ok"] is False


def test_main_builds_its_parser_once(capsys, tmp_path, monkeypatch):
    import argparse

    f = graph_file(tmp_path, cycle(6))
    w = tmp_path / "w.txt"
    w.write_text("1\n2\n3\n-1\n1/2\n2\n")
    assert run(capsys, "color", f)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["color", f], ["mwis", f, "--weights", str(w)], ["clique", f]):
        assert run(capsys, *argv)[0] == 0
    assert built == []


def test_options_do_not_carry_over_between_calls(capsys, tmp_path):
    from p7c4c5 import forge

    f = graph_file(tmp_path, cycle(6))
    w = tmp_path / "w.txt"
    w.write_text("1\n2\n3\n-1\n1/2\n2\n")
    code, out, _ = run(capsys, "mwis", f, "--weights", str(w))
    assert code == 0 and json.loads(out)["weight"] == "5"
    code, out, _ = run(capsys, "mwis", f)
    assert code == 0 and json.loads(out) == {"stable_set": [0, 2, 4], "weight": "3",
                                             "schema": 1}
    assert run(capsys, "gen", "bracelet", "--seed", "7")[1] == write_dimacs(
        forge.random_bracelet(7))
    code, out, _ = run(capsys, "gen", "bracelet")
    assert code == 0 and out == write_dimacs(forge.random_bracelet(0))


def test_a_usage_error_leaves_the_next_call_intact(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(7))
    code, usual, _ = run(capsys, "color", f)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["color"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert run(capsys, "color", f)[:2] == (0, usual)


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    src = str(Path(p7c4c5.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    gen = subprocess.run([sys.executable, "-m", "p7c4c5", "gen", "bracelet", "--seed", "7"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert gen.returncode == 0, gen.stderr
    check = subprocess.run([sys.executable, "-m", "p7c4c5", "check", "-"], input=gen.stdout,
                           capture_output=True, text=True, env=env, timeout=60)
    assert check.returncode == 0, check.stderr
    assert json.loads(check.stdout)["member"] is True
