import json

import pytest

from p7c4c5.cli import main
from p7c4c5.graph import read_dimacs, write_dimacs
from conftest import cycle, induces_pattern, path, witnesses


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
    # a path on six vertices splits, so the sweep decides
    code, _out, err = run(capsys, "check", graph_file(tmp_path, path(6)))
    assert code == 0 and err == "member (n=6, m=5)\n"
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
    # every atom of these certifies; the small-input check finds the P7
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

    real = cli.min_coloring

    def one_clash(g):  # give vertex 1 the color of its neighbor 0
        colors, k = real(g)
        colors[1] = colors[0]
        return colors, k

    monkeypatch.setattr(cli, "min_coloring", one_clash)
    f = graph_file(tmp_path, cycle(7))
    with pytest.raises(AssertionError):
        main(["color", f])
    code, out, _ = run(capsys, "verify", f)
    assert code == 1
    data = json.loads(out)
    assert data["checks"]["coloring_proper"] is False and data["ok"] is False
