import json

import pytest

from p7c4c5.cli import main
from p7c4c5.graph import read_dimacs, write_dimacs
from conftest import cycle


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
                 "p edge 3 2\ne 1 2\ne 2 1\n"):
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


def test_jobs_flag_does_not_change_output(capsys, tmp_path):
    f = graph_file(tmp_path, cycle(7))
    _, o1, _ = run(capsys, "--jobs", "1", "color", f)
    _, o2, _ = run(capsys, "--jobs", "4", "color", f)
    assert o1 == o2


def test_decompose_reports_atoms(capsys, tmp_path):
    # two triangles sharing an edge: one clique cutset, two atoms
    from p7c4c5.graph import Graph

    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    f = graph_file(tmp_path, g)
    code, out, _ = run(capsys, "decompose", f)
    assert code == 0
    data = json.loads(out)
    assert len(data["atoms"]) == 2 and data["violations"] == []
    assert data["tree"]["cutset"] == [0, 1]
