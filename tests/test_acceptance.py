"""Acceptance suite: one test (and one pass/fail line) per criterion.

Each criterion is a separate test so a verbose run shows exactly one
line per criterion; a PASS line is also printed for captured logs.
"""

import json
import random
import time

import pytest

from conftest import blow_up, member_corpus
from p7c4c5 import forge
from p7c4c5.arcs import (
    bracelet_arcs,
    bracelet_intervals,
    emerald_arcs,
    is_proper,
    realize,
)
from p7c4c5.chordal import is_chordal
from p7c4c5.cli import main as cli_main
from p7c4c5.cutset import atoms, has_clique_cutset, tree_violations
from p7c4c5.graph import mask_of, write_dimacs
from p7c4c5.oracle import (
    brute_chromatic,
    brute_max_clique,
    brute_mwis,
    hole_census,
)
from p7c4c5.recognize import recognize_atom, verify_certificate
from p7c4c5.solvers import (
    _ranked_parts,
    clique_number,
    color_atom,
    greedy_color_parts,
    max_stable_set,
    max_weight_clique,
    min_coloring,
    mwis,
)

ATOM_GENS = {
    "bracelet": forge.random_bracelet,
    "emerald": forge.random_emerald,
    "lantern": forge.random_lantern,
    "wreath": forge.random_wreath,
    "crown": forge.random_crown,
}


def _done(num, name):
    print(f"criterion {num:2d} ({name}): PASS")


def test_criterion_01_coloring_exact_on_500():
    start = time.monotonic()
    graphs = member_corpus(seed=201, count=500, target=14)
    for g in graphs:
        colors, k = min_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert k == brute_chromatic(g), g.edges()
    elapsed = time.monotonic() - start
    assert elapsed <= 60, f"took {elapsed:.1f}s"
    _done(1, "coloring matches oracle on 500 instances")


def test_criterion_02_stable_set_exact_on_500():
    start = time.monotonic()
    rng = random.Random(202)
    graphs = member_corpus(seed=202, count=500, target=20)
    for g in graphs:
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = mwis(g, w)
        assert g.is_stable(mask_of(members))
        assert sum(w[v] for v in members) == val
        assert val == brute_mwis(g, w)[1], (g.edges(), w)
    elapsed = time.monotonic() - start
    assert elapsed <= 120, f"took {elapsed:.1f}s"
    _done(2, "weighted stable set matches oracle on 500 instances")


def test_criterion_03_clique_exact_on_500():
    start = time.monotonic()
    rng = random.Random(203)
    graphs = member_corpus(seed=203, count=500, target=18)
    for g in graphs:
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = max_weight_clique(g, w)
        assert g.is_clique(mask_of(members))
        assert val == brute_max_clique(g, w)[1], (g.edges(), w)
    elapsed = time.monotonic() - start
    assert elapsed <= 60, f"took {elapsed:.1f}s"
    _done(3, "weighted clique matches oracle on 500 instances")


def test_criterion_04_chromatic_within_three_halves_omega():
    strict = 0
    # random members plus seven-hole blow-ups (where chi exceeds omega)
    corpus = member_corpus(seed=204, count=120, target=12)
    corpus.append(forge.gen_bracelet([1] * 7))
    corpus.extend(forge.random_bracelet(s, max_part=2, max_pair=2) for s in range(20))
    for g in corpus:
        _, k = min_coloring(g)
        w = clique_number(g)
        assert k <= (3 * w) // 2
        if k > w:
            strict += 1
    # the bound must be exercised beyond the trivial chi == omega case
    assert strict > 0, "no instance with chromatic number above clique number"
    _done(4, "chromatic number within floor(3*omega/2), non-vacuously")


def test_criterion_05_recognition_round_trip_and_decomposition():
    for kind, gen in ATOM_GENS.items():
        for seed in range(25):
            g = gen(seed)
            cert = recognize_atom(g)
            assert cert.kind == kind
            assert verify_certificate(g, cert) == []
            if g.n <= 40:
                assert has_clique_cutset(g) is None
    # glued member graphs decompose into recognizable atoms
    rng = random.Random(205)
    glued = 0
    while glued < 40:
        g1 = forge.random_member_graph(rng, target=9)
        g2 = forge.random_member_graph(rng, target=9)
        v1, v2 = rng.randrange(g1.n), rng.randrange(g2.n)
        try:
            g = forge.glue(g1, g2, [v1], [v2])
        except forge.ForgeError:
            continue
        glued += 1
        pairs = atoms(g)
        assert tree_violations(g, pairs) == []
        for _s, atom in pairs:
            recognize_atom(g.induced(atom))  # must not raise
    _done(5, "recognition round trip and glued decomposition")


def test_criterion_06_alpha_three_on_bracelets_and_emeralds():
    checked = 0
    for gen in (forge.random_bracelet, forge.random_emerald):
        seed = 0
        hits = 0
        while hits < 50:
            g = gen(seed)
            seed += 1
            if g.n > 18:
                continue
            hits += 1
            members, val = max_stable_set(g)
            assert val == 3, (gen.__name__, seed)
            assert g.is_stable(mask_of(members))
            checked += 1
    assert checked == 100
    _done(6, "stability number three on bracelets and emeralds")


def test_criterion_07_only_six_holes_in_lanterns_and_rings():
    for gen in (forge.random_lantern, forge.random_ring):
        seed = 0
        hits = 0
        while hits < 50:
            g = gen(seed)
            seed += 1
            if g.n > 16:
                continue
            hits += 1
            census = hole_census(g)
            assert set(census) <= {6}, (gen.__name__, seed, census)
    _done(7, "lanterns and six-rings contain only six-holes")


def test_criterion_08_deleted_neighborhoods_chordal():
    for kind, gen in ATOM_GENS.items():
        hits = 0
        seed = 0
        while hits < 50:
            g = gen(seed)
            seed += 1
            if g.n > 36:
                continue
            hits += 1
            for v in range(g.n):
                h = g.induced(g.all_mask & ~g.closed(v))
                assert is_chordal(h), (kind, seed, v)
    _done(8, "removing any closed neighborhood leaves a chordal graph")


def test_criterion_09_arc_representations():
    rng = random.Random(209)
    for gen, arcs_of, bracelet in (
        (forge.random_bracelet, bracelet_arcs, True),
        (forge.random_emerald, emerald_arcs, False),
    ):
        hits = 0
        seed = 0
        while hits < 50:
            g = gen(seed)
            seed += 1
            if g.n > 30:
                continue
            hits += 1
            cert = recognize_atom(g)
            rep = arcs_of(g, cert.partition)
            assert realize(rep, g.n) == g, (gen.__name__, seed)
            assert is_proper(rep), (gen.__name__, seed)
            if bracelet:
                assert len({rep.arc_length(v) for v in range(g.n)}) == 1
    # frozen canonical intervals at order one: the unit-scale family
    # (step one half) times two
    iv = bracelet_intervals(1)
    expected = {
        ("a", 4): (2, 8), ("a", 5): (6, 12), ("a", 6): (10, 16),
        ("a", 0): (14, 20), ("a", 1): (18, 24),
        ("a", 2): (22, 28), ("a", 3): (26, 32),
        ("5p", 1): (7, 13), ("0m", 1): (13, 19),
        ("0p", 1): (15, 21), ("2m", 1): (21, 27),
        ("6p", 1): (11, 17), ("1m", 1): (17, 23),
    }
    assert iv == expected
    _done(9, "proper circular-arc representations and exact intervals")


def test_criterion_10_greedy_colorings_use_exactly_omega():
    for seed in range(40):
        for gen in (forge.random_lantern, forge.random_wreath, forge.random_crown):
            g = gen(seed)
            cert = recognize_atom(g)
            assert not cert.universal
            up, down = _ranked_parts(cert.kind, cert.partition)
            omega = brute_max_clique(g)[1] if g.n <= 22 else clique_number(g)
            colors = greedy_color_parts(g, up, down, omega)
            assert all(colors[u] != colors[v] for u, v in g.edges())
            assert len(set(colors)) == max(colors) == omega
    # generic six-rings (nested staircases), using the construction's own
    # parts in id order and an oracle clique number
    rng = random.Random(210)
    hits = 0
    while hits < 30:
        sizes = [rng.randint(1, 3) for _ in range(6)]
        links = [
            forge.random_staircase(rng, sizes[i], sizes[(i + 1) % 6])
            for i in range(6)
        ]
        g = forge.gen_ring6(sizes, links)
        if g.n > 22:
            continue
        hits += 1
        parts, n0 = [], 0
        for s in sizes:
            parts.append(list(range(n0, n0 + s)))
            n0 += s
        omega = brute_max_clique(g)[1]
        colors = greedy_color_parts(g, parts[0::2], parts[1::2], omega)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert len(set(colors)) == max(colors) == omega
    _done(10, "greedy atom colorings are proper with exactly omega colors")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    files = []
    for seed in (1, 2, 3):
        g = forge.random_member_graph(seed)
        p = tmp_path / f"m{seed}.dimacs"
        p.write_text(write_dimacs(g))
        files.append(str(p))
    for f in files:
        for cmd in ("check", "decompose", "recognize", "color", "mwis",
                    "clique", "verify"):
            runs = []
            for _ in range(2):
                code = cli_main([cmd, f])
                out = capsys.readouterr().out
                runs.append((code, out))
            assert runs[0] == runs[1], (cmd, f)
            data = json.loads(runs[0][1])
            assert data["schema"] == 1
    _done(11, "command line output is byte-identical across reruns")


def _smoke_bracelet():
    """A 2000-vertex bracelet with 19 twin classes, and its star sizes."""
    stars = [120, 150, 130, 700, 650, 80, 120]
    pairs = {
        0: forge.Staircase((20, 15, 5)),
        1: forge.Staircase((10, 8)),
        2: forge.Staircase((12,)),
    }
    g0 = forge.gen_bracelet(stars, pairs)
    stars[0] += 2000 - g0.n
    g = forge.gen_bracelet(stars, pairs)
    assert g.n == 2000
    return g, stars


def test_smoke_two_thousand_vertex_coloring():
    g, stars = _smoke_bracelet()
    start = time.monotonic()
    colors, k = min_coloring(g)
    elapsed = time.monotonic() - start
    assert all(colors[u] != colors[v] for u, v in g.edges())
    # parts 3 and 4 are pure, adjacent, and dwarf every other window, so
    # the clique and chromatic numbers both equal their combined size
    assert k == stars[3] + stars[4]
    assert elapsed <= 10, f"took {elapsed:.1f}s"
    print(f"smoke: colored 2000 vertices optimally in {elapsed:.2f}s")


def test_smoke_two_thousand_vertex_optimizers():
    g, stars = _smoke_bracelet()
    start = time.monotonic()
    members, alpha = mwis(g, [1] * g.n)
    elapsed = time.monotonic() - start
    # a stable set meets at most three of the seven parts
    assert g.is_stable(mask_of(members)) and alpha == len(members) == 3
    assert elapsed <= 1, f"mwis took {elapsed:.1f}s"
    start = time.monotonic()
    members, omega = max_weight_clique(g)
    elapsed = time.monotonic() - start
    assert g.is_clique(mask_of(members)) and omega == len(members) == stars[3] + stars[4]
    assert elapsed <= 1, f"max_weight_clique took {elapsed:.1f}s"
    print("smoke: mwis and max_weight_clique on 2000 vertices within 1s each")


def test_smoke_one_atom_bracelet_of_1999_vertices():
    # twin-free, one atom: certified whole, with no split of the input
    g = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(996, 0, -1))})
    assert g.n == 1999
    start = time.monotonic()
    colors, k = min_coloring(g)
    elapsed = time.monotonic() - start
    assert all(colors[u] != colors[v] for u, v in g.edges()) and k == 998
    assert elapsed <= 2, f"min_coloring took {elapsed:.1f}s"
    start = time.monotonic()
    members, omega = max_weight_clique(g)
    elapsed = time.monotonic() - start
    assert g.is_clique(mask_of(members)) and omega == len(members) == 998
    assert elapsed <= 2, f"max_weight_clique took {elapsed:.1f}s"
    print("smoke: chi = omega = 998 on the 1999-vertex bracelet")


# the one-atom north-star inputs of the ROADMAP: a twin-free bracelet, wreath
# and lantern of about 2000 vertices, with their stability numbers
_NORTH_STAR_ATOMS = {
    "b1999": (lambda: forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(996, 0, -1))}), 3),
    "w1980": (lambda: forge.gen_wreath([330] * 6, [forge.Staircase(range(330, 0, -1))] * 3), 3),
    "l2000": (lambda: forge.gen_lantern(1, 1, [(499, 499)] + [(1, 1)] * 500,
                                        forge.Staircase(range(499, 0, -1))), 502),
}


@pytest.mark.parametrize("name", sorted(_NORTH_STAR_ATOMS))
def test_smoke_mwis_on_a_one_atom_north_star_input(name):
    # the quotient is certified whole, and its stable sets read from the
    # partition: no split and no chordal solve per twin class
    make, alpha = _NORTH_STAR_ATOMS[name]
    g = make()
    start = time.monotonic()
    members, val = mwis(g, [1] * g.n)
    elapsed = time.monotonic() - start
    assert g.is_stable(mask_of(members)) and val == len(members) == alpha
    assert elapsed <= 2, f"mwis took {elapsed:.1f}s on {name}"
    print(f"smoke: alpha = {alpha} on {name} in {elapsed:.2f}s")


@pytest.mark.parametrize("name", ["l2000", "w1980"])
def test_smoke_verify_on_a_dense_one_atom_input(name, tmp_path, capsys):
    # verify decomposes once: its certify walk takes the quotient whole,
    # and the no-clique-cutset check of that one atom is its one MCS-M
    f = tmp_path / f"{name}.dimacs"
    f.write_text(write_dimacs(_NORTH_STAR_ATOMS[name][0]()))
    start = time.monotonic()
    code = cli_main(["verify", "--max-oracle", "0", str(f)])
    elapsed = time.monotonic() - start
    assert code == 0 and json.loads(capsys.readouterr().out)["ok"] is True
    assert elapsed <= 4, f"verify took {elapsed:.1f}s on {name}"
    print(f"smoke: verify on {name} in {elapsed:.2f}s")
