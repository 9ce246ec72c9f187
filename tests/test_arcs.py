import random
import time

import pytest

from conftest import blow_up, cycle
from p7c4c5 import forge
from p7c4c5.arcs import (
    ArcRepresentation,
    arc_contains,
    arcs_intersect,
    bracelet_arcs,
    bracelet_intervals,
    canonical_embed,
    close_circle,
    emerald_arcs,
    heaviest_window,
    is_proper,
    pca_color,
    realize,
)
from p7c4c5.forge import Staircase
from p7c4c5.graph import Graph
from p7c4c5.oracle import brute_alpha, brute_chromatic, brute_max_clique
from p7c4c5.recognize import EmeraldPartition, RecognitionError, recognize_atom
from p7c4c5.solvers import atom_max_weight_clique, min_coloring


def test_arc_primitives():
    L = 10
    assert arcs_intersect((0, 3), (3, 5), L)  # touch at endpoint
    assert arcs_intersect((8, 1), (0, 2), L)  # wrap-around
    assert not arcs_intersect((0, 2), (4, 6), L)
    assert arc_contains((0, 5), (1, 3), L)
    assert arc_contains((8, 4), (9, 2), L)
    assert not arc_contains((1, 3), (0, 5), L)


def test_canonical_interval_values_t1():
    iv = bracelet_intervals(1)
    # the unit-scale family (step 1/2 for t=1) times t + 1 = 2
    assert iv[("a", 4)] == (2, 8)
    assert iv[("a", 3)] == (26, 32)
    assert iv[("5p", 1)] == (7, 13)
    assert iv[("0m", 1)] == (13, 19)
    assert iv[("0p", 1)] == (15, 21)
    assert iv[("2m", 1)] == (21, 27)
    assert iv[("6p", 1)] == (11, 17)
    assert iv[("1m", 1)] == (17, 23)
    assert all(type(x) is int for arc in bracelet_intervals(5).values() for x in arc)


def test_interval_validation():
    with pytest.raises(ValueError):
        bracelet_intervals(0)


def test_seven_hole_arcs():
    g = cycle(7)
    cert = recognize_atom(g)
    rep = bracelet_arcs(g, cert.partition)
    assert realize(rep, 7) == g
    assert is_proper(rep)
    lengths = {rep.arc_length(v) for v in range(7)}
    assert lengths == {6}  # all bracelet arcs share one length
    assert heaviest_window(g, rep, [1] * 7)[1] == 2


def test_bracelet_arcs_realize_round_trip():
    for seed in range(50):
        g = forge.random_bracelet(seed)
        cert = recognize_atom(g)
        rep = bracelet_arcs(g, cert.partition)
        assert realize(rep, g.n) == g, seed
        assert is_proper(rep), seed
        assert len({rep.arc_length(v) for v in range(g.n)}) == 1


def test_emerald_arcs_realize_round_trip():
    for seed in range(50):
        g = forge.random_emerald(seed)
        cert = recognize_atom(g)
        rep = emerald_arcs(g, cert.partition)
        assert realize(rep, g.n) == g, seed
        assert is_proper(rep), seed


def test_twin_blow_up_arcs():
    rng = random.Random(1)
    for seed in range(10):
        g0 = forge.random_bracelet(seed)
        g = blow_up(g0, [rng.randint(1, 2) for _ in range(g0.n)])
        if g.n > 30:
            continue
        cert = recognize_atom(g)
        rep = bracelet_arcs(g, cert.partition)
        assert realize(rep, g.n) == g
        assert is_proper(rep)


def test_heaviest_window_is_heaviest_clique():
    # through atom_max_weight_clique, universal vertices included; the
    # lex-least heaviest clique, as brute force finds it
    rng = random.Random(12)
    draws = (
        lambda: 1,
        lambda: rng.randint(-4, 6),
        lambda: rng.randint(0, 2),
        lambda: rng.randint(-3, 0),
    )
    checked = 0
    for seed in range(60):
        g = (forge.random_bracelet if seed % 2 else forge.random_emerald)(seed)
        if seed % 3 == 0:
            g = forge.add_universal_clique(g, 1 + seed % 2)
            perm = rng.sample(range(g.n), g.n)  # mix the universal ids in
            g = Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        if g.n > 22:
            continue
        cert = recognize_atom(g)
        assert cert.kind in ("bracelet", "emerald") and bool(cert.universal) == (seed % 3 == 0)
        for draw in draws:
            w = [draw() for _ in range(g.n)]
            assert atom_max_weight_clique(g, cert, w) == brute_max_clique(g, w), (seed, w)
            checked += 1
    assert checked > 100


def test_pca_color_is_exact():
    for seed in range(30):
        for gen, arcs_of in (
            (forge.random_bracelet, bracelet_arcs),
            (forge.random_emerald, emerald_arcs),
        ):
            g = gen(seed)
            if g.n > 16:
                continue
            cert = recognize_atom(g)
            rep = arcs_of(g, cert.partition)
            colors, k = pca_color(g, rep)
            assert all(colors[u] != colors[v] for u, v in g.edges())
            assert k == brute_chromatic(g), seed


def test_seven_hole_needs_three_colors():
    # chromatic number strictly above the clique number
    g = cycle(7)
    cert = recognize_atom(g)
    rep = bracelet_arcs(g, cert.partition)
    colors, k = pca_color(g, rep)
    assert k == 3 and brute_max_clique(g)[1] == 2


def test_realize_mismatch_is_rejected():
    g = cycle(7)
    cert = recognize_atom(g)
    rep = bracelet_arcs(g, cert.partition)
    with pytest.raises(ValueError):
        pca_color(forge.add_universal_clique(g, 1), ArcRepresentation(
            rep.circumference, dict(rep.arcs) | {7: (0, 1)}
        ))


def test_close_circle_adds_only_the_seam_adjacency():
    iv = bracelet_intervals(1)
    L, circ = close_circle(iv)
    assert L == 30  # 15 (t + 1)
    # the two seam intervals now intersect
    assert arcs_intersect(circ[("a", 3)], circ[("a", 4)], L)
    # but did not intersect on the line
    a3, a4 = iv[("a", 3)], iv[("a", 4)]
    assert a3[0] > a4[1]


def test_emerald_twins_share_one_arc():
    for seed in range(20):
        g = forge.random_emerald(seed)
        cert = recognize_atom(g)
        rep = emerald_arcs(g, cert.partition)
        for _name, cls in cert.partition.classes():
            assert len({rep.arcs[v] for v in cls}) == 1, seed
    # with every class doubled the family has eleven distinct arcs
    g = forge.gen_emerald({name: 2 for name in EmeraldPartition.ORDER})
    rep = emerald_arcs(g, recognize_atom(g).partition)
    assert len(set(rep.arcs.values())) == 11 and realize(rep, g.n) == g


def test_pca_color_checks_large_representations():
    g = forge.gen_bracelet([80] * 7)  # 560 vertices
    part = recognize_atom(g).partition
    rep = bracelet_arcs(g, part)
    wrong = dict(rep.arcs)
    wrong[part.part(0)[0]] = rep.arcs[part.part(3)[0]]
    with pytest.raises(ValueError):
        pca_color(g, ArcRepresentation(rep.circumference, wrong))
    del wrong[part.part(0)[0]]
    with pytest.raises(ValueError):
        pca_color(g, ArcRepresentation(rep.circumference, wrong))


def _arc_coloring(g):
    cert = recognize_atom(g)
    arcs_of = bracelet_arcs if cert.kind == "bracelet" else emerald_arcs
    colors, k = pca_color(g, arcs_of(g, cert.partition))
    assert all(colors[u] != colors[v] for u, v in g.edges())
    assert max(colors) <= k
    return k


def test_seven_hole_blow_ups_need_seven_thirds():
    for t in range(6, 31):
        assert _arc_coloring(forge.gen_bracelet([t] * 7)) == -(-7 * t // 3), t


def test_uniform_emeralds():
    for t, chi in ((2, 8), (3, 11), (6, 22), (12, 44)):
        g = forge.gen_emerald({name: t for name in EmeraldPartition.ORDER})
        assert _arc_coloring(g) == chi, t


def test_twin_blow_ups_meet_the_stable_set_bound():
    # max(omega, ceil(n / alpha)) is a lower bound on chi, so meeting it
    # proves the coloring optimal; a clique blow-up keeps alpha
    rng = random.Random(8)
    for seed in range(60):
        base = (forge.random_bracelet if seed % 2 else forge.random_emerald)(seed)
        if base.n > 22:
            continue
        sizes = [rng.randint(1, 8) for _ in range(base.n)]
        g = blow_up(base, sizes)
        omega = brute_max_clique(base, sizes)[1]
        k = _arc_coloring(g)
        assert k <= 3 * omega // 2, seed
        assert k == max(omega, -(-g.n // brute_alpha(base))), seed


def test_realization_sweep_matches_the_intersection_graph():
    rng = random.Random(3)
    for seed in range(120):
        g = (forge.random_bracelet if seed % 2 else forge.random_emerald)(seed)
        cert = recognize_atom(g)
        rep = (bracelet_arcs if seed % 2 else emerald_arcs)(g, cert.partition)
        for _ in range(4):
            u, v = rng.sample(range(g.n), 2)
            wrong = dict(rep.arcs)
            if rng.random() < 0.5:
                wrong[u] = rep.arcs[v]  # moved
            else:
                wrong[u], wrong[v] = rep.arcs[v], rep.arcs[u]  # swapped
            bad = ArcRepresentation(rep.circumference, wrong)
            try:
                pca_color(g, bad)
                rejected = False
            except ValueError:
                rejected = True
            assert rejected == (realize(bad, g.n) != g), seed


def test_nested_family_is_rejected():
    # the short arc lies inside the long one: the edge is realized, but
    # the family is not proper
    g = Graph.build(2, [(0, 1)])
    rep = ArcRepresentation(10, {0: (0, 5), 1: (1, 2)})
    assert realize(rep, 2) == g and not is_proper(rep)
    with pytest.raises(ValueError, match="not proper"):
        pca_color(g, rep)


def _covers_circle(a, b, L):
    """Two closed arcs cover the circle iff each holds the other's start."""
    return (b[0] - a[0]) % L <= (a[1] - a[0]) % L and (a[0] - b[0]) % L <= (b[1] - b[0]) % L


def test_random_proper_families():
    # exact where no two arcs cover the circle; rejected where two do (the
    # cyclic form can miss there: arcs 0 and 2 below cover the circle, and
    # the five arcs need 4 colors, not the 5 the form would give)
    L = 19
    rep = ArcRepresentation(L, {0: (7, 2), 1: (13, 3), 2: (0, 8),
                                3: (7, 2), 4: (4, 9)})
    g = realize(rep, 5)
    assert is_proper(rep) and brute_chromatic(g) == 4
    with pytest.raises(ValueError, match="cover the circle"):
        pca_color(g, rep)
    rng = random.Random(2)
    for _ in range(3000):
        size = rng.randint(6, 30)
        L, arcs = size, {}
        for v in range(rng.randint(1, 9)):
            s, length = rng.randrange(size), rng.randrange(size)
            new = (s, (s + length) % size)
            arcs[v] = arcs[rng.randrange(v)] if v and rng.random() < 0.3 else new
        rep = ArcRepresentation(L, arcs)
        if not is_proper(rep):
            continue
        g = realize(rep, len(arcs))
        distinct = list(set(arcs.values()))
        if any(_covers_circle(a, b, L)
               for i, a in enumerate(distinct) for b in distinct[i + 1:]):
            with pytest.raises(ValueError, match="cover the circle"):
                pca_color(g, rep)
            continue
        colors, k = pca_color(g, rep)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert k == brute_chromatic(g), arcs


def test_large_twin_free_bracelet_colors_quickly():
    g = forge.gen_bracelet([1] * 7, {0: Staircase(range(200, 0, -1))})  # 407 vertices
    start = time.perf_counter()
    colors, k = min_coloring(g)
    assert time.perf_counter() - start < 2.5
    assert k == max(colors) and all(colors[u] != colors[v] for u, v in g.edges())


def test_canonical_embed_slots_need_nested_neighborhoods():
    g = forge.gen_bracelet([1] * 7, {0: Staircase((3, 2, 1))})
    part = recognize_atom(g).partition
    t, slot_of = canonical_embed(g, part)
    rot = lambda i: (part.i_star + i) % 7
    xs, ys = part.plus[rot(5)], part.minus[rot(0)]
    assert t == 3 and [slot_of[x][1] for x in xs] == [3, 2, 1]
    # y0 loses x1 while y1 keeps it: the y neighborhoods stop shrinking
    x1, y0 = xs[1], ys[0]
    rows = list(g.adj)
    rows[x1] &= ~(1 << y0)
    rows[y0] &= ~(1 << x1)
    with pytest.raises(RecognitionError, match="not nested"):
        canonical_embed(Graph(g.n, tuple(rows)), part)
