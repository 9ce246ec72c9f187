import random
from fractions import Fraction

import pytest

from conftest import cycle, member_corpus, split_graph
from p7c4c5 import forge
from p7c4c5.chordal import is_chordal
from p7c4c5.graph import mask_of
from p7c4c5.oracle import (
    brute_alpha,
    brute_chromatic,
    brute_max_clique,
    brute_mwis,
)
from p7c4c5.recognize import recognize_atom
from p7c4c5.solvers import (
    clique_number,
    color_atom,
    greedy_color_lantern,
    greedy_color_ring,
    max_stable_set,
    max_weight_clique,
    min_coloring,
    mwis,
    subatom_mwis,
)


def test_min_coloring_rejects_non_members():
    with pytest.raises(ValueError):
        min_coloring(cycle(4))
    with pytest.raises(ValueError):
        min_coloring(cycle(5))


def test_min_coloring_matches_oracle():
    for g in member_corpus(seed=100, count=120, target=12):
        colors, k = min_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert k == brute_chromatic(g), g.edges()
        assert min(colors) >= 1 and max(colors) == k


def test_min_coloring_twin_free_split_graph():
    # twin-free with many atoms, all cliques; chordal, so chi = omega
    g = split_graph(random.Random(3), 60, 120)
    colors, k = min_coloring(g)
    assert all(colors[u] != colors[v] for u, v in g.edges())
    assert k == max(colors) == clique_number(g) == 60


def test_mwis_matches_oracle():
    rng = random.Random(101)
    for g in member_corpus(seed=101, count=120, target=12):
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = mwis(g, w)
        assert g.is_stable(mask_of(members))
        assert sum(w[v] for v in members) == val
        assert val == brute_mwis(g, w)[1], (g.edges(), w)


def test_mwis_fraction_weights():
    rng = random.Random(102)
    for g in member_corpus(seed=102, count=30, target=10):
        w = [Fraction(rng.randint(-10, 19), rng.randint(1, 7)) for _ in range(g.n)]
        members, val = mwis(g, w)
        assert sum(w[v] for v in members) == val
        assert val == brute_mwis(g, w)[1]


def test_max_weight_clique_matches_oracle():
    rng = random.Random(103)
    for g in member_corpus(seed=103, count=120, target=12):
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = max_weight_clique(g, w)
        assert g.is_clique(mask_of(members))
        assert val == brute_max_clique(g, w)[1], (g.edges(), w)
        assert clique_number(g) == brute_max_clique(g)[1]


def test_max_stable_set_unit():
    for g in member_corpus(seed=104, count=60, target=12):
        members, val = max_stable_set(g)
        assert val == len(members) == brute_alpha(g)


def test_deleted_neighborhood_is_chordal_on_atoms():
    for seed in range(60):
        g = forge.random_atom(seed)
        if g.n > 40:
            continue
        for v in range(g.n):
            assert is_chordal(g.induced(g.all_mask & ~g.closed(v))), (seed, v)


def test_subatom_mwis_on_atoms():
    rng = random.Random(105)
    for seed in range(80):
        g = forge.random_atom(seed)
        if g.n > 20:
            continue
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = subatom_mwis(g, w)
        assert g.is_stable(mask_of(members))
        assert val == brute_mwis(g, w)[1], seed


def test_greedy_lantern_uses_exactly_omega_colors():
    for seed in range(40):
        g = forge.random_lantern(seed)
        cert = recognize_atom(g)
        omega = brute_max_clique(g)[1] if g.n <= 22 else clique_number(g)
        colors = greedy_color_lantern(g, cert.partition, omega)
        assert all(colors[u] != colors[v] for u, v in g.edges()), seed
        assert max(colors) == omega
        assert len(set(colors)) == omega


def test_greedy_ring_uses_exactly_omega_colors():
    for seed in range(40):
        for gen in (forge.random_wreath, forge.random_crown):
            g = gen(seed)
            cert = recognize_atom(g)
            ring = cert.partition.ring if cert.kind == "wreath" else cert.partition.ring()
            omega = brute_max_clique(g)[1] if g.n <= 22 else clique_number(g)
            colors = greedy_color_ring(g, ring, omega)
            assert all(colors[u] != colors[v] for u, v in g.edges()), seed
            assert max(colors) == omega
            assert len(set(colors)) == omega


def test_color_atom_every_kind():
    for seed in range(60):
        g = forge.random_atom(seed)
        cert = recognize_atom(g)
        colors = color_atom(g, cert)
        assert all(colors[u] != colors[v] for u, v in g.edges()), seed
        if g.n <= 16:
            assert max(colors) == brute_chromatic(g), seed


def test_alpha_of_bracelets_and_emeralds_is_three():
    # parts pairwise meet within distance <= 3 on a 7-ring, so a stable
    # set picks at most one vertex from at most three parts
    for seed in range(30):
        for gen in (forge.random_bracelet, forge.random_emerald):
            g = gen(seed)
            members, val = max_stable_set(g)
            assert val == 3, (seed, val)


def test_chromatic_bound_three_halves_omega():
    for g in member_corpus(seed=106, count=80, target=12):
        _, k = min_coloring(g)
        w = clique_number(g)
        assert k <= (3 * w) // 2
