import random

import pytest

from conftest import cycle, random_chordal, random_graph, random_mask
from p7c4c5.chordal import (
    NotChordalError,
    chordal_coloring,
    chordal_max_weight_clique,
    chordal_mwis,
    find_hole,
    is_chordal,
    minimal_triangulation,
    perfect_elimination_order,
    require_peo,
)
from p7c4c5.graph import Graph, mask_of
from p7c4c5.oracle import (
    brute_chromatic,
    brute_is_chordal,
    brute_max_clique,
    brute_mwis,
)


def test_chordality_agrees_with_oracle():
    rng = random.Random(1)
    for _ in range(250):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert is_chordal(g) == brute_is_chordal(g), g.edges()
        # on a mask: the verdict of the induced copy
        mask = random_mask(rng, g)
        verdict = perfect_elimination_order(g, mask) is not None
        assert verdict == brute_is_chordal(g.induced(mask)), (g.edges(), mask)


def test_peo_is_perfect():
    rng = random.Random(2)
    for _ in range(150):
        g = random_chordal(rng, rng.randint(1, 14))
        # an induced subgraph of a chordal graph is chordal
        for mask in (g.all_mask, random_mask(rng, g)):
            peo = perfect_elimination_order(g, mask)
            assert peo is not None and sorted(peo) == [v for v in range(g.n) if mask >> v & 1]
            seen = 0
            for v in peo:
                seen |= 1 << v
                later = g.adj[v] & mask & ~seen
                assert g.is_clique(later)


def test_hole_witness_is_a_hole():
    rng = random.Random(3)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 10), 0.4)
        if is_chordal(g):
            continue
        found += 1
        with pytest.raises(NotChordalError) as exc:
            require_peo(g)
        assert_hole(g, exc.value.hole, g.all_mask)
    assert found > 30
    masked = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 14), 0.4)
        mask = random_mask(rng, g)
        if is_chordal(g.induced(mask)):
            continue
        masked += 1
        with pytest.raises(NotChordalError) as exc:
            require_peo(g, mask)
        assert_hole(g, exc.value.hole, mask)
    assert masked > 30


def assert_hole(g, hole, mask):
    """*hole* lies inside *mask* and induces a cycle of length >= 4 in g."""
    assert len(hole) >= 4 and mask_of(hole) & ~mask == 0
    for i, v in enumerate(hole):
        assert g.adj[v] & mask_of(hole) == mask_of([hole[i - 1], hole[(i + 1) % len(hole)]])


def test_find_hole_none_on_chordal():
    rng = random.Random(4)
    for _ in range(60):
        g = random_chordal(rng, rng.randint(1, 12))
        assert find_hole(g) is None


def test_minimal_triangulation_fills_to_chordal():
    rng = random.Random(5)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.4, 0.6]))
        fill, meo = minimal_triangulation(g)
        assert sorted(meo) == list(range(g.n))
        filled = Graph.build(g.n, g.edges() + sorted(fill))
        assert is_chordal(filled)
        if is_chordal(g):
            assert not fill


def test_chordal_mwis_matches_oracle():
    rng = random.Random(6)
    for _ in range(200):
        g = random_chordal(rng, rng.randint(1, 13))
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = chordal_mwis(g, w)
        assert g.is_stable(mask_of(members))
        assert sum(w[v] for v in members) == val
        assert val == brute_mwis(g, w)[1], (g.edges(), w)
        # on a mask: the same call on the induced copy, mapped back
        mask = random_mask(rng, g)
        h = g.induced(mask)
        ref, ref_val = chordal_mwis(h, [w[u] for u in h.vmap])
        assert chordal_mwis(g, w, mask) == (sorted(h.vmap[v] for v in ref), ref_val)


def test_chordal_clique_matches_oracle():
    rng = random.Random(7)
    for _ in range(200):
        g = random_chordal(rng, rng.randint(1, 13))
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = chordal_max_weight_clique(g, w)
        assert g.is_clique(mask_of(members))
        assert val == brute_max_clique(g, w)[1], (g.edges(), w)
        u_members, u_val = chordal_max_weight_clique(g)
        assert u_val == brute_max_clique(g)[1]
        # on a mask: the same call on the induced copy, mapped back
        mask = random_mask(rng, g)
        h = g.induced(mask)
        ref, ref_val = chordal_max_weight_clique(h, [w[u] for u in h.vmap])
        got = chordal_max_weight_clique(g, w, mask)
        assert got == (sorted(h.vmap[v] for v in ref), ref_val)


def test_chordal_coloring_is_optimal():
    rng = random.Random(8)
    for _ in range(150):
        g = random_chordal(rng, rng.randint(1, 13))
        colors = chordal_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        if g.n:
            assert max(colors) == brute_chromatic(g)


def test_chordal_routines_reject_holes():
    with pytest.raises(NotChordalError):
        chordal_coloring(cycle(5))
    with pytest.raises(NotChordalError):
        chordal_mwis(cycle(4), [1, 1, 1, 1])
