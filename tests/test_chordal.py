import random

import pytest

from conftest import blow_up, cycle, random_chordal, random_graph, random_mask
from p7c4c5 import forge
from p7c4c5.chordal import (
    NotChordalError,
    chordal_max_weight_clique,
    chordal_mwis,
    find_hole,
    is_chordal,
    mcs_order,
    minimal_triangulation,
    perfect_elimination_order,
    require_peo,
)
from p7c4c5.cutset import atoms
from p7c4c5.graph import Graph, bits, mask_of
from p7c4c5.oracle import (
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


def test_minimal_triangulation_fill_is_minimal():
    # a triangulation is minimal iff dropping any one fill edge leaves a
    # hole (Rose, Tarjan & Lueker, SIAM J. Comput. 1976)
    rng = random.Random(9)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 14), rng.choice([0.15, 0.3, 0.5, 0.7]))
        fill = sorted(minimal_triangulation(g)[0])
        for e in fill:
            rest = [f for f in fill if f != e]
            assert not is_chordal(Graph.build(g.n, g.edges() + rest)), (g.edges(), e)
    for _ in range(60):
        g = random_chordal(rng, rng.randint(1, 20))
        fill, meo = minimal_triangulation(g)
        assert not fill
        assert meo == mcs_order(g)[0][::-1]


def reference_triangulation(g):
    """MCS-M with one weight per vertex, a dict of weight levels, and a
    search that ends only when it has expanded every vertex it met."""
    adj = g.adj
    weight = [0] * g.n
    level = {0: g.all_mask} if g.n else {}
    unnumbered = g.all_mask
    fill, order = set(), []
    for _ in range(g.n):
        top = max(level)
        zbit = level[top] & -level[top]
        z = zbit.bit_length() - 1
        order.append(z)
        unnumbered ^= zbit
        level[top] ^= zbit
        if not level[top]:
            del level[top]
        reached = gain = adj[z] & unnumbered
        expanded = lighter = 0
        for w in sorted(level):
            if not reached & ~expanded:
                break
            lighter |= level[w]
            frontier = reached & lighter & ~expanded
            while frontier:
                expanded |= frontier
                nxt = 0
                for u in bits(frontier):
                    nxt |= adj[u]
                nxt &= unnumbered & ~reached
                reached |= nxt
                gain |= nxt & ~lighter
                frontier = nxt & lighter
        for y in bits(gain):
            w = weight[y]
            level[w] ^= 1 << y
            if not level[w]:
                del level[w]
            level[w + 1] = level.get(w + 1, 0) | 1 << y
            weight[y] = w + 1
        for y in bits(gain & ~adj[z]):
            fill.add((min(y, z), max(y, z)))
    order.reverse()
    return fill, order


def reference_atoms(g):
    """The atoms walk on the twin quotient, with the reference
    triangulation, ``is_clique`` on each madj and a lift through every
    class."""
    classes, q, _ = g.twin_decomposition()

    def lifted(mask):
        return mask_of(v for i in bits(mask) for v in classes[i])

    fill, meo = reference_triangulation(q)
    h = Graph.build(q.n, q.edges() + sorted(fill))
    madj, later = [0] * q.n, 0
    for x in reversed(meo):
        madj[x] = h.adj[x] & later
        later |= 1 << x
    out, rem = [], q.all_mask
    for x, prev in zip(meo, meo[1:]):
        s = madj[x]
        if not rem >> x & 1 or s.bit_count() > madj[prev].bit_count() or not q.is_clique(s):
            continue
        c = q.component_of(x, rem & ~s)
        if c | s != rem:
            rem &= ~c
            out.append((lifted(s), lifted(c | s)))
    return out + [(0, lifted(rem))]


def triangulation_corpus():
    rng = random.Random(10)
    out = [Graph.build(0, [])]
    for density in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
        out += [random_graph(rng, rng.randint(1, 40), density) for _ in range(40)]
    for _ in range(40):
        base = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6]))
        out.append(blow_up(base, [rng.randint(1, 4) for _ in range(base.n)]))
    out += [forge.random_atom(seed) for seed in range(60)]
    out += [forge.random_member_graph(seed, target=30) for seed in range(30)]
    return out


def test_minimal_triangulation_and_atoms_match_the_reference():
    for g in triangulation_corpus():
        fill, meo = minimal_triangulation(g)
        assert (fill, meo) == reference_triangulation(g), g.edges()
        assert atoms(g) == reference_atoms(g), g.edges()


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


def test_chordal_routines_reject_holes():
    with pytest.raises(NotChordalError):
        chordal_mwis(cycle(4), [1, 1, 1, 1])
