import random

import pytest

from conftest import blow_up, complete, cycle, path, random_graph, split_graph
from p7c4c5 import forge
from p7c4c5.cutset import (
    atoms,
    decompose,
    has_clique_cutset,
    merge_colorings,
    tree_violations,
)
from p7c4c5.graph import Graph, bit_list, bits, mask_of
from p7c4c5.oracle import brute_chromatic


def _check_cut(g, res):
    s, a, b = res
    assert g.is_clique(s)
    assert a and b
    assert (s | a | b) == g.all_mask
    assert not (s & a) and not (s & b) and not (a & b)
    assert g.is_anticomplete_to(a, b)


def _reference_has_cutset(g):
    """Exponential check: does any clique separate the graph?"""
    if len(g.components()) > 1:
        return True
    import itertools

    for r in range(0, g.n - 1):
        for sub in itertools.combinations(range(g.n), r):
            s = mask_of(sub)
            if not g.is_clique(s):
                continue
            if len(g.components(within=g.all_mask & ~s)) > 1:
                return True
    return False


def test_atoms_and_cuts_small():
    assert has_clique_cutset(complete(5)) is None
    assert has_clique_cutset(cycle(6)) is None
    res = has_clique_cutset(path(5))
    assert res is not None
    _check_cut(path(5), res)


def test_per_vertex_scan_alone_can_miss():
    # three disjoint edges cross-linked so that {0,1} is the only clique
    # cutset; no vertex's deleted neighborhood reveals it
    g = Graph.build(6, [(0, 1), (2, 3), (4, 5), (2, 0), (3, 1), (4, 0), (5, 1)])
    res = has_clique_cutset(g)
    assert res is not None
    _check_cut(g, res)
    assert bit_list(res[0]) == [0, 1]


def test_cutset_detection_matches_reference():
    rng = random.Random(1)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
        res = has_clique_cutset(g)
        assert (res is not None) == _reference_has_cutset(g), g.edges()
        if res is not None and len(g.components()) == 1:
            _check_cut(g, res)


def test_decompose_tree_invariants():
    # the tree kept for the benchmark's workload description has the
    # atoms as its leaves, in split order
    rng = random.Random(2)
    for _ in range(250):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6, 0.8]))
        pairs = atoms(g)
        assert tree_violations(g, pairs) == []
        assert [leaf.mask for leaf in decompose(g).leaves()] == [atom for _s, atom in pairs]


def test_leaves_are_the_atoms():
    rng = random.Random(8)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6, 0.8]))
        pairs = atoms(g)
        assert tree_violations(g, pairs) == []
        masks = [atom for _s, atom in pairs]
        for atom in masks:
            assert not _reference_has_cutset(g.induced(atom)), g.edges()
        for i, a in enumerate(masks):
            assert all(a & ~b for j, b in enumerate(masks) if j != i), g.edges()


def _m(*vs):
    return mask_of(vs)


@pytest.mark.parametrize("g,pairs,want", [
    # the 4-hole 0-1-2-3 cut along its diagonal {0, 2}, not an edge
    (cycle(4), [(_m(0, 2), _m(0, 1, 2)), (0, _m(0, 2, 3))], "cutset [0, 2] is not a clique"),
    # the path 0-1-2 with 0 split off by an empty cutset, though 0 sees 1
    (path(3), [(0, _m(0)), (0, _m(1, 2))], "cutset does not separate its atom from the rest"),
    # the path 0-1-2 kept whole: {1} still cuts it
    (path(3), [(0, _m(0, 1, 2))], "atom [0, 1, 2] has a clique cutset"),
    # the path 0-1-2 with the edge 0-1 in no atom
    (path(3), [(0, _m(0)), (0, _m(1, 2))], "some edge appears in no atom"),
    # one vertex listed as two atoms
    (path(1), [(0, _m(0)), (0, _m(0))], "too many atoms: 2"),
    (path(1), [(0, _m(0)), (0, _m(0))], "degenerate split"),
    # a cutset outside its atom
    (path(3), [(_m(2), _m(0, 1)), (0, _m(1, 2))], "atom and cutset do not nest in the remainder"),
    # the last atom is not what the splits leave
    (path(3), [(_m(1), _m(0, 1)), (0, _m(1))], "the last atom is not the remainder"),
    # two isolated vertices, one left out
    (Graph(2, (0, 0)), [(0, _m(0))], "atoms do not cover the graph"),
], ids=["not-clique", "not-separating", "not-atom", "edge-missed", "too-many",
        "degenerate", "not-nested", "last", "uncovered"])
def test_tree_violations_catch_tampered_atom_lists(g, pairs, want):
    assert tree_violations(g, atoms(g)) == []
    assert want in tree_violations(g, pairs)
    # with a copy of each atom, as verify passes the copies of its walk
    assert want in tree_violations(g, pairs, [g.induced(atom) for _s, atom in pairs])


def test_tree_violations_pass_the_walks_own_atoms():
    # verify checks the atoms of its certify walk, lifted from the twin
    # quotient class by class, on the walk's copies; a split walk's atoms
    # are those of atoms(g)
    from p7c4c5.solvers import color_walk, member_walk

    rng = random.Random(11)
    graphs = [forge.random_member_graph(seed, 40) for seed in range(40)]
    for _ in range(20):
        base = forge.random_member_graph(rng.randrange(1000), 15)
        graphs.append(blow_up(base, [rng.randint(1, 3) for _ in range(base.n)]))
    for g in graphs:
        classes, entries = member_walk(g)
        pairs = color_walk(g, classes, entries)[2]
        assert tree_violations(g, pairs, [sub for _s, _a, sub, _c in entries]) == []
        assert len(pairs) == 1 or pairs == atoms(g)


def test_twin_blow_up_lifts_the_atoms():
    rng = random.Random(9)
    for _ in range(150):
        base = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        mult = [rng.randint(1, 3) for _ in range(base.n)]
        g = blow_up(base, mult)
        first = [sum(mult[:v]) for v in range(base.n)]

        def lift(mask):
            return mask_of(first[v] + i for v in bits(mask) for i in range(mult[v]))

        want = sorted(lift(atom) for _s, atom in atoms(base))
        assert sorted(atom for _s, atom in atoms(g)) == want, base.edges()


def test_large_inputs_decompose_without_size_switch():
    stair = forge.Staircase((18,) * 6 + (12,) * 6 + (6,) * 6)
    bracelet = forge.gen_bracelet([54, 72, 72, 36, 36, 36, 36], {0: stair, 1: stair, 2: stair})
    split = split_graph(random.Random(5), 70, 160)
    assert bracelet.n > 400 and split.n == 230
    for g in (bracelet, split):
        assert tree_violations(g, atoms(g)) == []


def test_merge_colorings_produces_proper_optimal():
    from p7c4c5.chordal import is_chordal

    rng = random.Random(3)
    done = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.3, 0.5]))
        if not is_chordal(g):
            continue
        done += 1
        pairs = atoms(g)
        # every atom of a chordal graph is a clique, colored 1..|atom|
        colorings = [list(range(1, atom.bit_count() + 1)) for _s, atom in pairs]
        colors = merge_colorings(g, pairs, colorings)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert max(colors) == brute_chromatic(g)
    assert done > 100
    # two cutset vertices with one color: the cutset is a clique, so no
    # permutation can make the atoms agree on it
    diamond = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    pairs = atoms(diamond)
    assert [s for s, _atom in pairs] == [0b11, 0]
    with pytest.raises(ValueError, match="inconsistent cutset colors"):
        merge_colorings(diamond, pairs, [[1, 1, 2], [1, 2, 3]])
