import importlib.util
import random
import sys
from pathlib import Path

import pytest

import p7c4c5
from conftest import (blow_up, complete, cycle, nested_union, path, random_chordal, random_graph,
                      split_graph)
from p7c4c5 import forge
from p7c4c5.chordal import perfect_elimination_order
from p7c4c5.cutset import (
    atoms,
    decompose,
    has_clique_cutset,
    merge_colorings,
    tree_violations,
)
from p7c4c5.graph import Graph, bit_list, bits, mask_of
from p7c4c5.oracle import brute_chromatic
from p7c4c5.recognize import ChordalCoreError, RecognitionError, recognize_atom


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


def _workload_builders():
    """The benchmark's workload builders (bench/workloads.py), loaded by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _chordal_quotients():
    """Twin-free chordal graphs: the quotients of random chordal graphs and
    split graphs, and every chordal quotient or atom (as its quotient)
    that the certify walk meets on the three benchmark workloads, seeds
    1 to 3."""
    rng = random.Random(32)
    graphs = [random_chordal(rng, rng.randint(1, 40), rng.choice([0.1, 0.3, 0.7]))
              for _ in range(300)]
    graphs += [split_graph(rng, rng.randint(1, 12), rng.randint(0, 30)) for _ in range(100)]
    for build in _workload_builders().values():
        for seed in (1, 2, 3):
            for inst in build(p7c4c5, seed).instances:
                q = inst.graph.twin_decomposition()[1]
                graphs += [q] + [q.induced(atom) for _s, atom in atoms(q)]
    for g in graphs:
        q = g.twin_decomposition()[1]
        if perfect_elimination_order(q) is not None:
            yield q


def test_atoms_by_a_verified_order_match_the_mcs_m_split():
    # a chordal graph is its own minimal triangulation, and MCS-M visits
    # it in MCS's least-id order: splitting by the order that recognition
    # verified gives the same (cutset, atom) pairs as the MCS-M pass
    seen = orders = 0
    for q in _chordal_quotients():
        peo = perfect_elimination_order(q)
        try:
            recognize_atom(q)
        except ChordalCoreError as exc:
            assert exc.peo == peo
            orders += 1
        except RecognitionError:
            pass  # a disconnected core: no order is attached
        assert atoms(q, peo) == atoms(q)
        seen += 1
    assert seen > 1000 and orders > 300


def test_only_a_twin_free_chordal_graph_carries_its_order():
    # with twins, recognition tests the least member of each class, and
    # atoms, which splits the twin quotient, reads no order of g
    g = blow_up(path(5), [1, 2, 1, 1, 1])
    with pytest.raises(ChordalCoreError) as info:
        recognize_atom(g)
    assert info.value.peo is None
    with pytest.raises(ValueError, match="twin-free"):
        atoms(g, perfect_elimination_order(g))


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


def test_the_hub_split_lists_the_atoms_of_the_mcs_m_split():
    # a universal vertex of a twin-free quotient whose removal disconnects
    # it is a clique cutset: the walk splits there with no MCS-M pass,
    # each component an atom or split on its own copy, and its (cutset,
    # atom) pairs are those of atoms(q), in the same order
    from p7c4c5.solvers import certify_atoms

    rng = random.Random(34)
    graphs = [nested_union(rng, rng.randint(0, 2)) for _ in range(60)]
    deep = _workload_builders()["deep"]
    graphs += [inst.graph for seed in (1, 2, 3) for inst in deep(p7c4c5, seed).instances]
    hub_walks = 0
    for g in graphs:
        q = g.twin_decomposition()[1]
        entries = certify_atoms(q)[0]
        assert [(s, atom) for s, atom, _sub, _cert in entries] == atoms(q), g.edges()
        hub_walks += any(sub is not None and sub.n < atom.bit_count()
                         for _s, atom, sub, _cert in entries)
    assert hub_walks > 60


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
    # the clique atom {0, 1, 3} keeps its cutset's colors and gives vertex
    # 3 the first free one, after a listed or an unlisted last atom
    assert merge_colorings(diamond, pairs, [None, None]) == [1, 2, 3, 3]
    assert merge_colorings(diamond, pairs, [None, [3, 1, 2]]) == [3, 1, 2, 2]
    with pytest.raises(ValueError, match="inconsistent cutset colors"):
        merge_colorings(diamond, pairs, [None, [1, 1, 2]])
