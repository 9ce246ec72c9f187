import itertools
import random

import pytest

from p7c4c5 import forge
from p7c4c5.forge import ForgeError, Staircase
from p7c4c5.graph import Graph
from p7c4c5.patterns import class_membership
from p7c4c5.recognize import EmeraldPartition, recognize_atom


def test_staircase_validation():
    Staircase((3, 2, 2, 1))
    with pytest.raises(ForgeError):
        Staircase((1, 2))  # must be non-increasing
    with pytest.raises(ForgeError):
        Staircase((2, -1))
    st = Staircase((2, 1))
    assert st.rows == 2 and st.cols == 2
    assert st.edges([10, 11], [20, 21]) == [(10, 20), (10, 21), (11, 20)]
    with pytest.raises(ForgeError):
        st.edges([10], [20, 21])  # row count mismatch
    with pytest.raises(ForgeError):
        st.edges([10, 11], [20])  # wider than the column part


def test_gen_bracelet_validation():
    with pytest.raises(ForgeError):
        forge.gen_bracelet([1] * 6)
    with pytest.raises(ForgeError):
        forge.gen_bracelet([1, 1, 1, 0, 1, 1, 1])
    with pytest.raises(ForgeError):
        forge.gen_bracelet([1] * 7, {3: Staircase((1,))})
    g = forge.gen_bracelet([1] * 7)
    assert g.n == 7 and recognize_atom(g).kind == "bracelet"


def test_gen_bracelet_pivot_rotation():
    for i_star in range(7):
        g = forge.gen_bracelet([2, 1, 1, 1, 1, 1, 2],
                               {0: Staircase((2, 1)), 2: Staircase((1,))},
                               i_star=i_star)
        cert = recognize_atom(g)
        assert cert.kind == "bracelet"


def test_gen_emerald_validation():
    sizes = {k: 1 for k in EmeraldPartition.ORDER}
    g = forge.gen_emerald(sizes)
    assert g.n == 11 and g.m == 22
    assert recognize_atom(g).kind == "emerald"
    with pytest.raises(ForgeError):
        forge.gen_emerald({k: 1 for k in EmeraldPartition.ORDER[:-1]})
    with pytest.raises(ForgeError):
        forge.gen_emerald(dict(sizes, c=0))


def test_gen_lantern_validation():
    with pytest.raises(ForgeError):
        forge.gen_lantern(1, 1, [(1, 1), (1, 1)])  # too few arms
    with pytest.raises(ForgeError):
        forge.gen_lantern(0, 1, [(1, 1)] * 3)
    with pytest.raises(ForgeError):
        forge.gen_lantern(1, 1, [(2, 2)] * 3, wavy=Staircase((2, 0)))
    g = forge.gen_lantern(2, 1, [(2, 2), (1, 1), (1, 2)], wavy=Staircase((2, 1)))
    assert recognize_atom(g).kind == "lantern"


def test_gen_ring_and_wreath():
    g = forge.gen_wreath([2, 1, 1, 2, 1, 1])
    assert recognize_atom(g).kind == "wreath"
    with pytest.raises(ForgeError):
        forge.gen_ring6([1, 1, 1, 1, 1])
    with pytest.raises(ForgeError):
        forge.gen_ring6([2, 1, 1, 1, 1, 1], [Staircase((1,))] * 6)


def test_gen_crown_validation():
    g = forge.gen_crown([1] * 6, [0, 0, 0, 1, 1, 1])
    assert recognize_atom(g).kind == "crown"
    with pytest.raises(ForgeError):
        forge.gen_crown([1] * 6, [1, 0, 0, 1, 1, 1])
    with pytest.raises(ForgeError):
        forge.gen_crown([1] * 6, [0, 0, 0, 0, 1, 1])


def test_add_universal_clique():
    g = forge.add_universal_clique(Graph.build(3, [(0, 1)]), 2)
    assert g.n == 5
    assert all(g.has_edge(u, v) for u in (3, 4) for v in range(3))
    assert g.has_edge(3, 4)


def test_glue_checks_membership():
    c7 = forge.gen_bracelet([1] * 7)
    k4 = Graph.build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    # identifying a K4 corner with a hole vertex threads a long path
    with pytest.raises(ForgeError):
        forge.glue(c7, k4, [0], [0])
    k3 = Graph.build(3, [(0, 1), (0, 2), (1, 2)])
    g = forge.glue(k3, k3, [0, 1], [0, 1])
    assert g.n == 4 and class_membership(g).is_member


def test_glue_rejects_non_cliques():
    p3 = Graph.build(3, [(0, 1), (1, 2)])
    with pytest.raises(ForgeError):
        forge.glue(p3, p3, [0, 2], [0, 2])
    with pytest.raises(ForgeError):
        forge.glue(p3, p3, [0, 0], [0, 1])  # a vertex listed twice


def test_combinators_match_edge_lists():
    rng = random.Random(7)
    for _ in range(30):
        g1, g2 = forge.random_atom(rng), forge.random_atom(rng)
        k = rng.randint(0, 3)
        joined = Graph.build(g1.n + k, g1.edges()
                             + list(itertools.combinations(range(g1.n, g1.n + k), 2))
                             + [(u, v) for u in range(g1.n) for v in range(g1.n, g1.n + k)])
        assert forge.add_universal_clique(g1, k) == joined
        v1, v2 = rng.randrange(g1.n), rng.randrange(g2.n)
        rest = [v for v in range(g2.n) if v != v2]
        trans = {v2: v1, **{v: g1.n + i for i, v in enumerate(rest)}}
        glued = Graph.build(g1.n + len(rest), set(g1.edges()) | {
            tuple(sorted((trans[u], trans[v]))) for u, v in g2.edges()})
        assert forge.glue(g1, g2, [v1], [v2], check=False) == glued


def test_generators_are_deterministic():
    for gen in (forge.random_bracelet, forge.random_emerald,
                forge.random_lantern, forge.random_wreath,
                forge.random_ring, forge.random_crown, forge.random_atom,
                forge.random_member_graph):
        for seed in (0, 5, 17):
            assert gen(seed) == gen(seed)


def test_random_members_are_members():
    for seed in range(40):
        g = forge.random_member_graph(seed)
        assert class_membership(g).is_member
