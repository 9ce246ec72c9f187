import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, cycle, random_graph
from p7c4c5.graph import (
    Graph,
    GraphError,
    bit_list,
    bits,
    mask_of,
    read_dimacs,
    write_dimacs,
)


def test_build_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.build(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.build(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.build(2, [(-1, 0)])


def test_basic_accessors():
    g = Graph.build(4, [(0, 1), (1, 2), (1, 2)])
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert bit_list(g.closed(1)) == [0, 1, 2]


def test_clique_and_stable_checks():
    g = complete(4)
    assert g.is_clique(g.all_mask)
    assert not g.is_stable(mask_of([0, 1]))
    h = Graph.build(4, [])
    assert h.is_stable(h.all_mask)


def test_induced_and_vmap():
    g = cycle(5)
    sub = g.induced(mask_of([0, 1, 3]))
    assert sub.n == 3
    assert sub.edges() == [(0, 1)]
    assert [sub.vmap[v] for v in range(3)] == [0, 1, 3]
    same = g.induced(g.all_mask)
    assert same == g and same.vmap == tuple(range(5))


def test_components_and_anticomponents():
    g = Graph.build(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert len(comps) == 3
    assert comps[0] == mask_of([0, 1])
    anti = complete(3).anticomponents()
    assert len(anti) == 3


def test_twin_decomposition_groups_true_twins():
    # blow-up of a path a-b-c into cliques {0,1}, {2,3}, {4}
    g = Graph.build(5, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3),
                        (2, 4), (3, 4)])
    classes, sk, class_of = g.twin_decomposition()
    assert sorted(sorted(c) for c in classes) == [[0, 1], [2, 3], [4]]
    assert sk.n == 3 and sk.m == 2
    assert class_of[0] == class_of[1] and class_of[2] == class_of[3]
    assert class_of[0] != class_of[4]


def test_universal_clique_peel():
    g = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    u, core = g.universal_clique_peel()
    assert bit_list(u) == [0, 1]
    assert bit_list(core) == [2, 3]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**30))
def test_complement_involution(n, seed):
    g = random_graph(random.Random(seed), n, 0.5)
    assert g.complement().complement() == g


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**30))
def test_dimacs_round_trip(n, seed):
    g = random_graph(random.Random(seed), n, 0.4)
    assert read_dimacs(write_dimacs(g)) == g


def test_dimacs_errors():
    with pytest.raises(GraphError):
        read_dimacs("e 1 2\n")
    with pytest.raises(GraphError):
        read_dimacs("p edge 2 1\ne 1 3\n")
    with pytest.raises(GraphError):
        read_dimacs("p edge 2 0\np edge 2 0\n")


def test_dimacs_rejects_negative_vertex_count():
    with pytest.raises(GraphError, match="line 2: negative vertex count"):
        read_dimacs("c comment\np edge -3 0\n")


def test_dimacs_rejects_wrong_header_edge_count():
    with pytest.raises(GraphError, match="line 1: header declares 7 edges, found 2"):
        read_dimacs("p edge 3 7\ne 1 2\ne 2 3\n")
    with pytest.raises(GraphError, match="line 1: header declares 1 edges, found 2"):
        read_dimacs("p edge 3 1\ne 1 2\ne 2 3\n")


def test_dimacs_rejects_repeated_edge():
    with pytest.raises(GraphError, match="line 4: repeated edge 1 2"):
        read_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 2\n")
    with pytest.raises(GraphError, match="line 3: repeated edge 2 3"):
        read_dimacs("p edge 3 3\ne 2 3\ne 3 2\ne 1 2\n")


def test_bits_round_trip():
    m = mask_of([0, 5, 63, 200])
    assert list(bits(m)) == [0, 5, 63, 200]
