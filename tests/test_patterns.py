import itertools
import random
import time

from conftest import blow_up, complete, cycle, path, random_graph, split_graph
from p7c4c5 import forge
from p7c4c5.graph import Graph, mask_of
from p7c4c5.oracle import hole_census
from p7c4c5.patterns import (
    all_k_holes,
    class_membership,
    find_induced_path,
    find_k_hole,
    find_theta33,
)


def _is_hole(g, cyc):
    k = len(cyc)
    assert len(set(cyc)) == k
    for i in range(k):
        assert g.has_edge(cyc[i], cyc[(i + 1) % k])
    sub = g.induced(mask_of(cyc))
    assert sub.m == k


def _is_induced_path(g, p):
    assert len(set(p)) == len(p)
    sub = g.induced(mask_of(p))
    assert sub.m == len(p) - 1
    for i in range(len(p) - 1):
        assert g.has_edge(p[i], p[i + 1])


def test_path_and_hole_on_small_graphs():
    assert find_induced_path(path(7), 7) is not None
    assert find_induced_path(cycle(6), 7) is None
    assert find_k_hole(cycle(5), 5) == (0, 1, 2, 3, 4)
    assert find_k_hole(cycle(5), 4) is None
    assert find_k_hole(complete(6), 4) is None


def test_hole_counts_match_oracle():
    rng = random.Random(3)
    for _ in range(150):
        g = random_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.5, 0.7]))
        census = hole_census(g)
        for k in (4, 5, 6, 7):
            holes = list(all_k_holes(g, k))
            assert find_k_hole(g, k) == next(all_k_holes(g, k), None)
            assert len(holes) == census.get(k, 0), (g.edges(), k)
            assert len(set(holes)) == len(holes)
            for h in holes:
                _is_hole(g, h)


def test_found_paths_are_induced():
    rng = random.Random(4)
    for _ in range(150):
        g = random_graph(rng, rng.randint(4, 10), rng.choice([0.2, 0.4, 0.6]))
        for k in (4, 5, 6, 7):
            p = find_induced_path(g, k)
            if p is not None:
                assert len(p) == k
                _is_induced_path(g, p)


def test_theta33():
    # two hubs joined by three length-two paths
    g = Graph.build(8, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7),
                        (2, 5), (3, 6), (4, 7)])
    th = find_theta33(g)
    assert th is not None
    a, d, arms = th
    assert not g.has_edge(a, d)
    for (b, c) in arms:
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert find_theta33(cycle(6)) is None
    assert find_theta33(complete(5)) is None


def test_class_membership_verdicts():
    assert class_membership(cycle(7)).is_member  # 7-holes are allowed
    assert class_membership(cycle(6)).is_member
    assert not class_membership(cycle(4)).is_member
    assert not class_membership(cycle(5)).is_member
    assert not class_membership(path(7)).is_member
    assert class_membership(path(6)).is_member
    rep = class_membership(cycle(4))
    assert "c4" in rep.violations()


def test_membership_witnesses_are_real():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 10), rng.choice([0.2, 0.4, 0.6]))
        rep = class_membership(g)
        v = rep.violations()
        if "c4" in v:
            _is_hole(g, v["c4"])
            assert len(v["c4"]) == 4
        if "c5" in v:
            _is_hole(g, v["c5"])
            assert len(v["c5"]) == 5
        if "p7" in v:
            _is_induced_path(g, v["p7"])
            assert len(v["p7"]) == 7
        if rep.is_member:
            census = hole_census(g)
            assert 4 not in census and 5 not in census
            assert find_induced_path(g, 7) is None


def test_membership_survives_twin_blow_ups():
    rng = random.Random(6)
    for _ in range(150):
        g0 = random_graph(rng, rng.randint(4, 10), rng.choice([0.2, 0.4, 0.6]))
        g = blow_up(g0, [rng.randint(1, 3) for _ in range(g0.n)])
        rep, base = class_membership(g), class_membership(g0)
        assert rep.is_member == base.is_member, g0.edges()
        v = rep.violations()
        assert v.keys() == base.violations().keys(), g0.edges()
        for name, k in (("c4", 4), ("c5", 5)):
            if name in v:
                assert len(v[name]) == k
                _is_hole(g, v[name])
        if "p7" in v:
            assert len(v["p7"]) == 7
            _is_induced_path(g, v["p7"])


def test_large_twin_blow_ups_are_checked_on_the_quotient():
    assert class_membership(forge.gen_bracelet([14] * 7)).is_member  # C7[14]
    rep = class_membership(blow_up(cycle(5), [14] * 5))
    assert not rep.is_member
    assert rep.c5 == (0, 14, 28, 42, 56)  # the least member of each class


def _lex_least_patterns(g, sizes):
    """Brute force: {("path", k): lex-least induced path, ("hole", k):
    lex-least canonical k-hole} over the k-subsets of g, for k in sizes.
    A subset spans a path when it induces a connected graph with k - 1
    edges and no degree above two, and a hole when it induces a connected
    graph with every degree two (k >= 4)."""
    best = {}
    for k in sizes:
        for combo in itertools.combinations(range(g.n), k):
            s = mask_of(combo)
            # a path spans k - 1 edges and a hole k; skip the rest cheaply
            if not k - 1 <= sum((g.adj[v] & s).bit_count() for v in combo) // 2 <= k:
                continue
            sub = g.induced(s)
            deg = [sub.degree(v) for v in range(k)]
            if max(deg) > 2 or len(sub.components()) != 1:
                continue
            if sub.m == k - 1:
                kind, walk = "path", [deg.index(1)]  # the lesser end first
            elif sub.m == k and k >= 4:
                kind, walk = "hole", [0]  # least vertex, then lesser neighbor
            else:
                continue
            while len(walk) < k:
                walk.append(min(u for u in range(k) if sub.has_edge(walk[-1], u)
                                and u not in walk))
            seq = tuple(sub.vmap[v] for v in walk)
            if (kind, k) not in best or seq < best[(kind, k)]:
                best[(kind, k)] = seq
    return best


def test_witnesses_are_the_lex_least_patterns():
    rng = random.Random(14)
    for _ in range(1000):
        g0 = random_graph(rng, rng.randint(4, 10), rng.choice([0.2, 0.3, 0.45, 0.6, 0.8]))
        mult = [1] * g0.n  # double at least one vertex, to at most 11 vertices
        for v in rng.sample(range(g0.n), min(g0.n, max(10 - g0.n, 1))):
            mult[v] = 2
        for g in (g0, blow_up(g0, mult)):
            ref = _lex_least_patterns(g, (4, 5, 6, 7))
            rep = class_membership(g)
            assert (rep.p7, rep.c4, rep.c5) == (
                ref.get(("path", 7)), ref.get(("hole", 4)), ref.get(("hole", 5))), g.edges()
            assert rep.is_member == (rep.p7 is None and rep.c4 is None and rep.c5 is None)
            for k in (4, 5, 6, 7):
                assert find_induced_path(g, k) == ref.get(("path", k)), (g.edges(), k)


def test_membership_of_a_large_split_graph_is_quick():
    # a split graph has no C4, C5 or P7; each branch of the path search is
    # cut at its first two vertices
    g = split_graph(random.Random(7), 40, 160)
    start = time.perf_counter()
    rep = class_membership(g)
    assert time.perf_counter() - start < 1.5
    assert rep.is_member
