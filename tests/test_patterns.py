import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (blow_up, complete, cycle, glued_bracelets, induces_pattern, path,
                      random_graph, split_graph)
from p7c4c5 import forge
from p7c4c5.cutset import atoms
from p7c4c5.graph import Graph, mask_of
from p7c4c5.oracle import hole_census
from p7c4c5.patterns import (
    all_k_holes,
    class_membership,
    crossing_p7,
    find_induced_path,
    find_k_hole,
    find_theta33,
    pattern_sweep,
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
            sweep, rep = pattern_sweep(g), class_membership(g)
            assert (sweep.p7, sweep.c4, sweep.c5) == (
                ref.get(("path", 7)), ref.get(("hole", 4)), ref.get(("hole", 5))), g.edges()
            # membership names the lex-least holes; its P7 is the least of
            # the failed atoms' and the one across a split, the lex-least
            # on a one-atom input
            assert (rep.c4, rep.c5) == (sweep.c4, sweep.c5), g.edges()
            assert (rep.p7 is None) == (sweep.p7 is None), g.edges()
            assert rep.p7 is None or induces_pattern(g, "p7", rep.p7), g.edges()
            if len(atoms(g)) == 1:
                assert rep.p7 == sweep.p7, g.edges()
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


def _planted(rng, g, key):
    """(g with the pattern *key* induced on random vertices, their order);
    every edge with an end outside them is kept."""
    k = {"p7": 7, "c4": 4, "c5": 5}[key]
    on = rng.sample(range(g.n), k)
    steps = list(zip(on, on[1:])) + ([] if key == "p7" else [(on[-1], on[0])])
    inside = set(on)
    edges = [(u, v) for u, v in g.edges() if u not in inside or v not in inside]
    return Graph.build(g.n, edges + [(min(e), max(e)) for e in steps]), on


def _agree(g, rep, ref):
    """Membership (*rep*) gives the sweep's (*ref*) verdict, pattern keys,
    C4 and C5, and a P7 that g induces."""
    assert (rep.is_member, rep.violations().keys(), rep.c4, rep.c5) == (
        ref.is_member, ref.violations().keys(), ref.c4, ref.c5), g.edges()
    assert rep.p7 is None or induces_pattern(g, "p7", rep.p7), g.edges()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["random", "blow-up", "atom"]),
       st.sampled_from([None, "c4", "c5", "p7"]), st.integers(0, 2**30))
def test_membership_agrees_with_the_sweep(source, plant, seed):
    # certify-first gives the sweep's verdict and witnesses on every input
    rng = random.Random(seed)
    p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
    if source == "random":
        g = random_graph(rng, rng.randint(0 if plant is None else 7, 16), p)
    elif source == "blow-up":
        g0 = random_graph(rng, rng.randint(4 if plant is None else 7, 8), p)
        g = blow_up(g0, [rng.randint(1, 2) for _ in range(g0.n)])
    else:
        g = forge.random_atom(rng.randrange(400))
        while plant is not None and g.n < 7:  # room for the planted pattern
            g = forge.random_atom(rng.randrange(400))
    if plant is not None:
        g, on = _planted(rng, g, plant)
        assert induces_pattern(g, plant, on)
    rep, ref = class_membership(g), pattern_sweep(g)
    _agree(g, rep, ref)
    assert ref.certified is None
    assert rep.certified is None or rep.is_member
    if plant is not None:
        assert not rep.is_member and plant in rep.violations()


def test_random_atoms_agree_with_the_sweep():
    for seed in range(400):
        g = forge.random_atom(seed)
        rep, ref = class_membership(g), pattern_sweep(g)
        assert rep.is_member and ref.is_member and not ref.violations(), seed
        assert rep.certified is not None, seed


def test_certified_members_run_no_path_scan(monkeypatch):
    # one-atom members are certified whole; split members by their atoms'
    # certificates and the search for a P7 across a split
    import p7c4c5.patterns as patterns

    rng = random.Random(11)
    split = [split_graph(rng, rng.randint(2, 30), rng.randint(2, 60)) for _ in range(20)]
    split += [_union(rng) for _ in range(20)] + [path(6), _s_graph(60)]
    while len(split) < 60:
        try:
            g = _glued(rng, check=True)
        except forge.ForgeError:
            continue
        if len(atoms(g)) > 1:  # a complete graph glued on adds no atom
            split.append(g)

    def refused(*args):
        raise AssertionError("path scan on a certified input")

    monkeypatch.setattr(patterns, "_path_dfs", refused)
    inputs = [forge.random_atom(seed) for seed in range(100)]
    inputs += [cycle(7), complete(5), Graph.build(0, []), forge.gen_bracelet([14] * 7)]
    for g in inputs:
        rep = class_membership(g)
        assert rep.is_member and rep.certified not in (None, "split"), g.edges()
    for g in split:
        rep = class_membership(g)
        assert rep.is_member and rep.certified == "split", g.edges()
    assert class_membership(complete(5)).certified == "complete"
    with pytest.raises(AssertionError, match="path scan"):
        class_membership(cycle(5))
    rep = class_membership(path(7))  # a P7 across the splits, found with no path scan
    assert not rep.is_member and rep.certified is None
    assert rep.violations().keys() == {"p7"} and induces_pattern(path(7), "p7", rep.p7)


def _s_graph(top):
    """Two twin-free bracelets (staircase rows top..1) under one universal
    vertex: two atoms of 2*top + 8 vertices, and that vertex their cutset."""
    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(top, 0, -1))})
    return forge.add_universal_clique(forge.glue(b, b, [], []), 1)


def _union(rng):
    """Random atoms, disjoint, under one universal vertex."""
    g = forge.random_atom(rng.randrange(400))
    for _ in range(rng.randint(1, 3)):
        g = forge.glue(g, forge.random_atom(rng.randrange(400)), [], [])
    return forge.add_universal_clique(g, 1)


def _glued(rng, check=False):
    """Random atoms glued in turn at a vertex or at an edge."""
    g = forge.random_atom(rng.randrange(400))
    for _ in range(rng.randint(1, 3)):
        h = forge.random_atom(rng.randrange(400))
        if rng.random() < 0.5 and g.m and h.m:
            c1, c2 = rng.choice(g.edges()), rng.choice(h.edges())
        else:
            c1, c2 = [rng.randrange(g.n)], [rng.randrange(h.n)]
        g = forge.glue(g, h, c1, c2, check=check)
    return g


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["glued", "split", "union", "blow-up"]),
       st.sampled_from([None, "c4", "c5", "p7", "edges"]), st.integers(0, 2**30))
def test_split_membership_agrees_with_the_sweep(source, plant, seed):
    # certified atoms and the crossing-P7 test give the sweep's verdict and
    # its three lex-least witnesses on split inputs
    rng = random.Random(seed)
    g = Graph.build(0, [])
    while g.n < 7:  # room for a planted pattern
        if source == "glued":
            g = _glued(rng)
        elif source == "split":
            g = split_graph(rng, rng.randint(2, 15), rng.randint(5, 30))
        elif source == "union":
            g = _union(rng)
        else:
            g0 = _glued(rng)
            g = blow_up(g0, [rng.randint(1, 2) for _ in range(g0.n)])
    if plant == "edges":
        extra = {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if rng.random() < 0.01}
        g = Graph.build(g.n, set(g.edges()) | extra)
    elif plant is not None:
        g = _planted(rng, g, plant)[0]
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    rep, ref = class_membership(g), pattern_sweep(g)
    _agree(g, rep, ref)
    assert (rep.certified is not None) == rep.is_member
    if plant in ("c4", "c5", "p7"):
        assert plant in rep.violations()
    p7 = crossing_p7(g, atoms(g))  # a P7 across a split, on the input itself
    assert p7 is None or (ref.p7 is not None and induces_pattern(g, "p7", p7))


@pytest.mark.parametrize("n,edges,crosses", [
    # every P7, such as 6-2-8-7-9-0-1, meets the first cutset {7, 9} in
    # both vertices; no induced path from 7 or from 9 alone reaches 7
    # vertices across it
    (10, [(0, 1), (0, 9), (2, 5), (2, 6), (2, 8), (3, 7), (3, 9), (4, 6), (4, 8), (4, 9),
          (5, 7), (5, 9), (7, 8), (7, 9)], True),
    # a member: at the cutset edge 0-8, a walk from 8 into its side that
    # could step onto 6, a neighbor of 0, would count 6-2-5-4-8-0-1, which
    # has the chord 0-6
    (9, [(0, 1), (0, 3), (0, 6), (0, 8), (2, 5), (2, 6), (3, 8), (4, 5), (4, 8)], False),
    # no P7: at the cutset edge 1-2, the one far vertex 0 sees both ends,
    # so a walk from 2 into the far side must not step onto it
    (9, [(0, 1), (0, 2), (1, 2), (1, 6), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8),
         (5, 7), (5, 8), (6, 7)], False),
], ids=["edge-only", "member", "far-side"])
def test_crossing_p7_at_a_cutset_edge(n, edges, crosses):
    g = Graph.build(n, edges)
    p7 = crossing_p7(g, atoms(g))
    assert (p7 is not None) == crosses
    assert p7 is None or (induces_pattern(g, "p7", p7) and p7[0] < p7[-1])  # as the sweep orients
    rep, ref = class_membership(g), pattern_sweep(g)
    assert (rep.is_member, rep.violations()) == (ref.is_member, ref.violations())
    assert (ref.p7 is not None) == crosses
    assert (rep.certified == "split") == ref.is_member


def test_check_of_glued_bracelets_runs_no_path_scan(monkeypatch):
    # both atoms of the 493 vertices certify, so the P7 named is the one
    # found across the split, with no scan of the whole input
    import p7c4c5.patterns as patterns

    def refused(*args):
        raise AssertionError("path scan on certified atoms")

    monkeypatch.setattr(patterns, "_path_dfs", refused)
    g = glued_bracelets(120)
    rep = class_membership(g)
    assert g.n == 493 and not rep.is_member and rep.violations().keys() == {"p7"}
    assert rep.p7 == crossing_p7(g, atoms(g)) and induces_pattern(g, "p7", rep.p7)


def test_check_of_a_split_member_is_quick():
    # the sweep took over a minute on this 495-vertex member; its two atoms
    # are certified and no induced path from the universal vertex has more
    # than two vertices
    g = _s_graph(120)
    start = time.perf_counter()
    rep = class_membership(g)
    elapsed = time.perf_counter() - start
    assert g.n == 495 and rep.is_member and rep.certified == "split"
    assert elapsed < 2, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("make,kind", [
    pytest.param(lambda: forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(120, 0, -1))}),
                 "bracelet", id="bracelet247"),
    pytest.param(lambda: forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(996, 0, -1))}),
                 "bracelet", id="bracelet1999"),
    pytest.param(lambda: forge.gen_wreath([12] * 6, [forge.Staircase(range(12, 0, -1))] * 3),
                 "wreath", id="wreath72"),
])
def test_twin_free_one_atom_members_are_certified_quickly(make, kind):
    # the sweep is exponential on these (16 s on the 247-vertex bracelet)
    g = make()
    start = time.perf_counter()
    rep = class_membership(g)
    elapsed = time.perf_counter() - start
    assert rep.is_member and rep.certified == kind
    assert elapsed < 1, f"took {elapsed:.2f}s"


def test_atoms_of_the_twin_free_bracelet_are_quick():
    # one atom: a single MCS-M pass over 1999 vertices and 1.5 M edges
    g = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(996, 0, -1))})
    times = []
    for _ in range(2):
        start = time.perf_counter()
        pairs = atoms(g)
        times.append(time.perf_counter() - start)
    assert pairs == [(0, g.all_mask)]
    assert min(times) < 2, f"took {min(times):.2f}s"
