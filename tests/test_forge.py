import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from p7c4c5 import forge
from p7c4c5.forge import ForgeError, Staircase
from p7c4c5.graph import Graph
from p7c4c5.patterns import class_membership
from p7c4c5.recognize import EmeraldPartition, recognize_atom


def test_staircase_validation():
    Staircase((3, 2, 2, 1))
    with pytest.raises(ForgeError, match="non-increasing"):
        Staircase((1, 2))
    with pytest.raises(ForgeError, match="nonnegative"):
        Staircase((2, -1))
    st = Staircase((2, 1))
    assert st.rows == 2 and st.cols == 2
    g = forge._assemble(4, [], [], [(st, [0, 1], [2, 3])])
    assert g == Graph.build(4, [(0, 2), (0, 3), (1, 2)])
    with pytest.raises(ForgeError, match="row count mismatch"):
        forge._assemble(3, [], [], [(st, [0], [1, 2])])
    with pytest.raises(ForgeError, match="staircase wider than the column part"):
        forge._assemble(3, [], [], [(st, [0, 1], [2])])


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
    with pytest.raises(ForgeError, match="nonnegative"):
        forge.gen_crown([1] * 6, [0, 0, -1, 1, 1, 1])


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


def test_glue_checks_at_every_size():
    # a P7 across the shared clique is the one pattern gluing two members
    # can create; it is found past the 64 vertices up to which glue once
    # checked, and a glue that makes none is kept
    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(40, 0, -1))})
    with pytest.raises(ForgeError, match="p7"):  # a pendant edge at a seven-hole
        forge.glue(b, Graph.build(2, [(0, 1)]), [0], [0])
    top = forge.add_universal_clique(b, 1)  # vertex 87 sees all of b
    g = forge.glue(top, top, [87], [87])
    assert g.n == 175 and class_membership(g).certified == "split"


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


# ---------------------------------------------------------------------
# reference: the generators as edge lists fed to Graph.build
# ---------------------------------------------------------------------


def _clique_edges(ids):
    return list(itertools.combinations(ids, 2))


def _complete_edges(xs, ys):
    return [(u, v) for u in xs for v in ys]


def _staircase_edges(st, row_ids, col_ids):
    out = []
    for j, v in enumerate(row_ids):
        out.extend((v, col_ids[c]) for c in range(st.f[j]))
    return out


def ref_bracelet(star_sizes, pairs=None, i_star=0):
    pairs = dict(pairs or {})
    pair_parts = {0: (5, 0), 1: (0, 2), 2: (6, 1)}
    star, plus, minus = [], [], []
    n = 0
    for i in range(7):
        star.append(list(range(n, n + star_sizes[i])))
        plus.append([])
        minus.append([])
        n += star_sizes[i]
    for slot, st in sorted(pairs.items()):
        pi, mi = pair_parts[slot]
        pi, mi = (i_star + pi) % 7, (i_star + mi) % 7
        plus[pi] = list(range(n, n + st.rows))
        n += st.rows
        minus[mi] = list(range(n, n + st.cols))
        n += st.cols
    part = [star[i] + plus[i] + minus[i] for i in range(7)]
    edges = []
    for i in range(7):
        edges += _clique_edges(part[i])
        edges += _complete_edges(part[i], part[(i + 1) % 7])
    for slot, st in sorted(pairs.items()):
        pi, mi = pair_parts[slot]
        pi, mi = (i_star + pi) % 7, (i_star + mi) % 7
        edges += _staircase_edges(st, plus[pi], minus[mi])
    return Graph.build(n, edges)


def ref_emerald(sizes):
    ids = {}
    n = 0
    for name in EmeraldPartition.ORDER:
        ids[name] = list(range(n, n + sizes[name]))
        n += sizes[name]
    edges = []
    for name in EmeraldPartition.ORDER:
        edges += _clique_edges(ids[name])
    for x, y in EmeraldPartition.EDGES:
        edges += _complete_edges(ids[x], ids[y])
    return Graph.build(n, edges)


def ref_lantern(a_size, d_size, arms, wavy=None):
    n = 0
    a = list(range(n, n + a_size)); n += a_size
    d = list(range(n, n + d_size)); n += d_size
    bs, cs = [], []
    for b_size, c_size in arms:
        bs.append(list(range(n, n + b_size))); n += b_size
        cs.append(list(range(n, n + c_size))); n += c_size
    edges = _clique_edges(a) + _clique_edges(d)
    for i, (b, c) in enumerate(zip(bs, cs)):
        edges += _clique_edges(b) + _clique_edges(c)
        edges += _complete_edges(a, b) + _complete_edges(c, d)
        if i == 0 and wavy is not None:
            edges += _staircase_edges(wavy, b, c)
        else:
            edges += _complete_edges(b, c)
    return Graph.build(n, edges)


def ref_ring6(sizes, links=None):
    if links is None:
        links = [Staircase.full(sizes[i], sizes[(i + 1) % 6]) for i in range(6)]
    parts = []
    n = 0
    for s in sizes:
        parts.append(list(range(n, n + s)))
        n += s
    edges = []
    for i in range(6):
        edges += _clique_edges(parts[i])
        edges += _staircase_edges(links[i], parts[i], parts[(i + 1) % 6])
    return Graph.build(n, edges)


def ref_wreath(sizes, loose_links=None):
    if loose_links is None:
        loose_links = [Staircase.full(sizes[i], sizes[(i + 1) % 6]) for i in (1, 3, 5)]
    links = [None] * 6
    for j, i in enumerate((1, 3, 5)):
        links[i] = loose_links[j]
        links[i - 1] = Staircase.full(sizes[i - 1], sizes[i])
    return ref_ring6(sizes, links)


def ref_crown(c_sizes, d_sizes):
    cs, ds = [], []
    n = 0
    for s in c_sizes:
        cs.append(list(range(n, n + s))); n += s
    for s in d_sizes:
        ds.append(list(range(n, n + s))); n += s
    edges = []
    for i in range(6):
        edges += _clique_edges(cs[i]) + _clique_edges(ds[i])
        edges += _complete_edges(cs[i], cs[(i + 1) % 6])
        for t in (-1, 0, 1):
            edges += _complete_edges(ds[i], cs[(i + t) % 6])
    return Graph.build(n, edges)


REFERENCE = {"bracelet": ref_bracelet, "emerald": ref_emerald, "lantern": ref_lantern,
             "ring6": ref_ring6, "wreath": ref_wreath, "crown": ref_crown}

part_size = hs.integers(1, 4)  # single-vertex parts are common


@hs.composite
def staircases(draw, rows, cols, low=0):
    """A staircase of *rows* rows, full at the top over *cols* columns
    (the full profile sometimes); entries below the top are >= *low*."""
    if rows and draw(hs.booleans()):
        return Staircase.full(rows, cols)
    f = sorted(draw(hs.lists(hs.integers(low, cols), min_size=rows, max_size=rows)),
               reverse=True)
    if f:
        f[0] = cols
    return Staircase(tuple(f))


@hs.composite
def generator_calls(draw):
    """A valid (kind, args) for one of the gen_* generators."""
    kind = draw(hs.sampled_from(sorted(REFERENCE)))
    if kind == "bracelet":
        pairs = {}
        for slot in draw(hs.sets(hs.sampled_from([0, 1, 2]))):
            pairs[slot] = draw(staircases(draw(hs.integers(0, 4)), draw(part_size), low=1))
        return kind, ([draw(part_size) for _ in range(7)], pairs, draw(hs.integers(0, 6)))
    if kind == "emerald":
        return kind, ({k: draw(part_size) for k in EmeraldPartition.ORDER},)
    if kind == "lantern":
        arms = [(draw(part_size), draw(part_size)) for _ in range(draw(hs.integers(3, 5)))]
        wavy = draw(hs.none() | staircases(arms[0][0], arms[0][1], low=1))
        return kind, (draw(part_size), draw(part_size), arms, wavy)
    six = [draw(part_size) for _ in range(6)]
    if kind == "ring6":
        links = [draw(staircases(six[i], six[(i + 1) % 6])) for i in range(6)]
        return kind, (six, draw(hs.none() | hs.just(links)))
    if kind == "wreath":
        loose = [draw(staircases(six[i], six[(i + 1) % 6])) for i in (1, 3, 5)]
        return kind, (six, draw(hs.none() | hs.just(loose)))
    d = [0, 0, draw(hs.integers(0, 3))] + [draw(part_size) for _ in range(3)]
    return kind, (six, d)


@settings(max_examples=400, deadline=None)
@given(generator_calls())
@example(("bracelet", ([1] * 7, {0: Staircase((2, 1, 1)), 2: Staircase.full(2, 1)}, 3)))
@example(("lantern", (2, 1, [(3, 2), (1, 1), (1, 2)], Staircase((2, 2, 1)))))
@example(("ring6", ([2, 1, 3, 1, 2, 1], [Staircase((1, 0)), Staircase((3,)),
                                          Staircase((1, 0, 0)), Staircase.full(1, 2),
                                          Staircase((1, 1)), Staircase((2,))])))
@example(("wreath", ([2] * 6, [Staircase((2, 0))] * 3)))
@example(("crown", ([1] * 6, [0, 0, 0, 1, 1, 1])))
def test_generators_match_the_edge_list_reference(call):
    kind, args = call
    g = getattr(forge, "gen_" + kind)(*args)
    assert g.adj == REFERENCE[kind](*args).adj


def test_random_generators_match_the_edge_list_reference(monkeypatch):
    # every gen_* call a random_* makes is checked against the reference
    def checked(kind):
        gen = getattr(forge, "gen_" + kind)

        def run(*args, **kwargs):
            g = gen(*args, **kwargs)
            assert g.adj == REFERENCE[kind](*args, **kwargs).adj
            return g
        return run

    for kind in REFERENCE:
        monkeypatch.setattr(forge, "gen_" + kind, checked(kind))
    for seed in range(400):
        for name in ("bracelet", "emerald", "lantern", "wreath", "ring", "crown"):
            getattr(forge, "random_" + name)(seed)
        # random_atom's complete graph does not go through a gen_*
        rng = random.Random(seed)
        kind = rng.choice(["bracelet", "emerald", "lantern", "wreath", "crown", "complete"])
        if kind == "complete":
            k = rng.randint(1, 5)
            g = Graph.build(k, _clique_edges(range(k)))
        else:
            g = getattr(forge, "random_" + kind)(rng)
        if rng.random() < 0.3:
            g = forge.add_universal_clique(g, rng.randint(1, 2))
        assert forge.random_atom(seed) == g
