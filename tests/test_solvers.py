import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (blow_up, complete, cycle, glued_bracelets, induces_pattern,
                      member_corpus, nested_union, path, random_mask, split_graph, witnesses)
from p7c4c5 import forge, solvers
from p7c4c5.chordal import is_chordal
from p7c4c5.cutset import atoms, tree_violations
from p7c4c5.graph import Graph, bits, mask_of
from p7c4c5.oracle import (
    brute_alpha,
    brute_chromatic,
    brute_max_clique,
    brute_mwis,
)
from p7c4c5.recognize import _KINDS, EmeraldPartition, recognize_atom
from p7c4c5.solvers import (
    _cutset_mwis,
    atom_max_weight_clique,
    atom_mwis,
    clique_number,
    color_atom,
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


def test_mwis_solves_each_side_of_a_split_once(monkeypatch):
    # a stable vertex of a split graph splits off alone: its side minus the
    # neighborhood of a cutset vertex is empty, whichever vertex it is, so
    # the split needs two solves however large its cutset; mwis answers
    # these chordal inputs with one elimination order, so the count is
    # taken on the atom walk, called directly, and mwis is checked too
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return subatom_mwis(*args)

    monkeypatch.setattr(solvers, "subatom_mwis", counted)
    rng = random.Random(109)
    wide = 0
    for _ in range(40):
        k, s = rng.randint(6, 10), rng.randint(2, 8)
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        for x in range(k, k + s):
            edges += [(u, x) for u in rng.sample(range(k), rng.randint(1, k))]
        g = Graph.build(k + s, edges)
        splits = atoms(g.twin_decomposition()[1])[:-1]
        wide += any(cut.bit_count() > 1 for cut, _atom in splits)
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        calls[0] = 0
        walked = _cutset_mwis(g, w)
        assert calls[0] <= 2 * len(splits) + 1, (edges, calls[0], len(splits))
        members, val = mwis(g, w)
        for chosen in (walked, members):
            assert g.is_stable(mask_of(chosen))
            assert sum(w[v] for v in chosen) == val == brute_mwis(g, w)[1], (edges, w)
    assert wide >= 20


def test_max_weight_clique_matches_oracle():
    rng = random.Random(103)
    for g in member_corpus(seed=103, count=120, target=12):
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = max_weight_clique(g, w)
        assert g.is_clique(mask_of(members))
        assert val == brute_max_clique(g, w)[1], (g.edges(), w)
        assert clique_number(g) == brute_max_clique(g)[1]


def _blown_up_members(rng, count, cap=22):
    """Members and atom skeletons from forge with every vertex blown up
    into 1 to 4 true twins, at most *cap* vertices each."""
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            base = forge.random_member_graph(rng, target=8)
        else:
            base = forge.random_atom(rng.randrange(1 << 30)).twin_decomposition()[1]
        g = blow_up(base, [rng.randint(1, 4) for _ in range(base.n)])
        if g.n <= cap:
            out.append(g)
    return out


BLOW_UP_WEIGHTS = {
    "mixed": lambda rng: rng.randint(-5, 9),
    "fraction": lambda rng: Fraction(rng.randint(-10, 19), rng.randint(1, 7)),
    "zero": lambda rng: rng.choice([0, 0, 0, 2, -3]),
    "nonpositive": lambda rng: rng.randint(-5, 0),
}


def _maximal_cliques(g, p):
    """The maximal cliques of the subgraph of g on the mask p, as masks
    (Bron-Kerbosch)."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
        for v in bits(p):
            expand(r | 1 << v, p & g.adj[v], x & g.adj[v])
            p, x = p & ~(1 << v), x | 1 << v

    expand(0, p, 0)
    return out


def test_clique_pairs_hold_every_maximal_clique():
    # each pair is two cliques, each xs vertex seeing a prefix of ys, the
    # prefixes shrinking along xs; every maximal clique of the core lies
    # in one pair
    for kind in ("bracelet", "emerald", "lantern", "wreath", "crown"):
        for seed in range(40):
            g = getattr(forge, f"random_{kind}")(seed)
            cert = recognize_atom(g)
            assert cert.kind == kind
            pairs = solvers._clique_pairs(kind, cert.partition)
            for xs, ys in pairs:
                assert g.is_clique(mask_of(xs)) and g.is_clique(mask_of(ys))
                heads = [(g.adj[v] & mask_of(ys)).bit_count() for v in xs]
                assert heads == sorted(heads, reverse=True), (kind, seed)
                assert all(g.adj[v] & mask_of(ys) == mask_of(ys[:k]) for v, k in zip(xs, heads))
            spans = [mask_of(xs + ys) for xs, ys in pairs]
            core = g.all_mask & ~mask_of(cert.universal)
            for clique in _maximal_cliques(g, core):
                assert any(not clique & ~span for span in spans), (kind, seed, bin(clique))


def test_atom_max_weight_clique_is_heaviest_clique():
    # universal vertices included; the lex-least heaviest clique, as brute
    # force finds it; every kind reads it from the pairs of its clique parts
    rng = random.Random(12)
    draws = (
        lambda: 1,
        lambda: rng.randint(-4, 6),
        lambda: rng.randint(0, 2),
        lambda: rng.randint(-3, 0),
    )
    checked = 0
    for seed in range(60):
        arc_kind = "bracelet" if seed % 2 else "emerald"
        for kind in (arc_kind, "lantern", "wreath", "crown"):
            g = getattr(forge, f"random_{kind}")(seed)
            if seed % 3 == 0:
                g = forge.add_universal_clique(g, 1 + seed % 2)
                perm = rng.sample(range(g.n), g.n)  # mix the universal ids in
                g = Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            if g.n > 22:
                continue
            cert = recognize_atom(g)
            assert cert.kind == kind and bool(cert.universal) == (seed % 3 == 0)
            for draw in draws:
                w = [draw() for _ in range(g.n)]
                assert atom_max_weight_clique(g, cert, w) == brute_max_clique(g, w), (seed, w)
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("kind", sorted(BLOW_UP_WEIGHTS))
def test_optimizers_on_twin_blow_ups(kind):
    rng = random.Random(108)
    draw = BLOW_UP_WEIGHTS[kind]
    graphs = _blown_up_members(rng, 60)
    assert sum(len(g.twin_classes()) < g.n for g in graphs) > 40
    for g in graphs:
        w = [draw(rng) for _ in range(g.n)]
        members, val = mwis(g, w)
        assert g.is_stable(mask_of(members))
        assert val == sum(w[v] for v in members) == brute_mwis(g, w)[1], (g.edges(), w)
        members, val = max_weight_clique(g, w)
        assert g.is_clique(mask_of(members))
        assert val == sum(w[v] for v in members) == brute_max_clique(g, w)[1], (g.edges(), w)
        if any(x > 0 for x in w):
            assert all(w[v] > 0 for v in members)
        else:
            assert members == [max(range(g.n), key=lambda u: (w[u], -u))]


def test_the_hub_split_answers_as_a_walk_of_whole_atoms(monkeypatch):
    # a core copy leaves the hub out, and the solvers add its class back:
    # its colors among the atom's universal classes in id order, after the
    # core's, and its weight to the core's clique; so colors and cliques
    # are those of a walk that copies and certifies every atom whole
    rng = random.Random(35)
    for _ in range(60):
        g = nested_union(rng, rng.randint(0, 2))
        w = [rng.randint(-3, 6) for _ in range(g.n)]
        classes, q = g.twin_classes(), g.twin_decomposition()[1]
        whole = []
        for s, atom in atoms(q):
            sub = None if q.is_clique(atom) else q.induced(atom)
            whole.append((s, atom, sub, None if sub is None else recognize_atom(sub)))
        answers = [min_coloring(g), max_weight_clique(g), max_weight_clique(g, w)]
        with monkeypatch.context() as m:
            m.setattr(solvers, "member_walk", lambda h: (classes, whole))
            assert [min_coloring(g), max_weight_clique(g), max_weight_clique(g, w)] == answers


def test_max_weight_clique_copies_no_clique_atom(monkeypatch):
    # every atom of a split graph is complete, so apart from the twin
    # quotients neither the clique nor the coloring solver copies a subgraph;
    # a union under a universal vertex splits at that vertex, each of its
    # atoms copied once without it, as its core, which is twin-free with
    # no universal vertex: recognition copies no skeleton of it
    g = split_graph(random.Random(5), 30, 60)
    union = cycle(7)
    for part in (cycle(6), forge.gen_crown([1] * 6, [0, 0, 1, 1, 1, 1]),
                 forge.gen_bracelet([1] * 7, {0: forge.Staircase((3, 2, 1))})):
        union = forge.glue(union, part, [], [])
    union = forge.add_universal_clique(union, 1)
    union_atoms = [atom for _s, atom in atoms(union)]
    assert len(union_atoms) == 4 and len(union.twin_classes()) == union.n
    induced, quotient = Graph.induced, Graph.twin_decomposition
    depth, copies = [0], []

    def counted_induced(self, s):
        if not depth[0]:
            copies.append(s)
        return induced(self, s)

    def counted_quotient(self):
        depth[0] += 1
        try:
            return quotient(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Graph, "induced", counted_induced)
    monkeypatch.setattr(Graph, "twin_decomposition", counted_quotient)
    assert max_weight_clique(g) == (list(range(30)), 30)
    colors, k = min_coloring(g)
    assert k == 30 and all(colors[u] != colors[v] for u, v in g.edges())
    assert copies == []
    # the universal vertex is the last vertex; each core drops it
    expected = sorted(atom & ~(1 << union.n - 1) for atom in union_atoms)
    assert max_weight_clique(union)[1] == 6  # the bracelet's atom
    assert sorted(copies) == expected
    copies.clear()
    colors, k = min_coloring(union)
    assert k == 6 and all(colors[u] != colors[v] for u, v in union.edges())
    assert sorted(copies) == expected


def _blown_up_atom(rng, clique=False):
    """A twin blow-up of a six-hole or a forge atom skeleton (of a 2- or
    3-clique if *clique*) with one or more classes of two members."""
    if clique:
        base = complete(rng.randint(2, 3))
    else:
        base = rng.choice([cycle(6), forge.random_atom(rng.randrange(1 << 30)).twin_decomposition()[1]])
    mult = [rng.choice((1, 1, 1, 2)) for _ in range(base.n)]
    mult[rng.randrange(base.n)] = 2
    return blow_up(base, mult)


def _twin_heavy_split(rng):
    """Twin blow-ups of forge atoms glued along twin classes, under a
    universal clique: a split member one of whose cutsets holds a whole
    class of two or more members."""
    while True:
        g = _blown_up_atom(rng)
        for _ in range(rng.randint(1, 2)):
            h = _blown_up_atom(rng, clique=rng.random() < 0.5)
            c1 = rng.choice([c for c in g.twin_classes() if len(c) >= 2])
            c2 = next((c[:len(c1)] for c in h.twin_classes() if len(c) >= len(c1)), None)
            if c2 is not None:
                try:
                    g = forge.glue(g, h, c1, c2)
                except forge.ForgeError:  # a P7 across the new cutset
                    pass
        g = forge.add_universal_clique(g, rng.randint(1, 2))
        cuts = [s for s, _atom in atoms(g)[:-1]]
        if any(len(c) >= 2 and mask_of(c) & s == mask_of(c) for c in g.twin_classes()
               for s in cuts):
            return g


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_min_coloring_across_twin_heavy_splits():
    # atoms colored on the quotient, lifted, and merged on cutsets whose
    # classes have several members
    rng = random.Random(111)
    small = 0
    for _ in range(80):
        g = _twin_heavy_split(rng)
        for h in (g, _relabelled(g, rng)):
            colors, k = min_coloring(h)
            assert all(colors[u] != colors[v] for u, v in h.edges()), h.edges()
            assert min(colors) == 1 and max(colors) == k
            if h is g:
                want = k
                if g.n <= 12:
                    small += 1
                    assert k == brute_chromatic(g), g.edges()
            assert k == want, h.edges()
    assert small >= 20


def _group_once_inputs():
    sk = forge.random_lantern(1).twin_decomposition()[1]
    one_atom = blow_up(sk, [3 if v < 10 else 1 for v in range(sk.n)])
    split = _twin_heavy_split(random.Random(112))
    assert len(atoms(one_atom)) == 1 < len(atoms(split))
    return {"one-atom": one_atom, "split": split}


@pytest.mark.parametrize("entry", ["color", "clique", "mwis", "check"])
@pytest.mark.parametrize("shape", ["one-atom", "split"])
def test_entry_points_group_the_input_once(monkeypatch, entry, shape):
    # one twin quotient per call: g's rows are grouped into twin classes once
    import p7c4c5.patterns as patterns

    g = _group_once_inputs()[shape]
    assert len(g.twin_classes()) < g.n
    twin_classes, grouped = Graph.twin_classes, []

    def counted(self, within=None):
        if within is None:
            grouped.append(self.adj)
        return twin_classes(self, within)

    monkeypatch.setattr(Graph, "twin_classes", counted)
    solve = {"color": min_coloring, "clique": max_weight_clique,
             "mwis": lambda h: mwis(h, [1] * h.n), "check": patterns.class_membership}[entry]
    solve(g)
    assert grouped.count(g.adj) == 1


def test_min_coloring_copies_what_max_weight_clique_copies(monkeypatch):
    # on a twin-heavy input both walk the same quotient, so both copy the
    # same subgraphs: the quotient's atoms and their skeletons
    induced, copies = Graph.induced, []

    def counted_induced(self, s):
        copies.append((self.n, s))
        return induced(self, s)

    monkeypatch.setattr(Graph, "induced", counted_induced)
    for g in _group_once_inputs().values():
        copies.clear()
        max_weight_clique(g)
        clique_copies = sorted(copies)
        copies.clear()
        min_coloring(g)
        assert sorted(copies) == clique_copies and clique_copies


def test_arc_atoms_make_no_chordal_clique_call(monkeypatch):
    # every kind answers cliques from the pairs of its clique parts, with
    # no arc model; bracelets and emeralds color from their arcs, lanterns,
    # wreaths and crowns from their ranked parts
    import p7c4c5.arcs as arcs

    calls, built = [], []
    chordal_clique = solvers.chordal_max_weight_clique

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return chordal_clique(*args, **kwargs)

    monkeypatch.setattr(solvers, "chordal_max_weight_clique", counted)
    for name in ("bracelet_arcs", "emerald_arcs"):
        def build(*args, _fn=getattr(arcs, name), _name=name):
            built.append(_name)
            return _fn(*args)
        monkeypatch.setattr(arcs, name, build)
    bracelet = forge.add_universal_clique(forge.gen_bracelet([2, 1, 3, 1, 2, 1, 1]), 1)
    emerald = forge.add_universal_clique(forge.random_emerald(3), 1)
    atoms = [(bracelet, "bracelet"), (emerald, "emerald")] + [
        (forge.add_universal_clique(gen(seed), 1), kind)
        for gen, kind, seed in (
            (forge.random_lantern, "lantern", 1),
            (forge.random_wreath, "wreath", 2),
            (forge.random_crown, "crown", 3),
        )
    ]
    for g, kind in atoms:
        cert = recognize_atom(g)
        assert cert.kind == kind and len(cert.universal) == 1
        members, val = max_weight_clique(g)
        assert g.is_clique(mask_of(members)) and val == len(members)
        assert built == []
        colors, k = min_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert built == [name for name in ("bracelet_arcs", "emerald_arcs") if name.startswith(kind)]
        built.clear()
    assert calls == []


def test_solvers_name_a_witness_in_a_large_non_member_atom():
    # a 68-vertex 4-hole blow-up is one atom; both solvers name the 4-hole
    # that recognition met, in input ids
    g = blow_up(cycle(4), [17] * 4)
    witness = "not a member graph: {'c4': [0, 17, 34, 51]}"
    for solve in (min_coloring, max_weight_clique):
        with pytest.raises(ValueError) as exc:
            solve(g)
        assert str(exc.value) == witness, solve


def _pendant_hole():
    # a 7-hole with a two-vertex path hanging from vertex 0: its atoms, the
    # hole and two edges, all certify, but 8-7-0-1-2-3-4 is an induced P7
    # across the splits
    return Graph.build(9, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (7, 8)])


def _pendant_bracelet():
    # a twin-free 87-vertex bracelet with the same two-vertex path hanging
    # from a vertex of its first part: one large certified atom and two edges
    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(40, 0, -1))})
    return forge.glue(b, path(3), [0], [0], check=False)


@pytest.mark.parametrize("make", [lambda: path(7), _pendant_hole, _pendant_bracelet],
                         ids=["p7", "pendant-hole", "pendant-bracelet"])
def test_min_coloring_checks_a_small_split_input_for_a_p7(make):
    # a P7 across a split is found at every size; the walk's verdict names it
    g = make()
    with pytest.raises(ValueError) as exc:
        min_coloring(g)
    found = witnesses(str(exc.value))
    assert "p7" in found and induces_pattern(g, "p7", found["p7"]), found


# ROADMAP item 3: every entry point should reject every non-member with a
# witness; mwis checks no membership, so it still answers these
_ANSWERED = {("mwis", name) for name in ("C4", "C5", "P7", "P70", "C70")}
_NON_MEMBERS = {"C4": lambda: cycle(4), "C5": lambda: cycle(5), "P7": lambda: path(7),
                "P70": lambda: path(70), "C70": lambda: cycle(70)}
_ENTRY_POINTS = {"color": min_coloring, "clique": max_weight_clique,
                 "mwis": lambda g: mwis(g, [1] * g.n)}


@pytest.mark.parametrize("entry,graph", [
    pytest.param(entry, graph, marks=[pytest.mark.xfail(
        strict=True, raises=pytest.fail.Exception,
        reason="ROADMAP item 3: answers this non-member")]
        if (entry, graph) in _ANSWERED else [])
    for entry in _ENTRY_POINTS for graph in _NON_MEMBERS])
def test_entry_points_reject_non_members(entry, graph):
    g = _NON_MEMBERS[graph]()
    with pytest.raises(ValueError) as exc:
        _ENTRY_POINTS[entry](g)
    found = witnesses(str(exc.value))
    assert found and all(induces_pattern(g, key, w) for key, w in found.items()), found


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
        # on a mask: the same call on the induced copy, mapped back
        mask = random_mask(rng, g)
        h = g.induced(mask)
        ref, ref_val = subatom_mwis(h, [w[u] for u in h.vmap])
        assert subatom_mwis(g, w, mask) == (sorted(h.vmap[v] for v in ref), ref_val)


def test_subatom_mwis_on_twin_blow_ups():
    rng = random.Random(107)
    tried = 0
    for seed in range(200):
        _classes, sk, _ = forge.random_atom(seed).twin_decomposition()
        g = blow_up(sk, [rng.randint(1, 3) for _ in range(sk.n)])
        if g.n > 20:
            continue
        tried += 1
        w = [rng.randint(-5, 9) for _ in range(g.n)]
        members, val = subatom_mwis(g, w)
        assert g.is_stable(mask_of(members))
        assert val == sum(w[v] for v in members) == brute_mwis(g, w)[1], seed
    assert tried >= 40


def test_color_atom_every_kind():
    # an atom of a twin quotient, each vertex standing for a class of
    # sizes[v] twins: every class takes sizes[v] consecutive colors (on a
    # cycle of colors for the arcs), disjoint from its neighbors', and
    # their count is the chromatic number of the blow-up; a quotient atom
    # may hold several universal vertices, as its classes may differ
    # outside it
    rng = random.Random(110)
    checked = 0
    for seed in range(60):
        g = forge.random_atom(seed)
        sk = forge.add_universal_clique(g.twin_decomposition()[1], seed % 3)
        for h, sizes in ((g, [1] * g.n), (sk, [rng.choice((1, 1, 2, 3)) for _ in range(sk.n)])):
            runs = color_atom(h, recognize_atom(h), sizes)
            assert [len(set(run)) for run in runs] == sizes, seed
            assert all(b - a in (1, -1) or b == 1 for run in runs for a, b in zip(run, run[1:]))
            assert not any(set(runs[u]) & set(runs[v]) for u, v in h.edges()), seed
            if sum(sizes) <= 16:
                checked += 1
                assert max(map(max, runs)) == brute_chromatic(blow_up(h, sizes)), seed
    assert checked >= 50


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


def test_large_twin_free_bracelet():
    # 237 vertices, all in distinct twin classes: one 115-row staircase
    g = forge.gen_bracelet([1] * 7, {0: forge.Staircase(tuple(range(115, 0, -1)))})
    assert g.n == 237
    assert recognize_atom(g).kind == "bracelet"
    colors, k = min_coloring(g)
    assert all(colors[u] != colors[v] for u, v in g.edges())
    # omega: the top row of part 5 with the 115 columns of part 0 and part 6
    assert k == 117


def test_solvers_walk_a_thousand_atoms():
    star = Graph.build(1201, [(0, v) for v in range(1, 1201)])  # K_{1,1200}
    assert tree_violations(star, atoms(star)) == []
    assert min_coloring(star)[1] == 2
    assert mwis(star, [1] * star.n)[1] == 1200
    assert max_weight_clique(star)[1] == 2


def test_one_atom_input_runs_no_split_and_no_pattern_search(monkeypatch):
    # a certificate of the whole input answers and proves membership
    import p7c4c5.solvers as solvers

    def refused(*args):
        raise AssertionError("split or pattern search on a recognized input")

    for name in ("atoms", "merge_colorings", "class_membership", "pattern_sweep"):
        monkeypatch.setattr(solvers, name, refused)
    for seed in range(60):
        g = forge.random_atom(seed)
        colors, k = min_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        w = [random.Random(seed).randint(-2, 5) for _ in range(g.n)]
        members, val = max_weight_clique(g, w)
        assert g.is_clique(mask_of(members)) and val == sum(w[v] for v in members)
        if g.n <= 16:
            assert k == brute_chromatic(g), seed
            assert val == brute_max_clique(g, w)[1], seed


def test_whole_input_recognized_once(monkeypatch):
    # a failed attempt on the whole input is not repeated by the atom walk
    import p7c4c5.solvers as solvers

    calls = []

    def counted(h):
        calls.append(h.n)
        return recognize_atom(h)

    monkeypatch.setattr(solvers, "recognize_atom", counted)
    hole = cycle(70)  # one atom, past the membership check of min_coloring
    for solve in (min_coloring, max_weight_clique):
        calls.clear()
        with pytest.raises(ValueError, match="p7"):
            solve(hole)
        assert calls == [70], solve
    calls.clear()
    split = split_graph(random.Random(2), 10, 20)  # every atom is a clique
    min_coloring(split)
    max_weight_clique(split)
    assert calls == [30, 30]


def test_one_atom_non_member_recognized_once(monkeypatch):
    # naming the pattern of an atom that failed recognition runs the sweep
    # alone, not a membership test that would recognize it again
    import p7c4c5.recognize as recognize
    import p7c4c5.solvers as solvers

    calls = []

    def counted(h):
        calls.append(h.n)
        return recognize_atom(h)

    for mod in (solvers, recognize):
        monkeypatch.setattr(mod, "recognize_atom", counted)
    grid = Graph.build(9, [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
                       + [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)])
    for g, key in ((cycle(4), "c4"), (cycle(5), "c5"), (grid, "c4"), (cycle(70), "p7")):
        calls.clear()
        with pytest.raises(ValueError, match=key):
            min_coloring(g)
        assert calls == [g.n], g.edges()


@pytest.mark.parametrize("make,omega,member", [
    # the random split graph with a 60-clique and 120 stable vertices
    # once took over a minute to color when recognition ran first
    (lambda: split_graph(random.Random(180), 60, 120), 60, True),
    (lambda: glued_bracelets(60), 62, False),
], ids=["split", "glued-bracelets"])
def test_failed_recognition_is_cheap(make, omega, member):
    g = make()
    for solve in (min_coloring, max_weight_clique):
        start = time.monotonic()
        if member:
            assert solve(g)[1] == omega
        else:
            with pytest.raises(ValueError) as exc:
                solve(g)
            found = witnesses(str(exc.value))
            assert induces_pattern(g, "p7", found["p7"]), found
        elapsed = time.monotonic() - start
        assert elapsed < 1, f"{solve.__name__} took {elapsed:.2f}s"


# ---------------------------------------------------------------------
# stable sets from the certificate
# ---------------------------------------------------------------------

# a small atom of each kind by seed: at most 22 vertices, mostly fewer
_SMALL_ATOMS = {
    "bracelet": lambda seed: forge.random_bracelet(seed, max_part=2, max_pair=2),
    "emerald": forge.random_emerald,
    "lantern": lambda seed: forge.random_lantern(seed, max_hub=2, max_arm=2),
    "wreath": forge.random_wreath,
    "crown": forge.random_crown,
    "complete": lambda seed: complete(1 + seed % 5),
}


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(_SMALL_ATOMS)), seed=st.integers(0, 1 << 16),
       universal=st.integers(0, 2), span=st.sampled_from([(-3, 9), (1, 1), (0, 0), (-3, 0)]),
       data=st.data())
def test_atom_mwis_matches_the_oracle(kind, seed, universal, span, data):
    # mixed, unit, zero and all-nonpositive weights, under 0-2 universal
    # vertices; only positive vertices are picked
    g = forge.add_universal_clique(_SMALL_ATOMS[kind](seed), universal)
    assume(g.n <= 22)
    w = data.draw(st.lists(st.integers(*span), min_size=g.n, max_size=g.n))
    members, val = atom_mwis(g, recognize_atom(g), w)
    assert g.is_stable(mask_of(members)) and members == sorted(members)
    assert all(w[v] > 0 for v in members) and val == sum(w[v] for v in members)
    assert val == brute_mwis(g, w)[1]


@pytest.mark.parametrize("kind", sorted(_KINDS) + ["complete"])
def test_atom_mwis_reads_every_kind(kind):
    # each certificate kind has its own branch: one missing for a new kind
    # fails here before any solver meets it
    rng = random.Random(113)
    for seed in range(30):
        g = _SMALL_ATOMS[kind](seed)
        cert = recognize_atom(g)
        assert cert.kind == kind
        w = [rng.randint(-3, 9) for _ in range(g.n)]
        assert atom_mwis(g, cert, w)[1] == brute_mwis(g, w)[1], (kind, seed)
    assert kind == "complete" or kind in solvers._CORE_STABLE_SETS


def _thick_atoms(rng):
    """Twin-heavy atoms of each kind with a core, shaped and sized as the
    benchmark's thick stable-set inputs (93 to 132 vertices)."""
    stair = lambda rows, cols: forge.random_staircase(rng, rows, cols)
    sizes = [20, 15, 20, 15, 20, 15]
    return [forge.gen_bracelet([15, 20, 20, 10, 10, 10, 10], {k: stair(5, 5) for k in range(3)}),
            forge.gen_lantern(20, 15, [(15, 15)] + [(10, 10)] * 3, stair(15, 15)),
            forge.gen_wreath(sizes, [stair(sizes[i], sizes[(i + 1) % 6]) for i in (1, 3, 5)]),
            forge.gen_crown([9, 12, 9, 12, 9, 12], [0, 0, 6, 9, 6, 9]),
            forge.gen_emerald({name: 12 for name in EmeraldPartition.ORDER})]


def test_atom_mwis_agrees_with_the_atom_walk_on_thick_atoms():
    rng = random.Random(114)
    for seed in range(3):
        for g in _thick_atoms(rng):
            cert = recognize_atom(g)
            for w in ([1] * g.n, [rng.randint(-3, 9) for _ in range(g.n)],
                      [rng.choice((-1, 1, 2, 50)) for _ in range(g.n)]):
                members, val = atom_mwis(g, cert, w)
                assert g.is_stable(mask_of(members)) and val == sum(w[v] for v in members)
                assert val == sum(w[v] for v in _cutset_mwis(g, w)), (cert.kind, seed)


def test_emerald_class_triples():
    # the emerald's classes hold no stable set of four, and every stable
    # set of classes lies in one of the 22 triples the solver reads; its
    # 11 clique triples are pairwise in EDGES and maximal, and every EDGES
    # pair lies in one of them
    names = EmeraldPartition.ORDER
    edges = {frozenset(e) for e in EmeraldPartition.EDGES}
    stable = [set(t) for k in range(1, 5) for t in itertools.combinations(names, k)
              if not any(frozenset(p) in edges for p in itertools.combinations(t, 2))]
    cliques, triples = solvers._emerald_triples()
    assert len(triples) == 22 and max(map(len, stable)) == 3
    assert all(any(s <= set(t) for t in triples) for s in stable)
    assert len(cliques) == 11 and len(set(cliques)) == 11
    for t in cliques:
        assert all(frozenset(p) in edges for p in itertools.combinations(t, 2))
        assert not any(all(frozenset((x, y)) in edges for y in t) for x in names if x not in t)
    assert all(any(e <= set(t) for t in cliques) for e in edges)


def _counted(monkeypatch, names):
    """Count the calls of the named solvers functions, made through the
    module, keyword arguments and all."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(solvers, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solvers, name, counted)
    return calls


def _refuse(monkeypatch, names):
    def refused(*args):
        raise AssertionError("a step the path should not take")
    for name in names:
        monkeypatch.setattr(solvers, name, refused)


def test_mwis_of_a_certified_quotient_runs_no_split(monkeypatch):
    # a certificate of the twin quotient answers alone: no atom walk and
    # no chordal solve per twin class
    _refuse(monkeypatch, ("atoms", "subatom_mwis", "chordal_mwis", "_cutset_mwis"))
    calls = _counted(monkeypatch, ("atom_mwis",))
    rng = random.Random(115)
    for seed in range(60):
        g = forge.random_atom(seed)
        w = [rng.randint(-3, 9) for _ in range(g.n)]
        members, val = mwis(g, w)
        assert g.is_stable(mask_of(members)) and val == sum(w[v] for v in members)
        if g.n <= 20:
            assert val == brute_mwis(g, w)[1], seed
    assert calls["atom_mwis"] == 60


@pytest.mark.parametrize("make", [lambda: split_graph(random.Random(116), 12, 30),
                                  lambda: path(9)], ids=["split", "path9"])
def test_mwis_of_a_chordal_quotient_runs_one_elimination(monkeypatch, make):
    # a chordal core is named by its own RecognitionError, and the chordal
    # quotient is solved by one elimination order, with no atom walk
    g = make()
    w = [random.Random(g.n).randint(-3, 9) for _ in range(g.n)]
    want = sum(w[v] for v in _cutset_mwis(g, w))
    _refuse(monkeypatch, ("atoms", "atom_mwis"))
    calls = _counted(monkeypatch, ("chordal_mwis", "_cutset_mwis"))
    members, val = mwis(g, w)
    assert calls == {"chordal_mwis": 1, "_cutset_mwis": 0}
    assert g.is_stable(mask_of(members)) and val == sum(w[v] for v in members) == want


def test_mwis_of_a_union_under_a_universal_vertex_walks_its_atoms(monkeypatch):
    # a disconnected core is no atom and not chordal: the atom walk answers
    g = forge.glue(forge.gen_bracelet([1] * 7), forge.gen_wreath([1] * 6), [], [])
    g = forge.add_universal_clique(g, 1)
    calls = _counted(monkeypatch, ("_cutset_mwis", "atom_mwis"))
    rng = random.Random(117)
    for _ in range(5):
        w = [rng.randint(-3, 9) for _ in range(g.n)]
        members, val = mwis(g, w)
        assert g.is_stable(mask_of(members)) and val == sum(w[v] for v in members)
        assert val == brute_mwis(g, w)[1]
    assert calls == {"_cutset_mwis": 5, "atom_mwis": 0}


@pytest.mark.parametrize("graph,walks", [("C4", True), ("C5", True), ("C70", True),
                                         ("P7", False), ("P70", False)])
def test_mwis_answers_the_five_non_members_on_its_two_uncertified_paths(monkeypatch, graph,
                                                                        walks):
    # why the strict mwis cases of test_entry_points_reject_non_members
    # still fail to reject: the holes take the atom walk, which meets no
    # hole, and the paths are chordal
    calls = _counted(monkeypatch, ("_cutset_mwis", "chordal_mwis", "atom_mwis"))
    g = _NON_MEMBERS[graph]()
    assert mwis(g, [1] * g.n)[1] == (g.n + (not walks)) // 2  # alpha of a hole or a path
    assert calls["atom_mwis"] == 0 and calls["_cutset_mwis"] == walks
    assert walks or calls["chordal_mwis"] == 1
