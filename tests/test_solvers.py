import random
import time
from fractions import Fraction

import pytest

from conftest import (blow_up, cycle, induces_pattern, member_corpus, path, random_mask,
                      split_graph, witnesses)
from p7c4c5 import forge
from p7c4c5.chordal import is_chordal
from p7c4c5.cutset import atoms, tree_violations
from p7c4c5.graph import Graph, mask_of
from p7c4c5.oracle import (
    brute_alpha,
    brute_chromatic,
    brute_max_clique,
    brute_mwis,
)
from p7c4c5.patterns import MEMBERSHIP_CHECK_LIMIT
from p7c4c5.recognize import recognize_atom
from p7c4c5.solvers import (
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


def test_max_weight_clique_copies_no_clique_atom(monkeypatch):
    # every atom of a split graph is complete, so apart from the twin
    # quotients neither the clique nor the coloring solver copies a subgraph
    g = split_graph(random.Random(5), 30, 60)
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


def test_arc_atoms_make_no_chordal_clique_call(monkeypatch):
    # bracelets and emeralds answer cliques and colorings from their arcs,
    # lanterns, wreaths and crowns from their ranked parts
    import p7c4c5.solvers as solvers

    calls = []
    chordal_clique = solvers.chordal_max_weight_clique

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return chordal_clique(*args, **kwargs)

    monkeypatch.setattr(solvers, "chordal_max_weight_clique", counted)
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
        colors, k = min_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
    assert calls == []


def test_solvers_name_a_witness_in_a_large_non_member_atom():
    # a 68-vertex 4-hole blow-up is one atom, past the size up to which
    # min_coloring checks membership first; both solvers name the 4-hole
    # that recognition met, in input ids
    g = blow_up(cycle(4), [17] * 4)
    assert g.n > MEMBERSHIP_CHECK_LIMIT
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


@pytest.mark.parametrize("make", [lambda: path(7), _pendant_hole], ids=["p7", "pendant-hole"])
def test_min_coloring_checks_a_small_split_input_for_a_p7(make):
    g = make()
    assert g.n <= MEMBERSHIP_CHECK_LIMIT
    with pytest.raises(ValueError) as exc:
        min_coloring(g)
    found = witnesses(str(exc.value))
    assert "p7" in found and induces_pattern(g, "p7", found["p7"]), found


# ROADMAP item 3: every entry point should reject every non-member with a
# witness; these are the non-members that an entry point still answers
_ANSWERED = {("color", "P70"), ("clique", "P7"), ("clique", "P70")} | {
    ("mwis", name) for name in ("C4", "C5", "P7", "P70", "C70")}
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
    for seed in range(60):
        g = forge.random_atom(seed)
        cert = recognize_atom(g)
        colors = color_atom(g, cert)
        assert all(colors[u] != colors[v] for u, v in g.edges()), seed
        if g.n <= 16:
            assert max(colors) == brute_chromatic(g), seed


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


def _glued_bracelets():
    # two twin-free bracelets sharing one vertex: every seven-hole of one
    # leaves the other bracelet unattached
    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(60, 0, -1))})
    return forge.glue(b, b, [0], [0], check=False)


@pytest.mark.parametrize("make,omega", [
    # the random split graph with a 60-clique and 120 stable vertices
    # once took over a minute to color when recognition ran first
    (lambda: split_graph(random.Random(180), 60, 120), 60),
    (_glued_bracelets, 62),
], ids=["split", "glued-bracelets"])
def test_failed_recognition_is_cheap(make, omega):
    g = make()
    for solve in (min_coloring, max_weight_clique):
        start = time.monotonic()
        assert solve(g)[1] == omega
        elapsed = time.monotonic() - start
        assert elapsed < 1, f"{solve.__name__} took {elapsed:.2f}s"
