import copy
import hashlib
import itertools
import json
import random
import time

import pytest

from conftest import blow_up, complete, cycle, path
from p7c4c5 import forge
from p7c4c5.cutset import has_clique_cutset
from conftest import split_graph
from pairwise_verifier import pairwise_verify
from p7c4c5 import recognize
from p7c4c5.graph import Graph, mask_of
from p7c4c5.oracle import hole_census
from p7c4c5.patterns import all_k_holes, class_membership
from p7c4c5.recognize import (
    AtomCertificate,
    EmeraldPartition,
    RecognitionError,
    _classify_against_hole,
    _map_partition,
    certificate_from_dict,
    certificate_to_dict,
    recognize_atom,
    recognize_lantern,
    verify_certificate,
)

KINDS = {
    "bracelet": forge.random_bracelet,
    "emerald": forge.random_emerald,
    "lantern": forge.random_lantern,
    "wreath": forge.random_wreath,
    "crown": forge.random_crown,
}


def test_plain_seven_hole_is_a_bracelet():
    cert = recognize_atom(cycle(7))
    assert cert.kind == "bracelet"
    assert verify_certificate(cycle(7), cert) == []


def test_six_hole_is_a_wreath():
    cert = recognize_atom(cycle(6))
    assert cert.kind == "wreath"


def test_complete_graphs():
    cert = recognize_atom(complete(5))
    assert cert.kind == "complete"
    assert sorted(cert.universal) == [0, 1, 2, 3, 4]


def test_universal_clique_is_peeled(monkeypatch):
    # the one copy is the skeleton, induced on the core straight from g
    g = forge.add_universal_clique(cycle(7), 2)
    induced, copies = Graph.induced, []

    def counted(self, s):
        copies.append(s)
        return induced(self, s)

    monkeypatch.setattr(Graph, "induced", counted)
    cert = recognize_atom(g)
    assert cert.kind == "bracelet"
    assert sorted(cert.universal) == [7, 8]
    assert copies == [(1 << 7) - 1]


def test_non_atoms_are_rejected():
    for g in (cycle(4), cycle(5), path(7), path(3)):
        with pytest.raises(RecognitionError):
            recognize_atom(g)


def test_each_kind_recognized_round_trip():
    for kind, gen in KINDS.items():
        hits = 0
        for seed in range(40):
            g = gen(seed)
            cert = recognize_atom(g)
            assert cert.kind == kind, (kind, seed, cert.kind)
            assert verify_certificate(g, cert) == []
            hits += 1
        assert hits == 40


def test_recognized_atoms_have_no_clique_cutset():
    rng = random.Random(7)
    for seed in range(120):
        g = forge.random_atom(seed)
        if g.n > 40:
            continue
        recognize_atom(g)
        assert has_clique_cutset(g) is None, seed


def test_recognition_survives_relabeling():
    rng = random.Random(9)
    for kind, gen in KINDS.items():
        for seed in range(8):
            g = gen(seed)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph.build(g.n, [(perm[u], perm[v]) for (u, v) in g.edges()])
            cert = recognize_atom(h)
            assert cert.kind == kind
            assert verify_certificate(h, cert) == []


def test_twin_blow_ups_recognized():
    rng = random.Random(11)
    for kind, gen in KINDS.items():
        for seed in range(8):
            g = gen(seed)
            if g.n > 25:
                continue
            h = blow_up(g, [rng.randint(1, 3) for _ in range(g.n)])
            cert = recognize_atom(h)
            assert cert.kind == kind, (kind, seed)
            assert verify_certificate(h, cert) == []


def test_certificate_dict_round_trip():
    for gen in KINDS.values():
        g = gen(1)
        cert = recognize_atom(g)
        d = certificate_to_dict(cert)
        back = certificate_from_dict(d)
        assert certificate_to_dict(back) == d
        assert verify_certificate(g, back) == []


def test_verify_rejects_tampered_certificates():
    g = forge.random_bracelet(2)
    cert = recognize_atom(g)
    d = certificate_to_dict(cert)
    # move one vertex into a distant part
    part = d["partition"]["star"]
    donor = max(range(7), key=lambda i: len(part[i]))
    v = part[donor].pop()
    part[(donor + 3) % 7].append(v)
    bad = certificate_from_dict(d)
    assert verify_certificate(g, bad) != []


# small atoms and their certificate JSON, pinned literally: the round trip
# above is self-consistent by construction, these fix the format itself
PINNED = {
    "complete": (lambda: complete(3), {"kind": "complete", "universal": [0, 1, 2]}),
    # a twin class (0, 1), a wavy pair and a universal vertex
    "bracelet": (lambda: forge.add_universal_clique(forge.gen_bracelet(
        [2, 1, 1, 1, 1, 1, 1], {0: forge.Staircase((2, 1))}), 1), {
        "kind": "bracelet", "universal": [12], "partition": {
            "star": [[0, 1], [2], [3], [4], [5], [6], [7]],
            "plus": [[], [], [], [], [], [8, 9], []],
            "minus": [[10, 11], [], [], [], [], [], []], "i_star": 0}}),
    "emerald": (lambda: forge.gen_emerald({k: 1 for k in EmeraldPartition.ORDER}), {
        "kind": "emerald", "universal": [], "partition": {
            "a0m": [9], "a0p": [0], "a1": [1], "a2s": [4], "a2m": [2], "a3": [3],
            "a4": [10], "a5s": [6], "a5p": [7], "a6": [8], "c": [5], "i_star": 0}}),
    "lantern": (lambda: forge.gen_lantern(
        1, 1, [(2, 1), (1, 1), (1, 1)], forge.Staircase((1, 1))), {
        "kind": "lantern", "universal": [], "partition": {
            "a": [0], "d": [1], "b": [[2, 3], [5], [7]], "c": [[4], [6], [8]]}}),
    "wreath": (lambda: cycle(6), {
        "kind": "wreath", "universal": [],
        "partition": {"x": [[0], [1], [2], [3], [4], [5]]}}),
    "crown": (lambda: forge.gen_crown([1] * 6, [0, 0, 1, 1, 1, 1]), {
        "kind": "crown", "universal": [], "partition": {
            "c": [[0], [1], [2], [3], [4], [5]], "d": [[], [], [6], [7], [8], [9]],
            "i_star": 2}}),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_certificate_json_is_pinned(kind):
    make, want = PINNED[kind]
    g = make()
    assert certificate_to_dict(recognize_atom(g)) == want
    assert verify_certificate(g, certificate_from_dict(want)) == []


@pytest.mark.parametrize("edit", ["drop", "duplicate"])
@pytest.mark.parametrize("kind,field", [
    ("lantern", "a"), ("emerald", "c"),  # vertex lists
    ("bracelet", "star"), ("wreath", "x"), ("crown", "d"),  # lists of vertex lists
])
def test_verify_rejects_a_partition_that_does_not_tile(kind, field, edit):
    make, want = PINNED[kind]
    g = make()
    d = copy.deepcopy(want)
    value = d["partition"][field]
    target = value if isinstance(value[0], int) else next(l for l in value if l)
    if edit == "drop":
        target.pop()
    else:
        target.append(target[0])
    assert "partition does not tile the non-universal vertices" in verify_certificate(
        g, certificate_from_dict(d))


def test_certificate_from_dict_rejects_unknown_kinds_and_fields():
    with pytest.raises(ValueError):
        certificate_from_dict({"kind": "hexagon", "universal": [], "partition": {}})
    with pytest.raises(ValueError):
        certificate_from_dict(dict(PINNED["complete"][1], partition={"x": []}))
    for kind, (_make, want) in PINNED.items():
        if kind == "complete":
            continue
        d = copy.deepcopy(want)
        d["partition"]["extra"] = []
        with pytest.raises(ValueError):
            certificate_from_dict(d)
        d = copy.deepcopy(want)
        d["partition"].pop(next(iter(d["partition"])))
        with pytest.raises(ValueError):
            certificate_from_dict(d)
    # a field of the wrong type is rejected here, not met as a TypeError
    # in the verifier: a pivot that is not an int, a part holding a list
    bad = []
    for kind, name, val in (("bracelet", "i_star", "x"), ("crown", "i_star", 2.0),
                            ("lantern", "a", [0, [1]]), ("lantern", "b", [[2, [3]], [5], [7]]),
                            ("wreath", "x", [[0], 1, [2], [3], [4], [5]])):
        d = copy.deepcopy(PINNED[kind][1])
        d["partition"][name] = val
        bad.append(d)
    bad.append(dict(PINNED["complete"][1], universal=[0, "1", 2]))
    for d in bad:
        with pytest.raises(ValueError):
            certificate_from_dict(d)


@pytest.mark.parametrize("kind,field,val", [
    ("complete", "universal", 0),
    ("bracelet", "i_star", []), ("bracelet", "plus", 0), ("bracelet", "star", [0, 1]),
    ("emerald", "i_star", []), ("emerald", "c", 5), ("emerald", "a3", [[3]]),
    ("lantern", "a", 0), ("lantern", "b", [2, 3]),
    ("wreath", "x", 0), ("wreath", "x", [0, 1, 2, 3, 4, 5]),
    ("crown", "i_star", []), ("crown", "d", 0),
])
def test_certificate_from_dict_checks_each_field_against_its_annotation(kind, field, val):
    # a list where a pivot belongs, or an int or a flat list where vertex
    # lists belong, once crashed verify_certificate or (an emerald with
    # "i_star": []) passed it
    d = copy.deepcopy(PINNED[kind][1])
    (d if field == "universal" else d["partition"])[field] = val
    with pytest.raises(ValueError) as exc:
        certificate_from_dict(d)
    assert type(exc.value) is ValueError and repr(field) in str(exc.value)


@pytest.mark.parametrize("field,edit", [
    ("kind", lambda d: d.pop("kind")),
    ("universal", lambda d: d.pop("universal")),
    ("partition", lambda d: d.pop("partition")),
    ("partition", lambda d: d.update(partition=None)),
], ids=["no-kind", "no-universal", "no-partition", "null-partition"])
def test_certificate_from_dict_names_a_missing_field(field, edit):
    # a bracelet has a core, so it needs its partition
    d = copy.deepcopy(PINNED["bracelet"][1])
    edit(d)
    with pytest.raises(ValueError) as exc:
        certificate_from_dict(d)
    assert type(exc.value) is ValueError and repr(field) in str(exc.value)


def test_rejection_reasons_are_reported():
    with pytest.raises(RecognitionError) as exc:
        recognize_atom(cycle(4))
    assert exc.value.reasons


@pytest.mark.parametrize("kind,make", [
    ("bracelet", lambda: forge.gen_bracelet(
        [1] * 7, {0: forge.Staircase(range(200, 0, -1))})),  # 20,301 seven-holes
    ("wreath", lambda: forge.gen_wreath(
        [12] * 6, [forge.Staircase(range(12, 0, -1))] * 3)),  # no seven-hole
])
def test_large_twin_free_atoms_recognized_quickly(kind, make):
    g = make()
    start = time.monotonic()
    cert = recognize_atom(g)
    elapsed = time.monotonic() - start
    assert cert.kind == kind
    assert verify_certificate(g, cert) == []
    assert elapsed <= 10, f"took {elapsed:.1f}s"


def test_generated_atoms_are_members():
    for seed in range(60):
        g = forge.random_atom(seed)
        if g.n <= 24:
            assert class_membership(g).is_member, seed


@pytest.mark.parametrize("kind", sorted(set(PINNED) - {"complete"}))
def test_verify_reports_a_wrong_part_count(kind):
    # merge the last part into the first, so the parts still tile: the
    # verifier names the shape instead of indexing a missing part
    make, want = PINNED[kind]
    cases = [(make(), want)]
    if kind == "bracelet":
        cases.append((cycle(7), certificate_to_dict(recognize_atom(cycle(7)))))
    for g, cert in cases:
        nested = [name for name, val in cert["partition"].items()
                  if isinstance(val, list) and isinstance(val[0], list)]
        edits = [[name] for name in nested] + [nested]
        if not nested:  # an emerald has one list per class: empty one into another
            edits = [["c"]]
        for names in edits:
            d = copy.deepcopy(cert)
            for name in names:
                parts = d["partition"][name]
                if kind == "emerald":
                    d["partition"]["a3"] += parts
                    parts.clear()
                else:
                    parts[0] += parts.pop()
            assert verify_certificate(g, certificate_from_dict(d)), (kind, names)


def _induces_p7(g):
    """Whether some seven vertices induce a path: six edges, every degree
    at most two, one component (brute force over the 7-subsets)."""
    for sub in itertools.combinations(range(g.n), 7):
        m = mask_of(sub)
        degrees = [(g.adj[v] & m).bit_count() for v in sub]
        if sum(degrees) == 12 and max(degrees) <= 2 and g.component_of(sub[0], m) == m:
            return True
    return False


def _relabelled(g, cert, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    f = lambda vs: [perm[v] for v in vs]
    h = Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    part = None if cert.partition is None else _map_partition(cert.partition, f)
    return h, AtomCertificate(cert.kind, f(cert.universal), part)


def _moved_vertex(cert, rng):
    """A copy of cert with one vertex moved to another vertex list."""
    d = certificate_to_dict(cert)
    lists = [lst for val in d["partition"].values() if isinstance(val, list)
             for lst in (val if val and isinstance(val[0], list) else [val])]
    src = rng.choice([lst for lst in lists if lst])
    v = src.pop(rng.randrange(len(src)))
    dst = rng.choice(lists)
    dst.insert(rng.randint(0, len(dst)), v)
    return certificate_from_dict(d)


def test_verified_certificates_prove_membership():
    # a certificate that verifies stands in for the pattern search, so no
    # graph it verifies on may induce a C4, a C5 or a P7: seeded atoms of
    # every kind, relabelled, with and without a universal clique, then
    # tampered (edge flips and moved vertices) wherever that still verifies
    rng = random.Random(16)
    checked = tampered = 0
    small = {"bracelet": dict(max_part=2, max_pair=2), "emerald": dict(max_part=1),
             "lantern": dict(max_hub=2, max_arm=2), "wreath": dict(max_part=2), "crown": {}}
    for kind, gen in sorted(KINDS.items()):
        for seed in range(10):
            g = gen(seed, **small[kind])
            if seed % 2:
                g = forge.add_universal_clique(g, 1 + seed % 3 // 2)
            if g.n > 16:
                continue
            g, cert = _relabelled(g, recognize_atom(g), rng)
            certs = [cert] + [c for c in (_moved_vertex(cert, rng) for _ in range(20))
                              if not verify_certificate(g, c)]
            for c in certs[:3]:
                adj, seen = list(g.adj), {g.adj}
                for _ in range(80):
                    u, v = rng.sample(range(g.n), 2)
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                    h = Graph(g.n, tuple(adj))
                    if verify_certificate(h, c):
                        adj[u] ^= 1 << v
                        adj[v] ^= 1 << u
                    elif h.adj not in seen:
                        seen.add(h.adj)
                tampered += len(seen) - 1 + (c is not cert)
                for rows in seen:
                    h = Graph(g.n, rows)
                    census = hole_census(h)
                    assert not census.get(4) and not census.get(5), (kind, seed, h.edges())
                    assert not _induces_p7(h), (kind, seed, h.edges())
                    checked += 1
    assert tampered >= 60 and checked >= 100, (tampered, checked)


def _disjoint_union(*graphs):
    out = graphs[0]
    for g in graphs[1:]:
        out = forge.glue(out, g, [], [])
    return out


@pytest.mark.parametrize("make", [
    lambda: forge.add_universal_clique(_disjoint_union(
        cycle(7), cycle(6), forge.gen_crown([1] * 6, [0, 0, 1, 1, 1, 1]),
        forge.gen_bracelet([1] * 7, {0: forge.Staircase((3, 2, 1))})), 1),
    lambda: split_graph(random.Random(3), 40, 90),
], ids=["universal-over-atoms", "split"])
def test_non_atoms_fail_without_walking_a_hole(monkeypatch, make):
    # a disconnected or chordal non-universal part is rejected before
    # any hole walk, lantern search or copy of the input
    g = make()

    def no_walk(*args):
        raise AssertionError("walked a hole")

    monkeypatch.setattr(recognize, "hole_steps", no_walk)
    monkeypatch.setattr(recognize, "recognize_lantern", no_walk)
    monkeypatch.setattr(Graph, "induced", no_walk)
    with pytest.raises(RecognitionError):
        recognize_atom(g)


def test_lantern_hubs_found_by_one_lookup():
    # the second hub is the vertex whose closed neighborhood is the
    # complement of the first hub's; twin-free lanterns are found, with
    # their hubs splitting the vertices, and other twin-free atoms are not
    for seed in range(40):
        sk = forge.random_lantern(seed).twin_decomposition()[1]
        part = recognize_lantern(sk)
        assert part is not None and verify_certificate(
            sk, AtomCertificate("lantern", [], part)) == [], seed
        (a,), (d,) = part.a, part.d
        assert sk.closed(a) ^ sk.closed(d) == sk.all_mask, seed
    for kind in ("bracelet", "emerald", "wreath", "crown"):
        for seed in range(10):
            assert recognize_lantern(KINDS[kind](seed).twin_decomposition()[1]) is None


def test_every_hole_of_an_atom_is_seen_by_every_vertex():
    # recognition gives up at the first hole that some vertex misses, and
    # at the first seven-hole that some vertex sees in no cyclic run of
    # three or four vertices: neither happens in any of the five shapes
    for kind, gen in sorted(KINDS.items()):
        for seed in range(30):
            g = gen(seed)
            for h in (g, g.twin_decomposition()[1]):
                for k in (6, 7):
                    for hole in itertools.islice(all_k_holes(h, k), 100):
                        seen = 0
                        for v in hole:
                            seen |= h.closed(v)
                        assert seen == h.all_mask, (kind, seed, hole)
                        if k == 7:
                            _classify_against_hole(h, hole)


def test_glued_bracelets_fail_at_the_first_seven_hole(monkeypatch):
    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(40, 0, -1))})
    g = forge.glue(b, b, [0], [0], check=False)
    tried = []
    build = recognize.build_bracelet_from_hole
    monkeypatch.setattr(recognize, "build_bracelet_from_hole",
                        lambda sk, hole: tried.append(hole) or build(sk, hole))
    with pytest.raises(RecognitionError, match="seven-hole"):
        recognize_atom(g)
    assert len(tried) == 1


def test_six_holes_are_walked_with_seven_holes():
    # a twin-free wreath has no seven-hole: its first six-hole comes at
    # once, where proving that no seven-hole exists takes about a second
    w = forge.gen_wreath([12] * 6, [forge.Staircase(range(12, 0, -1))] * 3)
    for g, kind in ((w, "wreath"), (forge.glue(w, w, [0], [0], check=False), None)):
        start = time.monotonic()
        if kind:
            assert recognize_atom(g).kind == kind
        else:  # two wreaths sharing a vertex: the other one misses a six-hole
            with pytest.raises(RecognitionError, match="six-hole"):
                recognize_atom(g)
        elapsed = time.monotonic() - start
        assert elapsed < 0.2, f"took {elapsed:.2f}s"


def _recipe_atoms():
    """Seeds 0-39 of every kind's random atom, under 0 to 2 universal
    vertices."""
    for kind, gen in sorted(KINDS.items()):
        for seed in range(40):
            g = gen(seed)
            if seed % 3:
                g = forge.add_universal_clique(g, seed % 3)
            yield g


def _flipped(g, rng, k):
    """g with k random vertex pairs flipped between edge and non-edge."""
    adj = list(g.adj)
    for _ in range(k):
        u, v = rng.sample(range(g.n), 2)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def test_verdicts_match_the_pairwise_verifier():
    # the row kernel accepts exactly what the pair-by-pair verifier it
    # replaced accepts: each atom's certificate and 15 moved-vertex
    # tamperings of it, on the atom and on 14 copies with 1 or 2 edge flips
    rng = random.Random(25)
    pairs = rejected = 0
    for g in _recipe_atoms():
        cert = recognize_atom(g)
        certs = [cert] + [_moved_vertex(cert, rng) for _ in range(15)]
        for h in [g] + [_flipped(g, rng, 1 + i % 2) for i in range(14)]:
            for c in certs:
                bad = verify_certificate(h, c)
                assert (not bad) == (not pairwise_verify(h, c)), (h.edges(), c, bad)
                pairs += 1
                rejected += bool(bad)
    assert pairs == 48000 and 40000 < rejected < pairs, rejected


def test_certificates_are_pinned_on_random_atoms():
    # the digest of the certificates the pairwise verifier accepted, on
    # the atoms of the test above
    certs = [certificate_to_dict(recognize_atom(g)) for g in _recipe_atoms()]
    digest = hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()
    assert digest == "90677d1cbbe3179d4dbf99e1c9e465c610c123828de09ced554b32ff933c1c84"


@pytest.mark.parametrize("universal,reason", [
    ([7, 7], "universal: vertex 7 listed twice"),
    ([8], "universal: 8 is not a vertex of the graph"),
    ([-1], "universal: -1 is not a vertex of the graph"),
], ids=["repeated", "past-the-end", "negative"])
def test_verify_names_bad_universal_ids(universal, reason):
    # a 7-hole under one universal vertex, 7; accepting [7, 7] once let
    # coloring add two colors for it
    g = forge.add_universal_clique(cycle(7), 1)
    cert = recognize_atom(g)
    assert cert.universal == [7]
    cert.universal = universal
    assert verify_certificate(g, cert) == [reason]


def test_verify_names_a_negative_partition_id():
    g = cycle(7)
    cert = recognize_atom(g)
    cert.partition.star[0] = [-1]
    assert verify_certificate(g, cert) == ["partition: -1 is not a vertex of the graph"]


def test_recognition_reads_g_once(monkeypatch):
    # the universal clique, the core's twin classes and its connectivity
    # come from one grouping of g's closed rows: recognition asks g for no
    # twin classes and no components (the lantern search asks the
    # skeleton for its arms)
    inputs = []

    def guarded(method):
        def call(self, *args, **kwargs):
            if any(self is g for g in inputs):
                raise AssertionError(f"{method.__name__} of the input graph")
            return method(self, *args, **kwargs)
        return call

    for name in ("twin_classes", "components"):
        monkeypatch.setattr(Graph, name, guarded(getattr(Graph, name)))
    for kind, gen in sorted(KINDS.items()):
        for seed in range(10):
            g = gen(seed)
            if seed % 3:
                g = forge.add_universal_clique(g, seed % 3)
            inputs.append(g)
            assert recognize_atom(g).kind == kind


def test_a_crown_is_checked_once(monkeypatch):
    # the pivot is read from the empty outer parts, so the crown axioms
    # run once on the skeleton, when the six-ring is classified, and once
    # on the input, by verify_certificate
    checked = []
    check = recognize._verify_crown

    def counted(g, p, m, out):
        checked.append(g.n)
        return check(g, p, m, out)

    monkeypatch.setattr(recognize, "_verify_crown", counted)
    monkeypatch.setitem(recognize._KINDS, "crown", (recognize.CrownPartition, counted))
    for seed in range(20):
        g = forge.random_crown(seed)
        checked.clear()
        assert recognize_atom(g).kind == "crown"
        skeleton = len(g.twin_classes())
        assert checked == [skeleton, g.n], seed


def test_bracelet_verdicts_match_the_pairwise_verifier_under_tampering():
    # the one pivot axiom, with the rows, judges as the reference's pivot,
    # one-sidedness and exclusion checks do: every pivot, and one vertex of
    # each nonempty star, plus or minus list moved into each of the 21 lists
    verdicts = 0
    lists = ("star", "plus", "minus")
    for seed in range(60):
        g = forge.random_bracelet(seed)
        if seed % 3:
            g = forge.add_universal_clique(g, seed % 3)
        cert = recognize_atom(g)
        pivots = [copy.deepcopy(cert) for _ in range(7)]
        for ps, c in enumerate(pivots):
            c.partition.i_star = ps
        moved = []
        for src, i in itertools.product(lists, range(7)):
            for dst, j in itertools.product(lists, range(7)) if getattr(cert.partition, src)[i] else ():
                c = copy.deepcopy(cert)
                getattr(c.partition, dst)[j].append(getattr(c.partition, src)[i].pop())
                moved.append(c)
        for c in pivots + moved:
            bad = verify_certificate(g, c)
            assert (not bad) == (not pairwise_verify(g, c)), (seed, c, bad)
            verdicts += 2
            if c in pivots and bad:  # a misfit pivot is named once
                assert len(bad) == 1 and "pivot" in bad[0], bad
    assert verdicts == 25788


def test_a_misfit_pivot_is_named_by_the_verifier():
    # three wavy pairs and one more at a fourth offset: no pivot fits them
    # all, and recognition rejects with the verifier's pivot reason
    g = forge.gen_bracelet([2] * 7, {s: forge.Staircase((1,)) for s in (0, 1, 2)})
    adj = list(g.adj)
    adj[2] |= 1 << 7
    adj[7] |= 1 << 2
    with pytest.raises(RecognitionError) as exc:
        recognize_atom(Graph(g.n, tuple(adj)))
    assert exc.value.reasons == ["bracelet: plus[2] is no wavy side of pivot 0"]
