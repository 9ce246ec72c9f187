import random
import time

import pytest

from conftest import blow_up, complete, cycle, path
from p7c4c5 import forge
from p7c4c5.cutset import has_clique_cutset
from p7c4c5.graph import Graph
from p7c4c5.patterns import class_membership
from p7c4c5.recognize import (
    RecognitionError,
    certificate_from_dict,
    certificate_to_dict,
    recognize_atom,
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


def test_universal_clique_is_peeled():
    g = forge.add_universal_clique(cycle(7), 2)
    cert = recognize_atom(g)
    assert cert.kind == "bracelet"
    assert sorted(cert.universal) == [7, 8]


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
