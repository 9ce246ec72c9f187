"""The atom verifier of ``p7c4c5.recognize`` as it was before the row
kernel: one check per pair of parts, each walking a part.  It is kept
as a reference, so that tests can assert that the row kernel gives the
same verdict on every certificate and graph.  Use it on well-formed ids
only: it has none of the id checks of ``verify_certificate``."""

from p7c4c5.graph import Graph, mask_of
from p7c4c5.recognize import (
    AtomCertificate,
    BraceletPartition,
    CrownPartition,
    EmeraldPartition,
    LanternPartition,
    RingPartition,
    _map_fields,
)


def _cm(g, a, b, what, out):
    if not g.is_complete_to(a, b):
        out.append(f"{what}: not complete")


def _am(g, a, b, what, out):
    if not g.is_anticomplete_to(a, b):
        out.append(f"{what}: not anticomplete")


def _clique(g, m, what, out):
    if not g.is_clique(m):
        out.append(f"{what}: not a clique")


def _check_chain(g, ordered, what, out):
    for u, v in zip(ordered, ordered[1:]):
        if g.closed(v) & ~g.closed(u):
            out.append(f"{what}: neighborhood chain broken at {u}>{v}")
            return


def pairwise_verify(g: Graph, cert: AtomCertificate) -> list[str]:
    """All violated axioms of the certificate on g (empty list = valid)."""
    out: list[str] = []
    umask = mask_of(cert.universal)
    full = g.all_mask
    for v in cert.universal:
        if g.closed(v) != full:
            out.append(f"universal: vertex {v} is not universal")
    core_mask = full & ~umask
    if cert.kind == "complete":
        if cert.partition is not None:
            out.append("complete: unexpected partition")
        if core_mask:
            out.append("complete: uncovered vertices")
        return out
    if cert.kind not in _KINDS:
        out.append(f"unknown certificate kind {cert.kind!r}")
        return out
    verts = []
    _map_fields(cert.partition, verts.extend)
    if sorted(verts) != sorted(set(verts)) or mask_of(verts) != core_mask:
        out.append("partition does not tile the non-universal vertices")
        return out
    # checks run in g directly; universal vertices never interfere
    _KINDS[cert.kind](g, cert.partition, out)
    return out


def _verify_bracelet(g: Graph, p: BraceletPartition, out):
    if any(len(lists) != 7 for lists in (p.star, p.plus, p.minus)):
        out.append("bracelet: needs seven star, plus and minus lists")
        return
    a = [mask_of(p.part(i)) for i in range(7)]
    for i in range(7):
        if not a[i]:
            out.append(f"bracelet: part {i} empty")
            return
        _clique(g, a[i], f"bracelet part {i}", out)
    for i in range(7):
        _cm(g, a[i], a[(i + 1) % 7], f"bracelet parts {i},{(i + 1) % 7}", out)
        _am(g, a[i], a[(i + 3) % 7], f"bracelet parts {i},{(i + 3) % 7}", out)
    for i in range(7):
        right, left = a[(i + 2) % 7], a[(i - 2) % 7]
        for v in p.star[i]:
            if g.adj[v] & (right | left):
                out.append(f"bracelet: star vertex {v} has distance-2 neighbors")
        for v in p.plus[i]:
            if not (g.adj[v] & right) or (g.adj[v] & left):
                out.append(f"bracelet: plus vertex {v} misclassified")
        for v in p.minus[i]:
            if not (g.adj[v] & left) or (g.adj[v] & right):
                out.append(f"bracelet: minus vertex {v} misclassified")
        _check_chain(g, p.plus[i], f"bracelet plus[{i}]", out)
        _check_chain(g, p.minus[i], f"bracelet minus[{i}]", out)
        # some vertex of the part misses both distance-2 parts
        if not any(
            (right & ~g.adj[v]) and (left & ~g.adj[v]) for v in p.part(i)
        ):
            out.append(f"bracelet: part {i} dominates both distance-2 parts")
    for i in range(7):
        if bool(p.plus[i]) != bool(p.minus[(i + 2) % 7]):
            out.append(f"bracelet: wavy pair ({i},{(i + 2) % 7}) one-sided")
        if p.plus[i]:
            for j, lab in (((i + 3) % 7, "plus"), ((i - 3) % 7, "plus"),
                           ((i - 2) % 7, "minus"), ((i - 1) % 7, "minus")):
                if (p.plus if lab == "plus" else p.minus)[j]:
                    out.append(f"bracelet: plus[{i}] excludes {lab}[{j}]")
        if p.minus[i]:
            for j, lab in (((i + 1) % 7, "plus"), ((i + 2) % 7, "plus"),
                           ((i + 3) % 7, "minus"), ((i - 3) % 7, "minus")):
                if (p.plus if lab == "plus" else p.minus)[j]:
                    out.append(f"bracelet: minus[{i}] excludes {lab}[{j}]")
    ps = p.i_star % 7
    if p.plus[(ps + 3) % 7] or p.minus[(ps + 3) % 7] or p.plus[(ps + 4) % 7] or p.minus[(ps + 4) % 7]:
        out.append("bracelet: pivot-opposite parts not pure")
    if p.minus[(ps - 2) % 7] or p.plus[(ps + 2) % 7]:
        out.append("bracelet: pivot distance-2 one-sidedness violated")
    if p.minus[(ps - 1) % 7] or p.plus[(ps + 1) % 7]:
        out.append("bracelet: pivot distance-1 one-sidedness violated")


def _verify_emerald(g: Graph, p: EmeraldPartition, out):
    masks = {}
    for name, cls in p.classes():
        if not cls:
            out.append(f"emerald: class {name} empty")
            return
        m = mask_of(cls)
        masks[name] = m
        _clique(g, m, f"emerald class {name}", out)
    edge = {frozenset(e) for e in EmeraldPartition.EDGES}
    names = list(EmeraldPartition.ORDER)
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            if frozenset((x, y)) in edge:
                _cm(g, masks[x], masks[y], f"emerald {x}-{y}", out)
            else:
                _am(g, masks[x], masks[y], f"emerald {x}-{y}", out)


def _verify_lantern(g: Graph, p: LanternPartition, out):
    if p.r < 3 or len(p.c) != p.r:
        out.append("lantern: needs r >= 3 arms on both sides")
        return
    am, dm = mask_of(p.a), mask_of(p.d)
    bm = [mask_of(x) for x in p.b]
    cm = [mask_of(x) for x in p.c]
    for m, what in [(am, "a"), (dm, "d")] + [(bm[i], f"b{i}") for i in range(p.r)] + [
        (cm[i], f"c{i}") for i in range(p.r)
    ]:
        if not m:
            out.append(f"lantern: part {what} empty")
            return
        _clique(g, m, f"lantern part {what}", out)
    _am(g, am, dm, "lantern hubs", out)
    for i in range(p.r):
        _cm(g, am, bm[i], f"lantern a-b{i}", out)
        _am(g, am, cm[i], f"lantern a-c{i}", out)
        _cm(g, dm, cm[i], f"lantern d-c{i}", out)
        _am(g, dm, bm[i], f"lantern d-b{i}", out)
        for j in range(i + 1, p.r):
            _am(g, bm[i] | cm[i], bm[j] | cm[j], f"lantern arms {i},{j}", out)
        if i >= 1:
            _cm(g, bm[i], cm[i], f"lantern arm {i}", out)
    _check_chain(g, p.b[0], "lantern b[0]", out)
    _check_chain(g, p.c[0], "lantern c[0]", out)
    _cm(g, 1 << p.b[0][0], cm[0], "lantern arm 0 top b", out)
    _cm(g, 1 << p.c[0][0], bm[0], "lantern arm 0 top c", out)


def _verify_ring(g: Graph, ring: RingPartition, out):
    if len(ring.x) != 6:
        out.append("ring: needs six parts")
        return
    x = [mask_of(part) for part in ring.x]
    for i in range(6):
        if not ring.x[i]:
            out.append(f"ring: part {i} empty")
            return
        _clique(g, x[i], f"ring part {i}", out)
        _am(g, x[i], x[(i + 2) % 6], f"ring parts {i},{(i + 2) % 6}", out)
        _am(g, x[i], x[(i + 3) % 6], f"ring parts {i},{(i + 3) % 6}", out)
    for i in range(6):
        top = ring.x[i][0]
        want = x[(i - 1) % 6] | x[i] | x[(i + 1) % 6]
        if g.closed(top) & (x[0] | x[1] | x[2] | x[3] | x[4] | x[5]) != want:
            out.append(f"ring: leading vertex of part {i} does not span its window")
        _check_chain(g, ring.x[i], f"ring part {i}", out)


def _verify_wreath(g: Graph, ring: RingPartition, out):
    _verify_ring(g, ring, out)
    if len(ring.x) != 6:
        return
    x = [mask_of(p) for p in ring.x]
    for i in (0, 2, 4):
        _cm(g, x[i], x[i + 1], f"wreath pair ({i},{i + 1})", out)


def _verify_crown(g: Graph, p: CrownPartition, out):
    if len(p.c) != 6 or len(p.d) != 6:
        out.append("crown: needs six inner and six outer parts")
        return
    c = [mask_of(part) for part in p.c]
    d = [mask_of(part) for part in p.d]
    ps = p.i_star % 6
    for i in range(6):
        if not c[i]:
            out.append(f"crown: inner part {i} empty")
            return
        _clique(g, c[i], f"crown inner {i}", out)
        if d[i]:
            _clique(g, d[i], f"crown outer {i}", out)
    for off in (1, 2, 3):
        if not d[(ps + off) % 6]:
            out.append(f"crown: outer part {(ps + off) % 6} must be nonempty")
    for off in (4, 5):  # i_star - 2, i_star - 1
        if d[(ps + off) % 6]:
            out.append(f"crown: outer part {(ps + off) % 6} must be empty")
    for i in range(6):
        _cm(g, c[i], c[(i + 1) % 6], f"crown inner {i},{(i + 1) % 6}", out)
        _am(g, c[i], c[(i + 2) % 6], f"crown inner {i},{(i + 2) % 6}", out)
        _am(g, c[i], c[(i + 3) % 6], f"crown inner {i},{(i + 3) % 6}", out)
        if not d[i]:
            continue
        for j in range(6):
            if j in ((i - 1) % 6, i, (i + 1) % 6):
                _cm(g, d[i], c[j], f"crown outer {i} vs inner {j}", out)
            else:
                _am(g, d[i], c[j], f"crown outer {i} vs inner {j}", out)
        for j in range(i + 1, 6):
            _am(g, d[i], d[j], f"crown outer {i},{j}", out)


_KINDS = {
    "bracelet": _verify_bracelet,
    "emerald": _verify_emerald,
    "lantern": _verify_lantern,
    "wreath": _verify_wreath,
    "crown": _verify_crown,
}
