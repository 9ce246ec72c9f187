"""Atom certificates: recognition and exhaustive verification.

An atom (graph without a clique cutset) in the target class is either
complete or the join of a clique of universal vertices with exactly one
of five core shapes:

* seven-part bracelet: cliques A_0..A_6 in a ring, consecutive parts
  complete, parts at distance three anticomplete, and contact between
  parts at distance two restricted to nested "wavy" pairs;
* thickened emerald: a blow-up of a fixed 11-vertex graph (a bracelet
  ring plus an extra clique C attached to four parts);
* lantern: two hubs A, D joined by r >= 3 two-clique arms (B_i, C_i),
  all arms complete except possibly the first, which is nested;
* wreath: a six-part ring with three complete pairs of consecutive parts;
* crown: a blow-up of one of two fixed 9/10-vertex six-ring graphs.

Recognition works constructively on the twin skeleton: the partition is
grown from the first seven-hole whose certificate builds; with no
seven-hole, the lantern hubs are searched for, and failing those the
first six-hole that spans a ring.  No theta search is needed.  Every
produced certificate is re-checked by ``verify_certificate``, which tests
the defining axioms exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, mask_of
from .patterns import all_k_holes, find_induced_path
from .patterns import find_theta33  # noqa: F401 -- bench/spans.py traces it here


class RecognitionError(ValueError):
    """Raised when a graph is not an atom of the target class."""

    def __init__(self, reasons):
        super().__init__("; ".join(reasons) if reasons else "not recognized")
        self.reasons = list(reasons)


# ---------------------------------------------------------------------
# certificate types (vertex ids are local to the graph being certified)
# ---------------------------------------------------------------------


@dataclass
class BraceletPartition:
    """Seven parts, each split into star / plus / minus sublists.

    ``plus[i]`` lists the vertices of part i with a neighbor in part i+2,
    ordered by shrinking closed neighborhood; ``minus[i]`` mirrors this
    toward part i-2; ``star[i]`` holds the rest.  ``i_star`` is a pivot
    index for which the one-sidedness axioms hold.
    """

    star: list
    plus: list
    minus: list
    i_star: int

    def part(self, i):
        i %= 7
        return self.star[i] + self.plus[i] + self.minus[i]

    def all_vertices(self):
        out = []
        for i in range(7):
            out.extend(self.part(i))
        return out


@dataclass
class EmeraldPartition:
    """The eleven blow-up classes of the emerald, in ring order.

    Field names follow the ring positions relative to the pivot i_star:
    a0m/a0p sit at the pivot, a1..a6 walk around the ring, and c is the
    extra clique seeing a2s, a3, a4 and a5s.
    """

    a0m: list
    a0p: list
    a1: list
    a2s: list
    a2m: list
    a3: list
    a4: list
    a5s: list
    a5p: list
    a6: list
    c: list
    i_star: int = 0

    ORDER = ("a0m", "a0p", "a1", "a2s", "a2m", "a3", "a4", "a5s", "a5p", "a6", "c")
    # adjacency between the 11 classes (complete where listed, else anticomplete)
    EDGES = (
        ("a0m", "a0p"), ("a2s", "a2m"), ("a5s", "a5p"),
        ("a0m", "a1"), ("a0m", "a6"), ("a0p", "a1"), ("a0p", "a6"),
        ("a1", "a2s"), ("a1", "a2m"), ("a2s", "a3"), ("a2m", "a3"), ("a3", "a4"),
        ("a4", "a5s"), ("a4", "a5p"), ("a5s", "a6"), ("a5p", "a6"),
        ("a0m", "a5p"), ("a0p", "a2m"),
        ("c", "a2s"), ("c", "a3"), ("c", "a4"), ("c", "a5s"),
    )

    def classes(self):
        return [(name, getattr(self, name)) for name in self.ORDER]

    def all_vertices(self):
        out = []
        for _, cls in self.classes():
            out.extend(cls)
        return out


@dataclass
class LanternPartition:
    """Hubs a and d with r arms (b[i], c[i]); arm 0 may be wavy/nested."""

    a: list
    d: list
    b: list  # r lists; b[0] ordered by shrinking closed neighborhood
    c: list  # r lists; c[0] likewise

    @property
    def r(self):
        return len(self.b)

    def all_vertices(self):
        out = list(self.a) + list(self.d)
        for arm in self.b:
            out.extend(arm)
        for arm in self.c:
            out.extend(arm)
        return out


@dataclass
class RingPartition:
    """Six parts in cyclic order, each ordered by shrinking neighborhood."""

    x: list  # 6 ordered lists

    def all_vertices(self):
        out = []
        for part in self.x:
            out.extend(part)
        return out


@dataclass
class WreathPartition:
    """A six-ring rotated so parts (0,1), (2,3), (4,5) are complete pairs."""

    ring: RingPartition

    def all_vertices(self):
        return self.ring.all_vertices()


@dataclass
class CrownPartition:
    """Six inner cliques c[i] plus outer cliques d[i], pivot i_star.

    d[i] is complete to c[i-1], c[i] and c[i+1] and anticomplete to all
    else; d[i_star-1] and d[i_star-2] are empty, d[i_star+1..i_star+3]
    are nonempty and d[i_star] may be either.
    """

    c: list
    d: list
    i_star: int

    def all_vertices(self):
        out = []
        for part in self.c:
            out.extend(part)
        for part in self.d:
            out.extend(part)
        return out

    def ring(self) -> RingPartition:
        # inner vertices dominate outer ones, so c[i] + d[i] is a valid
        # ordered ring part
        return RingPartition([list(self.c[i]) + list(self.d[i]) for i in range(6)])


@dataclass
class AtomCertificate:
    kind: str  # complete | bracelet | emerald | lantern | wreath | crown
    universal: list
    partition: object = None


# ---------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------


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


def verify_certificate(g: Graph, cert: AtomCertificate) -> list[str]:
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
    part = cert.partition
    verts = part.all_vertices()
    if sorted(verts) != sorted(set(verts)) or mask_of(verts) != core_mask:
        out.append("partition does not tile the non-universal vertices")
        return out
    core = g  # checks run in g directly; universal vertices never interfere
    if cert.kind == "bracelet":
        _verify_bracelet(core, part, out)
    elif cert.kind == "emerald":
        _verify_emerald(core, part, out)
    elif cert.kind == "lantern":
        _verify_lantern(core, part, out)
    elif cert.kind == "wreath":
        _verify_ring(core, part.ring, out)
        x = [mask_of(p) for p in part.ring.x]
        for i in (0, 2, 4):
            _cm(core, x[i], x[(i + 1) % 6], f"wreath pair ({i},{i + 1})", out)
    elif cert.kind == "crown":
        _verify_crown(core, part, out)
    else:
        out.append(f"unknown certificate kind {cert.kind!r}")
    return out


def _verify_bracelet(g: Graph, p: BraceletPartition, out):
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


def _verify_crown(g: Graph, p: CrownPartition, out):
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


# ---------------------------------------------------------------------
# bracelet / emerald recognition from a seven-hole
# ---------------------------------------------------------------------


def _cyclic_run(positions, k):
    """If *positions* (a set of Z7 indices) is a cyclic run of length k,
    return its start, else None."""
    if len(positions) != k:
        return None
    for p in positions:
        if all((p + j) % 7 in positions for j in range(k)):
            return p
    return None


def refine_bracelet(g: Graph, a_masks) -> BraceletPartition:
    """Split ring parts into star/plus/minus sublists and pick a pivot.

    ``a_masks`` are seven vertex masks forming the ring partition; raises
    RecognitionError when the bracelet axioms cannot be met.
    """
    reasons = []
    for i in range(7):
        if not a_masks[i]:
            raise RecognitionError([f"ring part {i} is empty"])
    star = [[] for _ in range(7)]
    plus = [[] for _ in range(7)]
    minus = [[] for _ in range(7)]
    for i in range(7):
        right = a_masks[(i + 2) % 7]
        left = a_masks[(i - 2) % 7]
        for v in bits(a_masks[i]):
            r, l = bool(g.adj[v] & right), bool(g.adj[v] & left)
            if r and l:
                raise RecognitionError(
                    [f"vertex {v} has neighbors in both distance-2 parts"]
                )
            if r:
                plus[i].append(v)
            elif l:
                minus[i].append(v)
            else:
                star[i].append(v)
        plus[i].sort(key=lambda v: (-(g.adj[v] & right).bit_count(), v))
        minus[i].sort(key=lambda v: (-(g.adj[v] & left).bit_count(), v))
    # pivot: first index for which the one-sidedness axioms hold
    for ps in range(7):
        if plus[(ps + 3) % 7] or minus[(ps + 3) % 7]:
            continue
        if plus[(ps + 4) % 7] or minus[(ps + 4) % 7]:
            continue
        if minus[(ps - 2) % 7] or plus[(ps + 2) % 7]:
            continue
        if minus[(ps - 1) % 7] or plus[(ps + 1) % 7]:
            continue
        return BraceletPartition(star, plus, minus, ps)
    raise RecognitionError(["no pivot index satisfies the one-sidedness axioms"])


def _classify_against_hole(g: Graph, hole):
    """Initial ring parts and pending four-attachment vertices for a hole."""
    a = [1 << hole[i] for i in range(7)]
    hole_mask = mask_of(hole)
    pending = {}
    for v in range(g.n):
        if hole_mask >> v & 1:
            continue
        trace = {i for i in range(7) if g.adj[v] >> hole[i] & 1}
        if len(trace) == 7:
            raise RecognitionError([f"vertex {v} complete to the seven-hole"])
        if not trace:
            raise RecognitionError([f"vertex {v} anticomplete to the seven-hole"])
        p3 = _cyclic_run(trace, 3)
        p4 = _cyclic_run(trace, 4)
        if p3 is not None:
            a[(p3 + 1) % 7] |= 1 << v
        elif p4 is not None:
            pending[v] = (p4 - 2) % 7
        else:
            raise RecognitionError([f"vertex {v} attaches badly to the seven-hole"])
    return a, pending


def build_bracelet_from_hole(g: Graph, hole):
    """Grow the ring partition seeded by one seven-hole.

    Four-attachment vertices are absorbed into the ring whenever the part
    opposite their attachment is complete to the unseen piece of the
    next-but-one part; whatever remains must form the extra clique of an
    emerald.  Returns ("bracelet", BraceletPartition) or
    ("emerald", EmeraldPartition).
    """
    a, pending = _classify_against_hole(g, hole)
    changed = True
    while changed and pending:
        changed = False
        for v in sorted(pending):
            l = pending[v]
            nv = g.adj[v]
            right, left = a[(l + 2) % 7], a[(l - 2) % 7]
            if g.is_complete_to(a[l], right & ~nv):
                a[(l + 1) % 7] |= right & ~nv
                a[(l + 2) % 7] = right & nv
                a[(l + 3) % 7] |= 1 << v
            elif g.is_complete_to(a[l], left & ~nv):
                a[(l - 1) % 7] |= left & ~nv
                a[(l - 2) % 7] = left & nv
                a[(l - 3) % 7] |= 1 << v
            else:
                continue
            del pending[v]
            changed = True
            break
    if not pending:
        return ("bracelet", refine_bracelet(g, a))
    ells = set(pending.values())
    if len(ells) > 1:
        raise RecognitionError(
            [f"four-attachment vertices disagree on their slot: {sorted(ells)}"]
        )
    l = ells.pop()
    c_mask = mask_of(pending)
    return ("emerald", _build_emerald(g, a, c_mask, l))


def _build_emerald(g: Graph, a, c_mask, l) -> EmeraldPartition:
    def split(part, other):
        hit = mask_of(v for v in bits(part) if g.adj[v] & other)
        return hit, part & ~hit

    a0 = a[l]
    a0m, _ = split(a0, a[(l - 2) % 7])
    a0p, _ = split(a0, a[(l + 2) % 7])
    if (a0m & a0p) or (a0m | a0p) != a0:
        raise RecognitionError(["pivot part does not split into two reaching halves"])
    a2m, a2s = split(a[(l + 2) % 7], a0)
    a5p, a5s = split(a[(l - 2) % 7], a0)
    lst = lambda m: list(bits(m))
    part = EmeraldPartition(
        a0m=lst(a0m), a0p=lst(a0p), a1=lst(a[(l + 1) % 7]),
        a2s=lst(a2s), a2m=lst(a2m), a3=lst(a[(l + 3) % 7]),
        a4=lst(a[(l - 3) % 7]), a5s=lst(a5s), a5p=lst(a5p),
        a6=lst(a[(l - 1) % 7]), c=lst(c_mask), i_star=l,
    )
    for name, cls in part.classes():
        if not cls:
            raise RecognitionError([f"emerald class {name} came out empty"])
    return part


# ---------------------------------------------------------------------
# six-ring recognition (wreath / crown)
# ---------------------------------------------------------------------


def recognize_ring6(g: Graph):
    """Find an ordered six-ring partition, or None.

    Six-holes are taken lazily in lex order.  For each, part i is the set
    of vertices seeing hole vertices i-1, i and i+1 (and nothing else of
    the hole); parts are ordered by shrinking closed neighborhood, and the
    first ring that passes the ring axioms is returned.
    """
    full = g.all_mask
    for hole in all_k_holes(g, 6):
        x = []
        for i in range(6):
            m = (
                g.closed(hole[(i - 1) % 6])
                & g.closed(hole[i])
                & g.closed(hole[(i + 1) % 6])
            )
            x.append(m)
        cover = 0
        ok = True
        for i in range(6):
            if x[i] & cover:
                ok = False
                break
            cover |= x[i]
        if not ok or cover != full:
            continue
        ring = RingPartition(
            [
                sorted(bits(x[i]), key=lambda v: (-g.closed(v).bit_count(), v))
                for i in range(6)
            ]
        )
        out = []
        _verify_ring(g, ring, out)
        if not out:
            return ring
    return None


def classify_wreath_or_crown(g: Graph, ring: RingPartition):
    """Split a six-ring into a wreath or a crown; raises with a P7 witness
    when neither fits (the ring then lies outside the target class)."""
    x = [mask_of(p) for p in ring.x]
    for r in range(6):
        if all(
            g.is_complete_to(x[(r + i) % 6], x[(r + i + 1) % 6]) for i in (0, 2, 4)
        ):
            rot = RingPartition([ring.x[(r + i) % 6] for i in range(6)])
            return WreathPartition(rot)
    # crown: the inner part is the prefix complete to both neighbor parts
    c = []
    d = []
    for i in range(6):
        want = x[(i - 1) % 6] | x[(i + 1) % 6]
        j = 0
        while j < len(ring.x[i]) and not (want & ~g.closed(ring.x[i][j])):
            j += 1
        c.append(ring.x[i][:j])
        d.append(ring.x[i][j:])
    for ps in range(6):
        cand = CrownPartition(c, d, ps)
        out = []
        _verify_crown(g, cand, out)
        if not out:
            return cand
    wit = find_induced_path(g, 7)
    raise RecognitionError(
        [
            "six-ring is neither wreath nor crown"
            + (f"; induced P7 witness {list(wit)}" if wit else "")
        ]
    )


# ---------------------------------------------------------------------
# lantern recognition
# ---------------------------------------------------------------------


def recognize_lantern(sk: Graph):
    """Hub-and-arms recognition of a twin-free graph, or None.

    The hubs are a nonadjacent pair whose removal leaves at least three
    components, each splitting into a b-side (neighbors of the first hub)
    and a c-side.  ``recognize_atom`` calls this on the twin skeleton and
    folds the twin classes back in itself.
    """
    full = sk.all_mask
    for a in range(sk.n):
        for dd in range(sk.n):
            if a == dd or sk.has_edge(a, dd) or sk.degree(a) < 3 or sk.degree(dd) < 3:
                continue
            rest = full & ~(1 << a) & ~(1 << dd)
            arms = sk.components(within=rest)
            if len(arms) < 3:
                continue
            parts = []
            ok = True
            for arm in arms:
                bm = arm & sk.adj[a]
                cm = arm & sk.adj[dd]
                if (bm & cm) or (bm | cm) != arm or not bm or not cm:
                    ok = False
                    break
                parts.append((bm, cm))
            if not ok:
                continue
            wavy = [
                idx
                for idx, (bm, cm) in enumerate(parts)
                if not sk.is_complete_to(bm, cm)
            ]
            if len(wavy) > 1:
                continue
            order = (wavy if wavy else []) + [
                i for i in range(len(parts)) if i not in wavy
            ]
            b_lists, c_lists = [], []
            for idx in order:
                bm, cm = parts[idx]
                b_lists.append(
                    sorted(bits(bm), key=lambda v: (-(sk.adj[v] & cm).bit_count(), v))
                )
                c_lists.append(
                    sorted(bits(cm), key=lambda v: (-(sk.adj[v] & bm).bit_count(), v))
                )
            cand = LanternPartition([a], [dd], b_lists, c_lists)
            out = []
            _verify_lantern(sk, cand, out)
            if not out:
                return cand
    return None


# ---------------------------------------------------------------------
# top-level atom recognition
# ---------------------------------------------------------------------


def _map_partition(part, f):
    """Apply an id translation f to every vertex list of a partition."""
    if isinstance(part, BraceletPartition):
        return BraceletPartition(
            [f(l) for l in part.star], [f(l) for l in part.plus],
            [f(l) for l in part.minus], part.i_star,
        )
    if isinstance(part, EmeraldPartition):
        kw = {name: f(getattr(part, name)) for name in EmeraldPartition.ORDER}
        return EmeraldPartition(i_star=part.i_star, **kw)
    if isinstance(part, LanternPartition):
        return LanternPartition(
            f(part.a), f(part.d), [f(l) for l in part.b], [f(l) for l in part.c]
        )
    if isinstance(part, RingPartition):
        return RingPartition([f(l) for l in part.x])
    if isinstance(part, WreathPartition):
        return WreathPartition(_map_partition(part.ring, f))
    if isinstance(part, CrownPartition):
        return CrownPartition([f(l) for l in part.c], [f(l) for l in part.d], part.i_star)
    raise TypeError(type(part))


def recognize_atom(g: Graph) -> AtomCertificate:
    """Certify an atom of the class, or raise RecognitionError.

    Universal vertices are peeled first; the rest is reduced by twin
    classes to its skeleton.  The seven-holes of the skeleton are walked
    lazily in lex order, and the first whose bracelet/emerald certificate
    builds and verifies is returned; if seven-holes exist and none
    builds, the last error is raised.  With no seven-hole, the lantern
    recognizer runs, and if it finds no hubs, the six-ring classifier.
    The certificate is always re-verified against the input graph before
    it is returned.
    """
    umask, core_mask = g.universal_clique_peel()
    universal = list(bits(umask))
    if not core_mask:
        return AtomCertificate("complete", universal)
    core = g.induced(core_mask)
    if len(core.anticomponents()) != 1:
        raise RecognitionError(
            ["non-universal part is a join of several pieces (contains a 4-hole)"]
        )
    classes, sk, class_of = core.twin_decomposition()

    def lift(sk_vertices):
        # skeleton ids -> twin class members in core -> ids of g
        out = []
        for j in sk_vertices:
            out.extend(core.vmap[v] for v in classes[class_of[sk.vmap[j]]])
        return out

    last_err = None
    for hole in all_k_holes(sk, 7):
        try:
            kind, part = build_bracelet_from_hole(sk, hole)
        except RecognitionError as e:
            last_err = e
            continue
        cert = AtomCertificate(kind, universal, _map_partition(part, lift))
        bad = verify_certificate(g, cert)
        if not bad:
            return cert
        last_err = RecognitionError(bad)
    if last_err is not None:
        raise last_err
    part = recognize_lantern(sk)
    if part is not None:
        cert = AtomCertificate("lantern", universal, _map_partition(part, lift))
    else:
        ring = recognize_ring6(sk)
        if ring is None:
            raise RecognitionError(
                ["no seven-hole, lantern or six-ring: not an atom of the class"]
            )
        part = classify_wreath_or_crown(sk, ring)
        kind = "wreath" if isinstance(part, WreathPartition) else "crown"
        cert = AtomCertificate(kind, universal, _map_partition(part, lift))
    bad = verify_certificate(g, cert)
    if bad:
        raise RecognitionError(bad)
    return cert


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------


def certificate_to_dict(cert: AtomCertificate) -> dict:
    out = {"kind": cert.kind, "universal": list(cert.universal)}
    p = cert.partition
    if isinstance(p, BraceletPartition):
        out["partition"] = {
            "star": p.star, "plus": p.plus, "minus": p.minus, "i_star": p.i_star
        }
    elif isinstance(p, EmeraldPartition):
        out["partition"] = {name: getattr(p, name) for name in EmeraldPartition.ORDER}
        out["partition"]["i_star"] = p.i_star
    elif isinstance(p, LanternPartition):
        out["partition"] = {"a": p.a, "d": p.d, "b": p.b, "c": p.c}
    elif isinstance(p, WreathPartition):
        out["partition"] = {"x": p.ring.x}
    elif isinstance(p, CrownPartition):
        out["partition"] = {"c": p.c, "d": p.d, "i_star": p.i_star}
    return out


def certificate_from_dict(d: dict) -> AtomCertificate:
    kind = d["kind"]
    p = d.get("partition")
    part = None
    if kind == "bracelet":
        part = BraceletPartition(p["star"], p["plus"], p["minus"], p["i_star"])
    elif kind == "emerald":
        part = EmeraldPartition(**p)
    elif kind == "lantern":
        part = LanternPartition(p["a"], p["d"], p["b"], p["c"])
    elif kind == "wreath":
        part = WreathPartition(RingPartition(p["x"]))
    elif kind == "crown":
        part = CrownPartition(p["c"], p["d"], p["i_star"])
    elif kind != "complete":
        raise ValueError(f"unknown certificate kind {kind!r}")
    return AtomCertificate(kind, list(d["universal"]), part)
