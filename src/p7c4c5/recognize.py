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

Recognition works constructively on the twin skeleton.  Lantern hubs
are looked up first; then the seven-hole and six-hole walks are stepped
in turn, and the partition is grown from the first seven-hole whose
certificate builds, or taken from the first six-hole that spans a ring.
No theta search is needed.  Every produced certificate is re-checked by
``verify_certificate``, which tests the defining axioms exhaustively.

A certificate is plain data: its kind, the list of universal vertices
and, unless the atom is complete, a partition dataclass whose fields are
pivots, vertex lists and lists of vertex lists (a wreath's is its six-ring,
rotated).  One walk over those fields maps vertex ids, checks that the
parts tile the core, and gives the JSON form, the fields by name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from .chordal import perfect_elimination_order
from .graph import Graph, bits, mask_of
from .patterns import all_k_holes, find_theta33  # noqa: F401 -- bench/spans.py traces them here
from .patterns import find_induced_path, hole_steps


class RecognitionError(ValueError):
    """Raised when a graph is not an atom of the target class."""

    def __init__(self, reasons):
        super().__init__("; ".join(reasons) if reasons else "not recognized")
        self.reasons = list(reasons)


class _BadAttachment(RecognitionError):
    """A vertex sees none, all, or no cyclic run of three or four vertices
    of a seven-hole.  In a bracelet or an emerald core every seven-hole
    has one vertex in each part (class), so every vertex sees such a run
    of every seven-hole: no other seven-hole can build either."""


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
    i_star: int

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


@dataclass
class RingPartition:
    """Six parts in cyclic order, each ordered by shrinking neighborhood.

    A wreath is a six-ring rotated so parts (0,1), (2,3), (4,5) are
    complete pairs."""

    x: list  # 6 ordered lists


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

    def ring(self) -> RingPartition:
        # inner vertices dominate outer ones, so c[i] + d[i] is a valid
        # ordered ring part
        return RingPartition([list(self.c[i]) + list(self.d[i]) for i in range(6)])


@dataclass
class AtomCertificate:
    kind: str  # complete | bracelet | emerald | lantern | wreath | crown
    universal: list
    partition: object = None


def _map_fields(part, f):
    """The fields of a partition by name, with f applied to each vertex
    list: an int (a pivot) stays as it is, a vertex list is mapped as one
    list and a list of vertex lists one list at a time.  A field that is
    neither a list nor an int raises ValueError."""
    out = {}
    for name, val in vars(part).items():
        if isinstance(val, list):
            val = [f(l) for l in val] if val and isinstance(val[0], list) else f(val)
        elif type(val) is not int:
            raise ValueError(f"pivot {name} is not an int: {val!r}")
        out[name] = val
    return out


def _map_partition(part, f):
    """Apply an id translation f to every vertex list of a partition."""
    return replace(part, **_map_fields(part, f))


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
    if cert.kind not in _KINDS:
        out.append(f"unknown certificate kind {cert.kind!r}")
        return out
    verts = []
    _map_fields(cert.partition, verts.extend)
    if sorted(verts) != sorted(set(verts)) or mask_of(verts) != core_mask:
        out.append("partition does not tile the non-universal vertices")
        return out
    # checks run in g directly; universal vertices never interfere
    _KINDS[cert.kind][1](g, cert.partition, out)
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


# each kind with a core: its partition class and the verifier of its axioms
_KINDS = {
    "bracelet": (BraceletPartition, _verify_bracelet),
    "emerald": (EmeraldPartition, _verify_emerald),
    "lantern": (LanternPartition, _verify_lantern),
    "wreath": (RingPartition, _verify_wreath),
    "crown": (CrownPartition, _verify_crown),
}


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
            raise _BadAttachment([f"vertex {v} complete to the seven-hole"])
        if not trace:
            raise _BadAttachment([f"vertex {v} anticomplete to the seven-hole"])
        p3 = _cyclic_run(trace, 3)
        p4 = _cyclic_run(trace, 4)
        if p3 is not None:
            a[(p3 + 1) % 7] |= 1 << v
        elif p4 is not None:
            pending[v] = (p4 - 2) % 7
        else:
            raise _BadAttachment([f"vertex {v} attaches badly to the seven-hole"])
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


def ring_of_hole(g: Graph, hole):
    """The ordered six-ring partition that a six-hole spans, or None.

    Part i is the set of vertices seeing hole vertices i-1, i and i+1
    (and nothing else of the hole), ordered by shrinking closed
    neighborhood; the parts must tile the vertices and pass the ring
    axioms.  Raises RecognitionError if a vertex sees no vertex of the
    hole: every vertex of each of the five shapes sees every hole.
    """
    seen = 0
    for v in hole:
        seen |= g.closed(v)
    if seen != g.all_mask:
        v = (g.all_mask & ~seen).bit_length() - 1
        raise RecognitionError([f"vertex {v} anticomplete to the six-hole"])
    x = [g.closed(hole[i - 1]) & g.closed(hole[i]) & g.closed(hole[(i + 1) % 6])
         for i in range(6)]
    # the parts must tile the vertices
    union = x[0] | x[1] | x[2] | x[3] | x[4] | x[5]
    if union != g.all_mask or sum(m.bit_count() for m in x) != g.n:
        return None
    ring = RingPartition(
        [sorted(bits(m), key=lambda v: (-g.closed(v).bit_count(), v)) for m in x])
    out = []
    _verify_ring(g, ring, out)
    return None if out else ring


def classify_wreath_or_crown(g: Graph, ring: RingPartition):
    """Split a six-ring into a wreath or a crown: ("wreath", the rotated
    ring) or ("crown", CrownPartition).  Raises with a P7 witness when
    neither fits (the ring then lies outside the target class)."""
    x = [mask_of(p) for p in ring.x]
    for r in range(6):
        if all(
            g.is_complete_to(x[(r + i) % 6], x[(r + i + 1) % 6]) for i in (0, 2, 4)
        ):
            return "wreath", RingPartition([ring.x[(r + i) % 6] for i in range(6)])
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
            return "crown", cand
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
    and a c-side.  Every other vertex sees exactly one hub, so the second
    hub of a is the vertex whose closed neighborhood is everything outside
    closed(a): in a twin-free graph at most one, found by one lookup.
    ``recognize_atom`` calls this on the twin skeleton and folds the twin
    classes back in itself.
    """
    full = sk.all_mask
    by_closed = {sk.closed(v): v for v in range(sk.n)}
    for a in range(sk.n):
        dd = by_closed.get(full & ~sk.closed(a))
        if dd is None or sk.degree(a) < 3 or sk.degree(dd) < 3:
            continue
        rest = full & ~(1 << a) & ~(1 << dd)
        arms = sk.components(within=rest)
        if len(arms) < 3:
            continue
        parts = [(arm & sk.adj[a], arm & sk.adj[dd]) for arm in arms]
        if any((bm & cm) or (bm | cm) != arm or not bm or not cm
               for arm, (bm, cm) in zip(arms, parts)):
            continue
        wavy = [i for i, (bm, cm) in enumerate(parts) if not sk.is_complete_to(bm, cm)]
        if len(wavy) > 1:
            continue
        order = wavy + [i for i in range(len(parts)) if i not in wavy]
        rank = lambda m, other: sorted(
            bits(m), key=lambda v: (-(sk.adj[v] & other).bit_count(), v))
        cand = LanternPartition([a], [dd], [rank(*parts[i]) for i in order],
                                [rank(*parts[i][::-1]) for i in order])
        out = []
        _verify_lantern(sk, cand, out)
        if not out:
            return cand
    return None


# ---------------------------------------------------------------------
# top-level atom recognition
# ---------------------------------------------------------------------


def recognize_atom(g: Graph) -> AtomCertificate:
    """Certify an atom of the class, or raise RecognitionError.

    Universal vertices are peeled first; the rest is reduced by twin
    classes to its skeleton.  The lantern hubs are searched for first (a
    lantern has no seven-hole: every hole passes through both hubs).
    Then the seven-hole and the six-hole walks of the skeleton, each in
    lex order, are stepped in turn (``hole_steps``), so the pair costs at
    most twice the cheaper walk:

    * the first seven-hole whose bracelet/emerald certificate builds and
      verifies is returned; once a seven-hole is met the six-hole walk
      stops, as a six-ring has none, and if no seven-hole builds the
      last error is raised;
    * the first six-hole that spans a ring is classified as a wreath or
      a crown;
    * with neither, recognition fails.

    The certificate is always re-verified against the input graph before
    it is returned.  A vertex that attaches to a seven-hole as no vertex
    of a bracelet or emerald does, or that sees no vertex of a six-hole,
    ends the walk at once: in each of the five shapes every vertex sees
    every hole, and every seven-hole of a bracelet or an emerald meets
    each part once.

    Two exact tests on masks of g reject an input early, before any copy:
    a disconnected core (the universal clique is then a clique cutset),
    and a chordal core, since each of the five shapes holds a six- or a
    seven-hole.  A graph is chordal iff its true-twin quotient is, so
    only the least member of each twin class is searched.
    """
    umask, core_mask = g.universal_clique_peel()
    universal = list(bits(umask))
    if not core_mask:
        return AtomCertificate("complete", universal)
    if len(g.components(core_mask)) > 1:
        raise RecognitionError(["the universal clique is a clique cutset"])
    reps = mask_of(cls[0] for cls in g.twin_classes(core_mask))
    if perfect_elimination_order(g, within=reps) is not None:
        raise RecognitionError(["the non-universal part is chordal: no six- or seven-hole"])
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

    def certified(kind, part):
        cert = AtomCertificate(kind, universal, _map_partition(part, lift))
        bad = verify_certificate(g, cert)
        if bad:
            raise RecognitionError(bad)
        return cert

    part = recognize_lantern(sk)
    if part is not None:
        return certified("lantern", part)
    sevens, sixes = hole_steps(sk, 7), hole_steps(sk, 6)
    last_err = None
    while sevens or sixes:
        hole = next(sevens, ()) if sevens else None
        if hole == ():
            if last_err is not None:
                raise last_err
            sevens = None
        elif hole:
            sixes = None  # a six-ring has no seven-hole
            try:
                return certified(*build_bracelet_from_hole(sk, hole))
            except _BadAttachment:
                raise
            except RecognitionError as e:
                last_err = e
        hole = next(sixes, ()) if sixes else None
        if hole == ():
            sixes = None
        elif hole:
            ring = ring_of_hole(sk, hole)
            if ring is not None:
                return certified(*classify_wreath_or_crown(sk, ring))
    raise RecognitionError(["no seven-hole, lantern or six-ring: not an atom of the class"])


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------


def certificate_to_dict(cert: AtomCertificate) -> dict:
    """The certificate as JSON-ready data: kind, universal and, unless the
    atom is complete, the partition's fields by name."""
    out = asdict(cert)
    if cert.partition is None:
        del out["partition"]
    return out


def certificate_from_dict(d: dict) -> AtomCertificate:
    """Inverse of ``certificate_to_dict``; ValueError on an unknown kind, a
    partition whose field names do not match its kind's, a pivot that is
    not an int or a vertex list that holds anything but ints."""
    kind, universal = d["kind"], d["universal"]

    def ids(lst):
        if not isinstance(lst, list) or not all(type(v) is int for v in lst):
            raise ValueError(f"{kind} certificate: {lst!r} is not a list of vertex ids")

    ids(universal)
    if kind == "complete":
        if d.get("partition") is not None:
            raise ValueError("a complete certificate has no partition")
        return AtomCertificate(kind, list(universal))
    if kind not in _KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    cls, p = _KINDS[kind][0], d["partition"]
    names = [field.name for field in fields(cls)]
    if sorted(p) != sorted(names):
        raise ValueError(f"{kind} partition needs fields {names}, got {sorted(p)}")
    part = cls(**p)
    _map_fields(part, ids)
    return AtomCertificate(kind, list(universal), part)
