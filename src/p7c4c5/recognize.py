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
``verify_certificate``, which tests the defining axioms exhaustively,
most of them as rows: vertices, each with two mask tests.

A certificate is plain data: its kind, the list of universal vertices
and, unless the atom is complete, a partition dataclass whose fields are
pivots, vertex lists and lists of vertex lists (a wreath's is its six-ring,
rotated).  One walk over those fields maps vertex ids, checks that the
parts tile the core, and gives the JSON form, the fields by name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from functools import reduce

from .chordal import perfect_elimination_order
from .graph import Graph, bits, mask_of
from .patterns import all_k_holes, find_theta33  # noqa: F401 -- bench/spans.py traces them here
from .patterns import find_induced_path, hole_steps


class RecognitionError(ValueError):
    """Raised when a graph is not an atom of the target class."""

    def __init__(self, reasons):
        super().__init__("; ".join(reasons) if reasons else "not recognized")
        self.reasons = list(reasons)


class ChordalCoreError(RecognitionError):
    """The core (the graph minus its universal clique) is connected and
    chordal, so it holds no six- or seven-hole and no certificate; the
    graph, that core joined to a clique, is chordal too.  If the graph
    is twin-free, as the solvers' quotients are, ``peo`` is the verified
    perfect elimination order of the whole graph that proved it
    (``chordal.perfect_elimination_order``, the reverse of a maximum
    cardinality search with ties to the least id); else it is None."""

    def __init__(self, reasons, peo):
        super().__init__(reasons)
        self.peo = peo


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
    toward part i-2; ``star[i]`` holds the rest.  ``i_star`` is the
    pivot: every nonempty plus or minus list sits where ``WAVY_PAIRS``
    places one from it.
    """

    star: list[list[int]]
    plus: list[list[int]]
    minus: list[list[int]]
    i_star: int

    def part(self, i):
        i %= 7
        return self.star[i] + self.plus[i] + self.minus[i]


# the wavy pairs a bracelet may hold: (plus part, minus part) of each, as
# offsets from its pivot; the plus side's part i meets the minus side's i+2
WAVY_PAIRS = ((5, 0), (0, 2), (6, 1))


def _pivot_misfit(plus, minus, ps):
    """The first nonempty plus or minus list that no wavy pair of pivot
    ps places, as "plus[i]" or "minus[i]"; None if the pivot fits."""
    for lists, side, offsets in ((plus, "plus", {pi for pi, _mi in WAVY_PAIRS}),
                                 (minus, "minus", {mi for _pi, mi in WAVY_PAIRS})):
        for i in range(7):
            if lists[i] and (i - ps) % 7 not in offsets:
                return f"{side}[{i}]"
    return None


@dataclass
class EmeraldPartition:
    """The eleven blow-up classes of the emerald, in ring order.

    Field names follow the ring positions relative to the pivot i_star:
    a0m/a0p sit at the pivot, a1..a6 walk around the ring, and c is the
    extra clique seeing a2s, a3, a4 and a5s.
    """

    a0m: list[int]
    a0p: list[int]
    a1: list[int]
    a2s: list[int]
    a2m: list[int]
    a3: list[int]
    a4: list[int]
    a5s: list[int]
    a5p: list[int]
    a6: list[int]
    c: list[int]
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

    a: list[int]
    d: list[int]
    b: list[list[int]]  # r lists; b[0] ordered by shrinking closed neighborhood
    c: list[list[int]]  # r lists; c[0] likewise

    @property
    def r(self):
        return len(self.b)


@dataclass
class RingPartition:
    """Six parts in cyclic order, each ordered by shrinking neighborhood.

    A wreath is a six-ring rotated so parts (0,1), (2,3), (4,5) are
    complete pairs."""

    x: list[list[int]]  # 6 ordered lists


@dataclass
class CrownPartition:
    """Six inner cliques c[i] plus outer cliques d[i], pivot i_star.

    d[i] is complete to c[i-1], c[i] and c[i+1] and anticomplete to all
    else; d[i_star-1] and d[i_star-2] are empty, d[i_star+1..i_star+3]
    are nonempty and d[i_star] may be either.
    """

    c: list[list[int]]
    d: list[list[int]]
    i_star: int

    def ring(self) -> RingPartition:
        # inner vertices dominate outer ones, so c[i] + d[i] is a valid
        # ordered ring part
        return RingPartition([list(self.c[i]) + list(self.d[i]) for i in range(6)])


@dataclass
class AtomCertificate:
    kind: str  # complete | bracelet | emerald | lantern | wreath | crown
    universal: list[int]
    partition: object = None


def _map_fields(part, f):
    """The fields of a partition by name, with f applied to each vertex
    list as the field's annotation reads: a pivot (int) stays as it is, a
    list[int] is mapped as one list and a list[list[int]] one list at a
    time."""
    out = {}
    for field in fields(part):
        val = getattr(part, field.name)
        out[field.name] = (val if field.type == "int" else f(val) if field.type == "list[int]"
                           else [f(l) for l in val])
    return out


def _map_partition(part, f):
    """Apply an id translation f to every vertex list of a partition."""
    return replace(part, **_map_fields(part, f))


# ---------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------


def _check_rows(g, rows, out):
    """Check rows (what, vertex list, must, miss, chained): each listed
    vertex's closed neighborhood contains the mask *must*, misses the mask
    *miss* and, in a chained row, holds the next one's.  So a part with
    the parts complete to it as must and the parts anticomplete to it as
    miss is a row.  The first violation of a row is named."""
    adj = g.adj
    for what, verts, must, miss, chained in rows:
        prev = u = None
        for v in verts:
            row = adj[v] | 1 << v
            if row & must != must or row & miss or prev is not None and row & prev != row:
                out.append(_row_violation(what, v, row, must, miss, u))
                break
            if chained:
                prev, u = row, v


def _row_violation(what, v, row, must, miss, u):
    """Why vertex v breaks its row, after vertex u in a chained row."""
    for w, verb in ((must & ~row, "misses"), (row & miss, "sees")):
        if w:
            return f"{what}: vertex {v} {verb} vertex {(w & -w).bit_length() - 1}"
    return f"{what}: neighborhood chain broken at {u}>{v}"


def _first_bad_id(ids, n, seen):
    """The first of *ids* outside 0..n-1 or already in the set *seen*,
    which takes the others; None if there is none."""
    for v in ids:
        if not 0 <= v < n or v in seen:
            return v
        seen.add(v)
    return None


def verify_certificate(g: Graph, cert: AtomCertificate) -> list[str]:
    """All violated axioms of the certificate on g (empty list = valid).

    Ids outside g, repeated ids and parts that do not tile the core are
    named first; then the kind's verifier checks its part count and its
    empty parts, and hands its rows to ``_check_rows``."""
    universal, seen = cert.universal, set()
    bad = _first_bad_id(universal, g.n, seen)
    if bad is not None:
        return [f"universal: vertex {bad} listed twice" if 0 <= bad < g.n
                else f"universal: {bad} is not a vertex of the graph"]
    full = g.all_mask
    out = [f"universal: vertex {v} is not universal" for v in universal if g.closed(v) != full]
    if cert.kind == "complete":
        if cert.partition is not None:
            out.append("complete: unexpected partition")
        if len(universal) != g.n:
            out.append("complete: uncovered vertices")
        return out
    if cert.kind not in _KINDS:
        return out + [f"unknown certificate kind {cert.kind!r}"]
    verts = []
    _map_fields(cert.partition, verts.extend)
    bad = _first_bad_id(verts, g.n, seen)
    if bad is not None and not 0 <= bad < g.n:
        return out + [f"partition: {bad} is not a vertex of the graph"]
    if bad is not None or len(seen) != g.n:
        return out + ["partition does not tile the non-universal vertices"]
    # the parts are disjoint, so the verifiers may add their masks; they
    # run in g directly, where universal vertices never interfere
    _KINDS[cert.kind][1](g, cert.partition, _map_fields(cert.partition, mask_of), out)
    return out


def _verify_bracelet(g: Graph, p: BraceletPartition, m, out):
    if any(len(lists) != 7 for lists in (p.star, p.plus, p.minus)):
        out.append("bracelet: needs seven star, plus and minus lists")
        return
    a = [m["star"][i] | m["plus"][i] | m["minus"][i] for i in range(7)]
    for i in range(7):
        if not a[i]:
            out.append(f"bracelet: part {i} empty")
            return
    rows = []
    for i in range(7):
        # consecutive parts complete, parts at distance three anticomplete;
        # a plus vertex sees nothing of part i-2, a minus vertex nothing of
        # part i+2 and a star vertex neither
        near = a[(i - 1) % 7] | a[i] | a[(i + 1) % 7]
        right, left = a[(i + 2) % 7], a[(i - 2) % 7]
        far = a[(i + 3) % 7] | a[(i + 4) % 7]
        rows += [(f"bracelet star[{i}]", p.star[i], near, far | right | left, False),
                 (f"bracelet plus[{i}]", p.plus[i], near, far | left, True),
                 (f"bracelet minus[{i}]", p.minus[i], near, far | right, True)]
    _check_rows(g, rows, out)
    # a plus vertex's neighbor in part i+2 sees part i, so the rows put it
    # in minus[i+2]: with the rows, these existence checks make each wavy
    # pair two-sided, and the one pivot axiom below places the pairs
    adj = g.adj
    for i in range(7):
        right, left = a[(i + 2) % 7], a[(i - 2) % 7]
        for v in p.plus[i]:
            if not adj[v] & right:
                out.append(f"bracelet: plus vertex {v} misclassified")
        for v in p.minus[i]:
            if not adj[v] & left:
                out.append(f"bracelet: minus vertex {v} misclassified")
        # some vertex of the part misses both distance-2 parts
        if not any((right & ~adj[v]) and (left & ~adj[v]) for v in p.part(i)):
            out.append(f"bracelet: part {i} dominates both distance-2 parts")
    misfit = _pivot_misfit(p.plus, p.minus, p.i_star % 7)
    if misfit:
        out.append(f"bracelet: {misfit} is no wavy side of pivot {p.i_star % 7}")


def _verify_emerald(g: Graph, p: EmeraldPartition, m, out):
    for name, cls in p.classes():
        if not cls:
            out.append(f"emerald: class {name} empty")
            return
    core = sum(m[name] for name in EmeraldPartition.ORDER)
    near = {name: m[name] for name in EmeraldPartition.ORDER}  # complete to, itself included
    for x, y in EmeraldPartition.EDGES:
        near[x], near[y] = near[x] | m[y], near[y] | m[x]
    _check_rows(g, [(f"emerald class {name}", cls, near[name], core & ~near[name], False)
                    for name, cls in p.classes()], out)


def _verify_lantern(g: Graph, p: LanternPartition, m, out):
    if p.r < 3 or len(p.c) != p.r:
        out.append("lantern: needs r >= 3 arms on both sides")
        return
    for lst, what in [(p.a, "a"), (p.d, "d")] + [(p.b[i], f"b{i}") for i in range(p.r)] + [
        (p.c[i], f"c{i}") for i in range(p.r)
    ]:
        if not lst:
            out.append(f"lantern: part {what} empty")
            return
    am, dm, bm, cm = m["a"], m["d"], m["b"], m["c"]
    bs, cs = sum(bm), sum(cm)
    # hub a is complete to every b part, hub d to every c part; the arms
    # are anticomplete to each other, and complete inside except arm 0,
    # whose b and c sides are chains led by a vertex complete to the other
    rows = [("lantern part a", p.a, am | bs, dm | cs, False),
            ("lantern part d", p.d, dm | cs, am | bs, False)]
    for i in range(p.r):
        others = (bs | cs) & ~(bm[i] | cm[i])
        rows += [(f"lantern part b{i}", p.b[i], bm[i] | am | (cm[i] if i else 0), dm | others, not i),
                 (f"lantern part c{i}", p.c[i], cm[i] | dm | (bm[i] if i else 0), am | others, not i)]
    rows += [("lantern arm 0 top b", p.b[0][:1], cm[0], 0, False),
             ("lantern arm 0 top c", p.c[0][:1], bm[0], 0, False)]
    _check_rows(g, rows, out)


def _verify_ring(g: Graph, ring: RingPartition, m, out, pairs=False):
    """Six-ring axioms; with *pairs* (a wreath), parts (0,1), (2,3) and
    (4,5) are complete to each other too."""
    if len(ring.x) != 6:
        out.append("ring: needs six parts")
        return
    for i in range(6):
        if not ring.x[i]:
            out.append(f"ring: part {i} empty")
            return
    x = m["x"]
    rows = []
    for i in range(6):
        own = x[i] | (x[i ^ 1] if pairs else 0)
        far = x[(i + 2) % 6] | x[(i + 3) % 6] | x[(i + 4) % 6]
        rows += [(f"ring part {i}", ring.x[i], own, far, True),
                 (f"ring part {i} leading vertex", ring.x[i][:1],
                  x[(i - 1) % 6] | x[(i + 1) % 6], 0, False)]
    _check_rows(g, rows, out)


def _verify_crown(g: Graph, p: CrownPartition, m, out):
    if len(p.c) != 6 or len(p.d) != 6:
        out.append("crown: needs six inner and six outer parts")
        return
    for i in range(6):
        if not p.c[i]:
            out.append(f"crown: inner part {i} empty")
            return
    out += _crown_pivot_misfits(p.d, p.i_star % 6)
    c, d = m["c"], m["d"]
    cs, ds = sum(c), sum(d)
    rows = []
    for i in range(6):
        # the inner parts form a ring of consecutive complete cliques; an
        # outer clique d[i] is complete to c[i-1], c[i], c[i+1] only
        near = c[(i - 1) % 6] | c[i] | c[(i + 1) % 6]
        rows += [(f"crown inner {i}", p.c[i], near, cs & ~near, False),
                 (f"crown outer {i}", p.d[i], d[i] | near, (cs & ~near) | (ds & ~d[i]), False)]
    _check_rows(g, rows, out)


def _crown_pivot_misfits(d, ps):
    """What the outer parts d break of crown pivot ps, which wants d[ps+1],
    d[ps+2] and d[ps+3] nonempty and d[ps-2], d[ps-1] empty."""
    return [f"crown: outer part {(ps + off) % 6} must be {'nonempty' if off < 4 else 'empty'}"
            for off in range(1, 6) if bool(d[(ps + off) % 6]) != (off < 4)]


# each kind with a core: its partition class and the verifier of its axioms
_KINDS = {
    "bracelet": (BraceletPartition, _verify_bracelet),
    "emerald": (EmeraldPartition, _verify_emerald),
    "lantern": (LanternPartition, _verify_lantern),
    "wreath": (RingPartition, lambda g, ring, m, out: _verify_ring(g, ring, m, out, pairs=True)),
    "crown": (CrownPartition, _verify_crown),
}


# ---------------------------------------------------------------------
# bracelet / emerald recognition from a seven-hole
# ---------------------------------------------------------------------


# a vertex's trace on a seven-hole (bit i: it sees hole vertex i) -> (k,
# start) if it is a cyclic run of k = 3 or 4 hole vertices from start
_RUNS = {sum(1 << (s + j) % 7 for j in range(k)): (k, s) for k in (3, 4) for s in range(7)}
_HOLE_RUNS = [_RUNS.get(trace) for trace in range(128)]


def refine_bracelet(g: Graph, a_masks) -> BraceletPartition:
    """Split ring parts into star/plus/minus sublists and pick a pivot.

    ``a_masks`` are seven vertex masks forming the ring partition.  A
    vertex that sees part i+2 is a plus vertex, else one that sees part
    i-2 a minus vertex; the pivot is the first that fits the nonempty
    plus and minus lists, else 0.  Nothing is checked here: whatever
    breaks the axioms, ``verify_certificate`` names.
    """
    star = [[] for _ in range(7)]
    plus = [[] for _ in range(7)]
    minus = [[] for _ in range(7)]
    for i in range(7):
        right = a_masks[(i + 2) % 7]
        left = a_masks[(i - 2) % 7]
        for v in bits(a_masks[i]):
            (plus if g.adj[v] & right else minus if g.adj[v] & left else star)[i].append(v)
        plus[i].sort(key=lambda v: (-(g.adj[v] & right).bit_count(), v))
        minus[i].sort(key=lambda v: (-(g.adj[v] & left).bit_count(), v))
    ps = next((ps for ps in range(7) if _pivot_misfit(plus, minus, ps) is None), 0)
    return BraceletPartition(star, plus, minus, ps)


def _classify_against_hole(g: Graph, hole):
    """Initial ring parts and pending four-attachment vertices for a hole."""
    a = [1 << hole[i] for i in range(7)]
    hole_mask = mask_of(hole)
    pending = {}
    for v, row in enumerate(g.adj):
        if hole_mask >> v & 1:
            continue
        trace = 0
        for i, h in enumerate(hole):
            trace |= (row >> h & 1) << i
        run = _HOLE_RUNS[trace]
        if run is None:
            if trace == 127:
                raise _BadAttachment([f"vertex {v} complete to the seven-hole"])
            if not trace:
                raise _BadAttachment([f"vertex {v} anticomplete to the seven-hole"])
            raise _BadAttachment([f"vertex {v} attaches badly to the seven-hole"])
        k, start = run
        if k == 3:
            a[(start + 1) % 7] |= 1 << v
        else:
            pending[v] = (start - 2) % 7
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
    a2m, a2s = split(a[(l + 2) % 7], a0)
    a5p, a5s = split(a[(l - 2) % 7], a0)
    lst = lambda m: list(bits(m))
    return EmeraldPartition(
        a0m=lst(a0m), a0p=lst(a0p), a1=lst(a[(l + 1) % 7]),
        a2s=lst(a2s), a2m=lst(a2m), a3=lst(a[(l + 3) % 7]),
        a4=lst(a[(l - 3) % 7]), a5s=lst(a5s), a5p=lst(a5p),
        a6=lst(a[(l - 1) % 7]), c=lst(c_mask), i_star=l,
    )


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
    _verify_ring(g, ring, _map_fields(ring, mask_of), out)
    return None if out else ring


def classify_wreath_or_crown(g: Graph, ring: RingPartition):
    """Split a six-ring into a wreath or a crown: ("wreath", the rotated
    ring) or ("crown", CrownPartition).  Raises with a P7 witness when
    neither fits (the ring then lies outside the target class).  Only
    which outer parts are empty depends on the crown's pivot, so it is
    read from them and the crown is checked once."""
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
        if not _crown_pivot_misfits(d, ps):
            cand, out = CrownPartition(c, d, ps), []
            _verify_crown(g, cand, _map_fields(cand, mask_of), out)
            if not out:
                return "crown", cand
            break
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
        wavy = [i for i, (bm, cm) in enumerate(parts) if not sk.is_complete_to(bm, cm)]
        if len(wavy) > 1:
            continue
        order = wavy + [i for i in range(len(parts)) if i not in wavy]
        rank = lambda m, other: sorted(
            bits(m), key=lambda v: (-(sk.adj[v] & other).bit_count(), v))
        cand = LanternPartition([a], [dd], [rank(*parts[i]) for i in order],
                                [rank(*parts[i][::-1]) for i in order])
        out = []
        _verify_lantern(sk, cand, _map_fields(cand, mask_of), out)
        if not out:
            return cand
    return None


# ---------------------------------------------------------------------
# top-level atom recognition
# ---------------------------------------------------------------------


def _anticonnected(g: Graph) -> bool:
    """Whether the complement of g is connected: a search over the masks
    of non-neighbors."""
    full, seen, frontier = g.all_mask, 1, 1
    while frontier:
        frontier = reduce(int.__or__, (~g.adj[v] for v in bits(frontier))) & full & ~seen
        seen |= frontier
    return seen == full


def recognize_atom(g: Graph) -> AtomCertificate:
    """Certify an atom of the class, or raise RecognitionError.

    One pass groups the vertices of g by closed row: the universal
    clique, and the twin classes of the rest (the core), whose skeleton
    is recognized.  The lantern hubs are searched for first (a
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
    and a chordal graph, since each of the five shapes holds a six- or a
    seven-hole.  The second raises a ``ChordalCoreError``.  Universal
    vertices and true twins add no hole, so it tests a twin-free g whole,
    and the error carries the order it verified, which the solvers split
    and solve g by with no second order; with twins it tests only the
    least member of each core class, a graph that may be far smaller.
    The one copy is the skeleton, induced on those least members
    straight from g; the core is a join iff its skeleton is, as no core
    vertex is universal.  A skeleton of ``Graph.twin_decomposition`` is
    not grouped again, and an input with no twin and no universal vertex
    is its own skeleton: its partition needs no lift.
    """
    n = g.n
    if g._twin_free:  # its classes are its vertices, and at most one is universal
        universal = [v for v, row in enumerate(g.adj) if row.bit_count() == n - 1]
        classes = [[v] for v in range(n) if v not in universal]
    else:
        groups = {}  # closed row -> its vertices, in increasing order
        for v, row in enumerate(g.adj):
            groups.setdefault(row | 1 << v, []).append(v)
        universal = groups.pop(g.all_mask, [])
        # a core vertex's closed row is its row in the core plus the
        # universal clique, so the other groups are the core's twin classes
        classes = list(groups.values())
    if not classes:
        return AtomCertificate("complete", universal)
    own = len(classes) == n  # no twin and no universal vertex: g is its skeleton
    reps = g.all_mask if own else mask_of(cls[0] for cls in classes)
    if g.component_of(classes[0][0], reps) != reps:
        raise RecognitionError(["the universal clique is a clique cutset"])
    twin_free = len(classes) == n - len(universal) and len(universal) <= 1
    peo = perfect_elimination_order(g, None if twin_free else reps)
    if peo is not None:
        raise ChordalCoreError(["the non-universal part is chordal: no six- or seven-hole"],
                               peo if twin_free else None)
    sk = g.induced(reps)  # skeleton vertex j is the least member of classes[j]
    if not _anticonnected(sk):
        raise RecognitionError(
            ["non-universal part is a join of several pieces (contains a 4-hole)"]
        )

    def lift(sk_vertices):
        # skeleton ids -> their twin classes, in ids of g
        return [v for j in sk_vertices for v in classes[j]]

    def certified(kind, part):
        cert = AtomCertificate(kind, universal, part if own else _map_partition(part, lift))
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
    """Inverse of ``certificate_to_dict``.  ValueError, naming the field,
    on a missing or unknown kind, a missing universal list, a missing
    partition on a kind with a core, a partition whose field names do not
    match its kind's, or a field whose value is not of its annotated
    shape: a pivot int, a vertex list (ints) or a list of vertex lists."""
    for key in ("kind", "universal"):
        if key not in d:
            raise ValueError(f"certificate: missing field {key!r}")
    kind, universal = d["kind"], d["universal"]

    def ids(lst):
        return isinstance(lst, list) and all(type(v) is int for v in lst)

    shapes = {"int": lambda val: type(val) is int, "list[int]": ids,
              "list[list[int]]": lambda val: isinstance(val, list) and all(map(ids, val))}

    def check(name, shape, val):
        if not shapes[shape](val):
            raise ValueError(f"{kind} certificate: field {name!r} must be {shape}, got {val!r}")

    check("universal", "list[int]", universal)
    if kind == "complete":
        if d.get("partition") is not None:
            raise ValueError("a complete certificate has no partition")
        return AtomCertificate(kind, list(universal))
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown certificate kind {kind!r} in field 'kind'")
    cls, p = _KINDS[kind][0], d.get("partition")
    names = [field.name for field in fields(cls)]
    if not isinstance(p, dict):
        raise ValueError(f"{kind} certificate: field 'partition' must map {names}, got {p!r}")
    if sorted(p) != sorted(names):
        raise ValueError(f"{kind} partition needs fields {names}, got {sorted(p)}")
    for field in fields(cls):
        check(field.name, field.type, p[field.name])
    return AtomCertificate(kind, list(universal), cls(**p))
