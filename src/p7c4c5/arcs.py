"""Proper circular-arc representations for bracelets and emeralds.

All coordinates are exact rationals.  An arc is a closed pair (start,
end) read clockwise on a circle of given circumference; start > end
means the arc wraps.  Twin vertices may share the same arc (identical
closed arcs intersect and neither properly contains the other, so this
preserves both the intersection pattern and properness).

The bracelet construction places a canonical family of equal-length
intervals on a line and then closes the line into a circle, identifying
the left end of the first interval with the right end of the last one;
this adds exactly the one missing adjacency.  The emerald construction
uses a fixed family of eleven arcs, one per blow-up class, shared by
every member of the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graph import Graph, bits, mask_of
from .recognize import BraceletPartition, EmeraldPartition, RecognitionError

F = Fraction


@dataclass
class ArcRepresentation:
    circumference: Fraction
    arcs: dict  # vertex id -> (start, end) with 0 <= start, end < circumference

    def arc_length(self, v):
        s, e = self.arcs[v]
        return (e - s) % self.circumference


def _contains_point(arc, p, L):
    s, e = arc
    return ((p - s) % L) <= ((e - s) % L)


def arcs_intersect(a, b, L) -> bool:
    return _contains_point(a, b[0], L) or _contains_point(b, a[0], L)


def arc_contains(a, b, L) -> bool:
    """Closed arc a contains closed arc b."""
    la = (a[1] - a[0]) % L
    lb = (b[1] - b[0]) % L
    return ((b[0] - a[0]) % L) + lb <= la


def is_proper(rep: ArcRepresentation) -> bool:
    """No arc properly contains another (identical arcs are allowed)."""
    L = rep.circumference
    items = list(rep.arcs.values())
    for a, b in combinations(items, 2):
        if a == b:
            continue
        if arc_contains(a, b, L) or arc_contains(b, a, L):
            return False
    return True


def realize(rep: ArcRepresentation, n: int | None = None) -> Graph:
    """Intersection graph of the arc family (vertex ids from the dict)."""
    keys = sorted(rep.arcs)
    if n is None:
        n = (max(keys) + 1) if keys else 0
    L = rep.circumference
    edges = []
    for i, u in enumerate(keys):
        for v in keys[i + 1 :]:
            if arcs_intersect(rep.arcs[u], rep.arcs[v], L):
                edges.append((u, v))
    return Graph.build(n, edges)


def max_point_load(rep: ArcRepresentation) -> int:
    """Largest number of arcs through a single point (checked at starts).

    Works on the distinct arcs with multiplicities, so families with many
    duplicated arcs cost only (distinct arcs)^2.  For the families built
    here every clique has a common point (the arcs are too short for a
    pairwise-intersecting family to wrap the whole circle), so this is
    exactly the clique number of the intersection graph.
    """
    L = rep.circumference
    mult: dict = {}
    for a in rep.arcs.values():
        mult[a] = mult.get(a, 0) + 1
    best = 0
    for (s, _e) in mult:
        cover = sum(m for a, m in mult.items() if _contains_point(a, s, L))
        best = max(best, cover)
    return best


# ---------------------------------------------------------------------
# canonical bracelet intervals
# ---------------------------------------------------------------------

# interval slots of the canonical bracelet: fixed singletons ...
_FIXED_SLOTS = {
    ("a", 4): (F(1), F(4)),
    ("a", 5): (F(3), F(6)),
    ("a", 6): (F(5), F(8)),
    ("a", 0): (F(7), F(10)),
    ("a", 1): (F(9), F(12)),
    ("a", 2): (F(11), F(14)),
    ("a", 3): (F(13), F(16)),
}
# ... and the base offsets of the three wavy pairs (x_i = base + i*s)
_PAIR_BASES = {
    "5p": (F(3), F(6)),
    "0m": (F(6), F(9)),
    "0p": (F(7), F(10)),
    "2m": (F(10), F(13)),
    "6p": (F(5), F(8)),
    "1m": (F(8), F(11)),
}


def bracelet_intervals(t: int, s: Fraction | None = None) -> dict:
    """The canonical interval family of order t.

    Returns a dict mapping slots to closed intervals: ("a", i) for the
    seven fixed intervals and (pair, i) with i in 1..t for the wavy
    pairs.  The step s must satisfy 0 < s*t < 1; default 1/(t+1).
    """
    if t < 1:
        raise ValueError("order t must be at least 1")
    if s is None:
        s = F(1, t + 1)
    if not (0 < s * t < 1):
        raise ValueError("step must satisfy 0 < s*t < 1")
    out = dict(_FIXED_SLOTS)
    for pair, (lo, hi) in _PAIR_BASES.items():
        for i in range(1, t + 1):
            out[(pair, i)] = (lo + i * s, hi + i * s)
    return out


def close_circle(intervals: dict) -> tuple[Fraction, dict]:
    """Wrap the canonical intervals onto a circle of circumference 15.

    The left endpoint of the first interval (at 1) is identified with the
    right endpoint of the last (at 16), which adds exactly the adjacency
    between the two fixed intervals at the seam.
    """
    L = F(15)
    return L, {
        slot: ((lo - 1) % L, (hi - 1) % L) for slot, (lo, hi) in intervals.items()
    }


def canonical_embed(g: Graph, part: BraceletPartition):
    """Assign every bracelet vertex a slot of the canonical family.

    Works at twin-class level, so twins share slots (and later arcs).
    Returns (t, slot_of) where slot_of maps vertex id -> slot key.
    """
    rot = lambda i: (part.i_star + i) % 7
    slot_of = {}
    # stars: in a twin-free part all star vertices coincide; with twins
    # they share the single canonical star slot
    for i in range(7):
        for v in part.star[rot(i)]:
            slot_of[v] = ("a", i)
    pair_names = {(5, "p"): "5p", (0, "m"): "0m", (0, "p"): "0p",
                  (2, "m"): "2m", (6, "p"): "6p", (1, "m"): "1m"}
    t = 1
    for (i, side), name in pair_names.items():
        if side != "p":
            continue  # minus sides are handled together with their plus side
        xs = part.plus[rot(i)]
        ys = part.minus[rot((i + 2) % 7)]
        if not xs and not ys:
            continue
        if not xs or not ys:
            raise RecognitionError([f"wavy pair at part {i} is one-sided"])
        xmask = mask_of(xs)
        # distinct neighborhoods on the y side, in shrinking order
        y_classes = []
        for y in ys:  # already dominance-ordered
            nb = g.adj[y] & xmask
            if not y_classes or y_classes[-1][0] != nb:
                y_classes.append((nb, []))
            y_classes[-1][1].append(y)
        for rank, (_nb, members) in enumerate(y_classes, start=1):
            yname = pair_names[((i + 2) % 7, "m")]
            for y in members:
                slot_of[y] = (yname, rank)
        # x slot: number of y classes met
        for x in xs:
            prefix = sum(1 for _cnb, m in y_classes if g.has_edge(x, m[0]))
            if prefix == 0:
                raise RecognitionError([f"wavy vertex {x} has no partner"])
            slot_of[x] = (name, prefix)
            t = max(t, prefix)
    # forbidden sides must be empty after rotation
    for i, side in ((3, "p"), (3, "m"), (4, "p"), (4, "m"),
                    (5, "m"), (2, "p"), (6, "m"), (1, "p")):
        lst = part.plus[rot(i)] if side == "p" else part.minus[rot(i)]
        if lst:
            raise RecognitionError([f"unexpected wavy vertices at part {i}{side}"])
    return t, slot_of


def bracelet_arcs(g: Graph, part: BraceletPartition) -> ArcRepresentation:
    """Proper circular-arc representation of a bracelet (no universal part)."""
    t, slot_of = canonical_embed(g, part)
    intervals = bracelet_intervals(t)
    L, circle = close_circle(intervals)
    return ArcRepresentation(L, {v: circle[slot] for v, slot in slot_of.items()})


# ---------------------------------------------------------------------
# emerald arcs
# ---------------------------------------------------------------------

# base angular arcs of the eleven emerald classes (degrees, circle of 360)
_EMERALD_BASE = {
    "a2s": (F(0), F(70)),
    "a3": (F(30), F(100)),
    "c": (F(60), F(120)),
    "a4": (F(80), F(150)),
    "a5s": (F(110), F(180)),
    "a5p": (F(140), F(210)),
    "a6": (F(170), F(240)),
    "a0m": (F(190), F(310)),
    "a0p": (F(230), F(350)),
    "a1": (F(300), F(10)),
    "a2m": (F(330), F(40)),
}


def emerald_arcs(g: Graph, part: EmeraldPartition) -> ArcRepresentation:
    """Arc representation of a thickened emerald (no universal part).

    Every member of a blow-up class gets the class's base arc: the
    members are true twins, and identical arcs keep both the
    intersection pattern and properness.
    """
    return ArcRepresentation(F(360), {
        v: _EMERALD_BASE[name] for name, cls in part.classes() for v in cls
    })


# ---------------------------------------------------------------------
# exact coloring of the arc graph
# ---------------------------------------------------------------------


def pca_color(g: Graph, rep: ArcRepresentation, omega: int | None = None):
    """Minimum coloring of a graph given a proper arc representation.

    Checks that the arcs realize g, then tries k = omega, omega+1, ...,
    floor(3*omega/2) with exact backtracking over blocks of identical arcs
    (twins are interchangeable, so searching block color-sets loses
    nothing).  Returns (colors, k) with colors a 1-based list indexed by
    vertex.
    """
    if sorted(rep.arcs) != list(range(g.n)):
        raise ValueError("arc representation does not cover the vertices 0..n-1")
    # blocks of identical arcs, in start order
    by_arc = {}
    for v in range(g.n):
        by_arc.setdefault(rep.arcs[v], []).append(v)
    blocks = sorted(by_arc.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[1][0]))
    # the arcs realize g iff every block lies inside one class of true
    # twins and two blocks meet exactly when their first vertices are
    # adjacent: O(n + blocks^2) instead of comparing every pair of arcs
    L = rep.circumference
    for i, (arc, vs) in enumerate(blocks):
        top = g.closed(vs[0])
        if any(g.closed(v) != top for v in vs) or any(
            arcs_intersect(arc, arc2, L) != bool(top >> vs2[0] & 1)
            for arc2, vs2 in blocks[i + 1 :]
        ):
            raise ValueError("arc representation does not realize the graph")
    bverts = [vs for _arc, vs in blocks]
    if omega is None:
        omega = max_point_load(rep)
    bmasks = [mask_of(vs) for vs in bverts]
    nb = []
    for i, vs in enumerate(bverts):
        m = 0
        for v in vs:
            m |= g.adj[v]
        nb.append([j for j in range(len(bverts)) if j != i and m & bmasks[j]])

    def attempt(k: int):
        if any(len(vs) > k for vs in bverts):
            return None
        chosen = [0] * len(bverts)  # color bitmask per block

        def place(i):
            if i == len(bverts):
                return True
            forbidden = 0
            for j in nb[i]:
                if j < i:
                    forbidden |= chosen[j]
            free = [c for c in range(k) if not (forbidden >> c & 1)]
            need = len(bverts[i])
            if len(free) < need:
                return False
            for combo in combinations(free, need):
                chosen[i] = 0
                for c in combo:
                    chosen[i] |= 1 << c
                if place(i + 1):
                    return True
            chosen[i] = 0
            return False

        if not place(0):
            return None
        colors = [0] * g.n
        for i, vs in enumerate(bverts):
            cs = sorted(bits(chosen[i]))
            for v, c in zip(vs, cs):
                colors[v] = c + 1
        return colors

    for k in range(max(omega, 1), (3 * omega) // 2 + 1):
        colors = attempt(k)
        if colors is not None:
            return colors, k
    raise RuntimeError("arc coloring exceeded the 3*omega/2 window")
