"""Proper circular-arc representations for bracelets and emeralds.

All coordinates are integers.  An arc is a closed pair (start, end) read
clockwise on a circle of given circumference; start > end means the arc
wraps.  Twin vertices may share the same arc (identical closed arcs
intersect and neither properly contains the other, so this preserves
both the intersection pattern and properness).

The bracelet construction places a canonical family of equal-length
intervals on a line and then closes the line into a circle, identifying
the left end of the first interval with the right end of the last one;
this adds exactly the one missing adjacency.  The emerald construction
uses a fixed family of eleven arcs, one per blow-up class, shared by
every member of the class.

The arc models serve coloring only; the solvers read cliques and stable
sets off the partitions.  One sweep over the blocks of identical arcs in
start order (``_blocks``) checks the arcs and finds each block's window,
the block and the later blocks it meets, and ``pca_color`` colors the
blocks by cyclic color intervals, one Bellman-Ford run per number of
colors; neither compares arcs pairwise.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import xor

from .graph import Graph, bits, mask_of
from .recognize import WAVY_PAIRS, BraceletPartition, EmeraldPartition, RecognitionError


@dataclass
class ArcRepresentation:
    circumference: int
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


# ---------------------------------------------------------------------
# canonical bracelet intervals
# ---------------------------------------------------------------------

# interval slots of the canonical bracelet at unit scale: fixed singletons ...
_FIXED_SLOTS = {
    ("a", 4): (1, 4),
    ("a", 5): (3, 6),
    ("a", 6): (5, 8),
    ("a", 0): (7, 10),
    ("a", 1): (9, 12),
    ("a", 2): (11, 14),
    ("a", 3): (13, 16),
}
# ... and the base offsets of the three wavy pairs (x_i = base + i/(t+1))
_PAIR_BASES = {
    "5p": (3, 6),
    "0m": (6, 9),
    "0p": (7, 10),
    "2m": (10, 13),
    "6p": (5, 8),
    "1m": (8, 11),
}


def bracelet_intervals(t: int) -> dict:
    """The canonical interval family of order t, scaled by t + 1.

    Returns a dict mapping slots to closed intervals: ("a", i) for the
    seven fixed intervals and (pair, i) with i in 1..t for the wavy
    pairs, which step by 1/(t+1) at unit scale; every endpoint is an
    integer.
    """
    if t < 1:
        raise ValueError("order t must be at least 1")
    u = t + 1
    out = {slot: (lo * u, hi * u) for slot, (lo, hi) in _FIXED_SLOTS.items()}
    for pair, (lo, hi) in _PAIR_BASES.items():
        for i in range(1, u):
            out[(pair, i)] = (lo * u + i, hi * u + i)
    return out


def close_circle(intervals: dict) -> tuple[int, dict]:
    """Wrap the canonical intervals onto a circle (circumference 15(t+1)).

    The left endpoint of the first interval, ("a", 4), is identified with
    the right endpoint of the last, ("a", 3), which adds exactly the
    adjacency between the two fixed intervals at the seam.
    """
    lo0 = intervals[("a", 4)][0]
    L = intervals[("a", 3)][1] - lo0
    return L, {
        slot: ((lo - lo0) % L, (hi - lo0) % L) for slot, (lo, hi) in intervals.items()
    }


def canonical_embed(g: Graph, part: BraceletPartition):
    """Assign every bracelet vertex a slot of the canonical family.

    Works at twin-class level, so twins share slots (and later arcs).
    The wavy pair (pi, mi) of ``WAVY_PAIRS`` takes slots "{pi}p" and
    "{mi}m".  The partition must be verified; a pair that does not nest,
    or a plus vertex with no partner, still raises RecognitionError.
    Returns (t, slot_of) where slot_of maps vertex id -> slot key.
    """
    rot = lambda i: (part.i_star + i) % 7
    slot_of = {}
    # stars: in a twin-free part all star vertices coincide; with twins
    # they share the single canonical star slot
    for i in range(7):
        for v in part.star[rot(i)]:
            slot_of[v] = ("a", i)
    t = 1
    for pi, mi in WAVY_PAIRS:
        xs, ys = part.plus[rot(pi)], part.minus[rot(mi)]
        xmask = mask_of(xs)
        # distinct neighborhoods on the y side, in shrinking order
        y_classes = []
        for y in ys:  # already dominance-ordered
            nb = g.adj[y] & xmask
            if not y_classes or y_classes[-1][0] != nb:
                y_classes.append((nb, []))
            y_classes[-1][1].append(y)
        for rank, (_nb, members) in enumerate(y_classes, start=1):
            for y in members:
                slot_of[y] = (f"{mi}m", rank)
        # x slot: number of y classes met, which are a prefix as the
        # neighborhoods shrink; the x in nb_j but not nb_{j+1} meet j classes
        nbs = [nb for nb, _members in y_classes]
        prefix = {}
        for j, (nb, nxt) in enumerate(zip(nbs, nbs[1:] + [0]), start=1):
            if nxt & ~nb:
                raise RecognitionError([f"wavy pair at part {pi} is not nested"])
            for x in bits(nb & ~nxt):
                prefix[x] = j
        for x in xs:
            if x not in prefix:
                raise RecognitionError([f"wavy vertex {x} has no partner"])
            slot_of[x] = (f"{pi}p", prefix[x])
            t = max(t, prefix[x])
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
    "a2s": (0, 70),
    "a3": (30, 100),
    "c": (60, 120),
    "a4": (80, 150),
    "a5s": (110, 180),
    "a5p": (140, 210),
    "a6": (170, 240),
    "a0m": (190, 310),
    "a0p": (230, 350),
    "a1": (300, 10),
    "a2m": (330, 40),
}


def emerald_arcs(g: Graph, part: EmeraldPartition) -> ArcRepresentation:
    """Arc representation of a thickened emerald (no universal part).

    Every member of a blow-up class gets the class's base arc: the
    members are true twins, and identical arcs keep both the
    intersection pattern and properness.
    """
    return ArcRepresentation(360, {
        v: _EMERALD_BASE[name] for name, cls in part.classes() for v in cls
    })


# ---------------------------------------------------------------------
# one block sweep: exact coloring
# ---------------------------------------------------------------------


def _blocks(g: Graph, rep: ArcRepresentation):
    """The blocks of identical arcs in start order, as (arc, vertices),
    and the end of each block's forward run, once the blocks are checked
    to realize the subgraph of g on the vertices of *rep* (ValueError
    otherwise).  Every other vertex of g must be universal (ValueError
    otherwise), and is left to the caller.

    Block i of the m blocks meets the blocks after it as one circular
    run i+1 .. ends[i], unrolled (ends[i] < i + m): those whose starts
    lie in arc i.  Block i and its run form its window, a clique, whose
    weight bounds the colors ``pca_color`` needs.  A family is
    proper iff no two start-consecutive arcs nest or share a start, and
    then the run ends never move backwards, so one pointer finds them
    all.  The blocks that block i meets are then the circular interval
    from the first block whose run reaches i up to ends[i]; each block's
    row is compared with the mask of that interval, read off prefix
    unions over the blocks laid out twice, so that a run that wraps is
    one interval.  Two arcs that cover the circle together lie in each
    other's runs; such a family is rejected too.
    """
    full, verts = g.all_mask, mask_of(rep.arcs)
    if verts & ~full or any(g.closed(v) != full for v in bits(full & ~verts)):
        raise ValueError("arc representation must hold the vertices of g that are "
                         "not universal, and no other ids")
    by_arc = {}
    for v in bits(verts):
        by_arc.setdefault(rep.arcs[v], []).append(v)
    blocks = sorted(by_arc.items())
    m, L = len(blocks), rep.circumference
    arcs = [arc for arc, _vs in blocks]
    for a, b in zip(arcs, arcs[1:] + arcs[:1]) if m > 1 else ():
        if a[0] == b[0] or arc_contains(a, b, L) or arc_contains(b, a, L):
            raise ValueError("arc representation is not proper")
    ends, t = [], 0
    for i, arc in enumerate(arcs):
        t = max(t, i)
        while t + 1 < i + m and _contains_point(arc, arcs[(t + 1) % m][0], L):
            t += 1
        ends.append(t)
    reach = [t - m for t in ends] + ends  # nondecreasing; block j at j + m
    pre = list(accumulate([mask_of(vs) for _arc, vs in blocks] * 2, xor, initial=0))
    for i, (_arc, vs) in enumerate(blocks):
        first = bisect_left(reach, i, i + 1, i + m) - m  # first run to reach i
        lo, span = first % m, ends[i] - first + 1
        if span > m:  # a block both before and after i
            raise ValueError("two arcs of the representation cover the circle")
        # fewer than m blocks are disjoint, so their xor is their union
        want = pre[m] if span == m else pre[lo + span] ^ pre[lo]
        if any(g.closed(v) & verts != want for v in vs):
            raise ValueError("arc representation does not realize the graph")
    return blocks, ends


def _cyclic_gaps(w, ends, window, k: int):
    """Gap sums P_0 .. P_m (P_j - P_0 = g_0 + ... + g_{j-1}) of a
    k-coloring by cyclic color intervals with G = P_m - P_0 = (-n) mod k,
    or None.  The conditions are difference constraints on the P_j,
    decided by one Bellman-Ford run on these m + 1 nodes.  The chain
    edges are listed from the top down, so that one pass carries a
    decrease down the whole chain; the shortest-path fixpoint is the same
    in any edge order.
    """
    m, G = len(w), -sum(w) % k
    edges = [(j + 1, j, 0) for j in range(m - 1, -1, -1)]  # P is nondecreasing
    for i, (t, wt) in enumerate(zip(ends, window)):
        # the window's weight plus the gaps g_i .. g_{t-1} is at most k
        edges.append((i, t, k - wt) if t < m else (i, t - m, k - wt - G))
    edges += [(0, m, G), (m, 0, -G)]
    p = [0] * (m + 1)
    for _ in range(m + 2):
        changed = False
        for u, v, c in edges:
            if p[u] + c < p[v]:
                p[v] = p[u] + c
                changed = True
        if not changed:
            return p
    return None  # a negative cycle: no such coloring


def pca_color(g: Graph, rep: ArcRepresentation, sizes=None):
    """Minimum coloring of the subgraph of g on the vertices of a proper
    arc representation in which no two arcs cover the circle (every
    bracelet and emerald family), each vertex v standing for a clique of
    ``sizes[v]`` true twins (1 by default).  Every other vertex of g must
    be universal, and is left to the caller: it keeps color 0.

    Checks the arcs in one sweep over the blocks of identical arcs
    (``_blocks``), then colors by cyclic color intervals: in start order,
    block j, of weight w_j (the sizes of its vertices), gets the w_j
    colors s_j .. s_j + w_j - 1 (mod k), with s_{j+1} = s_j + w_j + g_j
    and gaps g_j >= 0 adding up to G, where W + G is a multiple of k
    (W the total weight).  This is proper iff every window (a block and
    its forward run, a clique) has weight plus inner gaps at most k.
    Lowering a gap keeps every constraint, so G = (-W) mod k is the one
    test for each k (``_cyclic_gaps``).  k runs up from the largest window
    weight, which is omega when every clique lies over one point; at k = W
    all gaps vanish, so the loop ends there.  Within a block the vertices
    take their colors in id order, each a run of ``sizes[v]``.

    Orlin, Bonuccelli & Bovet (SIAM J. Alg. Disc. Meth., 1981) and Teng &
    Tucker (Discrete Math., 1985) color proper circular-arc graphs exactly
    in polynomial time.  That an optimal coloring of such a family always
    has the cyclic interval form is not proved here; it rests on agreement
    with exhaustive search on small atoms and random families, and with
    the bound max(omega, ceil(n / alpha)) on twin blow-ups (see
    tests/test_arcs.py).  With two arcs that cover the circle the form can
    miss the optimum, so such families are rejected.  Returns (colors, k),
    colors 1-based and indexed by vertex: v's class takes the ``sizes[v]``
    consecutive cyclic colors colors[v], colors[v] + 1, ... (mod k).  They
    are proper whatever k is.
    """
    blocks, ends = _blocks(g, rep)
    if not blocks:
        return [0] * g.n, 0
    if sizes is None:
        sizes = [1] * g.n
    w = [sum(map(sizes.__getitem__, vs)) for _arc, vs in blocks]
    pre = list(accumulate(w + w, initial=0))
    window = [pre[t + 1] - pre[i] for i, t in enumerate(ends)]
    k = max(window)
    while (p := _cyclic_gaps(w, ends, window, k)) is None:
        k += 1
    colors = [0] * g.n
    for j, (_arc, vs) in enumerate(blocks):
        s = pre[j] + p[j] - p[0]  # s_j
        for v in vs:
            colors[v] = s % k + 1
            s += sizes[v]
    return colors, k
