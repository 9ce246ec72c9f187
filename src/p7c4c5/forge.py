"""Deterministic construction of member graphs and atoms for tests.

Every atom is a blow-up: clique parts that are complete, anticomplete or
nested to one another.  Cross adjacencies between ordered cliques are
described by staircases: a non-increasing row profile f where row j is
adjacent to the first f[j] columns, so neighborhoods are nested on both
sides.  A graph is assembled from its part masks, each adjacency row the
OR of a few of them, with no edge list.  All generators are pure
functions of their arguments (and an explicit seed for the random
variants) and validate their inputs before building anything.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass

from .graph import Graph, bits, mask_of
from .patterns import class_membership, crossing_p7
from .recognize import WAVY_PAIRS, EmeraldPartition


class ForgeError(ValueError):
    pass


@dataclass(frozen=True)
class Staircase:
    """Row profile of a staircase between two ordered parts.

    f[j] is the number of columns (counted from the dominant end) that
    row j sees; f must be non-increasing.  ``full(r, c)`` gives the
    complete bipartite profile.
    """

    f: tuple

    def __post_init__(self):
        f = tuple(self.f)
        object.__setattr__(self, "f", f)
        if any(x < 0 for x in f):
            raise ForgeError("staircase entries must be nonnegative")
        if any(f[i] < f[i + 1] for i in range(len(f) - 1)):
            raise ForgeError("staircase profile must be non-increasing")

    @property
    def rows(self):
        return len(self.f)

    @property
    def cols(self):
        return self.f[0] if self.f else 0

    @staticmethod
    def full(rows: int, cols: int) -> "Staircase":
        return Staircase((cols,) * rows)


def _assemble(n: int, cliques, joins, stairs) -> Graph:
    """The graph on 0..n-1 whose rows are ORs of part masks.

    Each mask in *cliques* is a clique, each pair of masks (a, b) in
    *joins* is a complete pair, and each (staircase, row_ids, col_ids) in
    *stairs* links row j to the first f[j] columns.  Costs O(n) big-int
    ORs per part, however many edges there are.
    """
    rows = [0] * n
    for c in cliques:
        for v in bits(c):
            rows[v] |= c
    for a, b in joins:
        for v in bits(a):
            rows[v] |= b
        for v in bits(b):
            rows[v] |= a
    for st, row_ids, col_ids in stairs:
        if len(row_ids) != st.rows:
            raise ForgeError("row count mismatch")
        if st.cols > len(col_ids):
            raise ForgeError("staircase wider than the column part")
        # prefix masks: the first k columns, the first k rows
        col_pre = list(itertools.accumulate((1 << c for c in col_ids), operator.or_, initial=0))
        row_pre = list(itertools.accumulate((1 << v for v in row_ids), operator.or_, initial=0))
        for v, k in zip(row_ids, st.f):
            rows[v] |= col_pre[k]
        # column c sees the rows with f[j] > c, a prefix as f is non-increasing
        k = st.rows
        for c, u in enumerate(col_ids[:st.cols]):
            while st.f[k - 1] <= c:
                k -= 1
            rows[u] |= row_pre[k]
    return Graph(n, tuple(row & ~(1 << v) for v, row in enumerate(rows)))


# ---------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------


def gen_bracelet(star_sizes, pairs=None, i_star: int = 0) -> Graph:
    """Blow-up of a seven-hole with up to three wavy staircase pairs.

    star_sizes lists the seven part sizes; pairs maps a pair slot k in
    {0, 1, 2} to a Staircase adding extra vertices: rows to part
    i_star+pi and columns to part i_star+mi, for (pi, mi) the k-th wavy
    pair of ``WAVY_PAIRS``.  The pivot-opposite parts stay pure, as the
    structure requires (axioms III-V).
    """
    if len(star_sizes) != 7:
        raise ForgeError("need exactly seven part sizes")
    if any(s < 1 for s in star_sizes):
        raise ForgeError("every part needs a plain vertex (axiom II.f)")
    pairs = dict(pairs or {})
    if any(slot not in (0, 1, 2) for slot in pairs):
        raise ForgeError("pair slots are 0, 1, 2 (axioms III-V forbid others)")
    part = []
    n = 0
    for s in star_sizes:
        part.append(mask_of(range(n, n + s)))
        n += s
    stairs = []
    for slot, st in sorted(pairs.items()):
        if st.f and (st.f[-1] < 1 or not st.cols):
            raise ForgeError("wavy vertices need at least one partner each")
        pi, mi = WAVY_PAIRS[slot]
        pi, mi = (i_star + pi) % 7, (i_star + mi) % 7
        plus = range(n, n + st.rows)
        minus = range(plus.stop, plus.stop + st.cols)
        n = minus.stop
        part[pi] |= mask_of(plus)
        part[mi] |= mask_of(minus)
        stairs.append((st, plus, minus))
    joins = [(part[i], part[(i + 1) % 7]) for i in range(7)]
    return _assemble(n, part, joins, stairs)


def gen_emerald(sizes) -> Graph:
    """Blow-up of the eleven-class emerald; sizes maps class name to size."""
    missing = [k for k in EmeraldPartition.ORDER if k not in sizes]
    if missing:
        raise ForgeError(f"missing emerald classes: {missing}")
    if any(sizes[k] < 1 for k in EmeraldPartition.ORDER):
        raise ForgeError("every emerald class must be nonempty")
    part = {}
    n = 0
    for name in EmeraldPartition.ORDER:
        part[name] = mask_of(range(n, n + sizes[name]))
        n += sizes[name]
    joins = [(part[x], part[y]) for x, y in EmeraldPartition.EDGES]
    return _assemble(n, part.values(), joins, [])


def gen_lantern(a_size, d_size, arms, wavy: Staircase | None = None) -> Graph:
    """Two nonadjacent hub cliques with r >= 3 pairwise anticomplete arms.

    arms lists (b_size, c_size) pairs; the b side is complete to hub a,
    the c side to hub d.  With *wavy* set, the first arm's cross edges
    follow the staircase instead of being complete.
    """
    if a_size < 1 or d_size < 1:
        raise ForgeError("both hubs must be nonempty")
    if len(arms) < 3:
        raise ForgeError("a lantern needs at least three arms")
    if any(b < 1 or c < 1 for b, c in arms):
        raise ForgeError("every arm needs both sides nonempty")
    a, d = mask_of(range(a_size)), mask_of(range(a_size, a_size + d_size))
    n = a_size + d_size
    cliques, joins, stairs = [a, d], [], []
    for i, (b_size, c_size) in enumerate(arms):
        b_ids = range(n, n + b_size)
        c_ids = range(b_ids.stop, b_ids.stop + c_size)
        n = c_ids.stop
        b, c = mask_of(b_ids), mask_of(c_ids)
        cliques += [b, c]
        joins += [(a, b), (c, d)]
        if i == 0 and wavy is not None:
            if wavy.rows != b_size or wavy.cols != c_size:
                raise ForgeError("wavy staircase must span the full first arm")
            if wavy.f[-1] < 1:
                raise ForgeError("every wavy-arm vertex needs a partner")
            stairs.append((wavy, b_ids, c_ids))
        else:
            joins.append((b, c))
    return _assemble(n, cliques, joins, stairs)


def gen_ring6(sizes, links=None) -> Graph:
    """Six cyclically linked ordered cliques with staircase cross edges.

    links[i] describes the staircase from part i (rows) to part i+1
    (columns); by default every link is complete.  Each part uses one
    global dominance order, shared by both of its links.
    """
    if len(sizes) != 6 or any(s < 1 for s in sizes):
        raise ForgeError("need six positive part sizes")
    if links is None:
        links = [Staircase.full(sizes[i], sizes[(i + 1) % 6]) for i in range(6)]
    if len(links) != 6:
        raise ForgeError("need six links")
    parts = []
    n = 0
    for s in sizes:
        parts.append(range(n, n + s))
        n += s
    for i, st in enumerate(links):
        if st.rows != sizes[i] or st.cols != sizes[(i + 1) % 6]:
            raise ForgeError(
                f"link {i} must span all of part {i} and be full at the top"
            )
    cliques = [mask_of(p) for p in parts]
    stairs = [(links[i], parts[i], parts[(i + 1) % 6]) for i in range(6)]
    return _assemble(n, cliques, [], stairs)


def gen_wreath(sizes, loose_links=None) -> Graph:
    """A six-ring whose parts (0,1), (2,3) and (4,5) are complete pairs.

    loose_links optionally gives the staircases for the three remaining
    links (1,2), (3,4), (5,0), in that order.
    """
    if len(sizes) != 6:
        raise ForgeError("need six part sizes")
    if loose_links is None:
        loose_links = [
            Staircase.full(sizes[1], sizes[2]),
            Staircase.full(sizes[3], sizes[4]),
            Staircase.full(sizes[5], sizes[0]),
        ]
    links = [None] * 6
    for j, i in enumerate((1, 3, 5)):
        links[i] = loose_links[j]
        links[i - 1] = Staircase.full(sizes[i - 1], sizes[i])
    return gen_ring6(sizes, links)


def gen_crown(c_sizes, d_sizes) -> Graph:
    """Blow-up of a crown: inner ring cliques c[i] plus outer cliques d[i].

    d[i] is complete to c[i-1], c[i], c[i+1] and nothing else.  The fixed
    convention puts the forced-empty outer slots at 0 and 1, requires
    d[3], d[4], d[5] nonempty and leaves d[2] free.
    """
    if len(c_sizes) != 6 or len(d_sizes) != 6:
        raise ForgeError("need six inner and six outer sizes")
    if any(s < 1 for s in c_sizes):
        raise ForgeError("inner parts must be nonempty")
    if d_sizes[2] < 0:
        raise ForgeError("outer sizes must be nonnegative")
    if d_sizes[0] or d_sizes[1]:
        raise ForgeError("outer slots 0 and 1 must be empty")
    if any(d_sizes[i] < 1 for i in (3, 4, 5)):
        raise ForgeError("outer slots 3, 4, 5 must be nonempty")
    part = []
    n = 0
    for s in list(c_sizes) + list(d_sizes):
        part.append(mask_of(range(n, n + s)))
        n += s
    cs, ds = part[:6], part[6:]
    joins = [(cs[i], cs[(i + 1) % 6]) for i in range(6)]
    joins += [(ds[i], cs[(i + t) % 6]) for i in range(6) for t in (-1, 0, 1)]
    return _assemble(n, part, joins, [])


# ---------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------


def add_universal_clique(g: Graph, k: int) -> Graph:
    """Join a k-clique of new vertices to the whole graph."""
    if k < 0:
        raise ForgeError("clique size must be nonnegative")
    new = ((1 << k) - 1) << g.n
    full = new | g.all_mask
    rows = [row | new for row in g.adj]
    rows += [full & ~(1 << v) for v in range(g.n, g.n + k)]
    return Graph(g.n + k, tuple(rows))


def glue(g1: Graph, g2: Graph, clique1, clique2, check: bool = True) -> Graph:
    """Identify a clique of g1 with an equal-sized clique of g2.

    The shared clique keeps the g1 ids; the rest of g2 is appended.  A
    hole never crosses the shared clique, so when g1 and g2 are members
    the only pattern gluing can create is a P7 across it: with *check*,
    the result is rejected if ``crossing_p7`` finds one, at any size.
    """
    clique1, clique2 = list(clique1), list(clique2)
    if len(clique1) != len(clique2):
        raise ForgeError("cliques must have equal size")
    m1, m2 = mask_of(clique1), mask_of(clique2)
    if m1.bit_count() != len(clique1) or m2.bit_count() != len(clique2):
        raise ForgeError("a gluing clique lists a vertex twice")
    if not g1.is_clique(m1) or not g2.is_clique(m2):
        raise ForgeError("gluing sets must be cliques")
    trans = dict(zip(clique2, clique1))
    rows = list(g1.adj)
    for v in range(g2.n):
        if v not in trans:
            trans[v] = len(rows)
            rows.append(0)
    for v, row in enumerate(g2.adj):
        rows[trans[v]] |= mask_of(trans[u] for u in bits(row))
    out = Graph(len(rows), tuple(rows))
    side = g1.all_mask
    p7 = check and crossing_p7(out, [(m1, side), (0, out.all_mask & ~side | m1)])
    if p7:
        raise ForgeError(f"gluing left the class: {dict(p7=list(p7))}")
    return out


# ---------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------


def _rng(seed):
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_staircase(rng, rows, cols):
    """*rows* random row widths in 1..*cols*, sorted down, the top one full."""
    f = sorted((rng.randint(1, cols) for _ in range(rows)), reverse=True)
    if f:
        f[0] = cols
    return Staircase(tuple(f))


def random_bracelet(seed, max_part: int = 3, max_pair: int = 3) -> Graph:
    rng = _rng(seed)
    stars = [rng.randint(1, max_part) for _ in range(7)]
    pairs = {}
    for slot in range(3):
        if rng.random() < 0.5:
            rows = rng.randint(1, max_pair)
            cols = rng.randint(1, max_pair)
            st = random_staircase(rng, rows, cols)
            pairs[slot] = st
    return gen_bracelet(stars, pairs, i_star=rng.randrange(7))


def random_emerald(seed, max_part: int = 2) -> Graph:
    rng = _rng(seed)
    return gen_emerald({k: rng.randint(1, max_part) for k in EmeraldPartition.ORDER})


def random_lantern(seed, max_hub: int = 3, max_arm: int = 3) -> Graph:
    rng = _rng(seed)
    arms = [
        (rng.randint(1, max_arm), rng.randint(1, max_arm))
        for _ in range(rng.randint(3, 4))
    ]
    wavy = None
    if rng.random() < 0.5:
        wavy = random_staircase(rng, arms[0][0], arms[0][1])
    return gen_lantern(rng.randint(1, max_hub), rng.randint(1, max_hub), arms, wavy)


def random_wreath(seed, max_part: int = 3) -> Graph:
    rng = _rng(seed)
    sizes = [rng.randint(1, max_part) for _ in range(6)]
    loose = [
        random_staircase(rng, sizes[i], sizes[(i + 1) % 6])
        for i in (1, 3, 5)
    ]
    return gen_wreath(sizes, loose)


def random_ring(seed, max_part: int = 3) -> Graph:
    """A random member six-ring (sparse staircases can wind a long induced
    path around the ring, so candidates are filtered by membership)."""
    rng = _rng(seed)
    while True:
        sizes = [rng.randint(1, max_part) for _ in range(6)]
        links = [
            random_staircase(rng, sizes[i], sizes[(i + 1) % 6])
            for i in range(6)
        ]
        g = gen_ring6(sizes, links)
        if class_membership(g).is_member:
            return g


def random_crown(seed, max_part: int = 2) -> Graph:
    rng = _rng(seed)
    c = [rng.randint(1, max_part) for _ in range(6)]
    d = [0, 0, rng.randint(0, max_part)] + [rng.randint(1, max_part) for _ in range(3)]
    return gen_crown(c, d)


def random_atom(seed) -> Graph:
    """A random atom of any kind, possibly topped with a universal clique."""
    rng = _rng(seed)
    kind = rng.choice(["bracelet", "emerald", "lantern", "wreath", "crown", "complete"])
    if kind == "bracelet":
        g = random_bracelet(rng)
    elif kind == "emerald":
        g = random_emerald(rng)
    elif kind == "lantern":
        g = random_lantern(rng)
    elif kind == "wreath":
        g = random_wreath(rng)
    elif kind == "crown":
        g = random_crown(rng)
    else:
        k = rng.randint(1, 5)
        g = _assemble(k, [mask_of(range(k))], [], [])
    if rng.random() < 0.3:
        g = add_universal_clique(g, rng.randint(1, 2))
    return g


def random_member_graph(seed, target: int = 12) -> Graph:
    """A small random member graph (random graphs filtered by the patterns)."""
    rng = _rng(seed)
    while True:
        n = rng.randint(1, target)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.build(n, edges)
        if class_membership(g).is_member:
            return g
