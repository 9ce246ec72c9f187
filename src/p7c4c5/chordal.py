"""Chordal-graph machinery: elimination orders, and exact optimization.

Maximum cardinality search produces a perfect elimination order exactly on
chordal graphs; when verification fails a hole is extracted as the
certificate.  The optimizers (stable set, clique, coloring) all ride on a
verified elimination order and are exact on chordal inputs.
"""

from __future__ import annotations

from .graph import Graph, bits


class NotChordalError(ValueError):
    """Raised when a chordal-only routine is fed a graph with a hole."""

    def __init__(self, hole):
        super().__init__(f"graph has a hole: {list(hole)}")
        self.hole = tuple(hole)


def mcs_order(g: Graph) -> list[int]:
    """Maximum cardinality search visit order (ties to the least id).

    The reverse of this order is a perfect elimination order iff the
    graph is chordal.
    """
    n = g.n
    weight = [0] * n
    visited = 0
    order = []
    for _ in range(n):
        best = -1
        best_w = -1
        for v in range(n):
            if not (visited >> v & 1) and weight[v] > best_w:
                best, best_w = v, weight[v]
        order.append(best)
        visited |= 1 << best
        for u in bits(g.adj[best] & ~visited):
            weight[u] += 1
    return order


def perfect_elimination_order(g: Graph):
    """A verified perfect elimination order, or None if the graph has a hole.

    In the returned list the vertex at position 0 is eliminated first and
    its later neighbors (neighbors appearing after it in the list) form a
    clique, and so on.
    """
    peo = list(reversed(mcs_order(g)))
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    eliminated = 0
    for v in peo:
        eliminated |= 1 << v
        s = g.adj[v] & ~eliminated  # neighbors eliminated after v
        if not s:
            continue
        # parent trick: it suffices to check the earliest later neighbor
        u = min(bits(s), key=lambda x: pos[x])
        if s & ~g.closed(u):
            return None
    return peo


def find_hole(g: Graph):
    """Some hole (induced cycle, length >= 4), canonicalized, or None.

    For each vertex v and nonadjacent pair x,y in N(v), a shortest x-y
    path avoiding the rest of N[v] closes to an induced cycle through v.
    """
    for v in range(g.n):
        nb = list(bits(g.adj[v]))
        for i, x in enumerate(nb):
            for y in nb[i + 1 :]:
                if g.has_edge(x, y):
                    continue
                allowed = g.all_mask & ~g.closed(v) | (1 << x) | (1 << y)
                path = _shortest_path(g, x, y, allowed)
                if path is not None:
                    cyc = [v] + path
                    return _canon_cycle(cyc)
    return None


def _shortest_path(g: Graph, x: int, y: int, allowed: int):
    prev = {x: None}
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for w in bits(g.adj[u] & allowed):
                if w not in prev:
                    prev[w] = u
                    if w == y:
                        path = [y]
                        while path[-1] != x:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(w)
        frontier = nxt
    return None


def _canon_cycle(cyc):
    k = len(cyc)
    i = cyc.index(min(cyc))
    rot = cyc[i:] + cyc[:i]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[1:][::-1]
    return tuple(rot)


def is_chordal(g: Graph) -> bool:
    return perfect_elimination_order(g) is not None


def require_peo(g: Graph) -> list[int]:
    peo = perfect_elimination_order(g)
    if peo is None:
        hole = find_hole(g)
        raise NotChordalError(hole if hole is not None else ())
    return peo


def minimal_triangulation(g: Graph):
    """Minimal fill-in of g (MCS-M: Berry, Blair, Heggernes & Peyton 2004).

    Returns (fill, meo) where *fill* is a set of added edges making the
    graph chordal with an inclusion-minimal fill, and *meo* lists the
    vertices in elimination order (first eliminated first) of the filled
    graph.

    Each step numbers an unnumbered vertex z of largest weight (ties to
    the least id).  An unnumbered y gains one weight, and a fill edge zy
    when not adjacent to z, if some path joins z to y through unnumbered
    vertices all lighter than y.  One search from z finds every such y:
    it expands the vertices it has met weight level by weight level, so
    a vertex is met before its own level is expanded exactly when a
    lighter path leads to it, and every row is OR-ed at most once a step.
    """
    adj = g.adj
    weight = [0] * g.n
    level = {0: g.all_mask} if g.n else {}  # weight -> its unnumbered vertices
    unnumbered = g.all_mask
    fill = set()
    order = []
    for _ in range(g.n):
        top = max(level)
        zbit = level[top] & -level[top]
        z = zbit.bit_length() - 1
        order.append(z)
        unnumbered ^= zbit
        level[top] ^= zbit
        if not level[top]:
            del level[top]
        reached = gain = adj[z] & unnumbered
        expanded = lighter = 0
        for w in sorted(level):
            if not reached & ~expanded:
                break
            lighter |= level[w]  # unnumbered vertices of weight <= w
            frontier = reached & lighter & ~expanded
            while frontier:
                expanded |= frontier
                nxt = 0
                for u in bits(frontier):
                    nxt |= adj[u]
                nxt &= unnumbered & ~reached
                reached |= nxt
                gain |= nxt & ~lighter
                frontier = nxt & lighter
        for y in bits(gain):
            w = weight[y]
            level[w] ^= 1 << y
            if not level[w]:
                del level[w]
            level[w + 1] = level.get(w + 1, 0) | 1 << y
            weight[y] = w + 1
        for y in bits(gain & ~adj[z]):
            fill.add((min(y, z), max(y, z)))
    order.reverse()
    return fill, order


# -- exact optimization on chordal graphs ------------------------------


def chordal_mwis(g: Graph, weights):
    """Maximum-weight stable set on a chordal graph.

    Vertices of nonpositive weight never help, so the computation runs on
    the positive-weight part; the empty set is returned when every weight
    is nonpositive.  Returns (sorted vertex list, total weight).
    """
    pos_mask = 0
    for v in range(g.n):
        if weights[v] > 0:
            pos_mask |= 1 << v
    if not pos_mask:
        return [], 0
    h = g.induced(pos_mask)
    peo = require_peo(h)
    posn = [0] * h.n
    for i, v in enumerate(peo):
        posn[v] = i
    resid = [weights[h.vmap[v]] for v in range(h.n)]
    marked = []
    for v in peo:
        if resid[v] > 0:
            marked.append(v)
            take = resid[v]
            for u in bits(h.adj[v]):
                if posn[u] > posn[v]:
                    resid[u] -= take
    chosen = 0
    out = []
    for v in reversed(marked):
        if not (h.adj[v] & chosen):
            chosen |= 1 << v
            out.append(h.vmap[v])
    out.sort()
    return out, sum(weights[v] for v in out)


def chordal_max_weight_clique(g: Graph, weights=None):
    """Maximum-weight clique on a chordal graph (unit weights by default).

    Nonpositive-weight vertices are dropped inside each candidate clique;
    if every weight is nonpositive the best single vertex is returned.
    Returns (sorted vertex list, total weight).
    """
    if g.n == 0:
        return [], 0
    if weights is None:
        weights = [1] * g.n
    peo = require_peo(g)
    posn = [0] * g.n
    for i, v in enumerate(peo):
        posn[v] = i
    best = None
    for v in peo:
        cliq = [v] + [u for u in bits(g.adj[v]) if posn[u] > posn[v]]
        members = [u for u in cliq if weights[u] > 0]
        if not members:
            continue
        wsum = sum(weights[u] for u in members)
        members.sort()
        if best is None or wsum > best[1] or (wsum == best[1] and members < best[0]):
            best = (members, wsum)
    if best is None:
        v = max(range(g.n), key=lambda u: (weights[u], -u))
        return [v], weights[v]
    return best


def chordal_coloring(g: Graph):
    """Greedy coloring along the reverse elimination order: uses omega colors.

    Returns a list of colors (1-based) indexed by vertex.
    """
    peo = require_peo(g)
    color = [0] * g.n
    for v in reversed(peo):
        used = set()
        for u in bits(g.adj[v]):
            if color[u]:
                used.add(color[u])
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return color
