"""Chordal-graph machinery: elimination orders, and exact optimization.

Maximum cardinality search produces a perfect elimination order exactly on
chordal graphs; when verification fails a hole is extracted as the
certificate.  The stable-set and clique optimizers ride on a verified
elimination order and are exact on chordal inputs.  The order, the hole
search and both optimizers take an optional ``within`` mask and work on
the subgraph it induces, in the ids of the graph they are given, so
callers solve sub-problems without copying.
"""

from __future__ import annotations

from .graph import Graph, bits


class NotChordalError(ValueError):
    """Raised when a chordal-only routine is fed a graph with a hole."""

    def __init__(self, hole):
        super().__init__(f"graph has a hole: {list(hole)}")
        self.hole = tuple(hole)


def mcs_order(g: Graph, within: int | None = None):
    """Maximum cardinality search of the graph induced on *within* (every
    vertex by default), ties to the least id: the visit order, and each
    visit's mask of neighbors still unvisited.

    The reverse of the order is a perfect elimination order iff that
    graph is chordal.  Unvisited vertices sit in buckets by their number
    of visited neighbors, so a step costs one row and one pass over the
    buckets it touches (``_promote``).
    """
    rest = g.all_mask if within is None else within
    level = [rest]  # level[k]: unvisited vertices with k visited neighbors
    order, ups = [], []
    while rest:
        while not level[-1]:
            level.pop()
        vbit = level[-1] & -level[-1]
        v = vbit.bit_length() - 1
        order.append(v)
        rest ^= vbit
        level[-1] ^= vbit
        up = g.adj[v] & rest
        ups.append(up)
        _promote(level, up)
    return order, ups


def _promote(level, up):
    """Move the vertices of *up* one weight bucket up, one mask operation
    per bucket from the top down, into a new top bucket if need be."""
    level.append(0)
    for k in range(len(level) - 2, -1, -1):
        if not up:
            break
        moved = level[k] & up
        level[k] ^= moved
        level[k + 1] |= moved
        up ^= moved


def perfect_elimination_order(g: Graph, within: int | None = None):
    """A verified perfect elimination order of the graph induced on
    *within*, or None if it has a hole.

    In the returned list the vertex at position 0 is eliminated first and
    its later neighbors (neighbors appearing after it in the list) form a
    clique, and so on.  It suffices that they lie in the closed row of
    the earliest of them, the parent (Tarjan & Yannakakis, SIAM J. Comput.
    1984): the neighbor visited last before the vertex, so the latest
    visit whose unvisited neighbors held it.
    """
    order, ups = mcs_order(g, within)
    parent, assigned = {}, 0
    for u, up in zip(reversed(order), reversed(ups)):
        for v in bits(up & ~assigned):
            parent[v] = u
        assigned |= up
    peo = order[::-1]
    later = g.all_mask if within is None else within
    for v in peo:
        later ^= 1 << v
        if v in parent and g.adj[v] & later & ~g.closed(parent[v]):
            return None
    return peo


def find_hole(g: Graph, within: int | None = None):
    """Some hole (induced cycle, length >= 4) of the graph induced on
    *within*, canonicalized, or None.

    For each vertex v and nonadjacent pair x,y in N(v), a shortest x-y
    path avoiding the rest of N[v] closes to an induced cycle through v.
    """
    rest = g.all_mask if within is None else within
    for v in bits(rest):
        nb = list(bits(g.adj[v] & rest))
        for i, x in enumerate(nb):
            for y in nb[i + 1 :]:
                if g.has_edge(x, y):
                    continue
                allowed = rest & ~g.closed(v) | (1 << x) | (1 << y)
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


def require_peo(g: Graph, within: int | None = None) -> list[int]:
    peo = perfect_elimination_order(g, within)
    if peo is None:
        hole = find_hole(g, within)
        raise NotChordalError(hole if hole is not None else ())
    return peo


def minimal_triangulation(g: Graph):
    """Minimal fill-in of g (MCS-M: Berry, Blair, Heggernes & Peyton 2004).

    Returns (fill, meo): *fill* lists one symmetric row mask per vertex,
    disjoint from g's rows, whose edges make the graph chordal with an
    inclusion-minimal fill; *meo* lists the vertices in elimination
    order (first eliminated first) of the filled graph.

    Each step numbers an unnumbered vertex z of largest weight (ties to
    the least id).  An unnumbered y gains one weight, and a fill edge zy
    when not adjacent to z, if some path joins z to y through unnumbered
    vertices all lighter than y.  One search from z finds every such y:
    it expands the vertices it has met weight level by weight level, so
    a vertex is met before its own level is expanded exactly when a
    lighter path leads to it, and every row is OR-ed at most once a step.
    It stops once every vertex heavier than the level being expanded is
    met, as no gain is left then, so the heaviest level is never
    expanded.  Weights are kept as buckets, as in ``mcs_order``.
    """
    adj = g.adj
    level = [g.all_mask]  # level[k]: unnumbered vertices of weight k
    unnumbered = g.all_mask
    fill = [0] * g.n
    order = []
    for _ in range(g.n):
        while not level[-1]:
            level.pop()
        zbit = level[-1] & -level[-1]
        z = zbit.bit_length() - 1
        order.append(z)
        unnumbered ^= zbit
        level[-1] ^= zbit
        reached = gain = adj[z] & unnumbered
        unmet = unnumbered ^ reached
        expanded = lighter = 0
        for bucket in level:
            lighter |= bucket  # unnumbered vertices of weight <= this level
            frontier = reached & lighter & ~expanded
            while frontier and unmet & ~lighter:
                expanded |= frontier
                nxt = 0
                for u in bits(frontier):
                    nxt |= adj[u]
                nxt &= unmet
                unmet ^= nxt
                reached |= nxt
                gain |= nxt & ~lighter
                frontier = nxt & lighter
            if not reached & ~expanded or not unmet & ~lighter:
                break
        _promote(level, gain)
        fill[z] |= gain & ~adj[z]
        for y in bits(gain & ~adj[z]):
            fill[y] |= zbit
    order.reverse()
    return fill, order


# -- exact optimization on chordal graphs ------------------------------


def chordal_mwis(g: Graph, weights, within: int | None = None):
    """Maximum-weight stable set of the chordal graph induced on *within*
    (every vertex by default).

    Vertices of nonpositive weight never help, so the computation runs on
    the positive-weight part; the empty set is returned when every weight
    is nonpositive.  Returns (sorted vertex list, total weight).
    """
    pos_mask = 0
    for v in bits(g.all_mask if within is None else within):
        if weights[v] > 0:
            pos_mask |= 1 << v
    if not pos_mask:
        return [], 0
    peo = require_peo(g, pos_mask)
    resid = {v: weights[v] for v in peo}
    marked = []
    later = pos_mask
    for v in peo:
        later ^= 1 << v
        if resid[v] > 0:
            marked.append(v)
            for u in bits(g.adj[v] & later):
                resid[u] -= resid[v]
    chosen = 0
    for v in reversed(marked):
        if not (g.adj[v] & chosen):
            chosen |= 1 << v
    out = list(bits(chosen))
    return out, sum(weights[v] for v in out)


def chordal_max_weight_clique(g: Graph, weights=None, within: int | None = None):
    """Maximum-weight clique of the chordal graph induced on *within*
    (every vertex by default; unit weights by default).

    Nonpositive-weight vertices are dropped inside each candidate clique;
    if every weight is nonpositive the best single vertex is returned.
    Returns (sorted vertex list, total weight).
    """
    rest = g.all_mask if within is None else within
    if not rest:
        return [], 0
    if weights is None:
        weights = [1] * g.n
    best = None
    later = rest
    for v in require_peo(g, rest):
        later ^= 1 << v
        members = [u for u in bits(g.adj[v] & later | 1 << v) if weights[u] > 0]
        if not members:
            continue
        wsum = sum(weights[u] for u in members)
        if best is None or wsum > best[1] or (wsum == best[1] and members < best[0]):
            best = (members, wsum)
    if best is None:
        v = max(bits(rest), key=lambda u: (weights[u], -u))
        return [v], weights[v]
    return best
