"""Detectors for the forbidden and structural patterns used everywhere else.

Holes and paths come from depth-first scans over induced paths: a hole
of length k is an induced path on k vertices whose endpoints are
adjacent.  ``all_k_holes`` yields the holes lazily, so ``find_k_hole`` is
its first item.  Witnesses are deterministic: the first hit in
lexicographic DFS order, which for holes means least vertex first and the
lexicographically least direction.  The membership sweep runs the path
scan once, on the true-twin quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits


def _path_dfs(g: Graph, max_len: int, want_paths, want_holes, found):
    """Enumerate induced paths in lex DFS order, recording first witnesses.

    ``want_paths`` / ``want_holes`` are sets of vertex counts still being
    looked for; entries are removed from them (and written to ``found``)
    as witnesses appear.  Stops early once both sets are empty.

    ``blocked`` holds the neighborhoods of the interior path vertices
    (everything but the anchor and the current last vertex): a candidate
    adjacent to the anchor closes a hole instead of extending the path.
    """
    adj = g.adj

    def extend(path, used, blocked):
        if not want_paths and not want_holes:
            return
        last = path[-1]
        k = len(path)
        if k in want_paths:
            want_paths.discard(k)
            found[("path", k)] = tuple(path)
        if k == max_len:
            return
        anchor_bit = 1 << path[0]
        cands = adj[last] & ~used & ~blocked
        for u in bits(cands):
            if k >= 2 and adj[u] & anchor_bit:
                kk = k + 1
                if kk >= 4 and kk in want_holes:
                    # canonical form: least vertex first, lesser direction
                    if path[1] < u and path[0] < min(path[1:]) and path[0] < u:
                        want_holes.discard(kk)
                        found[("hole", kk)] = tuple(path) + (u,)
            else:
                new_blocked = blocked | (adj[last] if k >= 2 else 0)
                extend(path + [u], used | (1 << u), new_blocked)

    for v0 in range(g.n):
        if not want_paths and not want_holes:
            return
        extend([v0], 1 << v0, 0)


def find_induced_path(g: Graph, k: int):
    """First induced path on *k* vertices in lex DFS order, or None."""
    if k < 1:
        raise ValueError("path length must be at least 1")
    if k == 1:
        return (0,) if g.n else None
    found: dict = {}
    _path_dfs(g, k, {k}, set(), found)
    return found.get(("path", k))


def find_k_hole(g: Graph, k: int):
    """Canonical induced cycle on *k* >= 4 vertices, or None."""
    if k < 4:
        raise ValueError("holes have at least 4 vertices")
    return next(all_k_holes(g, k), None)


def all_k_holes(g: Graph, k: int):
    """Yield every induced k-cycle, one canonical tuple each, in lex order."""
    adj = g.adj

    def extend(path, used, blocked):
        last = path[-1]
        cands = adj[last] & ~used & ~blocked
        if len(path) + 1 == k:  # only a neighbor of the anchor closes the hole
            for u in bits(cands & adj[path[0]] & ~((2 << path[1]) - 1)):
                yield tuple(path) + (u,)
            return
        new_blocked = blocked | (adj[last] if len(path) >= 2 else 0)
        for u in bits(cands & ~adj[path[0]]):
            yield from extend(path + [u], used | (1 << u), new_blocked)

    for v0 in range(g.n):
        below = (1 << (v0 + 1)) - 1  # anchor is the least hole vertex
        for v1 in bits(adj[v0] & ~below):
            yield from extend([v0, v1], below | (1 << v1), 0)


def find_theta33(g: Graph):
    """An induced three-arm theta: hubs a,d joined by three two-edge arms.

    The pattern has vertices a, d (nonadjacent) and arms (b_i, c_i) with
    edges a-b_i, b_i-c_i, c_i-d only.  Returns (a, d, ((b1,c1),(b2,c2),(b3,c3)))
    for the first hit in lexicographic order, or None.
    """
    adj = g.adj
    for a in range(g.n):
        for d in range(g.n):
            if d == a or (adj[a] >> d & 1):
                continue
            arms = []
            for b in bits(adj[a] & ~adj[d] & ~(1 << d)):
                for c in bits(adj[b] & adj[d] & ~adj[a] & ~(1 << a)):
                    arms.append((b, c))
            if len(arms) < 3:
                continue
            # arms must be pairwise anticomplete
            def compatible(x, y):
                (b1, c1), (b2, c2) = x, y
                if b1 in (b2, c2) or c1 in (b2, c2):
                    return False
                m2 = (1 << b2) | (1 << c2)
                return not ((adj[b1] | adj[c1]) & m2)

            for i in range(len(arms)):
                for j in range(i + 1, len(arms)):
                    if not compatible(arms[i], arms[j]):
                        continue
                    for l in range(j + 1, len(arms)):
                        if compatible(arms[i], arms[l]) and compatible(arms[j], arms[l]):
                            if a < d:
                                return (a, d, (arms[i], arms[j], arms[l]))
                            # report with the lesser hub first
                            sw = tuple(sorted((c, b) for (b, c) in (arms[i], arms[j], arms[l])))
                            return (d, a, sw)
    return None


@dataclass
class ClassReport:
    """Outcome of the forbidden-pattern sweep.

    ``is_member`` is True iff no induced P7, C4 or C5 exists; each found
    pattern is kept as a witness tuple of vertex ids.
    """

    is_member: bool
    p7: tuple | None = None
    c4: tuple | None = None
    c5: tuple | None = None

    def violations(self) -> dict:
        out = {}
        if self.p7 is not None:
            out["p7"] = list(self.p7)
        if self.c4 is not None:
            out["c4"] = list(self.c4)
        if self.c5 is not None:
            out["c5"] = list(self.c5)
        return out


def class_membership(g: Graph) -> ClassReport:
    """One sweep for P7 / C4 / C5 on the true-twin quotient of g.

    Two true twins never lie together on an induced path of three or more
    vertices or on a hole, and either may stand in for the other, so g
    has a pattern iff its quotient has one.  The quotient keeps the least
    member of each class, so a witness found there is a witness in g.
    """
    _classes, q, _ = g.twin_decomposition()
    found: dict = {}
    _path_dfs(q, 7, {7}, {4, 5}, found)
    found = {key: tuple(q.vmap[v] for v in w) for key, w in found.items()}
    return ClassReport(
        is_member=not found, p7=found.get(("path", 7)),
        c4=found.get(("hole", 4)), c5=found.get(("hole", 5)),
    )
