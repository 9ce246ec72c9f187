"""Brute-force reference implementations used only to check the fast code.

Everything here recomputes adjacency as plain dict-of-sets from the edge
list and shares no algorithmic code with the rest of the package.  All
entry points enforce a size cap and fail loudly above it, because the
search spaces are exponential.
"""

from __future__ import annotations


class OracleCapExceeded(RuntimeError):
    pass


def _adjacency(g):
    nbr = {v: set() for v in range(g.n)}
    for (u, v) in g.edges():
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def _check_cap(g, cap, name):
    if g.n > cap:
        raise OracleCapExceeded(f"{name}: n={g.n} exceeds cap {cap}")


def brute_chromatic(g, cap: int = 16) -> int:
    """Chromatic number by iterative-deepening backtracking."""
    _check_cap(g, cap, "brute_chromatic")
    if g.n == 0:
        return 0
    nbr = _adjacency(g)
    order = sorted(range(g.n), key=lambda v: -len(nbr[v]))

    def feasible(k):
        color = {}

        def place(i):
            if i == len(order):
                return True
            v = order[i]
            used = {color[u] for u in nbr[v] if u in color}
            # symmetry break: never open more than one new color
            top = min(k, (max(color.values()) if color else 0) + 1)
            for c in range(1, top + 1):
                if c not in used:
                    color[v] = c
                    if place(i + 1):
                        return True
                    del color[v]
            return False

        return place(0)

    k = 1
    while not feasible(k):
        k += 1
    return k


def brute_alpha(g, cap: int = 22) -> int:
    """Maximum stable set size by simple branching."""
    _check_cap(g, cap, "brute_alpha")
    nbr = _adjacency(g)

    def rec(remaining):
        if not remaining:
            return 0
        v = max(remaining, key=lambda u: (len(nbr[u] & remaining), -u))
        without = rec(remaining - {v})
        with_v = 1 + rec(remaining - {v} - nbr[v])
        return max(without, with_v)

    return rec(set(range(g.n)))


def brute_mwis(g, weights, cap: int = 22):
    """Maximum-weight stable set; empty when all weights are nonpositive.

    Returns (sorted vertex list, weight).
    """
    _check_cap(g, cap, "brute_mwis")
    nbr = _adjacency(g)
    pool = {v for v in range(g.n) if weights[v] > 0}

    best = [set(), 0]

    def rec(remaining, chosen, value):
        if value > best[1] or (value == best[1] and sorted(chosen) < sorted(best[0])):
            best[0], best[1] = set(chosen), value
        if not remaining:
            return
        bound = value + sum(weights[u] for u in remaining)
        if bound < best[1]:
            return
        v = max(remaining, key=lambda u: (len(nbr[u] & remaining), -u))
        rec(remaining - {v} - nbr[v], chosen | {v}, value + weights[v])
        rec(remaining - {v}, chosen, value)

    rec(pool, set(), 0)
    return sorted(best[0]), best[1]


def brute_max_clique(g, weights=None, cap: int = 22):
    """Maximum-weight clique (unit weights by default).

    With general weights, nonpositive vertices are dropped unless nothing
    positive exists, in which case the single best vertex is returned.
    Returns (sorted vertex list, weight).
    """
    _check_cap(g, cap, "brute_max_clique")
    if g.n == 0:
        return [], 0
    if weights is None:
        weights = [1] * g.n
    nbr = _adjacency(g)
    pool = {v for v in range(g.n) if weights[v] > 0}
    if not pool:
        v = max(range(g.n), key=lambda u: (weights[u], -u))
        return [v], weights[v]

    best = [set(), None]

    def rec(chosen, cands, value):
        if best[1] is None or value > best[1] or (
            value == best[1] and sorted(chosen) < sorted(best[0])
        ):
            best[0], best[1] = set(chosen), value
        for v in sorted(cands):
            rec(chosen | {v}, {u for u in cands if u > v and u in nbr[v]}, value + weights[v])

    rec(set(), pool, 0)
    return sorted(best[0]), best[1]


def hole_census(g, cap: int = 16) -> dict[int, int]:
    """Count induced cycles of each length >= 4.

    Returns a dict length -> count over all holes of the graph.
    """
    _check_cap(g, cap, "hole_census")
    nbr = _adjacency(g)
    census: dict[int, int] = {}

    def extend(path, banned):
        # path[0] is the least vertex of the would-be cycle
        last = path[-1]
        for u in sorted(nbr[last]):
            if u <= path[0] or u in path:
                continue
            if u in banned:
                continue
            if path[0] in nbr[u]:
                if len(path) >= 3 and path[1] < u:
                    census[len(path) + 1] = census.get(len(path) + 1, 0) + 1
            else:
                new_banned = banned | (nbr[last] if len(path) >= 2 else set())
                extend(path + [u], new_banned)

    for v in range(g.n):
        for u in sorted(nbr[v]):
            if u > v:
                extend([v, u], set())
    return census


def brute_is_chordal(g, cap: int = 16) -> bool:
    return not hole_census(g, cap)
