"""Detectors for the forbidden and structural patterns used everywhere else.

Holes and paths come from depth-first scans over induced paths: a hole
of length k is an induced path on k vertices whose endpoints are
adjacent.  ``all_k_holes`` yields the holes lazily, so ``find_k_hole`` is
its first item.  Witnesses are deterministic: the first hit in
lexicographic DFS order, which for holes means least vertex first and the
lexicographically least direction.

Membership is certify-first.  ``class_membership`` reads the certify
walk that the solvers share (``solvers.certify_atoms``) on the true-twin
quotient: certified whole, or split into atoms that are each certified.
No graph a certificate verifies on induces a P7, a C4 or a C5, and a
hole never crosses a clique cutset, so what is left is a P7 across a
split, which ``crossing_p7`` finds with two capped rooted walks per
cutset vertex or edge.  A member is proved with no path scan.
``pattern_sweep`` runs the path scan once, on the true-twin quotient,
and names the lex-least witnesses; it runs only on an atom that fails
recognition.  A non-member's witnesses are the least of those atoms'
sweeps and the crossing P7: the lex-least C4 and C5, and a P7 that is the
lex-least on a one-atom input.

The path scan is pruned.  At each two-vertex path (a, b) a reach test
walks bitset layers of the vertices a continuation could still use; if
they run out before the longest wanted path, and no wanted 4- or 5-hole
can close through a neighbor of a, the whole branch is skipped, and no
branch goes deeper than the longest witness still wanted.  A skipped
branch holds no wanted witness, so the scan still meets the survivors in
lexicographic order and returns the same witnesses as a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _picked, bits


def _path_dfs(g: Graph, want_paths, want_holes, found):
    """Enumerate induced paths in lex DFS order, recording first witnesses.

    ``want_paths`` / ``want_holes`` are sets of vertex counts (paths of two
    or more vertices, holes of four or more) still being looked for;
    entries are removed from them (and written to ``found``) as witnesses
    appear.  A branch stops once it is as long as the longest witness
    still wanted, so the scan stops once both sets are empty.

    ``blocked`` holds the neighborhoods of the interior path vertices
    (everything but the anchor and the current last vertex): a candidate
    adjacent to the anchor closes a hole instead of extending the path.
    A (k+1)-hole is canonical when the anchor is the least vertex (the
    ``least`` flag kept along the path) and the closing vertex exceeds
    ``path[1]``, so the first one at a path is the least such bit of the
    closing candidates.

    Reach test, at each two-vertex path (a, b): every later vertex of an
    induced path that starts with (a, b) avoids N[a]; the third lies in
    N(b), and from the fourth on they also avoid N[b], so they lie in the
    ``room`` outside N[a] and N[b].  So the third vertex lies in the layer
    ``N(b) - N[a]``, and each later one among the room's neighbors of the
    layer before.  A k-path needs k - 2 nonempty layers, and the vertex
    closing a canonical hole is a neighbor of a above b, outside N(b),
    that the layer of the hole's last path vertex sees.  Layers hold walks,
    and from the third layer on a walk can step back into the layer
    before, so once the third layer is nonempty no later one is empty.
    If neither a wanted path nor a wanted hole passes the test, the branch
    holds no wanted witness and is skipped.
    """
    adj = g.adj
    full = g.all_mask
    longest = [max(want_paths, default=0), max(want_holes, default=0)]

    def record(kind, k, wanted, witness):
        wanted.discard(k)
        found[(kind, k)] = witness
        longest[:] = max(want_paths, default=0), max(want_holes, default=0)

    def reach(a, b):
        room = full & ~(adj[a] | adj[b] | (1 << a) | (1 << b))
        layer = adj[b] & ~adj[a] & ~(1 << a)
        close = adj[a] & ~adj[b] & -(2 << b) if a < b else 0
        ahead = room | close
        need = min(longest[0] - 2, 3)
        for depth in range(1, max(need, longest[1] - 3 if close else 0) + 1):
            if not layer:
                return False
            if depth == need:
                return True
            # what the layer sees ahead (nothing, next to a universal vertex)
            seen, m = 0, layer if ahead else 0
            while m:
                low = m & -m
                seen |= adj[low.bit_length() - 1]
                m ^= low
            seen &= ahead
            if seen & close and depth + 3 in want_holes:
                return True
            layer = seen & room
        return False

    def extend(path, used, blocked, least):
        k = len(path)
        if k in want_paths:
            record("path", k, want_paths, tuple(path))
        a, last = path[0], path[-1]
        if k == 2 and not reach(a, last):
            return
        cands = adj[last] & ~used & ~blocked
        close = cands & adj[a]
        if least and k + 1 in want_holes:
            c = close >> (path[1] + 1)
            if c:
                record("hole", k + 1, want_holes, (*path, (c & -c).bit_length() + path[1]))
        if k >= longest[0] and not (least and k + 1 < longest[1]):
            return
        blocked |= adj[last]
        m = cands & ~close
        while m:
            low = m & -m
            u = low.bit_length() - 1
            extend(path + [u], used | low, blocked, least and a < u)
            m ^= low

    for a in range(g.n):
        m = adj[a]
        while m and (want_paths or want_holes):
            low = m & -m
            b = low.bit_length() - 1
            extend([a, b], (1 << a) | low, 0, a < b)
            m ^= low


def find_induced_path(g: Graph, k: int):
    """First induced path on *k* vertices in lex DFS order, or None."""
    if k < 1:
        raise ValueError("path length must be at least 1")
    if k == 1:
        return (0,) if g.n else None
    found: dict = {}
    _path_dfs(g, {k}, set(), found)
    return found.get(("path", k))


def find_k_hole(g: Graph, k: int):
    """Canonical induced cycle on *k* >= 4 vertices, or None."""
    if k < 4:
        raise ValueError("holes have at least 4 vertices")
    return next(all_k_holes(g, k), None)


def all_k_holes(g: Graph, k: int):
    """Yield every induced k-cycle (k >= 4), one canonical tuple each, in
    lex order."""
    return (hole for hole in hole_steps(g, k) if hole is not None)


def hole_steps(g: Graph, k: int):
    """The walk of ``all_k_holes``, one item per step: each induced k-cycle
    in the same order, and None at every step over the induced paths, so
    that two walks stepped in turn cost at most twice the cheaper one."""
    adj = g.adj
    for v0 in range(g.n):
        below = (1 << (v0 + 1)) - 1  # anchor is the least hole vertex
        for v1 in bits(adj[v0] & ~below):
            # per induced path: [path, used, blocked for its children,
            # candidates left]; only a neighbor of the anchor closes a hole
            stack = [[[v0, v1], below | (1 << v1), adj[v1], adj[v1] & ~below & ~adj[v0]]]
            while stack:
                yield None
                frame = stack[-1]
                path, used, blocked, m = frame
                if not m:
                    stack.pop()
                    continue
                low = m & -m
                frame[3] = m ^ low
                u = low.bit_length() - 1
                cands = adj[u] & ~(used | low) & ~blocked
                if len(path) + 2 == k:
                    for w in bits(cands & adj[v0] & ~((2 << v1) - 1)):
                        yield (*path, u, w)
                else:
                    stack.append([path + [u], used | low, blocked | adj[u], cands & ~adj[v0]])


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
    """Outcome of a membership test.

    ``is_member`` is True iff no induced P7, C4 or C5 exists; each found
    pattern is kept as a witness tuple of vertex ids, a path with its
    lesser end first.  ``certified`` is the kind of the certificate that
    proved membership, "split" when every atom certified and no P7
    crosses a split, or None when an atom failed recognition.
    """

    is_member: bool
    p7: tuple | None = None
    c4: tuple | None = None
    c5: tuple | None = None
    certified: str | None = None

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
    """Membership of g, certify-first: the verdict (``solvers.walk_verdict``)
    of the certify walk of the solvers (``solvers.certify_atoms``) on g's
    true-twin quotient, which is a member iff g is.

    A member certified whole reads ``certified`` as its kind, a split
    member "split".  A non-member's C4 and C5 are the lex-least, as
    ``pattern_sweep`` names them: a hole never crosses a clique cutset, so
    each lies in an atom that failed recognition.  Its P7 is the least of
    those atoms' and the one ``crossing_p7`` finds across a split, the
    lex-least on a one-atom input.
    """
    from .solvers import certify_atoms, walk_verdict  # solvers imports this module

    _classes, q, _ = g.twin_decomposition()
    return walk_verdict(*certify_atoms(q), q.vmap)


def crossing_p7(g: Graph, pairs):
    """An induced P7 of g that crosses a split of *pairs*, as a vertex
    tuple with the lesser end first (the orientation of the path scan),
    or None if there is none; *pairs* are the (cutset, atom) masks
    of a clique-cutset decomposition in split order (as ``cutset.atoms``
    gives them).

    At a split with cutset S, side C (the atom minus S) and far part F
    (the remainder minus the atom), C and F are anticomplete, so an
    induced path that meets both passes through S, in one vertex or in
    one edge Y, and reads X·Y·Z with X in C and Z in F.  Such a path is
    induced iff X·Y and Y·Z are, so a P7 (or longer) crosses the split
    iff, for some Y, the longest induced paths from Y into C and into F
    (``_rooted_path``) have 7 vertices with Y.  A P7 of g that meets
    no side lies in the last atom; at the first split whose side it
    meets it lies in the remainder, so it lies in that atom or crosses
    that split.

    An induced path y, v1, v2, v3 from y has v2 outside N[y] with a
    neighbor in N(y) and one outside N[y].  A vertex y with no such v2
    (short) starts no induced path of more than 3 vertices.  A crossing
    P7 through one vertex y starts such a path at y (|X| + |Z| = 6), and
    one through an edge y1-y2 at both ends: X·y1·y2·Z with |X| + |Z| = 5
    holds y2·y1·x1·x2 or y2·Z, and y1·y2·z1·z2 or y1·X, of 4 vertices or
    more.  So only cutset vertices that are not short are tried.
    """
    adj = g.adj
    full = g.all_mask
    cut = 0
    for s, _atom in pairs[:-1]:
        cut |= s
    long = 0
    for y in bits(cut):
        near = adj[y]
        out = full & ~near & ~(1 << y)
        if any(row & near and row & out for row in _picked(out, 0, adj)):
            long |= 1 << y
    rem = full
    for s, atom in pairs[:-1]:
        side = atom & ~s
        rem &= ~side
        far = rem & ~s
        ends = s & long
        for y in bits(ends):
            x = _rooted_path(adj, y, side, 5)
            z = _rooted_path(adj, y, far, 6 - len(x)) if x else ()
            if len(x) + len(z) == 6:
                return min(p := (*reversed(x), y, *z), p[::-1])
        for y1 in bits(ends):
            for y2 in bits(ends & ~(1 << y1)):
                x = _rooted_path(adj, y1, side & ~adj[y2], 4)
                z = _rooted_path(adj, y2, far & ~adj[y1], 5 - len(x)) if x else ()
                if len(x) + len(z) == 5:
                    return min(p := (*reversed(x), y1, y2, *z), p[::-1])
    return None


def _rooted_path(adj, y, room, cap: int) -> tuple:
    """(v1, ..., vk): a longest induced path y, v1, ..., vk with every vi
    in *room*, cut at k = *cap*; *room* misses y."""
    best = ()

    def extend(path, last, ok):
        # ok: the room outside N[v] for every path vertex v before last
        nonlocal best
        if len(path) > len(best):
            best = path
        if len(path) == cap:
            return True
        ahead = ok & ~adj[last] & ~(1 << last)
        m = adj[last] & ok
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if extend((*path, v), v, ahead):
                return True
            m ^= low
        return False

    extend((), y, room)
    return best


def pattern_sweep(g: Graph) -> ClassReport:
    """One sweep for P7 / C4 / C5 on the true-twin quotient of g, giving
    the lex-least witness of each.

    Two true twins never lie together on an induced path of three or more
    vertices or on a hole, and either may stand in for the other, so g
    has a pattern iff its quotient has one.  The quotient keeps the least
    member of each class, so a witness found there is a witness in g.
    """
    _classes, q, _ = g.twin_decomposition()
    found: dict = {}
    _path_dfs(q, {7}, {4, 5}, found)
    found = {key: tuple(q.vmap[v] for v in w) for key, w in found.items()}
    return ClassReport(
        is_member=not found, p7=found.get(("path", 7)),
        c4=found.get(("hole", 4)), c5=found.get(("hole", 5)),
    )
