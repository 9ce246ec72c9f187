"""Reference answers computed apart from the solvers, and the answer checks.

Nothing here calls the package's solvers, decomposition, recognition or
chordal code.  A graph is read only through its edge list, turned into
plain bitmask rows.  The exact values come from:

* reductions that hold on every graph: a stable set takes the sum over
  components and at most one universal vertex, a clique takes the best
  component plus every positive universal vertex, and true twins (equal
  closed neighbourhoods) collapse to one vertex weighted by the class
  maximum (stable sets) or the sum of its positive weights (cliques);
* construction facts: chi(C7[t]) = ceil(7t/3), and the split-graph
  formulas for stable sets and cliques;
* ``p7c4c5.oracle`` (brute force, independent of the solvers) or
  ``networkx.max_weight_clique`` on what remains;
* for chromatic numbers above the oracle's cap, a greedy coloring that
  uses exactly omega colors, which proves chi = omega.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class ReferenceUnavailable(RuntimeError):
    """No exact reference could be computed for an instance."""


ORACLE_CAP = 20
CHROMATIC_CAP = 26  # the largest small random bracelet the workloads make


def rows_of(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Small:
    """Minimal graph shim (``n`` and ``edges()``) for the oracle."""

    def __init__(self, rows, verts):
        self.n = len(verts)
        pos = {v: i for i, v in enumerate(verts)}
        self._edges = [
            (pos[u], pos[v]) for u in verts for v in _bits(rows[u]) if v in pos and u < v
        ]

    def edges(self):
        return list(self._edges)


def _components(rows, mask):
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= rows[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


def _universal(rows, mask):
    return [v for v in _bits(mask) if (mask & ~rows[v] & ~(1 << v)) == 0]


def _twin_classes(rows, mask):
    groups = {}
    for v in _bits(mask):
        groups.setdefault((rows[v] | 1 << v) & mask, []).append(v)
    return list(groups.values())


def _nx_clique(rows, verts, weight, complement=False):
    """Exact heaviest clique (or stable set) on a handful of vertices."""
    import networkx as nx

    scale = math.lcm(*(Fraction(weight[v]).denominator for v in verts)) if verts else 1
    g = nx.Graph()
    for v in verts:
        g.add_node(v, w=int(Fraction(weight[v]) * scale))
    for u, v in combinations(verts, 2):
        if bool(rows[u] >> v & 1) != complement:
            g.add_edge(u, v)
    _members, value = nx.max_weight_clique(g, weight="w")
    return Fraction(value, scale)


def stable_value(rows, mask, weight, split_k=None):
    """Weight of a heaviest stable set inside *mask* (the empty set counts)."""
    mask = sum(1 << v for v in _bits(mask) if weight[v] > 0)
    if not mask:
        return 0
    if split_k is not None:
        clique = [v for v in _bits(mask) if v < split_k]
        side = [v for v in _bits(mask) if v >= split_k]
        best = sum(weight[s] for s in side)
        for k in clique:
            best = max(best, weight[k] + sum(weight[s] for s in side if not rows[k] >> s & 1))
        return best
    comps = _components(rows, mask)
    if len(comps) > 1:
        return sum(stable_value(rows, c, weight) for c in comps)
    uni = _universal(rows, mask)
    if uni and len(uni) < mask.bit_count():
        rest = mask & ~sum(1 << u for u in uni)
        return max(max(weight[u] for u in uni), stable_value(rows, rest, weight))
    classes = _twin_classes(rows, mask)
    if len(classes) < mask.bit_count():
        reps = {cls[0]: max(weight[v] for v in cls) for cls in classes}
        qweight = list(weight)
        for r, w in reps.items():
            qweight[r] = w
        return stable_value(rows, sum(1 << r for r in reps), qweight)
    verts = list(_bits(mask))
    if len(verts) == 1:
        return weight[verts[0]]
    return _nx_clique(rows, verts, weight, complement=True)


def clique_value(rows, mask, weight, split_k=None):
    """Weight of a heaviest nonempty clique inside *mask*."""
    pos = sum(1 << v for v in _bits(mask) if weight[v] > 0)
    if not pos:
        return max(weight[v] for v in _bits(mask))
    return _positive_clique(rows, pos, weight, split_k)


def _positive_clique(rows, mask, weight, split_k=None):
    if not mask:
        return 0
    if split_k is not None:
        clique = [v for v in _bits(mask) if v < split_k]
        cmask = sum(1 << v for v in clique)
        best = sum(weight[v] for v in clique)
        for s in _bits(mask & ~cmask):
            best = max(best, weight[s] + sum(weight[v] for v in _bits(rows[s] & cmask)))
        return best
    comps = _components(rows, mask)
    if len(comps) > 1:
        return max(_positive_clique(rows, c, weight) for c in comps)
    uni = _universal(rows, mask)
    if uni:
        rest = mask & ~sum(1 << u for u in uni)
        return sum(weight[u] for u in uni) + _positive_clique(rows, rest, weight)
    classes = _twin_classes(rows, mask)
    if len(classes) < mask.bit_count():
        qweight = list(weight)
        for cls in classes:
            qweight[cls[0]] = sum(weight[v] for v in cls)
        return _positive_clique(rows, sum(1 << cls[0] for cls in classes), qweight)
    verts = list(_bits(mask))
    if len(verts) <= ORACLE_CAP:
        from p7c4c5.oracle import brute_max_clique

        return brute_max_clique(_Small(rows, verts), [weight[v] for v in verts], cap=ORACLE_CAP)[1]
    return _nx_clique(rows, verts, weight)


def greedy_colors(rows, order):
    """First-fit coloring along *order*; returns the number of colors."""
    classes = []
    for v in order:
        for i, cls in enumerate(classes):
            if not cls & rows[v]:
                classes[i] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def smallest_last(rows, mask):
    """Degeneracy order, reversed (the vertex removed last comes first)."""
    deg = {v: (rows[v] & mask).bit_count() for v in _bits(mask)}
    out = []
    left = mask
    while left:
        v = min(_bits(left), key=lambda u: (deg[u], u))
        out.append(v)
        left &= ~(1 << v)
        for u in _bits(rows[v] & left):
            deg[u] -= 1
    out.reverse()
    return out


def chromatic_value(rows, mask, c7_blowup=None):
    """Chromatic number of the graph induced on *mask*."""
    if c7_blowup is not None:
        return -(-7 * c7_blowup // 3)
    if not mask:
        return 0
    comps = _components(rows, mask)
    if len(comps) > 1:
        return max(chromatic_value(rows, c) for c in comps)
    uni = _universal(rows, mask)
    if uni:
        rest = mask & ~sum(1 << u for u in uni)
        return len(uni) + chromatic_value(rows, rest)
    verts = list(_bits(mask))
    if len(verts) <= CHROMATIC_CAP:
        from p7c4c5.oracle import brute_chromatic

        return brute_chromatic(_Small(rows, verts), cap=CHROMATIC_CAP)
    omega = clique_value(rows, mask, [1] * len(rows))
    by_class = sorted(verts, key=lambda v: (-(rows[v] & mask).bit_count(), v))
    for order in (smallest_last(rows, mask), by_class, verts):
        if greedy_colors(rows, order) == omega:
            return omega
    raise ReferenceUnavailable(f"no omega-coloring found on {len(verts)} vertices")


# ---------------------------------------------------------------------
# answer checks: each returns a list of problems (empty when correct)
# ---------------------------------------------------------------------


def check_coloring(rows, colors, count, chi, omega):
    bad = []
    n = len(rows)
    if len(colors) != n:
        return [f"{len(colors)} colors for {n} vertices"]
    if n and (min(colors) < 1 or max(colors) != count):
        bad.append(f"colors span {min(colors)}..{max(colors)}, count says {count}")
    classes = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    for v, c in enumerate(colors):
        if rows[v] & classes[c]:
            bad.append(f"vertex {v} shares color {c} with a neighbour")
            break
    if count != chi:
        bad.append(f"count {count} differs from the reference chi {chi}")
    if count > 3 * omega // 2:
        bad.append(f"count {count} exceeds floor(3*omega/2) for omega {omega}")
    return bad


def _as_mask(members, n):
    mask = 0
    for v in members:
        if not (isinstance(v, int) and 0 <= v < n) or mask >> v & 1:
            return None
        mask |= 1 << v
    return mask


def check_stable(rows, weight, members, value, ref):
    mask = _as_mask(members, len(rows))
    if mask is None:
        return [f"bad vertex list {members}"]
    bad = []
    if any(rows[v] & mask for v in members):
        bad.append("returned set is not stable")
    if Fraction(value) != sum((Fraction(weight[v]) for v in members), Fraction(0)):
        bad.append(f"weight {value} is not the sum over the set")
    if Fraction(value) != Fraction(ref):
        bad.append(f"weight {value} differs from the reference {ref}")
    return bad


def check_clique(rows, weight, members, value, ref):
    mask = _as_mask(members, len(rows))
    if mask is None or not members:
        return [f"bad vertex list {members}"]
    bad = []
    if any(mask & ~rows[v] & ~(1 << v) for v in members):
        bad.append("returned set is not a clique")
    if Fraction(value) != sum((Fraction(weight[v]) for v in members), Fraction(0)):
        bad.append(f"weight {value} is not the sum over the set")
    if Fraction(value) != Fraction(ref):
        bad.append(f"weight {value} differs from the reference {ref}")
    return bad


def induces(rows, seq, cyclic):
    """True when *seq* (distinct vertices) induces a path, or a cycle when
    *cyclic*, in exactly that order."""
    k = len(seq)
    if len(set(seq)) != k or any(not (0 <= v < len(rows)) for v in seq):
        return False
    for i, j in combinations(range(k), 2):
        near = j - i == 1 or (cyclic and j - i == k - 1)
        if bool(rows[seq[i]] >> seq[j] & 1) != near:
            return False
    return True


WITNESS = {"c4": (4, True), "c5": (5, True), "p7": (7, False)}


def check_membership(rows, is_member, violations, member, planted=None):
    bad = []
    if member:
        if not is_member or violations:
            bad.append(f"member reported as non-member: {violations}")
        return bad
    if is_member:
        return ["planted non-member reported as member"]
    if planted is not None and planted not in violations:
        bad.append(f"planted {planted} not reported: {sorted(violations)}")
    for name, seq in violations.items():
        size, cyclic = WITNESS[name]
        if len(seq) != size or not induces(rows, list(seq), cyclic):
            bad.append(f"witness {name} {list(seq)} does not induce the pattern")
    return bad
