"""Exact optimization: minimum coloring, heaviest stable set, heaviest clique.

Every solver first splits the input along clique cutsets and then exploits
the structure of the atoms.  Coloring colors each atom optimally (greedy
schemes for lanterns and six-rings, circular-arc search for bracelets and
emeralds) and merges the pieces by permuting colors to agree on each
cutset.  Stable sets use the classic cutset combination rule driven by
reweighting, with per-atom solutions obtained by deleting one closed
neighborhood per twin class (which leaves a chordal graph on these
atoms).  Cliques are read off small "window" subgraphs that provably
contain every maximal clique of an atom.
"""

from __future__ import annotations

from .chordal import (
    NotChordalError,
    chordal_max_weight_clique,
    chordal_mwis,
)
from .cutset import decompose, merge_colorings, spine
from .graph import Graph, bits, mask_of
from .oracle import brute_max_clique, brute_mwis
from .patterns import class_membership
from .recognize import recognize_atom

MEMBERSHIP_CHECK_LIMIT = 64
ORACLE_FALLBACK_CAP = 24


def _popcount_key(g: Graph):
    return lambda v: (-g.closed(v).bit_count(), v)


# ---------------------------------------------------------------------
# clique windows: small subgraphs containing every maximal clique
# ---------------------------------------------------------------------


def _core_windows(g: Graph, kind: str, part) -> list[int]:
    """Vertex masks (atom-local ids, universal part excluded) such that
    every clique of the core lies inside one of them."""
    if kind == "complete":
        return [g.all_mask]
    if kind == "bracelet":
        parts = [mask_of(part.part(i)) for i in range(7)]
        return [parts[(i - 1) % 7] | parts[i] | parts[(i + 1) % 7] for i in range(7)]
    if kind == "emerald":
        d = dict(part.classes())
        ring = [
            mask_of(d["a0m"] + d["a0p"]),
            mask_of(d["a1"]),
            mask_of(d["a2s"] + d["a2m"]),
            mask_of(d["a3"]),
            mask_of(d["a4"]),
            mask_of(d["a5s"] + d["a5p"]),
            mask_of(d["a6"]),
        ]
        wins = [ring[(i - 1) % 7] | ring[i] | ring[(i + 1) % 7] for i in range(7)]
        wins.append(mask_of(d["c"] + d["a2s"] + d["a3"] + d["a4"] + d["a5s"]))
        return wins
    if kind == "lantern":
        am, dm = mask_of(part.a), mask_of(part.d)
        wins = [am, dm]
        for i in range(part.r):
            bm, cm = mask_of(part.b[i]), mask_of(part.c[i])
            wins.extend([am | bm, cm | dm, bm | cm])
        return wins
    if kind in ("wreath", "crown"):
        ring = part.ring() if kind == "crown" else part.ring
        xs = [mask_of(p) for p in ring.x]
        return [xs[i] | xs[(i + 1) % 6] for i in range(6)]
    raise ValueError(f"unknown atom kind: {kind}")


def _window_best_clique(g: Graph, windows, weights):
    """Best clique over the window subgraphs; ties to the lex-least set."""
    best = None
    for mask in windows:
        if not mask:
            continue
        sub = g.induced(mask)
        w_local = [weights[sub.vmap[v]] for v in range(sub.n)]
        try:
            members, val = chordal_max_weight_clique(sub, w_local)
        except NotChordalError:
            members, val = brute_max_clique(sub, w_local, cap=ORACLE_FALLBACK_CAP)
        members = sorted(sub.vmap[v] for v in members)
        if best is None or val > best[1] or (val == best[1] and members < best[0]):
            best = (members, val)
    return best


def atom_max_weight_clique(g: Graph, cert, weights=None):
    """Heaviest clique of a recognized atom: (sorted vertex list, weight)."""
    if weights is None:
        weights = [1] * g.n
    if cert.kind == "complete":
        members = sorted(v for v in range(g.n) if weights[v] > 0)
        if not members:
            v = max(range(g.n), key=lambda u: (weights[u], -u))
            return [v], weights[v]
        return members, sum(weights[v] for v in members)
    umask = mask_of(cert.universal)
    windows = [w | umask for w in _core_windows(g, cert.kind, cert.partition)]
    return _window_best_clique(g, windows, weights)


def clique_number(g: Graph) -> int:
    """Size of a largest clique (via the atom decomposition)."""
    return max_weight_clique(g)[1]


def max_weight_clique(g: Graph, weights=None):
    """Heaviest clique of a member graph: (sorted vertex list, weight).

    With unit weights this is a maximum clique.  Every clique survives in
    some atom of the decomposition, so the atom-wise maximum is exact.
    """
    if g.n == 0:
        return [], 0
    if weights is None:
        weights = [1] * g.n
    best = None
    for leaf in decompose(g).leaves():
        sub = leaf.graph
        cert = recognize_atom(sub)
        w_local = [weights[sub.vmap[v]] for v in range(sub.n)]
        members, val = atom_max_weight_clique(sub, cert, w_local)
        members = sorted(sub.vmap[v] for v in members)
        if best is None or val > best[1] or (val == best[1] and members < best[0]):
            best = (members, val)
    return best


# ---------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------


def greedy_color_lantern(g: Graph, part, omega: int) -> list[int]:
    """Color a lantern with exactly omega colors.

    Hub a and the c-sides take colors downward from omega, hub d and the
    b-sides upward from 1; on the wavy arm both sides are walked in
    shrinking-neighborhood order, so an edge between ranks j and k sits in
    a clique of size j+k <= omega and the colors j and omega+1-k differ.
    """
    color = [0] * g.n
    for j, v in enumerate(sorted(part.a)):
        color[v] = omega - j
    for j, v in enumerate(sorted(part.d)):
        color[v] = 1 + j
    key = _popcount_key(g)
    for i in range(part.r):
        bs = sorted(part.b[i], key=key)
        cs = sorted(part.c[i], key=key)
        for j, v in enumerate(bs):
            color[v] = 1 + j
        for j, v in enumerate(cs):
            color[v] = omega - j
    return color


def greedy_color_ring(g: Graph, ring, omega: int) -> list[int]:
    """Color a six-ring with exactly omega colors.

    Even parts count upward from 1 and odd parts downward from omega,
    each walked in shrinking-neighborhood order; adjacent ranks j and k
    span a clique of size j+k, so the colors never collide.
    """
    color = [0] * g.n
    key = _popcount_key(g)
    for i in range(6):
        vs = sorted(ring.x[i], key=key)
        for j, v in enumerate(vs):
            color[v] = 1 + j if i % 2 == 0 else omega - j
    return color


def color_atom(g: Graph, cert) -> list[int]:
    """Optimal proper coloring of a recognized atom (1-based, local ids)."""
    from .arcs import bracelet_arcs, emerald_arcs, max_point_load, pca_color

    if cert.kind == "complete":
        return list(range(1, g.n + 1))
    umask = mask_of(cert.universal)
    core = g.induced(g.all_mask & ~umask)
    back = {cv: v for cv, v in enumerate(core.vmap)}
    fwd = {v: cv for cv, v in enumerate(core.vmap)}
    from .recognize import _map_partition

    cpart = _map_partition(cert.partition, lambda lst: [fwd[v] for v in lst])
    if cert.kind in ("bracelet", "emerald"):
        rep = (bracelet_arcs if cert.kind == "bracelet" else emerald_arcs)(core, cpart)
        # on these arc families every clique sits over a common point
        ccolor, _k = pca_color(core, rep, omega=max_point_load(rep))
    elif cert.kind in ("lantern", "wreath", "crown"):
        wins = _core_windows(core, cert.kind, cpart)
        omega = _window_best_clique(core, wins, [1] * core.n)[1]
        if cert.kind == "lantern":
            ccolor = greedy_color_lantern(core, cpart, omega)
        elif cert.kind == "wreath":
            ccolor = greedy_color_ring(core, cpart.ring, omega)
        else:
            ccolor = greedy_color_ring(core, cpart.ring(), omega)
    else:
        raise ValueError(f"unknown atom kind: {cert.kind}")
    k = max(ccolor, default=0)
    color = [0] * g.n
    for cv, c in enumerate(ccolor):
        color[back[cv]] = c
    for j, v in enumerate(sorted(cert.universal)):
        color[v] = k + 1 + j
    return color


def min_coloring(g: Graph):
    """Minimum proper coloring of a member graph: (colors, count).

    Colors are 1-based and indexed by vertex.  Inputs with at most
    MEMBERSHIP_CHECK_LIMIT vertices are first checked against the
    forbidden patterns and rejected with a witness if they fail.
    """
    if g.n == 0:
        return [], 0
    if g.n <= MEMBERSHIP_CHECK_LIMIT:
        report = class_membership(g)
        if not report.is_member:
            raise ValueError(f"not a member graph: {report.violations()}")
    tree = decompose(g)
    leaf_colorings = {}
    for leaf in tree.leaves():
        cert = recognize_atom(leaf.graph)
        leaf_colorings[id(leaf)] = color_atom(leaf.graph, cert)
    colors = merge_colorings(g, tree, leaf_colorings)
    return colors, max(colors)


# ---------------------------------------------------------------------
# maximum-weight stable sets
# ---------------------------------------------------------------------


def subatom_mwis(g: Graph, weights):
    """Heaviest stable set of an induced subgraph of an atom.

    Tries one top pick per true-twin class, its heaviest member (least id
    on ties), if that has positive weight: twins leave the same graph
    behind, so the other members cannot do better.  Removing the pick's
    closed neighborhood leaves a chordal graph on the target atoms, where
    the exact chordal routine finishes.  Returns (sorted list, weight).
    """
    best = ([], 0)
    for cls in g.twin_classes():
        v = max(cls, key=lambda u: (weights[u], -u))
        if weights[v] <= 0:
            continue
        h = g.induced(g.all_mask & ~g.closed(v))
        w_local = [weights[h.vmap[u]] for u in range(h.n)]
        try:
            inner, val = chordal_mwis(h, w_local)
        except NotChordalError:
            inner, val = brute_mwis(h, w_local, cap=ORACLE_FALLBACK_CAP)
        members = sorted([v] + [h.vmap[u] for u in inner])
        val += weights[v]
        if val > best[1] or (val == best[1] and best[0] and members < best[0]):
            best = (members, val)
    return best


def mwis(g: Graph, weights):
    """Heaviest stable set of a member graph: (sorted vertex list, weight).

    Splits along clique cutsets; for each cut, per-cutset-vertex optima of
    the atom side are folded into adjusted weights for the remainder, and
    the remainder's solution is then extended into the atom.
    """
    if g.n == 0:
        return [], 0

    def sub_solve(mask: int, w) -> tuple[list[int], object]:
        sub = g.induced(mask)
        members, val = subatom_mwis(sub, [w[sub.vmap[v]] for v in range(sub.n)])
        return sorted(sub.vmap[v] for v in members), val

    nodes, last = spine(decompose(g))
    w = list(weights)
    steps = []  # (cutset, atom-side set without the cutset, per-vertex sets)
    for node in nodes:
        s_mask = node.cutset
        a_mask = node.left.mask
        base_set, base_val = sub_solve(a_mask & ~s_mask, w)
        per_v = {}
        for v in sorted(bits(s_mask)):
            # the cutset is a clique, so no solve at this node reads w[v]
            iv_set, iv_val = sub_solve(a_mask & ~g.closed(v), w)
            per_v[v] = iv_set
            w[v] += iv_val - base_val
        steps.append((s_mask, base_set, per_v))
    chosen = sub_solve(last.mask, w)[0]
    for s_mask, base_set, per_v in reversed(steps):
        in_s = [v for v in chosen if s_mask >> v & 1]
        if len(in_s) > 1:
            raise AssertionError("stable set meets a clique twice")
        extra = per_v[in_s[0]] if in_s else base_set
        chosen = sorted(set(chosen) | set(extra))
    return chosen, sum(weights[v] for v in chosen)


def max_stable_set(g: Graph) -> tuple[list[int], int]:
    """A largest stable set (unit weights)."""
    return mwis(g, [1] * g.n)
