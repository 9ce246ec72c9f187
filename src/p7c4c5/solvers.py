"""Exact optimization: minimum coloring, heaviest stable set, heaviest clique.

All three solvers walk one list of atoms, the input split along clique
cutsets (``cutset.atoms``, vertex masks), and exploit the structure of
the atoms.  A bracelet or emerald atom is solved from one arc model of
its core (the atom minus its universal clique): coloring by cyclic color
intervals, and the clique as its heaviest window (a block of shared arcs
and the later blocks it meets).  Lanterns and six-rings are colored
greedily, and their cliques are read off small "window" subgraphs that
contain every maximal clique.  The atom colorings are merged atom by
atom, permuting an atom's colors to agree on its cutset.  Stable sets use
the classic cutset combination rule driven by reweighting, with per-atom
solutions obtained by deleting one closed neighborhood per twin class
(which leaves a chordal graph on these atoms).  Coloring and cliques
answer a clique atom from its mask.

``mwis`` and ``max_weight_clique`` solve on the true-twin quotient (one
vertex per class of equal closed neighborhoods, the least member), once,
at the entry point, and lift the answer: twins are interchangeable for
both problems.  A class weighs, for stable sets, as its heaviest member
(least id on ties), which is also what the lift takes; for cliques, as
the sum of its positive members, which the lift takes in full.

Stable-set and window sub-problems are vertex masks of the graph being
solved, handed to the chordal routines with ``within``: no subgraph is
copied for them, and a hole (the input is not a member) raises
``NotChordalError`` naming it in input ids.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import arcs  # called through the module: bench/spans.py wraps its functions
from .chordal import NotChordalError, chordal_max_weight_clique, chordal_mwis
from .cutset import atoms, merge_colorings
from .cutset import decompose  # noqa: F401 -- bench/spans.py traces it here
from .graph import Graph, bits, mask_of
from .oracle import brute_max_clique, brute_mwis  # noqa: F401 -- bench/spans.py traces them here
from .patterns import MEMBERSHIP_CHECK_LIMIT, class_membership
from .recognize import _map_partition, recognize_atom


def _popcount_key(g: Graph):
    return lambda v: (-g.closed(v).bit_count(), v)


# ---------------------------------------------------------------------
# clique windows: small subgraphs containing every maximal clique
# ---------------------------------------------------------------------


def _core_windows(g: Graph, kind: str, part) -> list[int]:
    """Vertex masks of a lantern, wreath or crown core (universal part
    excluded) such that every clique of the core lies inside one of them."""
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
    """Best clique over the window masks, counting positive members only
    (([], 0) if none is positive); ties to the lex-least set."""
    found = [chordal_max_weight_clique(g, weights, mask) for mask in windows]
    return min([([], 0)] + found, key=lambda mv: (-mv[1], mv[0]))


def _atom_core(g: Graph, cert):
    """The core of a recognized atom that is not complete (the atom minus
    its universal clique), the certificate's partition in core ids, and
    the arc representation of the core if it is a bracelet or an emerald
    (None otherwise)."""
    core = g.induced(g.all_mask & ~mask_of(cert.universal))
    fwd = {v: cv for cv, v in enumerate(core.vmap)}
    cpart = _map_partition(cert.partition, lambda lst: [fwd[v] for v in lst])
    rep = None
    if cert.kind == "bracelet":
        rep = arcs.bracelet_arcs(core, cpart)
    elif cert.kind == "emerald":
        rep = arcs.emerald_arcs(core, cpart)
    return core, cpart, rep


def atom_max_weight_clique(g: Graph, cert, weights=None):
    """Heaviest clique of a recognized atom: (sorted vertex list, weight).

    The positive universal vertices join the heaviest clique of the core:
    a heaviest window of the arcs for a bracelet or an emerald, of the
    window masks for the other kinds.  With no positive weight the
    answer is the heaviest vertex, least id on ties.
    """
    if weights is None:
        weights = [1] * g.n
    if not any(x > 0 for x in weights):
        v = max(range(g.n), key=lambda u: (weights[u], -u))
        return [v], weights[v]
    members = [v for v in cert.universal if weights[v] > 0]
    if cert.kind != "complete":
        core, cpart, rep = _atom_core(g, cert)
        w_core = [weights[v] for v in core.vmap]
        found = (_window_best_clique(core, _core_windows(core, cert.kind, cpart), w_core)
                 if rep is None else arcs.heaviest_window(core, rep, w_core))[0]
        members += [core.vmap[v] for v in found]
    members.sort()
    return members, sum(weights[v] for v in members)


def clique_number(g: Graph) -> int:
    """Size of a largest clique (via the atom decomposition)."""
    return max_weight_clique(g)[1]


def max_weight_clique(g: Graph, weights=None):
    """Heaviest clique of a member graph: (sorted vertex list, weight).

    With unit weights this is a maximum clique.  The heaviest clique takes
    every positive member of the twin classes it meets, so it is solved on
    the twin quotient with a class weighing the sum of its positive
    members, and lifted to those members; ties go to the lex-least
    list.  With no positive weight the answer is the heaviest vertex,
    least id on ties.
    """
    if g.n == 0:
        return [], 0
    if weights is None:
        weights = [1] * g.n
    if not any(x > 0 for x in weights):
        v = max(range(g.n), key=lambda u: (weights[u], -u))
        return [v], weights[v]
    classes, q, _ = g.twin_decomposition()
    positive = [[v for v in cls if weights[v] > 0] for cls in classes]
    best = None
    with _holes_named_in(q):
        for qs, val in _atom_cliques(q, [sum(weights[v] for v in p) for p in positive]):
            members = sorted(v for i in qs for v in positive[i])
            if best is None or val > best[1] or (val == best[1] and members < best[0]):
                best = (members, val)
    return best


def _atom_cliques(g: Graph, weights):
    """Yield the heaviest clique of each atom of ``atoms(g)``, the list all
    three solvers walk: (vertex list, weight).  Every clique lies in some
    atom, so the heaviest of these is a heaviest clique of g.

    An atom that is a clique is answered from its mask: its positive
    members (none, with weight 0, if it has none; the caller's weights
    are nonnegative and some are positive, so that never wins).  Any
    other atom is induced, recognized and solved on its windows.
    """
    for _s, atom in atoms(g):
        if g.is_clique(atom):
            members = [v for v in bits(atom) if weights[v] > 0]
            yield members, sum(weights[v] for v in members)
        else:
            sub = g.induced(atom)
            w_local = [weights[v] for v in sub.vmap]
            members, val = atom_max_weight_clique(sub, recognize_atom(sub), w_local)
            yield [sub.vmap[v] for v in members], val


@contextmanager
def _holes_named_in(q: Graph):
    """Re-raise a ``NotChordalError`` met on the twin quotient *q* with its
    hole in the ids of the graph q was taken from: the least members of
    the classes induce the same cycle there."""
    try:
        yield
    except NotChordalError as exc:
        raise NotChordalError([q.vmap[v] for v in exc.hole]) from None


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
    if cert.kind == "complete":
        return list(range(1, g.n + 1))
    core, cpart, rep = _atom_core(g, cert)
    if rep is not None:
        ccolor, _k = arcs.pca_color(core, rep)
    else:
        omega = _window_best_clique(core, _core_windows(core, cert.kind, cpart), [1] * core.n)[1]
        if cert.kind == "lantern":
            ccolor = greedy_color_lantern(core, cpart, omega)
        else:
            ccolor = greedy_color_ring(core, cpart.ring() if cert.kind == "crown" else cpart.ring, omega)
    k = max(ccolor, default=0)
    color = [0] * g.n
    for cv, c in enumerate(ccolor):
        color[core.vmap[cv]] = c
    for j, v in enumerate(sorted(cert.universal)):
        color[v] = k + 1 + j
    return color


def min_coloring(g: Graph):
    """Minimum proper coloring of a member graph: (colors, count).

    Colors are 1-based and indexed by vertex.  Inputs with at most
    MEMBERSHIP_CHECK_LIMIT vertices are first checked against the
    forbidden patterns and rejected with a witness if they fail.  A clique
    atom is colored from its mask, any other by ``color_atom``.
    """
    if g.n == 0:
        return [], 0
    if g.n <= MEMBERSHIP_CHECK_LIMIT:
        report = class_membership(g)
        if not report.is_member:
            raise ValueError(f"not a member graph: {report.violations()}")
    pairs = atoms(g)
    colorings = []
    for _s, atom in pairs:
        if g.is_clique(atom):
            colorings.append(list(range(1, atom.bit_count() + 1)))
        else:
            sub = g.induced(atom)
            colorings.append(color_atom(sub, recognize_atom(sub)))
    colors = merge_colorings(g, pairs, colorings)
    return colors, max(colors)


# ---------------------------------------------------------------------
# maximum-weight stable sets
# ---------------------------------------------------------------------


def subatom_mwis(g: Graph, weights, within: int | None = None):
    """Heaviest stable set of the subgraph induced on *within* (every
    vertex by default), which must lie inside an atom.

    Tries one top pick per true-twin class, its heaviest member (least id
    on ties), if that has positive weight: twins leave the same graph
    behind, so the other members cannot do better.  Removing the pick's
    closed neighborhood leaves a chordal graph on the target atoms, where
    the exact chordal routine finishes.  Returns (sorted list, weight).
    """
    rest = g.all_mask if within is None else within
    best = ([], 0)
    for cls in g.twin_classes(rest):
        v = max(cls, key=lambda u: (weights[u], -u))
        if weights[v] <= 0:
            continue
        inner, val = chordal_mwis(g, weights, rest & ~g.closed(v))
        members = sorted([v] + inner)
        val += weights[v]
        if val > best[1] or (val == best[1] and best[0] and members < best[0]):
            best = (members, val)
    return best


def mwis(g: Graph, weights):
    """Heaviest stable set of a member graph: (sorted vertex list, weight).

    A stable set meets a twin class at most once, so it is solved on the
    twin quotient with a class weighing as its heaviest member (least id
    on ties), and lifted to those members.  A hole met on the way (the
    input is not a member) raises ``NotChordalError`` in input ids.
    """
    classes, q, _ = g.twin_decomposition()
    top = [max(cls, key=lambda u: (weights[u], -u)) for cls in classes]
    with _holes_named_in(q):
        chosen = _cutset_mwis(q, [weights[v] for v in top])
    chosen = sorted(top[i] for i in chosen)
    return chosen, sum(weights[v] for v in chosen)


def _cutset_mwis(g: Graph, weights) -> list[int]:
    """A heaviest stable set of g, sorted.

    Walks the atoms of ``atoms``; for each cut, per-cutset-vertex optima
    of the split-off side (the atom minus its cutset) are folded into
    adjusted weights for the remainder, and the remainder's solution is
    then extended into that side.  Every sub-problem is a mask of g.
    """
    w = list(weights)
    steps = []  # (cutset, side set, per-vertex sets)
    pairs = atoms(g)
    for s_mask, atom in pairs[:-1]:
        side = atom & ~s_mask
        base_set, base_val = subatom_mwis(g, w, side)
        per_v = {}
        for v in bits(s_mask):
            # the cutset is a clique, so no solve at this node reads w[v]
            iv_set, iv_val = subatom_mwis(g, w, side & ~g.closed(v))
            per_v[v] = iv_set
            w[v] += iv_val - base_val
        steps.append((s_mask, base_set, per_v))
    chosen = subatom_mwis(g, w, pairs[-1][1])[0]
    for s_mask, base_set, per_v in reversed(steps):
        in_s = [v for v in chosen if s_mask >> v & 1]
        if len(in_s) > 1:
            raise AssertionError("stable set meets a clique twice")
        extra = per_v[in_s[0]] if in_s else base_set
        chosen = sorted(set(chosen) | set(extra))
    return chosen


def max_stable_set(g: Graph) -> tuple[list[int], int]:
    """A largest stable set (unit weights)."""
    return mwis(g, [1] * g.n)
