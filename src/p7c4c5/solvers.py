"""Exact optimization: minimum coloring, heaviest stable set, heaviest clique.

Coloring and cliques walk one list, ``_certified_atoms``: the input (for
cliques, its twin quotient) as one certified atom if ``recognize_atom``
takes it whole, else its atoms (``cutset.atoms``, vertex masks), each
certified unless it is a clique.  No graph a certificate verifies on
induces a C4, a C5 or a P7, so a one-atom input runs neither the split
nor a pattern search.  A bracelet or emerald atom is solved from one arc
model of its core (the atom minus its universal clique): coloring by
cyclic color intervals, the clique as its heaviest window.  A lantern or
six-ring core is solved from its ranked parts, the certificate's nested
clique parts: one prefix sweep per pair of meeting parts gives the
heaviest clique and omega, and ranks counted up from 1 or down from
omega color it.  A clique atom is answered from its mask, and the atom
colorings are merged, permuting each atom's colors to agree on its
cutset.

``mwis`` walks ``cutset.atoms`` with no certificate, by the classic
cutset reweighting rule; an atom's optimum deletes one closed
neighborhood per twin class, which leaves a chordal graph on these
atoms.  Its sub-problems are vertex masks handed to the chordal routines
with ``within``, with no subgraph copied.

A non-member is rejected, with a named witness, only where a step meets
a pattern: an atom that fails recognition, a split coloring input of at
most MEMBERSHIP_CHECK_LIMIT vertices (a P7 may cross a split), or a hole
that stops a chordal solve of ``mwis``.  So ``mwis`` answers a C4, a C5,
a P7 and long paths and holes, cliques a P7 and long paths, and coloring
long paths.

``mwis`` and ``max_weight_clique`` solve on the true-twin quotient (one
vertex per class of equal closed neighborhoods, the least member), once,
at the entry point, and lift the answer: twins are interchangeable for
both problems.  A class weighs, for stable sets, as its heaviest member
(least id on ties), which is also what the lift takes; for cliques, as
the sum of its positive members, which the lift takes in full.
"""

from __future__ import annotations

from itertools import accumulate

from . import arcs  # called through the module: bench/spans.py wraps its functions
from .chordal import NotChordalError, chordal_mwis
from .chordal import chordal_max_weight_clique  # noqa: F401 -- bench/spans.py traces it here
from .cutset import atoms, merge_colorings
from .cutset import decompose  # noqa: F401 -- bench/spans.py traces it here
from .graph import Graph, bits, mask_of
from .oracle import brute_max_clique, brute_mwis  # noqa: F401 -- bench/spans.py traces them here
from .patterns import MEMBERSHIP_CHECK_LIMIT, pattern_sweep
from .patterns import class_membership  # noqa: F401 -- bench/spans.py traces it here
from .recognize import RecognitionError, _map_partition, recognize_atom


# ---------------------------------------------------------------------
# ranked parts: lanterns and six-rings
# ---------------------------------------------------------------------


def _ranked_parts(kind: str, part):
    """(up, down, pairs) of a lantern, wreath or crown core: its clique
    parts in certificate order, which shrinks closed neighborhoods (a
    crown's c[i] + d[i] is two twin classes, inner first), so each vertex
    sees a prefix of a part it meets.  No two up parts meet, nor two down
    parts; every clique lies in one listed pair of meeting parts."""
    if kind == "lantern":
        b, c = part.b, part.c
        pairs = [(bi, part.a) for bi in b] + list(zip(b, c)) + [(part.d, ci) for ci in c]
        return [part.d] + b, [part.a] + c, pairs
    x = (part.ring() if kind == "crown" else part).x
    return x[0::2], x[1::2], [(x[i], x[(i + 1) % 6]) for i in range(6)]


def _pair_clique(g: Graph, pairs, weights):
    """Heaviest clique over the pairs (xs, ys) of meeting parts, counting
    positive members only (([], 0) if none is positive); ties to the
    lex-least set.

    A clique whose last xs vertex is xs[j] lies in xs[:j+1] plus that
    vertex's neighbors in ys, a prefix of ys; one with no xs vertex lies
    in ys.  So one prefix-sum sweep per pair meets every maximal clique.
    """
    gain = [max(x, 0) for x in weights]
    spans = []  # (weight, xs, j, ys, k): the clique xs[:j] + ys[:k]
    for xs, ys in pairs:
        wx, wy = (list(accumulate((gain[v] for v in p), initial=0)) for p in (xs, ys))
        ymask = mask_of(ys)
        heads = [len(ys)] + [(g.adj[v] & ymask).bit_count() for v in xs]
        spans += [(wx[j] + wy[k], xs, j, ys, k) for j, k in enumerate(heads)]
    top = max(s[0] for s in spans)
    if top <= 0:
        return [], 0
    return min(sorted(v for v in xs[:j] + ys[:k] if weights[v] > 0)
               for val, xs, j, ys, k in spans if val == top), top


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
    pairs of ranked parts for the other kinds.  With no positive weight the
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
        found = (_pair_clique(core, _ranked_parts(cert.kind, cpart)[2], w_core)
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
    list.  Every clique lies in some atom, so the heaviest of the atoms'
    cliques (``_certified_atoms`` of the quotient) is one of g: a clique
    atom answers with its positive members, any other from its
    certificate.  With no positive weight every class weighs 0, and the
    answer is the heaviest vertex, least id on ties.
    """
    if g.n == 0:
        return [], 0
    if weights is None:
        weights = [1] * g.n
    classes, q, _ = g.twin_decomposition()
    positive = [[v for v in cls if weights[v] > 0] for cls in classes]
    q_weights = [sum(weights[v] for v in p) for p in positive]
    best = None
    for _s, atom, sub, cert in _certified_atoms(q):
        if cert is None:
            qs = [v for v in bits(atom) if q_weights[v] > 0]
            val = sum(q_weights[v] for v in qs)
        else:
            local, val = atom_max_weight_clique(sub, cert, [q_weights[v] for v in sub.vmap])
            qs = [sub.vmap[v] for v in local]
        members = sorted(v for i in qs for v in positive[i])
        if best is None or val > best[1] or (val == best[1] and members < best[0]):
            best = (members, val)
    if not any(positive):
        v = max(range(g.n), key=lambda u: (weights[u], -u))
        return [v], weights[v]
    return best


def _certified_atoms(g: Graph):
    """The atoms of g, certified: a list of (cutset, atom, sub, cert), the
    masks in g's ids and *sub* the atom induced, its vmap into g's ids.

    If ``recognize_atom`` certifies g whole, that is the one entry (*sub*
    then shares g's rows), and neither the split nor a pattern search runs.
    Otherwise the entries are the pairs of ``atoms(g)``: a clique atom
    keeps *sub* and *cert* None, and any other is induced and certified.
    An atom that fails recognition (g itself, if it is an atom) raises a
    ValueError naming a forbidden pattern of it in input ids
    (``_name_pattern``), or its RecognitionError if it shows none.
    """
    try:
        cert = recognize_atom(g)
    except RecognitionError as exc:
        failed = exc
    else:
        return [(0, g.all_mask, g.induced(g.all_mask), cert)]
    ids = g.vmap or range(g.n)
    pairs = atoms(g)
    if len(pairs) == 1:
        _name_pattern(g, ids)
        raise failed
    out = []
    for s, atom in pairs:
        if g.is_clique(atom):
            out.append((s, atom, None, None))
            continue
        sub = g.induced(atom)
        try:
            out.append((s, atom, sub, recognize_atom(sub)))
        except RecognitionError:
            _name_pattern(sub, [ids[v] for v in sub.vmap])
            raise
    return out


def _name_pattern(h: Graph, ids):
    """Raise a ValueError naming the forbidden patterns of *h*, if it has
    any; ``ids[v]`` is the input id of h's vertex v.  No caller holds a
    certificate of *h* (recognition failed, h split, or a chordal solve
    met a hole), so the sweep runs with no recognition attempt."""
    found = pattern_sweep(h).violations()
    if found:
        found = {key: [ids[v] for v in w] for key, w in found.items()}
        raise ValueError(f"not a member graph: {found}") from None


# ---------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------


def greedy_color_parts(g: Graph, up, down, omega: int) -> list[int]:
    """Color a lantern or six-ring core with exactly omega colors from its
    ranked parts: up parts count upward from 1 and down parts downward
    from omega, in listed order.  Where ranks j and k of an up and a down
    part meet, the two prefixes span a clique of size j+k <= omega, so
    the colors j and omega+1-k differ."""
    color = [0] * g.n
    for part in up:
        for j, v in enumerate(part):
            color[v] = 1 + j
    for part in down:
        for j, v in enumerate(part):
            color[v] = omega - j
    return color


def color_atom(g: Graph, cert) -> list[int]:
    """Optimal proper coloring of a recognized atom (1-based, local ids)."""
    if cert.kind == "complete":
        return list(range(1, g.n + 1))
    core, cpart, rep = _atom_core(g, cert)
    if rep is not None:
        ccolor, _k = arcs.pca_color(core, rep)
    else:
        up, down, pairs = _ranked_parts(cert.kind, cpart)
        ccolor = greedy_color_parts(core, up, down, _pair_clique(core, pairs, [1] * core.n)[1])
    k = max(ccolor, default=0)
    color = [0] * g.n
    for cv, c in enumerate(ccolor):
        color[core.vmap[cv]] = c
    for j, v in enumerate(sorted(cert.universal)):
        color[v] = k + 1 + j
    return color


def min_coloring(g: Graph):
    """Minimum proper coloring of a member graph: (colors, count).

    Colors are 1-based and indexed by vertex.  Each atom of
    ``_certified_atoms`` is colored, a clique atom from its mask and any
    other by ``color_atom``, and the atom colorings are merged.  A
    certificate of the whole input proves it a member.  Certified atoms
    rule out a C4 or a C5, which never crosses a clique cutset, but not a
    P7 across a split, so a split input of at most MEMBERSHIP_CHECK_LIMIT
    vertices is checked against the forbidden patterns and rejected with
    a witness if it fails.  An atom that fails recognition is rejected
    with a witness found in it, at any size.
    """
    if g.n == 0:
        return [], 0
    certified = _certified_atoms(g)
    colorings = [list(range(1, atom.bit_count() + 1)) if cert is None else color_atom(sub, cert)
                 for _s, atom, sub, cert in certified]
    colors = colorings[0]
    if len(certified) > 1:
        if g.n <= MEMBERSHIP_CHECK_LIMIT:
            _name_pattern(g, range(g.n))
        colors = merge_colorings(g, [entry[:2] for entry in certified], colorings)
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
    on ties), and lifted to those members.  A hole met inside an atom (the
    input is not a member) makes that atom searched for a forbidden
    pattern, named in a ValueError in input ids as ``min_coloring`` does;
    if it shows none, the ``NotChordalError`` stands, in input ids.
    """
    classes, q, _ = g.twin_decomposition()
    top = [max(cls, key=lambda u: (weights[u], -u)) for cls in classes]
    try:
        chosen = _cutset_mwis(q, [weights[v] for v in top])
    except NotChordalError as exc:  # the least members induce the same hole in g
        raise NotChordalError([q.vmap[v] for v in exc.hole]) from None
    chosen = sorted(top[i] for i in chosen)
    return chosen, sum(weights[v] for v in chosen)


def _cutset_mwis(g: Graph, weights) -> list[int]:
    """A heaviest stable set of g, sorted.

    Walks the atoms of ``atoms``; for each cut, per-cutset-vertex optima
    of the split-off side (the atom minus its cutset) are folded into
    adjusted weights for the remainder, and the remainder's solution is
    then extended into that side.  Every sub-problem is a mask of g.  An
    atom with a hole is handed to ``_name_pattern`` (ids through g.vmap).
    """
    w = list(weights)
    steps = []  # (cutset, side set, per-vertex sets)
    pairs = atoms(g)
    try:
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
        atom = pairs[-1][1]
        chosen = subatom_mwis(g, w, atom)[0]
    except NotChordalError:
        sub = g.induced(atom)
        _name_pattern(sub, [g.vmap[v] for v in sub.vmap])
        raise
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
