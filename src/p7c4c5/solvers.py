"""Exact optimization: minimum coloring, heaviest stable set, heaviest clique.

All four entry points, ``min_coloring``, ``max_weight_clique``, ``mwis``
and ``patterns.class_membership``, work on the true-twin quotient (one
vertex per class of equal closed neighborhoods, the least member): the
input's rows are grouped once, at the entry point, and the quotient is
twin-free and known to be, so its decomposition does not group it
again (recognition still groups an atom's rows to find its universal
clique).  g is the quotient with each vertex blown up into a clique of
its class's members, and the class of (P7, C4, C5)-free graphs is
closed under such blow-ups; a clique minimal separator never splits a
twin class, so g's atoms are the quotient's atoms lifted class by
class.  So every answer found on the quotient lifts exactly.

One certify walk, ``certify_atoms``, serves coloring, cliques and
membership: the quotient as one certified atom if ``recognize_atom``
takes it whole, else its atoms (``cutset.atoms``, vertex masks), each
copied once and certified unless it is a clique, and the P7 that
``patterns.crossing_p7`` finds across the splits.  A universal vertex
whose removal disconnects the quotient, its hub, is a clique cutset
known before any search: each component left without it is copied
once, as its atoms' core, and recognized whole, and only a component
that fails is split by ``cutset.atoms`` on that copy.  Such a copy
leaves the hub out, and the solvers add its class back.  No graph a
certificate verifies on induces a C4, a C5 or a P7, and a hole never
crosses a clique cutset, so the walk decides membership: a one-atom
input runs neither the split nor a pattern search.  Certificates, and
the arc models built from them, are verified on the quotient's atoms.
An atom is solved in its own ids, its universal clique left out of the
core's model.  Every core's heaviest clique is read from its partition:
every clique lies in one of a few pairs of clique parts, each vertex of
the first seeing a prefix of the second, and one prefix sweep per pair
(``_pair_clique``) meets them all.  A bracelet or emerald core is
colored from one arc model, by cyclic color intervals; a lantern or
six-ring core by ranks of its ranked parts, the certificate's nested
clique parts, counted up from 1 or down from omega, the omega of its
pairs.  A clique atom is answered from its mask.

Coloring weighs each quotient vertex by its class size: a block of arcs
weighs the sizes of its classes, a class takes that many ranks of its
part, and a universal class that many new colors, so each class gets
consecutive colors (cyclically for arcs), which its members take in id
order.  Two quotient vertices that meet get disjoint colors, and so do
their members; the count is the chromatic number of the blow-up of each
atom.  The lifted atom colorings are merged on g's atoms, permuting each
atom's colors to agree on its cutset.  Cliques weigh a class as the sum
of its positive members, which the lift takes in full.

``mwis`` weighs a class as its heaviest member (least id on ties),
which is also what the lift takes, and reads the quotient's recognition
verdict, the first step of the certify walk.  A certificate answers from
its partition (``atom_mwis``), with no arc model: every part is a
clique and a vertex sees a prefix of each part it meets, so suffix
maxima over the listed parts give each kind's optimum.  A chordal core
(``recognize.ChordalCoreError``) makes the quotient chordal, solved by
the elimination order that recognition verified (``chordal_mwis``).
Any other quotient is walked along ``cutset.atoms`` by the classic
cutset reweighting rule (``_cutset_mwis``): an atom's optimum deletes
one closed neighborhood per twin class, which leaves a chordal graph on
these atoms.  Its
sub-problems are vertex masks handed to the chordal routines with
``within``, with no subgraph copied, and each distinct side mask is
solved once per split.

Membership, coloring and cliques read one verdict of the walk
(``walk_verdict``), so every non-member is rejected at every size as a
``NotAMember`` carrying the report ``class_membership`` gives.  ``mwis``
rejects one only where its atom walk meets a pattern, a hole that stops
a chordal solve, so it answers a C4, a C5 and long holes, which the walk
takes and meets no such hole in, and a P7 and long paths, which are
chordal.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, combinations

from . import arcs  # called through the module: bench/spans.py wraps its functions
from .chordal import NotChordalError, chordal_mwis
from .chordal import chordal_max_weight_clique  # noqa: F401 -- bench/spans.py traces it here
from .cutset import atoms, merge_colorings
from .cutset import decompose  # noqa: F401 -- bench/spans.py traces it here
from .graph import Graph, _picked, bits, mask_of
from .oracle import brute_max_clique, brute_mwis  # noqa: F401 -- bench/spans.py traces them here
from .patterns import ClassReport, crossing_p7, pattern_sweep
from .patterns import class_membership  # noqa: F401 -- bench/spans.py traces it here
from .recognize import ChordalCoreError, EmeraldPartition, RecognitionError, recognize_atom


# ---------------------------------------------------------------------
# cliques: pairs of clique parts
# ---------------------------------------------------------------------


def _clique_pairs(kind: str, part):
    """The pairs (xs, ys) of clique parts of a core that ``_pair_clique``
    reads; every clique of the core lies in one of them.

    A bracelet's clique lies in three consecutive parts, and if it meets
    parts i and i+2 its vertices there are in plus[i] and minus[i+2].  So
    pair i is part i+1, then part i's plus, star and minus vertices, with
    minus[i+2]: part i+1 sees all of it, a plus vertex a prefix (the rows
    are chained), the rest of part i none of it.  An emerald's maximal
    cliques are its eleven clique triples of classes x, y, z, each read as
    (x + y, z).  A lantern's or six-ring's pairs are its meeting parts in
    certificate order, which shrinks closed neighborhoods (a crown's
    c[i] + d[i] is two twin classes, inner first)."""
    if kind == "bracelet":
        return [(part.part(i + 1) + part.plus[i] + part.star[i] + part.minus[i],
                 part.minus[(i + 2) % 7]) for i in range(7)]
    if kind == "emerald":
        cls = dict(part.classes())
        return [(cls[x] + cls[y], cls[z]) for x, y, z in _emerald_triples()[0]]
    if kind == "lantern":
        b, c = part.b, part.c
        return [(bi, part.a) for bi in b] + list(zip(b, c)) + [(part.d, ci) for ci in c]
    x = (part.ring() if kind == "crown" else part).x
    return [(x[i], x[(i + 1) % 6]) for i in range(6)]


def _pair_clique(g: Graph, pairs, weights):
    """Heaviest clique over the pairs (xs, ys) of ``_clique_pairs``: pairs
    of cliques, each xs vertex seeing a prefix of ys, prefixes shrinking
    along xs.  Counts positive members only (([], 0) if none is positive);
    ties to the lex-least set.

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


def atom_max_weight_clique(g: Graph, cert, weights=None):
    """Heaviest clique of a recognized atom: (sorted vertex list, weight).

    The positive universal vertices join the heaviest clique of the core,
    read from the pairs of its clique parts (``_clique_pairs``) for every
    kind.  With no positive weight the answer is the heaviest vertex,
    least id on ties.
    """
    if weights is None:
        weights = [1] * g.n
    if not any(x > 0 for x in weights):
        v = max(range(g.n), key=lambda u: (weights[u], -u))
        return [v], weights[v]
    members = [v for v in cert.universal if weights[v] > 0]
    if cert.kind != "complete":
        members += _pair_clique(g, _clique_pairs(cert.kind, cert.partition), weights)[0]
    members.sort()
    return members, sum(weights[v] for v in members)


def atom_mwis(g: Graph, cert, weights):
    """Heaviest stable set of a recognized atom: (sorted vertex list,
    weight); ([], 0) if no weight is positive.

    A universal vertex competes alone, so a complete atom answers with
    its heaviest vertex.  The core is read from its partition, with no
    arc model: every part is a clique, so a stable set picks at most one
    vertex of a part, and a vertex sees a prefix of each listed part it
    meets, so its non-neighbors there are a suffix, whose best pick a
    suffix maximum gives.  Only positive vertices are picked.  Each kind
    (``_CORE_STABLE_SETS``) lists candidate sets, one of which is
    optimal; the answer is the heaviest candidate, ties to the lex-least
    sorted list, as the clique solvers break them.
    """
    cands = [_heaviest(cert.universal, weights)]
    if cert.kind != "complete":
        cands += _CORE_STABLE_SETS[cert.kind](g, cert.partition, weights)
    best, top = [], 0
    for members in map(sorted, cands):
        val = sum(weights[v] for v in members)
        if val > top or val == top and members < best:
            best, top = members, val
    return best, top


def _heaviest(part, weights) -> list[int]:
    """[the heaviest vertex of *part*, least id on ties] if its weight is
    positive, else []."""
    v = max(part, key=lambda u: (weights[u], -u), default=None)
    return [v] if v is not None and weights[v] > 0 else []


def _suffix_best(picks):
    """``best[i]``: the first heaviest of the (value, picked vertices)
    pairs ``picks[i:]``, or (0, ()) past the end."""
    best = [(0, ())] * (len(picks) + 1)
    for i in range(len(picks) - 1, -1, -1):
        best[i] = picks[i] if picks[i][0] > best[i + 1][0] else best[i + 1]
    return best


def _with_best_partner(g: Graph, vs, part, weights):
    """[v, its heaviest non-neighbor in *part*] for each positive v of
    *vs*, just [v] where *part* has no positive non-neighbor of v.  Each v
    sees a prefix of the clique *part*, listed in order, so its
    non-neighbors there are a suffix, read from the suffix maxima
    (``_suffix_best``) of part's positive vertices."""
    vs = [v for v in vs if weights[v] > 0]
    if not vs:
        return []
    part = [v for v in part if weights[v] > 0]
    after = _suffix_best([(weights[v], (v,)) for v in part])
    mask = mask_of(part)
    return [[v, *after[(g.adj[v] & mask).bit_count()][1]] for v in vs]


def _lantern_sets(g: Graph, part, weights):
    """A stable set holds both hubs and nothing else, or one hub with one
    vertex per arm on the far side (a sees the b sides, d the c sides),
    or no hub and each arm's best.  Arms are anticomplete, and all but
    arm 0 are cliques; arm 0's best is one vertex or a nonadjacent b/c
    pair, a b vertex's best partner read from the suffix maxima of c[0].
    """
    top = lambda p: _heaviest(p, weights)
    a, d = top(part.a), top(part.d)
    arm0 = [top(part.b[0] + part.c[0])] + _with_best_partner(g, part.b[0], part.c[0], weights)
    arms = max(arm0, key=lambda s: sum(weights[v] for v in s))
    for b, c in zip(part.b[1:], part.c[1:]):
        arms += top(b + c)
    return [a + d, a + [v for c in part.c for v in top(c)],
            d + [v for b in part.b for v in top(b)], arms]


def _ring_sets(g: Graph, x, weights):
    """A six-ring core, parts x in listed order: consecutive parts meet,
    the others are anticomplete.  Fixing the pick in one part p0 (or
    none) leaves a path of five parts, solved by a chain over them: the
    best set ending at a pick y of part k adds y to the better of the
    best set over parts up to k-2 and the best ending at a non-neighbor
    of y in part k-1, a suffix of it.  p0's neighbors in parts 1 and 5
    fence off prefixes of them.  A later vertex of a part sees less, so a
    pick is never needed when a later vertex of its part weighs at least
    as much: p0 ranges over the other picks of the part with the fewest
    of them, one chain each, at most O(n * smallest part) in all."""
    parts = [[v for v in p if weights[v] > 0] for p in x]
    undominated = []
    for p in parts:
        keep, heaviest = [], 0
        for v in reversed(p):
            if weights[v] > heaviest:
                keep.append(v)
                heaviest = weights[v]
        undominated.append(keep)
    s = min(range(6), key=lambda i: len(undominated[i]))
    parts = parts[s:] + parts[:s]
    masks = [mask_of(p) for p in parts]
    # back[k][j]: how many of part k-1's vertices vertex j of part k sees
    back = [[(g.adj[v] & masks[k - 1]).bit_count() for v in parts[k]] for k in range(6)]
    out = []
    for p0 in [None] + undominated[s]:
        fence = [0] * 6  # the first index of each part that p0 misses
        if p0 is not None:
            fence[1], fence[5] = ((g.adj[p0] & masks[k]).bit_count() for k in (1, 5))
        two = one = (0, ())  # the best (value, picks) over the parts up to k-2, up to k-1
        after = None  # suffix maxima of the picks ending in part k-1
        for k in range(1, 6):
            picks = []
            for y, h in zip(parts[k], back[k]):
                prev = two
                if after is not None and after[max(h, fence[k - 1])][0] > prev[0]:
                    prev = after[max(h, fence[k - 1])]
                picks.append((weights[y] + prev[0], prev[1] + (y,)))
            after = _suffix_best(picks)
            two, one = one, max(one, after[fence[k]], key=lambda pick: pick[0])
        out.append(list(one[1]) + ([] if p0 is None else [p0]))
    return out


def _bracelet_sets(g: Graph, part, weights):
    """A stable set meets at most three parts, pairwise at distance two or
    more on the seven-ring: two parts at distance three, which are
    anticomplete, or the parts i, i+2, i+4, or fewer of them, read around
    the pick of part j = i+2.  A star vertex of part j sees neither part
    i nor part i+4, a minus vertex sees a prefix of plus[i] and nothing
    of part i+4, and a plus vertex a prefix of minus[i+4] and nothing of
    part i.  So a star pick is the heaviest of star[j], and a wavy pick
    takes its best non-neighbor from the suffix maxima of the part it
    meets, listed from the side that meets part j."""
    tops = [_heaviest(part.part(i), weights) for i in range(7)]
    out = [tops[i] + tops[(i + 3) % 7] for i in range(7)]
    for i in range(7):
        j, k = (i + 2) % 7, (i + 4) % 7
        out.append(_heaviest(part.star[j], weights) + tops[i] + tops[k])
        for wavy, met, other in (
                (part.minus[j], part.plus[i] + part.star[i] + part.minus[i], tops[k]),
                (part.plus[j], part.minus[k] + part.star[k] + part.plus[k], tops[i])):
            out += [pair + other for pair in _with_best_partner(g, wavy, met, weights)]
    return out


@cache
def _emerald_triples():
    """(cliques, stables): the class triples of the emerald
    (``EmeraldPartition.EDGES``) that are pairwise complete, its 11
    maximal cliques of classes, and those that are pairwise anticomplete,
    its 22 maximal stable sets of classes, as tuples of field names.  The
    class graph has no clique or stable set of four, and each of its edges
    and non-edges lies in a triple of its kind."""
    edges = {frozenset(e) for e in EmeraldPartition.EDGES}
    triples = list(combinations(EmeraldPartition.ORDER, 3))
    return tuple(tuple(t for t in triples
                       if all((frozenset(pair) in edges) == complete
                              for pair in combinations(t, 2)))
                 for complete in (True, False))


def _emerald_sets(g: Graph, part, weights):
    """The classes are cliques, each complete or anticomplete to another,
    so a stable set takes the heaviest vertex of each class of a maximal
    stable set of classes."""
    tops = {name: _heaviest(cls, weights) for name, cls in part.classes()}
    return [tops[x] + tops[y] + tops[z] for x, y, z in _emerald_triples()[1]]


# each kind with a core: its candidate stable sets, one of which is optimal
_CORE_STABLE_SETS = {
    "bracelet": _bracelet_sets,
    "emerald": _emerald_sets,
    "lantern": _lantern_sets,
    "wreath": lambda g, part, weights: _ring_sets(g, part.x, weights),
    "crown": lambda g, part, weights: _ring_sets(g, part.ring().x, weights),
}


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
    cliques (``certify_atoms`` of the quotient) is one of g: a clique
    atom answers with its positive members, any other from its
    certificate, plus the class of the hub its core copy leaves out, if
    any.  With no positive weight every class weighs 0, and the
    answer is the heaviest vertex, least id on ties.  A non-member is
    rejected as by ``min_coloring``.
    """
    if g.n == 0:
        return [], 0
    if weights is None:
        weights = [1] * g.n
    classes, entries = member_walk(g)
    positive = [[v for v in cls if weights[v] > 0] for cls in classes]
    q_weights = [sum(weights[v] for v in p) for p in positive]
    heavy = mask_of(i for i, x in enumerate(q_weights) if x > 0)
    ids = range(len(classes))
    best = None
    for _s, atom, sub, cert in entries:
        if cert is None:  # a clique atom: its positive classes, read off the mask
            val = sum(_picked(atom & heavy, 0, q_weights))
        else:
            local, val = atom_max_weight_clique(sub, cert, [q_weights[v] for v in sub.vmap])
            hub = _core_hub(atom, sub)  # universal to the core: its class joins the clique
            if hub is not None:
                val += q_weights[hub]
        if best is not None and val < best[1]:
            continue
        if cert is None:
            qs = _picked(atom & heavy, 0, ids)
        else:
            qs = [sub.vmap[v] for v in local] + ([] if hub is None else [hub])
        members = sorted(v for i in qs for v in positive[i])
        if best is None or val > best[1] or members < best[0]:
            best = (members, val)
    if not any(positive):
        v = max(range(g.n), key=lambda u: (weights[u], -u))
        return [v], weights[v]
    return best


def certify_atoms(g: Graph):
    """The certify walk of ``min_coloring``, ``max_weight_clique`` and
    ``patterns.class_membership``, which pass their twin quotient as g:
    (entries, p7).

    *entries* lists (cutset, atom, sub, cert): masks in g's ids, *sub*
    the atom induced (vmap into g's ids) and *cert* its certificate or
    its RecognitionError.  If ``recognize_atom`` certifies g whole, or g
    is one atom, that is the one entry (*sub* shares g's rows).  Else the
    entries are the pairs of ``atoms(g)``, in its order, each induced once
    and certified unless it is a clique (*sub* and *cert* None), which its
    side, the atom minus its clique cutset, shows alone.  If g has a
    universal vertex whose removal disconnects it (g is twin-free, so it
    has at most one), the split starts there with no MCS-M pass
    (``_hub_entries``): each *sub* is then the atom's core, the atom
    without that vertex, which a universal vertex neither adds a pattern
    to nor gives a clique cutset, and ``_core_hub`` names the vertex left
    out.  A chordal g
    (``ChordalCoreError``, which g's twin-freeness lets ``atoms`` read)
    is split by the elimination order its recognition verified, with no
    MCS-M pass, and every atom of it is a clique.  *p7* is
    the P7 across the splits that ``crossing_p7`` finds, or None.  A hole
    never crosses a clique cutset, and no graph a certificate verifies
    on induces a C4, a C5 or a P7, so g is a member iff no *cert* is an
    error and *p7* is None.
    """
    cert = _certificate(g)
    hub = None
    if isinstance(cert, RecognitionError):  # g is twin-free: at most one universal vertex
        hub = next((v for v, row in enumerate(g.adj) if row.bit_count() == g.n - 1), None)
    parts = [] if hub is None else g.components(g.all_mask & ~(1 << hub))
    if len(parts) > 1:
        entries = _hub_entries(g, hub, parts)
    else:
        pairs = _split(g, cert)
        if len(pairs) == 1:
            return [(0, g.all_mask, g.induced(g.all_mask), cert)], None
        entries = _certified(g, pairs)
    return entries, crossing_p7(g, [entry[:2] for entry in entries])


def _split(h: Graph, cert):
    """The atoms of h, ``[(0, h.all_mask)]`` if *cert* certifies it whole;
    a chordal h (``ChordalCoreError``) splits by its verified order."""
    if not isinstance(cert, RecognitionError):
        return [(0, h.all_mask)]
    return atoms(h, cert.peo if isinstance(cert, ChordalCoreError) else None)


def _certified(g: Graph, pairs, hub_bit: int = 0):
    """The entries (cutset | hub_bit, atom | hub_bit, sub, cert) of the
    (cutset, atom) masks *pairs* of g: each atom induced once and
    certified, unless it is a clique (*sub* and *cert* None)."""
    out = []
    for s, atom in pairs:
        # the cutset is a clique, so the atom is one iff each side vertex sees it
        sub = None if g.is_complete_to(atom & ~s, atom) else g.induced(atom)
        out.append((s | hub_bit, atom | hub_bit, sub, None if sub is None else _certificate(sub)))
    return out


def _hub_entries(g: Graph, hub: int, parts):
    """The entries of twin-free g, whose universal vertex *hub* leaves the
    components *parts* (ascending least vertex), each a clique cutset's
    side.  ``atoms(g)`` splits them off from the greatest least vertex
    down, and a component's atoms with the hub added are g's atoms in it.
    A clique component is a clique atom; any other is copied once, its
    core, and recognized whole; only one that fails is split by ``atoms``
    on that copy, its atoms lifted through the copy's vmap.  Each *sub*
    leaves the hub out, a universal vertex of its atom that the solvers
    add (``_core_hub``)."""
    h, entries = 1 << hub, []
    for c in reversed(parts):
        if g.is_clique(c):
            entries.append((h, c | h, None, None))
            continue
        core = g.induced(c)
        cert = _certificate(core)
        pairs = _split(core, cert)
        if len(pairs) == 1:
            entries.append((h, c | h, core, cert))
            continue
        lift = [1 << v for v in core.vmap]
        entries += _certified(g, [(sum(_picked(s, 0, lift)), sum(_picked(a, 0, lift)))
                                  for s, a in pairs], h)
    entries[-1] = (0, *entries[-1][1:])
    return entries


def _core_hub(atom: int, sub: Graph):
    """The vertex of *atom* that its copy *sub* leaves out, the hub of a
    core copy of ``_hub_entries``, or None if *sub* is the whole atom."""
    if sub.n == atom.bit_count():
        return None
    return (atom & ~mask_of(sub.vmap)).bit_length() - 1


def _certificate(h: Graph):
    """``recognize_atom(h)``, or the RecognitionError it raises."""
    try:
        return recognize_atom(h)
    except RecognitionError as exc:
        return exc


class NotAMember(ValueError):
    """A non-member rejected with the ``ClassReport`` of its certify walk,
    as ``report``; the message names its witnesses in input ids."""

    def __init__(self, report: ClassReport):
        super().__init__(f"not a member graph: {report.violations()}")
        self.report = report


def walk_verdict(entries, p7, ids) -> ClassReport:
    """The membership verdict of a certify walk (``certify_atoms``), its
    *entries* and crossing *p7* in g's ids, with witnesses in input ids
    (``ids[v]`` for g's vertex v).  Each pattern keeps the least witness
    of the ``pattern_sweep`` of each atom whose *cert* is an error, swept
    on its *sub*, which may be its core (no C4, C5 or P7 passes through a
    universal vertex), and *p7* competes for the P7: a hole never crosses
    a clique cutset, and a P7 lies in an atom or crosses a split.
    ``certified`` is None once an atom failed."""
    found = {} if p7 is None else {"p7": tuple(ids[v] for v in p7)}
    failed = [sub for _s, _atom, sub, cert in entries if isinstance(cert, Exception)]
    for sub in failed:
        for key, w in pattern_sweep(sub).violations().items():
            w = tuple(ids[sub.vmap[v]] for v in w)
            found[key] = min(found.get(key, w), w)
    certified = None if failed or found else "split" if len(entries) > 1 else entries[0][3].kind
    return ClassReport(not found, found.get("p7"), found.get("c4"), found.get("c5"), certified)


def member_walk(g: Graph):
    """(classes, entries): g's twin classes, and the entries of
    ``certify_atoms`` of its twin quotient once they prove g a member.
    Else the walk's verdict is raised as a NotAMember, or, if it finds no
    pattern, the first RecognitionError."""
    classes, q, _ = g.twin_decomposition()
    entries, p7 = certify_atoms(q)
    report = walk_verdict(entries, p7, q.vmap)
    if not report.is_member:
        raise NotAMember(report)
    if report.certified is None:  # a member that recognition missed
        raise next(cert for *_, cert in entries if isinstance(cert, RecognitionError))
    return classes, entries


# ---------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------


def _ranked_parts(kind: str, part):
    """(up, down) of a lantern, wreath or crown core: its clique parts in
    certificate order, which shrinks closed neighborhoods, so each vertex
    sees a prefix of a part it meets.  No two up parts meet, nor two down
    parts."""
    if kind == "lantern":
        return [part.d] + part.b, [part.a] + part.c
    x = (part.ring() if kind == "crown" else part).x
    return x[0::2], x[1::2]


def greedy_color_parts(g: Graph, up, down, omega: int, sizes=None) -> list[int]:
    """Color the core of a lantern or six-ring atom with exactly omega
    colors from its ranked parts, each vertex v standing for a clique of
    ``sizes[v]`` true twins (1 by default): up parts count ranks upward
    from 1 and down parts downward from omega, in listed order, v taking
    ``sizes[v]`` ranks in a row.  colors[v] is v's first rank; its class
    takes the ranks from there on, upward in an up part and downward in a
    down part.  Every other vertex keeps color 0.  Where ranks j and k of
    an up and a down part meet, the two prefixes span a clique of size
    j+k <= omega, so the colors j and omega+1-k differ."""
    if sizes is None:
        sizes = [1] * g.n
    color = [0] * g.n
    for parts, rank, step in ((up, 1, 1), (down, omega, -1)):
        for part in parts:
            r = rank
            for v in part:
                color[v] = r
                r += step * sizes[v]
    return color


def color_atom(g: Graph, cert, sizes) -> list[list[int]]:
    """Optimal coloring of a recognized atom whose vertex v stands for a
    clique of ``sizes[v]`` true twins (a vertex of a twin quotient): for
    each v, the ``sizes[v]`` colors (1-based) of its class, which its
    members take in id order.

    The core is colored from the certificate, by cyclic color intervals
    of its arcs (``arcs.pca_color``) for a bracelet or an emerald, or by
    ranks of its ranked parts (``greedy_color_parts``, omega from
    ``_pair_clique`` on the sizes), so a class's colors are consecutive:
    cyclically for arcs, downward in a down part.  Then each universal
    class takes |class| new colors.
    """
    k, runs, sweeps = 0, [None] * g.n, []
    if cert.kind in ("bracelet", "emerald"):
        build = arcs.bracelet_arcs if cert.kind == "bracelet" else arcs.emerald_arcs
        rep = build(g, cert.partition)
        first, k = arcs.pca_color(g, rep, sizes=sizes)
        sweeps = [(rep.arcs, 1)]
    elif cert.kind != "complete":
        up, down = _ranked_parts(cert.kind, cert.partition)
        k = _pair_clique(g, _clique_pairs(cert.kind, cert.partition), sizes)[1]
        first = greedy_color_parts(g, up, down, k, sizes)
        sweeps = [(chain(*up), 1), (chain(*down), -1)]
    cycle = list(range(1, k + 1)) * 2  # the k colors in cyclic order, twice
    for verts, step in sweeps:  # step -1: a part that counts down
        for v in verts:
            i = first[v] - 1 + (k if step < 0 else 0)
            runs[v] = cycle[i:i + step * sizes[v]:step]
    for v in sorted(cert.universal):
        runs[v] = list(range(k + 1, k + 1 + sizes[v]))
        k += sizes[v]
    return runs


def min_coloring(g: Graph):
    """Minimum proper coloring of a member graph: (colors, count).

    Colors are 1-based and indexed by vertex.  Twins are interchangeable
    and pairwise adjacent, so g is colored on its twin quotient, a class
    standing for a clique of its size: each atom of ``certify_atoms`` of
    the quotient is colored, a clique atom by numbering its members and
    any other by ``color_atom`` with the class sizes, which gives each
    class consecutive colors.  Each atom's coloring is lifted to its
    members, and the lifted atoms, which are the atoms of g, are merged.
    A certificate of the quotient proves g a member.  Certified atoms
    rule out a C4 or a C5, which never crosses a clique cutset, and a P7
    inside an atom, so a split input is a member iff no P7 crosses a
    split.  A non-member is rejected, at every size, as a NotAMember
    with the walk's verdict (``walk_verdict``): the least witnesses of the
    atoms that fail recognition and the P7 that ``crossing_p7`` finds.
    """
    return color_walk(g, *member_walk(g))[:2]


def color_walk(g: Graph, classes, entries):
    """``min_coloring`` from g's walk, ``member_walk(g)``: (colors, count,
    pairs), *pairs* the walk's atoms lifted class by class: g's atoms.
    The hub that a core copy leaves out is colored as ``color_atom``
    colors a universal class of the whole atom."""
    sizes = [len(cls) for cls in classes]
    color = [0] * g.n  # the lifted colors of the certified atom last colored

    def lift_colors(sub, cert, hub=None):
        runs = color_atom(sub, cert, [sizes[u] for u in sub.vmap])
        verts = sub.vmap
        if hub is not None:  # a core: the hub's class joins the universal classes,
            # which take the colors after the core's in id order
            later = [v for v in cert.universal if sub.vmap[v] > hub]
            first = min((runs[v][0] for v in later), default=max(map(max, runs)) + 1)
            for v in later:
                runs[v] = [c + sizes[hub] for c in runs[v]]
            verts, runs = verts + (hub,), runs + [range(first, first + sizes[hub])]
        members = chain.from_iterable(map(classes.__getitem__, verts))
        for v, c in zip(members, chain.from_iterable(runs)):
            color[v] = c

    if len(entries) == 1:
        lift_colors(*entries[0][2:])
        return color, max(color, default=0), [(0, g.all_mask)]
    lift = [mask_of(cls) for cls in classes] if len(classes) < g.n else None
    pairs, colorings = [], []
    for s, atom, sub, cert in entries:
        if cert is not None:
            lift_colors(sub, cert, _core_hub(atom, sub))
        if lift:  # the classes are disjoint: their sum is their union
            s, atom = (sum(lift[u] for u in bits(m)) for m in (s, atom))
        pairs.append((s, atom))
        colorings.append(None if cert is None else list(_picked(atom, 0, color)))
    colors = merge_colorings(g, pairs, colorings)
    return colors, max(colors), pairs


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
    on ties), and lifted to those members.  The quotient's recognition
    verdict, the first step of ``certify_atoms``, picks the path:

    * a certificate: ``atom_mwis`` reads the answer from its partition;
    * a chordal core (``ChordalCoreError``): the quotient is chordal, and
      the elimination order that recognition verified solves it
      (``chordal_mwis``), with no second order;
    * anything else: ``_cutset_mwis`` walks its atoms.

    Only the last path can reject: a hole met inside an atom (the input
    is not a member) makes that atom searched for a forbidden pattern,
    named in a NotAMember in input ids as ``min_coloring`` does; if it
    shows none, the ``NotChordalError`` stands, in input ids.
    """
    classes, q, _ = g.twin_decomposition()
    top = [max(cls, key=lambda u: (weights[u], -u)) for cls in classes]
    q_weights = [weights[v] for v in top]
    cert = _certificate(q)
    if isinstance(cert, ChordalCoreError):
        solved = chordal_mwis(q, q_weights, peo=cert.peo)[0]
    elif isinstance(cert, RecognitionError):
        solved = _cutset_mwis(q, q_weights)
    else:
        solved = atom_mwis(q, cert, q_weights)[0]
    chosen = sorted(top[i] for i in solved)
    return chosen, sum(weights[v] for v in chosen)


def _cutset_mwis(g: Graph, weights) -> list[int]:
    """A heaviest stable set of g, sorted.

    Walks the atoms of ``atoms``; for each cut, per-cutset-vertex optima
    of the split-off side (the atom minus its cutset) are folded into
    adjusted weights for the remainder, and the remainder's solution is
    then extended into that side.  Every sub-problem is a mask of g, and
    each distinct mask (the side, and the side minus N(v) for each
    cutset vertex v) is solved once per split.  An atom with a hole is
    swept as a failed atom of a walk (``walk_verdict``) and rejected as a
    NotAMember; if that names no pattern, the hole is raised as a
    NotChordalError.  Both are in input ids, through g.vmap.
    """
    w = list(weights)
    steps = []  # (cutset, side set, per-vertex sets)
    pairs = atoms(g)
    try:
        for s_mask, atom in pairs[:-1]:
            side = atom & ~s_mask
            # the solves of one split read no cutset weight, the only ones
            # this loop changes, so each distinct side mask is solved once
            solved = {side: subatom_mwis(g, w, side)}
            base_set, base_val = solved[side]
            per_v = {}
            for v in bits(s_mask):
                rest = side & ~g.adj[v]  # v is not in the side
                if rest not in solved:
                    solved[rest] = subatom_mwis(g, w, rest)
                iv_set, iv_val = solved[rest]
                per_v[v] = iv_set
                w[v] += iv_val - base_val
            steps.append((s_mask, base_set, per_v))
        atom = pairs[-1][1]
        chosen = subatom_mwis(g, w, atom)[0]
    except NotChordalError as exc:  # the least members induce the same hole in the input
        report = walk_verdict([(0, atom, g.induced(atom), exc)], None, g.vmap)
        if not report.is_member:
            raise NotAMember(report) from None
        raise NotChordalError([g.vmap[v] for v in exc.hole]) from None
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
