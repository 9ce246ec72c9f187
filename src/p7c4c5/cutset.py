"""Clique-cutset decomposition into atoms.

A clique cutset splits the vertex set into (A, B, K) with K a clique,
A and B nonempty and anticomplete to each other.  One routine, ``atoms``,
finds every cut, with no size cap, and returns the atoms as a list of
(cutset, atom) vertex masks of the input graph.  The solvers walk that
list, with no tree, and ``has_clique_cutset`` reads its first split.
One cut is known before any search: a universal vertex whose removal
disconnects the twin quotient.  The certify walk
(``solvers.certify_atoms``) splits there itself and calls ``atoms``
only on a component that fails recognition, a copy without that vertex;
the list it gives is the one ``atoms`` gives on the whole quotient.
``tree_violations`` checks such a list: ``verify`` hands it the atoms of
its certify walk, lifted, so it decomposes once.  ``decompose`` builds
the tree of ``Leaf`` and ``Node`` from ``atoms``, for the benchmark's
workload description only.  It works on the true-twin quotient (one
vertex per class of equal closed neighborhoods): a clique minimal
separator never splits a twin class, so the atoms of the quotient lift
exactly to the atoms of the graph.

On the quotient, one MCS-M pass (``minimal_triangulation``) gives a
minimal triangulation H, as one fill row per vertex, and its elimination
order.  Every clique minimal separator of G is madj(x), the set of later
neighbors of x in H, for some generator x: a vertex whose madj is no
larger than that of the vertex numbered just before it.  Walking the
order, each generator x still in the remainder whose madj(x) is a clique
splits off the atom C + madj(x), C being x's component in the remainder
minus madj(x) (Berry, Pogorelcnik & Simonet, "An introduction to clique
minimal separator decomposition", Algorithms 2010).  Every step removes
C from the remainder, so there are at most n atoms.  A madj(x) is a
clique of H, so it is one of G iff it holds no fill edge: only its
vertices with fill are tested.  A twin-free input is its own quotient:
no lift.  The solvers pass a skeleton of ``Graph.twin_decomposition``,
which is not grouped again.

A chordal graph is its own minimal triangulation, and with no fill MCS-M
gains exactly the unnumbered neighbors of each vertex it numbers, so it
visits the graph in the order of maximum cardinality search, ties to
the least id.  So the perfect elimination order that recognition
verified on a chordal quotient (``recognize.ChordalCoreError``) is the
MCS-M order with no fill: the certify walk hands it over, and the split
of a chordal quotient makes no MCS-M pass and gives the same atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .chordal import minimal_triangulation
from .graph import Graph, _picked, bits, mask_of


def atoms(g: Graph, peo=None) -> list[tuple[int, int]]:
    """The atoms of g as (cutset, atom) masks, in the order they split off.

    ``atom & ~cutset`` is a component of the current remainder minus
    *cutset*, a clique; the next remainder is the current one minus that
    component, so an atom meets the atoms after it only in its cutset.
    The last pair is (0, the atom left after the last split).

    *peo*, if given, is the verified perfect elimination order of a
    twin-free chordal g that ``recognize_atom`` attaches to its
    ``ChordalCoreError``; it stands for the MCS-M pass, which would find
    the same order and no fill.
    """
    classes, q, _ = g.twin_decomposition()
    lift = [mask_of(c) for c in classes]

    def lifted(mask):  # the classes are disjoint: their sum is their union
        return mask if q.n == g.n else sum(lift[i] for i in bits(mask))

    if peo is None:
        fill, meo = minimal_triangulation(q)
    elif q.n == g.n:
        fill, meo = [0] * q.n, peo
    else:
        raise ValueError("an elimination order is read only on a twin-free graph")
    filled = mask_of(v for v, row in enumerate(fill) if row)  # vertices with fill
    madj = [0] * q.n
    later = 0
    for x in reversed(meo):
        madj[x] = (q.adj[x] | fill[x]) & later
        later |= 1 << x
    out = []
    rem = q.all_mask
    for x, prev in zip(meo, meo[1:]):
        s = madj[x]
        if not rem >> x & 1 or s.bit_count() > madj[prev].bit_count():
            continue
        # s is a clique of the triangulation: of q iff it holds no fill edge
        if any(fill[u] & s for u in bits(s & filled)):
            continue
        c = q.component_of(x, rem & ~s)
        if c | s == rem:
            continue
        rem &= ~c
        out.append((lifted(s), lifted(c | s)))
    out.append((0, lifted(rem)))
    return out


def has_clique_cutset(g: Graph):
    """Find a clique cut-partition, or None when the graph is an atom.

    Returns (cutset, side_a, side_b) as vertex masks, side_a being one
    component of the graph minus the cutset; for a disconnected graph
    the cutset may be empty.
    """
    pairs = atoms(g)
    if len(pairs) == 1:
        return None
    s, atom = pairs[0]
    return (s, atom & ~s, g.all_mask & ~atom)


@dataclass
class Leaf:
    graph: Graph  # induced subgraph whose vmap points at the root graph
    mask: int  # vertex mask in root ids

    def leaves(self):
        yield self


@dataclass
class Node:
    cutset: int  # root-id mask; clique separating the children
    left: Leaf
    right: "Leaf | Node"
    mask: int

    def leaves(self):
        node = self
        while isinstance(node, Node):
            yield node.left
            node = node.right
        yield node


def decompose(root: Graph):
    """Binary clique-cutset decomposition tree with atom leaves, built
    from ``atoms(root)``.

    The left child of every internal node is a leaf holding an atom; the
    right child carries the remainder (including the cutset) and is
    decomposed in turn.  Only the leaves are induced subgraphs.  The empty
    graph is one empty leaf.
    """
    pairs = atoms(root)
    last = pairs[-1][1]
    node = Leaf(root.induced(last), last)
    for s, atom in reversed(pairs[:-1]):
        node = Node(s, Leaf(root.induced(atom), atom), node, atom | node.mask)
    return node


def tree_violations(root: Graph, pairs, copies=None) -> list[str]:
    """Structural checks of an atom list, the (cutset, atom) masks of
    ``atoms(root)`` or of a certify walk; empty list means valid.

    Each split takes a remainder (all of root at first) and splits off
    the atom's side, the atom minus its cutset: the atom must lie in the
    remainder, its cutset be a clique that separates that side from the
    rest, and neither part be empty.  The last pair is (0, the final
    remainder).  Every atom must be a clique or have no clique cutset,
    tested on ``copies[i]`` if that is given and not None (a certify
    walk's copy of the atom in the twin quotient, which may be the
    atom's core, the atom without a universal vertex: such a vertex
    neither makes nor breaks a clique cutset), else on a new copy.
    Every vertex and edge of root must lie in some atom.
    """
    out = []
    rem = root.all_mask
    for s, atom in pairs[:-1]:
        side = atom & ~s
        if atom & ~rem or s & ~atom:
            out.append("atom and cutset do not nest in the remainder")
        if not root.is_clique(s):
            out.append(f"cutset {sorted(bits(s))} is not a clique")
        rem &= ~side
        if not root.is_anticomplete_to(side, rem & ~s):
            out.append("cutset does not separate its atom from the rest")
        if not side or not rem & ~s:
            out.append("degenerate split")
    if pairs[-1] != (0, rem):
        out.append("the last atom is not the remainder")
    for (_s, atom), sub in zip(pairs, copies or [None] * len(pairs), strict=True):
        if not root.is_clique(atom) and has_clique_cutset(sub or root.induced(atom)):
            out.append(f"atom {sorted(bits(atom))} has a clique cutset")
    # seen[u]: union of the atoms containing u; it must hold all of N[u]
    seen = [0] * root.n
    for _s, atom in pairs:
        for u in bits(atom):
            seen[u] |= atom
    if not all(seen):
        out.append("atoms do not cover the graph")
    if any(root.adj[u] & ~seen[u] for u in range(root.n)):
        out.append("some edge appears in no atom")
    # every split removes at least one vertex from the remainder; with
    # empty cutsets (disconnected graphs) there can be up to n atoms
    if len(pairs) > max(1, root.n):
        out.append(f"too many atoms: {len(pairs)}")
    return out


def merge_colorings(root: Graph, pairs, colorings) -> list[int]:
    """Combine per-atom proper colorings into one proper coloring of root.

    *pairs* is the list of ``atoms(root)``; ``colorings[i]`` lists the
    1-based colors of atom i's vertices in ascending id order, or is None
    if atom i is a clique.  The atoms are colored from last to first.
    Atom i meets the atoms after it only in its cutset, which is then
    colored already; the cutset is a clique, so its colors are distinct
    on both sides, and atom i's colors are permuted to agree there.  Its
    other colors go to the colors unused on the cutset, in ascending
    order; a clique atom's other vertices take them in id order.  An
    atom's vertices are read off its mask in one scan
    (``graph._picked``), as a split member may have many atoms, each a
    large clique.
    """
    color, ids = [0] * root.n, range(root.n)
    for (s, atom), cols in zip(reversed(pairs), reversed(colorings)):
        used = set(_picked(s, 0, color))
        if len(used) != s.bit_count():
            raise ValueError("inconsistent cutset colors")
        free = (c for c in count(1) if c not in used)
        if cols is None:
            for v, c in zip(_picked(atom & ~s, 0, ids), free):
                color[v] = c
            continue
        verts = list(_picked(atom, 0, ids))
        perm = {c: color[v] for v, c in zip(verts, cols) if s >> v & 1}
        if len(perm) != len(used):
            raise ValueError("inconsistent cutset colors")
        perm.update(zip(sorted(set(cols) - perm.keys()), free))
        for v, c in zip(verts, cols):
            color[v] = perm[c]
    return color
