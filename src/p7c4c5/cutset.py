"""Clique-cutset decomposition into atoms.

A clique cutset splits the vertex set into (A, B, K) with K a clique,
A and B nonempty and anticomplete to each other.  One routine, ``atoms``,
finds every cut, with no size cap, and returns the atoms as a list of
(cutset, atom) vertex masks of the input graph.  All three solvers walk
that list, with no tree; ``has_clique_cutset`` reads its first split,
and ``decompose`` builds the binary tree from it for the CLI's
``decompose`` and ``verify`` and for ``tree_violations``.  It works on
the true-twin quotient (one vertex per class of equal closed
neighborhoods): a clique minimal separator never splits a twin class,
so the atoms of the quotient lift exactly to the atoms of the graph.

On the quotient, one MCS-M pass (``minimal_triangulation``) gives a
minimal triangulation H and its elimination order.  Every clique minimal
separator of G is madj(x), the set of later neighbors of x in H, for
some generator x: a vertex whose madj is no larger than that of the
vertex numbered just before it.  Walking the order, each generator x
still in the remainder whose madj(x) is a clique splits off the atom
C + madj(x), C being x's component in the remainder minus madj(x)
(Berry, Pogorelcnik & Simonet, "An introduction to clique minimal
separator decomposition", Algorithms 2010).  Every step removes C from
the remainder, so there are at most n atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .chordal import minimal_triangulation
from .graph import Graph, bits, mask_of


def atoms(g: Graph) -> list[tuple[int, int]]:
    """The atoms of g as (cutset, atom) masks, in the order they split off.

    ``atom & ~cutset`` is a component of the current remainder minus
    *cutset*, a clique; the next remainder is the current one minus that
    component, so an atom meets the atoms after it only in its cutset.
    The last pair is (0, the atom left after the last split).
    """
    classes, q, _ = g.twin_decomposition()
    lift = [mask_of(c) for c in classes]

    def lifted(mask):
        out = 0
        for i in bits(mask):
            out |= lift[i]
        return out

    fill, meo = minimal_triangulation(q)
    adj_f = list(q.adj)
    for (u, v) in fill:
        adj_f[u] |= 1 << v
        adj_f[v] |= 1 << u
    madj = [0] * q.n
    later = 0
    for x in reversed(meo):
        madj[x] = adj_f[x] & later
        later |= 1 << x
    out = []
    rem = q.all_mask
    for x, prev in zip(meo, meo[1:]):
        s = madj[x]
        if not rem >> x & 1 or s.bit_count() > madj[prev].bit_count():
            continue
        if not q.is_clique(s):
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
        nodes, last = spine(self)
        for node in nodes:
            yield node.left
        yield last


def spine(tree):
    """The internal nodes of a decomposition tree, from the root down the
    right children, and the leaf that ends them."""
    nodes = []
    while isinstance(tree, Node):
        nodes.append(tree)
        tree = tree.right
    return nodes, tree


def decompose(root: Graph):
    """Binary clique-cutset decomposition tree with atom leaves.

    The left child of every internal node is a leaf holding an atom; the
    right child carries the remainder (including the cutset) and is
    decomposed in turn.  Only the leaves are induced subgraphs.  Walks
    over the tree follow this right spine in a loop (``spine``), so the
    tree may be deeper than the recursion limit.  The empty graph is one
    empty leaf.
    """
    pairs = atoms(root)
    last = pairs[-1][1]
    node = Leaf(root.induced(last), last)
    for s, atom in reversed(pairs[:-1]):
        node = Node(s, Leaf(root.induced(atom), atom), node, atom | node.mask)
    return node


def tree_violations(root: Graph, tree) -> list[str]:
    """Structural checks of a decomposition tree; empty list means valid."""
    out = []
    for node in spine(tree)[0]:
        s, l, r = node.cutset, node.left.mask, node.right.mask
        if (l | r) != node.mask or (l & r) != s:
            out.append("child masks do not tile the node")
        if not root.is_clique(s):
            out.append(f"cutset {sorted(bits(s))} is not a clique")
        if not root.is_anticomplete_to(l & ~s, r & ~s):
            out.append("cutset does not separate the children")
        if not (l & ~s) or not (r & ~s):
            out.append("degenerate split")
    leaf_masks = []
    for leaf in tree.leaves():
        leaf_masks.append(leaf.mask)
        if has_clique_cutset(leaf.graph) is not None:
            out.append(f"leaf {sorted(bits(leaf.mask))} is not an atom")
    # seen[u]: union of the leaves containing u; it must hold all of N[u]
    seen = [0] * root.n
    for m in leaf_masks:
        for u in bits(m):
            seen[u] |= m
    if not all(seen):
        out.append("leaves do not cover the graph")
    if any(root.adj[u] & ~seen[u] for u in range(root.n)):
        out.append("some edge appears in no leaf")
    # every split removes at least one vertex from the remainder; with
    # empty cutsets (disconnected graphs) there can be up to n leaves
    if len(leaf_masks) > max(1, root.n):
        out.append(f"too many leaves: {len(leaf_masks)}")
    return out


def merge_colorings(root: Graph, pairs, colorings) -> list[int]:
    """Combine per-atom proper colorings into one proper coloring of root.

    *pairs* is the list of ``atoms(root)``; ``colorings[i]`` lists the
    1-based colors of atom i's vertices in ascending id order.  The atoms
    are colored from last to first.  Atom i meets the atoms after it only
    in its cutset, which is then colored already; the cutset is a clique,
    so its colors are distinct on both sides, and atom i's colors are
    permuted to agree there.  Its other colors go to the colors unused on
    the cutset, in ascending order.
    """
    color = [0] * root.n
    for (s, atom), cols in zip(reversed(pairs), reversed(colorings)):
        perm = {c: color[v] for v, c in zip(bits(atom), cols) if s >> v & 1}
        used = set(perm.values())
        if not len(perm) == len(used) == s.bit_count():
            raise ValueError("inconsistent cutset colors")
        free = (c for c in count(1) if c not in used)
        perm.update(zip(sorted(set(cols) - perm.keys()), free))
        for v, c in zip(bits(atom), cols):
            color[v] = perm[c]
    return color
