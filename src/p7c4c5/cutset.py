"""Clique-cutset decomposition into atoms.

A clique cutset splits the vertex set into (A, B, K) with K a clique,
A and B nonempty and anticomplete to each other.  One routine finds every
cut, for ``decompose`` and ``has_clique_cutset`` alike, with no size cap.
It works on the true-twin quotient (one vertex per class of equal closed
neighborhoods): a clique minimal separator never splits a twin class, so
the atoms of the quotient lift exactly to the atoms of the graph.

On the quotient, one MCS-M pass (``minimal_triangulation``) gives a
minimal triangulation H and its elimination order.  Every clique minimal
separator of G is madj(x), the set of later neighbors of x in H, for
some generator x: a vertex whose madj is no larger than that of the
vertex numbered just before it.  Walking the order, each generator x
still in the remainder whose madj(x) is a clique splits off the atom
C + madj(x), C being x's component in the remainder minus madj(x)
(Berry, Pogorelcnik & Simonet, "An introduction to clique minimal
separator decomposition", Algorithms 2010).  Every step removes C from
the remainder, so the tree has at most n leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chordal import minimal_triangulation
from .graph import Graph, bits, mask_of


def _clique_splits(g: Graph):
    """Yield (cutset, side) masks of g, one per atom split off in turn.

    *side* is a component of the current remainder minus *cutset*; the
    next remainder is the current one minus *side*, and what is left
    after the last split is an atom.
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
        yield lifted(s), lifted(c)


def has_clique_cutset(g: Graph):
    """Find a clique cut-partition, or None when the graph is an atom.

    Returns (cutset, side_a, side_b) as vertex masks, side_a being one
    component of the graph minus the cutset; for a disconnected graph
    the cutset may be empty.
    """
    for s, c in _clique_splits(g):
        return (s, c, g.all_mask & ~(c | s))
    return None


@dataclass
class Leaf:
    graph: Graph  # induced subgraph whose vmap points at the root graph
    mask: int  # vertex mask in root ids

    def leaves(self):
        yield self


@dataclass
class Node:
    cutset: int  # root-id mask; clique separating the children
    left: "Leaf | Node"
    right: "Leaf | Node"
    mask: int

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()


def decompose(root: Graph):
    """Binary clique-cutset decomposition tree with atom leaves.

    The left child of every internal node is a leaf holding an atom; the
    right child carries the remainder (including the cutset) and is
    decomposed in turn.  Only the leaves are induced subgraphs.
    """
    if root.n == 0:
        raise ValueError("cannot decompose the empty graph")
    splits = []
    rem = root.all_mask
    for s, c in _clique_splits(root):
        splits.append((s, c, rem))
        rem &= ~c
    node = Leaf(root.induced(rem), rem)
    for s, c, mask in reversed(splits):
        node = Node(s, Leaf(root.induced(c | s), c | s), node, mask)
    return node


def tree_violations(root: Graph, tree) -> list[str]:
    """Structural checks of a decomposition tree; empty list means valid."""
    out = []
    leaf_masks = []

    def walk(node):
        if isinstance(node, Leaf):
            leaf_masks.append(node.mask)
            if has_clique_cutset(node.graph) is not None:
                out.append(f"leaf {sorted(bits(node.mask))} is not an atom")
            return
        s, l, r = node.cutset, node.left.mask, node.right.mask
        if (l | r) != node.mask or (l & r) != s:
            out.append("child masks do not tile the node")
        if not root.is_clique(s):
            out.append(f"cutset {sorted(bits(s))} is not a clique")
        if not root.is_anticomplete_to(l & ~s, r & ~s):
            out.append("cutset does not separate the children")
        if not (l & ~s) or not (r & ~s):
            out.append("degenerate split")
        walk(node.left)
        walk(node.right)

    walk(tree)
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


def merge_colorings(root: Graph, tree, leaf_colorings) -> list[int]:
    """Combine per-leaf proper colorings into one proper coloring of root.

    ``leaf_colorings`` maps id(leaf) -> list of 1-based colors indexed by
    the leaf graph's local ids.  At each internal node the right child's
    colors are permuted to agree with the left child on the cutset (the
    cutset is a clique, so its colors are distinct on both sides); unused
    colors are matched up in ascending order.
    """
    k = 0
    for leaf in tree.leaves():
        k = max(k, max(leaf_colorings[id(leaf)], default=0))

    def solve(node) -> dict[int, int]:
        if isinstance(node, Leaf):
            cols = leaf_colorings[id(node)]
            return {node.graph.vmap[v]: cols[v] for v in range(node.graph.n)}
        lcol = solve(node.left)
        rcol = solve(node.right)
        perm = {}
        used_target = set()
        for v in sorted(bits(node.cutset)):
            src, dst = rcol[v], lcol[v]
            if perm.get(src, dst) != dst or (dst in used_target and perm.get(src) != dst):
                raise ValueError("inconsistent cutset colors")
            if src not in perm:
                perm[src] = dst
                used_target.add(dst)
        free_targets = [c for c in range(1, k + 1) if c not in used_target]
        it = iter(free_targets)
        for c in range(1, k + 1):
            if c not in perm:
                perm[c] = next(it)
        merged = dict(lcol)
        for v, c in rcol.items():
            merged[v] = perm[c]
        # cutset vertices got identical colors from both sides
        return merged

    full = solve(tree)
    return [full[v] for v in range(root.n)]
