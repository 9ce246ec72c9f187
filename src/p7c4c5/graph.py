"""Immutable undirected graphs over vertex ids 0..n-1 with bitset adjacency.

Vertex sets are plain Python ints used as bitmasks, which keeps the
(anti)completeness tests that dominate this package down to single big-int
operations.  Graphs derived from other graphs (induced subgraphs) carry a
``vmap`` tuple translating their local ids back to the parent's ids.
"""

from __future__ import annotations

import io


class GraphError(ValueError):
    """Raised for malformed graph constructions (bad edges, bad formats)."""


def mask_of(vertices) -> int:
    """Bitmask with one bit set per vertex id in the iterable."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Yield the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


class Graph:
    """A finite simple undirected graph.

    Attributes
    ----------
    n : number of vertices (ids are 0..n-1)
    adj : tuple of int bitmasks; ``adj[v]`` is the open neighborhood of v
    vmap : tuple mapping local ids to the ids of the graph this one was
        induced from, or None for a root graph
    """

    __slots__ = ("n", "adj", "vmap", "_edges")

    def __init__(self, n: int, adj: tuple[int, ...], vmap=None):
        self.n = n
        self.adj = adj
        self.vmap = vmap
        self._edges = None

    # -- construction -------------------------------------------------

    @staticmethod
    def build(n: int, edges) -> "Graph":
        """Build a graph from an edge list; rejects loops and bad ids."""
        rows = [0] * n
        for (u, v) in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    # -- basic queries -------------------------------------------------

    @property
    def all_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed(self, v: int) -> int:
        """Closed neighborhood N[v] as a bitmask."""
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        if self._edges is None:
            out = []
            for u in range(self.n):
                rest = self.adj[u] >> (u + 1) << (u + 1)
                for v in bits(rest):
                    out.append((u, v))
            self._edges = out
        return list(self._edges)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_clique(self, s: int) -> bool:
        for v in bits(s):
            if s & ~self.closed(v):
                return False
        return True

    def is_stable(self, s: int) -> bool:
        for v in bits(s):
            if self.adj[v] & s:
                return False
        return True

    def is_complete_to(self, a: int, b: int) -> bool:
        """Every vertex of mask *a* adjacent to every vertex of mask *b*."""
        for v in bits(a):
            if b & ~self.adj[v] & ~(1 << v):
                return False
        return True

    def is_anticomplete_to(self, a: int, b: int) -> bool:
        for v in bits(a):
            if b & self.adj[v]:
                return False
        return True

    # -- derived graphs ------------------------------------------------

    def induced(self, s: int) -> "Graph":
        """Induced subgraph on the vertex mask *s*, with a map back to self."""
        if s == self.all_mask:
            return Graph(self.n, self.adj, vmap=tuple(range(self.n)))
        verts = bit_list(s)
        pos = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            row = 0
            for u in bits(self.adj[v] & s):
                row |= 1 << pos[u]
            rows.append(row)
        return Graph(len(verts), tuple(rows), vmap=tuple(verts))

    def complement(self) -> "Graph":
        full = self.all_mask
        rows = tuple(full & ~self.closed(v) for v in range(self.n))
        return Graph(self.n, rows)

    # -- connectivity --------------------------------------------------

    def components(self, within: int | None = None) -> list[int]:
        """Connected components (as bitmasks) of the graph induced on *within*.

        Components are ordered by their least vertex.
        """
        rest = self.all_mask if within is None else within
        out = []
        while rest:
            comp = self.component_of((rest & -rest).bit_length() - 1, rest)
            out.append(comp)
            rest &= ~comp
        return out

    def component_of(self, v: int, within: int) -> int:
        """Component containing v of the graph induced on *within* (v in it)."""
        comp = frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= self.adj[u]
            frontier = nxt & within & ~comp
            comp |= frontier
        return comp

    def anticomponents(self) -> list[int]:
        """Components of the complement, largest first (ties by least vertex)."""
        comps = self.complement().components()
        comps.sort(key=lambda c: (-c.bit_count(), c & -c))
        return comps

    # -- twins and universal vertices ---------------------------------

    def twin_classes(self) -> list[list[int]]:
        """Classes of equal closed neighborhood (true twins): sorted vertex
        lists, ordered by least member."""
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(self.closed(v), []).append(v)
        return sorted(groups.values(), key=lambda c: c[0])

    def twin_decomposition(self):
        """Returns (classes, skeleton, class_of): ``twin_classes()``, the
        graph induced on the least member of each class, and the class
        index of each vertex."""
        classes = self.twin_classes()
        class_of = [0] * self.n
        for i, cls in enumerate(classes):
            for v in cls:
                class_of[v] = i
        skeleton = self.induced(mask_of(c[0] for c in classes))
        return classes, skeleton, class_of

    def universal_mask(self) -> int:
        full = self.all_mask
        return mask_of(v for v in range(self.n) if self.closed(v) == full)

    def universal_clique_peel(self):
        """Split vertices into (universal clique mask, core mask)."""
        u = self.universal_mask()
        return u, self.all_mask & ~u

    # -- misc ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# -- DIMACS-like text format ------------------------------------------


def read_dimacs(text: str) -> Graph:
    """Parse ``p edge n m`` / ``e u v`` lines (1-based ids, ``c`` comments).

    Rejects, naming the line, a non-integer field, a negative vertex
    count, a loop, a header edge count that differs from the number of
    ``e`` lines, and an edge given twice in either orientation.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphError(f"line {lineno}: malformed problem line")
            (n, m), header = _ints(parts[2:], lineno), lineno
            if n < 0:
                raise GraphError(f"line {lineno}: negative vertex count {n}")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: malformed edge line")
            u, v = _ints(parts[1:], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"line {lineno}: edge endpoint out of range")
            if u == v:
                raise GraphError(f"line {lineno}: loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing problem line")
    if m != len(edges):
        raise GraphError(f"line {header}: header declares {m} edges, found {len(edges)}")
    g = Graph.build(n, edges)
    if sum(row.bit_count() for row in g.adj) != 2 * len(edges):
        raise GraphError(_repeated_edge(text))
    return g


def _ints(fields, lineno: int) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise GraphError(f"line {lineno}: non-integer field") from None


def _repeated_edge(text: str) -> str:
    """Error message naming the first ``e`` line that repeats an edge."""
    seen = set()
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        parts = raw.split()
        if parts and parts[0] == "e":
            u, v = sorted(int(x) for x in parts[1:])
            if (u, v) in seen:
                return f"line {lineno}: repeated edge {u} {v}"
            seen.add((u, v))
    raise AssertionError("no repeated edge")


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    for (u, v) in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
