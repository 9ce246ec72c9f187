"""Immutable undirected graphs over vertex ids 0..n-1 with bitset adjacency.

Vertex sets are plain Python ints used as bitmasks, which keeps the
(anti)completeness tests that dominate this package down to single big-int
operations.  Graphs derived from other graphs (induced subgraphs) carry a
``vmap`` tuple translating their local ids back to the parent's ids.
"""

from __future__ import annotations

import io
from itertools import compress, repeat


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


# bin() digits to 0/1 flags for itertools.compress
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _picked(mask: int, first: int, items):
    """``items[first + i]`` for each set bit i of *mask*, in increasing i."""
    width = mask.bit_length()
    if mask.bit_count() * 32 < width:  # sparse for its width: visit the bits
        return [items[first + i] for i in bits(mask)]
    # one bin() scan; its digits run from bit width-1 down to bit 0
    flags = bin(mask)[:1:-1].encode().translate(_FLAGS)
    return compress(items[first:first + width], flags)


class Graph:
    """A finite simple undirected graph.

    Attributes
    ----------
    n : number of vertices (ids are 0..n-1)
    adj : tuple of int bitmasks; ``adj[v]`` is the open neighborhood of v
    vmap : tuple mapping local ids to the ids of the graph this one was
        induced from, or None for a root graph
    """

    __slots__ = ("n", "adj", "vmap", "_edges", "_twin_free")

    def __init__(self, n: int, adj: tuple[int, ...], vmap=None):
        self.n = n
        self.adj = adj
        self.vmap = vmap
        self._edges = None
        self._twin_free = False  # set on a skeleton of twin_decomposition

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

    def closed(self, v: int) -> int:
        """Closed neighborhood N[v] as a bitmask."""
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        if self._edges is None:
            ids = list(range(self.n))
            out = []
            for u, row in enumerate(self.adj):
                if upper := row >> (u + 1):
                    out.extend(zip(repeat(u), _picked(upper, u + 1, ids)))
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

    # -- twins ---------------------------------------------------------

    def twin_classes(self, within: int | None = None) -> list[list[int]]:
        """Classes of equal closed neighborhood (true twins) of the graph
        induced on *within* (every vertex by default): sorted vertex lists,
        ordered by least member.  The whole graph is grouped in one pass
        over its rows, and a skeleton of ``twin_decomposition`` is not
        grouped at all: its classes are its vertices."""
        groups: dict[int, list[int]] = {}
        if within is None:
            if self._twin_free:
                return [[v] for v in range(self.n)]
            for v, row in enumerate(self.adj):
                groups.setdefault(row | 1 << v, []).append(v)
        else:
            for v in bits(within):
                groups.setdefault(self.closed(v) & within, []).append(v)
        return list(groups.values())  # a class is met first at its least member

    def twin_decomposition(self):
        """Returns (classes, skeleton, class_of): ``twin_classes()``, the
        graph induced on the least member of each class, and the class
        index of each vertex.  The skeleton is twin-free and known to be:
        it is its own quotient, so its own ``twin_decomposition`` groups
        nothing."""
        classes = self.twin_classes()
        class_of, reps = [0] * self.n, 0
        for i, cls in enumerate(classes):
            reps |= 1 << cls[0]
            for v in cls:
                class_of[v] = i
        skeleton = self.induced(reps)
        skeleton._twin_free = True
        return classes, skeleton, class_of

    # -- misc ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# -- DIMACS-like text format ------------------------------------------

# after the problem line, read_dimacs walks the text in chunks of whole
# lines of about this many characters; a chunk of plain edge records is
# parsed in bulk.
CHUNK_CHARS = 1 << 16


def read_dimacs(text: str) -> Graph:
    """Parse ``p edge n m`` / ``e u v`` lines (1-based ids, ``c`` comments).

    Rejects, naming the line, a non-integer field, a negative vertex
    count, a loop, a header edge count that differs from the number of
    ``e`` lines, and an edge given twice in either orientation.
    """
    reader = _DimacsReader()
    lineno, start = 1, 0
    while start < len(text):
        # up to the problem line, one line at a time: what follows it in
        # the same chunk can then go in bulk
        reach = CHUNK_CHARS - 1 if reader.rows is not None else 0
        end = text.find("\n", start + reach) + 1 or len(text)
        chunk = text[start:end]
        if not reader.bulk(chunk):
            reader.walk(chunk, lineno)
        lineno += chunk.count("\n")
        start = end
    return reader.graph()


class _DimacsReader:
    """One parse in progress: the problem line and the rows read so far."""

    def __init__(self):
        self.rows = None
        self.edges = 0

    def walk(self, chunk: str, lineno: int) -> None:
        """Parse *chunk* line by line, its first line being *lineno*."""
        rows = self.rows
        for lineno, raw in enumerate(io.StringIO(chunk), start=lineno):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if rows is not None:
                    raise GraphError(f"line {lineno}: duplicate problem line")
                if len(parts) != 4 or parts[1] != "edge":
                    raise GraphError(f"line {lineno}: malformed problem line")
                (n, m), header = _ints(parts[2:], lineno), lineno
                if n < 0:
                    raise GraphError(f"line {lineno}: negative vertex count {n}")
                self.n, self.m, self.header = n, m, header
                self.rows = rows = [0] * n
            elif parts[0] == "e":
                if rows is None:
                    raise GraphError(f"line {lineno}: edge before problem line")
                if len(parts) != 3:
                    raise GraphError(f"line {lineno}: malformed edge line")
                u, v = _ints(parts[1:], lineno)
                if not (1 <= u <= self.n and 1 <= v <= self.n):
                    raise GraphError(f"line {lineno}: edge endpoint out of range")
                if u == v:
                    raise GraphError(f"line {lineno}: loop at vertex {u}")
                vbit = 1 << (v - 1)
                if rows[u - 1] & vbit:
                    raise GraphError(f"line {lineno}: repeated edge {min(u, v)} {max(u, v)}")
                rows[u - 1] |= vbit
                rows[v - 1] |= 1 << (u - 1)
                self.edges += 1
            else:
                raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")

    def bulk(self, chunk: str) -> bool:
        """Add the k edges of *chunk* at once if it is exactly k lines
        ``e u v`` that the walk would accept; else change nothing and
        return False."""
        rows = self.rows
        if rows is None:
            return False
        tokens = chunk.split()
        k = len(tokens) // 3
        # every line starts with "e", the chunk has no other "e" and every
        # third token is "e": each line is one record "e u v"
        if (len(tokens) != 3 * k or tokens[::3].count("e") != k
                or chunk.count("e") != k
                or chunk.count("\ne") + chunk.startswith("e") != k
                or chunk.count("\n") + (not chunk.endswith("\n")) != k):
            return False
        us, vs = tokens[1::3], tokens[2::3]
        ids = set(us)
        ids.update(vs)
        try:  # each distinct id string is converted once, to a 0-based id
            index = {s: int(s) - 1 for s in ids}
        except ValueError:
            return False
        if min(index.values()) < 0 or max(index.values()) >= self.n:
            return False
        touched = list(set(index.values()))
        saved = list(map(rows.__getitem__, touched))
        for u, v in zip(map(index.__getitem__, us), map(index.__getitem__, vs)):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        # a record adds two bits unless it is a loop or repeats an edge
        added = (sum(map(int.bit_count, map(rows.__getitem__, touched)))
                 - sum(map(int.bit_count, saved)))
        if added != 2 * k:
            for i, row in zip(touched, saved):
                rows[i] = row
            return False
        self.edges += k
        return True

    def graph(self) -> Graph:
        if self.rows is None:
            raise GraphError("missing problem line")
        if self.m != self.edges:
            raise GraphError(
                f"line {self.header}: header declares {self.m} edges, found {self.edges}")
        return Graph(self.n, tuple(self.rows))


def _ints(fields, lineno: int) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise GraphError(f"line {lineno}: non-integer field") from None


def write_dimacs(g: Graph) -> str:
    names = [str(v) for v in range(1, g.n + 1)]
    out = [f"p edge {g.n} {g.m}\n"]
    for u, row in enumerate(g.adj):
        if upper := row >> (u + 1):
            head = "e " + names[u] + " "
            out += (head, ("\n" + head).join(_picked(upper, u + 1, names)), "\n")
    return "".join(out)
