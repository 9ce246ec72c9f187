import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blow_up, complete, cycle, random_graph
from p7c4c5 import forge, graph
from p7c4c5.graph import (
    Graph,
    GraphError,
    bit_list,
    bits,
    mask_of,
    read_dimacs,
    write_dimacs,
)


def test_build_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.build(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.build(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.build(2, [(-1, 0)])


def test_basic_accessors():
    g = Graph.build(4, [(0, 1), (1, 2), (1, 2)])
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.adj[1].bit_count() == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert bit_list(g.closed(1)) == [0, 1, 2]


def test_clique_and_stable_checks():
    g = complete(4)
    assert g.is_clique(g.all_mask)
    assert not g.is_stable(mask_of([0, 1]))
    h = Graph.build(4, [])
    assert h.is_stable(h.all_mask)


def test_induced_and_vmap():
    g = cycle(5)
    sub = g.induced(mask_of([0, 1, 3]))
    assert sub.n == 3
    assert sub.edges() == [(0, 1)]
    assert [sub.vmap[v] for v in range(3)] == [0, 1, 3]
    same = g.induced(g.all_mask)
    assert same == g and same.vmap == tuple(range(5))


def test_components():
    g = Graph.build(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert len(comps) == 3
    assert comps[0] == mask_of([0, 1])


def test_twin_decomposition_groups_true_twins():
    # blow-up of a path a-b-c into cliques {0,1}, {2,3}, {4}
    g = Graph.build(5, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3),
                        (2, 4), (3, 4)])
    classes, sk, class_of = g.twin_decomposition()
    assert sorted(sorted(c) for c in classes) == [[0, 1], [2, 3], [4]]
    assert sk.n == 3 and sk.m == 2
    assert class_of[0] == class_of[1] and class_of[2] == class_of[3]
    assert class_of[0] != class_of[4]


def test_twin_classes_of_the_whole_graph_match_the_masked_pass():
    # the whole graph is grouped in one pass over its rows; on every mask
    # the classes come from closed rows cut down to the mask
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        if rng.random() < 0.5:
            g = blow_up(g, [rng.randint(1, 3) for _ in range(g.n)])
        assert g.twin_classes() == g.twin_classes(g.all_mask)


def test_a_skeleton_is_its_own_quotient():
    g = blow_up(Graph.build(4, [(0, 1), (1, 2), (2, 3)]), [2, 1, 3, 2])
    classes, sk, class_of = g.twin_decomposition()
    assert [len(c) for c in classes] == [2, 1, 3, 2] and sk.n == 4
    assert sk.twin_classes() == sk.twin_classes(sk.all_mask) == [[0], [1], [2], [3]]
    assert sk.twin_decomposition()[1:] == (sk, [0, 1, 2, 3])
    # the classes come from knowing the skeleton twin-free, not from a
    # second pass over its rows
    sk.adj = None
    assert sk.twin_classes() == [[0], [1], [2], [3]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**30))
def test_dimacs_round_trip(n, seed):
    g = random_graph(random.Random(seed), n, 0.4)
    assert read_dimacs(write_dimacs(g)) == g


def test_dimacs_errors():
    with pytest.raises(GraphError):
        read_dimacs("e 1 2\n")
    with pytest.raises(GraphError):
        read_dimacs("p edge 2 1\ne 1 3\n")
    with pytest.raises(GraphError):
        read_dimacs("p edge 2 0\np edge 2 0\n")


def test_dimacs_rejects_negative_vertex_count():
    with pytest.raises(GraphError, match="line 2: negative vertex count"):
        read_dimacs("c comment\np edge -3 0\n")


def test_dimacs_rejects_wrong_header_edge_count():
    with pytest.raises(GraphError, match="line 1: header declares 7 edges, found 2"):
        read_dimacs("p edge 3 7\ne 1 2\ne 2 3\n")
    with pytest.raises(GraphError, match="line 1: header declares 1 edges, found 2"):
        read_dimacs("p edge 3 1\ne 1 2\ne 2 3\n")


def test_dimacs_rejects_repeated_edge():
    with pytest.raises(GraphError, match="line 4: repeated edge 1 2"):
        read_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 2\n")
    with pytest.raises(GraphError, match="line 3: repeated edge 2 3"):
        read_dimacs("p edge 3 3\ne 2 3\ne 3 2\ne 1 2\n")


def test_bits_round_trip():
    m = mask_of([0, 5, 63, 200])
    assert list(bits(m)) == [0, 5, 63, 200]


# -- the DIMACS reader: every case is parsed with chunks from one line up
# to a few lines, of the default size and of the whole text, which must
# all agree

CHUNKS = (*range(1, 40), graph.CHUNK_CHARS, 1 << 40)


def parse_with(text, chunk):
    """read_dimacs(text) with the chunk size set to *chunk*: the graph, or
    the message of the GraphError it raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "CHUNK_CHARS", chunk)
        try:
            return read_dimacs(text)
        except GraphError as exc:
            return str(exc)


DIMACS_ACCEPTED = [
    # comments and blank lines between edges
    ("c head\np edge 3 2\ne 1 2\nc e 1 2\n\n   \ne 2 3\n", 3, [(0, 1), (1, 2)]),
    # CRLF line ends, tabs and leading spaces
    ("p edge 3 2\r\ne 1 2\r\ne 3 2\r\n", 3, [(0, 1), (1, 2)]),
    ("p\tedge 3 2\n  e 1\t2\n\t e\t2  3  \n", 3, [(0, 1), (1, 2)]),
    # any whitespace of str.split separates fields within a line
    ("p edge 3 2\ne\x0b1 2\ne 2\x1c3\n", 3, [(0, 1), (1, 2)]),
    ("p edge 3 2\ne 1\xa02\ne\u20032 3\x85\n", 3, [(0, 1), (1, 2)]),
    # signed and zero-padded ids are integers
    ("p edge 3 2\ne +1 02\ne 03 +2\n", 3, [(0, 1), (1, 2)]),
    ("p edge 2 1\ne 1 2", 2, [(0, 1)]),
    ("p edge 0 0\n", 0, []),
    ("p edge 4 0\n\n", 4, []),
]

DIMACS_REJECTED = [
    ("", "missing problem line"),
    ("c only a comment\n", "missing problem line"),
    ("e 1 2\np edge 2 1\n", "line 1: edge before problem line"),
    ("p edge 2 0\np edge 2 0\n", "line 2: duplicate problem line"),
    ("p edge 2\n", "line 1: malformed problem line"),
    ("p edges 2 0\n", "line 1: malformed problem line"),
    ("p edge 2 x\n", "line 1: non-integer field"),
    ("c\np edge -3 0\n", "line 2: negative vertex count -3"),
    # two records on one line, next to a blank line
    ("p edge 4 2\ne 1 2 e 3 4\n\n", "line 2: malformed edge line"),
    ("p edge 4 2\n\ne 1 2 e 3 4\n", "line 3: malformed edge line"),
    # only \n ends a line
    ("p edge 3 2\ne 1 2\re 2 3\n", "line 2: malformed edge line"),
    ("p edge 3 2\ne 1 2\x85e 2 3\n", "line 2: malformed edge line"),
    # edge lines with 2 or 4 fields, a non-integer id
    ("p edge 3 1\ne 1\n", "line 2: malformed edge line"),
    ("p edge 3 1\ne 1 2 3\n", "line 2: malformed edge line"),
    ("p edge 3 1\ne 1 x\n", "line 2: non-integer field"),
    ("p edge 3 1\ne 1 2.0\n", "line 2: non-integer field"),
    # ids 0 and n + 1
    ("p edge 3 1\ne 0 1\n", "line 2: edge endpoint out of range"),
    ("p edge 3 1\ne 1 4\n", "line 2: edge endpoint out of range"),
    ("p edge 3 1\ne 2 +2\n", "line 2: loop at vertex 2"),
    ("p edge 3 2\ne 1 2\ne 02 1\n", "line 3: repeated edge 1 2"),
    ("p edge 3 7\ne 1 2\ne 2 3\n", "line 1: header declares 7 edges, found 2"),
    ("p edge 3 2\ne 1 2\nE 2 3\n", "line 3: unknown record 'E'"),
    ("p edge 3 1\ne1 2\n", "line 2: unknown record 'e1'"),
    ("p edge 3 2\ne 1 2\ne1 2 3\n", "line 3: unknown record 'e1'"),
]


@pytest.mark.parametrize("text,n,edges", DIMACS_ACCEPTED)
def test_dimacs_accepts(text, n, edges):
    for chunk in CHUNKS:
        assert parse_with(text, chunk) == Graph.build(n, edges), chunk


@pytest.mark.parametrize("text,message", DIMACS_REJECTED)
def test_dimacs_rejects_naming_the_line(text, message):
    for chunk in CHUNKS:
        assert parse_with(text, chunk) == message, chunk


def _band_lines(n=999, width=60):
    """Edge lines of ten characters: each id from 100 to n is joined to
    its next *width* ids."""
    return [f"e {u} {v}" for u in range(100, n + 1) for v in range(u + 1, min(u + width, n + 1))]


def test_dimacs_repeated_edge_in_a_later_chunk():
    lines = _band_lines()
    edge_lines = len(lines)
    first = graph.CHUNK_CHARS // 10  # about where the second chunk starts
    assert read_dimacs(f"p edge 999 {edge_lines}\n" + "\n".join(lines) + "\n").m == edge_lines
    # a repeat inside the second chunk, and repeats of the line just
    # before, on every line around the first chunk boundary
    cases = [(first + 40, first + 20)] + [(i, i - 1) for i in range(first - 4, first + 5)]
    for at, of in cases:
        copy = lines[:at] + [lines[of]] + lines[at:]
        u, v = sorted(map(int, lines[of].split()[1:]))
        text = f"p edge 999 {edge_lines + 1}\n" + "\n".join(copy) + "\n"
        with pytest.raises(GraphError) as exc:
            read_dimacs(text)
        assert str(exc.value) == f"line {at + 2}: repeated edge {u} {v}"


def test_dimacs_parses_plain_edge_chunks_in_bulk(monkeypatch):
    walked = []
    walk = graph._DimacsReader.walk

    def logged_walk(self, chunk, lineno):
        walked.append(lineno)
        walk(self, chunk, lineno)

    monkeypatch.setattr(graph._DimacsReader, "walk", logged_walk)
    lines = _band_lines()
    text = f"p edge 999 {len(lines)}\n" + "\n".join(lines) + "\n"
    assert len(text) > 5 * graph.CHUNK_CHARS
    assert read_dimacs(text).m == len(lines)
    assert walked == [1]  # only the chunk with the problem line


def test_dimacs_parses_the_edges_after_the_problem_line_in_bulk(monkeypatch):
    walked, bulked = [], []
    walk, bulk = graph._DimacsReader.walk, graph._DimacsReader.bulk

    def logged_walk(self, chunk, lineno):
        walked.append((lineno, chunk))
        walk(self, chunk, lineno)

    def logged_bulk(self, chunk):
        ok = bulk(self, chunk)
        bulked.append((chunk, ok))
        return ok

    monkeypatch.setattr(graph._DimacsReader, "walk", logged_walk)
    monkeypatch.setattr(graph._DimacsReader, "bulk", logged_bulk)
    # the whole text fits in the first chunk
    text = "c head\n\np edge 3 2\ne 1 2\ne 2 3\n"
    assert read_dimacs(text) == Graph.build(3, [(0, 1), (1, 2)])
    assert walked == [(1, "c head\n"), (2, "\n"), (3, "p edge 3 2\n")]
    assert bulked[-1] == ("e 1 2\ne 2 3\n", True)


def test_dimacs_parse_peaks_below_twice_the_text():
    lines = [f"e {u} {v}" for u in range(1, 901) for v in range(u + 1, 901) if u * v % 5 < 2]
    text = f"p edge 900 {len(lines)}\n" + "\n".join(lines) + "\n"
    assert len(lines) > 190_000
    tracemalloc.start()
    try:
        g = read_dimacs(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == len(lines)
    assert peak <= 2 * len(text), (peak, len(text))


def _corrupt(rng, lines, n):
    """Apply one random line-level fault (or none) to *lines* in place;
    returns its kind."""
    i = rng.randrange(len(lines))
    kind = rng.choice(["none", "drop", "repeat", "field", "extra", "join", "loop",
                       "tag", "indent", "split"])
    fields = lines[i].split()
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == "field" and len(fields) > 1:
        j = rng.randrange(1, len(fields))
        fields[j] = rng.choice(["0", str(n + 1), "x", "+1", "01", "-1", "1.5", ""])
        lines[i] = " ".join(fields)
    elif kind == "extra":
        lines[i] += " 7"
    elif kind == "join" and i + 1 < len(lines):
        lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
    elif kind == "loop" and fields[:1] == ["e"]:
        lines[i] = f"e {fields[1]} {fields[1]}"
    elif kind == "tag" and fields:
        lines[i] = rng.choice(["E", "p", "c", "ee"]) + lines[i][1:]
    elif kind == "indent":
        lines[i] = rng.choice(["\t", " ", "\x0b", "\r"]) + lines[i]
    elif kind == "split":
        lines[i] = lines[i].replace(" ", "\n", 1)
    return kind


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30))
def test_dimacs_chunk_size_does_not_change_the_answer(seed):
    rng = random.Random(seed)
    g = forge.random_member_graph(rng)
    lines = write_dimacs(g).splitlines()
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "c note", "  ", "c"]))
    kind = _corrupt(rng, lines, g.n)
    text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
    answers = [parse_with(text, chunk) for chunk in (1, rng.randint(2, 64), 1 << 40)]
    assert answers[0] == answers[1] == answers[2]
    if kind in ("none", "indent"):
        assert answers[0] == g


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_dimacs_round_trip_in_one_line_chunks(seed):
    g = forge.random_member_graph(random.Random(seed))
    assert parse_with(write_dimacs(g), 1) == g


def _per_edge_dimacs(g):
    """The plain writer: one formatted line per edge, in write_dimacs order."""
    names = [str(v) for v in range(1, g.n + 1)]
    out = [f"p edge {g.n} {g.m}\n"]
    for u, row in enumerate(g.adj):
        head = "e " + names[u] + " "
        out.extend(head + names[v] + "\n" for v in bits(row >> (u + 1) << (u + 1)))
    return "".join(out)


def _fastest(fn, tries=3):
    """(smallest wall time over *tries* calls of fn, its last result)."""
    best = float("inf")
    for _ in range(tries):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


N = 20_000
PATH = Graph.build(N, [(u, u + 1) for u in range(N - 1)])
MATCHING = Graph.build(N, [(u, u + N // 2) for u in range(N // 2)])


@pytest.mark.parametrize("g", [
    Graph(0, ()),
    Graph(5, (0,) * 5),
    Graph.build(6, [(1, 4), (4, 5)]),  # isolated vertices around a path
    Graph.build(1201, [(0, v) for v in range(1, 1201)]),  # K1,1200
    PATH,
    MATCHING,
], ids=["n0", "isolated", "isolated-and-path", "star", "path", "matching"])
def test_write_dimacs_matches_the_per_edge_writer(g):
    assert write_dimacs(g) == _per_edge_dimacs(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_write_dimacs_matches_the_per_edge_writer_on_members(seed):
    rng = random.Random(seed)
    for g in (forge.random_member_graph(rng), forge.random_atom(rng)):
        assert write_dimacs(g) == _per_edge_dimacs(g)
        assert g.edges() == [(u, v) for u in range(g.n) for v in bits(g.adj[u]) if u < v]


def test_edges_of_wide_and_sparse_rows():
    for g in (PATH, MATCHING):
        assert Graph(g.n, g.adj).edges() == sorted(
            (u, v) for u in range(g.n) for v in bits(g.adj[u]) if u < v)


def test_write_dimacs_of_a_wide_sparse_row_is_fast():
    # each row of the matching has one bit far above its vertex
    seconds, _ = _fastest(lambda: write_dimacs(MATCHING))
    assert seconds < 0.5


def test_twin_free_bracelet_builds_and_writes_fast():
    stair = forge.Staircase(range(996, 0, -1))
    seconds, g = _fastest(lambda: forge.gen_bracelet([1] * 7, {0: stair}))
    assert g.n == 1999 and seconds < 0.25
    seconds, text = _fastest(lambda: write_dimacs(g))
    assert text.count("\n") == g.m + 1 and seconds < 0.5
