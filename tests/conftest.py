import ast
import itertools
import random

from p7c4c5.graph import Graph, mask_of


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.build(n, edges)


def random_chordal(rng, n, extra=0.3):
    """Build a chordal graph by adding vertices adjacent to a clique."""
    adj = {v: set() for v in range(n)}
    order = list(range(n))
    for i, v in enumerate(order[1:], start=1):
        # pick an existing clique: a vertex plus a subset of its earlier nbrs
        w = rng.choice(order[:i])
        base = {w} | {u for u in adj[w] if u in order[:i]}
        keep = {w} | {u for u in base if rng.random() < extra}
        # shrink to a clique containing w
        clique = [w]
        for u in keep - {w}:
            if all(x in adj[u] for x in clique):
                clique.append(u)
        for u in clique:
            adj[v].add(u)
            adj[u].add(v)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph.build(n, edges)


def random_mask(rng, g):
    """A random vertex mask of g keeping each vertex with probability 0.7."""
    return sum(1 << v for v in range(g.n) if rng.random() < 0.7)


def blow_up(g, mult):
    ids = []
    n = 0
    for v in range(g.n):
        ids.append(list(range(n, n + mult[v])))
        n += mult[v]
    edges = []
    for v in range(g.n):
        edges.extend(itertools.combinations(ids[v], 2))
    for (u, v) in g.edges():
        edges.extend((a, b) for a in ids[u] for b in ids[v])
    return Graph.build(n, edges)


def split_graph(rng, k, s):
    """Random split graph: clique 0..k-1, stable set k..k+s-1, each stable
    vertex seeing a random third to two thirds of the clique."""
    edges = list(itertools.combinations(range(k), 2))
    for x in range(k, k + s):
        edges += [(u, x) for u in rng.sample(range(k), rng.randint(k // 3, 2 * k // 3))]
    return Graph.build(k + s, edges)


def cycle(n):
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph.build(n, list(itertools.combinations(range(n), 2)))


def nested_union(rng, depth):
    """Two to four disjoint parts under one or two universal vertices: a
    part is a clique, a random forge atom, a small random member graph,
    or (while *depth* lasts) another nested union.  Some vertices are
    blown up into twins, and the ids are shuffled."""
    from p7c4c5 import forge

    def union(depth):
        parts = []
        for _ in range(rng.randint(2, 4)):
            r = rng.random()
            if depth and r < 0.4:
                parts.append(union(depth - 1))
            elif r < 0.5:
                parts.append(complete(rng.randint(1, 4)))
            elif r < 0.6:
                parts.append(forge.random_member_graph(rng.randrange(10**6), 12))
            else:
                parts.append(forge.random_atom(rng.randrange(10**6)))
        out = parts[0]
        for part in parts[1:]:
            out = forge.glue(out, part, [], [])
        return forge.add_universal_clique(out, rng.choice([1, 1, 2]))

    g = union(depth)
    g = blow_up(g, [rng.choice([1, 1, 1, 2]) for _ in range(g.n)])
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def glued_bracelets(top):
    """Two twin-free bracelets (staircase rows top..1) sharing vertex 0,
    4 * top + 13 vertices: every seven-hole of one leaves the other
    bracelet unattached, and induced paths of four vertices from the
    shared vertex, one into each bracelet, make a P7 across the split."""
    from p7c4c5 import forge

    b = forge.gen_bracelet([1] * 7, {0: forge.Staircase(range(top, 0, -1))})
    return forge.glue(b, b, [0], [0], check=False)


def witnesses(message):
    """The witnesses named in a solver's "not a member graph: {...}" error."""
    prefix = "not a member graph: "
    assert message.startswith(prefix), message
    return ast.literal_eval(message[len(prefix):])


def induces_pattern(g, key, witness):
    """Whether *witness* induces its pattern in g, in the listed order: a
    7-vertex path for "p7", a 4- or 5-hole for "c4" or "c5"."""
    k = {"p7": 7, "c4": 4, "c5": 5}[key]
    steps = list(zip(witness, witness[1:]))
    if key != "p7":
        steps.append((witness[-1], witness[0]))
    return (len(set(witness)) == len(witness) == k
            and all(g.has_edge(u, v) for u, v in steps)
            and g.induced(mask_of(witness)).m == len(steps))


def member_corpus(seed, count, target):
    """Deterministic list of small member graphs (mixed sources)."""
    from p7c4c5 import forge
    from p7c4c5.patterns import class_membership

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mode = rng.random()
        if mode < 0.45:
            g = forge.random_member_graph(rng, target=target)
        elif mode < 0.85:
            g = forge.random_atom(rng.randrange(1 << 30))
        else:
            g1 = forge.random_member_graph(rng, target=max(4, target // 2))
            g2 = forge.random_member_graph(rng, target=max(4, target // 2))
            try:
                g = forge.glue(g1, g2, [rng.randrange(g1.n)], [rng.randrange(g2.n)])
            except forge.ForgeError:
                continue
        if g.n <= target and class_membership(g).is_member:
            out.append(g)
    return out
