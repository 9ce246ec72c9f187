import itertools
import random

from p7c4c5.graph import Graph


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
