"""Seeded workloads: the instances of one run and the requests of one round.

A workload is built from its seed alone.  Every instance is a member
graph made by ``p7c4c5.forge`` (or, where forge has no generator, from
an explicit edge list), plus the construction facts that the reference
answers in ``reference.py`` rely on.  A round sends every request of the
workload once, one after another (closed loop, single thread); a run
repeats whole rounds.

The seed changes staircase profiles, the small random atoms, the split
graphs and the weights.  The shapes whose cost swings most with their
labelling (the uniform 7-hole blow-ups and the heavy emerald, whose arc
coloring can take ten times longer after a relabelling) keep forge's
labelling and are the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

OPS = ("check", "color", "mwis", "clique", "cli")
EMERALD_CLASSES = ("a0m", "a0p", "a1", "a2s", "a2m", "a3", "a4", "a5s", "a5p", "a6", "c")


@dataclass
class Instance:
    name: str
    graph: object  # p7c4c5.Graph
    weights: list  # library weights (ints)
    cli_weights: list  # weights written to the weights file (Fractions)
    member: bool = True
    facts: dict = field(default_factory=dict)
    dimacs_path: str = ""
    weights_path: str = ""


@dataclass
class Request:
    op: str
    inst: Instance
    command: str | None = None  # CLI subcommand for op == "cli"


@dataclass
class Workload:
    name: str
    instances: list
    requests: list


# ---------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------


def mixed_weights(rng, n, lo=-4, hi=9):
    """Integer weights of both signs; exactly half of them (rounded up)
    positive, so the work of ``subatom_mwis`` does not depend on the seed."""
    pos = n - n // 2
    ws = [rng.randint(1, hi) for _ in range(pos)] + [
        rng.randint(lo, 0) for _ in range(n - pos)
    ]
    rng.shuffle(ws)
    return ws


def rational_weights(rng, n):
    return [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n)]


# ---------------------------------------------------------------------
# shape helpers
# ---------------------------------------------------------------------


def stepped(forge, rng, rows, cols, steps):
    """A staircase with *rows* rows over *cols* columns and at most *steps*
    distinct row profiles (few profiles means many twins).  The top row
    sees every column and every row sees at least one."""
    levels = sorted(rng.sample(range(1, cols), steps - 1), reverse=True) if steps > 1 else []
    levels = [cols] + levels
    cuts = sorted(rng.sample(range(1, rows), len(levels) - 1)) if len(levels) > 1 else []
    f = []
    bounds = [0] + cuts + [rows]
    for lvl, (a, b) in zip(levels, zip(bounds, bounds[1:])):
        f += [lvl] * (b - a)
    return forge.Staircase(tuple(f))


def distinct_stair(forge, rows):
    """Staircase with pairwise distinct rows: rows x rows, row j sees rows-j."""
    return forge.Staircase(tuple(range(rows, 0, -1)))


def thick_bracelet(forge, rng, scale):
    """Twin-heavy bracelet with three wavy pairs and 25*scale vertices.
    Parts 0 to 2 are the largest, which keeps chi = omega (the reference
    proves it with an omega-coloring)."""
    stars = [3 * scale, 4 * scale, 4 * scale, 2 * scale, 2 * scale, 2 * scale, 2 * scale]
    pairs = {
        0: stepped(forge, rng, scale, scale, 3),
        1: stepped(forge, rng, scale, scale, 2),
        2: stepped(forge, rng, scale, scale, 3),
    }
    return forge.gen_bracelet(stars, pairs, i_star=0)


def thick_lantern(forge, rng, scale):
    arms = [(3 * scale, 3 * scale)] + [(2 * scale, 2 * scale)] * 3
    wavy = stepped(forge, rng, 3 * scale, 3 * scale, 3)
    return forge.gen_lantern(4 * scale, 3 * scale, arms, wavy)


def thick_wreath(forge, rng, scale):
    sizes = [4 * scale, 3 * scale, 4 * scale, 3 * scale, 4 * scale, 3 * scale]
    loose = [
        stepped(forge, rng, sizes[i], sizes[(i + 1) % 6], 3) for i in (1, 3, 5)
    ]
    return forge.gen_wreath(sizes, loose)


def thick_crown(forge, rng, scale):
    c = [3 * scale, 4 * scale, 3 * scale, 4 * scale, 3 * scale, 4 * scale]
    d = [0, 0, 2 * scale, 3 * scale, 2 * scale, 3 * scale]
    return forge.gen_crown(c, d)


def small_emerald(forge, rng, doubled=3):
    """Emerald with every class a single vertex except *doubled* random
    classes of two vertices."""
    sizes = {k: 1 for k in EMERALD_CLASSES}
    for k in rng.sample(EMERALD_CLASSES, doubled):
        sizes[k] = 2
    return forge.gen_emerald(sizes)


def twin_free_atom(forge, rng):
    """A small twin-free atom of a random kind (every part one vertex,
    wavy staircases with distinct rows)."""
    kind = rng.choice(["bracelet", "lantern", "wreath", "crown"])
    if kind == "bracelet":
        pairs = {slot: distinct_stair(forge, rng.randint(1, 3)) for slot in range(3)
                 if rng.random() < 0.5}
        return forge.gen_bracelet([1] * 7, pairs, i_star=rng.randrange(7))
    if kind == "lantern":
        r = rng.randint(1, 3)
        arms = [(r, r)] + [(1, 1)] * rng.randint(2, 3)
        return forge.gen_lantern(1, 1, arms, distinct_stair(forge, r))
    if kind == "wreath":
        return forge.gen_wreath([1] * 6)
    return forge.gen_crown([1] * 6, [0, 0, rng.randint(0, 1), 1, 1, 1])


def disjoint_union(forge, parts):
    """Glue along the empty clique; forge checks membership up to its
    size limit."""
    out = parts[0]
    for g in parts[1:]:
        out = forge.glue(out, g, [], [])
    return out


def split_graph(graph_cls, rng, k, s):
    """Random split graph: clique 0..k-1, stable set k..k+s-1, each stable
    vertex seeing a random third to two thirds of the clique."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    for x in range(k, k + s):
        size = rng.randint(k // 3, 2 * k // 3)
        edges += [(u, x) for u in rng.sample(range(k), size)]
    return graph_cls.build(k + s, edges)


def plant(graph_cls, g, pattern, rng):
    """Add a disjoint induced C4, C5 or P7 and shuffle all labels, so the
    planted vertices are spread over the id range."""
    size = {"c4": 4, "c5": 5, "p7": 7}[pattern]
    extra = [(g.n + i, g.n + i + 1) for i in range(size - 1)]
    if pattern != "p7":
        extra.append((g.n, g.n + size - 1))
    n = g.n + size
    perm = list(range(n))
    rng.shuffle(perm)
    return graph_cls.build(n, [(perm[u], perm[v]) for u, v in g.edges() + extra])


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------


def _inst(name, g, rng, member=True, facts=None, weights=None):
    return Instance(
        name=name,
        graph=g,
        weights=weights if weights is not None else mixed_weights(rng, g.n),
        cli_weights=rational_weights(rng, g.n),
        member=member,
        facts=facts or {},
    )


def _requests(insts, ops_by_name):
    if len({inst.name for inst in insts}) != len(insts):
        raise ValueError("instance names must be unique")
    out = []
    for inst in insts:
        for op in ops_by_name.get(inst.name, ()):
            if op.startswith("cli-"):
                out.append(Request("cli", inst, op[4:]))
            else:
                out.append(Request(op, inst))
    return out


def build_chi_gap(p7, seed):
    forge, Graph = p7.forge, p7.Graph
    rng = random.Random(f"chi_gap/{seed}")
    insts = []
    for t in (2, 3, 4):
        insts.append(_inst(f"c7x{t}", forge.gen_bracelet([t] * 7), rng,
                           facts={"c7_blowup": t}))
    insts.append(_inst("emerald27", forge.random_emerald(27), rng))
    insts.append(_inst("emerald4", forge.random_emerald(4), rng))
    for i in range(8):
        insts.append(_inst(f"small_bracelet{i}", forge.random_bracelet(rng, max_part=2, max_pair=2),
                           rng))
    for i in range(8):
        insts.append(_inst(f"small_emerald{i}", small_emerald(forge, rng), rng))
    every = ("check", "color", "mwis", "clique")
    ops = {inst.name: every for inst in insts}
    # larger blow-ups, so that no total is made of millisecond calls alone
    for name, g, want in (
        ("c7x5", forge.gen_bracelet([5] * 7), ("check",)),
        ("c7x12", forge.gen_bracelet([12] * 7), ("mwis", "clique")),
        ("c7x20", forge.gen_bracelet([20] * 7), ("mwis", "clique", "cli-mwis")),
        ("c7x30", forge.gen_bracelet([30] * 7), ("clique", "cli-clique")),
        ("emerald6x", forge.gen_emerald({k: 6 for k in EMERALD_CLASSES}), ("mwis", "clique")),
        ("emerald12x", forge.gen_emerald({k: 12 for k in EMERALD_CLASSES}),
         ("mwis", "clique", "cli-clique")),
    ):
        insts.append(_inst(name, g, rng))
        ops[name] = want
    # the CLI total is spread over several calls of 0.05 to 0.6 s
    for name in ("c7x3", "emerald4", "small_bracelet0", "small_emerald0"):
        ops[name] = every + ("cli-color", "cli-mwis", "cli-clique")
    return Workload("chi_gap", insts, _requests(insts, ops))


def build_thick(p7, seed):
    forge = p7.forge
    rng = random.Random(f"thick/{seed}")
    insts = []
    ops = {}

    def add(name, g, want, facts=None):
        insts.append(_inst(name, g, rng, facts=facts, weights=[1] * g.n))
        ops[name] = want

    add("bracelet250", thick_bracelet(forge, rng, 10), ("color", "clique"))
    add("bracelet450", thick_bracelet(forge, rng, 18), ("color", "clique"))
    add("bracelet1500", thick_bracelet(forge, rng, 60), ("color", "cli-color"))
    add("lantern200", thick_lantern(forge, rng, 8), ("color", "clique"))
    add("wreath200", thick_wreath(forge, rng, 10), ("color", "clique", "cli-clique"))
    add("crown200", thick_crown(forge, rng, 6), ("color", "clique"))
    add("bracelet125", thick_bracelet(forge, rng, 5), ("mwis", "cli-mwis"))
    add("lantern125", thick_lantern(forge, rng, 5), ("mwis",))
    add("wreath100", thick_wreath(forge, rng, 5), ("mwis",))
    add("crown100", thick_crown(forge, rng, 3), ("mwis",))
    add("c7x5", forge.gen_bracelet([5] * 7), ("check",), facts={"c7_blowup": 5})
    add("lantern30", thick_lantern(forge, rng, 1), ("check",))
    add("wreath30", thick_wreath(forge, rng, 1), ("check",))
    return Workload("thick", insts, _requests(insts, ops))


def build_deep(p7, seed):
    forge, Graph = p7.forge, p7.Graph
    rng = random.Random(f"deep/{seed}")
    insts = []
    ops = {}

    def add(inst, want):
        insts.append(inst)
        ops[inst.name] = want
        return inst

    def union(name, count, want):
        parts = [twin_free_atom(forge, rng) for _ in range(count)]
        g = forge.add_universal_clique(disjoint_union(forge, parts), 1)
        return add(_inst(name, g, rng), want)

    def split(name, k, s, want):
        g = split_graph(Graph, rng, k, s)
        return add(_inst(name, g, rng, facts={"split": k}), want)

    every = ("color", "mwis", "clique")
    split("split230", 70, 160, every + ("cli-mwis",))
    union("union400", 40, every + ("cli-color", "cli-clique"))
    union("union200", 20, every)
    small = [
        split("split40", 12, 28, ("check",) + every),
        split("split60", 20, 40, ("check",)),
        union("union50", 5, ("check",) + every),
        union("union80", 8, ("check",)),
    ]
    for base, pattern in [(small[i % 4], p) for i, p in enumerate(("c4", "c5", "p7") * 2)]:
        g = plant(Graph, base.graph, pattern, rng)
        add(_inst(f"{base.name}+{pattern}", g, rng, member=False,
                  facts={"planted": pattern}), ("check",))
    return Workload("deep", insts, _requests(insts, ops))


WORKLOADS = {"chi_gap": build_chi_gap, "thick": build_thick, "deep": build_deep}
