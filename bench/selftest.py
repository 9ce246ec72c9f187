#!/usr/bin/env python3
"""Self-tests of the benchmark's answer checks and reference values.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Each check must accept a correct answer and reject a deliberately wrong
one, and the references must agree with the brute-force oracle on small
instances.
"""

from __future__ import annotations

import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import reference as ref  # noqa: E402
from workloads import Instance, Request, plant, split_graph  # noqa: E402

p7 = run.import_package()
from p7c4c5 import forge, oracle  # noqa: E402


def full(g):
    return (1 << g.n) - 1


def refs_for(inst, ops):
    wl = SimpleNamespace(instances=[inst], requests=[Request(op, inst) for op in ops])
    return run.references(wl)[inst.name]


def member_instance(g, seed=0):
    rng = random.Random(seed)
    return Instance("g", g, [rng.randint(-3, 6) for _ in range(g.n)],
                    [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(g.n)])


class ReferenceAgreesWithOracle(unittest.TestCase):
    def test_small_random_atoms(self):
        for seed in range(40):
            g = forge.random_atom(seed)
            if g.n > 16:
                continue
            rows = ref.rows_of(g.n, g.edges())
            w = [random.Random(seed).randint(-3, 6) for _ in range(g.n)]
            self.assertEqual(ref.stable_value(rows, full(g), w), oracle.brute_mwis(g, w)[1])
            self.assertEqual(ref.clique_value(rows, full(g), w), oracle.brute_max_clique(g, w)[1])
            self.assertEqual(ref.chromatic_value(rows, full(g)), oracle.brute_chromatic(g))

    def test_c7_blowup_formula(self):
        for t in (1, 2, 3):
            g = forge.gen_bracelet([t] * 7)
            rows = ref.rows_of(g.n, g.edges())
            self.assertEqual(ref.chromatic_value(rows, full(g), t), oracle.brute_chromatic(g, cap=21))

    def test_split_formulas(self):
        rng = random.Random(3)
        for _ in range(10):
            g = split_graph(p7.Graph, rng, 6, 10)
            rows = ref.rows_of(g.n, g.edges())
            w = [rng.randint(-3, 6) for _ in range(g.n)]
            self.assertEqual(ref.stable_value(rows, full(g), w, 6), oracle.brute_mwis(g, w)[1])
            self.assertEqual(ref.clique_value(rows, full(g), w, 6),
                             oracle.brute_max_clique(g, w)[1])

    def test_large_blowup_uses_reductions(self):
        g = forge.gen_bracelet([12] * 7)
        rows = ref.rows_of(g.n, g.edges())
        self.assertEqual(ref.stable_value(rows, full(g), [1] * g.n), 3)
        self.assertEqual(ref.clique_value(rows, full(g), [1] * g.n), 24)


class RulerScaling(unittest.TestCase):
    def test_scale_uses_the_readings_around_a_sample(self):
        from ruler import REF_S, Ruler

        r = Ruler()
        r.starts, r.durations = [0.0, 1.0, 2.0], [REF_S, 2 * REF_S, 4 * REF_S]
        self.assertAlmostEqual(r.scale(0.5), 2 / 3)
        self.assertAlmostEqual(r.scale(1.5), 1 / 3)
        self.assertAlmostEqual(r.scale(2.5), 1 / 4)

    def test_reading_takes_time(self):
        from ruler import Ruler

        r = Ruler(repeat=1)
        r.read()
        r.read_if_due()
        self.assertEqual(len(r.durations), 1)
        self.assertGreater(r.durations[0], 0)


class ChecksRejectWrongAnswers(unittest.TestCase):
    def setUp(self):
        self.g = forge.gen_bracelet([2, 1, 2, 1, 1, 2, 1])
        self.inst = member_instance(self.g)
        self.r = refs_for(self.inst, ("color", "mwis", "clique", "check"))

    def test_color(self):
        req = Request("color", self.inst)
        colors, k = p7.min_coloring(self.g)
        self.assertEqual(run.check(req, (colors, k), self.r), [])
        u, v = self.g.edges()[0]
        clash = list(colors)
        clash[v] = clash[u]
        self.assertTrue(run.check(req, (clash, k), self.r))
        spare = list(colors)
        spare[0] = k + 1
        self.assertTrue(run.check(req, (spare, k + 1), self.r))
        self.assertTrue(run.check(req, (colors, k - 1), self.r))

    def test_color_above_three_halves_omega(self):
        r = dict(self.r, chi=100)
        colors = list(range(1, self.g.n + 1))
        self.assertTrue(any("3*omega/2" in p for p in ref.check_coloring(
            r["rows"], colors, self.g.n, self.g.n, r["omega"])))

    def test_mwis(self):
        req = Request("mwis", self.inst)
        members, value = p7.mwis(self.g, self.inst.weights)
        self.assertEqual(run.check(req, (members, value), self.r), [])
        u, v = self.g.edges()[0]
        self.assertTrue(run.check(req, ([u, v], self.inst.weights[u] + self.inst.weights[v]),
                                  self.r))
        self.assertTrue(run.check(req, (members, value + 1), self.r))
        self.assertTrue(run.check(req, (members[:-1], value - self.inst.weights[members[-1]]),
                                  self.r))

    def test_clique(self):
        req = Request("clique", self.inst)
        members, value = p7.max_weight_clique(self.g, self.inst.weights)
        self.assertEqual(run.check(req, (members, value), self.r), [])
        far = next(v for v in range(self.g.n) if v not in members
                   and not all(self.g.has_edge(v, u) for u in members))
        self.assertTrue(run.check(req, (sorted(members + [far]), value), self.r))
        self.assertTrue(run.check(req, (members, value - 1), self.r))
        self.assertTrue(run.check(req, ([members[0]], self.inst.weights[members[0]]), self.r))

    def test_check_member(self):
        req = Request("check", self.inst)
        good = p7.class_membership(self.g)
        self.assertEqual(run.check(req, good, self.r), [])
        fake = SimpleNamespace(is_member=False, violations=lambda: {"c4": [0, 1, 2, 3]})
        self.assertTrue(run.check(req, fake, self.r))

    def test_check_planted(self):
        for pattern in ("c4", "c5", "p7"):
            g = plant(p7.Graph, self.g, pattern, random.Random(1))
            inst = Instance("h", g, [1] * g.n, [1] * g.n, member=False,
                            facts={"planted": pattern})
            r = refs_for(inst, ("check",))
            req = Request("check", inst)
            report = p7.class_membership(g)
            self.assertEqual(run.check(req, report, r), [])
            wit = list(report.violations()[pattern])
            broken = wit[:2] + wit[3:] + [wit[2]]
            self.assertTrue(run.check(req, SimpleNamespace(
                is_member=False, violations=lambda: {pattern: broken}), r), pattern)
            self.assertTrue(run.check(req, SimpleNamespace(
                is_member=True, violations=lambda: {}), r))
            other = "c5" if pattern != "c5" else "c4"
            self.assertTrue(run.check(req, SimpleNamespace(
                is_member=False, violations=lambda: {other: wit}), r))

    def test_cli(self):
        for cmd, good in (
            ("color", {"colors": p7.min_coloring(self.g)[0],
                       "count": p7.min_coloring(self.g)[1]}),
            ("mwis", dict(zip(("stable_set", "weight"),
                              p7.mwis(self.g, self.inst.cli_weights)))),
            ("clique", dict(zip(("clique", "weight"),
                                p7.max_weight_clique(self.g, self.inst.cli_weights)))),
        ):
            req = Request("cli", self.inst, cmd)
            if "weight" in good:
                good["weight"] = str(good["weight"])
            text = run.json.dumps(good)
            self.assertEqual(run.check(req, (0, text), self.r), [], cmd)
            self.assertTrue(run.check(req, (1, text), self.r))
            self.assertTrue(run.check(req, (0, "not json"), self.r))
            bad = dict(good)
            if cmd == "color":
                bad["count"] += 1
            else:
                bad["weight"] = str(Fraction(bad["weight"]) + 1)
            self.assertTrue(run.check(req, (0, run.json.dumps(bad)), self.r), cmd)


if __name__ == "__main__":
    unittest.main()
