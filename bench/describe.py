#!/usr/bin/env python3
"""Print the make-up of a workload: one row per instance.

    python3 bench/describe.py --workload thick --seed 1

Columns: n, m, twin-quotient size, atoms per kind and cutset sizes of the
clique-cutset decomposition, and the operations the round sends to the
instance.  Uses the package's own decomposition and recognition, so it
is a description, not a reference.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def describe(p7, inst):
    from p7c4c5.cutset import Leaf
    from p7c4c5.recognize import RecognitionError

    g = inst.graph
    classes, _sk, _ = g.twin_decomposition()
    row = {"n": g.n, "m": g.m, "quotient": len(classes)}
    if not inst.member:
        return row
    tree = p7.decompose(g)
    kinds = collections.Counter()
    for leaf in tree.leaves():
        try:
            kinds[p7.recognize_atom(leaf.graph).kind] += 1
        except RecognitionError:
            kinds["unrecognized"] += 1
    cuts = []
    node = tree
    while not isinstance(node, Leaf):
        cuts.append(node.cutset.bit_count())
        node = node.right
    row["atoms"] = dict(sorted(kinds.items()))
    row["cutsets"] = (min(cuts), max(cuts), len(cuts)) if cuts else None
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    p7 = run.import_package()
    wl = WORKLOADS[args.workload](p7, args.seed)
    print("| instance | n | m | quotient | atoms | cutsets (min, max, count) | requests |")
    print("|---|---|---|---|---|---|---|")
    for inst in wl.instances:
        r = describe(p7, inst)
        ops = ", ".join(q.command and f"cli {q.command}" or q.op
                        for q in wl.requests if q.inst is inst)
        atoms = ", ".join(f"{k} {v}" for k, v in r.get("atoms", {}).items()) or "non-member"
        print(f"| {inst.name} | {r['n']} | {r['m']} | {r['quotient']} | {atoms} "
              f"| {r.get('cutsets') or '-'} | {ops} |")


if __name__ == "__main__":
    main()
