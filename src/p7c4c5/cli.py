"""Command-line interface.

Graphs are exchanged in a DIMACS-like text format ("p edge n m" header,
"e u v" lines, 1-based).  Machine-readable results go to stdout as a
single JSON object with sorted keys (so reruns are byte-identical); a
short human summary goes to stderr.  Exit status: 0 for a positive
result, 1 for a definite negative one (non-membership, failed
recognition or verification), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import lcm

from .cutset import atoms, tree_violations
from .cutset import decompose  # noqa: F401 -- bench/spans.py traces it here
from .graph import Graph, GraphError, bits, read_dimacs, write_dimacs
from .oracle import brute_chromatic, brute_max_clique, brute_mwis
from .patterns import class_membership
from .recognize import RecognitionError, certificate_to_dict, recognize_atom
from .solvers import NotAMember, color_walk, max_weight_clique, member_walk, min_coloring, mwis
from . import forge

SCHEMA = 1


def _emit(obj, summary: str) -> None:
    obj = dict(obj)
    obj["schema"] = SCHEMA
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    sys.stderr.write(summary + "\n")


def _read_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return read_dimacs(text)


def _read_weights(path: str | None, n: int):
    """(weights, scale): the rational weights of the file times *scale*,
    the least common multiple of their denominators, so every weight is
    an int.  Scaling by a positive constant keeps every comparison and
    every tie, so the solvers give the same answer as on the fractions."""
    if path is None:
        return [1] * n, 1
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if len(lines) != n:
        raise ValueError(f"expected {n} weights, got {len(lines)}")
    out = []
    for i, ln in lines:
        try:
            out.append(Fraction(ln))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"weights line {i}: not a number: {ln!r}") from None
    scale = lcm(*(x.denominator for x in out))
    return [x.numerator * (scale // x.denominator) for x in out], scale


def _weight_str(x, scale: int) -> str:
    return str(Fraction(x, scale))


def cmd_check(args) -> int:
    g = _read_graph(args.graph)
    report = class_membership(g)
    how = f"; certified {report.certified}" if report.certified else ""
    _emit(
        {"member": report.is_member, "violations": report.violations(), "n": g.n, "m": g.m},
        f"{'member' if report.is_member else 'NOT a member'} (n={g.n}, m={g.m}{how})",
    )
    return 0 if report.is_member else 1


def cmd_decompose(args) -> int:
    g = _read_graph(args.graph)
    pairs = atoms(g)
    bad = tree_violations(g, pairs)
    tree = [{"cutset": sorted(bits(s)), "atom": sorted(bits(atom))} for s, atom in pairs[:-1]]
    tree.append({"atom": sorted(bits(pairs[-1][1]))})
    _emit(
        {"tree": tree, "atoms": [entry["atom"] for entry in tree], "violations": bad},
        f"{len(pairs)} atom(s)" + (" with violations!" if bad else ""),
    )
    return 1 if bad else 0


def cmd_recognize(args) -> int:
    g = _read_graph(args.graph)
    try:
        cert = recognize_atom(g)
    except RecognitionError as exc:
        _emit({"recognized": False, "reasons": exc.reasons}, "not a recognized atom")
        return 1
    _emit(
        {"recognized": True, "certificate": certificate_to_dict(cert)},
        f"atom kind: {cert.kind}",
    )
    return 0


def _reject(what: str, exc: Exception) -> int:
    """Report a graph the solver rejected (not a member): exit 1."""
    _emit({"error": str(exc)}, f"{what} failed: {exc}")
    return 1


def _is_proper(g: Graph, colors) -> bool:
    """Whether *colors* (indexed by vertex) is a proper coloring of g:
    every color class, as one mask, is a stable set."""
    classes = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return all(map(g.is_stable, classes.values()))


def cmd_color(args) -> int:
    g = _read_graph(args.graph)
    try:
        colors, k = min_coloring(g)
    except ValueError as exc:
        return _reject("coloring", exc)
    if not _is_proper(g, colors):
        raise AssertionError("coloring is not proper")
    _emit({"colors": colors, "count": k}, f"chromatic number {k}")
    return 0


def _cmd_weighted(args, solve, what: str, key: str) -> int:
    """Report the answer of *solve* (``mwis`` or ``max_weight_clique``) under *key*."""
    g = _read_graph(args.graph)
    w, scale = _read_weights(args.weights, g.n)
    try:
        members, value = solve(g, w)
    except ValueError as exc:
        return _reject(what, exc)
    value = _weight_str(value, scale)
    _emit(
        {key: members, "weight": value},
        f"{what} of weight {value} with {len(members)} vertices",
    )
    return 0


def cmd_mwis(args) -> int:
    return _cmd_weighted(args, mwis, "stable set", "stable_set")


def cmd_clique(args) -> int:
    return _cmd_weighted(args, max_weight_clique, "clique", "clique")


_GEN_KINDS = {
    "bracelet": forge.random_bracelet,
    "emerald": forge.random_emerald,
    "lantern": forge.random_lantern,
    "wreath": forge.random_wreath,
    "ring": forge.random_ring,
    "crown": forge.random_crown,
    "atom": forge.random_atom,
    "member": forge.random_member_graph,
}


def cmd_gen(args) -> int:
    g = _GEN_KINDS[args.kind](args.seed)
    sys.stdout.write(write_dimacs(g))
    sys.stderr.write(f"generated {args.kind} with n={g.n}, m={g.m}\n")
    return 0


def cmd_verify(args) -> int:
    """End-to-end self check of one input graph.  One certify walk
    (``member_walk``) proves membership and certifies every atom; a
    rejection is a NotAMember that carries the walk's verdict, or else
    an atom that recognition missed on a member.  The coloring, and the
    atoms and copies ``tree_violations`` checks, are the walk's own."""
    g = _read_graph(args.graph)
    try:
        classes, entries = member_walk(g)
        colors, k, pairs = color_walk(g, classes, entries)
    except NotAMember as exc:
        _emit(
            {"ok": False, "checks": {"member": False}, "violations": exc.report.violations()},
            "verify: not a member",
        )
        return 1
    except ValueError as exc:
        _emit(
            {"ok": False, "checks": {"member": True, "atoms_recognized": False},
             "error": str(exc)},
            f"verify: FAILED (atoms_recognized: {exc})",
        )
        return 1
    checks = {
        "member": True,
        "decomposition": not tree_violations(g, pairs, [sub for _s, _a, sub, _c in entries]),
        "atoms_recognized": True,
        "coloring_proper": _is_proper(g, colors),
    }
    if g.n <= args.max_oracle:
        w, cap = [1] * g.n, args.max_oracle
        checks["coloring_optimal"] = k == brute_chromatic(g, cap=cap)
        checks["stable_set_optimal"] = mwis(g, w)[1] == brute_mwis(g, w, cap=cap)[1]
        checks["clique_optimal"] = max_weight_clique(g, w)[1] == brute_max_clique(g, w, cap=cap)[1]
    ok = all(checks.values())
    _emit(
        {"ok": ok, "checks": checks, "results": {"chromatic": k}},
        f"verify: {'ok' if ok else 'FAILED'} ({', '.join(sorted(checks))})",
    )
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process: it depends on no input, and ``parse_args`` fills a
    fresh namespace each time, so no option carries over between calls."""
    ap = argparse.ArgumentParser(
        prog="p7c4c5",
        description="Exact algorithms for a class of graphs with no short "
        "even holes and no long induced paths.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, graph=True, weights=False):
        p = sub.add_parser(name, help=help_text)
        if graph:
            p.add_argument("graph", help="input graph file ('-' for stdin)")
        if weights:
            p.add_argument(
                "--weights",
                default=None,
                help="file with one rational weight per line",
            )
        p.set_defaults(fn=fn)
        return p

    add("check", cmd_check, "test class membership, report witnesses")
    add("decompose", cmd_decompose, "clique-cutset decomposition into atoms")
    add("recognize", cmd_recognize, "certify an atom and name its kind")
    add("color", cmd_color, "minimum proper coloring")
    add("mwis", cmd_mwis, "maximum-weight stable set", weights=True)
    add("clique", cmd_clique, "maximum-weight clique", weights=True)
    p = add("gen", cmd_gen, "generate a test instance", graph=False)
    p.add_argument("kind", choices=sorted(_GEN_KINDS))
    p.add_argument("--seed", type=int, default=0)
    p = add("verify", cmd_verify, "run the full self-check on one graph")
    p.add_argument(
        "--max-oracle",
        type=int,
        default=12,
        help="largest size for brute-force cross checks",
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
