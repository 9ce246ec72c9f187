#!/usr/bin/env python3
"""Benchmark of p7c4c5: seeded request mixes against the library and the CLI.

    python3 bench/run.py --workload chi_gap --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` directory.  Set-up (import, building the workload's
graphs with forge, writing their DIMACS and weight files) is repeated
three to nine times (until two seconds are spent) and its median is
reported as ``setup_s``.  Reference answers
are then computed outside every timed region.  A round sends each request
of the workload once, closed loop and single-threaded; rounds repeat until
``--seconds`` have passed.  Every answer of every round is checked.

With ``--trace 0`` the last line of stdout is the end-to-end result: per
operation the sum, over the round's requests, of each request's median
time over the rounds, plus set-up time and peak memory.  With
``--trace 1`` the package's public functions are wrapped from here (see
``spans.py``) and the last line gives per-round per-layer figures instead.
Details go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = (3, 9)  # fewest and most set-ups per run
SETUP_BUDGET_S = 2.0  # stop repeating set-up once this much time is spent

sys.path.insert(0, str(HERE))
import reference as ref  # noqa: E402
import spans as tracing  # noqa: E402
from ruler import Ruler  # noqa: E402
from workloads import WORKLOADS, OPS  # noqa: E402


def import_package():
    """Import p7c4c5 afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "p7c4c5" or m.startswith("p7c4c5.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import p7c4c5
    import p7c4c5.cli
    import p7c4c5.forge
    import p7c4c5.oracle

    if Path(p7c4c5.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"p7c4c5 imported from {p7c4c5.__file__}, not from {SRC}")
    return p7c4c5


def setup(workload, seed, workdir, trace):
    """One timed set-up; returns (seconds, package, workload, tracer)."""
    gc.collect()
    tracer = tracing.Tracer() if trace else None
    t0 = time.perf_counter()
    p7 = import_package()
    if tracer:
        tracing.install(tracer, p7)
    wl = WORKLOADS[workload](p7, seed)
    for inst in wl.instances:
        inst.dimacs_path = str(workdir / f"{inst.name}.dimacs")
        inst.weights_path = str(workdir / f"{inst.name}.weights")
        with open(inst.dimacs_path, "w", encoding="utf-8") as fh:
            fh.write(p7.write_dimacs(inst.graph))
        with open(inst.weights_path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{w}\n" for w in inst.cli_weights))
    return time.perf_counter() - t0, p7, wl, tracer


# ---------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------


def references(wl):
    """Exact answers for every request, computed apart from the solvers."""
    out = {}
    for inst in wl.instances:
        g = inst.graph
        rows = ref.rows_of(g.n, g.edges())
        split_k = inst.facts.get("split")
        needed = {r.command or r.op for r in wl.requests if r.inst is inst}
        r = {"rows": rows}
        if needed & {"color", "clique"}:
            r["omega"] = ref.clique_value(rows, (1 << g.n) - 1, [1] * g.n, split_k)
        if "color" in needed:
            r["chi"] = (r["omega"] if split_k is not None else
                        ref.chromatic_value(rows, (1 << g.n) - 1, inst.facts.get("c7_blowup")))
        for kind, fn in (("mwis", ref.stable_value), ("clique", ref.clique_value)):
            if kind in needed:
                r[kind] = fn(rows, (1 << g.n) - 1, inst.weights, split_k)
                r[kind + "_cli"] = fn(rows, (1 << g.n) - 1, inst.cli_weights, split_k)
        out[inst.name] = r
    return out


def check(req, answer, r):
    """Problems with one answer (empty list when it is correct)."""
    inst, rows = req.inst, r["rows"]
    if req.op == "check":
        return ref.check_membership(rows, answer.is_member, answer.violations(),
                                    inst.member, inst.facts.get("planted"))
    if req.op == "color":
        colors, count = answer
        return ref.check_coloring(rows, colors, count, r["chi"], r["omega"])
    if req.op == "mwis":
        return ref.check_stable(rows, inst.weights, answer[0], answer[1], r["mwis"])
    if req.op == "clique":
        return ref.check_clique(rows, inst.weights, answer[0], answer[1], r["clique"])
    code, text = answer
    if code != 0:
        return [f"exit code {code}"]
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if req.command == "color":
        return ref.check_coloring(rows, obj["colors"], obj["count"], r["chi"], r["omega"])
    key = "stable_set" if req.command == "mwis" else "clique"
    fn = ref.check_stable if req.command == "mwis" else ref.check_clique
    return fn(rows, inst.cli_weights, obj[key], Fraction(obj["weight"]), r[req.command + "_cli"])


# ---------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------


def execute(p7, req):
    """Send one request; returns (seconds, answer)."""
    g = req.inst.graph
    if req.op == "cli":
        argv = [req.command, req.inst.dimacs_path]
        if req.command != "color":
            argv += ["--weights", req.inst.weights_path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = p7.cli.main(argv)
            dt = time.perf_counter() - t0
        return dt, (code, out.getvalue())
    g = p7.Graph(g.n, g.adj)  # fresh object: no cached edge list
    solvers, w = p7.solvers, req.inst.weights
    call = {
        "check": lambda: p7.patterns.class_membership(g),
        "color": lambda: solvers.min_coloring(g),
        "mwis": lambda: solvers.mwis(g, w),
        "clique": lambda: solvers.max_weight_clique(g, w),
    }[req.op]
    t0 = time.perf_counter()
    answer = call()
    return time.perf_counter() - t0, answer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results_dir = HERE / "results"
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(exist_ok=True)
    try:
        ruler = Ruler()
        setups, forge_figs = [], []  # setups: (seconds, start)
        while len(setups) < SETUPS[0] or (
            len(setups) < SETUPS[1] and sum(dt for dt, _ in setups) < SETUP_BUDGET_S
        ):
            ruler.read()
            t0 = time.perf_counter()
            dt, p7, wl, tracer = setup(args.workload, args.seed, workdir, args.trace)
            setups.append((dt, t0))
            if tracer:
                forge_figs.append(tracing.setup_metrics(tracer))
                tracer.reset()
        ruler.read()
        refs = references(wl)
        if tracer:
            tracer.reset()
        gc.collect()
        gc.freeze()

        times = {i: [] for i in range(len(wl.requests))}
        attempted = failed = 0
        problems, errors = [], []
        rounds = 0
        start = time.perf_counter()
        while True:
            for i, req in enumerate(wl.requests):
                attempted += 1
                ruler.read_if_due()
                t0 = time.perf_counter()
                try:
                    dt, answer = execute(p7, req)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    errors.append(f"{req.op} {req.command or ''} {req.inst.name}: {exc!r}")
                    continue
                times[i].append((dt, t0))
                bad = check(req, answer, refs[req.inst.name])
                if req.op == "cli" and bad and answer[0] != 0:
                    failed += 1
                    errors.append(f"cli {req.command} {req.inst.name}: {bad}")
                elif bad:
                    problems.append(f"{req.op} {req.command or ''} {req.inst.name}: {bad}")
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        ruler.read()

        totals = {op: 0.0 for op in OPS}
        raw_totals = {op: 0.0 for op in OPS}
        per_request = {}
        for i, req in enumerate(wl.requests):
            if times[i]:
                totals[req.op] += statistics.median(dt * ruler.scale(t0) for dt, t0 in times[i])
                raw_totals[req.op] += statistics.median(dt for dt, _ in times[i])
                per_request[f"{req.op}:{req.command or ''}:{req.inst.name}"] = times[i]
        e2e = {
            "setup_s": (statistics.median(dt * ruler.scale(t0) for dt, t0 in setups), "s"),
            "check_s": (totals["check"], "s"),
            "color_s": (totals["color"], "s"),
            "mwis_s": (totals["mwis"], "s"),
            "clique_s": (totals["clique"], "s"),
            "cli_s": (totals["cli"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": rounds, "elapsed_s": elapsed, "setups_s": setups,
            "end_to_end": {k: v for k, (v, _u) in e2e.items()},
            "raw_totals_s": raw_totals,
            "ruler_s": ruler.durations,
            "request_times_s": per_request, "problems": problems[:50], "errors": errors[:50],
        }
        if args.trace:
            layers = tracing.layer_metrics(tracer, rounds)
            for name in ("forge.build_s", "forge.membership_s"):
                layers[name] = statistics.median(f[name] for f in forge_figs)
            metrics = {k: {"value": v, "unit": "count" if not k.endswith("_s") else "s"}
                       for k, v in layers.items()}
            detail["per_layer"] = layers
            tracer.dump(results_dir / f"trace-{args.workload}-seed{args.seed}.json",
                        {"rounds": rounds})
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
        for line in problems[:20] + errors[:20]:
            print(line, file=sys.stderr)
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
