"""Spans around the package's public functions, recorded from outside.

Each traced function is replaced, in the module that calls it, by a
wrapper that records a span (name, start, end, parent) and updates the
counters kept at the same boundary.  Spans are kept in memory; the run
writes them out when it ends.  Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = Counter()
        self.flags = set()  # span indices marked by a child (fallback ran)

    def wrap(self, owner, attr, name, after=None):
        """Trace ``owner.attr`` under *name*; *after(tracer, idx, args,
        kwargs, result, exc)* updates counters once the call returns."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            result, exc = None, None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
                if after is not None:
                    after(tracer, idx, args, kwargs, result, exc)

        setattr(owner, attr, traced)

    def reset(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.flags = set()

    # -- summaries ------------------------------------------------------

    def inclusive(self):
        """Total duration per span name, counting only the outermost span
        when a name nests inside itself."""
        out = Counter()
        for rec in self.spans:
            p = rec[3]
            while p >= 0 and self.spans[p][0] != rec[0]:
                p = self.spans[p][3]
            if p < 0:
                out[rec[0]] += rec[2] - rec[1]
        return out

    def calls(self):
        return Counter(rec[0] for rec in self.spans)

    def self_times(self):
        """Duration minus the time covered by direct children, per name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = Counter()
        for i, rec in enumerate(self.spans):
            out[rec[0]] += rec[2] - rec[1] - child[i]
        return out

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       **(extra or {})}, fh)


# ---------------------------------------------------------------------
# the package's boundaries
# ---------------------------------------------------------------------


def _rejected(tracer, idx, args, kwargs, result, exc):
    tracer.counters["recognize.rejected"] += exc is not None and type(exc).__name__ == "RecognitionError"


def _extra_colors(tracer, idx, args, kwargs, result, exc):
    if result is not None:
        omega = kwargs.get("omega", args[2] if len(args) > 2 else None)
        if omega is not None:
            tracer.counters["arcs.extra_colors"] += result[1] - omega


def _fallback_ran(tracer, idx, args, kwargs, result, exc):
    parent = tracer.spans[idx][3]
    if parent >= 0:
        tracer.flags.add(parent)


def _search_done(tracer, idx, args, kwargs, result, exc):
    if idx in tracer.flags and result is not None:
        tracer.counters["cutset.fallback_hits"] += 1


def install(tracer, p7):
    """Wrap every traced function of the package *p7* (already imported)."""
    import p7c4c5.arcs as arcs
    import p7c4c5.cli as cli
    import p7c4c5.cutset as cutset
    import p7c4c5.forge as forge
    import p7c4c5.patterns as patterns
    import p7c4c5.recognize as recognize
    import p7c4c5.solvers as solvers

    w = tracer.wrap
    w(cli, "read_dimacs", "graph.parse")
    w(p7.Graph, "induced", "graph.induced")
    w(p7.Graph, "twin_decomposition", "graph.twins")
    for mod in (solvers, cli, patterns):
        w(mod, "class_membership", "patterns.membership")
    w(forge, "class_membership", "forge.membership")
    for attr in ("all_k_holes", "find_theta33", "find_induced_path"):
        w(recognize, attr, "patterns.hole_search")
    for mod in (solvers, cli):
        w(mod, "decompose", "cutset.decompose")
    w(cutset, "has_clique_cutset", "cutset.search", _search_done)
    w(cutset, "minimal_triangulation", "cutset.fallback", _fallback_ran)
    w(solvers, "merge_colorings", "cutset.merge")
    w(solvers, "chordal_mwis", "chordal.mwis")
    w(solvers, "chordal_max_weight_clique", "chordal.clique")
    for mod in (solvers, cli):
        w(mod, "recognize_atom", "recognize.recognize", _rejected)
    w(recognize, "verify_certificate", "recognize.verify")
    w(arcs, "pca_color", "arcs.pca_color", _extra_colors)
    w(arcs, "realize", "arcs.realize")
    w(arcs, "bracelet_arcs", "arcs.build")
    w(arcs, "emerald_arcs", "arcs.build")
    w(solvers, "subatom_mwis", "solvers.subatom_mwis")
    w(solvers, "color_atom", "solvers.color_atom")
    w(solvers, "atom_max_weight_clique", "solvers.atom_clique")
    for mod in (solvers, cli):
        for attr in ("min_coloring", "mwis", "max_weight_clique"):
            w(mod, attr, "solvers.entry")
    w(solvers, "brute_mwis", "oracle.fallback")
    w(solvers, "brute_max_clique", "oracle.fallback")
    w(cli, "main", "cli.main")
    for attr in ("gen_bracelet", "gen_emerald", "gen_lantern", "gen_wreath", "gen_crown",
                 "random_bracelet", "random_emerald", "add_universal_clique", "glue"):
        w(forge, attr, "forge.build")


def layer_metrics(tracer, rounds):
    """Per-round per-layer figures from the spans of *rounds* rounds."""
    inc, calls, own = tracer.inclusive(), tracer.calls(), tracer.self_times()
    cnt = tracer.counters
    per = lambda x: x / rounds
    return {
        "graph.parse_s": per(inc["graph.parse"]),
        "graph.induced_calls": per(calls["graph.induced"]),
        "graph.induced_s": per(inc["graph.induced"]),
        "graph.twins_s": per(inc["graph.twins"]),
        "patterns.membership_calls": per(calls["patterns.membership"]),
        "patterns.membership_s": per(inc["patterns.membership"]),
        "patterns.hole_search_s": per(inc["patterns.hole_search"]),
        "cutset.decompose_s": per(inc["cutset.decompose"]),
        "cutset.search_calls": per(calls["cutset.search"]),
        "cutset.search_s": per(inc["cutset.search"]),
        "cutset.fallback_calls": per(calls["cutset.fallback"]),
        "cutset.fallback_hits": per(cnt["cutset.fallback_hits"]),
        "cutset.fallback_s": per(inc["cutset.fallback"]),
        "cutset.merge_s": per(inc["cutset.merge"]),
        "chordal.mwis_calls": per(calls["chordal.mwis"]),
        "chordal.mwis_s": per(inc["chordal.mwis"]),
        "chordal.clique_calls": per(calls["chordal.clique"]),
        "chordal.clique_s": per(inc["chordal.clique"]),
        "recognize.calls": per(calls["recognize.recognize"]),
        "recognize.rejected": per(cnt["recognize.rejected"]),
        "recognize.recognize_s": per(inc["recognize.recognize"]),
        "recognize.verify_s": per(inc["recognize.verify"]),
        "arcs.pca_color_calls": per(calls["arcs.pca_color"]),
        "arcs.pca_color_s": per(inc["arcs.pca_color"]),
        "arcs.extra_colors": per(cnt["arcs.extra_colors"]),
        "arcs.realize_s": per(inc["arcs.realize"]),
        "arcs.build_s": per(inc["arcs.build"]),
        "solvers.subatom_mwis_calls": per(calls["solvers.subatom_mwis"]),
        "solvers.subatom_mwis_s": per(inc["solvers.subatom_mwis"]),
        "solvers.color_atom_s": per(inc["solvers.color_atom"]),
        "solvers.atom_clique_s": per(inc["solvers.atom_clique"]),
        "solvers.self_s": per(own["solvers.entry"]),
        "oracle.fallback_calls": per(calls["oracle.fallback"]),
        "cli.self_s": per(own["cli.main"]),
    }


def setup_metrics(tracer):
    inc = tracer.inclusive()
    return {"forge.build_s": inc["forge.build"], "forge.membership_s": inc["forge.membership"]}
