"""Spans for the traced run, recorded from the benchmark side.

The traced run rebinds the public functions of the bifactor modules to thin
wrappers, in every module namespace that refers to them, so calls between
modules (``cli.main`` -> ``connected_k_factor`` -> ``is_skl_free``) are
seen without touching the package.  Each call becomes one span: operation
id, parent span id, name, start, end and a small note taken from the result.
Spans stay in memory; ``write_spans`` dumps them once, when the run ends.

A span's layer is the module that defines the function.  A layer's self
time is the time its spans cover minus the time covered by their child
spans; the layer with the largest self time is the dominant one.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import bifactor.cli as cli
import bifactor.connect as connect
import bifactor.factors as factors
import bifactor.generators as generators
import bifactor.graph as graph
import bifactor.structure as structure
from bifactor.connect import StuckReport
from bifactor.factors import ViolatorCertificate
from bifactor.graph import BipartiteGraph

LAYERS = ("cli", "graph", "structure", "factors", "connect", "generators")
MODULES = (cli, connect, factors, generators, graph, structure)

# Span groups whose busy time is a metric.  Only the outermost span of a
# group counts, so is_skl_free -> find_induced_star is one star check.
GROUPS = {
    "structure.is_skl_free": "star",
    "structure.find_induced_star": "star",
    "graph.serialize_factor": "serialize",
    "factors.serialize_certificate": "serialize",
    "connect.cycle_order": "serialize",
    "graph.BipartiteGraph.is_connected": "predicates",
    "graph.BipartiteGraph.is_balanced": "predicates",
    "graph.BipartiteGraph.min_degree": "predicates",
}

# Per-layer metrics: name -> unit.  Times and counts are per pass.
PER_LAYER = {
    "structure.star_s": "s",
    "structure.star_calls": "count",
    "structure.star_share": "ratio",
    "connect.loop_s": "s",
    "connect.moves": "count",
    "connect.components_in": "count",
    "connect.s_per_move": "s",
    "connect.stuck_reports": "count",
    "connect.check_s": "s",
    "factors.solve_s": "s",
    "factors.certify_s": "s",
    "factors.calls": "count",
    "factors.certificate_ratio": "ratio",
    "factors.violator_size_sum": "count",
    "factors.audit_s": "s",
    "factors.raised": "count",
    "generators.oracle_s": "s",
    "generators.oracle_nodes": "count",
    "generators.enumerate_s": "s",
    "generators.generate_s": "s",
    "graph.parse_s": "s",
    "graph.parse_edges_per_s": "edges/s",
    "graph.serialize_s": "s",
    "graph.predicates_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly for the same seed: across the traced
# passes of one run, and across runs.
EXACT = (
    "connect.moves",
    "connect.components_in",
    "generators.oracle_nodes",
    "structure.star_calls",
    "factors.certificate_ratio",
    "factors.violator_size_sum",
)


def _note_solve(out, args, kwargs):
    if isinstance(out, ViolatorCertificate):
        return len(out.a)
    return None


def _note_parse(out, args, kwargs):
    return out.m


def _note_oracle(out, args, kwargs):
    return out.examined


class Tracer:
    """In-memory span recorder; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, name, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[sid] = (self.op, parent, name, t0, t1, "raised")
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (self.op, parent, name, t0, t1, note(out, args, kwargs) if note else None)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, op, name, fn, *args):
        """Run fn(*args) as a span of operation ``op`` (-1: set-up)."""
        self.op = op
        try:
            return self.wrap(fn, name)(*args)
        finally:
            self.op = -1

    # -- rebinding ----------------------------------------------------------

    def _rebind(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind_everywhere(self, original, replacement):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, replacement)

    def install(self):
        plain = {
            (cli, "main"): None,
            (graph, "parse_graph"): _note_parse,
            (graph, "serialize_factor"): None,
            (factors, "serialize_certificate"): None,
            (connect, "cycle_order"): None,
            (structure, "is_skl_free"): None,
            (structure, "find_induced_star"): None,
            (connect, "connected_k_factor"): None,
            (connect, "check_factor"): None,
            (factors, "find_f_factor"): _note_solve,
            (factors, "audit_certificate"): None,
            (generators, "brute_force_f_factor"): _note_oracle,
        }
        for (mod, attr), note in plain.items():
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            original = getattr(mod, attr)
            self._rebind_everywhere(original, self.wrap(original, name, note))
        for attr in ("is_connected", "is_balanced", "min_degree"):
            original = getattr(BipartiteGraph, attr)
            self._rebind(BipartiteGraph, attr, self.wrap(original, f"graph.BipartiteGraph.{attr}"))
        original = connect.connect_factor
        self._rebind_everywhere(original, self._wrap_loop(original))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap_loop(self, connect_factor):
        """connect_factor wrapper that always collects a move trace, so moves
        can be counted; the note is (components in, moves, stuck)."""
        last = {}

        def counting(graph_, factor, l=None, trace=None):
            moves = [] if trace is None else trace
            start = len(moves)
            try:
                return connect_factor(graph_, factor, l=l, trace=moves)
            finally:
                last["note"] = (factor.n_components, len(moves) - start)

        def note(out, args, kwargs):
            return (*last["note"], isinstance(out, StuckReport))

        return self.wrap(counting, "connect.connect_factor", note)

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\tnote\n")
            for sid, span in enumerate(self.spans):
                op, parent, name, t0, t1, note = span
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{'' if note is None else note}\n")



def pass_metrics(spans, first, last, op_time_s):
    """Per-layer metrics of one traced pass: spans[first:last], whose
    operations took ``op_time_s`` in total."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    child_s: dict[int, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for sid in range(last - 1, first - 1, -1):
        op, parent, name, t0, t1, note = spans[sid]
        dur = t1 - t0
        if parent >= 0:
            child_s[parent] += dur
        self_s[name.split(".")[0]] += dur - child_s.pop(sid, 0.0)
        group = GROUPS.get(name, name)
        p = parent
        while p >= 0 and GROUPS.get(spans[p][2], spans[p][2]) != group:
            p = spans[p][1]
        if p >= 0:
            continue  # nested in a span of its own group
        busy[group] += dur
        calls[group] += 1
        notes[name].append(note)
        if name == "factors.find_f_factor":
            kind = "raised" if note == "raised" else ("certify" if note is not None else "solve")
            busy[kind] += dur
    solve = notes["factors.find_f_factor"]
    sizes = [v for v in solve if isinstance(v, int)]
    loops = notes["connect.connect_factor"]
    moves = sum(n[1] for n in loops if isinstance(n, tuple))
    parse_s = busy["graph.parse_graph"]
    loop_s = busy["connect.connect_factor"]
    out = {
        "structure.star_s": busy["star"],
        "structure.star_calls": calls["star"],
        "structure.star_share": busy["star"] / op_time_s,
        "connect.loop_s": loop_s,
        "connect.moves": moves,
        "connect.components_in": sum(n[0] for n in loops if isinstance(n, tuple)),
        "connect.s_per_move": loop_s / moves if moves else 0.0,
        "connect.stuck_reports": sum(1 for n in loops if isinstance(n, tuple) and n[2]),
        "connect.check_s": busy["connect.check_factor"],
        "factors.solve_s": busy["solve"],
        "factors.certify_s": busy["certify"],
        "factors.calls": len(solve),
        "factors.certificate_ratio": len(sizes) / len(solve) if solve else 0.0,
        "factors.violator_size_sum": sum(sizes),
        "factors.audit_s": busy["factors.audit_certificate"],
        "factors.raised": solve.count("raised"),
        "generators.oracle_s": busy["generators.brute_force_f_factor"],
        "generators.oracle_nodes": sum(v for v in notes["generators.brute_force_f_factor"] if isinstance(v, int)),
        "graph.parse_s": parse_s,
        "graph.parse_edges_per_s": sum(v for v in notes["graph.parse_graph"] if isinstance(v, int)) / parse_s if parse_s else 0.0,
        "graph.serialize_s": busy["serialize"],
        "graph.predicates_s": busy["predicates"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out


def dominant_layer(metrics):
    """The layer with the largest self time, and its share of all layers'."""
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(selfs.values())
    top = max(selfs, key=selfs.get)
    return top, (selfs[top] / total if total else 0.0)


def median_metrics(per_pass):
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
