"""The traced run: wrap each layer's public entry points from outside the
program and turn the recorded calls into per-layer metrics.

A wrapper replaces the function in its defining module and in every
``steinalg`` module that imported the name, so calls between modules are
seen too.  Each call opens a frame; on exit its duration is charged to the
parent frame, so self time is the duration minus the time of wrapped
children.  Every call is aggregated per (name, parent name).  Calls of the
non-kernel entry points are also kept as spans (name, start, end, id,
parent span id, op id) and written out at the end; kernels run 10^5 times
per op and are kept only as aggregates.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import pkgutil
import sys
import time

ENTRY_POINTS = (
    ("graph", ("load_graph", "enumerate_paths")),
    ("cylinder", ("compose_pairs", "expand", "boundary_tails", "pair_contains")),
    ("steinberg", ("convolve", "evaluate", "oracle_convolve_at", "add", "from_terms")),
    ("leavitt", ("parse_word", "eval_word")),
    ("collapse", ("collapse", "validate_collapsible", "first_hit_extensions",
                  "check_phi_fin_image", "pointed_groupoid_iso_check")),
    ("morita", ("morita_report", "surjectivity_witness", "least_connectors",
                "linking_convolve", "eq_ops_check")),
    ("cli", ("main",)),
)
CANONICAL = "steinberg.canonical"   # the SteinbergElement constructor
KERNELS = {"graph.enumerate_paths", "cylinder.compose_pairs", "cylinder.expand",
           "cylinder.boundary_tails", "cylinder.pair_contains",
           "steinberg.convolve", "steinberg.evaluate", "steinberg.add",
           "steinberg.from_terms", CANONICAL}

# Counts read from what the wrapped calls return, per (metric, unit).
COUNTS = (("cylinder.compose_pairs.hits", "count"),
          ("steinberg.canonical.terms_in", "count"),
          ("steinberg.canonical.terms_out", "count"),
          ("graph.load_graph.edges", "count"),
          ("collapse.iso.probes", "count"),
          ("collapse.iso.coverage_pairs", "count"),
          ("collapse.iso.legs_depth", "count"),
          ("collapse.iso.mult_pairs", "count"),
          ("morita.witness_targets", "count"),
          ("morita.witness_total", "count"))


def span_names():
    names = ["%s.%s" % (module, fn) for module, fns in ENTRY_POINTS for fn in fns]
    return names + [CANONICAL]


def metric_units():
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in span_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        units[name + ".errors"] = "count"
    units.update(COUNTS)
    units["cylinder.compose_pairs.hit_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- counts read from results ------------------------------------------------


def _count_hit(counts, args, result):
    if result is not None:
        counts["cylinder.compose_pairs.hits"] += 1


def _count_edges(counts, args, result):
    counts["graph.load_graph.edges"] += len(result.edges)


def _int_row(rep, section, key):
    value = rep.value(section, key)
    return int(value) if value is not None else 0


def _count_iso(counts, args, rep):
    """The iso check's window, from the Report it returns; morita-check
    renders this sub-report as a single row, so it is read here."""
    counts["collapse.iso.probes"] += _int_row(rep, "transport", "probes")
    counts["collapse.iso.coverage_pairs"] += _int_row(rep, "coverage", "pairs")
    counts["collapse.iso.legs_depth"] += _int_row(rep, "multiplicative", "legs-depth")
    counts["collapse.iso.mult_pairs"] += _int_row(rep, "multiplicative", "pairs")


def _count_witnesses(counts, args, rep):
    """Split each "N of M" witness row into targets checked and targets."""
    for side in ("psi", "phi"):
        value = rep.value("witnesses", "%s-targets" % side)
        if value is not None:
            done, total = value.split(" of ")
            counts["morita.witness_targets"] += int(done)
            counts["morita.witness_total"] += int(total)


ON_RESULT = {"cylinder.compose_pairs": _count_hit,
             "graph.load_graph": _count_edges,
             "collapse.pointed_groupoid_iso_check": _count_iso,
             "morita.morita_report": _count_witnesses}


# -- the tracer ----------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack = []          # open frames: [name, child seconds, span id]
        self.aggregates = {}     # (name, parent name) -> [calls, total s, self s, errors]
        self.spans = []          # (name, start, end, span id, parent span id, op id)
        self.counts = collections.Counter()
        self.op_id = None
        self._ops = 0
        self._next_span = 0
        self._undo = []

    def start_op(self):
        """Number the spans of the op about to run."""
        self.op_id = self._ops
        self._ops += 1

    def _call(self, name, kernel, on_result, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        parent_span = parent[2] if parent else -1
        if kernel:
            span = parent_span
        else:
            span = self._next_span
            self._next_span += 1
        frame = [name, 0.0, span]
        stack.append(frame)
        failed = True
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = self.clock()
            stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            key = (name, parent[0] if parent else "")
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - frame[1]
            agg[3] += failed
            if not kernel:
                self.spans.append((name, start - self.origin, end - self.origin,
                                   span, parent_span, self.op_id))
        if on_result is not None:
            on_result(self.counts, args, result)
        return result

    def _wrap(self, name, fn):
        kernel = name in KERNELS
        on_result = ON_RESULT.get(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, kernel, on_result, fn, args, kwargs)
        return wrapper

    def install(self):
        """Patch every entry point; undone by ``uninstall``."""
        import steinalg
        from steinalg import steinberg

        # Import every submodule first, so that none binds a wrapper by a
        # late import and keeps it after uninstall.
        for info in pkgutil.iter_modules(steinalg.__path__):
            importlib.import_module("steinalg." + info.name)
        modules = [m for n, m in sys.modules.items()
                   if n == "steinalg" or n.startswith("steinalg.")]
        for module_name, fns in ENTRY_POINTS:
            home = sys.modules["steinalg." + module_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap("%s.%s" % (module_name, fn_name), original)
                for module in modules:
                    if module.__dict__.get(fn_name) is original:
                        setattr(module, fn_name, wrapped)
                        self._undo.append((module, fn_name, original))

        cls = steinberg.SteinbergElement
        init = cls.__init__
        call = self._call

        def count_terms(counts, args, result):
            # The program passes (self, graph, ring, raw_terms) positionally;
            # a generator of raw terms is spent by now and is not counted.
            element, raw_terms = args[0], args[3]
            if hasattr(raw_terms, "__len__"):
                counts["steinberg.canonical.terms_in"] += len(raw_terms)
            counts["steinberg.canonical.terms_out"] += len(element.terms)

        @functools.wraps(init)
        def canonical(*args, **kwargs):
            return call(CANONICAL, True, count_terms, init, args, kwargs)

        cls.__init__ = canonical
        self._undo.append((cls, "__init__", init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-layer metrics per round of the workload (rounds are identical,
        so call counts divide exactly)."""
        totals = {name: [0, 0.0, 0] for name in span_names()}
        for (name, _), (calls, _, self_s, errors) in self.aggregates.items():
            t = totals[name]
            t[0] += calls
            t[1] += self_s
            t[2] += errors
        out = {}
        for name, (calls, self_s, errors) in totals.items():
            out[name + ".calls"] = calls / rounds
            out[name + ".self_s"] = self_s / rounds
            out[name + ".errors"] = errors / rounds
        for name, _ in COUNTS:
            out[name] = self.counts[name] / rounds
        calls = totals["cylinder.compose_pairs"][0]
        out["cylinder.compose_pairs.hit_ratio"] = (
            self.counts["cylinder.compose_pairs.hits"] / calls if calls else 0.0)
        return out

    def write(self, path, meta):
        """Write spans and aggregates as one JSON document."""
        doc = dict(meta)
        doc["span_fields"] = ["name", "start_s", "end_s", "id", "parent", "op"]
        doc["spans"] = self.spans
        doc["aggregate_fields"] = ["name", "parent", "calls", "total_s", "self_s", "errors"]
        doc["aggregates"] = [[name, parent] + values
                             for (name, parent), values in sorted(self.aggregates.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
