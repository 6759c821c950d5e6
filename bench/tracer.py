"""Layer tracing for the benchmark, installed from outside the package.

A layer is one ``nilforms`` module.  ``install`` replaces each layer's public
functions (plus the private functions listed in ``PRIVATE`` and the methods
listed in ``METHODS``) with a wrapper, in every ``nilforms.*`` namespace that
binds them: ``from .x import y`` makes a copy of the binding,
so patching only the defining module would miss most calls.

A span is opened only when a call enters a layer from a different layer, so
``nullspace`` calling ``rref`` inside ``linalg`` is one span and one call.
A span's self time is its duration minus the durations of its direct child
spans.  Spans are timed on a clock that stops while ``paused_ns`` grows: the
benchmark adds to it the time it spends on its own work inside a query.  Event counters (``EVENTS``) count every call, whoever the caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time

# Leaf helpers called per matrix cell or per term: wrapping them would
# measure the wrapper, not the layer, and no layer metric reads them.
SKIPPED_MODULES = ("nilforms.scalars", "nilforms.errors", "nilforms.__main__")

# (module, function): private functions that another layer calls for a
# layer's work.  Other private functions are not wrapped, even when imported
# elsewhere: ``exterior_core._merge_monomials``, for one, runs once per term.
PRIVATE = (("cohomology", "_d_matrix"),)

# (module, class, method): methods that do a layer's work behind a class.
METHODS = (
    ("exterior_core", "LieAlgebra", "__init__"),
    ("cohomology", "CohomologySpace", "__init__"),
    ("cohomology", "CohomologySpace", "reduce"),
    ("polynomials", "Poly", "__mul__"),
)

# counter name -> (layer, qualified function name); counted on every call.
EVENTS = {
    "cohomology.space_requests": ("cohomology", "cohomology_space"),
    "cohomology.spaces_built": ("cohomology", "CohomologySpace.__init__"),
    "cohomology.twisted_d_calls": ("cohomology", "twisted_d"),
    "exterior_core.d_calls": ("exterior_core", "ce_d"),
    "exterior_core.wedge_calls": ("exterior_core", "wedge"),
    "structures.span_calls": ("structures", "nondegenerate_in_span"),
    "polynomials.mul_calls": ("polynomials", "Poly.__mul__"),
}


def _nonzeros(value):
    """Nonzero entries of a scalar list, a matrix, or an rref pair."""
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], list):
        value = value[0]
    if not isinstance(value, list):
        return 0
    total = 0
    for item in value:
        if isinstance(item, list):
            total += sum(1 for x in item if x != 0)
        elif item != 0:
            total += 1
    return total


def _linalg_stats(name, args, kwargs, result):
    """cells, nonzeros in, nonzeros out, rank of one call into linalg."""
    rows = args[0] if args else []
    cells = sum(len(row) for row in rows) if isinstance(rows, list) else 0
    nnz_in = _nonzeros(rows) if isinstance(rows, list) else 0
    rank = None
    if name == "rref":
        rank = len(result[1])
    elif name == "rank":
        rank = result
    elif name == "nullspace":
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        rank = ncols - len(result)
    return cells, nnz_in, _nonzeros(result), rank


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []  # (id, layer, name, start_ns, end_ns, parent_id, query)
        self.stack = []  # open spans: [id, layer, child_ns]
        self.self_ns = {}
        self.calls = {}
        self.events = dict.fromkeys(EVENTS, 0)
        self.linalg = {"cells_in": 0, "nnz_in": 0, "nnz_out": 0, "rank_sum": 0}
        self.lcs_candidates = 0
        self.span_hits = 0
        self.query = None
        self.paused_ns = 0
        self._next_id = 0

    def _clock(self):
        return time.perf_counter_ns() - self.paused_ns

    def _open(self, layer):
        span_id = self._next_id
        self._next_id += 1
        self.stack.append([span_id, layer, 0])
        return span_id, self._clock()

    def _close(self, span_id, layer, name, start):
        end = self._clock()
        _, _, child_ns = self.stack.pop()
        duration = end - start
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - child_ns
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.spans.append((span_id, layer, name, start, end, parent, self.query))

    def run_query(self, query_id, func, *args):
        """Run one benchmark query under a root span of layer ``bench``."""
        self.query = query_id
        span_id, start = self._open("bench")
        try:
            return func(*args)
        finally:
            self._close(span_id, "bench", "query", start)
            self.query = None

    def wrap(self, layer, name, func):
        event = next((key for key, target in EVENTS.items()
                      if target == (layer, name)), None)
        tracer = self

        def traced(*args, **kwargs):
            if event is not None:
                tracer.events[event] += 1
            stack = tracer.stack
            if stack and stack[-1][1] == layer:
                result = func(*args, **kwargs)
            else:
                span_id, start = tracer._open(layer)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(span_id, layer, name, start)
                if layer == "linalg":
                    tracer._observe_linalg(name, args, kwargs, result)
            if layer == "structures":
                tracer._observe_structures(name, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _observe_linalg(self, name, args, kwargs, result):
        """Matrix sizes and ranks, taken at the layer entry only."""
        cells, nnz_in, nnz_out, rank = _linalg_stats(name, args, kwargs, result)
        stats = self.linalg
        stats["cells_in"] += cells
        stats["nnz_in"] += nnz_in
        stats["nnz_out"] += nnz_out
        if rank is not None:
            stats["rank_sum"] += rank

    def _observe_structures(self, name, result):
        """lcs outcomes, taken on every call like the event counters."""
        if name == "find_lcs":
            self.lcs_candidates += result.examined
        elif name == "nondegenerate_in_span" and result is not None:
            self.span_hits += 1

    def metrics(self):
        """Per-layer metrics, named as in BENCHMARK.json."""
        def self_s(layer):
            return self.self_ns.get(layer, 0) / 1e9

        ev = self.events
        requests = ev["cohomology.space_requests"]
        return {
            "linalg.calls": self.calls.get("linalg", 0),
            "linalg.self_s": self_s("linalg"),
            **{f"linalg.{key}": value for key, value in self.linalg.items()},
            "cohomology.space_requests": requests,
            "cohomology.spaces_built": ev["cohomology.spaces_built"],
            "cohomology.cache_hit_ratio":
                1 - ev["cohomology.spaces_built"] / requests if requests else 0.0,
            "cohomology.twisted_d_calls": ev["cohomology.twisted_d_calls"],
            "cohomology.self_s": self_s("cohomology"),
            "exterior_core.d_calls": ev["exterior_core.d_calls"],
            "exterior_core.wedge_calls": ev["exterior_core.wedge_calls"],
            "exterior_core.self_s": self_s("exterior_core"),
            "structures.lcs_candidates": self.lcs_candidates,
            "structures.span_calls": ev["structures.span_calls"],
            "structures.span_hit_ratio":
                self.span_hits / ev["structures.span_calls"]
                if ev["structures.span_calls"] else 0.0,
            "structures.self_s": self_s("structures"),
            "polynomials.mul_calls": ev["polynomials.mul_calls"],
            "polynomials.self_s": self_s("polynomials"),
            "hermitian.calls": self.calls.get("hermitian", 0),
            "hermitian.self_s": self_s("hermitian"),
            "notation.calls": self.calls.get("notation", 0),
            "notation.self_s": self_s("notation"),
            "verification.self_s": self_s("verification"),
            "coordinate_model.self_s": self_s("coordinate_model"),
            "cli.self_s": self_s("cli"),
        }

    def state(self):
        """Everything ``merge`` needs, as plain JSON data."""
        return {
            "self_ns": self.self_ns, "calls": self.calls, "events": self.events,
            "linalg": self.linalg, "lcs_candidates": self.lcs_candidates,
            "span_hits": self.span_hits, "spans": self.spans,
        }

    def merge(self, state, query_id):
        """Fold in the state of a traced child process."""
        for key, value in state["self_ns"].items():
            self.self_ns[key] = self.self_ns.get(key, 0) + value
        for key, value in state["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + value
        for key, value in state["events"].items():
            self.events[key] += value
        for key, value in state["linalg"].items():
            self.linalg[key] += value
        self.lcs_candidates += state["lcs_candidates"]
        self.span_hits += state["span_hits"]
        self.spans.extend(tuple(span[:6]) + (query_id,) for span in state["spans"])

    def dump(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "layer", "name", "start_ns", "end_ns",
                                     "parent", "query"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _layer_modules():
    import nilforms

    modules = {"nilforms": nilforms}
    for info in pkgutil.iter_modules(nilforms.__path__):
        name = f"nilforms.{info.name}"
        if name not in SKIPPED_MODULES:
            modules[name] = importlib.import_module(name)
    return modules


def install(tracer):
    """Wrap every layer entry point in every namespace that binds it."""
    modules = _layer_modules()
    targets = {}  # id(function) -> (layer, name, function)
    for module in modules.values():
        for obj in vars(module).values():
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__
            if not home.startswith("nilforms.") or home not in modules:
                continue  # not a layer function, or a skipped module's
            layer = home.split(".", 1)[1]
            if obj.__name__.startswith("_") and (layer, obj.__name__) not in PRIVATE:
                continue
            targets[id(obj)] = (layer, obj.__name__, obj)
    wrappers = {key: tracer.wrap(layer, name, func)
                for key, (layer, name, func) in targets.items()}
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers and wrappers[id(obj)].__wrapped__ is obj:
                setattr(module, name, wrappers[id(obj)])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[f"nilforms.{layer}"], cls_name)
        func = cls.__dict__[method]
        traced = tracer.wrap(layer, f"{cls_name}.{method}", func)
        for attr, value in list(vars(cls).items()):
            if value is func:
                setattr(cls, attr, traced)
