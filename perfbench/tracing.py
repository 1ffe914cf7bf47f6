"""Layer tracing for the traced benchmark run, installed from outside the package.

Spans are recorded around the public functions of each lisscheb module by
rebinding the function in every lisscheb module namespace that holds it, so
calls between modules are caught as well as calls from the benchmark.  The
package source is not modified.  Functions called millions of times
(``cos_pi_ratio``, ``lc_eval_at_index`` and the chi evaluations of the
exactness table) only bump counters; a span around each would cost more than
the work it measures.
"""

from __future__ import annotations

import collections
import functools
import math
import statistics
import sys
import time
import weakref

# Public functions that get a span, by module.
SPANNED = {
    "nodes": ("build_node_set",),
    "spectral": ("build_gamma",),
    "transform": (
        "aligned_values",
        "embed_grid",
        "coefficients_fast",
        "coefficients_naive",
        "discrete_integral",
    ),
    "interp": ("interpolate", "expansion_eval", "fundamental", "kernel_eval"),
    "quad": ("integrate", "exactness_table"),
    "verify": (
        "run_suites",
        "suite_orthogonality",
        "suite_curve",
        "suite_quadrature",
        "suite_transform",
    ),
    "cli": ("main", "cmd_interp", "cmd_eval", "cmd_quad"),
}

# NodeSet properties that materialize lazily; the first access on each
# NodeSet object gets a span, later (cached) accesses do not.
LAZY_PROPERTIES = ("lookup", "nodes")

# Counted, not spanned: (module, function, counter name, namespaces to rebind
# in; None means every lisscheb module that holds the function).
COUNTED = (
    ("trig", "cos_pi_ratio", "trig.cos_pi_ratio.calls", None),
    ("curves", "lc_eval_at_index", "curves.lc_eval_at_index.calls", None),
    ("transform", "chi_eval", "quad.exactness_chi_evals", ("quad",)),
)


class Tracer:
    """In-memory span recorder with per-pass counters.

    A span is ``[id, parent_id, name, start_ns, end_ns, child_ns]``; the
    last field accumulates the time covered by direct children, so self
    time is ``end - start - child_ns``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = collections.Counter()

    def span(self, name, fn, probe=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else -1, name, 0, 0, 0]
            spans.append(rec)
            stack.append(rec)
            rec[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[4] - rec[3]
            if probe is not None:
                probe(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def lazy_property(self, name, prop):
        seen = weakref.WeakSet()
        timed_get = self.span(name, prop.fget)

        def fget(obj):
            if obj in seen:
                return prop.fget(obj)
            seen.add(obj)
            return timed_get(obj)

        return property(fget, doc=prop.__doc__)


def _probe_gamma(counts, args, gs):
    counts["spectral.gamma_elements"] += len(gs)
    counts["spectral.gamma_candidates"] += math.prod(gs.spec.m)


def _probe_grid(counts, args, tensor):
    _, node_set = args[:2]
    grid = getattr(tensor, "array", tensor)  # GridTensor or a bare array
    counts["transform.grid_nodes"] += len(node_set)
    counts["transform.grid_cells"] += grid.size
    counts["transform.grid_bytes"] += grid.nbytes


PROBES = {
    "spectral.build_gamma": _probe_gamma,
    "transform.embed_grid": _probe_grid,
}


def _modules(package):
    prefix = package.__name__ + "."
    return [package] + [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    ]


def _rebind(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(package):
    """Wrap the package's layers in place and return the recording Tracer."""
    # cli and verify are not imported by the package itself; load them so
    # their namespaces are rebound too.
    from lisscheb import cli, nodes, verify  # noqa: F401

    tracer = Tracer()
    modules = _modules(package)
    by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
    for mod_name, funcs in SPANNED.items():
        mod = by_name[mod_name]
        for func in funcs:
            name = f"{mod_name}.{func}"
            original = getattr(mod, func)
            _rebind(modules, original,
                    tracer.span(name, original, PROBES.get(name)))
    for prop in LAZY_PROPERTIES:
        original = vars(nodes.NodeSet)[prop]
        setattr(nodes.NodeSet, prop,
                tracer.lazy_property(f"nodes.{prop}", original))
    for mod_name, func, counter, where in COUNTED:
        original = getattr(by_name[mod_name], func)
        targets = modules if where is None else [by_name[w] for w in where]
        _rebind(targets, original, tracer.counter(counter, original))
    return tracer


def pass_counts(counts):
    """The exact per-pass counts and the ratios computed from them."""
    out = {
        "trig.cos_pi_ratio.calls": counts["trig.cos_pi_ratio.calls"],
        "curves.lc_eval_at_index.calls":
            counts["curves.lc_eval_at_index.calls"],
        "quad.exactness_chi_evals": counts["quad.exactness_chi_evals"],
        "transform.grid_bytes": counts["transform.grid_bytes"],
        "spectral.keep_ratio": None,
        "transform.fill_ratio": None,
    }
    if counts["spectral.gamma_candidates"]:
        out["spectral.keep_ratio"] = (
            counts["spectral.gamma_elements"]
            / counts["spectral.gamma_candidates"]
        )
    if counts["transform.grid_cells"]:
        out["transform.fill_ratio"] = (
            counts["transform.grid_nodes"] / counts["transform.grid_cells"]
        )
    return out


def span_stats(spans):
    """Per span name: call count, median time and median self time (s)."""
    durations = collections.defaultdict(list)
    selfs = collections.defaultdict(list)
    for _, _, name, start, end, child in spans:
        durations[name].append((end - start) / 1e9)
        selfs[name].append((end - start - child) / 1e9)
    return {
        name: {
            "calls": len(durations[name]),
            "median_s": statistics.median(durations[name]),
            "self_median_s": statistics.median(selfs[name]),
        }
        for name in sorted(durations)
    }
