"""Spans around decolab's public calls, recorded from outside the program.

``instrument(tracer)`` wraps each public function where its caller looks
it up (``decolab.scenarios.expectation_sid``, not only
``decolab.continuum.expectation_sid``) and restores the originals on exit.
A span holds its name, start, end and the index of its parent span; a
layer's self time is its spans' durations minus their children's.  Counts
labelled computed come from argument sizes and repeat exactly.
"""

import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and counters kept in memory until the benchmark writes them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.unbound = []
        self._stack = []

    def call(self, name, fn, args, kwargs):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def span_count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def root_time(self):
        return sum(end - start for _, start, end, parent in self.spans
                   if parent is None)


# counters: (arguments in signature order, result) -> {count: increment};
# they read arguments by position so that a renamed parameter keeps working

def _terms(args, result):
    # the double sum over the N x N grid at every requested time
    state, _, t = args[:3]
    return {"continuum.expectation_sid.terms":
            state.grid.size ** 2 * int(np.size(t))}


def _table_rows(args, result):
    # the loader requires every grid pair exactly once
    return {"continuum.load_table_kernel.rows": args[1].size ** 2}


def _amplitudes(args, result):
    params, times = args[:2]
    return {"open_system.spin_bath_reduced_dynamics.amplitudes":
            int(np.size(times)) * 2 ** (params.n_spins + 1)}


def _fit_outcome(args, result):
    return {"fits.attempts": 1, "fits.ok": int(result.ok)}


def _bytes_written(args, result):
    return {"timeseries.csv_bytes_written": os.path.getsize(args[1])}


def _bytes_read(args, result):
    return {"timeseries.csv_bytes_read": os.path.getsize(args[1])}


def _rhs_evals(args, result):
    return {"master_eq.rhs_evals": int(result.nfev)}


def _nz_span(args, kwargs):
    if kwargs.get("kernel_window") is None:
        return "master_eq.nz_memory"
    return "master_eq.nz_windowed"


# (module, class or None, attribute, span name or callable or None, counter)
BINDINGS = (
    ("decolab.cli", None, "main", "cli.main", None),
    ("decolab.cli", None, "ordering_report", "fits", None),
    ("decolab.scenarios", None, "parse_config", "scenarios.parse_config", None),
    ("decolab.scenarios", None, "run_scenario", "scenarios.run_scenario", None),
    ("decolab.scenarios", None, "expectation_sid", "continuum.expectation_sid",
     _terms),
    ("decolab.scenarios", None, "load_table_kernel",
     "continuum.load_table_kernel", _table_rows),
    ("decolab.scenarios", None, "gaussian_scenario", "continuum.build", None),
    ("decolab.continuum", "VanHoveState", "__post_init__", "continuum.build",
     None),
    ("decolab.continuum", "VanHoveObservable", "__post_init__",
     "continuum.build", None),
    ("decolab.scenarios", None, "spin_bath_reduced_dynamics",
     "open_system.spin_bath_reduced_dynamics", _amplitudes),
    ("decolab.scenarios", None, "purity", "open_system.purity", None),
    ("decolab.scenarios", None, "evolve_linear_generator",
     "master_eq.evolve_linear_generator", None),
    ("decolab.fits", None, "fit_decoherence_time", "fits", _fit_outcome),
    ("decolab.fits", None, "fit_relaxation_time", "fits", _fit_outcome),
    ("decolab.fits", None, "detect_weak_limit", "fits", None),
    ("decolab.timeseries", "TimeSeries", "to_csv", "timeseries.to_csv",
     _bytes_written),
    ("decolab.timeseries", "TimeSeries", "from_csv", "timeseries.from_csv",
     _bytes_read),
    ("decolab.open_system", None, "evolve_unitary",
     "open_system.evolve_unitary", None),
    ("decolab.open_system", None, "build_projector",
     "liouville.build_projector", None),
    ("decolab.liouville", None, "build_projector",
     "liouville.build_projector", None),
    ("decolab.liouville", None, "coarse_grain", "liouville.coarse_grain", None),
    ("decolab.master_eq", None, "build_liouvillian",
     "master_eq.build_liouvillian", None),
    ("decolab.master_eq", None, "evolve_master_exact",
     "master_eq.evolve_master_exact", None),
    ("decolab.master_eq", None, "evolve_nakajima_zwanzig", _nz_span, None),
    # no span: solve_ivp runs inside the master_eq spans; only count
    ("decolab.master_eq", None, "solve_ivp", None, _rhs_evals),
)


def _wrapper(tracer, fn, span, counter):
    signature = inspect.signature(fn)

    def wrapped(*args, **kwargs):
        name = span(args, kwargs) if callable(span) else span
        result = tracer.call(name, fn, args, kwargs) if name \
            else fn(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs).arguments
            for key, n in counter(list(bound.values()), result).items():
                tracer.counts[key] += n
        return result

    return wrapped


@contextmanager
def instrument(tracer):
    """Wrap every binding in BINDINGS for the duration of the block.

    A binding the program no longer has is listed in ``tracer.unbound``
    and its metrics stay at zero.
    """
    saved = []
    try:
        for module, cls, attr, span, counter in BINDINGS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                tracer.unbound.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(_wrapper(tracer, raw.__func__, span, counter))
            else:
                new = _wrapper(tracer, raw, span, counter)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# span name -> metric holding its self time
SELF_TIME_METRICS = {
    "cli.main": "cli.main.self_s",
    "scenarios.run_scenario": "scenarios.run_scenario.self_s",
}
CALL_METRICS = ("continuum.expectation_sid", "open_system.purity", "fits")
# exact work counts, computed from argument and file sizes
COUNT_METRICS = (
    "continuum.expectation_sid.terms",
    "continuum.load_table_kernel.rows",
    "open_system.spin_bath_reduced_dynamics.amplitudes",
    "master_eq.rhs_evals",
    "timeseries.csv_bytes_written",
    "timeseries.csv_bytes_read",
)
SPAN_NAMES = (
    "cli.main", "scenarios.parse_config", "scenarios.run_scenario",
    "continuum.expectation_sid", "continuum.load_table_kernel",
    "continuum.build", "open_system.spin_bath_reduced_dynamics",
    "open_system.purity", "open_system.evolve_unitary",
    "master_eq.evolve_master_exact", "master_eq.nz_memory",
    "master_eq.nz_windowed", "master_eq.evolve_linear_generator",
    "master_eq.build_liouvillian", "liouville.coarse_grain",
    "liouville.build_projector", "fits", "timeseries.to_csv",
    "timeseries.from_csv",
)


def layer_metrics(tracer, traced_wall, untraced_wall):
    """Per-layer values by metric name; self times plus unspanned_s sum to
    traced_wall_s."""
    self_times = tracer.self_times()
    out = {SELF_TIME_METRICS.get(name, name + ".s"): self_times.get(name, 0.0)
           for name in SPAN_NAMES}
    out.update({name + ".calls": tracer.span_count(name)
                for name in CALL_METRICS})
    out.update({name: tracer.counts[name] for name in COUNT_METRICS})
    attempts = tracer.counts["fits.attempts"]
    out["fits.ok_ratio"] = tracer.counts["fits.ok"] / attempts if attempts \
        else 0.0
    out["traced_wall_s"] = traced_wall
    out["unspanned_s"] = traced_wall - tracer.root_time()
    out["trace_overhead_s"] = traced_wall - untraced_wall
    return out


def dump(tracer):
    """Spans as JSON-able records with parent links."""
    return [{"id": k, "name": name, "start": start, "end": end,
             "parent": parent}
            for k, (name, start, end, parent) in enumerate(tracer.spans)]
