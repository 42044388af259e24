"""Span tracing of the invperm layers, installed from outside the package.

The tracer replaces module attributes (and a few class methods) with thin
wrappers for the length of a traced pass and restores the originals
afterwards, so untraced runs execute the package exactly as shipped.

Two kinds of wrapper:

* span wrappers record (name, parent, start, end, tag) for calls whose
  nesting matters (a draw and its tail/head-walk children, a chain step);
* count wrappers only add to a per-name (calls, seconds) pair, for the
  hot leaf calls (RNG draws, beta lookups, rho entries) that would
  otherwise produce hundreds of thousands of spans per run.

Spans and counters stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

from invperm import counting, coupling, experiments, permutations, sampling
from invperm.rng import SamplerContext

_perf = time.perf_counter


def _is_reflected_step(args, result) -> bool:
    state = args[0]
    return 2 * state.t >= counting.max_inversions(state.n)


def _head_size(args, result) -> int:
    return args[0].head_size


# (owner, attribute, kind, span/counter name, tag function)
_TARGETS = [
    (counting, "build_table", "span", "build_table", None),
    (sampling, "build_table", "span", "build_table", None),
    (sampling.SplitSampler, "__init__", "span", "split_init", _head_size),
    (sampling.SplitSampler, "sample", "span", "sample", None),
    (sampling, "sample_composition", "span", "tail", None),
    (sampling, "sample_inversion_sequence", "span", "walk", None),
    (permutations, "decomposition_points", "span", "decomp", None),
    (experiments, "decomposition_points", "span", "decomp", None),
    (experiments, "threshold_params", "span", "params", None),
    (experiments, "run_component_census", "span", "census", None),
    (experiments, "_worker_init", "span", "worker_init", None),
    (coupling, "chain_step", "span", "step", _is_reflected_step),
    (SamplerContext, "uniform_below", "count", "uniform_below", None),
    (SamplerContext, "bernoulli_fraction", "count", "bernoulli", None),
    (SamplerContext, "categorical_weights", "count", "categorical", None),
    (coupling.BetaTable, "beta", "count", "beta", None),
    (coupling, "rho_entry", "count", "rho_entry", None),
]

COUNTERS = ("uniform_below", "bernoulli", "categorical", "beta", "rho_entry")


class Tracer:
    """In-memory span and counter store, and the wrappers that fill it."""

    def __init__(self):
        self.recording = True
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = {name: [0, 0.0] for name in COUNTERS}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body; yields the span's index."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        t0 = _perf()
        try:
            yield sid
        finally:
            t1 = _perf()
            self.stack.pop()
            self.spans[sid] = (name, parent, t0, t1, None)

    def _call_span(self, name, tag_fn, fn, args, kwargs):
        with self.span(name) as sid:
            result = fn(*args, **kwargs)
        if tag_fn is not None:
            self.spans[sid] = self.spans[sid][:4] + (tag_fn(args, result),)
        return result

    @contextlib.contextmanager
    def paused(self):
        """Run correctness checks without recording them."""
        previous = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = previous

    def _wrap(self, kind, name, tag_fn, fn):
        tracer = self
        if kind == "span":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                return tracer._call_span(name, tag_fn, fn, args, kwargs)

        elif kind == "count":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                entry = tracer.counts[name]
                t0 = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    entry[0] += 1
                    entry[1] += _perf() - t0

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with its wrapper; restore on exit."""
        originals = []
        try:
            for owner, attr, kind, name, tag_fn in _TARGETS:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(kind, name, tag_fn, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def all_spans(self) -> list:
        """Every recorded span, once none is open."""
        if any(s is None for s in self.spans):
            raise RuntimeError("span still open at the end of the trace")
        return self.spans


class NullTracer:
    """Stand-in used by untraced passes: every hook is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


NULL = NullTracer()
