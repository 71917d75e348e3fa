"""Span tracer that instruments vframe from outside the package.

Every public function of the traced layers is replaced, at run time, by
a wrapper that records one span per call: name, start, end, the index
of the enclosing span and the id of the benchmark operation (one
decode, one Monte-Carlo cell) it belongs to.  The wrapper is installed
under every module attribute that holds the function, because the
package imports functions by name (``decoder`` holds its own
``poly_divmod``, ``montecarlo`` its own ``frame_id``); patching only the
defining module would miss those calls.  Spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("poly", "frames", "bounds", "decoder", "montecarlo", "cli")

# Span tuple fields, in the order they are stored and written.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._drawn: set = set()

    def begin_op(self) -> None:
        """Start a new operation id for the spans that follow."""
        self.op += 1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of LAYERS for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"vframe.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "vframe" and not modname.startswith("vframe."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(self._patched):
                setattr(mod, attr, obj)
            self._patched.clear()

    def totals(self):
        """Per span name: call count, busy time and self time.

        Busy time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.  Self time
        is a span's duration minus the durations of its direct children.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls, busy, self_s = Counter(), Counter(), Counter()
        for i, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = span[PARENT]
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:
                busy[name] += dur
        return calls, busy, self_s

    def write(self, path, header: str) -> None:
        """Write the spans as tab-separated rows; row i is span i."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")


# -- counts taken at the layer boundaries ------------------------------------

def _decode_status(tracer, args, kwargs, outcome):
    tracer.counts[f"decoder.status.{outcome.status}"] += 1


def _sampling_key(tracer, args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    if key in tracer._drawn:
        tracer.counts["montecarlo.sample_sphere_batch.repeats"] += 1
    tracer._drawn.add(key)


def _kernel_size(tracer, args, kwargs, estimate):
    """Computed work of the enumeration kernel for one estimate.

    Sizes come from the arrays the call implies: S samples against
    K = C(M, L) supports of L basis rows in C^N.  Multiply-adds are
    complex; bytes count the sample block, the basis block, the
    projection result (16 bytes per complex) and the residual matrix
    (8 bytes per real).
    """
    frame, l = args[0], args[1]
    if l < 1 or estimate.approximate:
        return
    s, n, k = estimate.n_samples, frame.n, math.comb(frame.m, l)
    tracer.counts["montecarlo.kernel.cmacs"] += s * k * l * n
    tracer.counts["montecarlo.kernel.bytes"] += 16 * (s * n + k * l * n + s * k * l) + 8 * s * k


def _cell_start(tracer, args, kwargs):
    # Each sweep cell starts with its bound evaluation, called from cli.
    stack = tracer._stack
    if stack and tracer.spans[stack[-1]][NAME].startswith("cli."):
        tracer.begin_op()


_HOOKS = {
    "decoder.decode": (None, _decode_status),
    "montecarlo.sample_sphere_batch": (_sampling_key, None),
    "montecarlo.estimate_distortion": (None, _kernel_size),
    "bounds.distortion_lower_bound": (_cell_start, None),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    calls, busy, self_s = tracer.totals()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in ("frames.make_vandermonde_frame", "bounds.distortion_lower_bound",
                 "montecarlo.sample_sphere_batch", "decoder.decode",
                 "poly.poly_divmod", "poly.poly_trim", "poly.poly_degree",
                 "poly.poly_eval", "poly.poly_mul", "poly.poly_sub"):
        out[name + ".calls"] = calls[name]
    for name in ("frames.make_vandermonde_frame", "frames.frame_id",
                 "poly.poly_divmod", "poly.poly_trim", "poly.poly_degree",
                 "poly.poly_eval", "poly.poly_mul", "poly.poly_sub",
                 "decoder.decode", "decoder.solve_key_equation",
                 "decoder.find_error_locations", "decoder.forney_values",
                 "montecarlo.sample_sphere_batch", "montecarlo.colex_supports",
                 "montecarlo.estimate_distortion", "bounds.distortion_lower_bound"):
        out[name + ".busy_s"] = busy[name]
    out["decoder.decode.self_s"] = self_s["decoder.decode"]
    out["montecarlo.estimate_distortion.self_s"] = self_s["montecarlo.estimate_distortion"]
    # The cli layer's own work (argument parsing, CSV writing) is spread
    # over main and the subcommand it dispatches to.
    out["cli.main.self_s"] = sum(t for name, t in self_s.items() if name.startswith("cli."))
    for name in ("decoder.solve_key_equation", "decoder.find_error_locations"):
        out[name + ".failed"] = counts[name + ".failed"]
    decodes = calls["decoder.decode"]
    located = calls["decoder.find_error_locations"] - counts["decoder.find_error_locations.failed"]
    out["decoder.euclid_located_ratio"] = _ratio(located, decodes)
    out["decoder.candidates_per_decode"] = _ratio(calls["decoder.forney_values"], decodes)
    for status in ("ok", "weight_exceeds_half_n", "residual_too_large"):
        out[f"decoder.status.{status}"] = counts[f"decoder.status.{status}"]
    out["montecarlo.sample_sphere_batch.repeat_ratio"] = _ratio(
        counts["montecarlo.sample_sphere_batch.repeats"], calls["montecarlo.sample_sphere_batch"])
    out["montecarlo.sampling_share"] = _ratio(
        busy["montecarlo.sample_sphere_batch"], busy["montecarlo.estimate_distortion"])
    cmacs = counts["montecarlo.kernel.cmacs"]
    out["montecarlo.kernel.cmacs"] = cmacs
    out["montecarlo.kernel.bytes"] = counts["montecarlo.kernel.bytes"]
    out["montecarlo.kernel.gcmacs_per_s"] = _ratio(
        cmacs / 1e9, self_s["montecarlo.estimate_distortion"])
    out["trace.overhead_ratio"] = overhead_ratio
    return out
