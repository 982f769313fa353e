"""Layer tracing from outside the package.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
names the walk calls through ``cuspflow.excursions`` and the pipeline's
top-level calls by wrappers that open a span per call.  Spans are not
stored: a stack of open spans gives each closing span its self time
(duration minus the time its child spans cover), which is summed per layer
together with call counts taken at the same boundaries.
``_Interval.candidates`` is counted but not timed: its generator runs
inside the walk's span.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

WALK = "excursions.walk"
RECORD = "excursions.record"
REMARK = "origami.remark"
CYLINDERS = "origami.cylinders"
FILTER = "excursions.filter"
TRIMMED = "contfrac.trimmed_sum"


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nodes = 0  # _Interval.candidates calls
        self.cyl_tests = 0  # exact hit tests made by the walk
        self._stack = []  # open spans: [layer, time covered by children]

    def _span(self, layer, fn, on_result=None):
        stack = self._stack

        def wrapped(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(out)
            return out

        return wrapped

    def _count_cyl_tests(self, cyls):
        # cylinders read by the walk are hit-tested one by one; reads made
        # while building terminal records are not tests
        if self._stack and self._stack[-1][0] == WALK:
            self.cyl_tests += len(cyls)

    @contextmanager
    def installed(self, contfrac, excursions):
        """Install the wrappers; a name the package no longer has is skipped
        and its span reads 0."""
        spans = [
            (excursions, "enumerate_excursions", WALK, None),
            (excursions, "filter_excursions", FILTER, None),
            (contfrac, "trimmed_sum", TRIMMED, None),
            (excursions, "act_L", REMARK, None),
            (excursions, "act_T", REMARK, None),
            (excursions, "act_S_inv", REMARK, None),
            (excursions, "horizontal_cylinders", CYLINDERS, self._count_cyl_tests),
            (excursions, "_build_record", RECORD, None),
            (excursions, "_terminal_records", RECORD, None),
        ]
        patches = [
            (owner, name, self._span(layer, getattr(owner, name), on_result))
            for owner, name, layer, on_result in spans
            if hasattr(owner, name)
        ]
        interval = getattr(excursions, "_Interval", None)
        if interval is not None and hasattr(interval, "candidates"):
            candidates = interval.candidates

            def counted_candidates(iv):
                self.nodes += 1
                return candidates(iv)

            patches.append((interval, "candidates", counted_candidates))
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, fn in patches:
                setattr(owner, name, fn)
            yield self
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)
