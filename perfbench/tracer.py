"""Outside-in tracer for the sorscn package.

The tracer never edits the package. While installed, it replaces every
module-level function of every ``sorscn`` module with a timing wrapper, at the
defining module and at each module that imported the function by name (for
example ``reservoir.spectral_radii`` is wrapped both in ``reservoir``, where
``spectral_radius`` reaches it, and in ``construct``, where ``propose_block``
calls it). A span is named after the defining module and function and also
records the call site, the span that was open when it started, and the
current op id (a build, a trial or a stream window).

Spans stay in memory until the run ends. A layer's self time is the summed
duration of its spans minus the part covered by their child spans.
``trace_faults`` checks that a recorded trace is well formed before any of
it is reported.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "sorscn"

# Traced wall time that no span covers is the caller's own bookkeeping; more
# than this share of it means calls into the package went unrecorded.
MAX_UNATTRIBUTED_SHARE = 0.05


class Span:
    __slots__ = ("name", "site", "op", "parent", "units", "start", "end", "error")

    def __init__(self, name, site, op, parent, units):
        self.name = name
        self.site = site
        self.op = op
        self.parent = parent
        self.units = units
        self.start = 0.0
        self.end = 0.0
        self.error = ""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts taken from the arguments at the call boundary.
UNITS = {
    # matrices per call (G)
    "reservoir.spectral_radii": lambda a, k: _arg(a, k, 0, "matrices").shape[0],
    # candidate steps per call (G x n)
    "reservoir.harvest_candidate_states": lambda a, k: (
        _arg(a, k, 0, "input_weights").shape[0] * _arg(a, k, 3, "inputs").shape[1]
    ),
    # samples per call (n)
    "reservoir.harvest_states": lambda a, k: _arg(a, k, 1, "inputs").shape[1],
}

# Call sites that begin a new op: run_stream harvests once per window.
OP_MARKERS = {("reservoir.harvest_states", "self_organize"): "window"}


class Tracer:
    """Span recorder; ``install`` points the package at its wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_base = ""
        self._op_count = 0
        self.op = ""
        self.wall_s = 0.0  # wall time of the traced region, set by the caller

    def begin_op(self, label: str) -> None:
        """Tag the spans that follow with ``label`` (a build, trial or model)."""
        self._op_base = label
        self._op_count = 0
        self.op = label

    def wrap(self, name: str, site: str, fn):
        units = UNITS.get(name)
        marker = OP_MARKERS.get((name, site))
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if marker is not None:
                self.op = f"{self._op_base}/{marker}{self._op_count}"
                self._op_count += 1
            span = Span(
                name,
                site,
                self.op,
                stack[-1] if stack else -1,
                units(args, kwargs) if units is not None else 0,
            )
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def install(self):
        """Wrap every function of the package at every module that holds it."""
        root = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        replaced = []
        try:
            for mod in modules:
                site = mod.__name__.rsplit(".", 1)[-1]
                for attr, obj in list(vars(mod).items()):
                    if not isinstance(obj, types.FunctionType):
                        continue
                    if not obj.__module__.startswith(PACKAGE + "."):
                        continue
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    setattr(mod, attr, self.wrap(name, site, obj))
                    replaced.append((mod, attr, obj))
            yield self
        finally:
            for mod, attr, obj in replaced:
                setattr(mod, attr, obj)


def summarize(spans: list[Span]) -> dict:
    """Per-name totals: ``self_s``, ``calls`` and ``units``; plus ``covered_s``.

    ``covered_s`` is the summed duration of root spans, the wall time that
    some span covers.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "units": 0})
    covered = 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        entry = out[s.name]
        entry["self_s"] += dur - child[i]
        entry["calls"] += 1
        entry["units"] += s.units
        if s.parent < 0:
            covered += dur
    return {"names": dict(out), "covered_s": covered}


def count_spans(spans: list[Span], name: str, site: str = None, error=None) -> int:
    """Spans of ``name`` (optionally at ``site``) that raised ``error`` (None: any;
    "": none)."""
    return sum(
        1
        for s in spans
        if s.name == name
        and (site is None or s.site == site)
        and (error is None or s.error == error)
    )


def sum_units(spans: list[Span], name: str, site: str = None) -> int:
    return sum(s.units for s in spans if s.name == name and (site is None or s.site == site))


def trace_faults(tracer: Tracer) -> list[str]:
    """What is wrong with a tracer's recorded trace; an empty list when nothing is.

    A well-formed trace has an empty span stack once the traced region has
    ended, every span ending after it starts, every child inside its parent,
    no negative self time, root spans that do not overlap, and root spans
    that cover the traced wall time ``tracer.wall_s`` up to
    ``MAX_UNATTRIBUTED_SHARE`` of it.
    """
    eps = 1e-9
    spans, wall_s = tracer.spans, tracer.wall_s
    faults = []
    if tracer._stack:
        faults.append(f"{len(tracer._stack)} span(s) still open")
    last_root_end = -float("inf")
    covered = 0.0
    for i, s in enumerate(spans):
        if s.end < s.start:
            faults.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= i:
            faults.append(f"span {i} ({s.name}) has parent {s.parent}, not an earlier span")
        elif s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start - eps or s.end > p.end + eps:
                faults.append(f"span {i} ({s.name}) lies outside its parent {s.parent}")
        else:
            if s.start < last_root_end - eps:
                faults.append(f"root span {i} ({s.name}) overlaps the one before")
            last_root_end = max(last_root_end, s.end)
            covered += s.end - s.start
    for name, entry in summarize(spans)["names"].items():
        if entry["self_s"] < -eps:
            faults.append(f"{name} has negative self time {entry['self_s']:.3g} s")
    unattributed = wall_s - covered
    if not -eps <= unattributed <= MAX_UNATTRIBUTED_SHARE * wall_s:
        faults.append(
            f"unattributed time {unattributed:.3g} s is outside [0, "
            f"{MAX_UNATTRIBUTED_SHARE:.0%}] of the traced {wall_s:.3g} s"
        )
    return faults
