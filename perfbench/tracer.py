"""Span recorder for the traced benchmark run.

The recorder wraps chosen qcablocks functions from outside the package: a
function is replaced at every module attribute that holds it, so a call is
seen whichever module it is looked up through (``qcablocks.decompose.restrict``
as well as ``qcablocks.algebra.restrict``).  Methods are wrapped on their
class.  Each call becomes a span with its name, start, end, parent and task
id; spans stay in memory until the run writes them out.

Self time is a span's duration minus the durations of its child spans (one
thread, so children never overlap).  A recorder made with ``memory=True``
also runs ``tracemalloc``: a span's peak is the traced peak inside it above
the traced memory at its start; the peak counter is reset around every
child and the child's peak is folded back into the parent, so nested spans
each get their own figure.  ``tracemalloc`` slows allocation-heavy Python
code several times over, so times come from a recorder without it.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Traced functions: (layer, home module, attribute path).  The metric
# prefix is "<layer>.<attribute path>".
TRACED = [
    ("decompose", "qcablocks.decompose", "decompose_certified"),
    ("decompose", "qcablocks.decompose", "cell_algebra_images"),
    ("decompose", "qcablocks.decompose", "derive_v"),
    ("decompose", "qcablocks.decompose", "derive_u"),
    ("decompose", "qcablocks.decompose", "certify"),
    ("algebra", "qcablocks.algebra", "span_algebra"),
    ("algebra", "qcablocks.algebra", "GeneratedAlgebra.projection_residual"),
    ("algebra", "qcablocks.algebra", "close"),
    ("algebra", "qcablocks.algebra", "restrict"),
    ("algebra", "qcablocks.algebra", "factor_pair"),
    ("algebra", "qcablocks.algebra", "factor_one"),
    ("verify", "qcablocks.verify", "neighborhood"),
    ("verify", "qcablocks.verify", "check_inverse_locality"),
    ("verify", "qcablocks.verify", "fast_localization_residual"),
    ("verify", "qcablocks.verify", "check_unitary"),
    ("verify", "qcablocks.verify", "check_shift_invariance"),
    ("verify", "qcablocks.verify", "detect_signalling"),
    ("verify", "qcablocks.verify", "block_neighborhood"),
    ("linalg", "qcablocks.linalg", "localization_residual"),
    ("linalg", "qcablocks.linalg", "partial_trace"),
    ("linalg", "qcablocks.linalg", "trace_distance"),
    ("model", "qcablocks.model", "apply_block"),
    ("model", "qcablocks.model", "restrict_state"),
    ("model", "qcablocks.model", "apply_window"),
    ("model", "qcablocks.model", "window_matrix"),
    ("model", "qcablocks.model", "quantize"),
    ("serialize", "qcablocks.serialize", "load"),
    ("serialize", "qcablocks.serialize", "qca_from_json"),
    ("cli", "qcablocks.cli", "main"),
]
# Report builders, summed into serialize.report_self_s.
BUILDER_SUFFIX = "_to_json"


def _apply_block_counts(args, kwargs, result):
    """Output terms, and amplitudes computed: apply_block expands each
    non-vacuum configuration of support width s to a d^(s+3) vector."""
    state = args[0] if args else kwargs["state"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    computed = sum(g.d ** (len(c.word) + 3) for c in state.terms if c.word)
    return {"terms_out": len(result.terms), "computed": computed}


COUNTERS = {"model.apply_block": _apply_block_counts}


class Span:
    __slots__ = ("id", "name", "task", "parent", "start", "end", "child_s",
                 "base", "peak_abs", "counts")

    def __init__(self, sid, name, task, parent, start, base):
        self.id, self.name, self.task, self.parent = sid, name, task, parent
        self.start, self.end = start, start
        self.child_s = 0.0
        self.base = self.peak_abs = base
        self.counts = None

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s

    @property
    def peak_bytes(self) -> int:
        return self.peak_abs - self.base

    def as_row(self, t0: float) -> list:
        return [self.id, self.name, self.task, self.parent, self.start - t0,
                self.end - t0, self.self_s, self.peak_bytes, self.counts]


class Recorder:
    """Collects spans while installed; ``task`` labels the spans that
    follow ("setup" or a task index)."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.task = "setup"
        self.t0 = time.perf_counter()

    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak_abs = max(parent.peak_abs, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans) + len(self.stack), name, self.task,
                    parent.id if parent is not None else None, 0.0, cur)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if self.memory:
                span.peak_abs = max(span.peak_abs, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            if parent is not None:
                parent.child_s += span.end - span.start
                parent.peak_abs = max(parent.peak_abs, span.peak_abs)
            self.spans.append(span)
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function at each qcablocks module attribute that
        holds it (and start tracemalloc for a memory recorder); undo on exit."""
        targets = []
        for layer, home, path in TRACED:
            owner = sys.modules[home]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            targets.append((f"{layer}.{path}", owner, attr))
        ser = sys.modules["qcablocks.serialize"]
        targets += [(f"serialize.{attr}", ser, attr) for attr in vars(ser)
                    if attr.endswith(BUILDER_SUFFIX) and callable(getattr(ser, attr))]
        modules = [m for k, m in list(sys.modules.items())
                   if k == "qcablocks" or k.startswith("qcablocks.")]
        patched = []
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        patched.append((holder, key, original))
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    # ------------------------------------------------------------ metrics

    def layer_metrics(self, n_tasks: int, memory: "Recorder") -> dict:
        """Per-layer figures for one set-up plus one average task: setup
        spans count once, task spans are divided by ``n_tasks``.  Peaks are
        the largest over the spans of the ``memory`` recorder."""
        def share(values_by_task):
            setup = sum(v for t, v in values_by_task if t == "setup")
            tasks = sum(v for t, v in values_by_task if t != "setup")
            return setup + tasks / n_tasks

        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        peaks = defaultdict(int)
        for s in memory.spans:
            peaks[s.name] = max(peaks[s.name], s.peak_bytes)
        out = {}
        for layer, _, path in TRACED:
            name = f"{layer}.{path}"
            spans = by_name.get(name, [])
            out[f"{name}.self_s"] = share([(s.task, s.self_s) for s in spans])
            out[f"{name}.calls"] = share([(s.task, 1) for s in spans])
            out[f"{name}.peak_mb"] = peaks[name] / 2**20
        builders = [s for s in self.spans if s.name.startswith("serialize.")
                    and s.name.endswith(BUILDER_SUFFIX)]
        out["serialize.report_self_s"] = share([(s.task, s.self_s) for s in builders])

        applies = [s for s in by_name.get("model.apply_block", []) if s.counts]
        terms = sum(s.counts["terms_out"] for s in applies)
        computed = sum(s.counts["computed"] for s in applies)
        out["model.apply_block.terms_out"] = share(
            [(s.task, s.counts["terms_out"]) for s in applies])
        out["model.apply_block.useful_ratio"] = terms / computed if computed else 0.0

        hoods = {s.id for s in by_name.get("verify.neighborhood", [])}
        parent_of = {s.id: s.parent for s in self.spans}

        def under_neighborhood(s):
            p = s.parent
            while p is not None:
                if p in hoods:
                    return True
                p = parent_of.get(p)
            return False

        inner = sum(1 for s in by_name.get("verify.fast_localization_residual", [])
                    if under_neighborhood(s))
        out["verify.fast_localization_residual.calls_per_neighborhood"] = (
            inner / len(hoods) if hoods else 0.0)
        return out

    def rows(self) -> list:
        return [s.as_row(self.t0) for s in sorted(self.spans, key=lambda s: s.id)]
