"""In-memory span tracer that times ugsl's layers from outside the package.

The tracer replaces a public function with a wrapper under the exact name
its callers look it up by. Several ugsl modules bind functions by name at
import (``from .data import knn_graph``), so one function can need several
patches, one per binding; every binding gets the same span name. Each call
records a span (name, start, end, parent, thread, whether it raised) in a
list kept in memory; the caller aggregates the list when the run ends.

Self time is a span's duration minus the time its child spans cover. Calls
on one thread nest like a call stack, so the children of a span never
overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

# Where each traced layer is looked up, as (module, attribute, span name).
# ``training`` binds build_input_features, knn_graph, total_objective and
# compute_stats; ``positional`` and ``stats`` bind the spectral solvers;
# ``objectives`` binds encode; ``search`` binds train. The trainer reaches
# tensor ops through the ``tensor`` module object, and LayerStack.forward
# reaches the four stages through the ``layers`` module globals.
TARGETS = (
    ("ugsl.training", "train", "training.train"),
    ("ugsl.search", "train", "training.train"),
    ("ugsl.search", "sample_trial_configs", "search.sample_trial_configs"),
    ("ugsl.training", "build_input_features",
     "positional.build_input_features"),
    ("ugsl.training", "knn_graph", "data.knn_graph"),
    ("ugsl.positional", "knn_graph", "data.knn_graph"),
    ("ugsl.training", "total_objective", "objectives.total_objective"),
    ("ugsl.training", "compute_stats", "stats.compute_stats"),
    ("ugsl.layers.LayerStack", "forward", None),  # named by its mode
    ("ugsl.layers", "score", "layers.score"),
    ("ugsl.layers", "sparsify", "layers.sparsify"),
    ("ugsl.layers", "process", "layers.process"),
    ("ugsl.layers", "encode", "layers.encode"),
    ("ugsl.objectives", "encode", "layers.encode"),
    ("ugsl.objectives", "reg_closeness", "objectives.reg_closeness"),
    ("ugsl.objectives", "reg_smoothness", "objectives.reg_smoothness"),
    ("ugsl.objectives", "reg_sparse_connect", "objectives.reg_sparse_connect"),
    ("ugsl.objectives", "reg_log_barrier", "objectives.reg_log_barrier"),
    ("ugsl.objectives", "dae_loss", "objectives.dae_loss"),
    ("ugsl.objectives", "contrastive_loss", "objectives.contrastive_loss"),
    ("ugsl.tensor", "backward", "tensor.backward"),
    ("ugsl.tensor", "adam_step", "tensor.adam_step"),
    ("ugsl.tensor", "softmax_cross_entropy", "tensor.softmax_cross_entropy"),
    ("ugsl.positional", "smallest_laplacian_eigenpairs",
     "spectral.smallest_laplacian_eigenpairs"),
    ("ugsl.stats", "smallest_laplacian_eigenpairs",
     "spectral.smallest_laplacian_eigenpairs"),
    ("ugsl.stats", "dominant_eigenvalue", "spectral.dominant_eigenvalue"),
)

# An encoder run inside an unsupervised loss is that loss's work, not the
# classifier's, so its self time is booked to the nearest such ancestor.
BOOK_TO_ANCESTOR = {
    "layers.encode": ("objectives.dae_loss", "objectives.contrastive_loss"),
}


def forward_span_name(args, kwargs) -> str:
    """LayerStack.forward(self, x0, rng, training=False): one span name
    per mode, since training and evaluation forwards cost differently."""
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    return "layers.forward_train" if training else "layers.forward_eval"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    thread: int
    raised: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls. Spans of one thread nest through a
    per-thread stack; the span list is shared and appended under a lock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        """A wrapper recording one span per call of ``fn``; ``name`` is a
        string or a function of the call's (args, kwargs)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            stack = self._stack()
            span = Span(span_name, self.clock(), float("nan"),
                        stack[-1] if stack else -1, threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                stack.pop()
                span.end = self.clock()
        return traced

    def install(self, targets=TARGETS) -> None:
        """Patch every target; the originals are kept for restore()."""
        for owner_path, attr, name in targets:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap(original, name or forward_span_name))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _resolve(path: str):
    """A module, or a class inside one (``ugsl.layers.LayerStack``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_path, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module_path), cls)


def booked_name(spans: list, index: int) -> str:
    """The name a span's self time is booked under (see BOOK_TO_ANCESTOR)."""
    name = spans[index].name
    ancestors = BOOK_TO_ANCESTOR.get(name)
    if ancestors:
        parent = spans[index].parent
        while parent >= 0:
            if spans[parent].name in ancestors:
                return spans[parent].name
            parent = spans[parent].parent
    return name


def self_times(spans: list) -> dict:
    """Total self time per booked name: each span's duration minus the
    durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    totals: dict = {}
    for index, span in enumerate(spans):
        key = booked_name(spans, index)
        totals[key] = totals.get(key, 0.0) + span.duration - covered[index]
    return totals


def covered_time(spans: list) -> float:
    """Wall time during which at least one root span was open, on any
    thread: the length of the union of the root spans' intervals."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent < 0)
    total = 0.0
    run_start = run_end = None
    for start, end in intervals:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def counts(spans: list, name: str) -> tuple[int, int]:
    """(calls, calls that raised) for one span name."""
    calls = [s for s in spans if s.name == name]
    return len(calls), sum(s.raised for s in calls)
