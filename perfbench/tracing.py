"""Layer spans recorded from outside the program.

The benchmark wraps public functions of each layer (listed in
:data:`LAYER_CALLS`) for the length of a traced phase and records one span
per call: name, start, end, parent span and thread.  Spans live in memory
and are written out once, at the end of the run.  Nothing here touches
``repro.hooks``: that module has a single handler slot, which the serving
fault injector owns.

A span's parent is the innermost open span on the same thread.  Plan
replays on the serving executor thread have no open span there, so they are
parented to a synthetic ``serving.batch`` span keyed by the batch tag the
scheduler passes to ``CircuitPlan.run`` (``"<tenant>/b<index>a<attempt>"``).
"""

from __future__ import annotations

import inspect
import itertools
import json
import re
import threading
import time
from collections import defaultdict

#: (module path, attribute path, metric prefix) of every wrapped call
LAYER_CALLS = (
    ("repro.rns.primes", "PrimePool.generate", "rns.primes.generate"),
    ("repro.poly.batch_ntt", "BatchNTT.forward", "poly.batch_ntt.forward"),
    ("repro.poly.batch_ntt", "BatchNTT.inverse", "poly.batch_ntt.inverse"),
    ("repro.poly.basis_conv", "ModUp.apply", "poly.basis_conv.ModUp.apply"),
    ("repro.poly.basis_conv", "ModDown.apply", "poly.basis_conv.ModDown.apply"),
    ("repro.poly.basis_conv", "KeySwitcher.hoist", "poly.basis_conv.hoist"),
    ("repro.poly.basis_conv", "KeySwitcher.run", "poly.basis_conv.run"),
    (
        "repro.poly.basis_conv",
        "KeySwitcher.run_hoisted",
        "poly.basis_conv.run_hoisted",
    ),
    (
        "repro.poly.lazy",
        "LazyAccumulator.accumulate_product",
        "poly.lazy.accumulate_product",
    ),
    ("repro.poly.lazy", "LazyAccumulator.fold", "poly.lazy.fold"),
    ("repro.poly.lazy", "LazyAccumulator.fold_into", "poly.lazy.fold_into"),
    (
        "repro.poly.rns_poly",
        "RnsPolynomial.automorphism",
        "poly.rns_poly.automorphism",
    ),
    (
        "repro.poly.rns_poly",
        "RnsPolynomial.exact_rescale",
        "poly.rns_poly.exact_rescale",
    ),
    (
        "repro.poly.rns_poly",
        "RnsPolynomial.multiply_accumulate",
        "poly.rns_poly.multiply_accumulate",
    ),
    ("repro.scheme.keys", "KeyGenerator.__init__", "scheme.keys.KeyGenerator"),
    (
        "repro.scheme.keys",
        "KeyGenerator.relinearization_key",
        "scheme.keys.relinearization_key",
    ),
    ("repro.scheme.keys", "KeyGenerator.galois_key", "scheme.keys.galois_key"),
    ("repro.scheme.encoder", "CanonicalEncoder.encode", "scheme.encoder.encode"),
    ("repro.scheme.encoder", "CanonicalEncoder.decode", "scheme.encoder.decode"),
    ("repro.scheme.evaluator", "Evaluator.encrypt", "scheme.evaluator.encrypt"),
    ("repro.scheme.evaluator", "Evaluator.decrypt", "scheme.evaluator.decrypt"),
    ("repro.scheme.evaluator", "Evaluator.multiply", "scheme.evaluator.multiply"),
    ("repro.scheme.evaluator", "Evaluator.rescale", "scheme.evaluator.rescale"),
    ("repro.scheme.evaluator", "Evaluator.rotate", "scheme.evaluator.rotate"),
    (
        "repro.scheme.evaluator",
        "Evaluator.rotate_hoisted",
        "scheme.evaluator.rotate_hoisted",
    ),
    ("repro.scheme._linalg", "SlotLinalg.matvec", "scheme._linalg.matvec"),
    ("repro.scheme._linalg", "SlotLinalg.poly_eval", "scheme._linalg.poly_eval"),
    ("repro.scheme._circuit", "CircuitTracer.compile", "scheme._circuit.compile"),
    ("repro.scheme._circuit", "CircuitPlan.run", "scheme._circuit.run"),
    ("repro.analysis.plan_check", "check_plan", "analysis.check_plan"),
    ("repro.ml.model", "train_logreg", "ml.train_logreg"),
    ("repro.ml.model", "train_mlp", "ml.train_mlp"),
    ("repro.ml.model", "compile_model", "ml.compile_model"),
)

#: the synthetic per-batch span serving plan replays are parented to
BATCH_SPAN = "serving.batch"

#: the scheduler's plan-replay tag: tenant, batch index, attempt
_BATCH_TAG = re.compile(r"^(?P<tenant>.+)/b(?P<index>\d+)a\d+$")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, sid, name, start, end, parent, thread):
        self.id = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.thread]


class Tracer:
    """Span recorder; :meth:`install` wraps :data:`LAYER_CALLS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._batches: dict[tuple[str, int], Span] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: per-call work counters measured at the NTT boundary
        self.ntt_rows = 0
        self.ntt_bytes = 0

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer call; idempotent per install/uninstall pair."""
        import importlib

        from repro.scheme._circuit import CircuitTracer

        if self._patches:
            return
        for module_path, attr, name in LAYER_CALLS:
            owner = importlib.import_module(module_path)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, leaf)
            skip = None
            if name.startswith("scheme.evaluator."):
                # a compile-time trace of rotate runs on the tracer subclass
                def skip(args, _t=CircuitTracer):
                    return isinstance(args[0], _t)
            elif name.startswith("scheme._linalg."):
                def skip(args, _t=CircuitTracer):
                    return isinstance(args[0].ev, _t)
            measure = self._count_ntt if name.startswith("poly.batch_ntt") else None
            setattr(owner, leaf, self._wrap(original, name, skip, measure))
            self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def _count_ntt(self, args, kwargs) -> None:
        a = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        with self._lock:
            # the limb matrix is read once and its transform written once
            self.ntt_rows += a.shape[0]
            self.ntt_bytes += 2 * a.nbytes

    def _wrap(self, original, name, skip, measure):
        if isinstance(original, classmethod | staticmethod):
            inner = self._wrap(original.__func__, name, skip, measure)
            return type(original)(inner)
        is_plan_run = name == "scheme._circuit.run"
        tracer = self

        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return original(*args, **kwargs)
            if measure is not None:
                measure(args, kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif is_plan_run:
                parent = tracer._batch_span(kwargs.get("tag"))
            else:
                parent = None
            span = Span(
                next(tracer._ids), name, time.perf_counter(), None,
                parent.id if parent is not None else None,
                threading.get_ident(),
            )
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if parent is not None and parent.name == BATCH_SPAN:
                    parent.end = max(parent.end or span.end, span.end)

        traced.__wrapped__ = original
        return traced

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _batch_span(self, tag) -> Span | None:
        match = _BATCH_TAG.match(tag or "")
        if match is None:
            return None
        # one batch span across all of the batch's retry attempts
        key = (match["tenant"], int(match["index"]))
        with self._lock:
            span = self._batches.get(key)
            if span is None:
                span = Span(
                    next(self._ids), BATCH_SPAN, time.perf_counter(), None,
                    None, threading.get_ident(),
                )
                self._batches[key] = span
                self.spans.append(span)
        return span

    def batch_dispatch_times(self) -> dict[tuple[str, int], float]:
        """``(tenant, batch index) -> first plan replay start``."""
        return {key: span.start for key, span in self._batches.items()}

    # -- reduction ------------------------------------------------------------
    def self_times(self) -> dict[str, list[float]]:
        """``name -> [calls, self seconds]`` over the completed spans.

        Self time is a span's duration minus its children's: same-thread
        children nest strictly, and a batch's replays run one after another.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span.end is None:
                continue
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start - child_time[span.id]
        return out

    def covered_fraction(self, intervals) -> float:
        """Share of the union of ``intervals`` that some layer span covers."""
        busy = _union(intervals)
        total = sum(b - a for a, b in busy)
        if total <= 0:
            return 0.0
        spans = _union(
            (s.start, s.end) for s in self.spans
            if s.end is not None and s.name != BATCH_SPAN
        )
        return _overlap(busy, spans) / total

    def write(self, path) -> None:
        """Write every span as one JSON document (ids, times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "thread"],
            "spans": [s.as_list() for s in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _overlap(xs, ys) -> float:
    """Total length of the intersection of two sorted disjoint unions."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total
