"""Span tracing around the library's layer boundaries, and self-time analysis.

:class:`Tracer` wraps public methods of the library (one span per call) from
the outside: nothing under ``src/`` changes, and :meth:`Tracer.uninstall`
restores every original.  A span records its name, start, end, parent and
thread.  The parent is the innermost open span of the calling thread, except
for chunk tasks a :class:`~repro.parallel.engine.ChunkScheduler` runs on its
pool threads: those are parented to the scheduler call that submitted them.

:func:`analyse` turns spans into per-layer rows.  A layer's *self time* is the
part of its spans' intervals that no child span covers.  Where spans run at
the same time on several threads, each instant is split evenly between the
spans innermost at it, so the rows plus an ``other`` row (instants inside no
span) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def _io_result(span: "Span", result) -> None:
    span.attrs["bytes"] = len(result)


def _dispatch_result(span: "Span", result) -> None:
    span.attrs["status"] = int(result.status)
    span.attrs["bytes"] = len(result.body)


#: ``(module, class, method, span name, also wrap subclasses, result hook)``.
TARGETS: Tuple[Tuple[str, str, str, str, bool, Optional[Callable]], ...] = (
    ("repro.encoding.entropy", "EntropyCoder", "encode", "encoding.entropy.encode", True, None),
    ("repro.encoding.entropy", "EntropyCoder", "decode", "encoding.entropy.decode", True, None),
    ("repro.sz.pipeline", "SZCompressor", "compress", "sz.compress", False, None),
    ("repro.sz.pipeline", "SZCompressor", "decompress", "sz.decompress", False, None),
    ("repro.zfp.codec", "ZFPLikeCompressor", "decompress", "zfp.decompress", False, None),
    ("repro.zfp.codec", "ZFPLikeCompressor", "decompress_preview", "zfp.preview", False, None),
    ("repro.core.cfnn", "CFNN", "train", "core.train", False, None),
    ("repro.core.cfnn", "CFNN", "predict_differences", "core.predict", False, None),
    ("repro.core.compressor", "CrossFieldCompressor", "compress", "core.compress", False, None),
    ("repro.store.reader", "ChunkFetcher", "read_payload", "store.fetch", False, None),
    ("repro.store.bytestore", "ByteStore", "pread", "store.io", True, _io_result),
    ("repro.store.bytestore", "ByteStore", "view", "store.io", True, _io_result),
    ("repro.store.writer", "ArchiveWriter", "add_field", "store.writer", False, None),
    ("repro.store.reader", "ArchiveReader", "read_field", "store.reader", False, None),
    ("repro.store.reader", "ArchiveReader", "read_region", "store.reader", False, None),
    ("repro.store.reader", "ArchiveReader", "read_region_preview", "store.reader", False, None),
    ("repro.serve.service", "ArchiveService", "dispatch", "serve.dispatch", False, _dispatch_result),
)

#: Scheduler entry points whose callable runs once per chunk task.
SCHEDULER_METHODS = ("imap", "imap_unordered")


@dataclass
class Span:
    """One traced call: ``end`` is ``None`` while it is open."""

    id: int
    name: str
    start: float
    parent: int
    thread: int
    end: Optional[float] = None
    attrs: Dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; :meth:`install` wraps the library's layers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        """Start a span without making it the thread's current span."""
        if parent is None:
            stack = self._stack()
            parent_id = stack[-1].id if stack else 0
        else:
            parent_id = parent.id
        span = Span(
            next(self._ids), name, time.perf_counter(), parent_id, threading.get_ident(),
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def push(self, span: Span) -> None:
        self._stack().append(span)

    def pop(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:
            stack.remove(span)

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()

    def begin(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        span = self.open(name, parent, **attrs)
        self.push(span)
        return span

    def end(self, span: Span) -> None:
        self.close(span)
        self.pop(span)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        """Context manager form of :meth:`begin` / :meth:`end`."""
        span = self.begin(name, parent, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _traced(self, func: Callable, name: str, on_result: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                tracer.end(span)

        return traced

    def _traced_scheduler(self, method: Callable) -> Callable:
        tracer = self

        @functools.wraps(method)
        def traced(scheduler, func, items, context=None):
            items = list(items)
            jobs = 1 if scheduler.is_serial(len(items)) else scheduler.effective_jobs
            call = tracer.open("parallel.scheduler", jobs=jobs, tasks=len(items))

            def task(item):
                with tracer.span("parallel.task", parent=call):
                    return func(item)

            try:
                results = method(scheduler, task, items, context=context)
            except BaseException:
                tracer.close(call)
                raise

            def iterate():
                tracer.push(call)
                try:
                    yield from results
                finally:
                    tracer.pop(call)
                    tracer.close(call)

            return iterate()

        return traced

    def _patch(self, cls: type, attr: str, replacement: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every :data:`TARGETS` method and the scheduler entry points."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module, class_name, attr, name, subclasses, on_result in TARGETS:
            root = getattr(importlib.import_module(module), class_name)
            for cls in _with_subclasses(root) if subclasses else (root,):
                func = cls.__dict__.get(attr)
                if func is None or getattr(func, "__isabstractmethod__", False):
                    continue
                self._patch(cls, attr, self._traced(func, name, on_result))
        from repro.parallel.engine import ChunkScheduler

        for attr in SCHEDULER_METHODS:
            self._patch(ChunkScheduler, attr, self._traced_scheduler(ChunkScheduler.__dict__[attr]))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def _with_subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(
    spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], float]:
    """Per-name self seconds inside ``windows``, and the seconds no span covers.

    Spans are clipped to each window; an open span counts as ending with it.
    Every instant inside a span is credited to the spans that are innermost
    at that instant (no open child of theirs covers it), split evenly between
    them, so ``sum(rows) + other`` equals the total window length.
    """
    by_id = {span.id: span for span in spans}
    depth = _depths(by_id)
    rows: Dict[str, float] = defaultdict(float)
    other = 0.0
    for lo, hi in windows:
        clipped = []
        for span in spans:
            start = max(span.start, lo)
            end = min(hi if span.end is None else span.end, hi)
            if end > start:
                clipped.append((span, start, end))
        events = []
        for span, start, end in clipped:
            d = depth[span.id]
            events.append((start, 1, d, span))
            events.append((end, 0, -d, span))  # ends first; children end before parents
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        active: Dict[int, int] = {}  # open span id -> open child count
        linked: Dict[int, int] = {}  # open span id -> parent id it was counted under
        leaves: Dict[int, Span] = {}
        now = lo
        for when, is_start, _, span in events:
            if when > now:
                if leaves:
                    share = (when - now) / len(leaves)
                    for leaf in leaves.values():
                        rows[leaf.name] += share
                else:
                    other += when - now
                now = when
            if is_start:
                active[span.id] = 0
                leaves[span.id] = span
                parent = span.parent
                if parent in active:
                    linked[span.id] = parent
                    active[parent] += 1
                    leaves.pop(parent, None)
            else:
                active.pop(span.id, None)
                leaves.pop(span.id, None)
                parent = linked.pop(span.id, None)
                if parent in active:
                    active[parent] -= 1
                    if active[parent] == 0:
                        leaves[parent] = by_id[parent]
        other += hi - now
    return dict(rows), other


def _depths(by_id: Dict[int, Span]) -> Dict[int, int]:
    depth: Dict[int, int] = {0: 0}

    def resolve(span_id: int) -> int:
        chain = []
        while span_id not in depth:
            chain.append(span_id)
            span = by_id.get(span_id)
            span_id = span.parent if span is not None else 0
        base = depth[span_id]
        for offset, item in enumerate(reversed(chain), start=1):
            depth[item] = base + offset
        return depth[chain[0]] if chain else base

    for span_id in by_id:
        resolve(span_id)
    return depth


def _inside(start: float, windows: Iterable[Tuple[float, float]]) -> bool:
    return any(lo <= start < hi for lo, hi in windows)


def analyse(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]) -> Dict:
    """Additive per-layer totals of the spans that start inside ``windows``.

    Every value is a sum, so reports from several processes (the benchmark
    and its server) merge with :func:`merge`.
    """
    rows, other = self_times(spans, windows)
    by_id = {span.id: span for span in spans}
    counts: Dict[str, float] = defaultdict(float)
    for span in spans:
        if not _inside(span.start, windows):
            continue
        parent = by_id.get(span.parent)
        nested_same = parent is not None and parent.name == span.name
        if not nested_same:
            counts[f"{span.name}.calls"] += 1
        if span.name == "store.io" and not nested_same:
            counts["store.io.bytes"] += span.attrs.get("bytes", 0)
        elif span.name == "serve.dispatch":
            counts[f"serve.status.{span.attrs.get('status', 0)}"] += 1
            counts["serve.bytes_out"] += span.attrs.get("bytes", 0)
        elif span.name == "parallel.scheduler" and not _in_task(span, by_id):
            end = span.end if span.end is not None else span.start
            counts["parallel.capacity_s"] += (end - span.start) * span.attrs["jobs"]
            counts["parallel.tasks"] += span.attrs["tasks"]
        elif span.name == "parallel.task" and not _in_task(span, by_id):
            end = span.end if span.end is not None else span.start
            counts["parallel.task_s"] += end - span.start
    return {
        "wall_s": sum(hi - lo for lo, hi in windows),
        "other_s": other,
        "self_s": rows,
        "counts": dict(counts),
    }


def _in_task(span: Span, by_id: Dict[int, Span]) -> bool:
    """True when ``span`` runs inside a chunk task (a nested scheduler call)."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == "parallel.task":
            return True
        parent = by_id.get(parent.parent)
    return False


def merge(reports: Iterable[Dict]) -> Dict:
    """Sum :func:`analyse` reports key by key."""
    total: Dict = {"wall_s": 0.0, "other_s": 0.0, "self_s": defaultdict(float), "counts": defaultdict(float)}
    for report in reports:
        total["wall_s"] += report["wall_s"]
        total["other_s"] += report["other_s"]
        for key in ("self_s", "counts"):
            for name, value in report[key].items():
                total[key][name] += value
    total["self_s"] = dict(total["self_s"])
    total["counts"] = dict(total["counts"])
    return total
