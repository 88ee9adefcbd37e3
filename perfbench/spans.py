"""Span recorder that times calls into a program's modules from outside.

A call site is a module attribute that the program looks up at call time,
such as ``pagelayout.orient.polygon_iou`` (the dedup call site) or
``pagelayout.metrics.polygon_iou`` (the matching one).  ``installed``
replaces each site with a wrapper that records a span (name, start, end,
parent, page) and restores the originals on exit, whatever happens inside.
Spans stay in memory; ``write_spans`` dumps them once the run is over.

A span's self time is its duration minus the part of it that its child
spans cover, so self times of all spans under a root add up to the root's
duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Site:
    """``module[.cls].attr``: where the program looks the function up."""

    module: str
    attr: str
    cls: str | None = None
    # counter(recorder, bound_arguments, result, raised) adds counts at this boundary
    counter: Callable | None = None

    @property
    def name(self) -> str:
        short = self.module.rsplit(".", 1)[-1]
        return ".".join(p for p in (short, self.cls, self.attr) if p)

    def target(self):
        obj = importlib.import_module(self.module)
        return getattr(obj, self.cls) if self.cls else obj

    def current(self):
        """What the site holds now (a class's own attribute for methods)."""
        target = self.target()
        return target.__dict__[self.attr] if self.cls else getattr(target, self.attr)


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    page: object


class Recorder:
    """Collects spans and named per-page counts for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[object, str], float] = {}
        self.page: object = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter_ns(), 0, parent, self.page))
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def add(self, counter: str, value: float = 1.0):
        key = (self.page, counter)
        self.counts[key] = self.counts.get(key, 0.0) + value


def _wrap(recorder: Recorder, site: Site, fn):
    name = site.name
    counter = site.counter
    signature = inspect.signature(fn) if counter is not None else None

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(idx)
            if counter is not None:
                counter(recorder, arguments(args, kwargs), None, True)
            raise
        recorder.close(idx)
        if counter is not None:
            counter(recorder, arguments(args, kwargs), result, False)
        return result

    return wrapper


@contextmanager
def installed(recorder: Recorder, sites):
    """Wrap every site for the duration of the block, then put the originals back."""
    originals = []
    try:
        for site in sites:
            target, original = site.target(), site.current()
            originals.append((target, site.attr, original))
            setattr(target, site.attr, _wrap(recorder, site, original))
        yield recorder
    finally:
        for target, attr, original in reversed(originals):
            setattr(target, attr, original)


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the time its direct children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered_ns(s.start, s.end, children.get(i, ())) for i, s in enumerate(spans)]


def write_spans(spans: list[Span], path) -> None:
    """One CSV line per span: index, name, start_ns, end_ns, parent, page."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent,page\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.start},{s.end},{s.parent},{s.page}\n")
