"""Outside-in span tracer: wraps a program's entry points from the outside.

The benchmark never edits the program it measures. Instead, a traced run
replaces chosen functions and methods of the loaded ``repro`` modules
with thin wrappers (:class:`Patcher`) that open and close spans on one
in-memory :class:`Tracer`. Spans carry a name, a start, an end and the
span that was open when they started (their parent), so each layer's
*self* time — its duration minus the part its child spans cover — falls
out of :func:`self_times`. Everything is undone by :meth:`Patcher.restore`,
so untraced runs in the same process execute the original code.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["Tracer", "Patcher", "self_times", "covered_time"]


class Tracer:
    """Spans in flat lists (cheap to append), plus named counters.

    Spans nest on a stack: a span opened while another is open becomes
    its child. The program under test is single-threaded where the
    benchmark traces it (asyncio code is traced only inside synchronous
    calls), so a stack is an exact model of the call tree.
    """

    def __init__(self) -> None:
        self.name_ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counters; keep the span names."""
        self.span_name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.parent.append(stack[-1] if stack else -1)
        self.span_name.append(nid)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def cancel(self, index: int) -> None:
        """Forget span ``index`` (and anything opened after it)."""
        del self.span_name[index:]
        del self.start[index:]
        del self.end[index:]
        del self.parent[index:]
        while self.stack and self.stack[-1] >= index:
            self.stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    def spans(self) -> List[Tuple[str, float, float, int]]:
        """``(name, start, end, parent)`` for every recorded span."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent)
        ]

    def to_json(self) -> dict:
        """Columnar dump (names table + one array per field)."""
        return {
            "names": list(self.names),
            "name": list(self.span_name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counts": dict(self.counts),
        }


def _merged_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result is never negative and the
    self times of a tree sum to the length its root covers.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            lo = max(starts[i], starts[p])
            hi = min(ends[i], ends[p])
            if hi > lo:
                children.setdefault(p, []).append((lo, hi))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = _merged_length(children[i]) if i in children else 0.0
        out.append(max(0.0, (e - s) - covered))
    return out


def covered_time(
    starts: Sequence[float],
    ends: Sequence[float],
    counted: Sequence[bool],
    window: Tuple[float, float],
) -> float:
    """Length of ``window`` inside at least one span whose ``counted`` is true."""
    lo, hi = window
    return _merged_length(
        (max(s, lo), min(e, hi))
        for s, e, keep in zip(starts, ends, counted)
        if keep and min(e, hi) > max(s, lo)
    )


class Patcher:
    """Replaces attributes of loaded modules and classes; undoes it all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere it was imported by name.

        ``from m import f`` copies the reference into the importer, so
        every loaded ``repro`` module holding the same object is patched.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = functools.wraps(original)(make(original))
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(module, key, wrapper)

    def method(self, cls: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        """Wrap a plain method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._set(cls, attr, functools.wraps(original)(make(original)))

    def class_method(self, cls: type, attr: str,
                    make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr].__func__
        self._set(cls, attr, classmethod(functools.wraps(original)(make(original))))

    def getter(self, cls: type, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Wrap the getter of a property defined on ``cls`` itself."""
        original = cls.__dict__[attr].fget
        self._set(cls, attr, property(functools.wraps(original)(make(original))))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def span_wrapper(tracer: Tracer, name: str,
                 after: Callable = None) -> Callable[[Callable], Callable]:
    """Wrapper factory: one span per call, then ``after(args, kwargs, result)``."""
    nid = tracer.name_id(name)

    def make(original: Callable) -> Callable:
        open_, close = tracer.open, tracer.close
        if after is None:
            def wrapper(*args, **kwargs):
                index = open_(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    close(index)
        else:
            def wrapper(*args, **kwargs):
                index = open_(nid)
                try:
                    result = original(*args, **kwargs)
                finally:
                    close(index)
                after(args, kwargs, result)
                return result
        return wrapper

    return make
