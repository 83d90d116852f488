"""Spans recorded from outside the program, around calls into its modules.

A span has a name, a start, an end and a parent (the span that was open when
it began).  Spans are kept in memory in flat arrays and summarized when a
round ends.  The program is never edited: ``install`` rebinds each traced
function in every ``pebblegames`` module namespace that holds it, because a
name bound by ``from X import f`` is a separate reference to ``f``, and
``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

PACKAGE = "pebblegames"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    info: Optional[dict] = None


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._info: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def note(self, idx: int, info: dict) -> None:
        self._info[idx] = info

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def spans(self) -> list[Span]:
        return [
            Span(self._names[n], s, e, p, self._info.get(i))
            for i, (n, s, e, p) in enumerate(
                zip(self._name, self._start, self._end, self._parent)
            )
        ]


# ---------------------------------------------------------------------------
# Arithmetic on a finished span list.


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            kids[sp.parent].append(i)
    return kids


def self_times(spans: list[Span], kids: Optional[list[list[int]]] = None) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = children(spans) if kids is None else kids
    return [
        (sp.end - sp.start)
        - _covered([(spans[k].start, spans[k].end) for k in kids[i]], sp.start, sp.end)
        for i, sp in enumerate(spans)
    ]


@dataclass
class Totals:
    s: float = 0.0  # time inside outermost spans of the name
    self_s: float = 0.0
    calls: int = 0


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Per-name time, self time and call count.

    ``s`` counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.
    """
    kids = children(spans)
    own = self_times(spans, kids)
    out: dict[str, Totals] = {}
    for i, sp in enumerate(spans):
        t = out.setdefault(sp.name, Totals())
        t.calls += 1
        t.self_s += own[i]
        p = sp.parent
        while p >= 0 and spans[p].name != sp.name:
            p = spans[p].parent
        if p < 0:
            t.s += sp.end - sp.start
    return out


# ---------------------------------------------------------------------------
# Rebinding the program's functions.

Note = Callable[[inspect.BoundArguments, object], dict]


def _wrap(tracer: Tracer, name: str, fn: Callable, note: Optional[Note]) -> Callable:
    sig = inspect.signature(fn) if note else None

    if inspect.isgeneratorfunction(fn):
        # A span per resume: the time spent producing each item, charged to
        # whichever span is open when the consumer asks for it.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
            finally:
                inner.close()

        gen_wrapper.__bench_wrapped__ = fn
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.note(idx, note(bound, result))
        return result

    wrapper.__bench_wrapped__ = fn
    return wrapper


def _package_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


Patch = tuple[object, str, object]


def install(
    tracer: Tracer, targets: list[tuple[str, str]], notes: dict[str, Note]
) -> list[Patch]:
    """Wrap ``module.function`` for each target; return what to restore.

    Span names are ``<module>.<function>`` with the package prefix dropped.
    A target that does not exist is skipped, so its metrics read zero.
    """
    modules = _package_modules()
    patches: list[Patch] = []
    for module, func in targets:
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        fn = getattr(owner, func, None)
        if fn is None or hasattr(fn, "__bench_wrapped__"):
            continue
        name = f"{module}.{func}"
        wrapped = _wrap(tracer, name, fn, notes.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
    return patches


def restore(patches: list[Patch]) -> None:
    for mod, attr, fn in reversed(patches):
        setattr(mod, attr, fn)


def leftovers(patches: list[Patch]) -> list[str]:
    """Module attributes that are not back to their originals."""
    bad = [
        f"{mod.__name__}.{attr}" for mod, attr, fn in patches if getattr(mod, attr) is not fn
    ]
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__bench_wrapped__"):
                bad.append(f"{mod.__name__}.{attr}")
    return bad
