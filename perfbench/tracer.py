"""In-memory span tracer that wraps layer entry points from the outside.

The program under test carries no instrumentation of its own, so the
benchmark installs wrappers around the public functions and methods at
each layer boundary (see ``layers.py``).  Every wrapped call records a
span: name, start, end, thread and the span that caused it.  Spans stay
in memory; ``summary()`` and ``dump()`` run once, when the run ends.

Self time is a span's duration minus the part covered by its direct
children on the same thread.

Wrapping a module-level function replaces every binding of the original
object in every loaded module, so ``from repro.cpu.batched import
replay_lanes`` in an importer is patched too, not only the defining
module's attribute.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Per-call extractor: ``(args, kwargs, result) -> count`` or ``None``.
Counter = Callable[[tuple, dict, Any], Optional[float]]

#: CLOCK_MONOTONIC on Linux: comparable across the harness and its children.
_clock = time.monotonic_ns


class Tracer:
    """Span stack per thread plus per-name aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        #: name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        #: name -> summed value of its per-call counter
        self.counts: Dict[str, float] = {}
        #: (id, parent_id, name, start_ns, end_ns, thread_id)
        self.spans: List[Tuple[int, int, str, int, int, int]] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> List[Any]:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        with self._lock:
            span_id = next(self._ids)
        frame = [span_id, parent, name, _clock(), 0]  # last: child ns
        stack.append(frame)
        return frame

    def end(self, frame: List[Any], count: Optional[float] = None) -> None:
        stop = _clock()
        stack = self._stack()
        stack.pop()
        duration = stop - frame[3]
        if stack:
            stack[-1][4] += duration
        self._record(frame[2], duration, duration - frame[4], count)
        with self._lock:
            self.spans.append((frame[0], frame[1], frame[2], frame[3], stop,
                               threading.get_ident()))

    def add_child_time(self, ns: int) -> None:
        """Charge ``ns`` of child work to the innermost open span."""
        stack = self._stack()
        if stack:
            stack[-1][4] += ns

    def _record(self, name: str, duration: int, self_ns: int,
                count: Optional[float]) -> None:
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
            if count is not None:
                self.counts[name] = self.counts.get(name, 0.0) + count

    def record(self, name: str, duration_ns: int,
               count: Optional[float] = None) -> None:
        """Aggregate one span whose time was accumulated piecewise."""
        self._record(name, duration_ns, duration_ns, count)

    # -- results -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: {"calls": calls, "total_s": total / 1e9,
                           "self_s": own / 1e9,
                           "count": self.counts.get(name, 0.0)}
                    for name, (calls, total, own) in self.totals.items()}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (ids, names, ns times)."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as handle:
            for span_id, parent, name, start, stop, thread in spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": stop,
                    "thread": thread}) + "\n")


def _call_wrapper(tracer: Tracer, fn: Callable[..., Any], name: str,
                  counter: Optional[Counter]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(frame, counter(args, kwargs, result)
                       if counter is not None else None)

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def _generator_wrapper(tracer: Tracer, fn: Callable[..., Iterator[Any]],
                       name: str) -> Callable[..., Iterator[Any]]:
    """Time only the generator's own steps, not its consumer's work.

    A functional pass yields one op at a time into a consumer (tape
    lowering); a span around the whole iteration would bill the
    consumer's time to the generator.  Each ``next`` is timed and the
    sum is recorded as one call, then charged to the enclosing span as
    child time so the consumer's self time excludes it.
    """
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        inner = fn(*args, **kwargs)
        spent = 0
        try:
            while True:
                start = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    spent += _clock() - start
                    return
                spent += _clock() - start
                yield item
        finally:
            tracer.record(name, spent)
            tracer.add_child_time(spent)

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def wrap_function(tracer: Tracer, module: str, attr: str, name: str,
                  counter: Optional[Counter] = None) -> int:
    """Wrap ``module.attr`` and every other module's binding of it.

    Returns the number of bindings replaced.
    """
    original = getattr(importlib.import_module(module), attr)
    wrapper = _call_wrapper(tracer, original, name, counter)
    replaced = 0
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
                replaced += 1
    return replaced


def wrap_method(tracer: Tracer, module: str, qualname: str, name: str,
                counter: Optional[Counter] = None,
                generator: bool = False) -> None:
    """Wrap ``Class.method`` on its class (every instance sees it)."""
    class_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(module), class_name)
    original = cls.__dict__[method]
    if generator:
        wrapper = _generator_wrapper(tracer, original, name)
    else:
        wrapper = _call_wrapper(tracer, original, name, counter)
    setattr(cls, method, wrapper)
