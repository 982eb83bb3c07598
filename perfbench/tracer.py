"""Outside-in tracing of ricadi's layers for the traced benchmark run.

The tracer never edits ricadi's source. It replaces a layer function at the
attribute through which its caller looks it up (``ricadi.brad.shifted.factorize``,
the kernel names bound in ``ricadi.brad``, ...) with a wrapper that records a
span, and puts the originals back on ``restore()``. A hook whose target does
not exist is recorded in ``missing`` instead of raising, so the metrics that
need it can be reported as absent after a refactor renames it.

Spans form a tree through explicit parent ids. Each thread keeps its own
stack, and the thread pool that ``expand_parallel`` uses is replaced by one
that starts each worker's stack at the span that submitted the work, so the
factorizations run in worker threads are children of their expansion.
"""

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class _ModuleView:
    """Stands in for a module; attributes set on the view shadow the module's."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else 0

    def span(self, name):
        return _SpanContext(self, name)

    def run_under(self, parent, fn, *args, **kwargs):
        """Call fn in this thread as if the span ``parent`` were open here."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def reset(self):
        with self._lock:
            self.spans = []

    # -- hooks -----------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, on_result=None):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``on_result(span, args, kwargs, result)`` may add details to the span;
        it runs after the span has closed, so its cost is not timed.
        Returns False (and notes ``name`` as missing) when there is no such
        attribute.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.add(name)
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        self._replace(owner, attr, traced)
        return True

    def wrap_module_function(self, owner, module_attr, func, name, on_result=None):
        """Trace ``owner.<module_attr>.<func>`` for this owner's lookups only.

        ``owner.<module_attr>`` is swapped for a view of the module whose
        ``func`` is traced, so other users of the module are unaffected.
        """
        module = getattr(owner, module_attr, None)
        view = _ModuleView(module) if module is not None else None
        if view is None or not self.wrap(view, func, name, on_result):
            self.missing.add(name)
            return False
        self._replace(owner, module_attr, view)
        return True

    def propagate_through_pool(self, owner, attr, name):
        """Make work submitted to ``owner.attr`` pools a child of the submitter."""
        base = getattr(owner, attr, None)
        if not isinstance(base, type):
            self.missing.add(name)
            return False
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn,
                                      *args, **kwargs)

        self._replace(owner, attr, TracedPool)
        return True

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.span = Span(id=next(tracer._ids), name=name, parent=tracer.current(),
                         start=0.0)

    def __enter__(self):
        self.tracer._stack().append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        span = self.span
        span.end = time.perf_counter()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append(span)
        return False


# -- analysis --------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


class SpanTree:
    """Parent/child index over a list of finished spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span):
        kids = self.children.get(span.id, ())
        return span.duration - _covered([(k.start, k.end) for k in kids],
                                        span.start, span.end)

    def ancestors(self, span):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent)

    def descendants(self, span):
        todo = list(self.children.get(span.id, ()))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children.get(s.id, ()))

    def named(self, *names):
        return [s for s in self.spans if s.name in names]
