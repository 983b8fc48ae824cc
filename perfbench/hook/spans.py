"""In-memory span recorder that wraps names where their callers look them up.

A span is ``(name, wall_start, duration_s, self_s, extra)``.  Spans nest
per thread: a span's self time is its duration minus the time of the
spans it directly contains on the same thread.  ``wall_start`` is
``time.time()`` so spans from several processes can be cut to one
measurement window; durations use ``time.perf_counter()``.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, function, name: str, extra=None, nested_only: bool = False):
        """``function`` wrapped to record a ``name`` span per call.

        ``extra(args, result)`` adds a JSON-ready detail on success;
        ``nested_only`` records only calls made inside another span.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if nested_only and not stack:
                return function(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            wall = time.time()
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                detail = extra(args, result) if extra is not None and result is not None else None
                recorder.spans.append((name, wall, duration, duration - children[0], detail))

        return wrapper

    def wrap(self, owner, attribute: str, name: str, **options):
        """Replace ``owner.attribute`` by a timed wrapper; returns an undo."""
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(self.timed(original.__func__, name, **options))
        else:
            replacement = self.timed(original, name, **options)
        setattr(owner, attribute, replacement)
        return lambda: setattr(owner, attribute, original)
