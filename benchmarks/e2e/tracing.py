"""Spans around calls into each layer, recorded from the benchmark side.

:class:`Tracer` replaces a listed public function or method with a
wrapper that records one span per call: ``[op, name, start, end,
parent, size]``.  ``op`` is the benchmark operation the call belongs
to (the enclosing :meth:`Tracer.root`), ``parent`` the index of the
enclosing span (-1 for a root) and ``size`` an optional number taken
from the call's arguments (payload bytes).  Spans stay in memory; the
benchmark writes them out as JSON when it ends.  :meth:`Tracer.restore`
puts every original back and checks that it is back.

The wrappers see only the process they run in: work inside spawned
pool workers is invisible here and shows up as time inside the parent's
call that waited for it.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: span fields, by index.
OP, NAME, START, END, PARENT, SIZE = range(6)


class Tracer:
    """In-memory span recorder over wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = -1
        self._patched: List[tuple] = []

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span starting a new operation; yields its op id."""
        self._op += 1
        index = self._open(name, None, self._op)
        try:
            yield self._op
        finally:
            self._close(index)

    def _open(self, name: str, size: Optional[float], op: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([op, name, time.perf_counter(), 0.0, parent, size])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter()

    def wrap(self, owner: Any, attr: str, name: str,
             size: Optional[Callable[[tuple], float]] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``.  ``owner`` is a class (plain and class methods
        defined on it) or a module; ``size(args)`` may extract a number
        from the positional arguments."""
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__name__}.{attr} is inherited; wrap it where "
                    f"it is defined")
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        bound = isinstance(original, classmethod)
        target = original.__func__ if bound else original
        tracer = self

        def wrapper(*args, **kwargs):
            # A call outside every root belongs to no operation (-1).
            op = tracer._op if tracer._stack else -1
            index = tracer._open(name, size(args) if size else None, op)
            try:
                return target(*args, **kwargs)
            finally:
                tracer._close(index)

        setattr(owner, attr, classmethod(wrapper) if bound else wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back; raises if one did not
        return to the exact original object."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            if current is not original:
                raise RuntimeError(f"{attr} on {owner!r} was not restored")


class NullTracer:
    """The untraced run: roots cost one no-op context manager."""

    _root = contextlib.nullcontext(-1)

    def root(self, name: str):
        return self._root


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap (calls nest on one thread), so
    the covered time is the sum of the children's durations.
    """
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q < 1) as the sample at sorted index
    ``floor(q * n)``, the higher of the two nearest ranks.

    For a median over whole rounds of a fixed mix this picks the
    fastest sample of the slower half, not an average across the gap
    between two programs' latencies, which would swing with the
    slowest sample of the faster half.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spans_to_json(spans: Sequence[Sequence]) -> Dict[str, list]:
    """The on-disk form: field names plus one row per span."""
    return {"fields": ["op", "name", "start", "end", "parent", "size"],
            "spans": [list(span) for span in spans]}
