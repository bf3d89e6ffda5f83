"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each layer from outside the
program (``wrap`` patches a class or module attribute, ``uninstall``
restores them all), so the program under test carries no tracing code.  A span
records ``name, start, end, parent, scope``; the scope is the operation the
span belongs to (a training step or a serve flush cycle, numbered from 0), or
``"setup"`` / ``"eval"`` outside the measured loop.  Counters are recorded at
the same boundaries, keyed by the same scope kind.

Spans stay in memory and are aggregated when the run ends:

* a span's *self time* is its duration minus the durations of its children;
* each operation has one root span, and its self time is the ``other``
  residual: step wall not covered by any layer span;
* per operation, the self times of all its spans must add up to the root's
  duration, every span must nest inside its parent, and no self time may be
  negative (``reconcile``).

The tracer is off unless ``enabled`` is set, and a disabled wrapper is one
attribute test plus the call, so the benchmark can alternate traced and
untraced operations in one run to measure tracing overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = ["Tracer", "OP_SCOPE"]

#: counter scope of every numbered operation (training step / flush cycle).
OP_SCOPE = "op"

# Span record layout: [name, start, end, parent index, scope].
_NAME, _START, _END, _PARENT, _SCOPE = range(5)


def _kind(scope: Union[int, str]) -> str:
    """Scope kind: every numbered operation is ``OP_SCOPE``."""
    return OP_SCOPE if isinstance(scope, int) else scope


class Tracer:
    """Nested spans and counters of one benchmark run."""

    def __init__(self) -> None:
        self.enabled = False
        #: scope of new spans: operation index, "setup" or "eval".
        self.scope: Union[int, str] = "setup"
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._counters: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.scope])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][_NAME]!r} closed out "
                               f"of order (open: {self.spans[top][_NAME]!r})")

    def discard(self, idx: int) -> None:
        """Drop span ``idx`` and everything recorded after it (an operation
        that turned out not to happen, e.g. the end of an epoch)."""
        del self.spans[idx:]
        self._stack = [i for i in self._stack if i < idx]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, key: str, value: float = 1.0) -> None:
        self._counters[_kind(self.scope)][key] += value

    def counters(self, scope: str) -> Dict[str, float]:
        return dict(self._counters.get(scope, {}))

    # -- instrumentation ----------------------------------------------------

    def wrap(self, owner, attr: str, name: Union[str, Callable[..., str]],
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``name`` is the span name or a callable of the call's arguments that
        returns it.  ``before(args)`` returns state handed to
        ``after(tracer, args, result, state)``, which records counters.  Both
        run outside the span, so their cost is not charged to the layer.
        Wrapping an attribute twice is a no-op.
        """
        raw = owner.__dict__.get(attr, getattr(owner, attr))
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        if getattr(original, "__traced__", None) is self:
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            idx = tracer.begin(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer, args, result, state)
            return result

        traced.__wrapped__ = original
        traced.__traced__ = self
        self._patches.append((owner, attr, raw, attr in owner.__dict__))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span (duration minus its children's)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, child)]

    def layer_totals(self, scope_kind: str) -> Dict[str, List[float]]:
        """``name -> [self seconds, calls]`` over spans of one scope kind
        (``OP_SCOPE`` for every operation, or ``"setup"`` / ``"eval"``)."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for s, self_s in zip(self.spans, self.self_times()):
            if _kind(s[_SCOPE]) == scope_kind:
                totals[s[_NAME]][0] += self_s
                totals[s[_NAME]][1] += 1
        return dict(totals)

    def durations(self, name: str, scope_kind: str) -> List[float]:
        """Durations of every span called ``name`` in one scope kind."""
        return [s[_END] - s[_START] for s in self.spans
                if s[_NAME] == name and _kind(s[_SCOPE]) == scope_kind]

    def reconcile(self, root_name: str) -> Dict[str, float]:
        """Check that every operation's spans add up to its root span.

        Returns the traced operations' wall, their ``other`` residual and the
        largest reconciliation error; raises if a span escapes its root,
        overlaps outside its parent, or has negative self time.
        """
        if self._stack:
            raise RuntimeError("spans still open: "
                               + ", ".join(self.spans[i][_NAME] for i in self._stack))
        self_s = self.self_times()
        roots: Dict[int, int] = {}
        sums: Dict[int, float] = defaultdict(float)
        tol = 1e-7
        for idx, s in enumerate(self.spans):
            if not isinstance(s[_SCOPE], int):
                continue
            if s[_NAME] == root_name and s[_PARENT] < 0:
                if s[_SCOPE] in roots:
                    raise RuntimeError(f"operation {s[_SCOPE]} has two roots")
                roots[s[_SCOPE]] = idx
            elif s[_PARENT] < 0:
                raise RuntimeError(f"span {s[_NAME]!r} of operation "
                                   f"{s[_SCOPE]} is outside its root")
            else:
                parent = self.spans[s[_PARENT]]
                if s[_START] < parent[_START] or s[_END] > parent[_END]:
                    raise RuntimeError(f"span {s[_NAME]!r} overruns its "
                                       f"parent {parent[_NAME]!r}")
            if self_s[idx] < -tol:
                raise RuntimeError(f"span {s[_NAME]!r} has negative self time")
            sums[s[_SCOPE]] += self_s[idx]
        wall = other = error = 0.0
        for op, idx in roots.items():
            root = self.spans[idx]
            dur = root[_END] - root[_START]
            wall += dur
            other += self_s[idx]
            error = max(error, abs(sums[op] - dur))
        if error > tol:
            raise RuntimeError(f"span self times miss step wall by {error:.3g}s")
        return {"ops": float(len(roots)), "wall_s": wall, "other_s": other,
                "reconcile_error_s": error}
