"""In-memory spans at the layer boundaries of the benchmark's program calls.

A :class:`Tracer` records one span per call into a layer: its name, start,
end, the span that was open when it started, and the pass it belongs to.
Spans stay in memory and are written out once, when the run ends.  Calls
that go from one module of the program into another are timed by swapping
the imported name in the calling module for a wrapper (:meth:`Tracer.wrap`);
the program's source is never edited.  Spans read the clock the tracer
is given, so their times are in the same units as the untraced run's.

:data:`NO_TRACE` is the untraced stand-in: its spans cost one
``nullcontext`` and it wraps nothing.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self, now=perf_counter):
        self.now = now
        self.spans: list[list] = []  # [name, start, end, parent, pass]
        self.counts: list[Counter] = []  # one Counter per pass
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def start_pass(self) -> None:
        self.counts.append(Counter())

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[-1][name] += amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, self.now(), None, parent, len(self.counts) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.now()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Time every call of ``module.attr`` as a span named ``name``.

        ``counter(args, result)`` may return extra counts to add to the
        current pass; it runs after the span has closed.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.count(key, amount)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self, pass_index: int) -> Counter:
        """Summed self time per span name within one pass: each span's
        duration minus the part of it that its child spans cover."""
        totals: Counter = Counter()
        for name, start, end, _, index in self.spans:
            if index == pass_index:
                totals[name] += end - start
        for _, start, end, parent, index in self.spans:
            if index == pass_index and parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def write(self, path, header: dict) -> None:
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "pass": k}
            for i, (n, s, e, p, k) in enumerate(self.spans)
        ]
        doc = dict(header, counts=[dict(c) for c in self.counts], spans=spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


class _NoTrace:
    def start_pass(self) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def span(self, name: str):
        return nullcontext()


NO_TRACE = _NoTrace()
