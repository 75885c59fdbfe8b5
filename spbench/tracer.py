"""In-memory span recorder for the traced run.

The tracer wraps public functions of the program from the outside (module
attributes and class methods), records one span per call — name, start,
end, parent — and restores the originals on :meth:`Tracer.uninstall`.  Only
the traced run installs it; end-to-end runs never import this module's
wrappers.  Spans are written as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, **attrs) -> int:
        """Record an already-timed span (for callers that time themselves)."""
        span = Span(len(self.spans), name, start, end, parent, attrs)
        self.spans.append(span)
        return span.span_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """One span around the ``with`` body, nested under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, attrs)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    # -- patching ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`uninstall`.

        ``count(*args, **kwargs)``, when given, sees each call's arguments
        first (for counters computed from the inputs of a layer).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            return tracer.call(name, original, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------
    def self_times(self, root_filter=None) -> Dict[str, float]:
        """Seconds of self time per span name.

        A span's self time is its duration minus the part of its interval
        covered by its child spans.  ``root_filter(root_span)`` restricts the
        sum to spans under matching root spans.
        """
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        roots = {}
        for span in self.spans:
            roots[span.span_id] = span if span.parent is None else roots[span.parent]
        totals: Dict[str, float] = {}
        for span in self.spans:
            if root_filter is not None and not root_filter(roots[span.span_id]):
                continue
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                begin, end = max(child.start, cursor), min(child.end, span.end)
                if end > begin:
                    covered += end - begin
                    cursor = end
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
        return totals

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (open in Perfetto or chrome://tracing)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span.span_id, "parent": span.parent, **span.attrs},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
