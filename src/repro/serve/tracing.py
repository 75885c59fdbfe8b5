"""End-to-end job tracing: typed spans, point events, and a bounded recorder.

Every job the :class:`~repro.serve.server.RenderServer` touches leaves a
:class:`JobTrace` — the answer to "where did this slow job spend its time?":

* **Spans** (``queue``, ``build``, ``render-tile``, ``reassemble``,
  ``deliver``) are half-open intervals on the *scheduler's* clock.  Worker-
  side work (bundle builds, tile renders) is never timestamped across the
  process boundary — workers report **durations** in
  :class:`~repro.serve.backends.TileResult` fields, and the scheduler anchors
  them backwards from the moment it applied the result, so one monotonic
  timebase covers the whole trace even across processes and hosts.  The
  small right-shift this introduces (result transit) is the price of never
  comparing clocks between processes.
* **Point events** (``hedged``, ``redispatched``, ``stolen``, ``respawn``,
  ``expired``, ``rejected``, ``cancelled``, ``failed``) mark the moments the
  elasticity machinery acted.  Job-scoped events land in their job's trace;
  pool-scoped events (a respawn, a key migration) land in a bounded
  supervisor log that the export interleaves with the jobs.

Completed traces land in a **ring buffer** (``deque(maxlen=capacity)``) —
memory stays bounded under sustained traffic, the most recent jobs stay
reconstructable.  ``GET /v1/trace/{job_id}`` serves one trace as JSON;
``GET /v1/traces/export`` serves the whole ring in the Chrome trace-event
format (open the downloaded file in https://ui.perfetto.dev or
``chrome://tracing`` for a per-job flamegraph).

The clock is injectable (the server shares its own), so tests drive traces
deterministically with a fake clock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

__all__ = [
    "SPAN_NAMES",
    "EVENT_NAMES",
    "Span",
    "TraceEvent",
    "JobTrace",
    "TraceRecorder",
]

#: The typed stage spans a job trace is built from, in pipeline order.
SPAN_NAMES = ("queue", "build", "render-tile", "reassemble", "deliver")

#: The point events the scheduler and supervisor annotate traces with.
#: ``cache-hit`` marks a tile served straight from the content-addressed
#: cache; ``dedup-attach`` marks a tile that joined an identical in-flight
#: dispatch of another job instead of dispatching its own (its ``link``
#: attr ties it to the origin's ``render-tile`` span — the Chrome export
#: renders the pair as a flow arrow).  The remote backend contributes
#: ``host-lost`` (a host declared dead: EOF, torn frame, or heartbeat
#: deadline), ``reconnected`` (its connection re-established after
#: backoff), and ``local-fallback`` (a stranded tile rendered on the
#: in-process fallback shard while every host was down).
EVENT_NAMES = (
    "hedged",
    "redispatched",
    "stolen",
    "respawn",
    "expired",
    "rejected",
    "cancelled",
    "failed",
    "cache-hit",
    "dedup-attach",
    "host-lost",
    "reconnected",
    "local-fallback",
)


@dataclass(eq=False)
class Span:
    """One half-open stage interval; ``end_s`` is ``None`` while still open."""

    name: str
    start_s: float
    end_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        return None if self.end_s is None else self.end_s - self.start_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


@dataclass(eq=False)
class TraceEvent:
    """One instantaneous annotation (a hedge, a respawn, an expiry...)."""

    name: str
    ts_s: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "ts_s": self.ts_s, "attrs": dict(self.attrs)}


@dataclass(eq=False)
class JobTrace:
    """Everything recorded about one job, reconstructable after completion."""

    job_id: str
    origin_s: float
    attrs: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    state: Optional[str] = None
    finished_s: Optional[float] = None

    # ------------------------------------------------------------------
    def open_span(self, name: str) -> Optional[Span]:
        """The most recently opened still-open span of ``name`` (or None)."""
        for span in reversed(self.spans):
            if span.name == name and span.end_s is None:
                return span
        return None

    def stage_totals(self) -> Dict[str, float]:
        """Summed duration of the *closed* spans of each stage."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.end_s is not None:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals

    def as_dict(self) -> Dict[str, object]:
        """JSON document served by ``GET /v1/trace/{job_id}``."""
        return {
            "job_id": self.job_id,
            "origin_s": self.origin_s,
            "state": self.state,
            "finished_s": self.finished_s,
            "attrs": dict(self.attrs),
            "spans": [span.as_dict() for span in self.spans],
            "events": [event.as_dict() for event in self.events],
            "stage_totals_s": self.stage_totals(),
        }


class TraceRecorder:
    """Collects job traces into a bounded ring, on an injectable clock.

    Parameters
    ----------
    capacity:
        Finished traces retained (ring buffer, oldest evicted first).
        ``0`` disables recording entirely — every method becomes a cheap
        no-op, for operators who want the histogram layer without traces.
    clock:
        Monotonic time source shared with the server, so spans and the
        job bookkeeping (``submitted_at``/``finished_at``) agree exactly.
    supervisor_capacity:
        Pool-scoped events retained (respawns, stolen keys).
    """

    def __init__(
        self,
        capacity: int = 256,
        clock: Callable[[], float] = time.perf_counter,
        supervisor_capacity: int = 1024,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        if supervisor_capacity < 1:
            raise ValueError(
                f"supervisor_capacity must be at least 1, got {supervisor_capacity}"
            )
        self.capacity = capacity
        self.enabled = capacity > 0
        self._clock = clock
        self._active: Dict[str, JobTrace] = {}
        self._finished: Deque[JobTrace] = deque(maxlen=max(capacity, 1))
        #: Index over finished traces (the deque evicts; the dict follows).
        self._finished_by_id: Dict[str, JobTrace] = {}
        self.supervisor_events: Deque[TraceEvent] = deque(maxlen=supervisor_capacity)

    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock()

    def start(self, job_id: str, origin_s: Optional[float] = None, **attrs) -> None:
        """Open a job's trace (idempotent — a restart would overwrite)."""
        if not self.enabled:
            return
        self._active[job_id] = JobTrace(
            job_id=job_id,
            origin_s=self._clock() if origin_s is None else origin_s,
            attrs=dict(attrs),
        )

    def begin_span(
        self, job_id: str, name: str, start_s: Optional[float] = None, **attrs
    ) -> None:
        trace = self._active.get(job_id)
        if trace is None:
            return
        trace.spans.append(
            Span(name=name, start_s=self._clock() if start_s is None else start_s,
                 attrs=dict(attrs))
        )

    def end_span(self, job_id: str, name: str, end_s: Optional[float] = None) -> None:
        """Close the most recent open span of ``name`` (no-op when absent).

        Also finds the job among *finished* traces — the ``deliver`` span
        closes after the job reached its terminal state.
        """
        trace = self._active.get(job_id) or self._finished_by_id.get(job_id)
        if trace is None:
            return
        span = trace.open_span(name)
        if span is not None:
            span.end_s = self._clock() if end_s is None else end_s

    def add_span(
        self,
        job_id: str,
        name: str,
        start_s: float,
        end_s: float,
        **attrs,
    ) -> None:
        """Record one already-measured interval (duration-anchored spans)."""
        trace = self._active.get(job_id)
        if trace is None:
            return
        trace.spans.append(Span(name=name, start_s=start_s, end_s=end_s, attrs=dict(attrs)))

    def add_event(
        self, job_id: Optional[str], name: str, ts_s: Optional[float] = None, **attrs
    ) -> None:
        """Annotate a job (or, with ``job_id=None``, the supervisor log)."""
        if not self.enabled:
            return
        event = TraceEvent(
            name=name, ts_s=self._clock() if ts_s is None else ts_s, attrs=dict(attrs)
        )
        if job_id is None:
            self.supervisor_events.append(event)
            return
        trace = self._active.get(job_id) or self._finished_by_id.get(job_id)
        if trace is not None:
            trace.events.append(event)
        else:
            # A job the ring already evicted (or never traced): the moment is
            # still worth keeping on the supervisor track.
            event.attrs.setdefault("job_id", job_id)
            self.supervisor_events.append(event)

    def finish(self, job_id: str, state: str, finished_s: Optional[float] = None) -> None:
        """Move a job's trace into the ring (closing any span still open)."""
        trace = self._active.pop(job_id, None)
        if trace is None:
            return
        trace.state = state
        trace.finished_s = self._clock() if finished_s is None else finished_s
        for span in trace.spans:
            # The deliver span legitimately outlives the terminal state; any
            # *other* span still open at the end was cut short by it.
            if span.end_s is None and span.name != "deliver":
                span.end_s = trace.finished_s
        if len(self._finished) == self._finished.maxlen:
            evicted = self._finished[0]
            self._finished_by_id.pop(evicted.job_id, None)
        self._finished.append(trace)
        self._finished_by_id[trace.job_id] = trace

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobTrace]:
        """One job's trace — active or retained — or ``None``."""
        return self._active.get(job_id) or self._finished_by_id.get(job_id)

    def traces(self) -> List[JobTrace]:
        """Retained finished traces, oldest first, then active ones."""
        return list(self._finished) + list(self._active.values())

    def __len__(self) -> int:
        return len(self._finished) + len(self._active)

    # ------------------------------------------------------------------
    # Chrome trace-event export (Perfetto / chrome://tracing)
    # ------------------------------------------------------------------
    def export_chrome(self) -> Dict[str, object]:
        """The whole ring as a Chrome trace-event JSON document.

        One process (``render-server``), one thread lane per job plus a
        ``supervisor`` lane; stage spans become complete (``ph: "X"``)
        events and point events become instants (``ph: "i"``).  Timestamps
        are microseconds rebased to the earliest moment in the export, so
        the flamegraph starts at t=0 regardless of the clock's epoch.

        Spans carrying a ``link`` attr (the in-flight dedupe machinery sets
        one on the origin ``render-tile`` span and on every attached job's
        cache-origin span) additionally emit Chrome *flow* events: a flow
        starts (``ph: "s"``) at the origin span's end and finishes
        (``ph: "f"``) at each attached span — Perfetto draws an arrow from
        the one real dispatch to every job that reused its result.  Flow
        ids are assigned per export in first-seen order, so the document is
        deterministic under a deterministic clock.
        """
        traces = self.traces()
        moments = [trace.origin_s for trace in traces]
        moments.extend(event.ts_s for event in self.supervisor_events)
        epoch = min(moments) if moments else 0.0

        def us(ts: float) -> float:
            return max(ts - epoch, 0.0) * 1e6

        events: List[Dict[str, object]] = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "render-server"}},
            {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
             "args": {"name": "supervisor"}},
        ]
        link_ids: Dict[object, int] = {}

        def link_id(link: object) -> int:
            return link_ids.setdefault(link, len(link_ids) + 1)

        for lane, trace in enumerate(traces, start=1):
            label = "{} {}/{}".format(
                trace.job_id, trace.attrs.get("scene", "?"), trace.attrs.get("pipeline", "?")
            )
            events.append(
                {"ph": "M", "pid": 1, "tid": lane, "name": "thread_name",
                 "args": {"name": label}}
            )
            for span in trace.spans:
                end = span.end_s if span.end_s is not None else (
                    trace.finished_s if trace.finished_s is not None else self._clock()
                )
                events.append({
                    "ph": "X",
                    "pid": 1,
                    "tid": lane,
                    "name": span.name,
                    "cat": "job",
                    "ts": us(span.start_s),
                    "dur": max(end - span.start_s, 0.0) * 1e6,
                    "args": {**span.attrs, "job_id": trace.job_id},
                })
                link = span.attrs.get("link")
                if link is not None:
                    # Dedupe span links: the origin dispatch starts the flow
                    # at its span end, every attached reuse finishes it.
                    if span.attrs.get("origin") == "dedup":
                        events.append({
                            "ph": "f", "bp": "e", "pid": 1, "tid": lane,
                            "name": "dedup", "cat": "flow",
                            "id": link_id(link), "ts": us(span.start_s),
                        })
                    else:
                        events.append({
                            "ph": "s", "pid": 1, "tid": lane,
                            "name": "dedup", "cat": "flow",
                            "id": link_id(link), "ts": us(end),
                        })
            for event in trace.events:
                events.append({
                    "ph": "i",
                    "pid": 1,
                    "tid": lane,
                    "name": event.name,
                    "cat": "job",
                    "s": "t",
                    "ts": us(event.ts_s),
                    "args": {**event.attrs, "job_id": trace.job_id},
                })
        for event in self.supervisor_events:
            events.append({
                "ph": "i",
                "pid": 1,
                "tid": 0,
                "name": event.name,
                "cat": "supervisor",
                "s": "p",
                "ts": us(event.ts_s),
                "args": dict(event.attrs),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
