"""Edge observability: what the HTTP layer adds on top of ``ServerStats``.

The render server's :class:`~repro.serve.telemetry.ServerStats` describes
jobs and tiles; the edge describes *connections and clients* — how many
sockets and SSE streams are open, who is being rate-limited, how deep each
client's fairness queue is, and how long HTTP request handling itself takes
(parse → route → response written, SSE excluded since a stream's duration is
the job's, not the handler's).  ``GET /v1/stats`` returns both, merged::

    {"server": ServerStats.as_dict(), "edge": HttpEdgeStats.as_dict()}
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.serve.metrics import (
    StreamingHistogram,
    counter,
    gauge,
    metric_families,
    prometheus_histogram,
)

__all__ = ["HttpEdgeStats", "HttpEdgeTelemetry"]


@dataclass
class HttpEdgeStats:
    """One flat snapshot of the HTTP edge (counters are lifetime totals).

    Fields are in ``/v1/metrics`` order; ``bad_requests_400`` and
    ``not_found_404`` are exported through ``repro_edge_responses_total``.
    """

    connections_total: int = counter("repro_edge_connections_total", "TCP connections accepted.")
    requests_total: int = counter("repro_edge_requests_total", "HTTP requests answered.")
    rate_limited_429: int = counter(
        "repro_edge_rate_limited_429_total", "Submissions refused by the rate limiter.")
    queue_full_429: int = counter(
        "repro_edge_queue_full_429_total", "Submissions refused by the fairness-queue bound.")
    admission_429: int = counter(
        "repro_edge_admission_429_total", "Submissions the server's admission control rejected.")
    jobs_submitted: int = counter(
        "repro_edge_jobs_submitted_total", "Jobs the edge successfully submitted.")
    jobs_cancelled_by_disconnect: int = counter(
        "repro_edge_jobs_cancelled_by_disconnect_total",
        "Jobs cancelled after a stream disconnect.")
    sse_streams_total: int = counter("repro_edge_sse_streams_total", "SSE streams opened.")
    sse_events_sent: int = counter(
        "repro_edge_sse_events_sent_total", "SSE events written to sockets.")
    responses_by_status: Dict[str, int] = counter(
        "repro_edge_responses_total", "HTTP responses by status code.",
        label="status", default_factory=dict)
    active_connections: int = gauge(
        "repro_edge_active_connections", "Currently open TCP connections.")
    active_sse_streams: int = gauge("repro_edge_active_sse_streams", "Currently open SSE streams.")
    bad_requests_400: int = 0
    not_found_404: int = 0
    request_latency_p50_s: float = float("nan")
    request_latency_p95_s: float = float("nan")
    per_client_queue_depth: Dict[str, int] = field(default_factory=dict)
    per_client_in_flight: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready flat mapping (what ``/v1/stats`` and benchmarks emit)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class HttpEdgeTelemetry:
    """Accumulates edge observations; :meth:`snapshot` flattens them.

    Mutated from two places with an explicit division of labour: connection
    and request counters (plain attribute adds on ``stats``) from the event
    loop's handlers, queue/in-flight gauges read from the scheduler thread's
    fairness structures at snapshot time.  Every mutation is a single
    int/dict op under the GIL, so no lock is needed for counters that are
    only ever incremented.
    """

    stats: HttpEdgeStats = field(default_factory=HttpEdgeStats)
    #: Bounded request-latency distribution (log buckets + exact-at-small-N
    #: reservoir).
    request_latency_hist: StreamingHistogram = field(default_factory=StreamingHistogram)

    # ------------------------------------------------------------------
    def record_response(self, status: int, latency_s: float) -> None:
        """One completed (non-streaming) request/response exchange."""
        stats = self.stats
        stats.requests_total += 1
        key = str(status)
        stats.responses_by_status[key] = stats.responses_by_status.get(key, 0) + 1
        if status == 400:
            stats.bad_requests_400 += 1
        elif status == 404:
            stats.not_found_404 += 1
        self.request_latency_hist.observe(latency_s)

    def snapshot(
        self,
        per_client_queue_depth: Dict[str, int],
        per_client_in_flight: Dict[str, int],
    ) -> HttpEdgeStats:
        return replace(
            self.stats,
            responses_by_status=dict(sorted(self.stats.responses_by_status.items())),
            request_latency_p50_s=self.request_latency_hist.percentile(50),
            request_latency_p95_s=self.request_latency_hist.percentile(95),
            per_client_queue_depth=dict(per_client_queue_depth),
            per_client_in_flight=dict(per_client_in_flight),
        )

    def metrics_families(self) -> List[List[str]]:
        """The edge's Prometheus families (appended to the server's page)."""
        return metric_families(self.stats) + [prometheus_histogram(
            "repro_edge_request_seconds",
            "Parse-to-response-written handler latency (SSE excluded).",
            self.request_latency_hist,
        )]
