"""Serving observability: per-job recordings and :class:`ServerStats`.

The server records one observation per finished job (completed, rejected,
expired or failed) plus per-tile service counters; :meth:`Telemetry.snapshot`
folds them, together with the backend's, store's and cache's counters, into
a single :class:`ServerStats` — the flat object ``GET /v1/stats`` returns
and `benchmarks/perf_serve.py` serialises into ``BENCH_serve.json``.

Every exported number is declared once, on its :class:`ServerStats` field
(:func:`~repro.serve.metrics.counter` / :func:`~repro.serve.metrics.gauge`)
or in :data:`STAGES`; ``GET /v1/metrics`` is derived from those
declarations, so adding a field adds its ``/v1/stats`` key, its BENCH key
and its Prometheus family at once.

Latency is split the way queueing systems are debugged: ``queue_wait`` (from
submission to the job's first tile being dispatched to the execution
backend; any bundle build a worker then pays is service time) and
``latency`` (submission to completion).  Beyond those two, every pipeline
*stage* keeps its own distribution — ``build`` (bundle construction),
``render`` (per-tile service), ``reassemble`` (tile recomposition + PSNR)
and ``deliver`` (completion to first result fetch) — so a slow p99 can be
attributed to a stage instead of guessed at.

All distributions are :class:`~repro.serve.metrics.StreamingHistogram`\\ s:
fixed log-spaced buckets plus a small reservoir, so memory stays **bounded
under sustained traffic** (the earlier revisions' unbounded per-job lists
grew forever) while percentiles over test-sized sample counts remain exact
(the reservoir holds every sample until it fills, and ``numpy.percentile``
over it is the very estimator the old lists used).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nerf.renderer import RenderStats
from repro.serve.metrics import StreamingHistogram, counter, gauge

__all__ = ["ServerStats", "Telemetry", "percentile", "STAGES", "STAGE_NAMES"]

#: The per-stage distributions ``Telemetry`` maintains, in pipeline order,
#: with their help text; each exports as ``repro_serve_<stage>_seconds``.
#: ``cache_hit`` times the scheduler serving a tile straight from the
#: :class:`~repro.serve.cache.TileCache` (lookup + apply, no backend).
STAGES = {
    "queue_wait": "Submission-to-first-dispatch wait per job.",
    "build": "Bundle build time per cold tile batch.",
    "render": "Per-tile render service time.",
    "cache_hit": "Scheduler time serving a tile from the cache.",
    "reassemble": "Tile recomposition + reference compare per job.",
    "deliver": "Completion-to-first-fetch lag per delivered job.",
    "latency": "Submission-to-completion latency per job.",
}
STAGE_NAMES = tuple(STAGES)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (``nan`` when empty)."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _sourced(source: str, default):
    """An unexported field whose snapshot value is read from ``source``."""
    return field(default=default, metadata={"source": source})


@dataclass
class ServerStats:
    """One flat snapshot of a :class:`~repro.serve.server.RenderServer`.

    Counters cover the server's whole lifetime; gauges describe the instant
    the snapshot was taken.  Fields are in ``/v1/metrics`` order: the
    declared counters, then the declared gauges, then the unexported rest.

    ``worker_utilization`` is each worker's busy time (rendering + bundle
    builds) over the wall time since the server first dispatched, so a
    saturated 4-worker pool reads ``[~1.0, ~1.0, ~1.0, ~1.0]`` and a pool
    starved by affinity skew shows it immediately.  The two throughputs are
    deliberately distinct: ``throughput_rays_per_s`` divides by busy time,
    so it measures per-worker efficiency and cannot exceed one worker's
    speed; ``throughput_rays_per_s_wall`` divides by elapsed wall time, the
    serving capacity an operator provisions against.

    The elasticity counters stay 0 under the serial backend; the
    duplicate completions that respawns, re-dispatches and hedges produce
    are dropped by the scheduler and counted in ``dropped_tile_results``.  ``stage_breakdown`` maps each of
    :data:`STAGE_NAMES` to its bounded-histogram digest (count / total /
    mean / p50 / p95 / p99 seconds).
    """

    submitted: int = counter(
        "repro_serve_jobs_submitted_total", "Jobs submitted over the server's lifetime.")
    completed: int = counter("repro_serve_jobs_completed_total", "Jobs that finished with a frame.")
    rejected: int = counter("repro_serve_jobs_rejected_total", "Jobs refused by admission control.")
    expired: int = counter(
        "repro_serve_jobs_expired_total", "Jobs whose deadline elapsed before completion.")
    failed: int = counter(
        "repro_serve_jobs_failed_total", "Jobs that errored while rendering or finalizing.")
    cancelled: int = counter("repro_serve_jobs_cancelled_total", "Jobs cancelled by their caller.")
    tiles_rendered: int = counter(
        "repro_serve_tiles_rendered_total", "Tile renders applied (duplicates excluded).")
    dropped_tile_results: int = counter(
        "repro_serve_tile_results_dropped_total", "Tile completions dropped (late, duplicate).")
    worker_respawns: int = counter(
        "repro_serve_worker_respawns_total", "Dead pool workers replaced by the supervisor.",
        source="backend.worker_respawns")
    redispatched_tiles: int = counter(
        "repro_serve_tiles_redispatched_total", "In-flight tiles re-sent after a worker died.",
        source="backend.redispatched_tiles")
    hedged_tiles: int = counter(
        "repro_serve_tiles_hedged_total", "Speculative duplicate dispatches of slow tiles.",
        source="backend.hedged_tiles")
    stolen_keys: int = counter(
        "repro_serve_keys_stolen_total", "Affinity keys migrated off a saturated worker.",
        source="backend.stolen_keys")
    host_losses: int = counter(
        "repro_serve_host_losses_total", "Remote hosts declared dead (EOF, torn frame, heartbeat).",
        source="backend.host_losses")
    host_reconnects: int = counter(
        "repro_serve_host_reconnects_total",
        "Remote host connections re-established after a loss.",
        source="backend.host_reconnects")
    local_fallback_tiles: int = counter(
        "repro_serve_tiles_local_fallback_total", "Tiles rendered on the local fallback shard.",
        source="backend.local_fallback_tiles")
    dropped_backend_events: int = counter(
        "repro_serve_backend_events_dropped_total",
        "Elasticity events evicted from the bounded ring.",
        source="backend.dropped_events")
    store_hits: int = counter(
        "repro_serve_store_hits_total", "Bundle requests served from residency.",
        source="store.hits")
    store_misses: int = counter(
        "repro_serve_store_misses_total", "Bundle requests that forced a build.",
        source="store.misses")
    store_evictions: int = counter(
        "repro_serve_store_evictions_total", "Bundles evicted by the store's LRU budget.",
        source="store.evictions")
    cache_hits: int = counter(
        "repro_serve_cache_hits_total", "Tiles served from the content-addressed cache.",
        source="cache.hits")
    cache_misses: int = counter(
        "repro_serve_cache_misses_total", "Tile cache lookups that went to the backend.",
        source="cache.misses")
    cache_evictions: int = counter(
        "repro_serve_cache_evictions_total", "Tiles evicted by the cache's LRU byte budget.",
        source="cache.evictions")
    deduped_tiles: int = counter(
        "repro_serve_tiles_deduped_total", "Tiles attached to an identical in-flight dispatch.")
    num_rays: int = counter(
        "repro_serve_rays_rendered_total", "Rays rendered across all tiles.",
        source="render.num_rays")
    rejected_over_cost: int = counter(
        "repro_serve_jobs_rejected_over_cost_total",
        "Jobs refused because they did not fit the admission cost budget.")
    demoted_over_cost: int = counter(
        "repro_serve_jobs_demoted_over_cost_total",
        "Jobs admitted at LOW priority because they did not fit the cost budget.")
    ooo_completions: int = counter(
        "repro_serve_tiles_out_of_order_total",
        "Tiles applied after a later tile of the same job.")
    num_culled_samples: int = counter(
        "repro_serve_samples_culled_total", "Ray samples culled by the occupancy index.",
        source="render.num_culled_samples")
    num_skipped_rays: int = counter(
        "repro_serve_rays_skipped_total", "Rays answered as background without a field query.",
        source="render.num_skipped_rays")
    busy_s: float = counter(
        "repro_serve_busy_seconds_total", "Worker seconds spent rendering and building bundles.",
        default=0.0)
    cache_insertions: int = counter(
        "repro_serve_cache_insertions_total", "Tiles inserted into the content-addressed cache.",
        source="cache.insertions")

    queue_depth: int = gauge("repro_serve_queue_depth", "Jobs currently queued or mid-render.")
    pending_cost: float = gauge(
        "repro_serve_pending_cost", "Summed admission-cost estimate of unfinished jobs.",
        default=0.0)
    resident_bundles: int = gauge(
        "repro_serve_resident_bundles", "Scene bundles currently resident in the store.",
        source="store.resident_entries")
    resident_bytes: int = gauge(
        "repro_serve_resident_bytes", "Estimated bytes of resident scene bundles.",
        source="store.resident_bytes")
    cache_entries: int = gauge(
        "repro_serve_cache_entries", "Tiles resident in the content-addressed cache.",
        source="cache.entries")
    cache_bytes: int = gauge(
        "repro_serve_cache_bytes", "Bytes of resident cached tiles.",
        source="cache.resident_bytes")
    worker_utilization: List[float] = gauge(
        "repro_serve_worker_utilization", "Per-worker busy fraction since the first dispatch.",
        label="worker", default_factory=list)
    throughput_rays_per_s: float = gauge(
        "repro_serve_throughput_rays_per_s",
        "Busy-time-normalized ray throughput (per-worker efficiency).", default=0.0)
    throughput_rays_per_s_wall: float = gauge(
        "repro_serve_throughput_rays_per_s_wall",
        "Wall-clock-normalized ray throughput (serving capacity).", default=0.0)

    latency_p50_s: float = float("nan")
    latency_p95_s: float = float("nan")
    latency_p99_s: float = float("nan")
    queue_wait_p50_s: float = float("nan")
    queue_wait_p95_s: float = float("nan")
    queue_wait_p99_s: float = float("nan")
    stage_breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    vertex_reuse_ratio: float = _sourced("render.vertex_reuse_ratio", 1.0)
    backend: str = _sourced("backend.name", "serial")
    num_workers: int = _sourced("backend.num_workers", 1)
    store_hit_rate: float = _sourced("store.hit_rate", 1.0)
    cache_enabled: bool = False
    cache_hit_rate: float = _sourced("cache.hit_rate", 0.0)

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready flat mapping (what ``BENCH_serve.json`` stores)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


#: ``(field, source object, attribute)`` of every field a snapshot pulls.
_SOURCED = [
    (spec.name, *spec.metadata["source"].split("."))
    for spec in fields(ServerStats)
    if spec.metadata.get("source")
]


def _stage_histograms() -> Dict[str, StreamingHistogram]:
    return {stage: StreamingHistogram() for stage in STAGE_NAMES}


@dataclass
class Telemetry:
    """Accumulates per-tile and per-job observations for :class:`ServerStats`.

    Lifetime counters are plain attribute adds on ``stats``; distributions
    live in the bounded ``stages`` histograms (see the module docstring).
    """

    stats: ServerStats = field(default_factory=ServerStats)
    render_stats: RenderStats = field(default_factory=RenderStats)
    stages: Dict[str, StreamingHistogram] = field(default_factory=_stage_histograms)
    worker_busy_s: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record_tile(self, render: RenderStats, service_s: float, worker_id: int = 0) -> None:
        """Fold one rendered tile's counters and service time in."""
        self.stats.tiles_rendered += 1
        self.stats.busy_s += service_s
        self.render_stats.merge(render)
        self.stages["render"].observe(service_s)
        self.worker_busy_s[worker_id] = self.worker_busy_s.get(worker_id, 0.0) + service_s

    def record_cache_hit(self, elapsed_s: float) -> None:
        """One tile served from the content-addressed cache (no backend).

        ``elapsed_s`` spans lookup to apply on the scheduler; it is *not*
        busy time (no worker rendered anything), so it feeds only the
        ``cache_hit`` stage histogram — throughput normalization and
        worker utilization stay untouched.
        """
        self.stages["cache_hit"].observe(elapsed_s)

    def record_build(self, build_s: float, worker_id: int = 0) -> None:
        """Bundle construction is service time too (it blocks its worker)."""
        self.stats.busy_s += build_s
        self.stages["build"].observe(build_s)
        self.worker_busy_s[worker_id] = self.worker_busy_s.get(worker_id, 0.0) + build_s

    def record_completion(
        self, latency_s: float, queue_wait_s: float, reassemble_s: float = 0.0
    ) -> None:
        self.stats.completed += 1
        self.stages["latency"].observe(latency_s)
        self.stages["queue_wait"].observe(queue_wait_s)
        if reassemble_s > 0.0:
            self.stages["reassemble"].observe(reassemble_s)

    def record_delivery(self, deliver_s: float) -> None:
        """Completion-to-first-fetch time of one delivered result."""
        self.stages["deliver"].observe(deliver_s)

    # ------------------------------------------------------------------
    def snapshot(
        self,
        wall_s: Optional[float] = None,
        sources: Optional[Dict[str, object]] = None,
        **instant,
    ) -> ServerStats:
        """Aggregate everything recorded so far into one :class:`ServerStats`.

        Fields declared with a ``source`` read it from ``sources`` (the
        server passes its ``backend`` and the ``store`` and ``cache`` stats;
        ``render`` is this accumulator's merged :class:`RenderStats`); a
        missing or ``None`` source leaves its fields at their defaults.
        ``instant`` sets values only the caller knows, such as
        ``queue_depth``.  ``wall_s`` is the elapsed wall time the per-worker
        utilizations and ``throughput_rays_per_s_wall`` are normalized by;
        ``None`` (or a zero wall) reports zeros rather than dividing by
        nothing.
        """
        objects = {"render": self.render_stats, **(sources or {})}
        pulled = {
            name: getattr(objects[owner], attr)
            for name, owner, attr in _SOURCED
            if objects.get(owner) is not None
        }
        stats = replace(self.stats, **{**pulled, **instant})
        percentiles = {
            f"{stage}_p{q}_s": self.stages[stage].percentile(q)
            for stage in ("latency", "queue_wait")
            for q in (50, 95, 99)
        }
        return replace(
            stats,
            throughput_rays_per_s=stats.num_rays / stats.busy_s if stats.busy_s > 0 else 0.0,
            throughput_rays_per_s_wall=stats.num_rays / wall_s if wall_s else 0.0,
            worker_utilization=[
                (self.worker_busy_s.get(worker, 0.0) / wall_s) if wall_s else 0.0
                for worker in range(stats.num_workers)
            ],
            stage_breakdown={
                stage: histogram.summary() for stage, histogram in self.stages.items()
            },
            **percentiles,
        )
