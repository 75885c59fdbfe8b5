"""Pins of the serving stack's exported names: ``/v1/metrics`` and ``/v1/stats``.

Dashboards, alerts and ``spbench`` read these names, so they are part of
the public surface.  The pins fix the ordered ``# HELP``/``# TYPE`` lines of
every ``repro_serve_*`` and ``repro_edge_*`` family and the key sets of
``ServerStats.as_dict()`` and ``HttpEdgeStats.as_dict()``.  A rename or a
reworded help text fails here; a newly exported family must be listed in
``ADDED_FAMILIES``.
"""

from __future__ import annotations

import pytest

from repro.api import PipelineConfig, SpNeRFConfig
from repro.serve import RenderServer, SceneStore
from repro.serve.http import HttpEdgeStats, HttpEdgeTelemetry

#: ``(family, type, help)`` of every pinned family, in page order.
PINNED_FAMILIES = [
    ("repro_serve_jobs_submitted_total", "counter", "Jobs submitted over the server's lifetime."),
    ("repro_serve_jobs_completed_total", "counter", "Jobs that finished with a frame."),
    ("repro_serve_jobs_rejected_total", "counter", "Jobs refused by admission control."),
    ("repro_serve_jobs_expired_total", "counter",
     "Jobs whose deadline elapsed before completion."),
    ("repro_serve_jobs_failed_total", "counter",
     "Jobs that errored while rendering or finalizing."),
    ("repro_serve_jobs_cancelled_total", "counter", "Jobs cancelled by their caller."),
    ("repro_serve_tiles_rendered_total", "counter", "Tile renders applied (duplicates excluded)."),
    ("repro_serve_tile_results_dropped_total", "counter",
     "Tile completions dropped (late, duplicate)."),
    ("repro_serve_worker_respawns_total", "counter",
     "Dead pool workers replaced by the supervisor."),
    ("repro_serve_tiles_redispatched_total", "counter",
     "In-flight tiles re-sent after a worker died."),
    ("repro_serve_tiles_hedged_total", "counter", "Speculative duplicate dispatches of slow tiles."),
    ("repro_serve_keys_stolen_total", "counter", "Affinity keys migrated off a saturated worker."),
    ("repro_serve_host_losses_total", "counter",
     "Remote hosts declared dead (EOF, torn frame, heartbeat)."),
    ("repro_serve_host_reconnects_total", "counter",
     "Remote host connections re-established after a loss."),
    ("repro_serve_tiles_local_fallback_total", "counter",
     "Tiles rendered on the local fallback shard."),
    ("repro_serve_backend_events_dropped_total", "counter",
     "Elasticity events evicted from the bounded ring."),
    ("repro_serve_store_hits_total", "counter", "Bundle requests served from residency."),
    ("repro_serve_store_misses_total", "counter", "Bundle requests that forced a build."),
    ("repro_serve_store_evictions_total", "counter", "Bundles evicted by the store's LRU budget."),
    ("repro_serve_cache_hits_total", "counter", "Tiles served from the content-addressed cache."),
    ("repro_serve_cache_misses_total", "counter", "Tile cache lookups that went to the backend."),
    ("repro_serve_cache_evictions_total", "counter",
     "Tiles evicted by the cache's LRU byte budget."),
    ("repro_serve_tiles_deduped_total", "counter",
     "Tiles attached to an identical in-flight dispatch."),
    ("repro_serve_rays_rendered_total", "counter", "Rays rendered across all tiles."),
    ("repro_serve_queue_depth", "gauge", "Jobs currently queued or mid-render."),
    ("repro_serve_pending_cost", "gauge", "Summed admission-cost estimate of unfinished jobs."),
    ("repro_serve_resident_bundles", "gauge", "Scene bundles currently resident in the store."),
    ("repro_serve_resident_bytes", "gauge", "Estimated bytes of resident scene bundles."),
    ("repro_serve_cache_entries", "gauge", "Tiles resident in the content-addressed cache."),
    ("repro_serve_cache_bytes", "gauge", "Bytes of resident cached tiles."),
    ("repro_serve_worker_utilization", "gauge",
     "Per-worker busy fraction since the first dispatch."),
    ("repro_serve_throughput_rays_per_s", "gauge",
     "Busy-time-normalized ray throughput (per-worker efficiency)."),
    ("repro_serve_throughput_rays_per_s_wall", "gauge",
     "Wall-clock-normalized ray throughput (serving capacity)."),
    ("repro_serve_queue_wait_seconds", "histogram", "Submission-to-first-dispatch wait per job."),
    ("repro_serve_build_seconds", "histogram", "Bundle build time per cold tile batch."),
    ("repro_serve_render_seconds", "histogram", "Per-tile render service time."),
    ("repro_serve_cache_hit_seconds", "histogram",
     "Scheduler time serving a tile from the cache."),
    ("repro_serve_reassemble_seconds", "histogram",
     "Tile recomposition + reference compare per job."),
    ("repro_serve_deliver_seconds", "histogram",
     "Completion-to-first-fetch lag per delivered job."),
    ("repro_serve_latency_seconds", "histogram", "Submission-to-completion latency per job."),
    ("repro_edge_connections_total", "counter", "TCP connections accepted."),
    ("repro_edge_requests_total", "counter", "HTTP requests answered."),
    ("repro_edge_rate_limited_429_total", "counter", "Submissions refused by the rate limiter."),
    ("repro_edge_queue_full_429_total", "counter",
     "Submissions refused by the fairness-queue bound."),
    ("repro_edge_admission_429_total", "counter",
     "Submissions the server's admission control rejected."),
    ("repro_edge_jobs_submitted_total", "counter", "Jobs the edge successfully submitted."),
    ("repro_edge_jobs_cancelled_by_disconnect_total", "counter",
     "Jobs cancelled after a stream disconnect."),
    ("repro_edge_sse_streams_total", "counter", "SSE streams opened."),
    ("repro_edge_sse_events_sent_total", "counter", "SSE events written to sockets."),
    ("repro_edge_responses_total", "counter", "HTTP responses by status code."),
    ("repro_edge_active_connections", "gauge", "Currently open TCP connections."),
    ("repro_edge_active_sse_streams", "gauge", "Currently open SSE streams."),
    ("repro_edge_request_seconds", "histogram",
     "Parse-to-response-written handler latency (SSE excluded)."),
]

#: Families exported after the pin was taken; the only names allowed beyond it.
ADDED_FAMILIES = {
    "repro_serve_jobs_rejected_over_cost_total",
    "repro_serve_jobs_demoted_over_cost_total",
    "repro_serve_tiles_out_of_order_total",
    "repro_serve_samples_culled_total",
    "repro_serve_rays_skipped_total",
    "repro_serve_busy_seconds_total",
    "repro_serve_cache_insertions_total",
}

SERVER_STATS_KEYS = {
    "submitted", "completed", "rejected", "rejected_over_cost", "demoted_over_cost",
    "expired", "failed", "cancelled", "queue_depth", "pending_cost", "tiles_rendered",
    "ooo_completions", "dropped_tile_results", "worker_respawns", "redispatched_tiles",
    "hedged_tiles", "stolen_keys", "host_losses", "host_reconnects", "local_fallback_tiles",
    "dropped_backend_events", "num_rays", "num_culled_samples", "num_skipped_rays", "busy_s",
    "throughput_rays_per_s", "throughput_rays_per_s_wall", "latency_p50_s", "latency_p95_s",
    "latency_p99_s", "queue_wait_p50_s", "queue_wait_p95_s", "queue_wait_p99_s",
    "stage_breakdown", "vertex_reuse_ratio", "backend", "num_workers", "worker_utilization",
    "store_hits", "store_misses", "store_hit_rate", "store_evictions", "resident_bundles",
    "resident_bytes", "cache_enabled", "cache_hits", "cache_misses", "cache_hit_rate",
    "cache_insertions", "cache_evictions", "cache_entries", "cache_bytes", "deduped_tiles",
}

EDGE_STATS_KEYS = {
    "connections_total", "active_connections", "requests_total", "responses_by_status",
    "bad_requests_400", "not_found_404", "rate_limited_429", "queue_full_429",
    "admission_429", "jobs_submitted", "jobs_cancelled_by_disconnect", "sse_streams_total",
    "active_sse_streams", "sse_events_sent", "request_latency_p50_s", "request_latency_p95_s",
    "per_client_queue_depth", "per_client_in_flight",
}

#: Every lifetime counter of ``ServerStats`` and the family exporting it.
COUNTER_FAMILIES = {
    "submitted": "repro_serve_jobs_submitted_total",
    "completed": "repro_serve_jobs_completed_total",
    "rejected": "repro_serve_jobs_rejected_total",
    "rejected_over_cost": "repro_serve_jobs_rejected_over_cost_total",
    "demoted_over_cost": "repro_serve_jobs_demoted_over_cost_total",
    "expired": "repro_serve_jobs_expired_total",
    "failed": "repro_serve_jobs_failed_total",
    "cancelled": "repro_serve_jobs_cancelled_total",
    "tiles_rendered": "repro_serve_tiles_rendered_total",
    "ooo_completions": "repro_serve_tiles_out_of_order_total",
    "dropped_tile_results": "repro_serve_tile_results_dropped_total",
    "worker_respawns": "repro_serve_worker_respawns_total",
    "redispatched_tiles": "repro_serve_tiles_redispatched_total",
    "hedged_tiles": "repro_serve_tiles_hedged_total",
    "stolen_keys": "repro_serve_keys_stolen_total",
    "host_losses": "repro_serve_host_losses_total",
    "host_reconnects": "repro_serve_host_reconnects_total",
    "local_fallback_tiles": "repro_serve_tiles_local_fallback_total",
    "dropped_backend_events": "repro_serve_backend_events_dropped_total",
    "num_rays": "repro_serve_rays_rendered_total",
    "num_culled_samples": "repro_serve_samples_culled_total",
    "num_skipped_rays": "repro_serve_rays_skipped_total",
    "busy_s": "repro_serve_busy_seconds_total",
    "store_hits": "repro_serve_store_hits_total",
    "store_misses": "repro_serve_store_misses_total",
    "store_evictions": "repro_serve_store_evictions_total",
    "cache_hits": "repro_serve_cache_hits_total",
    "cache_misses": "repro_serve_cache_misses_total",
    "cache_insertions": "repro_serve_cache_insertions_total",
    "cache_evictions": "repro_serve_cache_evictions_total",
    "deduped_tiles": "repro_serve_tiles_deduped_total",
}


def make_store() -> SceneStore:
    config = PipelineConfig(
        spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
        kmeans_iterations=2,
    )
    scene_kwargs = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}
    return SceneStore(config=config, scene_kwargs=scene_kwargs)


@pytest.fixture(scope="module")
def served():
    """A cache-armed server after two identical frames, plus its families."""
    with RenderServer(make_store(), cache="lru", default_tile_size=144) as server:
        for _ in range(2):
            server.submit("lego", "dense")
            server.run_until_idle()
        families = server.metrics_families() + HttpEdgeTelemetry().metrics_families()
        yield server.stats(), families


def _header(family):
    help_line, type_line = family[0], family[1]
    name = type_line.split()[2]
    assert help_line.startswith(f"# HELP {name} ")
    return name, type_line.split()[3], help_line[len(f"# HELP {name} "):]


def test_metrics_family_headers_are_pinned(served):
    _, families = served
    headers = [_header(family) for family in families]
    assert [h for h in headers if h[0] not in ADDED_FAMILIES] == PINNED_FAMILIES
    assert len({name for name, _, _ in headers}) == len(headers)


def test_stats_key_sets_are_pinned(served):
    stats, _ = served
    assert set(stats.as_dict()) == SERVER_STATS_KEYS
    assert set(HttpEdgeStats().as_dict()) == EDGE_STATS_KEYS
    # The nested key the serving benchmark differences across its window.
    assert stats.as_dict()["stage_breakdown"]["build"]["count"] >= 1


def test_every_lifetime_counter_has_a_metrics_family(served):
    stats, families = served
    samples = {}
    for family in families:
        for line in family[2:]:
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    as_dict = stats.as_dict()
    assert stats.cache_insertions > 0 and stats.cache_hits > 0 and stats.busy_s > 0
    for key, family in COUNTER_FAMILIES.items():
        assert family in samples, f"{key} has no /v1/metrics family"
        assert samples[family] == pytest.approx(as_dict[key]), key
