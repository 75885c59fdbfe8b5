"""Every metric the benchmark reports, declared once.

``END_TO_END`` metrics are what a user of the system sees; every workload
reports all of them in an untraced run.  ``PER_LAYER`` metrics come from the
traced run only.  Each per-layer entry names the end-to-end metric and the
workload(s) it should move, written down before anything is measured so a
change to one layer can be checked against its prediction.  A per-layer
metric reads 0 in a workload whose traced process does no work in that layer.

``BENCHMARK.json`` carries the same names, units and directions (its schema
has no room for the ``moves`` column, which lives here).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "render-frames",
        "one in-process caller renders warm dense/vqrf/spnerf frames; render stages do all the work, serving does none",
    ),
    (
        "serve-render",
        "two closed-loop HTTP clients, every frame distinct, so every tile misses the cache and renders in the process pool",
    ),
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("latency_p50_ms", "ms", "lower"),
    Metric("latency_p90_ms", "ms", "lower"),
    Metric("throughput_fps", "1/s", "higher"),
    Metric("psnr_db", "dB", "higher"),
    Metric("memory_reduction_x", "x", "higher"),
    Metric("setup_s", "s", "lower"),
)

_RF = "latency_p50_ms @ render-frames"
_SR = "latency_p50_ms @ serve-render"

PER_LAYER: Tuple[Metric, ...] = (
    # repro.nerf
    Metric("nerf.rays.sample_along_rays.self_ms", "ms/frame", "lower", _RF),
    Metric("nerf.occupancy.mask.self_ms", "ms/frame", "lower", _RF),
    Metric("nerf.encoding.self_ms", "ms/frame", "lower", _RF),
    Metric("nerf.mlp.forward.self_ms", "ms/frame", "lower", _RF),
    Metric("nerf.volume_rendering.composite.self_ms", "ms/frame", "lower", _RF),
    Metric("nerf.samples_generated", "count/frame", "lower", _RF),
    Metric("nerf.samples_queried_frac", "frac", "higher", _RF),
    Metric("nerf.skipped_ray_frac", "frac", "higher", _RF),
    Metric("nerf.build_occupancy_index.s", "s", "lower", "setup_s @ every workload"),
    # repro.core
    Metric(
        "core.decoding.decode_vertices.self_ms", "ms/frame", "lower",
        _RF + "; throughput_fps @ serve-render",
    ),
    Metric("core.vertex_lookups", "count/frame", "lower", _RF),
    Metric("core.unique_vertex_fetches", "count/frame", "lower", _RF),
    Metric("core.vertex_reuse_ratio", "x", "higher", _RF),
    Metric("core.hash.collision_rate", "frac", "lower", "psnr_db @ every workload"),
    Metric("core.hash.table_occupancy", "frac", "higher", "memory_reduction_x @ every workload"),
    Metric("core.preprocess.s", "s", "lower", "setup_s @ render-frames"),
    Metric("core.decode_mlp_ratio.measured", "x", "lower", _RF),
    Metric("hardware.decode_mlp_ratio.predicted", "x", "lower", _RF),
    # repro.grid and repro.api
    Metric("grid.interpolation.trilinear.self_ms", "ms/frame", "lower", _RF),
    Metric("api.engine.render.self_ms", "ms/frame", "lower", _RF),
    Metric("api.frame_p50_ms.dense", "ms", "lower", _RF),
    Metric("api.frame_p50_ms.vqrf", "ms", "lower", _RF),
    Metric("api.frame_p50_ms.spnerf", "ms", "lower", _RF),
    # repro.datasets and repro.vqrf (one traced cold build)
    Metric("datasets.load_scene.s", "s", "lower", "setup_s @ render-frames"),
    Metric("vqrf.prune_by_importance.s", "s", "lower", "setup_s @ render-frames"),
    Metric("vqrf.build_codebook.s", "s", "lower", "setup_s @ render-frames"),
    Metric("vqrf.encode.s", "s", "lower", "setup_s @ render-frames"),
    Metric("vqrf.kmeans.distance_evals", "count", "lower", "setup_s @ render-frames"),
    # repro.serve
    Metric("serve.queue_wait_ms.p50", "ms", "lower", "latency_p90_ms @ serve-render"),
    Metric("serve.queue_wait_ms.p90", "ms", "lower", "latency_p90_ms @ serve-render"),
    Metric("serve.render_tile_ms.p50", "ms", "lower", "throughput_fps @ serve-render"),
    Metric("serve.worker_utilization", "frac", "higher", "throughput_fps @ serve-render"),
    Metric("serve.worker_cpu_ms_per_frame", "ms/frame", "lower", "throughput_fps @ serve-render"),
    Metric("serve.front_cpu_ms_per_frame", "ms/frame", "lower", _SR),
    Metric("serve.reassemble_ms.p50", "ms", "lower", _SR),
    Metric("serve.deliver_ms.p50", "ms", "lower", _SR),
    Metric("serve.tiles_per_frame", "count/frame", "lower", _SR),
    Metric("serve.tile_cache.insertions", "count", "lower", _SR),
    Metric("serve.store.misses", "count", "lower", "setup_s @ serve-render"),
    # repro.serve.http
    Metric("http.submit_ms.p50", "ms", "lower", _SR),
    Metric("http.result_ms.p50", "ms", "lower", _SR),
    Metric("http.bytes_per_frame", "bytes/frame", "lower", _SR),
    # the benchmark itself (should move no end-to-end metric)
    Metric("bench.client_cpu_ms_per_frame", "ms/frame", "lower", "none (load-generator health)"),
    Metric("bench.trace_overhead_frac", "frac", "lower", "none (traced vs untraced wall time)"),
)


def report(values: dict, declared: Tuple[Metric, ...]) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric, 0 where absent."""
    return {
        metric.name: {"value": float(values.get(metric.name, 0.0)), "unit": metric.unit}
        for metric in declared
    }
