"""Workload ``render-frames``: one in-process caller, warm bundles.

A closed loop of seeded whole passes over {ficus, lego, ship} x {dense,
vqrf, spnerf} x the rig cameras, each frame one ``RenderEngine.render`` call.
The render stages do nearly all the work and the serving layers none, so
occupancy, decode and MLP changes show here while scheduler or edge changes
should move nothing.  The set-up is the cold build path of all three scenes.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

from spbench.common import (
    PSNR_CAMERAS,
    RENDER_PIPELINES,
    RENDER_RIG,
    RENDER_SCENES,
    SCENE_KWARGS,
    SETUP_REPEATS,
    Checks,
    latency_metrics,
    percentile,
)
from spbench.tracer import Tracer

Key = Tuple[str, str, int]

#: Frames per scene checked against their ``use_occupancy=False`` render.
UNGUIDED_SAMPLE_PER_SCENE = 1


def frame_keys() -> List[Key]:
    return [
        (scene, pipeline, camera)
        for scene in RENDER_SCENES
        for pipeline in RENDER_PIPELINES
        for camera in range(RENDER_RIG)
    ]


def seeded_passes(seed: int):
    """Endless whole passes over every key, each pass in a seeded order."""
    rng = random.Random(seed)
    keys = frame_keys()
    while True:
        yield rng.sample(keys, len(keys))


def _install_build_tracing(tracer: Tracer, kmeans: Dict[str, float]) -> None:
    import repro.core.pipeline as core_pipeline
    import repro.vqrf.model as vqrf_model
    from repro.vqrf.vector_quantization import VectorQuantizer

    def count_distances(vectors, num_entries=4096, num_iterations=10, seed=0,
                        sample_limit=50000):
        # Every training vector against every centroid, once for the seeding
        # pass and once per Lloyd iteration (defaults are build_codebook's).
        train = min(len(vectors), sample_limit)
        kmeans["distance_evals"] += float(train) * min(num_entries, train) * (num_iterations + 1)

    tracer.wrap(vqrf_model, "prune_by_importance", "vqrf.prune_by_importance")
    tracer.wrap(vqrf_model, "build_codebook", "vqrf.build_codebook", count=count_distances)
    tracer.wrap(VectorQuantizer, "encode", "vqrf.encode")
    tracer.wrap(core_pipeline, "preprocess", "core.preprocess")


def _install_render_tracing(tracer: Tracer) -> None:
    import repro.core.pipeline as core_pipeline
    import repro.nerf.renderer as renderer
    from repro.api import RenderEngine
    from repro.core.decoding import OnlineDecoder
    from repro.nerf.mlp import MLP
    from repro.nerf.occupancy import OccupancyIndex

    tracer.wrap(RenderEngine, "render", "api.engine.render")
    tracer.wrap(renderer, "sample_along_rays", "nerf.rays.sample_along_rays")
    for method in ("clip_rays", "point_mask", "cell_mask"):
        tracer.wrap(OccupancyIndex, method, "nerf.occupancy.mask")
    for module in (renderer, core_pipeline):
        tracer.wrap(module, "positional_encoding", "nerf.encoding")
        tracer.wrap(module, "trilinear_interpolate_multi", "grid.interpolation.trilinear")
    tracer.wrap(MLP, "forward", "nerf.mlp.forward")
    tracer.wrap(renderer, "composite_rays", "nerf.volume_rendering.composite")
    tracer.wrap(OnlineDecoder, "decode_vertices", "core.decoding.decode_vertices")


class _Setup:
    """The warm state of the workload: scenes, bundles and one engine per key."""

    def __init__(self) -> None:
        from repro.api import RenderEngine, build_bundle, field_from_bundle, load_scene
        from repro.nerf.occupancy import build_occupancy_index

        self.scenes = {}
        self.bundles = {}
        self.engines = {}
        self.load_s = 0.0
        self.occupancy_s = 0.0
        for name in RENDER_SCENES:
            start = time.perf_counter()
            scene = load_scene(name, num_views=RENDER_RIG, **SCENE_KWARGS)
            self.load_s += time.perf_counter() - start
            bundle = build_bundle(scene)
            self.scenes[name] = scene
            self.bundles[name] = bundle
            for pipeline in RENDER_PIPELINES:
                field = field_from_bundle(bundle, pipeline)
                start = time.perf_counter()
                build_occupancy_index(field)
                self.occupancy_s += time.perf_counter() - start
                self.engines[(name, pipeline)] = RenderEngine(field, scene)
        # Warm-up: one frame per scene (not timed, not checked).
        for name in RENDER_SCENES:
            self.engines[(name, "spnerf")].render(camera_indices=(0,))

    def render(self, key: Key):
        from repro.api import RenderRequest

        scene, pipeline, camera = key
        return self.engines[(scene, pipeline)].render(RenderRequest(camera_indices=(camera,)))


def run(seed: int, seconds: float, trace: bool, started: float) -> dict:
    tracer = Tracer() if trace else None
    kmeans = {"distance_evals": 0.0}
    # Set up SETUP_REPEATS times from cold (fresh scenes, so nothing is
    # cached); the first repeat counts from process start, imports included.
    # The last set-up is the one measured, and the one the traced run traces.
    setup_times = []
    build_self: Dict[str, float] = {}
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        if tracer is not None and last:
            _install_build_tracing(tracer, kmeans)
        begin = started if repeat == 0 else time.perf_counter()
        setup = _Setup()
        setup_times.append(time.perf_counter() - begin)
        if tracer is not None and last:
            tracer.uninstall()
            build_self = tracer.self_times()

    passes = seeded_passes(seed)
    frames: List[Tuple[Key, float, object]] = []  # (key, latency_s, RenderResult)
    traced_from = None
    cpu_start = time.process_time()
    window_start = time.perf_counter()
    deadline = window_start + seconds
    untraced_until = window_start + seconds / 2 if tracer is not None else deadline
    # Whole passes only, so every window renders the same mix of frames.
    while time.perf_counter() < deadline:
        if tracer is not None and traced_from is None and time.perf_counter() >= untraced_until:
            _install_render_tracing(tracer)
            traced_from = len(frames)
        for key in next(passes):
            begin = time.perf_counter()
            if traced_from is not None:
                with tracer.span("frame", pipeline=key[1]):
                    result = setup.render(key)
            else:
                result = setup.render(key)
            frames.append((key, time.perf_counter() - begin, result))
    window_s = time.perf_counter() - window_start
    cpu_ms_per_frame = (time.process_time() - cpu_start) * 1e3 / len(frames)
    if tracer is not None:
        tracer.uninstall()

    checks = Checks()
    first = _check_repeats(frames, checks)
    _check_unguided(setup, first, seed, checks)
    if tracer is not None:
        values = _layer_metrics(setup, frames, traced_from, tracer, build_self, kmeans)
        values["bench.client_cpu_ms_per_frame"] = cpu_ms_per_frame
    else:
        values = latency_metrics([latency for _, latency, _ in frames], window_s)
        values["psnr_db"] = _psnr(setup, first)
        values["memory_reduction_x"] = _memory_reduction(setup)
        values["setup_s"] = statistics.median(setup_times)
    return {"checks": checks, "values": values, "samples": len(frames), "tracer": tracer}


def _check_repeats(frames, checks: Checks) -> Dict[Key, object]:
    """Every repeat of a key must be bit-identical to the key's first render."""
    import numpy as np

    first: Dict[Key, object] = {}
    for key, _, result in frames:
        image = result.image
        if key not in first:
            first[key] = image
            checks.frame(image.shape == (SCENE_KWARGS["image_size"],) * 2 + (3,),
                         f"{key}: frame shape {image.shape}")
        else:
            checks.frame(np.array_equal(image, first[key]),
                         f"{key}: repeat differs from the key's first render")
    return first


def _check_unguided(setup: _Setup, first, seed: int, checks: Checks) -> None:
    """A seeded sample must match its ``use_occupancy=False`` render."""
    import numpy as np
    from repro.api import RenderRequest

    rng = random.Random(seed ^ 0x5EED)
    for scene in RENDER_SCENES:
        rendered = sorted(key for key in first if key[0] == scene)
        for key in rng.sample(rendered, min(UNGUIDED_SAMPLE_PER_SCENE, len(rendered))):
            exhaustive = setup.engines[key[:2]].render(
                RenderRequest(camera_indices=(key[2],), use_occupancy=False)
            ).image
            checks.frame(np.array_equal(exhaustive, first[key]),
                         f"{key}: occupancy-guided frame differs from the unguided render")


def _psnr(setup: _Setup, first) -> float:
    from repro.nerf.metrics import psnr

    values = []
    for scene in RENDER_SCENES:
        for camera in PSNR_CAMERAS:
            key = (scene, "spnerf", camera)
            image = first[key] if key in first else setup.render(key).image
            values.append(float(psnr(image, setup.scenes[scene].reference_image(camera))))
    return sum(values) / len(values)


def _memory_reduction(setup: _Setup) -> float:
    dense = sum(setup.engines[(s, "dense")].field.memory_report()["total"] for s in RENDER_SCENES)
    sparse = sum(setup.engines[(s, "spnerf")].field.memory_report()["total"] for s in RENDER_SCENES)
    return dense / sparse


def _layer_metrics(setup, frames, traced_from, tracer, build_self, kmeans) -> dict:
    from repro.hardware.accelerator import SpNeRFAccelerator
    from repro.hardware.workload import workload_from_render

    traced = frames[traced_from:] if traced_from is not None else []
    untraced = frames[:traced_from] if traced_from is not None else frames
    n_traced = max(1, len(traced))
    self_s = tracer.self_times()
    spnerf_self = tracer.self_times(lambda root: root.attrs.get("pipeline") == "spnerf")
    stats = [result.stats for _, _, result in frames]
    spnerf_stats = [result.stats for key, _, result in frames if key[1] == "spnerf"]
    samples = sum(s.num_samples for s in stats)
    lookups = sum(s.num_vertex_lookups for s in spnerf_stats)
    unique = sum(s.num_unique_vertex_fetches for s in spnerf_stats)
    tables = [setup.bundles[s].spnerf_model.hash_tables for s in RENDER_SCENES]

    accelerator = SpNeRFAccelerator()
    predicted = []
    for scene in RENDER_SCENES:
        report = accelerator.simulate_frame(workload_from_render(setup.bundles[scene]))
        predicted.append(report.sgpu_cycles / report.mlp_cycles)

    def per_frame_ms(name):
        return self_s.get(name, 0.0) * 1e3 / n_traced

    values = {
        "nerf.rays.sample_along_rays.self_ms": per_frame_ms("nerf.rays.sample_along_rays"),
        "nerf.occupancy.mask.self_ms": per_frame_ms("nerf.occupancy.mask"),
        "nerf.encoding.self_ms": per_frame_ms("nerf.encoding"),
        "nerf.mlp.forward.self_ms": per_frame_ms("nerf.mlp.forward"),
        "nerf.volume_rendering.composite.self_ms": per_frame_ms("nerf.volume_rendering.composite"),
        "nerf.samples_generated": samples / len(stats),
        "nerf.samples_queried_frac": (samples - sum(s.num_culled_samples for s in stats)) / samples,
        "nerf.skipped_ray_frac": sum(s.num_skipped_rays for s in stats)
        / sum(s.num_rays for s in stats),
        "nerf.build_occupancy_index.s": setup.occupancy_s,
        "core.decoding.decode_vertices.self_ms": per_frame_ms("core.decoding.decode_vertices"),
        "core.vertex_lookups": lookups / max(1, len(spnerf_stats)),
        "core.unique_vertex_fetches": unique / max(1, len(spnerf_stats)),
        "core.vertex_reuse_ratio": lookups / unique if unique else 0.0,
        "core.hash.collision_rate": sum(t.collision_rate for t in tables) / len(tables),
        "core.hash.table_occupancy": sum(t.occupancy for t in tables) / len(tables),
        "core.preprocess.s": build_self.get("core.preprocess", 0.0),
        "core.decode_mlp_ratio.measured": (
            spnerf_self.get("core.decoding.decode_vertices", 0.0)
            / spnerf_self["nerf.mlp.forward"] if spnerf_self.get("nerf.mlp.forward") else 0.0
        ),
        "hardware.decode_mlp_ratio.predicted": sum(predicted) / len(predicted),
        "grid.interpolation.trilinear.self_ms": per_frame_ms("grid.interpolation.trilinear"),
        "api.engine.render.self_ms": per_frame_ms("api.engine.render"),
        "datasets.load_scene.s": setup.load_s,
        "vqrf.prune_by_importance.s": build_self.get("vqrf.prune_by_importance", 0.0),
        "vqrf.build_codebook.s": build_self.get("vqrf.build_codebook", 0.0),
        "vqrf.encode.s": build_self.get("vqrf.encode", 0.0),
        "vqrf.kmeans.distance_evals": kmeans["distance_evals"],
        "bench.trace_overhead_frac": _overhead(untraced, traced),
    }
    for pipeline in RENDER_PIPELINES:
        latencies = [latency for key, latency, _ in traced if key[1] == pipeline]
        values[f"api.frame_p50_ms.{pipeline}"] = percentile(latencies, 50) * 1e3
    return values


def _overhead(untraced, traced) -> float:
    """Mean over frame keys seen in both halves of traced/untraced latency, minus 1."""
    def by_key(subset):
        grouped: Dict[Tuple[str, str], List[float]] = {}
        for key, latency, _ in subset:
            grouped.setdefault(key[:2], []).append(latency)
        return {k: percentile(v, 50) for k, v in grouped.items()}

    before, after = by_key(untraced), by_key(traced)
    ratios = [after[k] / before[k] for k in before if k in after and before[k] > 0]
    return sum(ratios) / len(ratios) - 1.0 if ratios else 0.0
