"""Tests for the observability layer: metrics, tracing, and their surfaces.

Covers this PR's tentpole and satellites:

* **streaming histograms** — percentiles exact at test-sized counts (the
  reservoir holds every sample), bounded memory at any count, sane
  bucket-interpolated estimates beyond the reservoir, and well-formed
  Prometheus text exposition (cumulative ``le`` buckets ending ``+Inf``);
* **trace recorder** — deterministic spans/events under an injected clock,
  a bounded finished-trace ring, supervisor routing, and the Chrome
  trace-event export's structure;
* **server integration** — every completed job is reconstructable as a
  trace whose typed stage spans account for its measured latency within
  tolerance, under the serial *and* process backends; elasticity events
  (hedged / redispatched / respawn / expired) land in traces; frames stay
  bit-identical with tracing enabled;
* **telemetry** — bounded memory under sustained traffic (regression for
  the old unbounded lists), p99 + per-stage breakdown in the snapshot, and
  the busy-time vs wall-clock throughput distinction;
* **HTTP surfaces** — ``/v1/stats`` parses under a strict NaN-rejecting
  parser *before the first completion* (percentiles undefined), ``/v1/trace``
  and ``/v1/traces/export`` serve the recorded spans, and ``/v1/metrics``
  is coherent Prometheus text.

Scenes are the same tiny 16^3/24px ones as the other serve test modules.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math

import numpy as np
import pytest

from repro.api import PipelineConfig, SpNeRFConfig
from repro.serve import (
    EVENT_NAMES,
    PROMETHEUS_CONTENT_TYPE,
    SPAN_NAMES,
    STAGE_NAMES,
    FaultPlan,
    JobState,
    RemoteBackend,
    RenderServer,
    SceneStore,
    StreamingHistogram,
    Telemetry,
    TraceRecorder,
    render_prometheus,
)
from repro.serve.http import HttpRenderFrontEnd, RenderClient
from repro.serve.http.wire import json_body, sse_event_bytes
from repro.serve.metrics import (
    prometheus_counter,
    prometheus_gauge,
    prometheus_histogram,
)

SERVE_CONFIG = PipelineConfig(
    spnerf=SpNeRFConfig(num_subgrids=4, hash_table_size=256, codebook_size=16),
    kmeans_iterations=2,
)
SCENE_KWARGS = {"resolution": 16, "image_size": 24, "num_views": 1, "num_samples": 16}

#: 576px frames shard into 8 tiles at this size — enough spans per job.
TILE = 77


def make_store(**kwargs) -> SceneStore:
    kwargs.setdefault("config", SERVE_CONFIG)
    kwargs.setdefault("scene_kwargs", dict(SCENE_KWARGS))
    return SceneStore(**kwargs)


@pytest.fixture(scope="module")
def warm_store() -> SceneStore:
    return make_store()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def strict_loads(raw: bytes):
    """JSON parse that rejects the bare NaN/Infinity tokens Python emits."""

    def reject(token):
        raise ValueError(f"non-JSON constant: {token}")

    return json.loads(raw.decode("utf-8"), parse_constant=reject)


# ----------------------------------------------------------------------
# StreamingHistogram
# ----------------------------------------------------------------------

def test_histogram_percentiles_exact_at_small_counts():
    """While the reservoir holds every sample, percentiles equal the exact
    numpy estimator the old unbounded lists used."""
    values = [0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 2.0]
    hist = StreamingHistogram()
    for value in values:
        hist.observe(value)
    for q in (50, 95, 99):
        assert hist.percentile(q) == pytest.approx(float(np.percentile(values, q)))
    assert hist.mean == pytest.approx(float(np.mean(values)))


def test_histogram_memory_bounded_at_any_count():
    hist = StreamingHistogram(reservoir_size=64)
    baseline = None
    rng = np.random.default_rng(7)
    for block in range(20):
        for value in rng.uniform(1e-4, 10.0, size=500):
            hist.observe(float(value))
        if baseline is None:
            baseline = hist.memory_slots()
        assert hist.memory_slots() == baseline  # constant after the fill
    assert hist.count == 10_000
    assert hist.memory_slots() <= 64 + len(hist.counts)


def test_histogram_bucket_percentiles_bounded_by_observations():
    """Beyond the reservoir the estimate is interpolated but stays inside
    [min, max] and within one bucket ratio of the truth."""
    hist = StreamingHistogram(reservoir_size=8)
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=-3.0, sigma=1.0, size=4000)
    for value in values:
        hist.observe(float(value))
    for q in (50, 95, 99):
        estimate = hist.percentile(q)
        truth = float(np.percentile(values, q))
        assert hist.min <= estimate <= hist.max
        assert truth / 1.3 <= estimate <= truth * 1.3  # ~one bucket of error


def test_histogram_ignores_nan_and_clamps_negative():
    hist = StreamingHistogram()
    hist.observe(float("nan"))
    assert hist.count == 0
    hist.observe(-1.0)  # clock skew artifacts must not corrupt the sum
    assert hist.count == 1 and hist.sum == 0.0
    assert math.isnan(StreamingHistogram().percentile(50))


def test_histogram_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StreamingHistogram(min_value=0.0)
    with pytest.raises(ValueError):
        StreamingHistogram(min_value=1.0, max_value=0.5)
    with pytest.raises(ValueError):
        StreamingHistogram(buckets_per_decade=0)
    with pytest.raises(ValueError):
        StreamingHistogram(reservoir_size=1)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def test_prometheus_histogram_family_is_cumulative_and_complete():
    hist = StreamingHistogram()
    for value in (0.001, 0.01, 0.01, 5.0, 5000.0):  # last one overflows
        hist.observe(value)
    lines = prometheus_histogram("x_seconds", "help", hist)
    assert lines[0] == "# HELP x_seconds help"
    assert lines[1] == "# TYPE x_seconds histogram"
    buckets = [line for line in lines if line.startswith("x_seconds_bucket")]
    counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
    assert counts == sorted(counts)  # cumulative
    assert buckets[-1].startswith('x_seconds_bucket{le="+Inf"}')
    assert counts[-1] == 5
    assert any(line == "x_seconds_count 5" for line in lines)
    (sum_line,) = [line for line in lines if line.startswith("x_seconds_sum")]
    assert float(sum_line.split(" ")[1]) == pytest.approx(hist.sum)


def test_prometheus_page_grammar_and_escaping():
    page = render_prometheus([
        prometheus_counter("jobs_total", "Jobs with a \\ and\nnewline.", 3),
        prometheus_gauge("depth", "Queue depth.", [(None, 2.0)]),
        prometheus_gauge(
            "util", "Per-worker.", [({"worker": 'a"b'}, 0.5), ({"worker": "1"}, 1.0)]
        ),
    ])
    assert page.endswith("\n")
    assert "\\n" in page and "\n\n" not in page  # escaped, no blank lines
    assert 'util{worker="a\\"b"} 0.5' in page
    for line in page.rstrip("\n").splitlines():
        assert line.startswith("# ") or len(line.split(" ")) == 2


# ----------------------------------------------------------------------
# TraceRecorder (unit, injected clock)
# ----------------------------------------------------------------------

def test_recorder_spans_and_events_deterministic():
    clock = FakeClock()
    recorder = TraceRecorder(capacity=4, clock=clock)
    recorder.start("job-1", scene="lego", pipeline="dense")
    recorder.begin_span("job-1", "queue")
    clock.advance(1.0)
    recorder.end_span("job-1", "queue")
    recorder.add_span("job-1", "render-tile", start_s=1.0, end_s=1.5, worker=2, tile=0)
    recorder.add_event("job-1", "hedged", tile=0, worker=2)
    clock.advance(0.5)
    recorder.finish("job-1", "done")

    trace = recorder.get("job-1")
    assert trace.state == "done" and trace.finished_s == 1.5
    assert trace.stage_totals() == {"queue": 1.0, "render-tile": 0.5}
    assert [span.name for span in trace.spans] == ["queue", "render-tile"]
    assert trace.spans[1].attrs == {"worker": 2, "tile": 0}
    (event,) = trace.events
    assert event.name == "hedged" and event.ts_s == 1.0
    doc = trace.as_dict()
    assert doc["stage_totals_s"]["queue"] == 1.0
    assert doc["spans"][0]["duration_s"] == 1.0


def test_recorder_ring_is_bounded_and_indexed():
    recorder = TraceRecorder(capacity=3, clock=FakeClock())
    for index in range(10):
        job = f"job-{index}"
        recorder.start(job)
        recorder.finish(job, "done")
    assert len(recorder) == 3
    assert recorder.get("job-0") is None  # evicted from ring *and* index
    assert [t.job_id for t in recorder.traces()] == ["job-7", "job-8", "job-9"]


def test_recorder_capacity_zero_disables_recording():
    recorder = TraceRecorder(capacity=0)
    recorder.start("job-1")
    recorder.begin_span("job-1", "queue")
    recorder.add_event("job-1", "hedged")
    recorder.finish("job-1", "done")
    assert not recorder.enabled
    assert len(recorder) == 0 and recorder.get("job-1") is None
    assert len(recorder.supervisor_events) == 0
    with pytest.raises(ValueError):
        TraceRecorder(capacity=-1)


def test_recorder_event_routing():
    clock = FakeClock()
    recorder = TraceRecorder(capacity=2, clock=clock)
    recorder.add_event(None, "respawn", worker=1)  # pool-scoped
    recorder.add_event("never-seen", "stolen", scene="lego")  # unknown job
    assert [e.name for e in recorder.supervisor_events] == ["respawn", "stolen"]
    assert recorder.supervisor_events[1].attrs["job_id"] == "never-seen"
    recorder.start("job-1")
    recorder.add_event("job-1", "redispatched", tile=3)
    assert recorder.get("job-1").events[0].name == "redispatched"


def test_recorder_finish_closes_open_spans_except_deliver():
    clock = FakeClock()
    recorder = TraceRecorder(capacity=2, clock=clock)
    recorder.start("job-1")
    recorder.begin_span("job-1", "queue")
    clock.advance(1.0)
    recorder.begin_span("job-1", "deliver")
    recorder.finish("job-1", "done")
    trace = recorder.get("job-1")
    queue, deliver = trace.spans
    assert queue.end_s == 1.0  # force-closed at finish
    assert deliver.end_s is None  # legitimately outlives the terminal state
    clock.advance(2.0)
    recorder.end_span("job-1", "deliver")  # late close finds finished traces
    assert deliver.end_s == 3.0 and deliver.duration_s == 2.0


def test_recorder_chrome_export_structure():
    clock = FakeClock()
    clock.now = 100.0  # non-zero epoch: export must rebase to t=0
    recorder = TraceRecorder(capacity=4, clock=clock)
    recorder.start("job-1", scene="lego", pipeline="dense")
    recorder.add_span("job-1", "render-tile", start_s=100.5, end_s=101.0, tile=0)
    recorder.add_event("job-1", "hedged", tile=0)
    recorder.finish("job-1", "done")
    recorder.add_event(None, "respawn", worker=0)
    doc = recorder.export_chrome()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metadata} >= {"render-server", "supervisor"}
    (span,) = [e for e in events if e["ph"] == "X"]
    assert span["name"] == "render-tile" and span["args"]["job_id"] == "job-1"
    assert span["ts"] == pytest.approx(0.5e6) and span["dur"] == pytest.approx(0.5e6)
    instants = {e["name"]: e for e in events if e["ph"] == "i"}
    assert instants["hedged"]["s"] == "t" and instants["respawn"]["s"] == "p"
    assert instants["respawn"]["tid"] == 0  # supervisor lane
    json.dumps(doc, allow_nan=False)  # strictly serializable


# ----------------------------------------------------------------------
# Telemetry: bounded memory, p99, stage breakdown, wall throughput
# ----------------------------------------------------------------------

def test_telemetry_memory_bounded_under_sustained_traffic():
    """Regression for the old unbounded ``latencies_s``/``queue_waits_s``
    lists: 20k completions may not grow the telemetry's retained state."""
    telemetry = Telemetry()
    assert not hasattr(telemetry, "latencies_s")
    assert not hasattr(telemetry, "queue_waits_s")
    baseline = None
    for index in range(20_000):
        telemetry.record_completion(0.01 + (index % 7) * 0.003, 0.001, reassemble_s=1e-4)
        telemetry.record_delivery(5e-4)
        if index == 999:
            baseline = sum(h.memory_slots() for h in telemetry.stages.values())
    assert sum(h.memory_slots() for h in telemetry.stages.values()) == baseline
    stats = telemetry.snapshot(queue_depth=0)
    assert stats.completed == 20_000
    assert stats.latency_p99_s >= stats.latency_p95_s >= stats.latency_p50_s > 0


def test_telemetry_stage_breakdown_and_throughputs():
    telemetry = Telemetry()
    from repro.nerf.renderer import RenderStats

    stats = RenderStats()
    stats.num_rays = 1000
    telemetry.record_build(2.0, worker_id=0)
    telemetry.record_tile(stats, service_s=2.0, worker_id=0)
    telemetry.record_completion(4.5, 0.25, reassemble_s=0.25)
    snapshot = telemetry.snapshot(queue_depth=0, wall_s=10.0, num_workers=1)
    # Busy-time normalization: 1000 rays / (2s render + 2s build).
    assert snapshot.throughput_rays_per_s == pytest.approx(250.0)
    # Wall normalization: the capacity figure, over elapsed time.
    assert snapshot.throughput_rays_per_s_wall == pytest.approx(100.0)
    assert set(snapshot.stage_breakdown) == set(STAGE_NAMES)
    assert snapshot.stage_breakdown["render"]["count"] == 1
    assert snapshot.stage_breakdown["build"]["total_s"] == pytest.approx(2.0)
    assert snapshot.stage_breakdown["deliver"]["count"] == 0
    assert snapshot.as_dict()["stage_breakdown"]["latency"]["p99_s"] == pytest.approx(4.5)


def test_telemetry_wall_throughput_zero_without_wall():
    telemetry = Telemetry()
    assert telemetry.snapshot(queue_depth=0).throughput_rays_per_s_wall == 0.0


# ----------------------------------------------------------------------
# Server integration: traces account for latency (serial backend)
# ----------------------------------------------------------------------

def stage_accounting(trace_doc_or_trace, latency_s: float):
    """Assert the non-deliver stage spans account for the job's latency."""
    if hasattr(trace_doc_or_trace, "stage_totals"):
        totals = trace_doc_or_trace.stage_totals()
    else:
        totals = trace_doc_or_trace["stage_totals_s"]
    accounted = sum(v for stage, v in totals.items() if stage != "deliver")
    tolerance = max(0.5 * latency_s, 0.05)
    assert abs(accounted - latency_s) <= tolerance, (
        f"stage spans account for {accounted:.4f}s of a {latency_s:.4f}s job"
    )
    return totals


def test_serial_job_trace_accounts_for_latency(warm_store):
    server = RenderServer(warm_store)
    job = server.submit("lego", "dense", tile_size=TILE)
    server.run_until_idle()
    result = server.result(job)

    trace = server.tracer.get(job)
    assert trace is not None and trace.state == "done"
    names = {span.name for span in trace.spans}
    assert {"queue", "render-tile", "reassemble", "deliver"} <= names
    assert names <= set(SPAN_NAMES)
    assert all(span.end_s is not None for span in trace.spans)  # deliver closed
    assert sum(1 for s in trace.spans if s.name == "render-tile") == 8  # 576/77
    for span in trace.spans:
        if span.name == "render-tile":
            assert span.attrs["worker"] == 0 and isinstance(span.attrs["tile"], int)
    totals = stage_accounting(trace, result.latency_s)
    assert totals["queue"] >= 0.0 and totals["render-tile"] > 0.0
    server.close()


def test_serial_trace_spans_nest_within_job_window(warm_store):
    server = RenderServer(warm_store)
    job = server.submit("ficus", "dense", tile_size=TILE)
    server.run_until_idle()
    server.result(job)
    trace = server.tracer.get(job)
    for span in trace.spans:
        assert span.start_s >= trace.origin_s - 1e-9
        if span.name != "deliver":
            assert span.end_s <= trace.finished_s + 1e-9
    server.close()


def test_frames_bit_identical_with_tracing_on_and_off(warm_store):
    with RenderServer(warm_store) as traced, RenderServer(
        warm_store, trace_capacity=0
    ) as untraced:
        frames = {}
        for name, server in (("on", traced), ("off", untraced)):
            job = server.submit("lego", "spnerf", tile_size=TILE)
            server.run_until_idle()
            frames[name] = server.result(job).image
        assert len(traced.tracer) == 1 and len(untraced.tracer) == 0
    assert frames["on"].tobytes() == frames["off"].tobytes()


def test_expired_job_trace_records_the_event(warm_store):
    clock = FakeClock()
    server = RenderServer(warm_store, clock=clock)
    job = server.submit("lego", "dense", deadline_s=0.5, tile_size=64)
    server.step()
    clock.advance(1.0)
    server.run_until_idle()
    assert server.poll(job).state is JobState.EXPIRED
    trace = server.tracer.get(job)
    assert trace.state == "expired"
    assert [e.name for e in trace.events] == ["expired"]
    assert trace.events[0].attrs["deadline_s"] == 0.5
    assert all(e.name in EVENT_NAMES for e in trace.events)
    server.close()


def test_server_metrics_text_exposes_counters_and_stages(warm_store):
    server = RenderServer(warm_store)
    job = server.submit("lego", "dense", tile_size=TILE)
    server.run_until_idle()
    server.result(job)
    text = server.metrics_text()
    assert text.endswith("\n")
    assert "repro_serve_jobs_completed_total 1" in text
    assert "repro_serve_tiles_rendered_total 8" in text
    for stage in ("queue_wait", "render", "latency"):
        assert f"# TYPE repro_serve_{stage}_seconds histogram" in text
    # Cumulative invariant on one family: counts never decrease, end at +Inf.
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_serve_latency_seconds_bucket")
    ]
    assert buckets and buckets == sorted(buckets) and buckets[-1] == 1
    assert 'repro_serve_worker_utilization{worker="0"}' in text
    server.close()


# ----------------------------------------------------------------------
# Process backend: cross-process durations, elasticity events
# ----------------------------------------------------------------------

def test_process_job_trace_accounts_for_latency():
    """Worker-side build+render durations travel in TileResult fields and are
    anchored onto the scheduler's clock: the reconstructed spans must still
    account for the job's latency, tile affinity keeping them sequential."""
    store = make_store()
    backend = RemoteBackend(num_workers=2)
    with RenderServer(store, backend=backend) as server:
        jobs = [
            server.submit("lego", "dense", tile_size=TILE),
            server.submit("ficus", "dense", tile_size=TILE),
        ]
        server.run_until_idle()
        for job in jobs:
            result = server.result(job)
            trace = server.tracer.get(job)
            assert trace.state == "done"
            totals = stage_accounting(trace, result.latency_s)
            assert totals["render-tile"] > 0.0
            assert totals.get("build", 0.0) > 0.0  # workers rebuilt bundles
            workers = {
                span.attrs["worker"]
                for span in trace.spans
                if span.name == "render-tile"
            }
            assert len(workers) == 1  # affinity: one shard rendered the job
        assert server.stats().stage_breakdown["build"]["count"] >= 2


def test_process_kill_traces_redispatch_and_respawn(warm_store):
    store = make_store()
    backend = RemoteBackend(
        num_workers=2, fault_plan=FaultPlan(kill_worker=0, kill_after_tiles=2)
    )
    with RenderServer(store, backend=backend) as server:
        lego = server.submit("lego", "dense", tile_size=TILE)
        ficus = server.submit("ficus", "dense", tile_size=TILE)
        server.run_until_idle()
        for job in (lego, ficus):
            assert server.poll(job).state is JobState.DONE
        assert server.stats().worker_respawns >= 1
        supervisor = [e.name for e in server.tracer.supervisor_events]
        assert "respawn" in supervisor
        traced_events = [
            e.name for t in server.tracer.traces() for e in t.events
        ] + supervisor
        assert "redispatched" in traced_events
        # The direct render through a traced, healed pool stays bit-identical.
        direct = warm_store.get("lego", "dense").engine.render(
            camera_indices=(0,), chunk_size=TILE
        ).image
        assert server.result(lego).image.tobytes() == direct.tobytes()


def test_process_hedge_traces_the_hedged_event():
    store = make_store()
    backend = RemoteBackend(
        num_workers=2,
        fault_plan=FaultPlan(delay_worker=1, delay_s=0.25),
        hedge_multiplier=2.0,
        hedge_min_samples=3,
    )
    with RenderServer(store, backend=backend) as server:
        fast = server.submit("lego", "dense", tile_size=TILE)
        slow = server.submit("ficus", "dense", tile_size=TILE)
        server.run_until_idle()
        for job in (fast, slow):
            assert server.poll(job).state is JobState.DONE, server.poll(job).error
        assert server.stats().hedged_tiles >= 1
        hedged = [
            event
            for trace in server.tracer.traces()
            for event in trace.events
            if event.name == "hedged"
        ] + [e for e in server.tracer.supervisor_events if e.name == "hedged"]
        assert hedged, "hedged dispatches must be annotated in traces"
        assert "hedge_worker" in hedged[0].attrs


# ----------------------------------------------------------------------
# HTTP surfaces
# ----------------------------------------------------------------------

def test_wire_json_is_nan_safe():
    body = json_body({"p50": float("nan"), "inf": float("inf"), "deep": [float("-inf")]})
    doc = strict_loads(body)
    assert doc == {"p50": None, "inf": None, "deep": [None]}
    frame = sse_event_bytes("stats", {"p95": float("nan")})
    _, _, data = frame.partition(b"data: ")
    assert strict_loads(data.strip()) == {"p95": None}


@contextlib.contextmanager
def frontend(store, **server_kwargs):
    server = RenderServer(store, **server_kwargs)
    edge = HttpRenderFrontEnd(server)
    host, port = edge.run_in_thread()
    try:
        yield server, host, port
    finally:
        edge.shutdown()
        server.close()


def test_http_stats_strict_json_before_first_completion(warm_store):
    """Satellite 1: percentiles are NaN before any job completes — the JSON
    body must serialize them as null, never as bare NaN tokens."""
    with frontend(warm_store) as (_server, host, port):

        async def scrape():
            async with RenderClient(host, port) as client:
                return await client.request("GET", "/v1/stats")

        response = asyncio.run(scrape())
    assert response.status == 200
    doc = strict_loads(response.body)  # raises on any non-JSON constant
    assert doc["server"]["latency_p50_s"] is None
    assert doc["server"]["latency_p99_s"] is None
    assert doc["edge"]["request_latency_p95_s"] is None


def test_http_trace_endpoints_round_trip(warm_store):
    with frontend(warm_store, default_tile_size=TILE) as (server, host, port):

        async def drive():
            async with RenderClient(host, port) as client:
                await client.render(scene="lego", pipeline="dense")
                job_id = server.tracer.traces()[-1].job_id
                trace = await client.request("GET", f"/v1/trace/{job_id}")
                export = await client.request("GET", "/v1/traces/export")
                missing = await client.request("GET", "/v1/trace/nope")
                metrics = await client.request("GET", "/v1/metrics")
                return job_id, trace, export, missing, metrics

        job_id, trace, export, missing, metrics = asyncio.run(drive())

    assert trace.status == 200
    doc = strict_loads(trace.body)
    assert doc["job_id"] == job_id and doc["state"] == "done"
    span_names = {span["name"] for span in doc["spans"]}
    assert {"queue", "render-tile", "reassemble", "deliver"} <= span_names
    # The HTTP edge opened the trace at request parse: the origin precedes
    # the queue span's start (submit happened after body parsing).
    queue_span = next(s for s in doc["spans"] if s["name"] == "queue")
    assert doc["origin_s"] <= queue_span["start_s"]
    # The SSE/result delivery closed the deliver span.
    deliver = next(s for s in doc["spans"] if s["name"] == "deliver")
    assert deliver["end_s"] is not None

    assert missing.status == 404

    export_doc = strict_loads(export.body)
    assert export_doc["displayTimeUnit"] == "ms"
    phases = {event["ph"] for event in export_doc["traceEvents"]}
    assert {"M", "X"} <= phases
    exported_spans = {
        e["name"] for e in export_doc["traceEvents"] if e["ph"] == "X"
    }
    assert exported_spans <= set(SPAN_NAMES)

    assert metrics.status == 200
    assert metrics.headers["content-type"] == PROMETHEUS_CONTENT_TYPE
    text = metrics.body.decode("utf-8")
    assert "repro_serve_jobs_completed_total 1" in text
    assert "# TYPE repro_edge_requests_total counter" in text
    assert "# TYPE repro_edge_request_seconds histogram" in text
