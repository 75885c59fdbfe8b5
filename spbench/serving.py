"""Workload ``serve-render``: the full HTTP request path.

A child process (:mod:`spbench.server_child`) serves
``HttpRenderFrontEnd`` -> ``RenderServer(cache="lru")`` -> the ``"process"``
backend.  The load is one closed-loop client per scene in this process: an
AR/VR viewer asks for its next frame only after the previous one arrived, so
the queue never holds more jobs than there are clients.  Each client submits
with ``POST /v1/jobs?stream=sse``, learns completion from the SSE stream,
then fetches the frame with ``GET /v1/jobs/{id}/result``.  A client holds one
connection at a time, so at most two connections are open.  The HTTP/1.1 +
SSE client is written here on stdlib asyncio, so edits to the program's own
client cannot change the workload.

Every request is a distinct (scene, pipeline, camera) frame, so every tile
misses the tile cache, renders in a pool worker and is inserted.

Frame latency runs from the submit to the last byte of the fetched frame.
Served frames are checked against direct ``RenderEngine`` renders after the
timed window.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from spbench.common import (
    PSNR_CAMERAS,
    SCENE_KWARGS,
    SERVE_PIPELINES,
    SERVE_RIG,
    SERVE_SCENES,
    SETUP_REPEATS,
    Checks,
    latency_metrics,
    percentile,
)
from spbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
HOST = "127.0.0.1"

Key = Tuple[str, str, int]

#: Served frames per (scene, pipeline) checked against a direct render.
SAMPLE_PER_KEY = 2
#: Jobs whose server-side traces the traced run reads (the server keeps 256).
TRACED_JOBS = 200
#: Seconds a single HTTP exchange may take before the run fails.
IO_TIMEOUT_S = 60.0

TERMINAL_EVENTS = ("done", "failed", "expired", "cancelled", "shutdown")


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def scene_keys() -> List[Tuple[str, str]]:
    """(scene, pipeline) pairs in pipeline-major order.

    Warm-up submits in this order, so the process pool's first-touch
    affinity is the same on every run.
    """
    return [(scene, pipeline) for pipeline in SERVE_PIPELINES for scene in SERVE_SCENES]


def render_requests(seed: int) -> Tuple[List[Key], List[Iterator[Key]]]:
    """Warm-up frames at camera 0, then one stream per client.

    Client ``i`` views scene ``SERVE_SCENES[i]``: blocks holding both
    pipelines once in a seeded order, each at the pipeline's next camera of
    a seeded permutation, so no frame repeats and every window requests the
    same mix of work whatever the seed.
    """
    warmup = [(scene, pipeline, 0) for scene, pipeline in scene_keys()]
    streams = []
    for index, scene in enumerate(SERVE_SCENES):
        rng = random.Random(seed * len(SERVE_SCENES) + index)
        cameras = {p: rng.sample(range(1, SERVE_RIG), SERVE_RIG - 1) for p in SERVE_PIPELINES}
        frames = [
            (scene, pipeline, cameras[pipeline][block])
            for block in range(SERVE_RIG - 1)
            for pipeline in rng.sample(SERVE_PIPELINES, len(SERVE_PIPELINES))
        ]
        streams.append(iter(frames))
    return warmup, streams


# ----------------------------------------------------------------------
# HTTP/1.1 + SSE client
# ----------------------------------------------------------------------
class RequestFailed(Exception):
    """An HTTP exchange did not produce what the protocol promises."""


@dataclass
class FrameRecord:
    key: Key
    issued: float
    accepted: float = 0.0
    terminal: float = 0.0
    fetch_start: float = 0.0
    finished: float = 0.0
    job_id: str = ""
    nbytes: int = 0
    #: The bytes equal the first frame served for the same key in this run.
    matches_first: bool = False
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.finished - self.issued


async def _read_head(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], int]:
    status_line = await reader.readuntil(b"\r\n")
    nbytes = len(status_line)
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
        raise RequestFailed(f"malformed status line {status_line[:80]!r}")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readuntil(b"\r\n")
        nbytes += len(line)
        if line == b"\r\n":
            return int(parts[1]), headers, nbytes
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def http_json(port: int, method: str, path: str, body: Optional[dict] = None) -> dict:
    """One request on its own connection, JSON in and out."""
    payload = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\nConnection: close\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        status, headers, _ = await _read_head(reader)
        data = await reader.readexactly(int(headers.get("content-length", "0")))
    finally:
        await _close(writer)
    if status >= 300:
        raise RequestFailed(f"{method} {path} -> {status}: {data[:200]!r}")
    return json.loads(data)


async def _read_sse(reader: asyncio.StreamReader, record: Optional[FrameRecord]):
    """Yield ``(event, payload)`` from an SSE stream until a terminal event."""
    event, data = None, None
    while True:
        line = await reader.readline()
        if record is not None:
            record.nbytes += len(line)
        if not line:
            raise RequestFailed("SSE stream closed before a terminal event")
        if line.startswith(b"event:"):
            event = line[6:].strip().decode()
        elif line.startswith(b"data:"):
            data = json.loads(line[5:])
        elif line == b"\n" and event is not None:
            yield event, data
            if event in TERMINAL_EVENTS:
                return
            event, data = None, None


async def wait_job(port: int, job_id: str) -> str:
    """Block on a job's SSE stream until its terminal event; returns the event."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(f"GET /v1/jobs/{job_id}/stream HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode())
        await writer.drain()
        status, _, _ = await _read_head(reader)
        if status != 200:
            raise RequestFailed(f"stream of {job_id} -> {status}")
        async for event, _ in _read_sse(reader, None):
            if event in TERMINAL_EVENTS:
                return event
    finally:
        await _close(writer)
    raise RequestFailed(f"no terminal event for {job_id}")


async def fetch_frame(port: int, record: FrameRecord) -> bytes:
    """``GET /v1/jobs/{id}/result``: the raw frame bytes (shape checked)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"GET /v1/jobs/{record.job_id}/result HTTP/1.1\r\nHost: {HOST}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status, headers, nbytes = await _read_head(reader)
        body = await reader.readexactly(int(headers.get("content-length", "0")))
    finally:
        await _close(writer)
    record.nbytes += nbytes + len(body)
    if status != 200:
        raise RequestFailed(f"result of {record.job_id} -> {status}: {body[:200]!r}")
    size = SCENE_KWARGS["image_size"]
    if headers.get("x-frame-shape") != f"{size},{size},3":
        raise RequestFailed(f"result of {record.job_id} has shape {headers.get('x-frame-shape')}")
    return body


def _job_body(key: Key) -> dict:
    scene, pipeline, camera = key
    return {"scene": scene, "pipeline": pipeline, "camera_index": camera}


async def render_frame(port: int, key: Key, client: str) -> Tuple[FrameRecord, bytes]:
    """Submit one frame, follow its SSE stream to ``done``, fetch the bytes."""
    scene, pipeline, camera = key
    record = FrameRecord(key=key, issued=time.perf_counter())
    payload = json.dumps(_job_body(key)).encode()
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"POST /v1/jobs?stream=sse HTTP/1.1\r\nHost: {HOST}\r\nX-API-Key: {client}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        status, _, nbytes = await _read_head(reader)
        record.nbytes += nbytes
        if status != 200:
            raise RequestFailed(f"submit {key} -> {status}")
        async for event, data in _read_sse(reader, record):
            if event == "accepted":
                record.accepted = time.perf_counter()
                record.job_id = data["job_id"]
            elif event in TERMINAL_EVENTS:
                record.terminal = time.perf_counter()
                if event != "done":
                    raise RequestFailed(f"job for {key} ended {event}: {data}")
    finally:
        await _close(writer)
    record.fetch_start = time.perf_counter()
    body = await fetch_frame(port, record)
    record.finished = time.perf_counter()
    return record, body


async def closed_loop(port: int, streams: List[Iterator[Key]], seconds: float,
                      first: Dict[Key, bytes]) -> List[FrameRecord]:
    """One client per stream, each issuing its next frame when the last arrived.

    Clients stop issuing after ``seconds`` (or when their stream runs out);
    frames in flight then finish.  ``first`` keeps the bytes of the first
    frame served per key; later frames of the key only record whether they
    equal it (a memory compare), and the first frames are checked against
    direct renders after the window.
    """
    deadline = time.perf_counter() + seconds
    records: List[FrameRecord] = []

    async def client(index: int) -> None:
        for key in streams[index]:
            try:
                record, body = await asyncio.wait_for(
                    render_frame(port, key, f"client-{index}"), IO_TIMEOUT_S
                )
            except (RequestFailed, OSError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, asyncio.TimeoutError, ValueError) as exc:
                record = FrameRecord(key=key, issued=0.0, error=f"{type(exc).__name__}: {exc}")
            else:
                record.matches_first = body == first.setdefault(key, body)
            records.append(record)
            if time.perf_counter() >= deadline:
                return

    await asyncio.gather(*(client(index) for index in range(len(streams))))
    return records


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _proc_children(pid: int) -> List[int]:
    children: List[int] = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        children.extend(int(child) for child in path.read_text().split())
    return children


def _proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """The child server: started on entry, stopped (with its workers) on exit."""

    def __enter__(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        kwargs = dict(SCENE_KWARGS, num_views=SERVE_RIG)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "spbench.server_child", json.dumps(kwargs)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"server process exited with {self.proc.returncode} before listening")
        self.port = int(json.loads(line)["port"])
        self.workers = _proc_children(self.proc.pid)
        return self

    def cpu_s(self) -> Tuple[float, float]:
        """(front-end process, summed worker processes) CPU seconds so far."""
        return _proc_cpu_s(self.proc.pid), sum(_proc_cpu_s(pid) for pid in self.workers)

    def stop(self) -> None:
        if self.proc.poll() is not None:
            return
        workers = _proc_children(self.proc.pid)
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            for pid in workers:
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
async def _warm(port: int, frames: List[Key]) -> None:
    """Submit ``frames`` in order (fixing first-touch affinity), wait for all."""
    job_ids = []
    for key in frames:
        view = await http_json(port, "POST", "/v1/jobs", _job_body(key))
        job_ids.append(view["job_id"])
    for job_id in job_ids:
        event = await wait_job(port, job_id)
        if event != "done":
            raise RuntimeError(f"warm-up job {job_id} ended {event}")


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    b, a = before["server"], after["server"]
    delta = {name: a[name] - b[name] for name in (
        "completed", "tiles_rendered", "cache_hits", "cache_misses", "cache_insertions",
        "store_misses", "busy_s",
    )}
    delta["builds"] = a["stage_breakdown"]["build"]["count"] - b["stage_breakdown"]["build"]["count"]
    delta["num_workers"] = a["num_workers"]
    return delta


async def _measure(port: int, server: ServerProcess, streams: List[Iterator[Key]],
                   seconds: float, first: Dict[Key, bytes]) -> dict:
    """One timed closed-loop window with stats and CPU differenced across it."""
    stats_before = await http_json(port, "GET", "/v1/stats")
    cpu_before = server.cpu_s()
    client_cpu = time.process_time()
    start = time.perf_counter()
    records = await closed_loop(port, streams, seconds, first)
    wall = time.perf_counter() - start
    client_cpu = time.process_time() - client_cpu
    cpu_after = server.cpu_s()
    stats_after = await http_json(port, "GET", "/v1/stats")
    return {
        "records": records,
        "wall": wall,
        "client_cpu": client_cpu,
        "front_cpu": cpu_after[0] - cpu_before[0],
        "worker_cpu": cpu_after[1] - cpu_before[1],
        "stats": _stats_delta(stats_before, stats_after),
    }


async def _job_traces(port: int, records: List[FrameRecord]) -> List[dict]:
    ok = [record for record in records if not record.error]
    return [await http_json(port, "GET", f"/v1/trace/{r.job_id}") for r in ok[-TRACED_JOBS:]]


async def _drive(seed: int, seconds: float, trace: bool, started: float) -> dict:
    warmup, streams = render_requests(seed)
    first: Dict[Key, bytes] = {}
    # Set up SETUP_REPEATS times: start a cold server and warm it (bundle
    # builds in the workers); the first repeat counts from process start.
    # Only the last server is measured.
    setup_times = []
    for _ in range(SETUP_REPEATS - 1):
        with ServerProcess() as server:
            await _warm(server.port, warmup)
            setup_times.append(time.perf_counter() - started)
        started = time.perf_counter()
    with ServerProcess() as server:
        await _warm(server.port, warmup)
        setup_times.append(time.perf_counter() - started)
        setup_s = statistics.median(setup_times)
        if not trace:
            window = await _measure(server.port, server, streams, seconds, first)
            return {"setup_s": setup_s, "windows": [window], "first": first}
        # Traced run: the first half is the untraced reference for the
        # tracing overhead, the second half gives the per-layer numbers.
        untraced = await _measure(server.port, server, streams, seconds / 2, first)
        traced = await _measure(server.port, server, streams, seconds / 2, first)
        traced["traces"] = await _job_traces(server.port, traced["records"])
        return {"setup_s": setup_s, "windows": [untraced, traced], "first": first}


def run(seed: int, seconds: float, trace: bool, started: float) -> dict:
    driven = asyncio.run(_drive(seed, seconds, trace, started))
    windows = driven["windows"]
    checks = Checks()
    for window in windows:
        _check_window(window, checks)
    direct = _DirectRenders()
    records = [record for window in windows for record in window["records"]]
    _check_frames(seed, records, driven["first"], direct, checks)
    window = windows[-1]
    ok = [record for record in window["records"] if not record.error]
    tracer = None
    if trace:
        tracer = _client_spans(ok)
        values = _layer_metrics(window, windows[0], ok)
    else:
        values = latency_metrics([record.latency_s for record in ok], window["wall"])
        values["psnr_db"] = direct.psnr()
        values["memory_reduction_x"] = direct.memory_reduction()
        values["setup_s"] = driven["setup_s"]
    return {"checks": checks, "values": values, "samples": len(ok), "tracer": tracer}


# ----------------------------------------------------------------------
# Checks (outside the timed window)
# ----------------------------------------------------------------------
class _DirectRenders:
    """Bundles built in this process, with the server's configuration."""

    def __init__(self) -> None:
        from repro.api import RenderEngine, build_field, load_scene

        self.scenes = {s: load_scene(s, num_views=SERVE_RIG, **SCENE_KWARGS) for s in SERVE_SCENES}
        self.engines = {
            (s, p): RenderEngine(build_field(p, scene), scene)
            for s, scene in self.scenes.items()
            for p in SERVE_PIPELINES
        }

    def image(self, key: Key):
        scene, pipeline, camera = key
        return self.engines[(scene, pipeline)].render(camera_indices=(camera,)).image

    def frame_bytes(self, key: Key) -> bytes:
        import numpy as np

        return np.ascontiguousarray(self.image(key)).tobytes()

    def psnr(self) -> float:
        from repro.nerf.metrics import psnr

        values = [
            float(psnr(self.image((s, "spnerf", c)), self.scenes[s].reference_image(c)))
            for s in SERVE_SCENES
            for c in PSNR_CAMERAS
        ]
        return sum(values) / len(values)

    def memory_reduction(self) -> float:
        def total(pipeline):
            return sum(self.engines[(s, pipeline)].field.memory_report()["total"]
                       for s in SERVE_SCENES)

        return total("dense") / total("spnerf")


def _check_window(window: dict, checks: Checks) -> None:
    """Workload self-checks over the timed window, from the server's counters."""
    stats = window["stats"]
    checks.require(stats["cache_hits"] == 0 and stats["cache_misses"] > 0,
                   f"{stats['cache_hits']} tile-cache hits in the timed window, expected "
                   "every tile to miss (hit rate 0.0)")
    misses = stats["store_misses"] + stats["builds"]
    checks.require(misses == 0, f"{misses} scene-store misses in the timed window, expected 0")
    ok = sum(1 for record in window["records"] if not record.error)
    checks.require(stats["completed"] == ok,
                   f"server completed {stats['completed']} jobs, clients received {ok} frames")


def _check_frames(seed: int, records: List[FrameRecord], first: Dict[Key, bytes],
                  direct: _DirectRenders, checks: Checks) -> None:
    """Served frames must be bit-identical to direct renders.

    A seeded sample of ``SAMPLE_PER_KEY`` served frames per (scene, pipeline)
    is compared with direct renders; any repeated key must also equal its
    first frame.
    """
    served: Dict[Key, List[FrameRecord]] = {}
    for record in records:
        if record.error:
            checks.frame(False, f"{record.key}: {record.error}")
        else:
            served.setdefault(record.key, []).append(record)
    rng = random.Random(seed ^ 0x5EED)
    sample = []
    for scene, pipeline in scene_keys():
        keys = sorted(k for k in served if k[:2] == (scene, pipeline))
        sample.extend(rng.sample(keys, min(SAMPLE_PER_KEY, len(keys))))
    covered = {key[:2] for key in sample}
    checks.require(covered == set(scene_keys()),
                   f"checked frames cover {sorted(covered)}, not every (scene, pipeline)")
    for key in sample:
        identical = direct.frame_bytes(key) == first[key]
        for record in served[key]:
            checks.frame(identical and record.matches_first,
                         f"{key} ({record.job_id}): served frame differs from the direct render")
    for key, frames in served.items():
        if key not in sample:
            for record in frames:
                checks.frame(record.matches_first,
                             f"{key} ({record.job_id}): served frame differs from the key's first")


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _client_spans(records: List[FrameRecord]) -> Tracer:
    tracer = Tracer()
    for r in records:
        root = tracer.record("bench.frame", r.issued, r.finished, job=r.job_id)
        tracer.record("http.submit", r.issued, r.accepted, root)
        tracer.record("http.wait", r.accepted, r.terminal, root)
        tracer.record("http.result", r.fetch_start, r.finished, root)
    return tracer


def _span_ms(traces: List[dict], name: str) -> List[float]:
    """Durations of the server's closed ``name`` spans over the traced jobs."""
    return [
        span["duration_s"] * 1e3
        for trace in traces
        for span in trace["spans"]
        if span["name"] == name and span["end_s"] is not None
    ]


def _layer_metrics(window: dict, untraced: dict, records: List[FrameRecord]) -> Dict[str, float]:
    stats = window["stats"]
    traces = window["traces"]
    frames = max(1, len(records))
    untraced_ok = [r.latency_s for r in untraced["records"] if not r.error]
    traced_p50 = percentile([r.latency_s for r in records], 50)
    untraced_p50 = percentile(untraced_ok, 50)
    return {
        "serve.queue_wait_ms.p50": percentile(_span_ms(traces, "queue"), 50),
        "serve.queue_wait_ms.p90": percentile(_span_ms(traces, "queue"), 90),
        "serve.render_tile_ms.p50": percentile(_span_ms(traces, "render-tile"), 50),
        "serve.worker_utilization": stats["busy_s"] / (window["wall"] * stats["num_workers"]),
        "serve.worker_cpu_ms_per_frame": window["worker_cpu"] * 1e3 / frames,
        "serve.front_cpu_ms_per_frame": window["front_cpu"] * 1e3 / frames,
        "serve.reassemble_ms.p50": percentile(_span_ms(traces, "reassemble"), 50),
        "serve.deliver_ms.p50": percentile(_span_ms(traces, "deliver"), 50),
        "serve.tiles_per_frame": stats["tiles_rendered"] / max(1, stats["completed"]),
        "serve.tile_cache.insertions": stats["cache_insertions"],
        "serve.store.misses": stats["store_misses"] + stats["builds"],
        "http.submit_ms.p50": percentile([(r.accepted - r.issued) * 1e3 for r in records], 50),
        "http.result_ms.p50": percentile([(r.finished - r.fetch_start) * 1e3 for r in records], 50),
        "http.bytes_per_frame": sum(r.nbytes for r in records) / frames,
        "bench.client_cpu_ms_per_frame": window["client_cpu"] * 1e3 / frames,
        "bench.trace_overhead_frac": traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0,
    }
