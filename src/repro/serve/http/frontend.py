"""The :class:`HttpRenderFrontEnd`: an asyncio HTTP/SSE edge over one server.

Architecture
------------
The :class:`~repro.serve.server.RenderServer` is synchronous and single-
threaded by contract — every method mutates scheduler state.  The front end
therefore owns a **driver thread** (a one-worker executor): the pump loop,
every submit/poll/result/cancel, and the fairness structures all execute
there, serialized by construction, while the asyncio event loop only parses
HTTP, awaits driver futures, and writes sockets.  A blocking tile render
never stalls the event loop, and no lock ever guards scheduler state.

Request lifecycle::

    POST /v1/jobs ──► rate limiter (429) ──► per-client DRR queue (depth-capped, 429)
                                                  │  released by the pump, weighted
                                                  ▼  deficit-round-robin + in-flight caps
                                         RenderServer.submit  (202, or 429 on admission
                                                  │            reject with Retry-After)
    pump: admit → step() → feed SSE streams → reap finished jobs

Streaming uses **feeds**: per-job buffers the pump fills after every
scheduling step from ``poll(include_tiles=True)``, so a serial backend's
every tile lands in the stream (no poll-interval races), and a terminal
``done``/``failed``/``expired``/``cancelled`` event always closes it.
``POST /v1/jobs?stream=sse`` registers the feed *before* the job can run,
guaranteeing a client sees each partial tile of its own job.

Endpoints (see the README table):

====== ============================== ==============================================
POST   ``/v1/jobs``                   submit (JSON body); ``?stream=sse`` to stream
GET    ``/v1/jobs/{id}``              job state as JSON (:class:`JobView` fields)
GET    ``/v1/jobs/{id}/result``       raw frame bytes + ``X-Frame-*`` metadata
GET    ``/v1/jobs/{id}/stream``       server-sent events: ``tile`` then terminal
DELETE ``/v1/jobs/{id}``              cancel (``CANCELLED`` if it was active)
GET    ``/v1/stats``                  ``{"server": ServerStats, "edge": HttpEdgeStats}``
                                      (incl. tile-cache hit/dedupe counters)
GET    ``/v1/metrics``                Prometheus text exposition (server + edge,
                                      tile-cache families included)
GET    ``/v1/trace/{id}``             one job's trace as JSON spans/events
GET    ``/v1/traces/export``          Chrome trace-event JSON (open in Perfetto)
====== ============================== ==============================================

Observability: submissions carry the edge's request-parse moment (on the
server's own clock) into ``RenderServer.submit`` as the trace origin, so a
job's trace covers edge queueing too; the first result fetch — or the SSE
terminal ``done`` event — closes the job's ``deliver`` span.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.api import available_pipelines
from repro.serve.http.fairness import DeficitRoundRobin, RateLimiter
from repro.serve.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.serve.http.telemetry import HttpEdgeTelemetry
from repro.serve.http.wire import (
    HttpRequest,
    ProtocolError,
    json_body,
    read_request,
    response_bytes,
    sse_event_bytes,
    sse_header_bytes,
)
from repro.serve.server import JobState, JobView, Priority, RenderServer, UnknownJobError

__all__ = ["HttpRenderFrontEnd", "HttpError"]

#: Job states still wanting worker time (the edge's in-flight definition).
_ACTIVE_STATES = (JobState.QUEUED, JobState.RUNNING)

#: SSE event name per terminal job state (REJECTED streams as a failure).
_TERMINAL_EVENTS = {
    JobState.DONE: "done",
    JobState.FAILED: "failed",
    JobState.EXPIRED: "expired",
    JobState.CANCELLED: "cancelled",
    JobState.REJECTED: "failed",
}

_PRIORITY_NAMES = {p.name.lower(): p for p in Priority}


class HttpError(Exception):
    """A request answered with an error status (raised by driver-side code)."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s

    def payload(self) -> Dict[str, object]:
        body: Dict[str, object] = {"error": self.code, "message": self.message}
        if self.retry_after_s is not None:
            body["retry_after_s"] = round(self.retry_after_s, 3)
        return body


@dataclass(eq=False)
class _StreamFeed:
    """One SSE subscriber's buffer, filled by the pump at step granularity."""

    job_id: str
    queue: "asyncio.Queue[Tuple[str, dict, bool]]"
    include_data: bool = False
    #: ``(start, stop)`` spans already streamed (pool tiles land out of order).
    seen: Set[Tuple[int, int]] = field(default_factory=set)
    closed: bool = False


@dataclass(eq=False)
class _PendingSubmission:
    """A validated submission waiting in the DRR queue for admission."""

    client: str
    params: Dict[str, object]
    future: "asyncio.Future"
    feed: Optional[_StreamFeed] = None


class HttpRenderFrontEnd:
    """Serve one :class:`RenderServer` to many concurrent HTTP clients.

    Parameters
    ----------
    server:
        The render server to drive.  The front end pumps its ``step()`` loop
        from the driver thread; nothing else may touch the server while the
        front end runs.
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`address`).
    rate_limit_hz, rate_limit_burst:
        Per-client token-bucket submission rate (``None`` disables).  Over-
        rate submissions get ``429`` with ``Retry-After``.
    max_in_flight_per_client:
        Jobs of one client the server may hold concurrently; further
        submissions wait in the client's fairness queue.
    max_queue_per_client:
        Fairness-queue depth bound per client; beyond it submissions get
        ``429`` (queue_full) — the edge's memory stays bounded.
    drr_quantum, client_weights:
        Weighted deficit-round-robin knobs.  Costs are the server's admission
        estimates normalized so a typical frame ≈ 1.0; a client with weight 2
        releases twice the work per round.
    retry_after_s:
        The ``Retry-After`` hint on queue-full and admission-reject 429s
        (rate-limit 429s compute the exact token arrival instead).
    stream_keepalive_s:
        Cadence of SSE comment keepalives while a stream has no events (also
        bounds how fast a dead stream's disconnect is noticed).
    """

    def __init__(
        self,
        server: RenderServer,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limit_hz: Optional[float] = None,
        rate_limit_burst: float = 4.0,
        max_in_flight_per_client: int = 4,
        max_queue_per_client: int = 64,
        drr_quantum: float = 1.0,
        client_weights: Optional[Dict[str, float]] = None,
        retry_after_s: float = 1.0,
        stream_keepalive_s: float = 15.0,
    ) -> None:
        if max_in_flight_per_client < 1:
            raise ValueError(
                f"max_in_flight_per_client must be at least 1, got {max_in_flight_per_client}"
            )
        if max_queue_per_client < 1:
            raise ValueError(
                f"max_queue_per_client must be at least 1, got {max_queue_per_client}"
            )
        self.server = server
        self.host = host
        self.port = port
        self.max_in_flight_per_client = max_in_flight_per_client
        self.max_queue_per_client = max_queue_per_client
        self.retry_after_s = retry_after_s
        self.stream_keepalive_s = stream_keepalive_s
        self.telemetry = HttpEdgeTelemetry()
        self._limiter = RateLimiter(rate_limit_hz, burst=rate_limit_burst)
        self._drr = DeficitRoundRobin(quantum=drr_quantum, weights=client_weights)
        #: Driver-thread state: admitted-unfinished jobs per client, job->client.
        self._in_flight: Dict[str, int] = {}
        self._job_clients: Dict[str, str] = {}
        self._unfinished: Set[str] = set()
        self._feeds: Dict[str, List[_StreamFeed]] = {}
        self._cost_reference: Optional[float] = None
        #: One worker: every RenderServer touch serializes through it.
        self._driver = ThreadPoolExecutor(max_workers=1, thread_name_prefix="render-driver")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._connections: Set[asyncio.Task] = set()
        self._wake: Optional[asyncio.Event] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._thread_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid once started)."""
        if self._listener is None:
            raise RuntimeError("front end is not started")
        sock = self._listener.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the pump; returns the bound address."""
        if self._running:
            raise RuntimeError("front end is already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._shutdown_requested = asyncio.Event()
        self._running = True
        self._listener = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._pump_task = asyncio.create_task(self._pump_loop(), name="render-pump")
        return self.address

    async def stop(self) -> None:
        """Drain cleanly: close the listener, end streams, stop the pump.

        Open SSE streams receive a terminal ``shutdown`` event and their
        connections close; in-flight (non-streaming) requests finish their
        response.  The render server itself is left as-is — jobs already
        admitted stay in its queues and the owner decides whether to keep
        pumping or ``close()`` it.
        """
        if not self._running:
            return
        self._running = False
        assert self._wake is not None
        self._wake.set()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        if self._pump_task is not None:
            await self._pump_task
        await self._call(self._shutdown_sync)
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=5.0)
        for task in list(self._connections):
            task.cancel()
        self._driver.shutdown(wait=True)

    # -- thread-hosted serving (for sync callers: tests, benchmarks) ----
    def run_in_thread(self) -> Tuple[str, int]:
        """Start the front end on a daemon thread with its own event loop.

        Synchronous callers (pytest, the benchmark harness, notebooks) use
        this plus :meth:`shutdown`; asyncio callers use :meth:`start` /
        :meth:`stop` directly.
        """
        if self._thread is not None:
            raise RuntimeError("front end thread is already running")
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, args=(started,), name="http-frontend", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30.0)
        if self._thread_error is not None:
            raise RuntimeError("front end failed to start") from self._thread_error
        if self._listener is None:
            raise RuntimeError("front end did not start within 30s")
        return self.address

    def shutdown(self) -> None:
        """Thread-safe counterpart of :meth:`stop` for :meth:`run_in_thread`."""
        if self._thread is None:
            return
        if self._loop is not None and self._shutdown_requested is not None:
            self._loop.call_soon_threadsafe(self._shutdown_requested.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def _thread_main(self, started: threading.Event) -> None:
        async def body() -> None:
            try:
                await self.start()
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                self._thread_error = exc
                started.set()
                raise
            started.set()
            assert self._shutdown_requested is not None
            await self._shutdown_requested.wait()
            await self.stop()

        try:
            asyncio.run(body())
        except BaseException as exc:  # noqa: BLE001 - keep it for shutdown()
            if self._thread_error is None:
                self._thread_error = exc
            started.set()

    # ------------------------------------------------------------------
    # Driver-thread plumbing
    # ------------------------------------------------------------------
    async def _call(self, fn, *args):
        """Run ``fn`` on the driver thread (the only thread touching the server)."""
        assert self._loop is not None
        return await self._loop.run_in_executor(self._driver, fn, *args)

    async def _pump_loop(self) -> None:
        """Admit → step → feed streams → reap, forever; idle-waits on a wake."""
        assert self._wake is not None
        while self._running:
            try:
                busy = await self._call(self._pump_once_sync)
            except Exception:  # noqa: BLE001 - a pump crash must not go silent
                if not self._running:
                    break
                raise
            if not busy and self._running:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.05)
                except asyncio.TimeoutError:
                    pass

    def _pump_once_sync(self) -> bool:
        released = self._admit_sync()
        progressed = False
        if self.server.has_pending():
            progressed = bool(self.server.step()) or True
        self._notify_feeds_sync()
        self._reap_sync()
        return progressed or bool(released) or self._drr.queued() > 0

    # -- admission ------------------------------------------------------
    def _admit_sync(self) -> int:
        """Release DRR-scheduled submissions into the server (driver thread)."""

        def gate(client: str) -> bool:
            if self._in_flight.get(client, 0) >= self.max_in_flight_per_client:
                return False
            if (
                self.server.max_pending is not None
                and self.server.pending_count() >= self.server.max_pending
            ):
                return False
            return True

        released = self._drr.release(gate)
        for client, pending in released:
            assert isinstance(pending, _PendingSubmission)
            try:
                job_id = self.server.submit(**pending.params)
                view = self.server.poll(job_id)
            except Exception as exc:  # noqa: BLE001 - surfaced as HTTP 500
                self._resolve(pending, error=exc)
                continue
            if view.state in _ACTIVE_STATES:
                self._in_flight[client] = self._in_flight.get(client, 0) + 1
                self._job_clients[job_id] = client
                self._unfinished.add(job_id)
            if pending.feed is not None:
                pending.feed.job_id = job_id
                self._feeds.setdefault(job_id, []).append(pending.feed)
            self._resolve(pending, view=view)
        return len(released)

    def _resolve(
        self,
        pending: _PendingSubmission,
        view: Optional[JobView] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        assert self._loop is not None

        def deliver() -> None:
            if pending.future.cancelled():
                return
            if error is not None:
                pending.future.set_exception(error)
            else:
                pending.future.set_result(view)

        self._loop.call_soon_threadsafe(deliver)

    def _reap_sync(self) -> None:
        """Release per-client in-flight slots of jobs that reached an end state."""
        for job_id in list(self._unfinished):
            try:
                state = self.server.poll(job_id).state
            except UnknownJobError:
                state = None  # retired past retention: certainly finished
            if state in _ACTIVE_STATES:
                continue
            self._unfinished.discard(job_id)
            client = self._job_clients.pop(job_id, None)
            if client is not None:
                remaining = self._in_flight.get(client, 1) - 1
                if remaining > 0:
                    self._in_flight[client] = remaining
                else:
                    self._in_flight.pop(client, None)

    # -- streaming feeds ------------------------------------------------
    def _notify_feeds_sync(self) -> None:
        """Push new tile completions and terminal events into every feed."""
        for job_id, feeds in list(self._feeds.items()):
            try:
                view = self.server.poll(job_id, include_tiles=True)
            except UnknownJobError:
                for feed in feeds:
                    self._feed_push(
                        feed, "failed", {"job_id": job_id, "error": "job retired"}, True
                    )
                del self._feeds[job_id]
                continue
            for feed in feeds:
                if feed.closed:
                    continue
                for update in view.completed_tiles or ():
                    span = (update.tile.start, update.tile.stop)
                    if span in feed.seen:
                        continue
                    feed.seen.add(span)
                    payload = {
                        "job_id": job_id,
                        "camera_index": update.tile.camera_index,
                        "start": update.tile.start,
                        "stop": update.tile.stop,
                        "tiles_done": view.tiles_done,
                        "tiles_total": view.tiles_total,
                    }
                    if feed.include_data:
                        data = np.ascontiguousarray(update.image)
                        payload["dtype"] = str(data.dtype)
                        payload["data_b64"] = base64.b64encode(data.tobytes()).decode()
                    self._feed_push(feed, "tile", payload, terminal=False)
                if view.state not in _ACTIVE_STATES:
                    self._feed_push(
                        feed, _TERMINAL_EVENTS[view.state], self._view_payload(view), True
                    )
            if view.state is JobState.DONE:
                # Streaming delivered the frame: close the deliver span even
                # though no one will call result() (idempotent, driver thread).
                self.server.mark_delivered(job_id)
            feeds = [feed for feed in feeds if not feed.closed]
            if feeds:
                self._feeds[job_id] = feeds
            else:
                del self._feeds[job_id]

    def _feed_push(self, feed: _StreamFeed, event: str, payload: dict, terminal: bool) -> None:
        if feed.closed:
            return
        if terminal:
            feed.closed = True
        assert self._loop is not None
        self._loop.call_soon_threadsafe(feed.queue.put_nowait, (event, payload, terminal))

    def _subscribe_sync(self, job_id: str, feed: _StreamFeed) -> None:
        """Attach a feed to an existing job (raises UnknownJobError on 404s)."""
        self.server.poll(job_id)  # existence check
        feed.job_id = job_id
        self._feeds.setdefault(job_id, []).append(feed)

    def _unsubscribe_sync(self, feed: _StreamFeed, disconnected: bool) -> None:
        """Detach a feed; a mid-stream disconnect cancels an orphaned job."""
        feeds = self._feeds.get(feed.job_id)
        if feeds is not None:
            feeds = [other for other in feeds if other is not feed]
            if feeds:
                self._feeds[feed.job_id] = feeds
            else:
                del self._feeds[feed.job_id]
        feed.closed = True
        if disconnected and not self._feeds.get(feed.job_id):
            try:
                if self.server.cancel(feed.job_id):
                    self.telemetry.stats.jobs_cancelled_by_disconnect += 1
            except UnknownJobError:
                pass

    def _shutdown_sync(self) -> None:
        """End every open stream and fail every not-yet-admitted submission."""
        for feeds in self._feeds.values():
            for feed in feeds:
                self._feed_push(feed, "shutdown", {"job_id": feed.job_id}, terminal=True)
        self._feeds.clear()
        while True:  # head-of-queue items always fit one DRR turn: this drains
            released = self._drr.release(lambda client: True)
            if not released:
                break
            for _client, pending in released:
                assert isinstance(pending, _PendingSubmission)
                self._resolve(
                    pending,
                    error=HttpError(503, "shutting_down", "front end is shutting down"),
                )

    # ------------------------------------------------------------------
    # Submission path (validation runs on the driver thread)
    # ------------------------------------------------------------------
    def _parse_submission(self, request: HttpRequest) -> Dict[str, object]:
        """Body JSON → ``RenderServer.submit`` kwargs, or :class:`HttpError` 400."""
        try:
            body = json.loads(request.body.decode("utf-8")) if request.body else {}
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "bad_json", "request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise HttpError(400, "bad_json", "request body must be a JSON object")
        if "scene" not in body or not isinstance(body["scene"], str):
            raise HttpError(400, "bad_request", "field 'scene' (string) is required")
        params: Dict[str, object] = {
            "scene": body["scene"],
            "pipeline": body.get("pipeline", "spnerf"),
        }
        if not isinstance(params["pipeline"], str):
            raise HttpError(400, "bad_request", "field 'pipeline' must be a string")
        camera_index = body.get("camera_index", 0)
        if not isinstance(camera_index, int) or isinstance(camera_index, bool) or camera_index < 0:
            raise HttpError(400, "bad_request", "'camera_index' must be a non-negative integer")
        params["camera_index"] = camera_index
        priority = body.get("priority", "normal")
        if isinstance(priority, str) and priority.lower() in _PRIORITY_NAMES:
            params["priority"] = _PRIORITY_NAMES[priority.lower()]
        elif isinstance(priority, int) and not isinstance(priority, bool) and priority in tuple(Priority):
            params["priority"] = Priority(priority)
        else:
            raise HttpError(
                400, "bad_request",
                f"'priority' must be one of {sorted(_PRIORITY_NAMES)} or 0/1/2",
            )
        for name, kind in (("deadline_s", float), ("transmittance_threshold", float),
                           ("tile_size", int)):
            if name not in body or body[name] is None:
                continue
            value = body[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise HttpError(400, "bad_request", f"'{name}' must be a number")
            if kind is int and int(value) != value:
                raise HttpError(400, "bad_request", f"'{name}' must be an integer")
            if value <= 0:
                raise HttpError(400, "bad_request", f"'{name}' must be positive")
            params[name] = kind(value)
        if not isinstance(body.get("compare_to_reference", False), bool):
            raise HttpError(400, "bad_request", "'compare_to_reference' must be a boolean")
        params["compare_to_reference"] = body.get("compare_to_reference", False)
        return params

    def _enqueue_sync(self, client: str, params: Dict[str, object],
                      feed: Optional[_StreamFeed]) -> _PendingSubmission:
        """Validate against live state and queue for DRR release (driver thread)."""
        if params["pipeline"] not in available_pipelines():
            raise HttpError(
                404, "unknown_pipeline",
                f"unknown pipeline {params['pipeline']!r}; "
                f"available: {', '.join(available_pipelines())}",
            )
        try:
            scene = self.server.store.get_scene(params["scene"])  # cached after first touch
        except Exception as exc:  # noqa: BLE001 - any loader failure is a 404
            raise HttpError(
                404, "unknown_scene", f"unknown scene {params['scene']!r}: {exc}"
            ) from None
        if not 0 <= int(params["camera_index"]) < len(scene.cameras):
            raise HttpError(
                400, "bad_request",
                f"camera_index {params['camera_index']} out of range "
                f"(scene has {len(scene.cameras)} cameras)",
            )
        if self._drr.queued(client) >= self.max_queue_per_client:
            self.telemetry.stats.queue_full_429 += 1
            raise HttpError(
                429, "queue_full",
                f"client {client!r} has {self.max_queue_per_client} queued submissions",
                retry_after_s=self.retry_after_s,
            )
        assert self._loop is not None
        pending = _PendingSubmission(
            client=client,
            params=params,
            future=self._loop.create_future(),
            feed=feed,
        )
        self._drr.push(client, pending, cost=self._fair_cost(params))
        return pending

    def _fair_cost(self, params: Dict[str, object]) -> float:
        """A submission's DRR cost: the admission estimate, normalized ≈ 1.0."""
        try:
            estimate = self.server.estimate_cost(
                str(params["scene"]), int(params["camera_index"])  # type: ignore[arg-type]
            )
        except Exception:  # noqa: BLE001 - unpriceable work schedules at unit cost
            return 1.0
        if self._cost_reference is None:
            self._cost_reference = max(estimate, 1e-12)
        return estimate / self._cost_reference

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self.telemetry.stats.connections_total += 1
        self.telemetry.stats.active_connections += 1
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "unknown"
        try:
            while self._running:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    self._write_error(writer, time.perf_counter(),
                                      HttpError(400, "bad_request", str(exc)),
                                      keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, reader, writer, peer)
                if not keep_alive or not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            self.telemetry.stats.active_connections -= 1
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: str,
    ) -> bool:
        """Route one request; returns whether the connection may be reused."""
        started = time.perf_counter()
        segments = request.segments
        client = request.client_id(peer.rsplit(":", 1)[0])
        try:
            if segments == ("v1", "jobs") and request.method == "POST":
                return await self._handle_submit(request, reader, writer, client, started)
            if segments == ("v1", "stats") and request.method == "GET":
                payload = await self._call(self._stats_sync)
                self._write_json(writer, started, 200, payload)
            elif segments == ("v1", "metrics") and request.method == "GET":
                text = await self._call(self._metrics_sync)
                writer.write(
                    response_bytes(
                        200, text.encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE
                    )
                )
                self.telemetry.record_response(200, time.perf_counter() - started)
            elif (
                len(segments) == 3
                and segments[:2] == ("v1", "trace")
                and request.method == "GET"
            ):
                payload = await self._call(self._trace_sync, segments[2])
                self._write_json(writer, started, 200, payload)
            elif segments == ("v1", "traces", "export") and request.method == "GET":
                payload = await self._call(self.server.tracer.export_chrome)
                self._write_json(writer, started, 200, payload)
            elif len(segments) == 3 and segments[:2] == ("v1", "jobs"):
                job_id = segments[2]
                if request.method == "GET":
                    view = await self._call(self.server.poll, job_id)
                    self._write_json(writer, started, 200, self._view_payload(view))
                elif request.method == "DELETE":
                    cancelled = await self._call(self.server.cancel, job_id)
                    view = await self._call(self.server.poll, job_id)
                    payload = self._view_payload(view)
                    payload["cancelled"] = bool(cancelled)
                    self._write_json(writer, started, 200, payload)
                else:
                    raise HttpError(405, "method_not_allowed", "use GET or DELETE")
            elif (
                len(segments) == 4
                and segments[:2] == ("v1", "jobs")
                and segments[3] == "result"
                and request.method == "GET"
            ):
                await self._handle_result(writer, started, segments[2])
            elif (
                len(segments) == 4
                and segments[:2] == ("v1", "jobs")
                and segments[3] == "stream"
                and request.method == "GET"
            ):
                return await self._handle_attach_stream(request, reader, writer, started)
            else:
                raise HttpError(404, "not_found", f"no route for {request.method} {request.path}")
        except UnknownJobError as exc:
            self._write_error(writer, started, HttpError(404, "unknown_job", str(exc)))
        except HttpError as exc:
            self._write_error(writer, started, exc)
        except Exception as exc:  # noqa: BLE001 - a handler bug answers 500, not a dead socket
            self._write_error(
                writer, started, HttpError(500, "internal_error", f"{type(exc).__name__}: {exc}")
            )
        await writer.drain()
        return True

    # -- submit ---------------------------------------------------------
    async def _handle_submit(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client: str,
        started: float,
    ) -> bool:
        stream = request.query.get("stream", "").lower() in ("1", "true", "sse")
        # The trace's root opens here, at request parse, on the *server's*
        # clock — the gap to submitted_at is the edge's queueing overhead.
        trace_origin_s = self.server.now()
        try:
            params = self._parse_submission(request)
            params["trace_origin_s"] = trace_origin_s
            admitted, retry_after = self._limiter.check(client)
            if not admitted:
                self.telemetry.stats.rate_limited_429 += 1
                raise HttpError(
                    429, "rate_limited",
                    f"client {client!r} is over its submission rate",
                    retry_after_s=retry_after,
                )
            feed: Optional[_StreamFeed] = None
            if stream:
                feed = _StreamFeed(
                    job_id="?",
                    queue=asyncio.Queue(),
                    include_data=request.query.get("data", "").lower() in ("1", "true"),
                )
            pending = await self._call(self._enqueue_sync, client, params, feed)
        except HttpError as exc:
            self._write_error(writer, started, exc)
            await writer.drain()
            return True
        assert self._wake is not None
        self._wake.set()

        if not stream:
            view = await pending.future
            self.telemetry.stats.jobs_submitted += 1
            if view.state is JobState.REJECTED:
                self.telemetry.stats.admission_429 += 1
                error = HttpError(
                    429, "admission_rejected",
                    "the server's admission control rejected this job",
                    retry_after_s=self.retry_after_s,
                )
                payload = self._view_payload(view)
                payload.update(error.payload())  # the edge's error code wins
                self._write_json(writer, started, 429, payload,
                                 extra=[("Retry-After", _retry_after(error))])
            else:
                self._write_json(writer, started, 202, self._view_payload(view))
            await writer.drain()
            return True

        # Submit-and-stream: the feed was registered before the job could run,
        # so the client observes every partial tile its backend exposes.
        assert feed is not None
        writer.write(sse_header_bytes())
        await writer.drain()
        self.telemetry.stats.sse_streams_total += 1
        self.telemetry.stats.active_sse_streams += 1
        self.telemetry.record_response(200, time.perf_counter() - started)
        try:
            view = await pending.future
            self.telemetry.stats.jobs_submitted += 1
            writer.write(sse_event_bytes("accepted", self._view_payload(view)))
            await writer.drain()
            self.telemetry.stats.sse_events_sent += 1
            await self._stream_feed(feed, reader, writer)
        finally:
            self.telemetry.stats.active_sse_streams -= 1
        return False  # SSE streams are connection-delimited

    # -- attach to an existing job's stream -----------------------------
    async def _handle_attach_stream(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        started: float,
    ) -> bool:
        job_id = request.segments[2]
        feed = _StreamFeed(
            job_id=job_id,
            queue=asyncio.Queue(),
            include_data=request.query.get("data", "").lower() in ("1", "true"),
        )
        await self._call(self._subscribe_sync, job_id, feed)  # UnknownJobError -> 404
        assert self._wake is not None
        self._wake.set()
        writer.write(sse_header_bytes())
        await writer.drain()
        self.telemetry.stats.sse_streams_total += 1
        self.telemetry.stats.active_sse_streams += 1
        self.telemetry.record_response(200, time.perf_counter() - started)
        try:
            await self._stream_feed(feed, reader, writer)
        finally:
            self.telemetry.stats.active_sse_streams -= 1
        return False

    async def _stream_feed(
        self, feed: _StreamFeed, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Forward feed events to the socket until terminal or disconnect."""
        eof_task = asyncio.create_task(reader.read(65536))
        disconnected = False
        try:
            while True:
                get_task = asyncio.create_task(feed.queue.get())
                done, _ = await asyncio.wait(
                    {get_task, eof_task},
                    timeout=self.stream_keepalive_s,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if eof_task in done:
                    get_task.cancel()
                    disconnected = True
                    break
                if get_task not in done:
                    get_task.cancel()
                    try:  # keepalive comment; also surfaces dead sockets
                        writer.write(b": keepalive\n\n")
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        disconnected = True
                        break
                    continue
                event, payload, terminal = get_task.result()
                try:
                    writer.write(sse_event_bytes(event, payload))
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    disconnected = True
                    break
                self.telemetry.stats.sse_events_sent += 1
                if terminal:
                    break
        except asyncio.CancelledError:
            disconnected = True
            raise
        finally:
            eof_task.cancel()
            mid_stream = disconnected and not feed.closed
            await self._call(self._unsubscribe_sync, feed, mid_stream)

    # -- result ---------------------------------------------------------
    async def _handle_result(
        self, writer: asyncio.StreamWriter, started: float, job_id: str
    ) -> None:
        view, result = await self._call(self._result_sync, job_id)
        if result is None:
            payload = self._view_payload(view)
            payload["error"] = "job_not_done"
            payload["message"] = f"job {job_id} is {view.state.value}, not done"
            self._write_json(writer, started, 409, payload)
            return
        frame = np.ascontiguousarray(result.image)
        meta = {
            "job_id": result.job_id,
            "scene": result.scene,
            "pipeline": result.pipeline,
            "camera_index": result.camera_index,
            "psnr": result.psnr,
            "num_tiles": result.num_tiles,
            "queue_wait_s": result.queue_wait_s,
            "service_s": result.service_s,
            "latency_s": result.latency_s,
            "bundle_cached": result.bundle_cached,
            "memory_bytes": result.memory_bytes,
        }
        body = frame.tobytes()
        headers = [
            ("X-Frame-Shape", ",".join(str(dim) for dim in frame.shape)),
            ("X-Frame-Dtype", str(frame.dtype)),
            ("X-Serve-Meta", json_body(meta).decode("utf-8")),
        ]
        writer.write(
            response_bytes(200, body, content_type="application/octet-stream",
                           extra_headers=headers)
        )
        self.telemetry.record_response(200, time.perf_counter() - started)

    def _result_sync(self, job_id: str):
        view = self.server.poll(job_id)  # raises UnknownJobError -> 404
        if view.state is not JobState.DONE:
            return view, None
        return view, self.server.result(job_id)

    # -- stats / observability ------------------------------------------
    def _stats_sync(self) -> Dict[str, object]:
        edge = self.telemetry.snapshot(
            per_client_queue_depth=self._drr.depths(),
            per_client_in_flight=dict(self._in_flight),
        )
        return {"server": self.server.stats().as_dict(), "edge": edge.as_dict()}

    def _metrics_sync(self) -> str:
        """The ``/v1/metrics`` page: server families + the edge's own."""
        families = self.server.metrics_families()
        families.extend(self.telemetry.metrics_families())
        return render_prometheus(families)

    def _trace_sync(self, job_id: str) -> Dict[str, object]:
        trace = self.server.tracer.get(job_id)
        if trace is None:
            raise HttpError(
                404, "unknown_trace",
                f"no trace for job {job_id!r} (never traced, or evicted "
                "from the trace ring)",
            )
        return trace.as_dict()

    # -- response helpers ----------------------------------------------
    @staticmethod
    def _view_payload(view: JobView) -> Dict[str, object]:
        return {
            "job_id": view.job_id,
            "state": view.state.value,
            "scene": view.scene,
            "pipeline": view.pipeline,
            "camera_index": view.camera_index,
            "priority": int(view.priority),
            "tiles_total": view.tiles_total,
            "tiles_done": view.tiles_done,
            "progress": view.progress,
            "age_s": view.age_s,
            "estimated_cost": view.estimated_cost,
            "error": view.error,
        }

    def _write_json(
        self,
        writer: asyncio.StreamWriter,
        started: float,
        status: int,
        payload: object,
        extra: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        writer.write(response_bytes(status, json_body(payload), extra_headers=extra))
        self.telemetry.record_response(status, time.perf_counter() - started)

    def _write_error(
        self,
        writer: asyncio.StreamWriter,
        started: float,
        error: HttpError,
        keep_alive: bool = True,
    ) -> None:
        extra = []
        if error.status == 429:
            extra.append(("Retry-After", _retry_after(error)))
        writer.write(
            response_bytes(
                error.status, json_body(error.payload()),
                extra_headers=extra, keep_alive=keep_alive,
            )
        )
        self.telemetry.record_response(error.status, time.perf_counter() - started)


def _retry_after(error: HttpError) -> str:
    """Integral-seconds ``Retry-After`` value (ceiling, at least 1)."""
    seconds = error.retry_after_s if error.retry_after_s is not None else 1.0
    return str(max(1, int(-(-seconds // 1))))
