"""Synthetic serving workloads and replay harnesses.

Two canonical load shapes drive the serve benchmark:

* **Open loop** — requests arrive on a Poisson process at a fixed rate,
  independent of how fast the server drains them.  This is what exposes
  queueing behaviour: latency percentiles grow without bound once the
  arrival rate crosses the service rate.
* **Closed loop** — a fixed set of clients each keep one request in flight,
  submitting the next the moment the previous completes.  This measures the
  server's sustainable throughput without unbounded queue growth.

Both replayers pump the :meth:`RenderServer.step` loop themselves, so a
benchmark is one ordinary function call — no event loop, and (under the
default serial backend) fully reproducible schedules.  The same replayers
drive the out-of-process backend unchanged: there, each ``step`` fills the
agent queues up to capacity and folds back whatever completed, so
closed-loop throughput measures real parallelism while the submission side
stays single-threaded and deterministic.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.serve.server import JobState, Priority, RenderServer

__all__ = [
    "TrafficItem",
    "poisson_workload",
    "closed_loop_workload",
    "orbit_workload",
    "dolly_workload",
    "interpolated_walkthrough_workload",
    "popular_scene_workload",
    "replay_open_loop",
    "replay_closed_loop",
    "http_open_loop",
    "summarize_outcomes",
]

#: Terminal job states (nothing left to wait for).
_FINISHED = (
    JobState.DONE,
    JobState.REJECTED,
    JobState.EXPIRED,
    JobState.FAILED,
    JobState.CANCELLED,
)


@dataclass(frozen=True)
class TrafficItem:
    """One request of a synthetic workload."""

    arrival_s: float
    scene: str
    pipeline: str
    camera_index: int = 0
    priority: Priority = Priority.NORMAL
    deadline_s: Optional[float] = None
    #: The submitting client's identity — only the HTTP replayer uses it (the
    #: in-process replayers see one logical client), so the default keeps
    #: pre-existing traces equal field-for-field.
    client: str = "anon"


def _mix(scenes: Sequence[str], pipelines: Sequence[str]) -> List[tuple]:
    if not scenes or not pipelines:
        raise ValueError("need at least one scene and one pipeline")
    return list(itertools.product(scenes, pipelines))


def poisson_workload(
    scenes: Sequence[str],
    pipelines: Sequence[str],
    rate_hz: float,
    duration_s: float,
    seed: int = 0,
    high_priority_fraction: float = 0.0,
    deadline_s: Optional[float] = None,
) -> List[TrafficItem]:
    """An open-loop Poisson arrival trace over the scene x pipeline mix.

    Inter-arrival gaps are exponential with mean ``1/rate_hz``; the scene and
    pipeline of each request are drawn uniformly from the cross product, and
    a ``high_priority_fraction`` of requests is marked ``Priority.HIGH``.
    Deterministic in ``seed``.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    mix = _mix(scenes, pipelines)
    rng = np.random.default_rng(seed)
    items: List[TrafficItem] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / rate_hz))
        if now >= duration_s:
            break
        scene, pipeline = mix[int(rng.integers(len(mix)))]
        priority = (
            Priority.HIGH if rng.random() < high_priority_fraction else Priority.NORMAL
        )
        items.append(
            TrafficItem(
                arrival_s=now,
                scene=scene,
                pipeline=pipeline,
                priority=priority,
                deadline_s=deadline_s,
            )
        )
    return items


def closed_loop_workload(
    scenes: Sequence[str],
    pipelines: Sequence[str],
    num_requests: int,
    seed: int = 0,
) -> List[TrafficItem]:
    """A closed-loop request list (arrival times zero — clients re-submit).

    Requests cycle through the scene x pipeline mix in a deterministically
    shuffled order per cycle, so consecutive requests alternate bundles
    (exercising the store rather than hammering one resident entry) and
    every pair is covered once ``num_requests >= len(scenes) * len(pipelines)``.
    """
    if num_requests < 1:
        raise ValueError(f"num_requests must be at least 1, got {num_requests}")
    mix = _mix(scenes, pipelines)
    rng = np.random.default_rng(seed)
    picks: List[tuple] = []
    while len(picks) < num_requests:
        picks.extend(mix[i] for i in rng.permutation(len(mix)))
    return [
        TrafficItem(arrival_s=0.0, scene=scene, pipeline=pipeline)
        for scene, pipeline in picks[:num_requests]
    ]


def orbit_workload(
    scene: str,
    pipeline: str,
    num_cameras: int,
    num_frames: int,
    frame_interval_s: float,
    client: str = "anon",
    start_s: float = 0.0,
    priority: Priority = Priority.NORMAL,
    deadline_s: Optional[float] = None,
) -> List[TrafficItem]:
    """One client orbiting a scene: successive cameras at a fixed frame cadence.

    This is the canonical interactive-viewer trace — a client sweeping the
    camera ring requests camera ``0, 1, 2, ...`` (wrapping at ``num_cameras``)
    every ``frame_interval_s``.  It is the default traffic of the HTTP
    benchmark because it exercises exactly what an edge must do well: many
    small, latency-sensitive frames of one hot scene from one identity.
    Deterministic: no randomness at all.
    """
    if num_cameras < 1:
        raise ValueError(f"num_cameras must be at least 1, got {num_cameras}")
    if num_frames < 1:
        raise ValueError(f"num_frames must be at least 1, got {num_frames}")
    if frame_interval_s < 0:
        raise ValueError(f"frame_interval_s must be non-negative, got {frame_interval_s}")
    return [
        TrafficItem(
            arrival_s=start_s + frame * frame_interval_s,
            scene=scene,
            pipeline=pipeline,
            camera_index=frame % num_cameras,
            priority=priority,
            deadline_s=deadline_s,
            client=client,
        )
        for frame in range(num_frames)
    ]


def dolly_workload(
    scene: str,
    pipeline: str,
    num_cameras: int,
    num_frames: int,
    frame_interval_s: float,
    sweep: Optional[int] = None,
    client: str = "anon",
    start_s: float = 0.0,
    priority: Priority = Priority.NORMAL,
    deadline_s: Optional[float] = None,
) -> List[TrafficItem]:
    """One client dollying back and forth along an arc of the camera rig.

    The scrub-the-slider trace: the camera ping-pongs over the contiguous
    arc ``[0, sweep]`` of the rig (a triangle wave over camera indices), so
    consecutive frames always move exactly one rig step and *every frame
    past the first sweep revisits a pose already rendered* — the
    temporally-coherent counterpart of :func:`orbit_workload`, and the
    workload with the highest steady-state tile-cache hit rate.
    Deterministic: no randomness at all.
    """
    if num_cameras < 1:
        raise ValueError(f"num_cameras must be at least 1, got {num_cameras}")
    if num_frames < 1:
        raise ValueError(f"num_frames must be at least 1, got {num_frames}")
    if frame_interval_s < 0:
        raise ValueError(f"frame_interval_s must be non-negative, got {frame_interval_s}")
    if sweep is None:
        sweep = max(num_cameras - 1, 1)
    if not 1 <= sweep < max(num_cameras, 2):
        raise ValueError(
            f"sweep must be in [1, {max(num_cameras - 1, 1)}] for {num_cameras} "
            f"cameras, got {sweep}"
        )
    period = 2 * sweep
    items: List[TrafficItem] = []
    for frame in range(num_frames):
        phase = frame % period
        camera_index = phase if phase <= sweep else period - phase
        items.append(
            TrafficItem(
                arrival_s=start_s + frame * frame_interval_s,
                scene=scene,
                pipeline=pipeline,
                camera_index=camera_index % num_cameras,
                priority=priority,
                deadline_s=deadline_s,
                client=client,
            )
        )
    return items


def interpolated_walkthrough_workload(
    scene: str,
    pipeline: str,
    num_cameras: int,
    waypoints: Optional[Sequence[int]] = None,
    num_waypoints: int = 4,
    frame_interval_s: float = 0.0,
    seed: int = 0,
    client: str = "anon",
    start_s: float = 0.0,
    priority: Priority = Priority.NORMAL,
    deadline_s: Optional[float] = None,
) -> List[TrafficItem]:
    """A camera walkthrough interpolated between rig waypoints, one step a frame.

    Waypoints are camera indices on the rig (drawn deterministically from
    ``seed`` when not given); between consecutive waypoints the path steps
    one rig position at a time along the *shorter* arc of the ring, emitting
    every intermediate camera as one frame.  Consecutive frames therefore
    never jump more than one rig step — bounded pose delta, the property the
    continuity tests assert — and revisited arcs replay earlier frames'
    exact poses.  Deterministic in ``seed`` (and fully so when explicit
    ``waypoints`` are given).
    """
    if num_cameras < 1:
        raise ValueError(f"num_cameras must be at least 1, got {num_cameras}")
    if frame_interval_s < 0:
        raise ValueError(f"frame_interval_s must be non-negative, got {frame_interval_s}")
    if waypoints is None:
        if num_waypoints < 2:
            raise ValueError(f"num_waypoints must be at least 2, got {num_waypoints}")
        rng = np.random.default_rng(seed)
        waypoints = [int(rng.integers(num_cameras)) for _ in range(num_waypoints)]
    else:
        waypoints = [int(w) for w in waypoints]
        if len(waypoints) < 2:
            raise ValueError(f"need at least 2 waypoints, got {len(waypoints)}")
        for waypoint in waypoints:
            if not 0 <= waypoint < num_cameras:
                raise ValueError(
                    f"waypoint {waypoint} out of range for {num_cameras} cameras"
                )
    path: List[int] = [waypoints[0]]
    for target in waypoints[1:]:
        position = path[-1]
        while position != target:
            forward = (target - position) % num_cameras
            backward = (position - target) % num_cameras
            position = (position + (1 if forward <= backward else -1)) % num_cameras
            path.append(position)
    return [
        TrafficItem(
            arrival_s=start_s + frame * frame_interval_s,
            scene=scene,
            pipeline=pipeline,
            camera_index=camera_index,
            priority=priority,
            deadline_s=deadline_s,
            client=client,
        )
        for frame, camera_index in enumerate(path)
    ]


def popular_scene_workload(
    scenes: Sequence[str],
    pipeline: str,
    num_clients: int,
    num_cameras: int,
    num_frames: int,
    frame_interval_s: float,
    popular_fraction: float = 0.75,
    seed: int = 0,
) -> List[TrafficItem]:
    """A multi-client mixture concentrated on one popular scene.

    The production traffic shape the ROADMAP describes — millions of users
    orbit a few popular scenes along similar paths.  A ``popular_fraction``
    of the clients all orbit ``scenes[0]`` *in phase* (same cameras at the
    same arrival times, the worst case the in-flight dedupe machinery
    exists for: concurrent identical tiles across distinct jobs); the
    remaining clients orbit a seeded choice of the other scenes with a
    random camera phase, providing the background of unrelated work.
    Items are returned sorted by arrival time then client id, and the whole
    trace is deterministic in ``seed``.
    """
    if not scenes:
        raise ValueError("need at least one scene")
    if num_clients < 1:
        raise ValueError(f"num_clients must be at least 1, got {num_clients}")
    if not 0.0 <= popular_fraction <= 1.0:
        raise ValueError(f"popular_fraction must be in [0, 1], got {popular_fraction}")
    rng = np.random.default_rng(seed)
    num_popular = max(1, round(popular_fraction * num_clients))
    items: List[TrafficItem] = []
    for index in range(num_clients):
        client = f"client-{index:03d}"
        if index < num_popular or len(scenes) == 1:
            items.extend(
                orbit_workload(
                    scenes[0], pipeline, num_cameras, num_frames,
                    frame_interval_s, client=client,
                )
            )
        else:
            scene = scenes[1 + int(rng.integers(len(scenes) - 1))]
            phase = int(rng.integers(num_cameras))
            items.extend(
                TrafficItem(
                    arrival_s=frame * frame_interval_s,
                    scene=scene,
                    pipeline=pipeline,
                    camera_index=(phase + frame) % num_cameras,
                    client=client,
                )
                for frame in range(num_frames)
            )
    return sorted(items, key=lambda item: (item.arrival_s, item.client))


def _submit(server: RenderServer, item: TrafficItem) -> str:
    return server.submit(
        item.scene,
        item.pipeline,
        camera_index=item.camera_index,
        priority=item.priority,
        deadline_s=item.deadline_s,
    )


def replay_open_loop(server: RenderServer, items: Sequence[TrafficItem]) -> List[str]:
    """Replay a timed trace against the server in real time.

    Requests are submitted when their wall-clock arrival time passes; between
    arrivals the server renders tiles.  Returns every job id, in submission
    order, after the server has drained completely.
    """
    items = sorted(items, key=lambda item: item.arrival_s)
    job_ids: List[str] = []
    start = time.perf_counter()
    next_item = 0
    while next_item < len(items) or server.has_pending():
        now = time.perf_counter() - start
        while next_item < len(items) and items[next_item].arrival_s <= now:
            job_ids.append(_submit(server, items[next_item]))
            next_item += 1
        if not server.step() and next_item < len(items):
            # Idle before the next arrival: sleep up to it (capped so a
            # coarse OS timer cannot overshoot a burst of close arrivals).
            time.sleep(min(0.002, max(0.0, items[next_item].arrival_s - now)))
    return job_ids


def replay_closed_loop(
    server: RenderServer, items: Sequence[TrafficItem], concurrency: int = 2
) -> List[str]:
    """Replay requests keeping ``concurrency`` jobs in flight until done.

    Submission order follows ``items``; a new request is admitted whenever a
    slot frees up, which is the classic closed-loop client pool.  Returns all
    job ids after the server has drained.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be at least 1, got {concurrency}")
    job_ids: List[str] = []
    in_flight: List[str] = []
    next_item = 0
    while next_item < len(items) or in_flight:
        while next_item < len(items) and len(in_flight) < concurrency:
            job_id = _submit(server, items[next_item])
            job_ids.append(job_id)
            in_flight.append(job_id)
            next_item += 1
        server.step()
        in_flight = [
            job_id for job_id in in_flight if server.poll(job_id).state not in _FINISHED
        ]
    return job_ids


def summarize_outcomes(server: RenderServer, job_ids: Sequence[str]) -> dict:
    """Terminal-state counts of a replayed workload, keyed by state value.

    The chaos harness's one-line verdict: after a fault-injected replay,
    ``summarize_outcomes(...)`` should read all ``done`` plus exactly the
    failures the :class:`~repro.serve.backends.FaultPlan` promised.  Job ids
    the server has already retired past its retention bound count under
    ``"retired"``.
    """
    counts: dict = {}
    for job_id in job_ids:
        try:
            state = server.poll(job_id).state.value
        except KeyError:  # UnknownJobError: retired past max_finished_jobs
            state = "retired"
        counts[state] = counts.get(state, 0) + 1
    return counts


def http_open_loop(
    host: str,
    port: int,
    items: Sequence[TrafficItem],
    fetch_results: bool = True,
    poll_interval_s: float = 0.02,
    timeout_s: float = 600.0,
) -> List[dict]:
    """Replay a timed trace against a running HTTP front end, open loop.

    Each :class:`TrafficItem` becomes one asyncio client task that sleeps
    until its arrival time, submits over its own connection (identified to
    the edge by the item's ``client`` as an API key), polls to completion and
    optionally fetches the raw frame — arrivals never wait for completions,
    so queueing delay shows up in the measured latencies exactly as it would
    for independent network clients.  Runs its own event loop (the callers
    are synchronous benchmarks) and returns one record per request::

        {"client", "job_id", "status", "state", "arrival_s",
         "submit_s", "latency_s", "result_bytes"}

    ``status`` is the submit response's HTTP status (429s appear here —
    rate-limited or admission-rejected requests have no latency), ``state``
    the job's terminal state, ``latency_s`` the client-observed span from
    submit to terminal poll.
    """

    async def one_request(item: TrafficItem, start: float) -> dict:
        from repro.serve.http.client import RenderClient

        loop = asyncio.get_running_loop()
        delay = start + item.arrival_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        record: dict = {
            "client": item.client,
            "job_id": None,
            "status": None,
            "state": None,
            "arrival_s": item.arrival_s,
            "submit_s": None,
            "latency_s": None,
            "result_bytes": 0,
        }
        async with RenderClient(host, port, api_key=item.client, timeout_s=timeout_s) as rc:
            submitted_at = loop.time()
            response = await rc.submit(
                scene=item.scene,
                pipeline=item.pipeline,
                camera_index=item.camera_index,
                priority=int(item.priority),
                deadline_s=item.deadline_s,
            )
            record["status"] = response.status
            record["submit_s"] = loop.time() - submitted_at
            if response.status != 202:
                try:
                    record["state"] = response.json().get("state")
                except ValueError:
                    pass
                return record
            job_id = response.json()["job_id"]
            record["job_id"] = job_id
            view = await rc.wait(
                job_id, poll_interval_s=poll_interval_s, timeout_s=timeout_s
            )
            record["state"] = view["state"]
            record["latency_s"] = loop.time() - submitted_at
            if fetch_results and view["state"] == "done":
                result = await rc.result(job_id)
                if result.status == 200:
                    record["result_bytes"] = len(result.body)
        return record

    async def replay() -> List[dict]:
        loop = asyncio.get_running_loop()
        start = loop.time()
        tasks = [
            asyncio.create_task(one_request(item, start))
            for item in sorted(items, key=lambda item: item.arrival_s)
        ]
        return list(await asyncio.gather(*tasks))

    return asyncio.run(replay())
