"""Execution backends: where the server's tile jobs actually render.

The :class:`~repro.serve.server.RenderServer` is a pure scheduler — it plans
tiles, decides their order, and collects completions.  *Executing* a tile is
this module's job, behind one small contract (:class:`ExecutionBackend`):
``submit`` takes a picklable :class:`TileTask`, ``collect`` returns finished
:class:`TileResult`\\ s, possibly out of submission order.  Two backends
implement it:

* :class:`SerialBackend` — renders on the scheduler's own thread at submit
  time.  One tile in flight, results in order: exactly the deterministic
  cooperative loop earlier revisions hard-wired into the server, and still
  the default.
* :class:`~repro.serve.remote.RemoteBackend` (in :mod:`repro.serve.remote`)
  — the one out-of-process path.  It ships tasks over TCP to
  :class:`~repro.serve.remote.RemoteHostAgent` processes, each owning its
  *own* store shard rebuilt from the parent store's picklable
  :meth:`~repro.serve.store.SceneStore.spec` (bundles are rebuilt, never
  pickled — scene generation, compression and preprocessing are
  deterministic in the scene name and config, so a shard renders
  bit-identical frames).  ``make_backend("process", num_workers=N)`` forks
  N loopback agents of its own; ``make_backend("remote", hosts=...)`` dials
  agents that run elsewhere.

Bit-identity holds across backends because a tile renders as a single
contiguous ray batch (:func:`repro.api.render_tile`) regardless of who
executes it; see :mod:`repro.serve.tiles` for why batch geometry is the only
thing the bits depend on.  Tile renders are deterministic in ``(scene,
pipeline, camera, span)``, so a duplicate completion of any tile is
byte-identical to the first and safely droppable — which is what makes the
remote backend's failover, respawn, hedging and work stealing safe by
construction.

Reproducible chaos is injected with a :class:`FaultPlan` (kill agent *N*
after *M* tiles, poison one bundle build, delay an agent, drop, partition or
slow its connection), threaded through :func:`make_backend` so tests and
benchmarks can prove jobs survive.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.api.engine import render_tile
from repro.nerf.renderer import RenderStats
from repro.serve.store import SceneStore

__all__ = [
    "TileTask",
    "TileResult",
    "FaultPlan",
    "BackendEvent",
    "ExecutionBackend",
    "SerialBackend",
    "BACKEND_NAMES",
    "make_backend",
]

#: Default seconds a blocking :meth:`ExecutionBackend.collect` waits for one
#: completion before returning empty-handed (keeping the scheduler's step
#: loop responsive to new arrivals and deadline expiry).
_COLLECT_BLOCK_S = 0.1


@dataclass(frozen=True)
class TileTask:
    """One tile render, described in plain picklable values.

    A task deliberately carries *names*, not objects: the executing worker
    resolves ``(scene, pipeline)`` against its own store, which is what lets
    a task cross a process boundary and still render the same bits.
    """

    job_id: str
    tile_index: int
    scene: str
    pipeline: str
    camera_index: int
    start: int
    stop: int
    transmittance_threshold: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(scene, pipeline)`` affinity key tiles route by."""
        return (self.scene, self.pipeline)


@dataclass(eq=False)
class TileResult:
    """One finished (or failed) tile, as reported back to the scheduler."""

    job_id: str
    tile_index: int
    worker_id: int
    image: Optional[np.ndarray] = None
    stats: Optional[RenderStats] = None
    service_s: float = 0.0
    build_s: float = 0.0
    bundle_cached: bool = True
    memory_bytes: int = 0
    error: Optional[str] = None
    #: Set by the *backend* (never a worker) when this completion resolves a
    #: tile that already completed — a hedge loser, or a re-dispatched copy
    #: whose original also made it back.  The scheduler drops it (the bytes
    #: are identical by construction) and counts ``dropped_tile_results``.
    duplicate: bool = False


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure-injection recipe for the out-of-process backend.

    Plans are plain picklable data threaded through :func:`make_backend`
    and shipped to every host agent in its HELLO, so chaos tests and
    ``perf_serve.py --chaos`` can stage the exact same disasters on every
    run.  Indices name agents (``0 .. num_workers - 1``); the backend refuses
    a plan naming an agent it does not have, so a chaos test cannot pass
    vacuously.

    * ``kill_worker`` / ``kill_after_tiles`` — agent ``kill_worker``
      hard-exits (``os._exit``) the moment it picks up its
      ``kill_after_tiles``-th task, *without* answering it: the canonical
      crash mid-render.  Results it already sent still reach the scheduler,
      so it sees a realistic partial history.  An agent the backend forked
      itself is re-forked, and the replacement does not inherit the kill
      (one crash per plan), which is what keeps re-dispatch a guarantee of
      progress; an external host stays down.
    * ``poison_key`` — the ``(scene, pipeline)`` whose bundle build raises
      :class:`~repro.serve.store.PoisonedBundleError` in every shard store:
      a corrupt checkpoint.  Jobs needing that bundle fail with the typed
      error; everything else keeps rendering.
    * ``delay_worker`` / ``delay_s`` — agent ``delay_worker`` sleeps
      ``delay_s`` before each tile: a degraded-but-alive shard, the case
      speculative hedging exists for.
    * ``drop_host`` / ``drop_connection_after_tiles`` — agent ``drop_host``
      tears its scheduler connection after serving that many tiles, mid
      result frame: the scheduler must detect the torn frame, discard the
      partial bytes, redispatch, and later reconnect.  Fires once per plan.
    * ``partition_host`` — that agent goes silent on its next task without
      closing anything: no results, no pongs, socket open.  Only the
      heartbeat deadline can declare it dead.
    * ``delay_host`` / ``delay_host_s`` — that agent sleeps *after*
      rendering, before replying: slow network rather than slow compute
      (``delay_worker`` models the latter).
    """

    kill_worker: Optional[int] = None
    kill_after_tiles: int = 1
    poison_key: Optional[Tuple[str, str]] = None
    delay_worker: Optional[int] = None
    delay_s: float = 0.0
    drop_host: Optional[int] = None
    drop_connection_after_tiles: int = 1
    partition_host: Optional[int] = None
    delay_host: Optional[int] = None
    delay_host_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kill_after_tiles < 1:
            raise ValueError(f"kill_after_tiles must be at least 1, got {self.kill_after_tiles}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.drop_connection_after_tiles < 1:
            raise ValueError(
                "drop_connection_after_tiles must be at least 1, "
                f"got {self.drop_connection_after_tiles}"
            )
        if self.delay_host_s < 0:
            raise ValueError(f"delay_host_s must be non-negative, got {self.delay_host_s}")

    def check_indices(self, num_workers: int) -> None:
        """Raise ``ValueError`` if the plan names an agent outside a pool of
        ``num_workers`` (a fault that could never fire)."""
        for knob in ("kill_worker", "delay_worker", "drop_host", "partition_host", "delay_host"):
            index = getattr(self, knob)
            if index is not None and not 0 <= index < num_workers:
                raise ValueError(
                    f"FaultPlan.{knob}={index} names no agent of this "
                    f"{num_workers}-agent backend (valid: 0..{num_workers - 1})"
                )

    def without_kill(self) -> "FaultPlan":
        """The same plan minus the crash — what a re-forked agent receives."""
        return replace(self, kill_worker=None)


@dataclass(eq=False)
class BackendEvent:
    """One elasticity action, reported upward for tracing.

    The counters (``worker_respawns`` & co.) answer *how often*; events
    answer *when and to whom*.  ``job_id`` is set for job-scoped actions
    (a re-dispatched or hedged tile) and ``None`` for pool-scoped ones (a
    respawn, a stolen affinity key) — the server routes the former into the
    job's trace and the latter onto the supervisor track.  Timestamps are
    deliberately absent: the scheduler stamps events on *its* clock when it
    drains them, keeping the whole trace on one timebase.
    """

    name: str
    job_id: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)


def _execute_tile(store: SceneStore, task: TileTask, worker_id: int) -> TileResult:
    """Render one task against ``store``, never raising: failures become
    error results so a bad job cannot take a worker (or the server) down.

    The error is ``"Type: message"`` followed by the worker-side traceback,
    so the failing frame survives the trip across a process or host."""
    try:
        record, cached, build_s = store.get_accounted(task.scene, task.pipeline)
        start = time.perf_counter()
        rendered = render_tile(
            record.engine,
            task.camera_index,
            task.start,
            task.stop,
            transmittance_threshold=task.transmittance_threshold,
        )
        service_s = time.perf_counter() - start
        return TileResult(
            job_id=task.job_id,
            tile_index=task.tile_index,
            worker_id=worker_id,
            image=rendered.image,
            stats=rendered.stats,
            service_s=service_s,
            build_s=build_s,
            bundle_cached=cached,
            memory_bytes=record.memory_bytes,
        )
    except Exception as exc:  # noqa: BLE001 - must cross the worker boundary as data
        return TileResult(
            job_id=task.job_id,
            tile_index=task.tile_index,
            worker_id=worker_id,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc().rstrip()}",
        )


class ExecutionBackend:
    """The contract between the scheduling and execution layers.

    Lifecycle: the server calls :meth:`start` with its store once, then
    interleaves :meth:`submit` (while :meth:`has_capacity`) with
    :meth:`collect`, and finally :meth:`close`.  Completions may come back
    in any order; the scheduler owns reassembly.
    """

    #: Short name surfaced in :class:`~repro.serve.telemetry.ServerStats`.
    name: str = "?"
    #: Parallel workers this backend renders on.
    num_workers: int = 1

    def __init__(self) -> None:
        self._in_flight = 0
        self._started = False
        #: Elasticity counters, read into :class:`ServerStats` by the
        #: ``source`` of their declarations there.  Only the remote backend
        #: (``"process"`` or ``"remote"``) moves them; they stay 0 elsewhere.
        self.worker_respawns = 0
        self.redispatched_tiles = 0
        self.hedged_tiles = 0
        self.stolen_keys = 0
        self.host_losses = 0
        self.host_reconnects = 0
        self.local_fallback_tiles = 0
        #: Events evicted from the bounded ring before anyone drained them.
        self.dropped_events = 0
        #: Pending :class:`BackendEvent`\s, bounded so an undrained backend
        #: (no tracer attached) cannot grow without limit.
        self._events: Deque[BackendEvent] = deque(maxlen=4096)

    # -- lifecycle ------------------------------------------------------
    def start(self, store: SceneStore) -> None:
        """Bind to a store and spin up workers.  Idempotent per store."""
        if self._started:
            raise RuntimeError(
                f"{type(self).__name__} is already started; each RenderServer "
                "needs its own backend instance"
            )
        self._started = True
        self._start(store)

    def close(self) -> None:
        """Tear down workers.  In-flight results may be lost; close when idle."""
        if self._started:
            self._started = False
            self._close()

    # -- scheduling interface ------------------------------------------
    @property
    def in_flight(self) -> int:
        """Tasks submitted but not yet collected."""
        return self._in_flight

    def has_capacity(self) -> bool:
        """Whether the scheduler should dispatch another tile now."""
        return self._in_flight < self._max_in_flight()

    def can_accept(self, key: Tuple[str, str]) -> bool:
        """Whether a tile of this ``(scene, pipeline)`` key should dispatch now.

        The remote backend answers per agent: a key whose sticky agent is at
        queue depth is deferred even while other workers have headroom, so a
        hot key cannot pile unbounded run-ahead onto one queue (tiles left
        undispatched can still be cancelled by deadline expiry).
        """
        return self.has_capacity()

    def submit(self, task: TileTask) -> None:
        if not self._started:
            raise RuntimeError(f"{type(self).__name__} is not started")
        self._in_flight += 1
        self._submit(task)

    def collect(self, block: bool = False, timeout: Optional[float] = None) -> List[TileResult]:
        """Finished tiles since the last call (any order).

        Non-blocking by default; with ``block=True`` and tasks in flight,
        waits up to ``timeout`` (default ``_COLLECT_BLOCK_S``) for at least
        one completion, returning empty-handed on expiry so the scheduler
        stays responsive.  Dead workers never raise out of here: the remote
        backend runs its supervision sweep first (failover + re-dispatch)
        and the scheduler simply keeps collecting.  Results flagged
        ``duplicate`` resolve tiles already counted, so only first
        completions drain ``in_flight``.
        """
        results = self._collect(block=block and self._in_flight > 0, timeout=timeout)
        self._in_flight -= sum(1 for result in results if not result.duplicate)
        return results

    def maintain(self) -> None:
        """Periodic elasticity hook, called once per :meth:`RenderServer.step`.

        The serial backend has nothing to do; the remote backend supervises
        (fail lost agents over, re-fork dead owned ones), hedges stragglers
        and rebalances hot keys here — *between* collects, so a stalled agent
        is handled even while results from the others keep arriving.
        """

    def drain_events(self) -> List[BackendEvent]:
        """Elasticity events since the last drain (oldest first)."""
        events = list(self._events)
        self._events.clear()
        return events

    def _emit(self, name: str, job_id: Optional[str] = None, **attrs) -> None:
        if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
            self.dropped_events += 1  # the append below evicts the oldest
        self._events.append(BackendEvent(name=name, job_id=job_id, attrs=attrs))

    # -- subclass hooks -------------------------------------------------
    def _max_in_flight(self) -> int:
        raise NotImplementedError

    def _start(self, store: SceneStore) -> None:
        raise NotImplementedError

    def _submit(self, task: TileTask) -> None:
        raise NotImplementedError

    def _collect(self, block: bool, timeout: Optional[float]) -> List[TileResult]:
        raise NotImplementedError

    def _close(self) -> None:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Render tiles inline on the scheduler's thread (the default).

    ``submit`` executes immediately and ``collect`` hands the single result
    back, so the server's step loop renders exactly one tile per step in
    deterministic order — the cooperative behaviour the traffic replayers
    and every pre-backend test were written against.
    """

    name = "serial"
    num_workers = 1

    def __init__(self) -> None:
        super().__init__()
        self._store: Optional[SceneStore] = None
        self._done: List[TileResult] = []

    def _max_in_flight(self) -> int:
        return 1

    def _start(self, store: SceneStore) -> None:
        self._store = store

    def _submit(self, task: TileTask) -> None:
        assert self._store is not None
        self._done.append(_execute_tile(self._store, task, worker_id=0))

    def _collect(self, block: bool, timeout: Optional[float]) -> List[TileResult]:
        done, self._done = self._done, []
        return done

    def _close(self) -> None:
        self._done = []


#: Backend names :func:`make_backend` (and the benchmark CLI) accept.
BACKEND_NAMES = ("serial", "process", "remote")


def make_backend(
    name: str,
    num_workers: Optional[int] = None,
    queue_depth: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    hedge_multiplier: Optional[float] = None,
    steal_interval_s: Optional[float] = None,
    hosts=None,
    heartbeat_interval_s: Optional[float] = None,
    heartbeat_timeout_s: Optional[float] = None,
    dispatch_timeout_s: Optional[float] = None,
    connect_timeout_s: Optional[float] = None,
    backoff_base_s: Optional[float] = None,
    backoff_max_s: Optional[float] = None,
    local_fallback: Optional[bool] = None,
) -> ExecutionBackend:
    """Construct a backend by name.

    ``"serial"`` takes no knobs.  ``"process"`` and ``"remote"`` both build
    a :class:`~repro.serve.remote.RemoteBackend`: ``"process"`` forks
    ``num_workers`` loopback agents of its own, ``"remote"`` dials
    ``hosts`` and sizes itself from them.  Both take ``queue_depth``,
    ``fault_plan``, ``hedge_multiplier`` and ``steal_interval_s``; the
    heartbeat/backoff/timeout/fallback knobs tune the connections to
    external hosts and belong to ``"remote"`` alone.  A knob a backend
    cannot honor is an error, not a silent no-op.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}")
    remote_only = {
        "hosts": hosts,
        "heartbeat_interval_s": heartbeat_interval_s,
        "heartbeat_timeout_s": heartbeat_timeout_s,
        "dispatch_timeout_s": dispatch_timeout_s,
        "connect_timeout_s": connect_timeout_s,
        "backoff_base_s": backoff_base_s,
        "backoff_max_s": backoff_max_s,
        "local_fallback": local_fallback,
    }
    if name != "remote":
        refused = sorted(knob for knob, value in remote_only.items() if value is not None)
        if refused:
            raise ValueError(
                f"the {name} backend does not support the remote-only "
                f"knob(s): {', '.join(refused)}; use "
                "make_backend('remote', hosts=...)"
            )
    if name == "serial":
        pool_only = {
            "queue_depth": queue_depth,
            "fault_plan": fault_plan,
            "hedge_multiplier": hedge_multiplier,
            "steal_interval_s": steal_interval_s,
        }
        refused = sorted(knob for knob, value in pool_only.items() if value is not None)
        if refused:
            raise ValueError(
                f"the serial backend does not support: {', '.join(refused)}"
            )
        return SerialBackend()
    from repro.serve.remote import RemoteBackend  # lazy: avoids an import cycle

    kwargs = {knob: value for knob, value in remote_only.items() if value is not None}
    if name == "remote":
        kwargs["hosts"] = hosts or ()  # an empty list is refused, not "fork my own"
    if queue_depth is not None:
        kwargs["queue_depth"] = queue_depth
    return RemoteBackend(
        num_workers=num_workers,
        fault_plan=fault_plan,
        hedge_multiplier=hedge_multiplier,
        steal_interval_s=steal_interval_s,
        **kwargs,
    )
