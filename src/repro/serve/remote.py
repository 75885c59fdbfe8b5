"""Out-of-process execution: a TCP transport for :class:`TileTask` rendering.

Every tile that leaves the scheduler's process goes through this module,
whether the agent rendering it is a loopback fork or a machine across the
network.  Three pieces:

* **Wire protocol** — length-prefixed, versioned frames over a plain TCP
  socket.  Every frame is an 8-byte header (magic byte, one-byte schema
  version, message type, payload length) followed by a pickled payload.
  The version byte is checked *before* the payload is ever unpickled: a
  mixed-version host/scheduler pair fails with a typed
  :class:`WireVersionError` naming both versions, never a pickle error.
  A partial frame is never parsed — a connection that closes mid-frame is
  condemned (:class:`TornFrameError` semantics) and its tiles redispatched.
* **:class:`RemoteHostAgent`** — the per-host server process.  It owns no
  scene data until a scheduler connects and sends a HELLO carrying the
  picklable :class:`~repro.serve.store.SceneStoreSpec`; the agent rebuilds
  its shard from the spec (bundles are *rebuilt*, never pickled — renders
  are deterministic in the spec, which is what keeps remote frames
  bit-identical) and then serves ``TileTask`` → ``TileResult`` frames,
  answering heartbeat pings in between.  :class:`LocalHostCluster` forks N
  loopback agents.
* **:class:`RemoteBackend`** — the one out-of-process
  :class:`~repro.serve.backends.ExecutionBackend`.  ``make_backend("process",
  num_workers=N)`` forks its own N loopback agents through
  :class:`LocalHostCluster`; ``make_backend("remote", hosts=...)`` dials
  agents run elsewhere.  Tiles route by sticky ``(scene, pipeline)``
  affinity through an outstanding-tile table.  All I/O is non-blocking on
  the scheduler's own thread (one ``selectors`` loop pumped from
  ``collect``/``maintain``), so supervision can never be starved by a stuck
  socket.

**Failure model.**  A host is declared dead when its connection EOFs or
errors, when a frame arrives torn, when nothing (results, pongs) has been
heard for ``heartbeat_timeout_s`` — the silent-partition case — or when a
tile overstays ``dispatch_timeout_s``.  Death moves the host's in-flight
tiles to survivors through the outstanding-tile table
(``redispatched_tiles``), reassigns its affinity keys, and schedules a
reconnect with capped exponential backoff and deterministic jitter; a
successful reconnect (``host_reconnects``) re-handshakes and drains any
stranded tiles.  An agent the backend forked itself whose process has
exited is re-forked on a new port instead (``worker_respawns``).  With *no*
survivors, ``local_fallback=True`` renders stranded tiles on a lazily built
in-process shard so the server keeps serving bit-identical frames;
otherwise tiles wait for a reconnect.  Duplicate completions (a
redispatched or hedged tile whose other copy also lands) are byte-identical
by construction and dropped by ``_ingest``.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import pickle
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.backends import (
    _COLLECT_BLOCK_S,
    ExecutionBackend,
    FaultPlan,
    TileResult,
    TileTask,
    _execute_tile,
)
from repro.serve.store import SceneStore

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "WireVersionError",
    "TornFrameError",
    "encode_frame",
    "FrameDecoder",
    "RemoteHostAgent",
    "LocalHostCluster",
    "RemoteBackend",
]

# --------------------------------------------------------------------------
# Wire protocol
# --------------------------------------------------------------------------

#: The one-byte schema version stamped into every frame header.  Bump it
#: whenever the payload schema (the pickled dataclasses, the HELLO dict)
#: changes incompatibly; mismatched peers then fail with a typed
#: :class:`WireVersionError` instead of a pickle error deep in a payload.
WIRE_VERSION = 2

#: First header byte; anything else on the wire is corruption, not a frame.
FRAME_MAGIC = 0xA7

#: ``!`` network order: magic, version, message type, pad, payload length.
_HEADER = struct.Struct("!BBBxI")

#: Sanity bound on a declared payload length — a length prefix larger than
#: this is a torn or corrupt stream, not a legitimate frame.
MAX_FRAME_BYTES = 1 << 28

MSG_HELLO = 1
MSG_HELLO_ACK = 2
MSG_TASK = 3
MSG_RESULT = 4
MSG_PING = 5
MSG_PONG = 6
MSG_GOODBYE = 7


class WireError(RuntimeError):
    """A connection produced bytes that are not a well-formed frame."""


class WireVersionError(WireError):
    """Peer speaks a different wire schema version.

    Raised from the frame *header*, before any payload is unpickled, so a
    version skew between a scheduler and a host agent surfaces as a typed,
    named error rather than an unpickling crash.
    """

    def __init__(self, local_version: int, peer_version: object) -> None:
        self.local_version = local_version
        self.peer_version = peer_version
        super().__init__(
            f"wire schema version mismatch: this side speaks version "
            f"{local_version}, peer sent version {peer_version}; run the "
            f"same release on every host"
        )


class TornFrameError(WireError):
    """The stream is not aligned on a frame boundary (bad magic, absurd
    length): a partial or corrupt read that must never become a result."""


def encode_frame(msg_type: int, payload: object, version: int = WIRE_VERSION) -> bytes:
    """One complete frame: header + pickled payload."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(FRAME_MAGIC, version, msg_type, len(body)) + body


class FrameDecoder:
    """Incremental frame parser over an arbitrary chunking of the stream.

    Feed it whatever ``recv`` returned; :meth:`frames` yields every complete
    ``(msg_type, payload)`` and leaves a partial tail buffered — a payload is
    only unpickled once all its bytes have arrived, so a torn read can never
    yield a corrupt result.  Header validation raises :class:`TornFrameError`
    (bad magic / absurd length) or :class:`WireVersionError` (schema skew).
    """

    def __init__(self, version: int = WIRE_VERSION) -> None:
        self._version = version
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes of an incomplete frame still waiting for the rest."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def frames(self):
        """Yield every complete ``(msg_type, payload)`` buffered so far."""
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            magic, version, msg_type, length = _HEADER.unpack_from(self._buffer)
            if magic != FRAME_MAGIC:
                raise TornFrameError(
                    f"stream out of frame alignment (got leading byte "
                    f"0x{magic:02x}, want 0x{FRAME_MAGIC:02x})"
                )
            if version != self._version:
                raise WireVersionError(self._version, version)
            if length > MAX_FRAME_BYTES:
                raise TornFrameError(
                    f"declared payload of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame bound (corrupt length prefix)"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = pickle.loads(bytes(self._buffer[_HEADER.size:end]))
            del self._buffer[:end]
            yield msg_type, payload


def _format_address(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


# --------------------------------------------------------------------------
# Host agent
# --------------------------------------------------------------------------


class RemoteHostAgent:
    """One render host: a TCP listener serving ``TileTask`` → ``TileResult``.

    The agent is scene-agnostic until a scheduler's HELLO arrives with the
    store spec, its host index and the shard count; it then rebuilds its
    shard store (kept across reconnects — a scheduler that comes back after
    a dropped connection re-handshakes against a warm shard) and serves
    tasks one at a time.  Any frame it sends doubles as liveness; PING
    frames are echoed as PONG between tiles, and while a task runs (a cold
    bundle build can take longer than the heartbeat deadline) a helper
    thread sends an unsolicited PONG every ``keepalive_s`` from the HELLO.

    The :class:`~repro.serve.backends.FaultPlan` travels inside the HELLO,
    so reproducible chaos works across the host boundary: ``kill_worker``
    hard-exits this agent's process mid-task, ``drop_host`` tears the
    connection mid-result-frame (the scheduler must detect the torn frame),
    ``partition_host`` goes silent without closing anything (only the
    heartbeat deadline can catch it), and ``delay_worker``/``delay_host``
    model slow compute and slow network respectively.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.create_server((host, port))
        #: The ``(host, port)`` this agent actually bound (port 0 resolves).
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._store: Optional[SceneStore] = None
        self._store_key: Optional[tuple] = None
        self._host_index = 0
        self._fault_plan: Optional[FaultPlan] = None
        self._keepalive_s = 1.0
        self._tiles_taken = 0
        self._drop_fired = False

    def serve_forever(self) -> None:
        """Accept one scheduler connection at a time, forever."""
        while True:
            conn, _ = self._listener.accept()
            try:
                self._serve_connection(conn)
            except (OSError, WireError, pickle.UnpicklingError):
                pass  # a broken connection is the scheduler's problem to heal
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = FrameDecoder()
        while True:
            data = conn.recv(1 << 16)
            if not data:
                return
            decoder.feed(data)
            try:
                frames = list(decoder.frames())
            except WireVersionError:
                # Name our version so the scheduler can raise the typed
                # error; our decoder cannot touch the peer's payloads.
                conn.sendall(encode_frame(MSG_HELLO_ACK, {"version": WIRE_VERSION}))
                return
            for msg_type, payload in frames:
                if not self._handle(conn, msg_type, payload):
                    return

    def _handle(self, conn: socket.socket, msg_type: int, payload: object) -> bool:
        """Process one frame; returns False when the connection should end."""
        if msg_type == MSG_HELLO:
            self._handshake(conn, payload)
            return True
        if msg_type == MSG_PING:
            conn.sendall(encode_frame(MSG_PONG, payload))
            return True
        if msg_type == MSG_GOODBYE:
            return False
        if msg_type == MSG_TASK:
            return self._serve_task(conn, payload)
        return True  # unknown-but-well-framed types are ignorable, not fatal

    def _handshake(self, conn: socket.socket, payload: dict) -> None:
        spec = payload["spec"]
        host_index = payload["host_index"]
        num_hosts = payload["num_hosts"]
        key = (host_index, num_hosts, spec)
        if self._store is None or key != self._store_key:
            self._store = SceneStore.from_spec(
                spec, shard_index=host_index, num_shards=num_hosts
            )
            self._store_key = key
        self._host_index = host_index
        self._fault_plan = payload.get("fault_plan")
        self._keepalive_s = payload["keepalive_s"]
        if self._fault_plan is not None and self._fault_plan.poison_key is not None:
            self._store.poison(*self._fault_plan.poison_key)
        conn.sendall(
            encode_frame(
                MSG_HELLO_ACK,
                {
                    "version": WIRE_VERSION,
                    "host_index": host_index,
                    "pid": os.getpid(),
                    "tiles_taken": self._tiles_taken,
                },
            )
        )

    def _serve_task(self, conn: socket.socket, task: TileTask) -> bool:
        assert self._store is not None, "TASK before HELLO"
        plan = self._fault_plan
        self._tiles_taken += 1
        if (
            plan is not None
            and plan.kill_worker == self._host_index
            and self._tiles_taken >= plan.kill_after_tiles
        ):
            # Crash without answering: results already sent sit in the kernel
            # buffer and still reach the scheduler before the FIN.
            os._exit(1)
        if plan is not None and plan.partition_host == self._host_index:
            # A partition, not a crash: the socket stays open, nothing is
            # ever answered again.  Only the heartbeat deadline catches this.
            while True:
                time.sleep(60.0)
        stop = threading.Event()
        keepalive = threading.Thread(target=self._keepalive, args=(conn, stop), daemon=True)
        keepalive.start()
        try:
            if (
                plan is not None
                and plan.delay_worker == self._host_index
                and plan.delay_s > 0
            ):
                time.sleep(plan.delay_s)
            result = _execute_tile(self._store, task, worker_id=self._host_index)
        finally:
            stop.set()
            keepalive.join()  # the socket is this thread's again from here
        if (
            plan is not None
            and plan.delay_host == self._host_index
            and plan.delay_host_s > 0
        ):
            time.sleep(plan.delay_host_s)  # slow network, not slow compute
        frame = encode_frame(MSG_RESULT, result)
        if (
            plan is not None
            and plan.drop_host == self._host_index
            and not self._drop_fired
            and self._tiles_taken >= plan.drop_connection_after_tiles
        ):
            # Tear the connection mid-frame: the scheduler must detect the
            # torn result, discard it, and redispatch — never parse it.
            self._drop_fired = True  # one drop per plan, like one crash
            conn.sendall(frame[: max(1, len(frame) // 2)])
            return False
        conn.sendall(frame)
        return True

    def _keepalive(self, conn: socket.socket, stop: threading.Event) -> None:
        """PONG every ``keepalive_s`` until ``stop``: a busy host is alive."""
        while not stop.wait(self._keepalive_s):
            try:
                conn.sendall(encode_frame(MSG_PONG, None))
            except OSError:
                return


def _agent_entry(pipe, host: str) -> None:
    agent = RemoteHostAgent(host=host)
    pipe.send(agent.address)
    pipe.close()
    agent.serve_forever()


class LocalHostCluster:
    """N loopback :class:`RemoteHostAgent` processes, direct children of this one.

    Each agent binds port 0 in its own forked process and reports the bound
    address back over a pipe; ``addresses`` is what a :class:`RemoteBackend`
    takes as ``hosts=``, and what ``make_backend("process")`` forks for
    itself.  :meth:`kill` hard-kills one agent to stage a host loss,
    :meth:`respawn` replaces an exited one; the context manager tears the
    rest down.
    """

    def __init__(self, num_hosts: int, host: str = "127.0.0.1") -> None:
        if num_hosts < 1:
            raise ValueError(f"num_hosts must be at least 1, got {num_hosts}")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._host = host
        self.processes: list = []
        self.addresses: List[Tuple[str, int]] = []
        for _ in range(num_hosts):
            process, address = self._spawn()
            self.processes.append(process)
            self.addresses.append(address)

    def _spawn(self):
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(target=_agent_entry, args=(child, self._host), daemon=True)
        process.start()
        child.close()
        try:
            if not parent.poll(30.0):
                process.terminate()
                raise RuntimeError("host agent did not report its address in 30s")
            return process, parent.recv()
        finally:
            parent.close()

    def respawn(self, index: int) -> Tuple[str, int]:
        """Replace agent ``index``, whose process has exited, with a fresh
        one on a new port; returns the new address."""
        self.processes[index].join(timeout=1.0)  # reap the corpse
        self.processes[index], self.addresses[index] = self._spawn()
        return self.addresses[index]

    @property
    def num_hosts(self) -> int:
        return len(self.processes)

    def kill(self, index: int) -> None:
        """Hard-kill one agent (SIGKILL): the canonical lost host."""
        process = self.processes[index]
        process.kill()
        process.join(timeout=5.0)

    def close(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=5.0)

    def __enter__(self) -> "LocalHostCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------
# Scheduler-side backend
# --------------------------------------------------------------------------


@dataclass(eq=False)
class _HostChannel:
    """Connection state of one remote host, owned by the scheduler thread."""

    index: int
    address: Tuple[str, int]
    sock: Optional[socket.socket] = None
    #: ``down`` → ``connecting`` → ``handshaking`` → ``up`` (and back to
    #: ``down`` on loss).
    state: str = "down"
    decoder: Optional[FrameDecoder] = None
    outbox: bytearray = field(default_factory=bytearray)
    #: Tasks routed here while the host was unreachable; drained on any
    #: host coming up (rerouted if this one stays down).
    unsent: List[TileTask] = field(default_factory=list)
    last_seen: float = 0.0
    last_ping: float = 0.0
    attempts: int = 0
    next_attempt_at: float = 0.0
    connect_deadline: float = 0.0
    ever_up: bool = False
    #: The plan this host's HELLO carries (a re-forked agent's lacks the kill).
    fault_plan: Optional[FaultPlan] = None


@dataclass(eq=False)
class _Dispatch:
    """Routing state of one in-flight tile."""

    task: TileTask
    worker: int
    dispatched_at: float
    hedge_worker: Optional[int] = None


def _default_num_workers() -> int:
    """A small pool: enough to overlap scenes, not enough to thrash a laptop."""
    return max(2, min(4, os.cpu_count() or 2))


def _parse_hosts(
    hosts: Optional[Sequence[Union[str, Tuple[str, int]]]],
) -> List[Tuple[str, int]]:
    if not hosts:
        raise ValueError(
            "the remote backend needs at least one host address: "
            "hosts=[('127.0.0.1', 7000), ...] or ['host:port', ...]"
        )
    addresses: List[Tuple[str, int]] = []
    for entry in hosts:
        if isinstance(entry, str):
            host, sep, port = entry.rpartition(":")
            if not sep or not host:
                raise ValueError(f"host address {entry!r} is not 'host:port'")
            addresses.append((host, int(port)))
        else:
            host, port = entry
            addresses.append((str(host), int(port)))
    return addresses


class RemoteBackend(ExecutionBackend):
    """Schedule tiles across N host agents over TCP: the one out-of-process
    backend.

    Two forms share every line of scheduling and supervision:

    * ``RemoteBackend(num_workers=N)`` — what ``make_backend("process")``
      builds, reported as ``"process"``.  :meth:`start` forks N loopback
      agents through :class:`LocalHostCluster` (after checking the store
      spec is picklable, so the agents inherit every pipeline registered
      before start) and :meth:`close` tears them down.
    * ``RemoteBackend(hosts=[...])`` — what ``make_backend("remote")``
      builds, reported as ``"remote"``: it dials agents run elsewhere and
      sizes itself from the host list.

    Tiles route by sticky ``(scene, pipeline)`` affinity — first touch picks
    the live host with the fewest keys — so each bundle is resident in one
    shard and never rendered concurrently, and each host runs at most
    ``queue_depth`` tiles ahead.  Every in-flight tile sits in an
    outstanding-tile table keyed ``(job_id, tile_index)``: failover reads it
    to find a lost host's tiles, and a completion that resolves an entry
    already resolved (a hedge loser, a redispatch echo) is flagged
    ``duplicate`` so nothing is double-counted.

    heartbeat_interval_s / heartbeat_timeout_s:
        A PING goes to every idle-up host each interval, and a busy agent
        sends a PONG each interval on its own; *any* frame counts as
        liveness.  A host silent past the deadline is declared dead —
        connection condemned, in-flight tiles redispatched to survivors,
        affinity keys reassigned (``host_losses``).
    connect_timeout_s:
        Deadline for a TCP connect *and* the HELLO/ACK handshake behind it.
    backoff_base_s / backoff_max_s:
        Reconnects back off exponentially (capped), with deterministic
        jitter derived from ``(host index, attempt)`` so a fleet of
        schedulers does not thundering-herd a recovering host and test runs
        stay reproducible.  A reconnect re-handshakes, counts
        ``host_reconnects``, and drains tiles stranded while down.
    dispatch_timeout_s:
        A tile in flight on an *up* host longer than this condemns the
        connection (the *host-is-sick* complement of the heartbeat's
        *host-is-silent*).  ``None`` (default) disables it.
    local_fallback:
        With every host down, render stranded tiles on a lazily built
        in-process shard (``local_fallback_tiles``) instead of waiting for
        a reconnect — graceful degradation to serial rendering, still
        bit-identical.  Off by default: a partitioned *scheduler* should
        usually wait, not silently absorb the fleet's work.
    hedge_multiplier / hedge_min_samples / hedge_budget:
        A tile in flight longer than ``hedge_multiplier`` x the p95 service
        time observed for its key (the backend-wide p95 until the key has
        ``hedge_min_samples`` of its own) is duplicated onto the
        least-loaded other live host; the first completion wins.  At most
        ``hedge_budget`` duplicates (default: one per host) are in flight
        at once.  ``None`` (default) disables hedging.
    steal_interval_s:
        Minimum seconds between affinity migrations.  When the busiest live
        host is at ``queue_depth`` while another sits idle, the busy host's
        most-dispatched ``(scene, pipeline)`` key moves to the idle one,
        which rebuilds the bundle deterministically on first touch.
        ``None`` (default) disables stealing.

    The heartbeat/connect/backoff/dispatch-timeout/fallback knobs keep
    their defaults under ``make_backend("process")``.  An owned agent whose
    process has exited is re-forked on a new port (``worker_respawns``)
    with the fault plan minus its kill; every other loss, and every loss of
    an external host, takes the reconnect path.
    """

    def __init__(
        self,
        hosts: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        num_workers: Optional[int] = None,
        queue_depth: int = 2,
        fault_plan: Optional[FaultPlan] = None,
        hedge_multiplier: Optional[float] = None,
        hedge_min_samples: int = 8,
        hedge_budget: Optional[int] = None,
        steal_interval_s: Optional[float] = None,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 10.0,
        dispatch_timeout_s: Optional[float] = None,
        connect_timeout_s: float = 10.0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        local_fallback: bool = False,
    ) -> None:
        super().__init__()
        #: Whether this backend forks (and re-forks) its own agents.
        self._owns_agents = hosts is None
        if self._owns_agents:
            self.name = "process"
            self.num_workers = num_workers if num_workers is not None else _default_num_workers()
            if self.num_workers < 1:
                raise ValueError(f"num_workers must be at least 1, got {num_workers}")
            self.addresses: List[Tuple[str, int]] = []  # bound at start
        else:
            if num_workers is not None:
                raise ValueError(
                    "the remote backend sizes itself from hosts=; "
                    "num_workers is not accepted"
                )
            self.name = "remote"
            self.addresses = _parse_hosts(hosts)
            self.num_workers = len(self.addresses)
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be at least 1, got {queue_depth}")
        if fault_plan is not None:
            fault_plan.check_indices(self.num_workers)
        if hedge_multiplier is not None and hedge_multiplier <= 0:
            raise ValueError(f"hedge_multiplier must be positive, got {hedge_multiplier}")
        if hedge_min_samples < 1:
            raise ValueError(f"hedge_min_samples must be at least 1, got {hedge_min_samples}")
        if hedge_budget is not None and hedge_budget < 1:
            raise ValueError(f"hedge_budget must be at least 1, got {hedge_budget}")
        if steal_interval_s is not None and steal_interval_s < 0:
            raise ValueError(f"steal_interval_s must be non-negative, got {steal_interval_s}")
        if heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive, got {heartbeat_interval_s}"
            )
        if heartbeat_timeout_s <= heartbeat_interval_s:
            raise ValueError(
                f"heartbeat_timeout_s ({heartbeat_timeout_s}) must exceed "
                f"heartbeat_interval_s ({heartbeat_interval_s})"
            )
        if dispatch_timeout_s is not None and dispatch_timeout_s <= 0:
            raise ValueError(
                f"dispatch_timeout_s must be positive, got {dispatch_timeout_s}"
            )
        if connect_timeout_s <= 0:
            raise ValueError(f"connect_timeout_s must be positive, got {connect_timeout_s}")
        if backoff_base_s <= 0:
            raise ValueError(f"backoff_base_s must be positive, got {backoff_base_s}")
        if backoff_max_s < backoff_base_s:
            raise ValueError(
                f"backoff_max_s ({backoff_max_s}) must be at least "
                f"backoff_base_s ({backoff_base_s})"
            )
        #: Submitted-not-collected tiles the scheduler may run ahead per
        #: host; 2 keeps every host busy while it renders.
        self.queue_depth = queue_depth
        self.fault_plan = fault_plan
        self.hedge_multiplier = hedge_multiplier
        self.hedge_min_samples = hedge_min_samples
        self.hedge_budget = hedge_budget if hedge_budget is not None else self.num_workers
        self.steal_interval_s = steal_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.dispatch_timeout_s = dispatch_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.local_fallback = bool(local_fallback)
        self._cluster: Optional[LocalHostCluster] = None
        self._channels: List[_HostChannel] = []
        self._selector: Optional[selectors.BaseSelector] = None
        self._spec = None
        self._reset_routing()

    def _reset_routing(self) -> None:
        self._affinity: Dict[Tuple[str, str], int] = {}
        self._keys_per_worker = [0] * self.num_workers
        self._inflight_per_worker = [0] * self.num_workers
        #: Dispatches per key since its last migration (the steal heat signal).
        self._key_dispatches: Dict[Tuple[str, str], int] = {}
        self._outstanding: Dict[Tuple[str, int], _Dispatch] = {}
        self._results: List[TileResult] = []
        self._local_store: Optional[SceneStore] = None
        self._hedges_in_flight = 0
        self._service_samples: Dict[Tuple[str, str], Deque[float]] = {}
        self._all_samples: Deque[float] = deque(maxlen=256)
        self._last_steal: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def _start(self, store: SceneStore) -> None:
        self._spec = store.spec()
        self._spec.ensure_picklable()  # fail here, legibly — not mid-HELLO
        self._reset_routing()
        if self._owns_agents:
            self._cluster = LocalHostCluster(self.num_workers)
            self.addresses = list(self._cluster.addresses)
        self._selector = selectors.DefaultSelector()
        self._channels = [
            _HostChannel(index=i, address=address, fault_plan=self.fault_plan)
            for i, address in enumerate(self.addresses)
        ]
        now = time.monotonic()
        for channel in self._channels:
            self._start_connect(channel, now)
        deadline = now + self.connect_timeout_s
        while (
            any(ch.state != "up" for ch in self._channels)
            and time.monotonic() < deadline
        ):
            self._pump(0.02)
        if not any(ch.state == "up" for ch in self._channels) and not self.local_fallback:
            addresses = [_format_address(a) for a in self.addresses]
            self._close()
            raise ConnectionError(
                f"no remote host reachable within {self.connect_timeout_s}s: "
                f"{', '.join(addresses)} (start the agents, or pass "
                f"local_fallback=True to degrade to in-process rendering)"
            )
        # Hosts still connecting keep trying from the supervision sweep.

    def _close(self) -> None:
        for channel in self._channels:
            if channel.sock is not None and channel.state == "up":
                try:
                    channel.sock.setblocking(True)
                    channel.sock.settimeout(0.5)
                    channel.sock.sendall(
                        bytes(channel.outbox) + encode_frame(MSG_GOODBYE, None)
                    )
                except OSError:
                    pass
            self._disconnect(channel)
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._cluster is not None:
            self._cluster.close()
        self._outstanding.clear()
        self._results = []
        self._hedges_in_flight = 0

    # -- scheduling interface ------------------------------------------
    def has_capacity(self) -> bool:
        """Dispatch while *some* host has queue-depth headroom.

        Capacity is tracked per host, not as one global cap: a hot
        ``(scene, pipeline)`` key backlogging its sticky host must not block
        dispatch for jobs whose keys route to idle hosts.  Which host a
        specific tile may go to is :meth:`can_accept`'s per-key answer.
        """
        return any(count < self.queue_depth for count in self._inflight_per_worker)

    def can_accept(self, key: Tuple[str, str]) -> bool:
        return self._inflight_per_worker[self.worker_for(key)] < self.queue_depth

    def worker_for(self, key: Tuple[str, str]) -> int:
        """The sticky host of one ``(scene, pipeline)`` key; first touch
        prefers a *live* host (fewest keys wins)."""
        worker = self._affinity.get(key)
        if worker is None:
            live = self._live_hosts()
            candidates = live if live else range(self.num_workers)
            worker = min(candidates, key=lambda i: self._keys_per_worker[i])
            self._affinity[key] = worker
            self._keys_per_worker[worker] += 1
        return worker

    def _submit(self, task: TileTask) -> None:
        worker = self.worker_for(task.key)
        self._key_dispatches[task.key] = self._key_dispatches.get(task.key, 0) + 1
        dispatch = _Dispatch(task=task, worker=worker, dispatched_at=time.monotonic())
        self._outstanding[(task.job_id, task.tile_index)] = dispatch
        self._route(dispatch, redispatch=False)
        self._inflight_per_worker[dispatch.worker] += 1
        self._pump(0.0)

    def _collect(self, block: bool, timeout: Optional[float]) -> List[TileResult]:
        # Supervise on EVERY collect — a dead host must not hide behind
        # results the surviving hosts keep producing.
        self._supervise()
        self._pump(0.0)
        if block and not self._results:
            self._pump(timeout if timeout is not None else _COLLECT_BLOCK_S)
            self._supervise()  # the wait may have crossed a deadline
        raw, self._results = self._results, []
        return self._ingest(raw)

    def _ingest(self, raw: List[TileResult]) -> List[TileResult]:
        """Resolve arrivals against the outstanding table (dedup + accounting)."""
        for result in raw:
            dispatch = self._outstanding.pop((result.job_id, result.tile_index), None)
            if dispatch is None:
                result.duplicate = True
            else:
                self._resolved(dispatch, result)
            if 0 <= result.worker_id < self.num_workers:
                if self._inflight_per_worker[result.worker_id] > 0:
                    self._inflight_per_worker[result.worker_id] -= 1
        return raw

    def _resolved(self, dispatch: _Dispatch, result: TileResult) -> None:
        """First completion of an outstanding tile."""
        if dispatch.hedge_worker is not None:
            # The losing copy still occupies its host until its echo
            # arrives, but the *pair* is settled — free the hedge budget.
            self._hedges_in_flight = max(0, self._hedges_in_flight - 1)
        if result.error is None and result.service_s > 0:
            key = dispatch.task.key
            samples = self._service_samples.get(key)
            if samples is None:
                samples = self._service_samples[key] = deque(maxlen=64)
            samples.append(result.service_s)
            self._all_samples.append(result.service_s)

    def maintain(self) -> None:
        if not self._started:
            return
        self._supervise()
        self._hedge_stragglers()
        self._steal_hot_key()
        self._pump(0.0)

    # -- hedging and stealing ------------------------------------------
    def _hedge_stragglers(self) -> None:
        if self.hedge_multiplier is None or not self._outstanding:
            return
        live = self._live_hosts()
        now = time.monotonic()
        for dispatch in self._outstanding.values():
            if self._hedges_in_flight >= self.hedge_budget:
                return
            if dispatch.hedge_worker is not None:
                continue
            others = [host for host in live if host != dispatch.worker]
            if not others:
                continue
            p95 = self._service_p95(dispatch.task.key)
            if p95 is None or now - dispatch.dispatched_at <= self.hedge_multiplier * p95:
                continue
            target = min(others, key=lambda host: self._inflight_per_worker[host])
            dispatch.hedge_worker = target
            self._inflight_per_worker[target] += 1
            self._transmit(self._channels[target], dispatch.task)
            self._hedges_in_flight += 1
            self.hedged_tiles += 1
            self._emit(
                "hedged",
                job_id=dispatch.task.job_id,
                tile=dispatch.task.tile_index,
                worker=dispatch.worker,
                hedge_worker=target,
            )

    def _service_p95(self, key: Tuple[str, str]) -> Optional[float]:
        """The key's observed p95 service time (backend-wide until it has
        its own history; ``None`` while there is too little of either)."""
        samples = self._service_samples.get(key)
        pool = samples if samples and len(samples) >= self.hedge_min_samples else self._all_samples
        if len(pool) < self.hedge_min_samples:
            return None
        return float(np.percentile(np.asarray(pool, dtype=np.float64), 95))

    def _steal_hot_key(self) -> None:
        if self.steal_interval_s is None:
            return
        now = time.monotonic()
        if self._last_steal is not None and now - self._last_steal < self.steal_interval_s:
            return
        live = self._live_hosts()
        if len(live) < 2:
            return
        loads = self._inflight_per_worker
        hot = max(live, key=lambda host: loads[host])
        cold = min(live, key=lambda host: loads[host])
        if loads[hot] < self.queue_depth or loads[cold] > 0:
            return
        keys = [key for key, host in self._affinity.items() if host == hot]
        if not keys:
            return
        key = max(keys, key=lambda k: self._key_dispatches.get(k, 0))
        self._move_key(key, hot, cold)
        self._key_dispatches[key] = 0  # heat resets with the move
        self.stolen_keys += 1
        self._last_steal = now
        self._emit("stolen", scene=key[0], pipeline=key[1], src=hot, dst=cold)

    # -- connection management -----------------------------------------
    def _live_hosts(self) -> List[int]:
        return [ch.index for ch in self._channels if ch.state == "up"]

    def _start_connect(self, channel: _HostChannel, now: float) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        err = sock.connect_ex(channel.address)
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            self._connect_failed(channel, now)
            return
        channel.sock = sock
        channel.state = "connecting"
        channel.decoder = FrameDecoder()
        channel.outbox = bytearray()
        channel.connect_deadline = now + self.connect_timeout_s
        self._selector.register(sock, selectors.EVENT_WRITE, channel)

    def _update_mask(self, channel: _HostChannel) -> None:
        if channel.sock is None:
            return
        mask = selectors.EVENT_READ
        if channel.state == "connecting" or channel.outbox:
            mask |= selectors.EVENT_WRITE
        try:
            self._selector.modify(channel.sock, mask, channel)
        except (KeyError, ValueError):
            pass

    def _disconnect(self, channel: _HostChannel) -> None:
        if channel.sock is not None:
            if self._selector is not None:
                try:
                    self._selector.unregister(channel.sock)
                except (KeyError, ValueError):
                    pass
            try:
                channel.sock.close()
            except OSError:
                pass
        channel.sock = None
        channel.decoder = None
        channel.outbox = bytearray()
        channel.state = "down"

    def _backoff_delay(self, channel: _HostChannel) -> float:
        """Capped exponential backoff with deterministic per-(host, attempt)
        jitter in ``[0.5x, 1.0x)`` — spread without RNG state."""
        exp = min(
            self.backoff_max_s,
            self.backoff_base_s * (2 ** min(channel.attempts - 1, 16)),
        )
        jitter = ((channel.index * 40503 + channel.attempts * 9973) % 1000) / 1000.0
        return exp * (0.5 + 0.5 * jitter)

    def _connect_failed(self, channel: _HostChannel, now: float) -> None:
        """A connect or handshake attempt died before the host was ever up."""
        self._disconnect(channel)
        channel.attempts += 1
        channel.next_attempt_at = now + self._backoff_delay(channel)
        self._failover(channel)

    def _condemn(self, channel: _HostChannel, reason: str) -> None:
        """Declare an up host dead: close, back off, fail its tiles over."""
        was_up = channel.state == "up"
        torn = bool(channel.decoder is not None and channel.decoder.pending_bytes)
        self._disconnect(channel)
        now = time.monotonic()
        channel.attempts += 1
        channel.next_attempt_at = now + self._backoff_delay(channel)
        if was_up:
            self.host_losses += 1
            self._emit(
                "host-lost",
                host=channel.index,
                address=_format_address(channel.address),
                reason=reason,
                torn_frame=torn,
            )
        self._failover(channel)

    def _failover(self, channel: _HostChannel) -> None:
        """Move everything resident on a down host somewhere that can run it."""
        channel.unsent = []  # every entry is also in _outstanding
        for dispatch in list(self._outstanding.values()):
            if dispatch.hedge_worker == channel.index:
                # The hedge copy is lost; the primary is still out there.
                dispatch.hedge_worker = None
                self._hedges_in_flight = max(0, self._hedges_in_flight - 1)
            if dispatch.worker != channel.index:
                continue
            if dispatch.hedge_worker is not None:
                # A live hedge already covers this tile: promote it.
                dispatch.worker, dispatch.hedge_worker = dispatch.hedge_worker, None
                self._hedges_in_flight = max(0, self._hedges_in_flight - 1)
            else:
                self._route(dispatch, redispatch=True)
        self._recount_inflight()

    def _route(self, dispatch: _Dispatch, redispatch: bool) -> None:
        """Send one outstanding tile to the best destination available now.

        The key's affinity moves to the least-loaded live host when its
        owner is down; with no live host the tile either renders on the
        local fallback shard or strands on its owner's ``unsent`` list
        (drained when any host comes back up).
        """
        task = dispatch.task
        owner = self._affinity.get(task.key, dispatch.worker)
        if self._channels[owner].state != "up":
            live = self._live_hosts()
            if live:
                target = min(live, key=lambda i: self._keys_per_worker[i])
                self._move_key(task.key, owner, target)
                owner = target
            elif self.local_fallback:
                self._render_locally(dispatch)
                return
            else:
                dispatch.worker = owner
                dispatch.dispatched_at = time.monotonic()
                self._channels[owner].unsent.append(task)
                return
        dispatch.worker = owner
        dispatch.dispatched_at = time.monotonic()
        self._transmit(self._channels[owner], task)
        if redispatch:
            self.redispatched_tiles += 1
            self._emit(
                "redispatched",
                job_id=task.job_id,
                tile=task.tile_index,
                host=owner,
            )

    def _move_key(self, key: Tuple[str, str], src: int, dst: int) -> None:
        if src == dst:
            return
        self._affinity[key] = dst
        self._keys_per_worker[src] = max(0, self._keys_per_worker[src] - 1)
        self._keys_per_worker[dst] += 1

    def _transmit(self, channel: _HostChannel, task: TileTask) -> None:
        channel.outbox += encode_frame(MSG_TASK, task)
        self._update_mask(channel)

    def _render_locally(self, dispatch: _Dispatch) -> None:
        """Graceful degradation: no host is up, render on a local shard."""
        if self._local_store is None:
            self._local_store = SceneStore.from_spec(self._spec)
            if self.fault_plan is not None and self.fault_plan.poison_key is not None:
                self._local_store.poison(*self.fault_plan.poison_key)
        result = _execute_tile(self._local_store, dispatch.task, worker_id=dispatch.worker)
        dispatch.dispatched_at = time.monotonic()
        self.local_fallback_tiles += 1
        self._emit(
            "local-fallback",
            job_id=dispatch.task.job_id,
            tile=dispatch.task.tile_index,
            host=dispatch.worker,
        )
        self._results.append(result)

    def _recount_inflight(self) -> None:
        loads = [0] * self.num_workers
        for dispatch in self._outstanding.values():
            loads[dispatch.worker] += 1
            if dispatch.hedge_worker is not None:
                loads[dispatch.hedge_worker] += 1
        self._inflight_per_worker = loads

    # -- supervision ----------------------------------------------------
    def _supervise(self) -> None:
        if self._selector is None:
            return
        now = time.monotonic()
        for channel in self._channels:
            if (
                self._owns_agents
                and channel.state != "up"
                and not self._cluster.processes[channel.index].is_alive()
            ):
                self._respawn(channel)
            if channel.state in ("connecting", "handshaking"):
                if now > channel.connect_deadline:
                    self._connect_failed(channel, now)
            elif channel.state == "up":
                if now - channel.last_seen > self.heartbeat_timeout_s:
                    self._condemn(channel, "heartbeat-deadline")
                elif now - channel.last_ping >= self.heartbeat_interval_s:
                    channel.last_ping = now
                    channel.outbox += encode_frame(MSG_PING, now)
                    self._update_mask(channel)
            elif channel.state == "down" and now >= channel.next_attempt_at:
                self._start_connect(channel, now)
        if self.dispatch_timeout_s is not None:
            overdue = {
                d.worker
                for d in self._outstanding.values()
                if now - d.dispatched_at > self.dispatch_timeout_s
                and self._channels[d.worker].state == "up"
            }
            for host in sorted(overdue):
                if self._channels[host].state == "up":
                    self._condemn(self._channels[host], "dispatch-timeout")

    def _respawn(self, channel: _HostChannel) -> None:
        """Re-fork an owned agent whose process exited, on a new port."""
        self._disconnect(channel)
        channel.address = self.addresses[channel.index] = self._cluster.respawn(channel.index)
        # One crash per plan: the replacement must make progress even under
        # kill_after_tiles=1, so it keeps poison/delay but never the kill.
        if channel.fault_plan is not None:
            channel.fault_plan = channel.fault_plan.without_kill()
        channel.ever_up = False  # a fresh agent, not a reconnect
        channel.attempts = 0
        self.worker_respawns += 1
        self._emit("respawn", worker=channel.index)
        self._start_connect(channel, time.monotonic())

    # -- the I/O pump ---------------------------------------------------
    def _pump(self, timeout: float) -> None:
        """One non-blocking sweep of every socket (send outboxes, read
        frames); with ``timeout`` > 0, waits up to that long for readiness."""
        if self._selector is None:
            return
        try:
            events = self._selector.select(timeout)
        except OSError:
            events = []
        for key, mask in events:
            channel = key.data
            if mask & selectors.EVENT_WRITE:
                self._on_writable(channel)
            if mask & selectors.EVENT_READ and channel.sock is not None:
                self._on_readable(channel)

    def _on_writable(self, channel: _HostChannel) -> None:
        now = time.monotonic()
        if channel.state == "connecting":
            err = channel.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                self._connect_failed(channel, now)
                return
            channel.state = "handshaking"
            channel.last_seen = now
            channel.outbox += encode_frame(
                MSG_HELLO,
                {
                    "spec": self._spec,
                    "host_index": channel.index,
                    "num_hosts": self.num_workers,
                    "fault_plan": channel.fault_plan,
                    "keepalive_s": self.heartbeat_interval_s,
                },
            )
        if channel.outbox:
            try:
                sent = channel.sock.send(bytes(channel.outbox))
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._condemn(channel, "send-error")
                return
            del channel.outbox[:sent]
        self._update_mask(channel)

    def _on_readable(self, channel: _HostChannel) -> None:
        try:
            data = channel.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._condemn(channel, "recv-error")
            return
        if not data:
            reason = (
                "torn-frame"
                if channel.decoder is not None and channel.decoder.pending_bytes
                else "connection-closed"
            )
            self._condemn(channel, reason)
            return
        channel.decoder.feed(data)
        channel.last_seen = time.monotonic()
        try:
            for msg_type, payload in channel.decoder.frames():
                self._on_frame(channel, msg_type, payload)
                if channel.sock is None:
                    return  # condemned while handling a frame
        except WireVersionError:
            # A schema skew is a deployment error, not a transient: surface
            # it typed to the caller instead of silently retrying forever.
            self._disconnect(channel)
            raise
        except WireError:
            self._condemn(channel, "torn-frame")

    def _on_frame(self, channel: _HostChannel, msg_type: int, payload: object) -> None:
        if msg_type == MSG_HELLO_ACK:
            peer_version = payload.get("version") if isinstance(payload, dict) else None
            if peer_version != WIRE_VERSION:
                self._disconnect(channel)
                raise WireVersionError(WIRE_VERSION, peer_version)
            reconnected = channel.ever_up
            channel.state = "up"
            channel.ever_up = True
            channel.attempts = 0
            channel.last_ping = time.monotonic()
            if reconnected:
                self.host_reconnects += 1
                self._emit(
                    "reconnected",
                    host=channel.index,
                    address=_format_address(channel.address),
                )
            self._flush_unsent()
        elif msg_type == MSG_RESULT:
            self._results.append(payload)
        # PONG (and anything unknown-but-framed) only refreshes last_seen.

    def _flush_unsent(self) -> None:
        """A host came up: drain every stranded tile somewhere runnable."""
        moved = False
        for channel in self._channels:
            if not channel.unsent:
                continue
            tasks, channel.unsent = channel.unsent, []
            for task in tasks:
                dispatch = self._outstanding.get((task.job_id, task.tile_index))
                if dispatch is not None:
                    self._route(dispatch, redispatch=channel.state != "up")
                    moved = True
        if moved:
            self._recount_inflight()
