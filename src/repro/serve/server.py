"""The asyncio front-end of the confidence-estimation server.

Architecture (``repro serve``)::

    clients --(length-prefixed JSONL)--> asyncio front-end
                                           |  consistent hash ring
                                           v
                              supervised worker processes
                              (incremental estimator banks)

The front-end owns no estimator state: every session lives in exactly
one worker process, chosen by consistently hashing the session id onto
a stable worker *slot* (:mod:`repro.serve.ring`).  The front-end keeps
only what recovery needs -- the latest :class:`SessionSnapshot` each
worker attached to an ``applied`` reply, plus every batch newer than
that snapshot -- so when a worker dies its replacement restores the
snapshot and replays only the tail, never the whole stream.  Worker
dedupe by ``applied_seq`` and front-end window dedupe by start index
make the replay exactly-once as observed by both the client and the
final quadrant counts.

Robustness mirrors the battery supervisor in
:mod:`repro.harness.parallel`:

* liveness is checked with heartbeats (the worker pipe is FIFO, so an
  answered ``ping`` proves everything before it was applied); a missed
  deadline is killed and classified ``timeout``, a broken pipe is
  classified ``crash`` -- both through the same
  :func:`~repro.harness.parallel.classify_failure` taxonomy;
* dead workers are recycled into the same slot with bounded
  exponential backoff and their sessions restored from snapshots;
* a slot that exhausts its restart budget degrades the whole server to
  a single in-process serial worker (the same :class:`SessionHost` the
  processes run), trading throughput for availability;
* clients are flow-controlled with credits (one ``credit`` frame per
  applied batch) and shed -- not buffered unboundedly -- when their
  outbound queue overflows.

Fault sites (``REPRO_FAULTS``): ``server=worker`` fires inside worker
processes (see :mod:`repro.serve.worker`); ``server=connection`` drops
a client link abruptly; ``server=frame`` garbles an inbound payload so
the protocol-error path runs.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Set

from ..engine.cache import get_cache
from ..faults import injector as faults
from ..faults.injector import InjectedCrash
from ..harness.parallel import classify_failure
from ..obs.journal import coalesce
from ..obs.registry import REGISTRY
from .protocol import (
    ProtocolError,
    decode_payload,
    read_frame_payload,
    send_message,
)
from .ring import HashRing
from .session import (
    DEFAULT_GATE_THRESHOLD,
    DEFAULT_WINDOW,
    SessionSnapshot,
    session_families,
)
from .worker import DEFAULT_SNAPSHOT_EVERY, SessionHost, worker_main


@dataclass
class ServeConfig:
    """Tunables of one server; the CLI maps flags onto this."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read back from server.port
    workers: int = 2
    #: Batches a client may have in flight before it must wait.
    credits: int = 8
    #: Batches a worker applies between session snapshots.
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    #: Metrics window (branches) unless the hello overrides it.
    window: int = DEFAULT_WINDOW
    gate_threshold: float = DEFAULT_GATE_THRESHOLD
    #: Heartbeat cadence and the stall deadline a worker must answer by.
    heartbeat_s: float = 1.0
    heartbeat_timeout_s: float = 15.0
    #: Restart budget per worker slot before the server degrades.
    max_restarts: int = 3
    restart_backoff_s: float = 0.05
    #: Outbound frames buffered per session before the client is shed.
    session_queue_limit: int = 64
    #: Per-session deadline for the next client frame (None = no limit).
    idle_timeout_s: Optional[float] = None
    hello_timeout_s: float = 30.0
    #: Deadline for a worker to ack an open/restore, and for the final
    #: result after ``end`` (covers a recovery in between).
    open_timeout_s: float = 60.0
    result_timeout_s: float = 120.0


class _InjectedDrop(Exception):
    """A ``server=connection`` fault: drop this client link abruptly."""


class _SessionState:
    """Front-end bookkeeping for one live session."""

    def __init__(self, hello: Dict[str, Any], config: ServeConfig):
        self.sid: str = hello["session"]
        self.workload: str = hello["workload"]
        self.predictor: str = hello["predictor"]
        families = hello["estimators"] or list(session_families())
        self.families: List[str] = [str(f) for f in families]
        self.iterations = hello.get("iterations")
        self.window = int(hello.get("window") or config.window)
        self.gate_threshold = float(
            hello.get("gate_threshold", config.gate_threshold)
        )
        self.slot_index: int = -1
        #: Client-bound protocol messages, drained by the pump task.
        self.events: asyncio.Queue = asyncio.Queue(
            maxsize=config.session_queue_limit
        )
        self.open_waiter: Optional[asyncio.Future] = None
        self.snapshot: Optional[SessionSnapshot] = None
        #: seq -> worker request, for every batch newer than `snapshot`.
        self.buffer: Dict[int, dict] = {}
        self.last_client_seq = 0
        self.credited_seq = 0
        self.next_window_start = 0
        self.branches = 0
        self.windows = 0
        self.finish_sent = False
        self.completed = False
        self.close_reason: Optional[str] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.cleaned = False

    def prune_buffer(self, applied_seq: int) -> None:
        for seq in [s for s in self.buffer if s <= applied_seq]:
            del self.buffer[seq]

    def replay_tail(self) -> List[dict]:
        horizon = self.snapshot.applied_seq if self.snapshot else 0
        return [
            request
            for seq, request in sorted(self.buffer.items())
            if seq > horizon
        ]


class _WorkerSlot:
    """One supervised worker process occupying a stable ring slot."""

    def __init__(self, index: int, process, conn, restarts: int):
        self.index = index
        self.process = process
        self.conn = conn
        self.restarts = restarts
        self.sessions: Set[str] = set()
        self.ready = asyncio.Event()
        self.alive = True
        self.retired = False
        self.stall_killed = False
        self.awaiting_pong_since: Optional[float] = None

    def send(self, request: dict) -> bool:
        try:
            self.conn.send(request)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False


class _LocalSlot:
    """The degraded-mode in-process worker: same ops, no process.

    Runs the identical :class:`SessionHost` the worker processes run,
    so degradation changes throughput and isolation, never semantics.
    Worker-site faults are *not* evaluated here -- like the serial
    fallback of the battery supervisor, the in-process host is the
    recovery path of last resort and must not be chaos-injected.
    """

    index = -1
    alive = True
    retired = False

    def __init__(self, server: "EstimatorServer"):
        self._server = server
        self.host = SessionHost(snapshot_every=server.config.snapshot_every)
        self.sessions: Set[str] = set()
        self.ready = asyncio.Event()
        self.ready.set()

    def send(self, request: dict) -> bool:
        response = self.host.handle(request)
        if response is not None:
            self._server._process_worker_message(self, response)
        return True


class EstimatorServer:
    """Supervised streaming estimator server (see module docstring)."""

    def __init__(self, config: ServeConfig, journal=None):
        if config.workers < 1:
            raise ValueError("server needs at least one worker")
        self.config = config
        self.journal = coalesce(journal)
        self.sessions: Dict[str, _SessionState] = {}
        self.ring = HashRing(config.workers)
        self.slots: List[Optional[_WorkerSlot]] = [None] * config.workers
        self.local: Optional[_LocalSlot] = None
        self.degraded = False
        self.stopping = False
        self.port: Optional[int] = None
        self.sessions_closed = 0
        self._mp = get_context("spawn")
        self._faults = faults.active_faults()
        self._state_dir: Optional[str] = None
        self._owns_state = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._recovery_tasks: Set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = asyncio.Event()
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._started_at = time.time()
        # share one occurrence ledger across the front-end and every
        # worker (including respawns), exactly like the battery
        # supervisor: respawned workers must not re-fire `times=` specs
        inherited_state = os.environ.get(faults.STATE_ENV)
        self._state_dir = faults.ensure_state_dir()
        self._owns_state = self._state_dir is not None and not inherited_state
        for index in range(self.config.workers):
            self.slots[index] = self._spawn_slot(index, restarts=0)
            self.slots[index].ready.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.journal.emit(
            "server_started", port=self.port, workers=self.config.workers
        )
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        print(
            f"repro-serve: serving on {self.config.host}:{self.port}"
            f" with {self.config.workers} workers",
            flush=True,
        )

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    async def stop(self) -> None:
        if self.stopping:
            return
        self.stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
        for task in list(self._recovery_tasks):
            task.cancel()
        # tell live clients why their stream is ending, then stop
        for state in list(self.sessions.values()):
            self._post(
                state,
                {
                    "type": "error",
                    "code": "server_stopping",
                    "error": "server shutting down",
                },
            )
        # let pumps flush the error frames before the pipes close
        await asyncio.sleep(0)
        for slot in self.slots:
            if slot is None:
                continue
            slot.retired = True
            slot.send({"op": "shutdown"})
            try:
                slot.conn.close()
            except OSError:
                pass
            await asyncio.to_thread(slot.process.join, 2.0)
            if slot.process.is_alive():
                slot.process.kill()
        if self._owns_state and self._state_dir:
            faults.release_state_dir(self._state_dir)
        self.journal.emit(
            "server_stopped",
            sessions=self.sessions_closed,
            duration_s=time.time() - self._started_at,
        )
        self._stopped.set()

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------

    def _spawn_slot(self, index: int, restarts: int) -> _WorkerSlot:
        cache = get_cache()
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(
                child_conn,
                index,
                str(cache.root),
                cache.enabled,
                self.config.snapshot_every,
            ),
            daemon=True,
            name=f"repro-serve-worker-{index}",
        )
        process.start()
        child_conn.close()
        slot = _WorkerSlot(index, process, parent_conn, restarts)
        thread = threading.Thread(
            target=self._reader,
            args=(slot, self._loop),
            daemon=True,
            name=f"repro-serve-reader-{index}",
        )
        thread.start()
        return slot

    def _reader(self, slot: _WorkerSlot, loop) -> None:
        """Pump one worker's pipe into the event loop (thread)."""
        while True:
            try:
                message = slot.conn.recv()
            except (EOFError, OSError):
                break
            loop.call_soon_threadsafe(
                self._process_worker_message, slot, message
            )
        loop.call_soon_threadsafe(self._on_worker_death, slot)

    def _slot_for(self, session_id: str):
        if self.degraded:
            return self.local
        return self.slots[self.ring.lookup(session_id)]

    def _process_worker_message(self, slot, message: dict) -> None:
        op = message.get("op")
        if op == "pong":
            slot.awaiting_pong_since = None
            return
        state = self.sessions.get(message.get("session", ""))
        if state is None or state.cleaned:
            return
        if op == "applied":
            snapshot = message.get("snapshot")
            if snapshot is not None:
                state.snapshot = snapshot
                state.prune_buffer(snapshot.applied_seq)
            state.branches = message["branches"]
            # replays re-emit windows the client already saw; dedupe by
            # start index so the client stream stays gap- and dup-free
            fresh = [
                w
                for w in message["windows"]
                if w["start"] >= state.next_window_start
            ]
            for window in fresh:
                state.next_window_start = window["start"] + window["branches"]
            state.windows += len(fresh)
            events = list(fresh)
            seq = message["seq"]
            if seq > state.credited_seq:
                state.credited_seq = seq
                events.append({"type": "credit", "seq": seq, "grant": 1})
            if events:
                self._post(state, *events)
        elif op == "opened":
            if state.open_waiter is not None and not state.open_waiter.done():
                state.open_waiter.set_result(message)
        elif op == "finished":
            self._post(state, message["result"])
        elif op == "error":
            if state.open_waiter is not None and not state.open_waiter.done():
                state.open_waiter.set_result(message)
            else:
                state.close_reason = message.get("code", "session_lost")
                self._post(
                    state,
                    {
                        "type": "error",
                        "code": message.get("code", "session_lost"),
                        "error": message.get("error", "worker error"),
                    },
                )
        # "dropped" and unknown ops need no front-end action

    def _on_worker_death(self, slot: _WorkerSlot) -> None:
        if slot.retired or self.slots[slot.index] is not slot:
            return
        slot.retired = True
        slot.alive = False
        slot.ready.clear()
        # fail fast the opens/restores this worker will never ack; the
        # waiters see a retry marker instead of timing out
        for state in self.sessions.values():
            if (
                state.open_waiter is not None
                and not state.open_waiter.done()
                and self.ring.lookup(state.sid) == slot.index
            ):
                state.open_waiter.set_result({"op": "__retry__"})
        if self.stopping or self.degraded:
            return
        # classify through the PR 4 taxonomy: a stalled heartbeat is a
        # timeout, a broken pipe is a crash
        if slot.stall_killed:
            error: BaseException = FutureTimeoutError()
            reason = "heartbeat deadline missed"
        else:
            error = BrokenExecutor("worker pipe closed")
            reason = "worker process died"
        classification = classify_failure(error)
        restarts = slot.restarts + 1
        self.journal.emit(
            "server_worker_restarted",
            worker=slot.index,
            reason=reason,
            classification=classification,
            restarts=restarts,
        )
        REGISTRY.count("server.worker_restarts")
        REGISTRY.record("server.worker_failures", classification)
        task = asyncio.ensure_future(self._recover_slot(slot, restarts))
        self._recovery_tasks.add(task)
        task.add_done_callback(self._recovery_tasks.discard)

    async def _recover_slot(self, old: _WorkerSlot, restarts: int) -> None:
        try:
            old.process.kill()
        except (OSError, ValueError):
            pass
        try:
            old.conn.close()
        except OSError:
            pass
        if restarts > self.config.max_restarts:
            await self._degrade(
                f"worker {old.index} exceeded {self.config.max_restarts}"
                f" restarts"
            )
            return
        # deterministic, jitter-free backoff, like the battery
        await asyncio.sleep(
            self.config.restart_backoff_s * (2 ** (restarts - 1))
        )
        if self.stopping or self.degraded:
            return
        replacement = self._spawn_slot(old.index, restarts)
        self.slots[old.index] = replacement
        for sid in sorted(old.sessions):
            state = self.sessions.get(sid)
            if state is None or state.cleaned:
                continue
            await self._restore_session(replacement, state)
        replacement.ready.set()

    async def _degrade(self, reason: str) -> None:
        if self.degraded or self.stopping:
            return
        self.degraded = True
        self.journal.emit("server_degraded", reason=reason)
        REGISTRY.count("server.degraded")
        self.local = _LocalSlot(self)
        orphaned: List[str] = []
        for slot in self.slots:
            if slot is None:
                continue
            orphaned.extend(sorted(slot.sessions))
            slot.retired = True
            try:
                slot.process.kill()
            except (OSError, ValueError):
                pass
            try:
                slot.conn.close()
            except OSError:
                pass
        for sid in orphaned:
            state = self.sessions.get(sid)
            if state is None or state.cleaned:
                continue
            await self._restore_session(self.local, state)

    async def _restore_session(self, slot, state: _SessionState) -> bool:
        """Restore one session onto ``slot`` and replay its tail."""
        if state.snapshot is None:
            self._lose_session(state, "no snapshot to restore from")
            return False
        state.open_waiter = self._loop.create_future()
        if not slot.send({"op": "restore", "snapshot": state.snapshot}):
            self._lose_session(state, "replacement worker unavailable")
            return False
        try:
            opened = await asyncio.wait_for(
                state.open_waiter, self.config.open_timeout_s
            )
        except asyncio.TimeoutError:
            self._lose_session(state, "restore ack timed out")
            return False
        finally:
            state.open_waiter = None
        if opened.get("op") == "__retry__":
            # the replacement died too before acking; hand the session
            # to the *next* recovery wave instead of declaring it lost
            slot.sessions.add(state.sid)
            return False
        if opened.get("op") == "error":
            self._lose_session(state, opened.get("error", "restore failed"))
            return False
        replay = state.replay_tail()
        for request in replay:
            slot.send(request)
        if state.finish_sent:
            slot.send({"op": "finish", "session": state.sid})
        slot.sessions.add(state.sid)
        state.slot_index = slot.index
        self._post(state, {"type": "recovered", "replayed": len(replay)})
        self.journal.emit(
            "session_recovered",
            session=state.sid,
            worker=slot.index,
            replayed=len(replay),
        )
        REGISTRY.count("server.sessions_recovered")
        return True

    def _lose_session(self, state: _SessionState, detail: str) -> None:
        state.close_reason = "session_lost"
        self._post(
            state,
            {"type": "error", "code": "session_lost", "error": detail},
        )

    async def _heartbeat_loop(self) -> None:
        while not self.stopping:
            await asyncio.sleep(self.config.heartbeat_s)
            now = time.monotonic()
            for slot in self.slots:
                if (
                    slot is None
                    or slot.retired
                    or not slot.alive
                    or not slot.ready.is_set()
                ):
                    continue
                since = slot.awaiting_pong_since
                if since is not None:
                    if now - since > self.config.heartbeat_timeout_s:
                        # the pipe is FIFO: an unanswered ping means
                        # every op behind it is stuck too -- kill and
                        # let the reader thread report the death
                        slot.stall_killed = True
                        REGISTRY.count("server.worker_stalls")
                        try:
                            slot.process.kill()
                        except (OSError, ValueError):
                            pass
                    continue  # one outstanding ping at a time
                slot.awaiting_pong_since = now
                slot.send({"op": "ping"})

    # ------------------------------------------------------------------
    # client connections
    # ------------------------------------------------------------------

    def _post(self, state: _SessionState, *messages: Dict[str, Any]) -> None:
        """Queue client-bound frames; overflow sheds the slow client."""
        for message in messages:
            try:
                state.events.put_nowait(message)
            except asyncio.QueueFull:
                self._shed(state, "slow_client")
                return

    def _shed(self, state: _SessionState, reason: str) -> None:
        if state.cleaned or state.close_reason is not None:
            return
        state.close_reason = reason
        REGISTRY.count("server.sessions_shed")
        if state.writer is not None:
            try:
                state.writer.transport.abort()
            except (OSError, RuntimeError):
                pass

    async def _read_client_frame(
        self, reader: asyncio.StreamReader, timeout: Optional[float]
    ) -> Optional[Dict[str, Any]]:
        payload = await asyncio.wait_for(read_frame_payload(reader), timeout)
        if payload is None:
            return None
        # connection fault: abrupt link drop (the sleep of a slow spec
        # runs off-loop so a stalled "network" stalls only this client)
        try:
            await asyncio.to_thread(self._faults.on_server, "connection")
        except InjectedCrash:
            raise _InjectedDrop()
        # frame fault: garble the payload so decoding fails loudly
        payload = self._faults.corrupt_server_frame("frame", payload)
        return decode_payload(payload)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_connection(reader, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def refuse(code: str, detail: str) -> None:
            try:
                await send_message(
                    writer, {"type": "error", "code": code, "error": detail}
                )
            except (OSError, ConnectionError):
                pass

        if self.stopping:
            await refuse("server_stopping", "server shutting down")
            return
        try:
            hello = await self._read_client_frame(
                reader, self.config.hello_timeout_s
            )
        except (ProtocolError, asyncio.TimeoutError) as error:
            await refuse("bad_frame", f"bad hello: {error}")
            return
        except (_InjectedDrop, ConnectionError, OSError):
            return
        if hello is None:
            return
        if hello["type"] != "hello":
            await refuse("bad_message", "first frame must be hello")
            return
        sid = hello["session"]
        if sid in self.sessions:
            await refuse("bad_config", f"session {sid!r} already active")
            return
        state = _SessionState(hello, self.config)
        state.writer = writer
        self.sessions[sid] = state
        try:
            opened = await self._open_session(state)
            if opened.get("op") == "error":
                state.close_reason = opened.get("code", "bad_config")
                await refuse(
                    opened.get("code", "bad_config"),
                    opened.get("error", "open failed"),
                )
                return
            await send_message(
                writer,
                {
                    "type": "welcome",
                    "session": sid,
                    "credits": self.config.credits,
                    "window": state.window,
                    "families": list(state.families),
                },
            )
            self.journal.emit(
                "session_opened", session=sid, worker=state.slot_index
            )
            REGISTRY.count("server.sessions_opened")
            pump = asyncio.create_task(self._pump(state, writer))
            try:
                await self._read_loop(state, reader)
                if not state.finish_sent:
                    # no result is coming; let the pump flush whatever
                    # is queued (usually an error frame), then exit
                    try:
                        state.events.put_nowait(None)
                    except asyncio.QueueFull:
                        pump.cancel()
                await asyncio.wait_for(pump, self.config.result_timeout_s)
            except asyncio.TimeoutError:
                state.close_reason = state.close_reason or "session_lost"
            except (OSError, ConnectionError):
                pass
            finally:
                if not pump.done():
                    pump.cancel()
        finally:
            self._cleanup_session(state)

    async def _open_session(self, state: _SessionState) -> dict:
        request = {
            "op": "open",
            "session": state.sid,
            "workload": state.workload,
            "predictor": state.predictor,
            "families": state.families,
            "iterations": state.iterations,
            "window": state.window,
            "gate_threshold": state.gate_threshold,
        }
        for __ in range(3):
            state.open_waiter = self._loop.create_future()
            try:
                slot = await self._await_slot(state.sid)
                if slot is None or not slot.send(request):
                    continue
                try:
                    opened = await asyncio.wait_for(
                        state.open_waiter, self.config.open_timeout_s
                    )
                except asyncio.TimeoutError:
                    return {
                        "op": "error",
                        "code": "session_lost",
                        "error": "open ack timed out",
                    }
            finally:
                state.open_waiter = None
            if opened.get("op") == "__retry__":
                continue  # the worker died before acking; re-place
            if opened.get("op") == "opened":
                state.snapshot = opened.get("snapshot")
                slot = self._slot_for(state.sid)
                slot.sessions.add(state.sid)
                state.slot_index = slot.index
            return opened
        return {
            "op": "error",
            "code": "session_lost",
            "error": "no worker available for session",
        }

    async def _read_loop(
        self, state: _SessionState, reader: asyncio.StreamReader
    ) -> None:
        """Consume client frames until end / EOF / error / fault."""
        while True:
            try:
                message = await self._read_client_frame(
                    reader, self.config.idle_timeout_s
                )
            except asyncio.TimeoutError:
                self._post_error(
                    state, "idle_timeout", "no frame within session deadline"
                )
                return
            except _InjectedDrop:
                self._shed(state, "connection_fault")
                return
            except ProtocolError as error:
                self._post_error(state, "bad_frame", str(error))
                return
            except (ConnectionError, OSError):
                state.close_reason = state.close_reason or "disconnect"
                return
            if message is None:  # EOF without end: client vanished
                if not state.finish_sent:
                    state.close_reason = state.close_reason or "disconnect"
                return
            kind = message["type"]
            if kind == "ping":
                self._post(state, {"type": "pong"})
                continue
            if kind == "end":
                state.finish_sent = True
                await self._forward(
                    state, {"op": "finish", "session": state.sid}
                )
                return  # the pump delivers the result frame
            if kind != "branches":
                self._post_error(
                    state, "bad_message", f"unexpected {kind!r} mid-stream"
                )
                return
            seq = message["seq"]
            if seq != state.last_client_seq + 1:
                self._post_error(
                    state,
                    "out_of_order",
                    f"batch seq {seq} (expected {state.last_client_seq + 1})",
                )
                return
            if seq - state.credited_seq > self.config.credits:
                self._post_error(
                    state,
                    "credit_violation",
                    f"batch seq {seq} exceeds credit grant"
                    f" (credited through {state.credited_seq})",
                )
                return
            state.last_client_seq = seq
            request = {
                "op": "branches",
                "session": state.sid,
                "seq": seq,
                "pcs": message["pcs"],
                "taken": message["taken"],
            }
            state.buffer[seq] = request
            REGISTRY.count("server.batches")
            REGISTRY.count("server.branches", len(message["pcs"]))
            await self._forward(state, request)

    async def _await_slot(self, session_id: str):
        """The session's slot, once usable; None if the server stops.

        Re-resolves every tick rather than waiting on one slot object's
        event: a dead slot is *replaced* by a new object during
        recovery (or by the local host on degradation), so waiting on
        the retired slot's ``ready`` would block forever.
        """
        deadline = time.monotonic() + self.config.open_timeout_s
        while not self.stopping and time.monotonic() < deadline:
            slot = self._slot_for(session_id)
            if slot is not None and not slot.retired and slot.ready.is_set():
                return slot
            await asyncio.sleep(0.02)
        return None

    async def _forward(self, state: _SessionState, request: dict) -> None:
        """Send to the session's current worker once its slot is ready.

        A send that races a worker death is simply lost here: the batch
        already sits in ``state.buffer``, so recovery replays it (the
        worker-side ``applied_seq`` dedupe makes double delivery safe).
        """
        slot = await self._await_slot(state.sid)
        if slot is not None:
            slot.send(request)

    def _post_error(
        self, state: _SessionState, code: str, detail: str
    ) -> None:
        state.close_reason = state.close_reason or code
        self._post(
            state, {"type": "error", "code": code, "error": detail}
        )
        # the worker should not keep serving a dead stream
        slot = self._slot_for(state.sid)
        if slot is not None and slot.alive:
            slot.send({"op": "drop", "session": state.sid})

    async def _pump(
        self, state: _SessionState, writer: asyncio.StreamWriter
    ) -> None:
        """Drain session events to the client; ends on result/error."""
        while True:
            message = await state.events.get()
            if message is None:  # handler sentinel: no result is coming
                return
            try:
                await send_message(writer, message)
            except (OSError, ConnectionError):
                state.close_reason = state.close_reason or "disconnect"
                return
            if message["type"] == "result":
                state.completed = True
                return
            if message["type"] == "error":
                return

    def _cleanup_session(self, state: _SessionState) -> None:
        if state.cleaned:
            return
        state.cleaned = True
        self.sessions.pop(state.sid, None)
        for slot in self.slots + [self.local]:
            if slot is not None:
                slot.sessions.discard(state.sid)
        if state.completed:
            self.sessions_closed += 1
            REGISTRY.count("server.sessions_closed")
            self.journal.emit(
                "session_closed",
                session=state.sid,
                branches=state.branches,
                windows=state.windows,
            )
        else:
            self.journal.emit(
                "session_shed",
                session=state.sid,
                reason=state.close_reason or "disconnect",
            )


async def run_server(config: ServeConfig, journal=None) -> EstimatorServer:
    """Start a server, serve until SIGINT/SIGTERM, stop gracefully."""
    server = EstimatorServer(config, journal)
    await server.start()
    loop = asyncio.get_running_loop()

    def _request_stop() -> None:
        asyncio.ensure_future(server.stop())

    handled = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _request_stop)
            handled.append(signum)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        await server.serve_forever()
    finally:
        for signum in handled:
            loop.remove_signal_handler(signum)
        await server.stop()
    return server
