"""Persistent worker pool over pipes.

One pool outlives many batches: workers are forked once and handlers
are resolved once per worker. Under the Linux ``fork`` start method a
worker inherits everything the parent built before the fork, so task
payloads carry only what changed.

Protocol (all frames are ``pickle`` bytes over a duplex pipe, encoded
and decoded by :meth:`PoolWorker.send` and :meth:`PoolWorker.recv`):

* parent -> worker: ``(seq, handler, payload)`` where ``handler`` is a
  ``"module:function"`` import string resolved (and cached) worker-side.
* worker -> parent: ``(seq, status, value)`` with ``status`` of
  ``"ok"`` or ``"error"`` (the handler raised; ``value`` is the message).

Crash containment: a worker that dies mid-task (SIGKILL, segfault,
``os._exit``) surfaces as EOF on its pipe; a reply that fails to
unpickle, exceeds ``max_reply_bytes`` or carries a sequence number
other than the last frame's is treated the same way. In every case the
worker is killed and respawned (``pool.respawns``), and the task is
retried up to ``retries`` extra times before its :class:`TaskResult`
reports the failure.

Counters (also mirrored into the tracer when one is supplied):
``pool.dispatches``, ``pool.respawns``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Replies larger than this are treated as poisoned (worker respawned).
DEFAULT_MAX_REPLY_BYTES = 64 * 1024 * 1024


@dataclass
class TaskResult:
    """Outcome of one task after retries.

    ``status`` is ``"ok"`` (``value`` holds the handler's return),
    ``"error"`` (the handler raised deterministically), ``"crashed"``
    (the worker process died or replied garbage), or ``"timeout"``.
    """

    status: str
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class WorkerContext:
    """Per-worker state handed to every handler invocation."""

    def __init__(self, payload: Any) -> None:
        #: The pool's ``context`` argument, as seen after the fork.
        self.context = payload
        #: Free-form handler scratch space (graphs, caches, solvers...).
        self.scratch: Dict[str, Any] = {}


def _resolve_handler(spec: str, cache: Dict[str, Callable]) -> Callable:
    fn = cache.get(spec)
    if fn is None:
        module, _, name = spec.partition(":")
        if not module or not name:
            raise ConfigurationError(f"bad handler spec {spec!r}")
        fn = getattr(import_module(module), name)
        cache[spec] = fn
    return fn


def _worker_main(conn, parent_conn, context_payload) -> None:
    """Worker loop: run handlers until the parent sends ``None``."""
    # The fork copied the parent's end of this pipe too; close it so the
    # parent's death reads as EOF here.
    parent_conn.close()
    # The parent owns this process's lifecycle through the pipe (a
    # ``None`` sentinel, or EOF when the parent dies) and SIGKILL.
    # Group-delivered SIGTERM/SIGINT — systemd's control-group kill, a
    # terminal Ctrl-C — must not take workers down mid-drain while the
    # parent is still checkpointing.
    for _sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(_sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    ctx = WorkerContext(context_payload)
    handlers: Dict[str, Callable] = {}
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if frame == b"":
            return
        message = pickle.loads(frame)
        if message is None:
            return
        seq, handler_spec, payload = message
        try:
            value = _resolve_handler(handler_spec, handlers)(payload, ctx)
            reply = (seq, "ok", value)
        except BaseException as exc:  # noqa: BLE001 - report, stay alive
            reply = (seq, "error", f"{type(exc).__name__}: {exc}")
        try:
            frame = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # unpicklable handler return
            frame = pickle.dumps(
                (seq, "error", f"unpicklable reply: {type(exc).__name__}: {exc}"),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        try:
            conn.send_bytes(frame)
        except (OSError, BrokenPipeError):
            return


class PoolWorker:
    """One pool process plus its parent-side pipe, task slot, deadline.

    :class:`WorkerPool` drives a list of these; the planning service
    owns one per forked shard and drives it directly — same
    fork/pipe/kill containment, different scheduling policy.
    """

    __slots__ = ("conn", "proc", "seq", "task", "deadline", "started")

    def __init__(self, ctx, context_payload) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.conn, context_payload),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.seq = 0  # sequence number of the last frame sent
        self.task = None  # (index, handler, payload, attempt)
        self.deadline: Optional[float] = None
        self.started: float = 0.0

    @property
    def idle(self) -> bool:
        return self.task is None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def send(self, handler: str, payload: Any) -> None:
        """Ship one ``(seq, handler, payload)`` frame to the worker."""
        self.seq += 1
        self.conn.send_bytes(
            pickle.dumps((self.seq, handler, payload), protocol=pickle.HIGHEST_PROTOCOL)
        )

    def recv(self, max_bytes: int = DEFAULT_MAX_REPLY_BYTES) -> Tuple[str, Any]:
        """Read the reply to the last :meth:`send`: ``(status, value)``.

        Raises when the pipe is dead, the frame exceeds ``max_bytes``,
        or the reply does not unpickle into the protocol tuple (a
        poisoned reply may raise anything at load time) answering that
        send: the worker's state is suspect and the caller respawns it.
        """
        seq, status, value = pickle.loads(self.conn.recv_bytes(max_bytes))
        if seq != self.seq:
            raise ValueError(f"reply to frame {seq}, expected {self.seq}")
        return status, value

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            # SIGKILL, not SIGTERM: workers ignore SIGTERM so that
            # group-delivered shutdown signals can't race the parent's
            # drain, which makes terminate() a no-op here.
            self.proc.kill()
        self.proc.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send_bytes(pickle.dumps(None))
            self.conn.close()
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.kill()
            self.proc.join(timeout=5.0)


class WorkerPool:
    """A persistent pool of forked workers executing named handlers.

    Created lazily: processes fork on the first :meth:`run_tasks` call,
    so parent-side state built before that (baseline plans, monkey-
    patches, the graph CSR) is inherited for free under the Linux
    ``fork`` start method.
    """

    def __init__(
        self,
        workers: int,
        context: Any = None,
        tracer=None,
        max_reply_bytes: int = DEFAULT_MAX_REPLY_BYTES,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("pool workers must be >= 1")
        self.workers = workers
        self.tracer = tracer
        self.max_reply_bytes = max_reply_bytes
        self._context_payload = context
        self._ctx = multiprocessing.get_context("fork")
        self._pool: List[PoolWorker] = []
        self._closed = False
        #: Lifetime counters (also mirrored into the tracer).
        self.counters: Dict[str, int] = {
            "pool.dispatches": 0,
            "pool.respawns": 0,
        }

    # -- lifecycle ------------------------------------------------------ #

    def _count(self, name: str, value: int = 1) -> None:
        if not value:
            return
        self.counters[name] = self.counters.get(name, 0) + value
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.count(name, value)

    def _spawn(self) -> PoolWorker:
        return PoolWorker(self._ctx, self._context_payload)

    def _ensure_started(self, needed: int) -> None:
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        while len(self._pool) < min(self.workers, max(1, needed)):
            self._pool.append(self._spawn())

    def close(self) -> None:
        """Shut every worker down; the pool cannot be reused after."""
        self._closed = True
        for worker in self._pool:
            worker.shutdown()
        del self._pool[:]

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass

    # -- execution ------------------------------------------------------ #

    def run_tasks(
        self,
        tasks: List[Tuple[str, Any]],
        timeout_s: Optional[float] = None,
        retries: int = 1,
        on_result: Optional[Callable[[int, TaskResult], None]] = None,
        on_retry: Optional[Callable[[int], None]] = None,
    ) -> List[TaskResult]:
        """Run ``(handler, payload)`` tasks; results are in task order.

        Tasks are dispatched in submission order to idle workers. A
        crashed/timed-out/raising task is retried ``retries`` extra
        times (``on_retry`` fires per retry); the final failure is
        *recorded* in its :class:`TaskResult`, never raised.
        ``on_result`` streams results in completion order.
        """
        if not tasks:
            return []
        self._ensure_started(len(tasks))
        from multiprocessing.connection import wait as conn_wait

        results: List[Optional[TaskResult]] = [None] * len(tasks)
        queue: List[Tuple[int, str, Any, int]] = [
            (i, handler, payload, 1)
            for i, (handler, payload) in enumerate(tasks)
        ]
        queue.reverse()  # pop() consumes in submission order
        in_flight = 0

        def finish(index: int, result: TaskResult) -> None:
            results[index] = result
            if on_result is not None:
                on_result(index, result)

        def assign(worker: PoolWorker, task) -> None:
            nonlocal in_flight
            worker.task = task
            worker.started = time.perf_counter()
            worker.deadline = (
                time.monotonic() + timeout_s if timeout_s is not None else None
            )
            worker.send(task[1], task[2])
            self._count("pool.dispatches")
            in_flight += 1

        def settle(worker: PoolWorker, status: str, value, error) -> None:
            """Release the worker's slot; retry or record its task."""
            nonlocal in_flight
            index, _handler, _payload, attempt = worker.task
            elapsed = time.perf_counter() - worker.started
            worker.task, worker.deadline = None, None
            in_flight -= 1
            if status == "ok":
                finish(
                    index,
                    TaskResult("ok", value=value, seconds=elapsed, attempts=attempt),
                )
                return
            if attempt <= retries:
                if on_retry is not None:
                    on_retry(index)
                queue.append((index, _handler, _payload, attempt + 1))
                return
            finish(
                index,
                TaskResult(status, error=error, seconds=elapsed, attempts=attempt),
            )

        def respawn(worker: PoolWorker) -> None:
            worker.kill()
            self._pool[self._pool.index(worker)] = self._spawn()
            self._count("pool.respawns")

        while queue or in_flight:
            for worker in self._pool:
                if queue and worker.idle:
                    assign(worker, queue.pop())
            busy = [w for w in self._pool if not w.idle]
            ready = conn_wait([w.conn for w in busy], timeout=0.05)
            now = time.monotonic()
            for worker in busy:
                if worker.conn in ready:
                    try:
                        status, value = worker.recv(self.max_reply_bytes)
                    except Exception:
                        settle(
                            worker, "crashed",
                            None, "worker process died or replied garbage",
                        )
                        respawn(worker)
                        continue
                    if status == "ok":
                        settle(worker, "ok", value, None)
                    else:
                        settle(worker, "error", None, str(value))
                elif worker.expired(now):
                    settle(
                        worker, "timeout", None,
                        f"task exceeded {timeout_s}s",
                    )
                    respawn(worker)
                elif not worker.proc.is_alive():
                    settle(
                        worker, "crashed", None,
                        "worker process died or replied garbage",
                    )
                    respawn(worker)
        return [r for r in results if r is not None]
