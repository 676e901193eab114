"""Persistent worker pool over pipes + shared-memory state.

One pool outlives many batches: workers are forked once, handlers are
resolved once per worker, and big read-only state travels through the
:mod:`repro.parallel.shm` registry instead of per-batch pickling.

Protocol (all frames are ``pickle`` bytes over a duplex pipe):

* parent -> worker: ``(seq, handler, payload)`` where ``handler`` is a
  ``"module:function"`` import string resolved (and cached) worker-side.
* worker -> parent: ``(seq, status, value, stats)`` with ``status`` of
  ``"ok"`` or ``"error"`` (the handler raised; ``value`` is the message),
  and ``stats`` the worker's drained attach counters.

Crash containment: a worker that dies mid-task (SIGKILL, segfault,
``os._exit``) surfaces as EOF on its pipe; a reply that fails to
unpickle or exceeds ``max_reply_bytes`` is treated the same way. In
every case the worker is killed and respawned (``pool.respawns``), and
the task is retried up to ``retries`` extra times before its
:class:`TaskResult` reports the failure. The sequence number guards
against a stale reply from a worker that was about to be killed.

Counters (also mirrored into the tracer when one is supplied):
``pool.dispatches``, ``pool.respawns``, ``pool.attaches``,
``pool.attach_reuse``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.parallel.shm import AttachmentCache

#: Replies larger than this are treated as poisoned (worker respawned).
DEFAULT_MAX_REPLY_BYTES = 64 * 1024 * 1024


class PoolError(ReproError):
    """A pool task failed past its retry budget (raising callers only)."""


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
        #: Shared-memory attachments (cached across batches).
        self.attachments = AttachmentCache()
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


def _worker_main(conn, context_payload) -> None:
    """Worker loop: run handlers until the parent sends ``None``."""
    # The parent owns this process's lifecycle through the pipe (a
    # ``None`` sentinel) and SIGKILL. Group-delivered SIGTERM/SIGINT —
    # systemd's control-group kill, a terminal Ctrl-C — must not take
    # workers down mid-drain while the parent is still checkpointing.
    for _sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(_sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    ctx = WorkerContext(context_payload)
    handlers: Dict[str, Callable] = {}
    try:
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
                reply = (seq, "ok", value, ctx.attachments.take_stats())
            except BaseException as exc:  # noqa: BLE001 - report, stay alive
                reply = (
                    seq,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    ctx.attachments.take_stats(),
                )
            try:
                frame = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # unpicklable handler return
                frame = pickle.dumps(
                    (
                        reply[0],
                        "error",
                        f"unpicklable reply: {type(exc).__name__}: {exc}",
                        ctx.attachments.take_stats(),
                    ),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            try:
                conn.send_bytes(frame)
            except (OSError, BrokenPipeError):
                return
    finally:
        ctx.attachments.close()


class _Worker:
    """One pool process plus its parent-side pipe, task slot, deadline."""

    __slots__ = ("conn", "proc", "seq", "task", "deadline", "started")

    def __init__(self, ctx, context_payload) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn, context_payload), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.seq: Optional[int] = None
        self.task = None  # (index, handler, payload, attempt)
        self.deadline: Optional[float] = None
        self.started: float = 0.0

    @property
    def idle(self) -> bool:
        return self.task is None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

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


#: Public alias for builders of custom dispatch loops (the service
#: fleet owns one persistent worker per shard and drives it directly —
#: same fork/pipe/kill containment, different scheduling policy).
PoolWorker = _Worker


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
        self._pool: List[_Worker] = []
        self._seq = 0
        self._closed = False
        #: Lifetime counters (also mirrored into the tracer).
        self.counters: Dict[str, int] = {
            "pool.dispatches": 0,
            "pool.respawns": 0,
            "pool.attaches": 0,
            "pool.attach_reuse": 0,
        }

    # -- lifecycle ------------------------------------------------------ #

    def _count(self, name: str, value: int = 1) -> None:
        if not value:
            return
        self.counters[name] = self.counters.get(name, 0) + value
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.count(name, value)

    def _spawn(self) -> _Worker:
        return _Worker(self._ctx, self._context_payload)

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
        *recorded*, never raised — callers that want exceptions use
        :meth:`map`. ``on_result`` streams results in completion order.
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

        def assign(worker: _Worker, task) -> None:
            nonlocal in_flight
            self._seq += 1
            worker.seq = self._seq
            worker.task = task
            worker.started = time.perf_counter()
            worker.deadline = (
                time.monotonic() + timeout_s if timeout_s is not None else None
            )
            frame = pickle.dumps(
                (worker.seq, task[1], task[2]),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            worker.conn.send_bytes(frame)
            self._count("pool.dispatches")
            in_flight += 1

        def settle(worker: _Worker, status: str, value, error) -> None:
            """Release the worker's slot; retry or record its task."""
            nonlocal in_flight
            index, _handler, _payload, attempt = worker.task
            elapsed = time.perf_counter() - worker.started
            worker.task, worker.deadline, worker.seq = None, None, None
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

        def respawn(worker: _Worker) -> None:
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
                    reply = None
                    try:
                        frame = worker.conn.recv_bytes(self.max_reply_bytes)
                        reply = pickle.loads(frame)
                        seq, status, value, stats = reply
                    except Exception:
                        # Dead worker, oversized frame, or a reply that
                        # does not unpickle into the protocol tuple (a
                        # poisoned reply may raise anything at load
                        # time): the worker's state is suspect either
                        # way.
                        settle(
                            worker, "crashed",
                            None, "worker process died or replied garbage",
                        )
                        respawn(worker)
                        continue
                    if seq != worker.seq:
                        # Stale reply from before a respawn cycle.
                        continue
                    if isinstance(stats, dict):
                        self._count("pool.attaches", int(stats.get("attaches", 0)))
                        self._count(
                            "pool.attach_reuse", int(stats.get("attach_reuse", 0))
                        )
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

    def map(
        self,
        handler: str,
        payloads: List[Any],
        timeout_s: Optional[float] = None,
        retries: int = 1,
    ) -> List[Any]:
        """Run one handler over many payloads; raise on any failure.

        The strict front end: a task that still fails after retries
        raises :class:`PoolError`, and the caller decides how to recover.
        """
        results = self.run_tasks(
            [(handler, p) for p in payloads],
            timeout_s=timeout_s,
            retries=retries,
        )
        values = []
        for i, result in enumerate(results):
            if not result.ok:
                raise PoolError(
                    f"pool task {i} {result.status} after "
                    f"{result.attempts} attempt(s): {result.error}"
                )
            values.append(result.value)
        return values
