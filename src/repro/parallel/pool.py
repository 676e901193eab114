"""One attempt primitive for every worker: ``call``.

Two kinds of worker run named handlers, and both offer the same
blocking method, ``call(handler, payload, deadline) -> (status,
value)``:

* :class:`InlineWorker` runs the handler in the caller's thread. The
  handler stops itself at the deadline (the engine's ``abort_check``);
  an exception it raises becomes ``"error"``.
* :class:`PoolWorker` is one forked process. Under the Linux ``fork``
  start method it inherits everything the parent built before the fork,
  so payloads carry only what changed.

``status`` is ``"ok"`` (``value`` is the handler's return), ``"error"``
(the handler raised; ``value`` is the message), ``"crashed"`` or
``"timeout"`` (``value`` says what happened). Only a forked worker
reports the last two, and it has killed and re-forked its process
before it returns them. Retry policy belongs to the caller.

Protocol (all frames are ``pickle`` bytes over a duplex pipe, encoded
and decoded by :meth:`PoolWorker.send` and :meth:`PoolWorker.recv`):

* parent -> worker: ``(seq, handler, payload)`` where ``handler`` is a
  ``"module:function"`` import string resolved (and cached) worker-side.
* worker -> parent: ``(seq, status, value)`` with ``status`` of
  ``"ok"`` or ``"error"``.

Crash containment: a worker that dies mid-task (SIGKILL, segfault,
``os._exit``) surfaces as EOF on its pipe; a reply that fails to
unpickle, exceeds ``max_reply_bytes`` or carries a sequence number
other than the last frame's is treated the same way (``"crashed"``),
and so is a deadline overrun (``"timeout"``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
from importlib import import_module
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Replies larger than this are treated as poisoned (worker respawned).
DEFAULT_MAX_REPLY_BYTES = 64 * 1024 * 1024

#: Seconds a forked worker's ``call`` waits on the pipe between polls.
POLL_INTERVAL = 0.05


class WorkerContext:
    """Per-worker state handed to every handler invocation."""

    def __init__(self, payload: Any) -> None:
        #: The worker's ``context`` argument (inherited at fork).
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


class InlineWorker:
    """Runs handlers in the caller's thread, with the same ``call``."""

    def __init__(self, context: Any = None) -> None:
        self._ctx = WorkerContext(context)
        self._handlers: Dict[str, Callable] = {}

    def call(
        self, handler: str, payload: Any, deadline: Optional[float] = None
    ) -> Tuple[str, Any]:
        """Run one handler: ``("ok", value)`` or ``("error", message)``.

        ``deadline`` is accepted for symmetry with
        :meth:`PoolWorker.call`: nothing else runs while the handler
        does, so the handler itself watches the deadline.
        """
        try:
            return "ok", _resolve_handler(handler, self._handlers)(payload, self._ctx)
        except Exception as exc:  # noqa: BLE001 - a failed attempt
            return "error", f"{type(exc).__name__}: {exc}"

    def shutdown(self) -> None:
        """Nothing to release; here so callers treat both kinds alike."""


class PoolWorker:
    """One forked worker process and the parent's end of its pipe."""

    __slots__ = ("context", "max_reply_bytes", "conn", "proc", "seq")

    def __init__(
        self,
        context: Any = None,
        max_reply_bytes: int = DEFAULT_MAX_REPLY_BYTES,
    ) -> None:
        self.context = context
        self.max_reply_bytes = max_reply_bytes
        self._fork()

    def _fork(self) -> None:
        mp = multiprocessing.get_context("fork")
        self.conn, child_conn = mp.Pipe(duplex=True)
        self.proc = mp.Process(
            target=_worker_main,
            args=(child_conn, self.conn, self.context),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.seq = 0  # sequence number of the last frame sent

    def call(
        self, handler: str, payload: Any, deadline: Optional[float] = None
    ) -> Tuple[str, Any]:
        """Send one frame and wait for its reply: ``(status, value)``.

        ``deadline`` is a :func:`time.monotonic` instant (``None``: no
        limit), checked between waits of :data:`POLL_INTERVAL` seconds.
        On EOF, a dead process, an overrun deadline, or a reply
        that is garbled, oversized or out of sequence, the process is
        killed and re-forked before ``"crashed"`` or ``"timeout"``
        returns. A worker that was shut down raises
        :class:`~repro.errors.ConfigurationError` instead of re-forking.
        """
        if self.conn.closed:
            raise ConfigurationError("worker is shut down")
        try:
            self.send(handler, payload)
        except (OSError, ValueError):
            return self._respawn("crashed", "worker pipe closed")
        while True:
            try:
                if self.conn.poll(POLL_INTERVAL):
                    return self.recv()
            except Exception:  # noqa: BLE001 - EOF or a poisoned reply
                return self._respawn("crashed", "worker died or replied garbage")
            if deadline is not None and time.monotonic() > deadline:
                return self._respawn("timeout", "worker overran the deadline")
            if not self.proc.is_alive():
                return self._respawn("crashed", "worker process died")

    def _respawn(self, status: str, message: str) -> Tuple[str, str]:
        self.kill()
        self._fork()
        return status, message

    def send(self, handler: str, payload: Any) -> None:
        """Ship one ``(seq, handler, payload)`` frame to the worker."""
        self.seq += 1
        self.conn.send_bytes(
            pickle.dumps((self.seq, handler, payload), protocol=pickle.HIGHEST_PROTOCOL)
        )

    def recv(self) -> Tuple[str, Any]:
        """Read the reply to the last :meth:`send`: ``(status, value)``.

        Raises when the pipe is dead, the frame exceeds
        ``max_reply_bytes``, or the reply does not unpickle into the
        protocol tuple (a poisoned reply may raise anything at load
        time) answering that send: the worker's state is suspect.
        """
        seq, status, value = pickle.loads(self.conn.recv_bytes(self.max_reply_bytes))
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
        except (OSError, ValueError):
            pass
        self.conn.close()
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.kill()
            self.proc.join(timeout=5.0)
