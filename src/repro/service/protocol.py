"""The JSON-lines wire protocol and the asyncio front end.

One request per line, one response per line. Requests are objects with
an ``op``:

* ``{"op": "submit", "job": {...}}`` — enqueue a job; responds with the
  job record summary (or a typed error, e.g. ``queue_full``).
* ``{"op": "status", "job_id": "..."}`` — current record summary.
* ``{"op": "wait", "job_id": "..."}`` — block until terminal, then the
  record summary.
* ``{"op": "baselines"}`` — list cached baseline ids and signatures.
* ``{"op": "stats"}`` — scheduler counters and queue depth.
* ``{"op": "checkpoint", "directory": "...", "only_dirty": false}`` —
  persist baselines (optionally only those mutated since last save).
* ``{"op": "shutdown", "deadline": 30}`` — graceful shutdown: further
  submits are rejected with ``ShuttingDownError``, in-flight jobs drain
  under the deadline (seconds, a finite number >= 0), dirty baselines
  are checkpointed, then serve exits.

Jobs may carry a ``"tenant"`` name; the scheduler
(:mod:`repro.service.scheduler`) queues each tenant's jobs separately
and serves the tenants fairly, each at the same rate.

Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "<TypeName>", "message": "..."}``; the error
name is the :mod:`repro.errors` class, so clients can distinguish shed
(``QueueFullError``) from failure.

Job wire format (see :mod:`repro.service.jobs`)::

    {"job_id": "b0", "kind": "baseline", "scenario": {...}, "config": {...}}
    {"job_id": "d1", "kind": "delta", "baseline_id": "b0",
     "delta": {"version": 1, "ops": [{"kind": "move_macro", ...}]},
     "mode": "incremental"}
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, Optional

from repro.errors import ProtocolError, ReproError
from repro.service.jobs import DeltaSpec, Job, ScenarioSpec
from repro.service.scheduler import PlanningService

PROTOCOL_VERSION = 1

#: Default cap on one request line. asyncio's StreamReader default (64 KiB)
#: is too small for checkpoint-sized scenarios, but an unbounded reader
#: would let one client buffer arbitrary memory; 1 MiB covers every
#: legitimate job the repo generates with two orders of magnitude to spare.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20


def job_to_dict(job: Job) -> Dict[str, Any]:
    out: Dict[str, Any] = {"job_id": job.job_id, "kind": job.kind}
    if job.scenario is not None:
        out["scenario"] = job.scenario.to_dict()
    if job.baseline_id is not None:
        out["baseline_id"] = job.baseline_id
    if job.delta is not None:
        out["delta"] = job.delta.to_dict()
    if job.kind == "delta":
        out["mode"] = job.mode
    if job.config is not None:
        out["config"] = job.config
    if job.tenant != "default":
        out["tenant"] = job.tenant
    return out


def job_from_dict(d: Dict[str, Any]) -> Job:
    if not isinstance(d, dict):
        raise ProtocolError("job must be a JSON object")
    for key in ("job_id", "kind"):
        if not isinstance(d.get(key), str):
            raise ProtocolError(f"job needs a string {key!r}")
    scenario = d.get("scenario")
    delta = d.get("delta")
    return Job(
        job_id=d["job_id"],
        kind=d["kind"],
        scenario=ScenarioSpec.from_dict(scenario) if scenario else None,
        baseline_id=d.get("baseline_id"),
        delta=DeltaSpec.from_dict(delta) if delta else None,
        mode=d.get("mode", "incremental"),
        config=d.get("config"),
        tenant=d.get("tenant", "default"),
    )


class ProtocolServer:
    """Serves the JSON-lines protocol over asyncio streams."""

    def __init__(
        self,
        service: PlanningService,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        checkpoint_dir: "str | None" = None,
        shutdown_deadline: "float | None" = 30.0,
    ):
        if max_request_bytes < 2:
            raise ProtocolError(
                f"max_request_bytes must be >= 2, got {max_request_bytes}"
            )
        self.service = service
        self.max_request_bytes = max_request_bytes
        self.checkpoint_dir = checkpoint_dir
        self.shutdown_deadline = shutdown_deadline
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._drain_report: Optional[Dict[str, Any]] = None

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=self.max_request_bytes
        )

    def request_shutdown(self) -> None:
        """Trigger the graceful shutdown sequence (signal handlers).

        New submissions are rejected with
        :class:`~repro.errors.ShuttingDownError` from this moment;
        :meth:`serve_until_shutdown` then drains in-flight jobs under
        ``shutdown_deadline``, checkpoints dirty baselines to
        ``checkpoint_dir``, and closes.
        """
        self.service.begin_shutdown()
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        self.service.begin_shutdown()
        self._drain_report = await self.service.drain_until(
            self.shutdown_deadline
        )
        if self.checkpoint_dir is not None:
            await asyncio.to_thread(
                self.service.checkpoint_to, self.checkpoint_dir, True
            )
        await self.close()

    @property
    def drain_report(self) -> Optional[Dict[str, Any]]:
        """``{"drained": bool, "pending": n}`` from the last shutdown."""
        return self._drain_report

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not reader.at_eof():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The client sent a line longer than max_request_bytes.
                    # Line framing is now unrecoverable (part of the
                    # oversized request is still in flight), so answer
                    # with a typed error and drop the connection instead
                    # of crashing the handler silently.
                    error = ProtocolError(
                        "request line exceeds "
                        f"{self.max_request_bytes} bytes"
                    )
                    writer.write(
                        json.dumps(
                            {
                                "ok": False,
                                "error": type(error).__name__,
                                "message": str(error),
                            }
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._dispatch_line(line)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if self._shutdown.is_set():
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        try:
            try:
                request = json.loads(line)
            except ValueError as exc:
                raise ProtocolError(f"bad JSON: {exc}") from exc
            if not isinstance(request, dict):
                raise ProtocolError("request must be a JSON object")
            return await self.dispatch(request)
        except ReproError as exc:
            return {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        except Exception as exc:  # noqa: BLE001 - protocol must not crash
            return {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }

    async def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "submit":
            job = job_from_dict(request.get("job"))
            record = self.service.submit(job)
            return {"ok": True, **record.summary()}
        if op == "status":
            record = self.service.record(str(request.get("job_id")))
            return {"ok": True, **record.summary()}
        if op == "wait":
            record = await self.service.wait(str(request.get("job_id")))
            return {"ok": True, **record.summary()}
        if op == "baselines":
            return {
                "ok": True,
                "baselines": {
                    bid: self.service.baseline(bid).signature
                    for bid in self.service.baseline_ids
                },
            }
        if op == "stats":
            return {"ok": True, **self.service.stats()}
        if op == "checkpoint":
            directory = request.get("directory")
            if not isinstance(directory, str):
                raise ProtocolError("checkpoint needs a string 'directory'")
            written = await asyncio.to_thread(
                self.service.checkpoint_to,
                directory,
                bool(request.get("only_dirty", False)),
            )
            return {"ok": True, "written": written}
        if op == "shutdown":
            deadline = request.get("deadline")
            if deadline is not None:
                self.shutdown_deadline = _drain_seconds(deadline)
            self.request_shutdown()
            return {"ok": True, "shutting_down": True}
        raise ProtocolError(f"unknown op {op!r}")


def _drain_seconds(value: Any) -> float:
    """A shutdown ``deadline`` from the wire: a finite number >= 0."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"shutdown 'deadline' must be a number, got {value!r}")
    try:
        seconds = float(value)
    except OverflowError:  # an integer too large for a float
        seconds = math.inf
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ProtocolError(
            f"shutdown 'deadline' must be a finite number >= 0, got {value!r}"
        )
    return seconds


async def request_over_stream(
    host: str, port: int, requests: "list[Dict[str, Any]]"
) -> "list[Dict[str, Any]]":
    """Client helper: send requests on one connection, collect responses."""
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ProtocolError("server closed the connection")
            responses.append(json.loads(line))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return responses
