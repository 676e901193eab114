"""Fault-injection handlers for exercising the worker pool.

These run *inside* pool workers (dispatched like any other handler) and
simulate the failure modes the pool must contain: a worker killed
mid-task, a reply too large for the parent's bound, a reply that does
not unpickle. Kill-style handlers are gated by a flag file so the
respawned worker's retry succeeds — exactly the transient-crash shape
the pool is designed for.
"""

from __future__ import annotations

import os
import signal
import time


def echo(payload, ctx):
    """Return the payload unchanged (smoke checks, chunking tests)."""
    return payload


def read_context(payload, ctx):
    """Return the worker's pool-level context object."""
    return ctx.context


def sleep_then_echo(payload, ctx):
    """Sleep ``payload['seconds']`` then echo (timeout tests)."""
    time.sleep(payload["seconds"])
    return payload.get("value")


def kill_self_once(payload, ctx):
    """SIGKILL this worker the first time; succeed on retry.

    ``payload['flag']`` is a path shared across the worker and its
    respawned successor: its existence marks "already crashed once".
    """
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8") as fh:
            fh.write("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    return payload.get("value", "survived")


def crash_always(payload, ctx):
    """SIGKILL this worker on every attempt (retry-exhaustion tests)."""
    os.kill(os.getpid(), signal.SIGKILL)


def oversized_reply(payload, ctx):
    """Reply with ``payload['nbytes']`` raw bytes (reply-bound tests)."""
    return bytes(payload["nbytes"])


def raise_error(payload, ctx):
    """Raise a deterministic handler error (error-status tests)."""
    raise ValueError(payload.get("message", "injected failure"))


def _explode():
    raise RuntimeError("poisoned reply")


class _Poison:
    """Pickles fine in the worker, explodes when the parent unpickles."""

    def __reduce__(self):
        return (_explode, ())


def poison_reply(payload, ctx):
    """Return an object whose unpickling fails parent-side."""
    return _Poison()

