"""Worker ``call``: the protocol and every injected fault.

A forked :class:`PoolWorker` must contain each fault in its own process:
it kills and re-forks the process, reports ``crashed`` or ``timeout``,
and serves the next call. :class:`InlineWorker` runs the same handlers
in the caller's thread. Attempt counts, timing and retries belong to the
caller; they are checked here through explore's sweep, the caller that
keeps them on its records.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro

from repro.errors import ConfigurationError
from repro.explore import SweepOptions, run_sweep
from repro.explore import executor as executor_module
from repro.obs import Tracer
from repro.parallel import InlineWorker, PoolWorker
from repro.service import SchedulerOptions
from repro.service.engine import full_plan
from repro.service.jobs import ScenarioSpec

ECHO = "repro.parallel.testing:echo"
CONTEXT = "repro.parallel.testing:read_context"
SLEEP = "repro.parallel.testing:sleep_then_echo"
KILL_ONCE = "repro.parallel.testing:kill_self_once"
CRASH_ALWAYS = "repro.parallel.testing:crash_always"
OVERSIZED = "repro.parallel.testing:oversized_reply"
RAISE = "repro.parallel.testing:raise_error"
POISON = "repro.parallel.testing:poison_reply"

#: A scenario that plans in milliseconds, for the sweep-driven checks.
TINY = ScenarioSpec(grid=6, num_nets=6, total_sites=40)


@pytest.fixture
def worker():
    forked = PoolWorker()
    yield forked
    forked.shutdown()


def soon(seconds=30.0):
    return time.monotonic() + seconds


class TestBasics:
    def test_map_preserves_submission_order(self, worker):
        pid = worker.proc.pid
        assert [worker.call(ECHO, i) for i in range(5)] == [
            ("ok", i) for i in range(5)
        ]
        assert worker.proc.pid == pid

    def test_results_carry_timing_and_attempts(self, worker):
        """``call`` answers ``(status, value)``; the caller's attempt
        loop stamps the attempt count and wall time on the record it
        keeps, in-process and on a forked worker alike."""
        assert worker.call(ECHO, "x") == ("ok", "x")
        for workers in (1, 2):
            [record] = run_sweep(
                [TINY], options=SweepOptions(workers=workers)
            ).values()
            assert record.status == "ok"
            assert record.attempts == 1
            assert record.seconds >= 0.0

    def test_context_reaches_handlers(self):
        forked = PoolWorker(context={"base": 7})
        try:
            assert forked.call(CONTEXT, None) == ("ok", {"base": 7})
        finally:
            forked.shutdown()

    def test_dispatch_counter(self, worker):
        """Every ``call`` dispatches one frame and numbers it: two
        workers sharing six tasks have sent three frames each."""
        other = PoolWorker()
        try:
            for i in range(6):
                assert (worker, other)[i % 2].call(ECHO, i) == ("ok", i)
            assert worker.seq == 3
            assert other.seq == 3
        finally:
            other.shutdown()

    def test_invalid_worker_count_rejected(self):
        """Both callers run one ``InlineWorker`` at one worker and forked
        ``PoolWorker``s above it; a count below one is refused."""
        for workers in (0, -1):
            with pytest.raises(ConfigurationError):
                SweepOptions(workers=workers)
            with pytest.raises(ConfigurationError):
                SchedulerOptions(workers=workers)

    def test_closed_pool_rejects_work(self, worker):
        """A shut-down worker refuses a call rather than fork again."""
        worker.shutdown()
        assert not worker.proc.is_alive()
        with pytest.raises(ConfigurationError):
            worker.call(ECHO, 1)
        assert not worker.proc.is_alive()

    def test_bad_handler_spec_is_error_status(self, worker):
        status, message = worker.call("no-colon-here", 1)
        assert status == "error"
        assert "bad handler spec" in message
        assert worker.call(ECHO, "alive") == ("ok", "alive")

    def test_empty_task_list(self, monkeypatch):
        """No work: a worker never called sends no frame and leaves
        through the shutdown sentinel (exit code 0, not SIGKILL), and a
        sweep with nothing pending forks no worker at all."""
        idle = PoolWorker()
        assert idle.seq == 0
        idle.shutdown()
        assert idle.proc.exitcode == 0

        def no_fork(*args, **kwargs):
            raise AssertionError("forked a worker for an empty sweep")

        monkeypatch.setattr(executor_module, "PoolWorker", no_fork)
        assert run_sweep([], options=SweepOptions(workers=2)) == {}

    def test_poll_runs_while_the_worker_is_busy(self, worker):
        polls = []
        status, value = worker.call(
            SLEEP, {"seconds": 0.3, "value": "done"}, soon(),
            poll=lambda: polls.append(1),
        )
        assert (status, value) == ("ok", "done")
        assert len(polls) >= 2


class TestHandlerErrors:
    def test_handler_exception_reported_not_fatal(self, worker):
        pid = worker.proc.pid
        status, message = worker.call(RAISE, {"message": "boom"})
        assert status == "error"
        assert "ValueError" in message
        assert "boom" in message
        # The worker survived: no respawn, still serving.
        assert worker.proc.pid == pid
        assert worker.call(ECHO, "alive") == ("ok", "alive")


class TestSignals:
    def test_workers_ignore_group_delivered_sigterm(self, worker):
        """A cgroup-wide SIGTERM/SIGINT must not take workers down.

        systemd's default KillMode delivers the shutdown signal to every
        process in the unit; the parent is mid-drain at that point and
        still needs its workers (checkpoints, in-flight jobs). Workers
        only die on the pipe sentinel or SIGKILL from the parent.
        """
        assert worker.call(ECHO, 1) == ("ok", 1)  # the handler loop is up
        pid = worker.proc.pid
        os.kill(pid, signal.SIGTERM)
        os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        assert worker.proc.is_alive()
        assert worker.call(ECHO, 2) == ("ok", 2)
        assert worker.proc.pid == pid


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestParentDeath:
    def test_workers_exit_when_the_parent_is_killed(self):
        """Workers ignore SIGTERM, so EOF on their pipe is the only way
        a SIGKILLed parent's workers end; none may outlive it."""
        script = (
            "import time\n"
            "from repro.parallel import PoolWorker\n"
            "workers = [PoolWorker() for _ in range(2)]\n"
            f"print(*(w.call({ECHO!r}, w.proc.pid)[1] for w in workers), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


class TestCrashes:
    def test_sigkill_mid_task_respawns_and_retries(self, worker, tmp_path):
        payload = {"flag": str(tmp_path / "crashed"), "value": 42}
        pid = worker.proc.pid
        status, _ = worker.call(KILL_ONCE, payload)
        assert status == "crashed"
        assert worker.proc.pid != pid
        # The re-forked worker serves the retry.
        assert worker.call(KILL_ONCE, payload) == ("ok", 42)

    def test_repeat_crasher_exhausts_retries(self, worker):
        """Three attempts, three crashes: each one re-forks the worker."""
        pids = {worker.proc.pid}
        for _ in range(3):
            status, message = worker.call(CRASH_ALWAYS, None)
            assert status == "crashed"
            assert "died" in message
            pids.add(worker.proc.pid)
        assert len(pids) == 4
        assert worker.call(ECHO, "alive") == ("ok", "alive")

    def test_crash_does_not_poison_other_tasks(self, worker, tmp_path):
        other = PoolWorker()
        try:
            pid = other.proc.pid
            payload = {"flag": str(tmp_path / "crashed"), "value": "ok"}
            assert worker.call(KILL_ONCE, payload)[0] == "crashed"
            assert [other.call(ECHO, i) for i in range(4)] == [
                ("ok", i) for i in range(4)
            ]
            assert other.proc.pid == pid
            assert worker.call(KILL_ONCE, payload) == ("ok", "ok")
        finally:
            other.shutdown()

    def test_poisoned_reply_is_contained(self, worker):
        """A reply that explodes at unpickle time counts as a crash."""
        pid = worker.proc.pid
        status, _ = worker.call(POISON, None)
        assert status == "crashed"
        assert worker.proc.pid != pid
        assert worker.call(ECHO, "alive") == ("ok", "alive")

    def test_oversized_reply_is_contained(self):
        forked = PoolWorker(max_reply_bytes=1024)
        try:
            pid = forked.proc.pid
            status, _ = forked.call(OVERSIZED, {"nbytes": 1 << 20})
            assert status == "crashed"
            assert forked.proc.pid != pid
            # A small reply still fits afterwards.
            assert forked.call(ECHO, "small") == ("ok", "small")
        finally:
            forked.shutdown()

    def test_reply_to_another_frame_is_refused(self, worker):
        """``call`` only accepts the reply to its own frame."""
        pid = worker.proc.pid
        worker.send(ECHO, "stale")  # a frame whose reply nobody read
        status, _ = worker.call(ECHO, "fresh")
        assert status == "crashed"
        assert worker.proc.pid != pid
        assert worker.call(ECHO, "fresh") == ("ok", "fresh")


class TestTimeouts:
    def test_slow_task_times_out_and_respawns(self, worker):
        pid = worker.proc.pid
        start = time.monotonic()
        status, message = worker.call(SLEEP, {"seconds": 30.0}, soon(0.3))
        assert status == "timeout"
        assert "deadline" in message
        assert time.monotonic() - start < 10.0
        assert worker.proc.pid != pid
        assert worker.call(ECHO, "alive") == ("ok", "alive")

    def test_fast_task_beats_deadline(self, worker):
        pid = worker.proc.pid
        assert worker.call(
            SLEEP, {"seconds": 0.0, "value": "quick"}, soon()
        ) == ("ok", "quick")
        assert worker.proc.pid == pid


class TestCallbacks:
    def test_on_retry_fires_per_extra_attempt(self, monkeypatch, tmp_path):
        """Retry policy is the caller's: explore's sweep counts
        ``explore.retries`` once per extra attempt it makes, not once
        per retry it allows. A planner that SIGKILLs its forked worker
        once is retried on the re-forked worker and succeeds."""
        flag = tmp_path / "crashed"

        def kill_once(spec, config=None, **kwargs):
            if not flag.exists():
                flag.write_text("crashed", encoding="utf-8")
                os.kill(os.getpid(), signal.SIGKILL)
            return full_plan(spec, config, **kwargs)

        monkeypatch.setattr(executor_module, "full_plan", kill_once)
        tracer = Tracer()
        [record] = run_sweep(
            [TINY], options=SweepOptions(workers=2, retries=2), tracer=tracer
        ).values()
        assert record.status == "ok"
        assert record.attempts == 2
        assert tracer.metrics.value("explore.retries") == 1
        assert tracer.metrics.value("pool.respawns") == 1
        assert tracer.metrics.value("pool.dispatches") == 2


class TestInlineWorker:
    def test_runs_handlers_with_their_context(self):
        inline = InlineWorker(context={"base": 7})
        assert inline.call(ECHO, "x") == ("ok", "x")
        assert inline.call(CONTEXT, None, soon()) == ("ok", {"base": 7})

    def test_handler_error_is_error_status(self):
        status, message = InlineWorker().call(RAISE, {"message": "boom"})
        assert status == "error"
        assert "ValueError" in message
        assert "boom" in message

    def test_bad_handler_spec_is_error_status(self):
        status, message = InlineWorker().call("no-colon-here", 1)
        assert status == "error"
        assert "bad handler spec" in message
