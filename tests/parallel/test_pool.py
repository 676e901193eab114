"""Worker-pool protocol: dispatch, retries, and every injected fault."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro

from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.parallel import PoolWorker, WorkerPool

ECHO = "repro.parallel.testing:echo"
SLEEP = "repro.parallel.testing:sleep_then_echo"
KILL_ONCE = "repro.parallel.testing:kill_self_once"
CRASH_ALWAYS = "repro.parallel.testing:crash_always"
OVERSIZED = "repro.parallel.testing:oversized_reply"
RAISE = "repro.parallel.testing:raise_error"
POISON = "repro.parallel.testing:poison_reply"


def values(pool, handler, payloads, **kwargs):
    """Run one handler over ``payloads``; every task must succeed."""
    results = pool.run_tasks([(handler, p) for p in payloads], **kwargs)
    assert [r.status for r in results] == ["ok"] * len(payloads)
    return [r.value for r in results]


class TestBasics:
    def test_map_preserves_submission_order(self):
        """One handler mapped over 20 payloads replies in task order."""
        with WorkerPool(2) as pool:
            assert values(pool, ECHO, list(range(20))) == list(range(20))

    def test_results_carry_timing_and_attempts(self):
        with WorkerPool(1) as pool:
            [result] = pool.run_tasks([(ECHO, "x")])
            assert result.ok
            assert result.value == "x"
            assert result.attempts == 1
            assert result.seconds >= 0.0

    def test_context_reaches_handlers(self):
        with WorkerPool(1, context={"base": 7}) as pool:
            [value] = values(
                pool, "repro.parallel.testing:read_context", [None]
            )
            assert value == {"base": 7}

    def test_dispatch_counter(self):
        tracer = Tracer()
        with WorkerPool(2, tracer=tracer) as pool:
            values(pool, ECHO, list(range(6)))
            assert pool.counters["pool.dispatches"] == 6
            assert tracer.metrics.value("pool.dispatches") == 6

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.run_tasks([(ECHO, 1)])

    def test_bad_handler_spec_is_error_status(self):
        with WorkerPool(1) as pool:
            [result] = pool.run_tasks([("no-colon-here", 1)], retries=0)
            assert result.status == "error"

    def test_empty_task_list(self):
        with WorkerPool(1) as pool:
            assert pool.run_tasks([]) == []


class TestHandlerErrors:
    def test_handler_exception_reported_not_fatal(self):
        with WorkerPool(1) as pool:
            [result] = pool.run_tasks(
                [(RAISE, {"message": "boom"})], retries=0
            )
            assert result.status == "error"
            assert "ValueError" in result.error
            assert "boom" in result.error
            # The worker survived: no respawn, still serving.
            assert pool.counters["pool.respawns"] == 0
            assert values(pool, ECHO, ["alive"]) == ["alive"]


class TestSignals:
    def test_workers_ignore_group_delivered_sigterm(self):
        """A cgroup-wide SIGTERM/SIGINT must not take workers down.

        systemd's default KillMode delivers the shutdown signal to every
        process in the unit; the parent is mid-drain at that point and
        still needs its workers (checkpoints, in-flight jobs). Workers
        only die on the pipe sentinel or SIGKILL from the parent.
        """
        import os
        import signal as _signal
        import time as _time

        with WorkerPool(2) as pool:
            assert values(pool, ECHO, [1, 2]) == [1, 2]  # fork the workers
            for worker in pool._pool:
                os.kill(worker.proc.pid, _signal.SIGTERM)
                os.kill(worker.proc.pid, _signal.SIGINT)
            _time.sleep(0.2)
            assert all(w.proc.is_alive() for w in pool._pool)
            assert values(pool, ECHO, list(range(4))) == list(range(4))
            assert pool.counters["pool.respawns"] == 0


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
            "from repro.parallel import WorkerPool\n"
            "pool = WorkerPool(2)\n"
            f"pool.run_tasks([({ECHO!r}, i) for i in range(2)])\n"
            "print(*(w.proc.pid for w in pool._pool), flush=True)\n"
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
    def test_sigkill_mid_task_respawns_and_retries(self, tmp_path):
        tracer = Tracer()
        with WorkerPool(1, tracer=tracer) as pool:
            flag = tmp_path / "crashed"
            [value] = values(
                pool, KILL_ONCE, [{"flag": str(flag), "value": 42}], retries=1
            )
            assert value == 42
            assert pool.counters["pool.respawns"] == 1
            assert tracer.metrics.value("pool.respawns") == 1

    def test_repeat_crasher_exhausts_retries(self):
        with WorkerPool(1) as pool:
            [result] = pool.run_tasks([(CRASH_ALWAYS, None)], retries=2)
            assert result.status == "crashed"
            assert result.attempts == 3
            assert "died" in result.error
            assert pool.counters["pool.respawns"] == 3

    def test_crash_does_not_poison_other_tasks(self, tmp_path):
        with WorkerPool(2) as pool:
            flag = tmp_path / "crashed"
            tasks = [(ECHO, i) for i in range(8)]
            tasks.insert(3, (KILL_ONCE, {"flag": str(flag), "value": "ok"}))
            results = pool.run_tasks(tasks, retries=1)
            assert [r.status for r in results] == ["ok"] * 9
            assert results[3].value == "ok"

    def test_poisoned_reply_is_contained(self):
        """A reply that explodes at unpickle time counts as a crash."""
        with WorkerPool(1) as pool:
            [result] = pool.run_tasks([(POISON, None)], retries=0)
            assert result.status == "crashed"
            assert pool.counters["pool.respawns"] == 1
            assert values(pool, ECHO, ["alive"]) == ["alive"]

    def test_reply_to_another_frame_is_refused(self):
        """``recv`` only accepts the reply to the last ``send``."""
        worker = PoolWorker(multiprocessing.get_context("fork"), None)
        try:
            worker.send(ECHO, "first")
            assert worker.recv() == ("ok", "first")
            worker.send(ECHO, "second")
            worker.seq += 1  # as if a later frame had gone out unanswered
            with pytest.raises(ValueError):
                worker.recv()
        finally:
            worker.kill()
        assert not worker.proc.is_alive()

    def test_oversized_reply_is_contained(self):
        with WorkerPool(1, max_reply_bytes=1024) as pool:
            [result] = pool.run_tasks(
                [(OVERSIZED, {"nbytes": 1 << 20})], retries=0
            )
            assert result.status == "crashed"
            assert pool.counters["pool.respawns"] == 1
            # A small reply still fits afterwards.
            assert values(pool, ECHO, ["small"]) == ["small"]


class TestTimeouts:
    def test_slow_task_times_out_and_respawns(self):
        with WorkerPool(1) as pool:
            [result] = pool.run_tasks(
                [(SLEEP, {"seconds": 30.0})], timeout_s=0.3, retries=0
            )
            assert result.status == "timeout"
            assert "0.3" in result.error
            assert pool.counters["pool.respawns"] == 1

    def test_fast_task_beats_deadline(self):
        with WorkerPool(1) as pool:
            [result] = pool.run_tasks(
                [(SLEEP, {"seconds": 0.0, "value": "quick"})],
                timeout_s=30.0,
                retries=0,
            )
            assert result.ok
            assert result.value == "quick"


class TestCallbacks:
    def test_on_retry_fires_per_extra_attempt(self, tmp_path):
        seen = []
        with WorkerPool(1) as pool:
            flag = tmp_path / "crashed"
            pool.run_tasks(
                [(KILL_ONCE, {"flag": str(flag), "value": 1})],
                retries=1,
                on_retry=seen.append,
            )
            assert seen == [0]

    def test_on_result_streams_every_final_result(self):
        seen = {}
        with WorkerPool(2) as pool:
            pool.run_tasks(
                [(ECHO, i) for i in range(5)],
                on_result=lambda i, r: seen.__setitem__(i, r.value),
            )
            assert seen == {i: i for i in range(5)}
