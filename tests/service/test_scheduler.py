"""Scheduler behaviour: shed, timeouts, retries, verification.

The planning engine is exercised elsewhere; here we mostly inject fake
plan/replan callables so each scheduler path is isolated and fast. The
service runs its shard in-process (``workers=1``) unless a test says
otherwise, so the fakes may share ``threading`` events with the test.
No pytest-asyncio in the environment — tests drive the loop via
``asyncio.run`` directly.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineError,
    QueueFullError,
    ServiceError,
    UnknownJobError,
)
from repro.service import (
    DeltaSpec,
    Job,
    JobStatus,
    PlanningService,
    ScenarioSpec,
    SchedulerOptions,
    apply_delta,
    full_plan,
    incremental_replan,
    move_macro,
    remove_net,
    set_capacity,
)
from repro.service.jobs import MacroSpec

SPEC = ScenarioSpec(
    grid=8, num_nets=12, total_sites=120, macros=(MacroSpec(1, 1, 2, 2),)
)
DELTA = DeltaSpec((move_macro(0, 4, 4),))


class FakeStats:
    seconds = 0.001

    def as_dict(self):
        return {"seconds": self.seconds}


def delta_job(job_id="d0", baseline_id="b0"):
    return Job(job_id, "delta", baseline_id=baseline_id, delta=DELTA)


def run(coro):
    return asyncio.run(coro)


def until_aborted(abort_check, limit=3.0):
    """Poll ``abort_check`` as the engine does between nets.

    The bound turns a scheduler that never fires the hook into a test
    failure instead of a hang.
    """
    end = time.monotonic() + limit
    while time.monotonic() < end:
        if abort_check is not None and abort_check():
            raise DeadlineError("aborted between nets")
        time.sleep(0.005)
    raise AssertionError("abort_check never fired")


async def running(service, job_id):
    """Wait until ``job_id`` has left the queue."""
    while service.record(job_id).status is JobStatus.QUEUED:
        await asyncio.sleep(0.01)


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_queue": 0},
            {"job_timeout": 0},
            {"retries": -1},
            {"verify_fraction": -0.1},
            {"verify_fraction": 1.5},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            SchedulerOptions(**kwargs)


class TestBackpressure:
    def test_full_queue_sheds_with_typed_error(self):
        gate = threading.Event()

        def gated_replan(state, delta, tracer=None, abort_check=None):
            gate.wait(5.0)
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(max_queue=1), replan_fn=gated_replan
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                # d0 holds the shard, so d1 fills the one queue slot.
                service.submit(delta_job("d0"))
                await running(service, "d0")
                service.submit(delta_job("d1"))
                with pytest.raises(QueueFullError):
                    service.submit(delta_job("d2"))
                assert service.record("d2").status is JobStatus.SHED
                assert service.stats()["shed"] == 1
                assert "queue full" in service.record("d2").error
            finally:
                gate.set()
                await service.stop()

        run(scenario())

    def test_duplicate_job_id_rejected(self):
        async def scenario():
            service = PlanningService()
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(delta_job("d0"))
                with pytest.raises(ServiceError, match="duplicate"):
                    service.submit(delta_job("d0"))
            finally:
                await service.stop()

        run(scenario())

    def test_shed_job_id_can_be_resubmitted(self):
        gate = threading.Event()

        def gated_replan(state, delta, tracer=None, abort_check=None):
            gate.wait(5.0)
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, max_queue=1),
                replan_fn=gated_replan,
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(delta_job("d0"))
                # Wait until the shard dequeues d0; d1 then occupies
                # the single queue slot so d2's shed is deterministic.
                await running(service, "d0")
                service.submit(delta_job("d1"))
                with pytest.raises(QueueFullError):
                    service.submit(delta_job("d2"))
                assert service.record("d2").status is JobStatus.SHED
                # Shedding must not burn the id: while still saturated a
                # retry sheds again (not "duplicate")...
                with pytest.raises(QueueFullError):
                    service.submit(delta_job("d2"))
                gate.set()
                await service.drain()
                # ...and once the queue drains the retry is accepted.
                service.submit(delta_job("d2"))
                record = await service.wait("d2")
                assert record.status is JobStatus.DONE
            finally:
                gate.set()
                await service.stop()

        run(scenario())


class TestEndToEnd:
    def test_baseline_then_incremental_delta(self):
        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, verify_fraction=1.0)
            )
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                record = await service.wait("b0")
                assert record.status is JobStatus.DONE
                service.submit(delta_job("d0"))
                record = await service.wait("d0")
                assert record.status is JobStatus.DONE
                assert record.result["mode"] == "incremental"
                assert record.result["verify_matched"] is True
                assert service.stats()["verified"] == 1
                assert service.stats()["mismatches"] == 0
            finally:
                await service.stop()

        run(scenario())

    def test_full_mode_replaces_baseline(self):
        async def scenario():
            service = PlanningService(options=SchedulerOptions(workers=1))
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                await service.wait("b0")
                job = Job("d0", "delta", baseline_id="b0", delta=DELTA,
                          mode="full")
                service.submit(job)
                record = await service.wait("d0")
                assert record.status is JobStatus.DONE
                assert record.result["mode"] == "full"
                from repro.service.jobs import apply_delta

                assert (service.baseline("b0").signature
                        == full_plan(apply_delta(SPEC, DELTA)).signature)
            finally:
                await service.stop()

        run(scenario())

    def test_unknown_baseline_fails_job(self):
        # A delta against an unknown baseline is refused at submit, so a
        # protocol client gets the typed error instead of a FAILED record.
        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, retries=0)
            )
            await service.start()
            try:
                with pytest.raises(UnknownJobError, match="nope"):
                    service.submit(delta_job("d0", baseline_id="nope"))
                with pytest.raises(UnknownJobError):
                    service.record("d0")
            finally:
                await service.stop()

        run(scenario())

    def test_off_grid_capacity_edit_fails_job(self):
        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, retries=0)
            )
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                await service.wait("b0")
                before = service.baseline("b0").signature
                # (8, 0) is off the 8x8 grid: the edit once set W of
                # edge ((0, 0), (0, 1)) and the job ended DONE.
                off_grid = DeltaSpec((set_capacity([(7, 0, 8, 0, 3)]),))
                service.submit(
                    Job("d0", "delta", baseline_id="b0", delta=off_grid)
                )
                record = await service.wait("d0")
                assert record.status is JobStatus.FAILED
                assert "outside the 8x8 grid" in record.error
                assert service.baseline("b0").signature == before
            finally:
                await service.stop()

        run(scenario())

    def test_refused_config_leaves_the_shard_working(self):
        # A refused config must leave no record or queue item behind: a
        # queued job without its baseline kills the shard's dispatcher,
        # and every later job on that shard would wait forever.
        small = ScenarioSpec(grid=8, num_nets=10, total_sites=50)

        async def scenario():
            service = PlanningService(options=SchedulerOptions(workers=1))
            await service.start()
            try:
                with pytest.raises(ConfigurationError, match="bogus"):
                    service.submit(
                        Job("b1", "baseline", scenario=small, config={"bogus": 1})
                    )
                with pytest.raises(UnknownJobError):
                    service.record("b1")
                service.submit(Job("b1", "baseline", scenario=small))
                service.submit(Job("b2", "baseline", scenario=small))
                for job_id in ("b1", "b2"):
                    record = await asyncio.wait_for(service.wait(job_id), 60)
                    assert record.status is JobStatus.DONE
                    assert record.shard == 0
            finally:
                await service.stop()

        run(scenario())


class TestWait:
    """``wait`` sleeps on a future the job's finish resolves."""

    @staticmethod
    def gated_service(gate):
        def gated_replan(state, delta, tracer=None, abort_check=None):
            gate.wait(5.0)
            return FakeStats()

        service = PlanningService(replan_fn=gated_replan)
        service.install_baseline("b0", full_plan(SPEC))
        return service

    def test_finish_wakes_the_waiter_without_polling(self, monkeypatch):
        gate = threading.Event()

        async def no_sleep(*args, **kwargs):
            raise AssertionError("wait polled with asyncio.sleep")

        async def scenario():
            service = self.gated_service(gate)
            await service.start()
            try:
                service.submit(delta_job("d0"))
                await running(service, "d0")
                # The job finishes only after the wait has begun.
                asyncio.get_running_loop().call_later(0.05, gate.set)
                with monkeypatch.context() as patch:
                    patch.setattr(asyncio, "sleep", no_sleep)
                    record = await asyncio.wait_for(service.wait("d0"), 10)
                assert record.status is JobStatus.DONE
            finally:
                gate.set()
                await service.stop()

        run(scenario())

    def test_concurrent_waits_return_past_a_cancelled_one(self):
        gate = threading.Event()

        async def scenario():
            service = self.gated_service(gate)
            await service.start()
            try:
                service.submit(delta_job("d0"))
                await running(service, "d0")
                cancelled, *kept = [
                    asyncio.ensure_future(service.wait("d0")) for _ in range(3)
                ]
                await asyncio.sleep(0)
                cancelled.cancel()
                gate.set()
                records = await asyncio.wait_for(asyncio.gather(*kept), 10)
                assert [r.status for r in records] == [JobStatus.DONE] * 2
                assert cancelled.cancelled()
                # A finished job answers at once.
                assert (await service.wait("d0")) is records[0]
            finally:
                gate.set()
                await service.stop()

        run(scenario())

    def test_waiters_on_many_loops_all_wake(self):
        """Four threads, each with its own loop, wait on every job while
        the shard finishes them; a lost wake-up leaves a thread hung."""

        def quick_replan(state, delta, tracer=None, abort_check=None):
            time.sleep(0.002)
            return FakeStats()

        jobs = [f"d{i}" for i in range(40)]
        statuses = {}

        async def wait_all(service):
            records = await asyncio.wait_for(
                asyncio.gather(*(service.wait(job_id) for job_id in jobs)), 30
            )
            return [record.status for record in records]

        def waiter(index, service):
            statuses[index] = asyncio.run(wait_all(service))

        service = PlanningService(replan_fn=quick_replan)
        service.install_baseline("b0", full_plan(SPEC))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with service:
                for job_id in jobs:
                    service.submit(delta_job(job_id))
                threads = [
                    threading.Thread(target=waiter, args=(i, service))
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == {i: [JobStatus.DONE] * len(jobs) for i in range(4)}


class TestBaselineIds:
    @pytest.mark.parametrize("scheduler", ["single", "fleet"])
    def test_baseline_job_cannot_replace_restored_baseline(self, scheduler):
        # A restored baseline has no job record, so only the baseline id
        # check stands between a new baseline job and the restored plan.
        # "single" runs the shard in-process, "fleet" forks two shards.
        restored = full_plan(SPEC)

        async def scenario():
            workers = 2 if scheduler == "fleet" else 1
            service = PlanningService(options=SchedulerOptions(workers=workers))
            service.install_baseline("b0", restored)
            await service.start()
            try:
                evolved = apply_delta(SPEC, DELTA)
                with pytest.raises(ServiceError, match="already exists"):
                    service.submit(Job("b0", "baseline", scenario=evolved))
                with pytest.raises(ServiceError, match="already exists"):
                    service.install_baseline("b0", full_plan(evolved))
                await service.drain()
                assert service.baseline("b0").signature == restored.signature
            finally:
                await service.stop()

        run(scenario())


class TestBaselineRebind:
    def test_delta_queued_behind_full_mode_applies_to_new_plan(self):
        # A full-mode delta replaces the baseline's plan. An incremental
        # delta queued behind it must apply to that plan, not the one the
        # full-mode job replaced.
        entered = threading.Event()
        release = threading.Event()

        def blocking_full_plan(scenario, config=None, tracer=None, abort_check=None):
            entered.set()
            release.wait(5.0)
            return full_plan(scenario, config)

        removal = DeltaSpec((remove_net("net03"),))

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1),
                full_plan_fn=blocking_full_plan,
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(
                    Job("d0", "delta", baseline_id="b0", delta=DELTA,
                        mode="full")
                )
                while not entered.is_set():
                    await asyncio.sleep(0.01)
                service.submit(
                    Job("d1", "delta", baseline_id="b0", delta=removal)
                )
                await asyncio.sleep(0.2)
                # Per-baseline order: d1 waits for d0.
                assert service.record("d1").status is JobStatus.QUEUED
                release.set()
                for job_id in ("d0", "d1"):
                    record = await service.wait(job_id)
                    assert record.status is JobStatus.DONE, record.error
                assert service.record("d0").attempts == 1
                return service.baseline("b0").signature
            finally:
                release.set()
                await service.stop()

        evolved = apply_delta(apply_delta(SPEC, DELTA), removal)
        assert run(scenario()) == full_plan(evolved).signature


class TestRetries:
    def test_flaky_job_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky_replan(state, delta, tracer=None, abort_check=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, retries=1),
                replan_fn=flaky_replan,
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.DONE
                assert record.attempts == 2
            finally:
                await service.stop()

        run(scenario())

    def test_retries_exhausted_fails(self):
        def always_fails(state, delta, tracer=None, abort_check=None):
            raise RuntimeError("hard down")

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, retries=2),
                replan_fn=always_fails,
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.FAILED
                assert record.attempts == 3
                assert "hard down" in record.error
                assert service.stats()["failed"] == 1
            finally:
                await service.stop()

        run(scenario())


class TestTimeout:
    """An attempt past ``job_timeout`` ends at the next net boundary.

    In-process the engine's ``abort_check`` hook reads the deadline, so
    the attempt unwinds on the shard's own thread: nothing commits and no
    thread outlives the service.
    """

    def test_in_process_timeout_ends_the_attempt(self):
        def looping_once(state, delta, tracer=None, abort_check=None):
            if not calls:
                calls.append(delta)
                until_aborted(abort_check)
            return incremental_replan(
                state, delta, tracer=tracer, abort_check=abort_check
            )

        calls = []

        async def scenario():
            before = set(threading.enumerate())
            service = PlanningService(
                options=SchedulerOptions(workers=1, job_timeout=0.2, retries=2),
                replan_fn=looping_once,
            )
            baseline = full_plan(SPEC)
            service.install_baseline("b0", baseline)
            await service.start()
            try:
                service.submit(delta_job("d0"))
                record = await service.wait("d0")
                assert record.status is JobStatus.TIMEOUT
                assert record.attempts == 1
                assert service.baseline("b0").signature == baseline.signature
                service.submit(delta_job("d1"))
                followup = await service.wait("d1")
                assert followup.status is JobStatus.DONE, followup.error
                assert (followup.result["signature"]
                        == full_plan(apply_delta(SPEC, DELTA)).signature)
            finally:
                await service.stop()
            assert set(threading.enumerate()) <= before

        run(scenario())

    def test_timeout_rolls_back_and_does_not_retry(self):
        def slow_once(state, delta, tracer=None, abort_check=None):
            # The real replay, 10 ms per poll on its first call: the
            # deadline passes mid-replay, after it has rebooked usage.
            def slow_check():
                time.sleep(0.01)
                return abort_check()

            check = slow_check if not calls else abort_check
            calls.append(delta)
            return incremental_replan(state, delta, tracer=tracer, abort_check=check)

        calls = []

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, job_timeout=0.1, retries=3),
                replan_fn=slow_once,
            )
            baseline = full_plan(SPEC)
            original = baseline.signature
            service.install_baseline("b0", baseline)
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.TIMEOUT
                assert record.attempts == 1  # timeouts never retry
                assert "exceeded" in record.error
                assert service.stats()["timeout"] == 1
                # incremental_replan restored its backup in place.
                assert baseline.signature == original
                service.submit(delta_job("d1"))
                followup = await service.wait("d1")
                assert followup.status is JobStatus.DONE, followup.error
                assert not followup.rebuilt
                assert (followup.result["signature"]
                        == full_plan(apply_delta(SPEC, DELTA)).signature)
            finally:
                await service.stop()

        run(scenario())

    def test_timeout_baseline_job_never_installs(self):
        def looping_full_plan(scenario, config=None, tracer=None, abort_check=None):
            until_aborted(abort_check)

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, job_timeout=0.1),
                full_plan_fn=looping_full_plan,
            )
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                record = await service.wait("b0")
                assert record.status is JobStatus.TIMEOUT
                assert "exceeded" in record.error
            finally:
                await service.stop()
            return service

        service = run(scenario())
        assert service.baseline_ids == []
        assert service.baseline("b0").signature is None

    def test_timeout_full_mode_keeps_old_baseline(self):
        def looping_full_plan(scenario, config=None, tracer=None, abort_check=None):
            until_aborted(abort_check)

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, job_timeout=0.1),
                full_plan_fn=looping_full_plan,
            )
            baseline = full_plan(SPEC)
            service.install_baseline("b0", baseline)
            await service.start()
            try:
                service.submit(
                    Job("d0", "delta", baseline_id="b0", delta=DELTA,
                        mode="full")
                )
                record = await service.wait("d0")
                assert record.status is JobStatus.TIMEOUT
                assert service.baseline("b0").signature == baseline.signature
                assert service.baseline("b0").root == SPEC
                # The cached plan is the one the full-mode job read.
                service.submit(delta_job("d1"))
                followup = await service.wait("d1")
                assert followup.status is JobStatus.DONE, followup.error
                assert not followup.rebuilt
                return followup
            finally:
                await service.stop()

        followup = run(scenario())
        expected = full_plan(apply_delta(SPEC, DELTA)).signature
        assert followup.result["signature"] == expected

    def test_timeout_escalation_not_adopted(self):
        def corrupt_slow_once(state, delta, tracer=None, abort_check=None):
            if calls:
                return incremental_replan(
                    state, delta, tracer=tracer, abort_check=abort_check
                )
            calls.append(delta)
            # Forces a verify mismatch and spends the whole budget: the
            # verification's first poll ends the attempt, so neither the
            # bogus plan nor the escalated one may be adopted.
            state.signature = "bogus"
            time.sleep(0.15)
            return FakeStats()

        calls = []

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(
                    workers=1, job_timeout=0.1, verify_fraction=1.0
                ),
                replan_fn=corrupt_slow_once,
            )
            baseline = full_plan(SPEC)
            original = baseline.signature
            service.install_baseline("b0", baseline)
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.TIMEOUT
                assert service.baseline("b0").signature == original
                assert service.stats()["mismatches"] == 0
                # The attempt restored the plan it replayed onto, so the
                # next job starts from the committed plan without a rebuild.
                service.submit(delta_job("d1"))
                followup = await service.wait("d1")
                assert followup.status is JobStatus.DONE, followup.error
                assert not followup.rebuilt
                assert followup.result["verify_matched"] is True
                return followup
            finally:
                await service.stop()

        followup = run(scenario())
        expected = full_plan(apply_delta(SPEC, DELTA)).signature
        assert followup.result["signature"] == expected

    def test_verification_timeout_keeps_the_committed_plan_warm(self, monkeypatch):
        """A correct replay whose verification overruns ends ``TIMEOUT``;
        the next delta replays on the committed plan, with no rebuild."""
        import repro.service.verify as verify_module

        real = verify_module.full_plan

        def looping_once(scenario, config=None, tracer=None, abort_check=None):
            if not calls:
                calls.append(scenario)
                until_aborted(abort_check)
            return real(scenario, config, tracer=tracer, abort_check=abort_check)

        calls = []
        monkeypatch.setattr(verify_module, "full_plan", looping_once)

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(
                    workers=1, job_timeout=1.0, verify_fraction=1.0
                ),
            )
            baseline = full_plan(SPEC)
            original = baseline.signature
            service.install_baseline("b0", baseline)
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.TIMEOUT
                assert record.attempts == 1
                assert service.baseline("b0").signature == original
                assert baseline.signature == original
                service.submit(delta_job("d1"))
                followup = await service.wait("d1")
                assert followup.status is JobStatus.DONE, followup.error
                assert not followup.rebuilt
                assert followup.result["verify_matched"] is True
                # A verified commit equals a full plan of its scenario, so
                # that scenario is the chain's new root.
                committed = service.baseline("b0")
                assert committed.chain == ()
                assert committed.root == apply_delta(SPEC, DELTA)
                return followup
            finally:
                await service.stop()

        followup = run(scenario())
        expected = full_plan(apply_delta(SPEC, DELTA)).signature
        assert followup.result["signature"] == expected


class TestPlanCache:
    def test_payload_carries_the_chain_only_after_a_cache_miss(
        self, monkeypatch, tmp_path
    ):
        """A job names the committed version, not the baseline's history;
        a shard whose cache lost the plan gets the history on a resend
        and rebuilds by one full plan, replaying none of the chain."""
        from repro.service.checkpoint import load_checkpoint

        moves = [DeltaSpec((move_macro(0, x, 4),)) for x in (2, 3, 4, 5)]
        sent = []
        replayed = []
        real_to_dict = DeltaSpec.to_dict

        def counting_to_dict(delta):
            sent.append(delta)
            return real_to_dict(delta)

        def counting_replan(state, delta, tracer=None, abort_check=None):
            replayed.append(delta)
            return incremental_replan(
                state, delta, tracer=tracer, abort_check=abort_check
            )

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1), replan_fn=counting_replan
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                for i, delta in enumerate(moves):
                    if i == 3:
                        monkeypatch.setattr(DeltaSpec, "to_dict", counting_to_dict)
                    service.submit(
                        Job(f"d{i}", "delta", baseline_id="b0", delta=delta)
                    )
                    warm = await service.wait(f"d{i}")
                    assert warm.status is JobStatus.DONE, warm.error
                assert not warm.rebuilt
                assert sent == [moves[3]]  # the job's own delta only
                del sent[:], replayed[:]
                service._plans.clear()  # the shard's cache loses the plan
                service.submit(Job("d4", "delta", baseline_id="b0", delta=DELTA))
                cold = await service.wait("d4")
                assert cold.status is JobStatus.DONE, cold.error
                assert cold.rebuilt
                assert sent == [DELTA] + moves  # resent with the chain
                assert replayed == [DELTA]
                service._plans.clear()
                service.checkpoint_to(tmp_path)
                return cold
            finally:
                await service.stop()

        cold = run(scenario())
        scenario = SPEC
        for delta in moves + [DELTA]:
            scenario = apply_delta(scenario, delta)
        expected = full_plan(scenario).signature
        assert cold.result["signature"] == expected
        _, restored = load_checkpoint(tmp_path / "b0.ckpt.json")
        assert restored.signature == expected
        assert restored.scenario == scenario


    def test_rebuild_replays_the_chain_when_a_full_plan_disagrees(self):
        """A committed plan that no full plan reproduces (an inexact
        replay) is rebuilt from the chain root and the chain."""
        again = DeltaSpec((move_macro(0, 2, 4),))

        def skewed_replan(state, delta, tracer=None, abort_check=None):
            stats = incremental_replan(
                state, delta, tracer=tracer, abort_check=abort_check
            )
            state.signature = "skewed-" + state.signature
            return stats

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1), replan_fn=skewed_replan
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(delta_job("d0"))
                first = await service.wait("d0")
                assert first.status is JobStatus.DONE, first.error
                service._plans.clear()
                service.submit(Job("d1", "delta", baseline_id="b0", delta=again))
                second = await service.wait("d1")
                assert second.status is JobStatus.DONE, second.error
                assert second.rebuilt
                return service.baseline("b0").signature
            finally:
                await service.stop()

        committed = run(scenario())
        reference = full_plan(SPEC)
        incremental_replan(reference, DELTA)
        incremental_replan(reference, again)
        assert committed == "skewed-" + reference.signature


class TestVerification:
    def test_mismatch_escalates_to_full_plan(self):
        def corrupting_replan(state, delta, tracer=None, abort_check=None):
            # Claims success but leaves a wrong signature behind —
            # exactly the bug class sampled verification exists for.
            state.signature = "bogus"
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, verify_fraction=1.0),
                replan_fn=corrupting_replan,
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.DONE
                assert record.result["verify_matched"] is False
                assert record.result["escalated"] is True
                stats = service.stats()
                assert stats["verified"] == 1
                assert stats["mismatches"] == 1
                # The adopted plan is the scratch full plan; it is the
                # new chain root.
                adopted = service.baseline("b0")
                assert adopted.signature == full_plan(SPEC).signature
                assert adopted.chain == ()
            finally:
                await service.stop()

        run(scenario())

    def test_sampling_respects_fraction_zero(self):
        def fake_replan(state, delta, tracer=None, abort_check=None):
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, verify_fraction=0.0),
                replan_fn=fake_replan,
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.DONE
                assert "verified" not in record.result
                assert service.stats()["verified"] == 0
            finally:
                await service.stop()

        run(scenario())
