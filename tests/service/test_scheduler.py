"""Scheduler behaviour: shed, timeout rollback, retries, verification.

The planning engine is exercised elsewhere; here we mostly inject fake
plan/replan callables so each scheduler path is isolated and fast. No
pytest-asyncio in the environment — tests drive the loop via
``asyncio.run`` directly.
"""

import asyncio
import threading
import time

import pytest

from repro.errors import ConfigurationError, QueueFullError, ServiceError
from repro.service import (
    DeltaSpec,
    FleetOptions,
    FleetPlanningService,
    Job,
    JobStatus,
    PlanningService,
    ScenarioSpec,
    SchedulerOptions,
    apply_delta,
    full_plan,
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


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_queue": 0},
            {"job_timeout": 0},
            {"retries": -1},
            {"backoff": -0.1},
            {"verify_fraction": 1.5},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            SchedulerOptions(**kwargs)


class TestBackpressure:
    def test_full_queue_sheds_with_typed_error(self):
        async def scenario():
            # Workers never started, so the queue only drains on shed.
            service = PlanningService(options=SchedulerOptions(max_queue=1))
            service.submit(delta_job("d0"))
            with pytest.raises(QueueFullError):
                service.submit(delta_job("d1"))
            assert service.record("d1").status is JobStatus.SHED
            assert service.stats()["shed"] == 1
            assert "queue full" in service.record("d1").error

        run(scenario())

    def test_duplicate_job_id_rejected(self):
        async def scenario():
            service = PlanningService()
            service.submit(delta_job("d0"))
            with pytest.raises(ServiceError, match="duplicate"):
                service.submit(delta_job("d0"))

        run(scenario())

    def test_shed_job_id_can_be_resubmitted(self):
        gate = threading.Event()

        def gated_replan(state, delta, tracer=None):
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
                # Wait until the worker dequeues d0; d1 then occupies
                # the single queue slot so d2's shed is deterministic.
                while service.record("d0").status is JobStatus.QUEUED:
                    await asyncio.sleep(0.01)
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
        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, retries=0)
            )
            await service.start()
            try:
                service.submit(delta_job("d0", baseline_id="nope"))
                record = await service.wait("d0")
                assert record.status is JobStatus.FAILED
                assert "UnknownJobError" in record.error
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


class TestBaselineIds:
    @pytest.mark.parametrize("scheduler", ["single", "fleet"])
    def test_baseline_job_cannot_replace_restored_baseline(self, scheduler):
        # A restored baseline has no job record, so only the baseline id
        # check stands between a new baseline job and the restored plan.
        restored = full_plan(SPEC)

        async def scenario():
            if scheduler == "fleet":
                service = FleetPlanningService(options=FleetOptions(workers=1))
            else:
                service = PlanningService(options=SchedulerOptions(workers=1))
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
        # A full-mode delta rebinds the baseline to a new plan. An
        # incremental delta already waiting on the baseline lock must
        # apply to that plan, not the one the full-mode job replaced.
        entered = threading.Event()
        release = threading.Event()

        def blocking_full_plan(scenario, config=None, tracer=None):
            entered.set()
            release.wait(5.0)
            return full_plan(scenario, config)

        removal = DeltaSpec((remove_net("net03"),))

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=2),
                full_plan_fn=blocking_full_plan,
            )
            service.install_baseline("b0", full_plan(SPEC))
            await service.start()
            try:
                service.submit(
                    Job("d0", "delta", baseline_id="b0", delta=DELTA,
                        mode="full")
                )
                # d0 holds the baseline lock until released.
                while not entered.is_set():
                    await asyncio.sleep(0.01)
                service.submit(
                    Job("d1", "delta", baseline_id="b0", delta=removal)
                )
                while service.record("d1").status is JobStatus.QUEUED:
                    await asyncio.sleep(0.01)
                # Let d1's thread reach the lock before d0 commits.
                await asyncio.sleep(0.2)
                release.set()
                for job_id in ("d0", "d1"):
                    record = await service.wait(job_id)
                    assert record.status is JobStatus.DONE, record.error
                return service.baseline("b0").signature
            finally:
                release.set()
                await service.stop()

        evolved = apply_delta(apply_delta(SPEC, DELTA), removal)
        assert run(scenario()) == full_plan(evolved).signature


class TestRetries:
    def test_flaky_job_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky_replan(state, delta, tracer=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, retries=1, backoff=0.0),
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
        def always_fails(state, delta, tracer=None):
            raise RuntimeError("hard down")

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, retries=2, backoff=0.0),
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
    def test_timeout_rolls_back_and_does_not_retry(self):
        release = threading.Event()

        def slow_replan(state, delta, tracer=None):
            # Corrupt the plan, then outlive the deadline: the rollback
            # in the worker thread must undo the corruption.
            state.signature = "corrupted-by-slow-job"
            release.wait(5.0)
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(
                    workers=1, job_timeout=0.1, retries=3
                ),
                replan_fn=slow_replan,
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
                release.set()
                # The zombie thread finishes, notices the cancel flag,
                # and restores the pre-job backup.
                deadline = time.monotonic() + 5.0
                while (baseline.signature != original
                       and time.monotonic() < deadline):
                    await asyncio.sleep(0.01)
                assert baseline.signature == original
                assert service.stats()["timeout"] == 1
            finally:
                release.set()
                await service.stop()

        run(scenario())

    def test_timeout_baseline_job_never_installs(self):
        release = threading.Event()

        def slow_full_plan(scenario, config=None, tracer=None):
            release.wait(5.0)
            return full_plan(scenario, config)

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, job_timeout=0.1),
                full_plan_fn=slow_full_plan,
            )
            await service.start()
            try:
                service.submit(Job("b0", "baseline", scenario=SPEC))
                record = await service.wait("b0")
                assert record.status is JobStatus.TIMEOUT
                assert "rolled back" in record.error
                release.set()
            finally:
                release.set()
                await service.stop()
            return service

        # asyncio.run joins the zombie thread on loop shutdown, so by
        # here it has finished — and must not have installed "b0".
        service = run(scenario())
        assert service.baseline_ids == []

    def test_timeout_full_mode_keeps_old_baseline(self):
        release = threading.Event()

        def slow_full_plan(scenario, config=None, tracer=None):
            release.wait(5.0)
            return full_plan(scenario, config)

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, job_timeout=0.1),
                full_plan_fn=slow_full_plan,
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
                assert "rolled back" in record.error
                release.set()
            finally:
                release.set()
                await service.stop()
            return service, baseline

        service, baseline = run(scenario())
        # The zombie's replacement plan was dropped, not installed.
        assert service.baseline("b0") is baseline

    def test_timeout_escalation_not_adopted(self):
        release = threading.Event()

        def corrupt_slow_replan(state, delta, tracer=None):
            # Forces a verify mismatch (escalation), then outlives the
            # deadline: the escalated plan must be dropped too.
            state.signature = "bogus"
            release.wait(5.0)
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(
                    workers=1, job_timeout=0.1, verify_fraction=1.0
                ),
                replan_fn=corrupt_slow_replan,
            )
            baseline = full_plan(SPEC)
            original = baseline.signature
            service.install_baseline("b0", baseline)
            await service.start()
            try:
                service.submit(delta_job())
                record = await service.wait("d0")
                assert record.status is JobStatus.TIMEOUT
                release.set()
            finally:
                release.set()
                await service.stop()
            return service, baseline, original

        service, baseline, original = run(scenario())
        assert service.baseline("b0") is baseline
        assert baseline.signature == original


class TestJobFate:
    def test_commit_claim_beats_cancel(self):
        from repro.service.scheduler import _JobFate

        fate = _JobFate()
        assert fate.try_commit()
        assert not fate.try_cancel()
        assert fate.try_commit()  # idempotent

    def test_cancel_claim_beats_commit(self):
        from repro.service.scheduler import _JobFate

        fate = _JobFate()
        assert fate.try_cancel()
        assert not fate.try_commit()
        assert fate.try_cancel()  # idempotent


class TestVerification:
    def test_mismatch_escalates_to_full_plan(self):
        def corrupting_replan(state, delta, tracer=None):
            # Claims success but leaves a wrong signature behind —
            # exactly the bug class sampled verification exists for.
            state.signature = "bogus"
            return FakeStats()

        async def scenario():
            service = PlanningService(
                options=SchedulerOptions(workers=1, verify_fraction=1.0),
                replan_fn=corrupting_replan,
            )
            baseline = full_plan(SPEC)
            service.install_baseline("b0", baseline)
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
                # The adopted baseline is the scratch full plan.
                adopted = service.baseline("b0")
                assert adopted.signature == full_plan(SPEC).signature
                assert adopted is not baseline
            finally:
                await service.stop()

        run(scenario())

    def test_sampling_respects_fraction_zero(self):
        def fake_replan(state, delta, tracer=None):
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
