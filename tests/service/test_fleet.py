"""PlanningService shards: sharding, exactness, containment, one attempt.

``workers=1`` runs the one shard in-process; above that every shard is a
forked worker, which the containment tests crash, kill and signal. Small
grids keep every test in the low seconds. Exactness is asserted against
the engine directly — the service's signatures must be byte-identical to
an in-process :func:`full_plan`/:func:`incremental_replan` of the same
scenario, whatever sharding or retries did on the way.
No pytest-asyncio in the environment — tests drive ``asyncio.run``.
"""

import asyncio
import time

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineError,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
    UnknownJobError,
)
from repro.service import (
    DeltaSpec,
    Job,
    JobStatus,
    MacroSpec,
    PlanningService,
    ScenarioSpec,
    SchedulerOptions,
    apply_delta,
    full_plan,
    incremental_replan,
    move_macro,
    set_sites,
)
from repro.service.checkpoint import load_checkpoint, load_service_checkpoints

SPEC = ScenarioSpec(
    grid=8, num_nets=24, total_sites=160, macros=(MacroSpec(1, 1, 2, 2),)
)
DELTA = DeltaSpec((move_macro(0, 4, 4),))
#: Changes SPEC's scenario but not its plan's signature.
SITE_EDIT = DeltaSpec((set_sites([(0, 0, 5)]),))


def run(coro):
    return asyncio.run(coro)


def fleet(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("job_timeout", 60.0)
    return PlanningService(options=SchedulerOptions(**kwargs))


async def plan_baseline(svc, bid="b0", spec=SPEC, tenant="default"):
    svc.submit(Job(bid, "baseline", scenario=spec, tenant=tenant))
    record = await svc.wait(bid)
    assert record.status is JobStatus.DONE, record.error
    return record


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_queue": 0},
            {"job_timeout": 0},
            {"retries": -1},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ConfigurationError):
            SchedulerOptions(**kwargs)


class TestSubmission:
    def test_submit_before_start_fails(self):
        svc = fleet()
        with pytest.raises(ServiceError):
            svc.submit(Job("b0", "baseline", scenario=SPEC))

    def test_end_to_end_exactness(self):
        """Baseline + incremental + full-mode deltas match the engine."""

        async def body():
            with fleet() as svc:
                record = await plan_baseline(svc)
                reference = full_plan(SPEC)
                assert record.result["signature"] == reference.signature

                svc.submit(
                    Job("d0", "delta", baseline_id="b0", delta=DELTA)
                )
                incr = await svc.wait("d0")
                assert incr.status is JobStatus.DONE, incr.error
                expected = incremental_replan(full_plan(SPEC), DELTA)
                assert incr.result["signature"] == expected.signature
                baseline = svc.baseline("b0")
                assert len(baseline.chain) == 1
                assert baseline.signature == expected.signature
                assert baseline.dirty

                again = DeltaSpec((move_macro(0, 2, 2),))
                svc.submit(
                    Job(
                        "d1",
                        "delta",
                        baseline_id="b0",
                        delta=again,
                        mode="full",
                    )
                )
                full = await svc.wait("d1")
                assert full.status is JobStatus.DONE, full.error
                evolved = apply_delta(apply_delta(SPEC, DELTA), again)
                assert (
                    full.result["signature"]
                    == full_plan(evolved).signature
                )
                baseline = svc.baseline("b0")
                # A full-mode commit resets the replay chain.
                assert baseline.chain == ()
                assert baseline.root == evolved

        run(body())

    def test_baselines_round_robin_across_shards(self):
        async def body():
            with fleet(workers=2) as svc:
                await plan_baseline(svc, "b0")
                await plan_baseline(svc, "b1")
                assert {svc.baseline("b0").shard, svc.baseline("b1").shard} == {
                    0,
                    1,
                }
                assert svc.baseline_ids == ["b0", "b1"]

        run(body())

    def test_duplicate_and_unknown(self):
        async def body():
            with fleet(workers=1) as svc:
                await plan_baseline(svc)
                with pytest.raises(ServiceError):
                    svc.submit(Job("b0", "baseline", scenario=SPEC))
                with pytest.raises(UnknownJobError):
                    svc.submit(
                        Job("dx", "delta", baseline_id="nope", delta=DELTA)
                    )
                with pytest.raises(UnknownJobError):
                    svc.record("nope")

        run(body())

    def test_queue_full_sheds_with_record(self):
        async def body():
            with fleet(workers=1, max_queue=1) as svc:
                svc.submit(Job("b0", "baseline", scenario=SPEC))
                seen_shed = False
                for i in range(8):
                    try:
                        svc.submit(
                            Job(
                                f"d{i}",
                                "delta",
                                baseline_id="b0",
                                delta=DELTA,
                            )
                        )
                    except QueueFullError:
                        seen_shed = True
                        record = svc.record(f"d{i}")
                        assert record.status is JobStatus.SHED
                        assert "shed" in record.error
                        break
                assert seen_shed
                await svc.drain()

        run(body())

    def test_shutting_down_rejects_submissions(self):
        async def body():
            with fleet(workers=1) as svc:
                await plan_baseline(svc)
                svc.begin_shutdown()
                assert svc.shutting_down
                with pytest.raises(ShuttingDownError):
                    svc.submit(
                        Job("late", "delta", baseline_id="b0", delta=DELTA)
                    )

        run(body())


#: A delta the fault-injecting replans below recognise.
FAULTY = DeltaSpec((move_macro(0, 3, 3),))


def sleepy_replan(state, delta, tracer=None, abort_check=None):
    """Never polls on ``FAULTY``: only a kill ends that attempt."""
    if delta == FAULTY:
        time.sleep(60.0)
    return incremental_replan(state, delta, tracer=tracer, abort_check=abort_check)


def raising_replan(state, delta, tracer=None, abort_check=None):
    if delta == FAULTY:
        raise RuntimeError("handler bug")
    return incremental_replan(state, delta, tracer=tracer, abort_check=abort_check)


class TestContainment:
    def test_worker_crash_respawns_and_retries(self):
        async def body():
            with fleet(workers=2, retries=1) as svc:
                await plan_baseline(svc)
                svc._shards[0].worker.proc.kill()
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d0")
                assert record.status is JobStatus.DONE, record.error
                assert record.attempts >= 2
                stats = svc.stats()
                assert stats["respawns"] >= 1
                expected = incremental_replan(full_plan(SPEC), DELTA)
                assert record.result["signature"] == expected.signature
                # The respawned worker lost its cached plan and had to
                # rebuild the committed one.
                assert record.rebuilt
                assert stats["rebuilds"] >= 1

        run(body())

    def test_forked_timeout_kills_and_respawns(self):
        async def body():
            svc = PlanningService(
                options=SchedulerOptions(workers=2, job_timeout=0.5, retries=2),
                replan_fn=sleepy_replan,
            )
            with svc:
                await plan_baseline(svc)
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=FAULTY))
                record = await svc.wait("d0")
                assert record.status is JobStatus.TIMEOUT
                assert record.attempts == 1
                assert svc.stats()["respawns"] == 1
                assert svc.baseline("b0").chain == ()
                # The respawned shard rebuilds the committed plan.
                svc.submit(Job("d1", "delta", baseline_id="b0", delta=DELTA))
                followup = await svc.wait("d1")
            assert followup.status is JobStatus.DONE, followup.error
            assert followup.rebuilt
            expected = incremental_replan(full_plan(SPEC), DELTA)
            assert followup.result["signature"] == expected.signature

        run(body())

    def test_handler_error_retries_without_respawn(self):
        async def body():
            svc = PlanningService(
                options=SchedulerOptions(workers=2, retries=1),
                replan_fn=raising_replan,
            )
            with svc:
                await plan_baseline(svc)
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=FAULTY))
                record = await svc.wait("d0")
                assert record.status is JobStatus.FAILED
                assert record.attempts == 2
                assert "handler bug" in record.error
                assert svc.stats()["respawns"] == 0
                # The worker and its plan cache survived.
                svc.submit(Job("d1", "delta", baseline_id="b0", delta=DELTA))
                followup = await svc.wait("d1")
            assert followup.status is JobStatus.DONE, followup.error
            assert not followup.rebuilt

        run(body())

    def test_shard_workers_ignore_group_delivered_sigterm(self):
        """SIGTERM to a shard worker (cgroup-wide shutdown) is ignored.

        The parent drains and checkpoints through those same workers
        after receiving its own SIGTERM; only the pipe sentinel or the
        parent's SIGKILL may end them. No respawn, no lost plan cache.
        """
        import os
        import signal as _signal

        async def body():
            with fleet(workers=2, retries=1) as svc:
                await plan_baseline(svc)
                os.kill(svc._shards[0].worker.proc.pid, _signal.SIGTERM)
                await asyncio.sleep(0.2)
                assert svc._shards[0].worker.proc.is_alive()
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d0")
                assert record.status is JobStatus.DONE, record.error
                assert record.attempts == 1
                assert not record.rebuilt  # plan cache survived
                assert svc.stats()["respawns"] == 0
                expected = incremental_replan(full_plan(SPEC), DELTA)
                assert record.result["signature"] == expected.signature

        run(body())

    def test_crash_without_fallback_fails_job(self):
        async def body():
            with fleet(workers=2, retries=0) as svc:
                await plan_baseline(svc)
                svc._shards[0].worker.proc.kill()
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d0")
                assert record.status is JobStatus.FAILED
                assert "attempt" in record.error
                # Nothing re-plans the job elsewhere: the chain is as it was.
                assert svc.baseline("b0").chain == ()
                # The shard recovered: later jobs still complete.
                svc.submit(Job("d1", "delta", baseline_id="b0", delta=DELTA))
                ok = await svc.wait("d1")
                assert ok.status is JobStatus.DONE, ok.error

        run(body())


def slow_full_plan(scenario, config=None, tracer=None, abort_check=None):
    """:func:`full_plan` after 0.5 s of polling ``abort_check``, so
    every full plan outlasts a cheap job's arrival on any host."""
    until = time.monotonic() + 0.5
    while time.monotonic() < until:
        if abort_check is not None and abort_check():
            raise DeadlineError("slow full plan aborted")
        time.sleep(0.01)
    return full_plan(scenario, config, tracer=tracer, abort_check=abort_check)


class TestOneAttempt:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cheap_delta_waits_for_running_full_plan(self, workers):
        """A cheap delta queued behind a running full-mode job on its
        shard waits for it; the full-mode job runs once. At two workers
        ``other`` takes shard 1, so ``heavy`` and ``light`` share shard 0."""
        light_spec = ScenarioSpec(
            grid=8, num_nets=24, total_sites=160, macros=(MacroSpec(4, 4, 2, 2),)
        )

        async def body():
            svc = PlanningService(
                options=SchedulerOptions(workers=workers, job_timeout=60.0),
                full_plan_fn=slow_full_plan,
            )
            with svc:
                await plan_baseline(svc, "heavy", spec=SPEC)
                if workers == 2:
                    await plan_baseline(svc, "other", spec=SPEC)
                await plan_baseline(svc, "light", spec=light_spec)
                assert svc.baseline("light").shard == svc.baseline("heavy").shard
                svc.submit(
                    Job("slow", "delta", baseline_id="heavy", delta=DELTA,
                        mode="full", tenant="batch")
                )
                # Wait for the full plan to actually be on the worker.
                deadline = time.monotonic() + 30.0
                while svc.record("slow").status is JobStatus.QUEUED:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.005)
                cheap = DeltaSpec((move_macro(0, 1, 1),))
                svc.submit(
                    Job("fast", "delta", baseline_id="light", delta=cheap,
                        tenant="interactive")
                )
                fast = await svc.wait("fast")
                slow = await svc.wait("slow")
            assert slow.status is JobStatus.DONE, slow.error
            assert fast.status is JobStatus.DONE, fast.error
            assert slow.attempts == 1
            assert fast.started_at >= slow.finished_at
            evolved = apply_delta(SPEC, DELTA)
            assert slow.result["signature"] == full_plan(evolved).signature
            reference = incremental_replan(full_plan(light_spec), cheap)
            assert fast.result["signature"] == reference.signature

        run(body())


class TestCheckpointRestore:
    def test_restored_baseline_keeps_replaying_its_chain(self, tmp_path):
        """A checkpoint loads into a running service, whose shard was
        forked before the install: it rebuilds the plan and replays the
        next delta exactly."""
        again = DeltaSpec((move_macro(0, 2, 2),))

        async def body():
            with fleet(workers=2) as svc:
                await plan_baseline(svc)
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d0")
                assert record.status is JobStatus.DONE, record.error
                svc.checkpoint_to(tmp_path)

            with fleet(workers=2) as svc:
                assert load_service_checkpoints(tmp_path, svc) == ["b0"]
                _, state = load_checkpoint(tmp_path / "b0.ckpt.json")
                with pytest.raises(ServiceError):
                    svc.install_baseline("b0", state)
                assert svc.baseline("b0").signature == state.signature
                svc.submit(Job("d1", "delta", baseline_id="b0", delta=again))
                record = await svc.wait("d1")
            assert record.status is JobStatus.DONE, record.error
            assert record.rebuilt
            reference = full_plan(SPEC)
            incremental_replan(reference, DELTA)
            incremental_replan(reference, again)
            assert record.result["signature"] == reference.signature

        run(body())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restart_installed_before_start_stays_warm(self, tmp_path, workers):
        """Installed before the shards start, a restored plan is in the
        cache the job body reads (in-process, or inherited at fork)."""
        state = full_plan(SPEC)

        async def body():
            svc = fleet(workers=workers)
            svc.install_baseline("b0", state)
            with svc:
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                return await svc.wait("d0")

        record = run(body())
        assert record.status is JobStatus.DONE, record.error
        assert not record.rebuilt
        expected = incremental_replan(full_plan(SPEC), DELTA)
        assert record.result["signature"] == expected.signature


    def test_respawn_after_a_commit_does_not_reuse_the_installed_plan(
        self, tmp_path
    ):
        """A shard respawned after a commit inherits the plan installed
        before it; a commit that kept the signature must not let the
        job adopt that stale plan."""
        state = full_plan(SPEC)
        edited = full_plan(SPEC)
        incremental_replan(edited, SITE_EDIT)
        assert edited.signature == state.signature

        async def body():
            svc = fleet(workers=2, retries=1)
            svc.install_baseline("b0", state)
            with svc:
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=SITE_EDIT))
                first = await svc.wait("d0")
                assert first.status is JobStatus.DONE, first.error
                svc._shards[0].worker.proc.kill()
                svc.submit(Job("d1", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d1")
                svc.checkpoint_to(tmp_path)
                return record, svc.baseline("b0").scenario

        record, scenario = run(body())
        assert record.status is JobStatus.DONE, record.error
        assert record.rebuilt
        assert record.result["signature"] == incremental_replan(edited, DELTA).signature
        _, restored = load_checkpoint(tmp_path / "b0.ckpt.json")
        assert ((0, 0), 5) in restored.scenario.site_overrides
        assert restored.scenario == scenario


class TestStats:
    def test_counters_and_drain(self):
        async def body():
            with fleet(workers=1) as svc:
                await plan_baseline(svc)
                for i in range(3):
                    svc.submit(
                        Job(f"d{i}", "delta", baseline_id="b0", delta=DELTA)
                    )
                await svc.drain()
                stats = svc.stats()
                assert stats["submitted"] == 4
                assert stats["done"] == 4
                assert stats["failed"] == 0
                assert stats["queue_depth"] == 0
                assert stats["baselines"] == 1
                assert stats["workers"] == 1
                report = await svc.drain_until(1.0)
                assert report == {"drained": True, "pending": 0}

        run(body())
