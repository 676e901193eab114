"""FleetPlanningService behaviour: sharding, exactness, containment.

Small grids keep every test in the low seconds even though each one
forks real shard workers. Exactness is asserted against the engine
directly — the fleet's signatures must be byte-identical to an
in-process :func:`full_plan`/:func:`incremental_replan` of the same
scenario, whatever sharding, retries, or preemption did on the way.
No pytest-asyncio in the environment — tests drive ``asyncio.run``.
"""

import asyncio
import time

import pytest

from repro.errors import (
    ConfigurationError,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
    UnknownJobError,
)
from repro.service import (
    DeltaSpec,
    FleetOptions,
    FleetPlanningService,
    Job,
    JobStatus,
    MacroSpec,
    ScenarioSpec,
    apply_delta,
    full_plan,
    incremental_replan,
    move_macro,
)
from repro.service.checkpoint import load_checkpoint, load_service_checkpoints

SPEC = ScenarioSpec(
    grid=8, num_nets=24, total_sites=160, macros=(MacroSpec(1, 1, 2, 2),)
)
DELTA = DeltaSpec((move_macro(0, 4, 4),))


def run(coro):
    return asyncio.run(coro)


def fleet(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("job_timeout", 60.0)
    return FleetPlanningService(options=FleetOptions(**kwargs))


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
            {"max_queue_per_tenant": 0},
            {"job_timeout": 0},
            {"retries": -1},
            {"aging_threshold": 0},
            {"preempt_after": -0.1},
            {"max_preemptions": -1},
            {"tenant_weights": {"a": 0.0}},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetOptions(**kwargs)


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
            with fleet(workers=1, max_queue_per_tenant=1) as svc:
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


class TestContainment:
    def test_worker_crash_respawns_and_retries(self):
        async def body():
            with fleet(workers=1, retries=1) as svc:
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
                # rebuild from root + chain.
                assert record.rebuilt
                assert stats["rebuilds"] >= 1

        run(body())

    def test_crash_with_no_retries_falls_back_in_process(self):
        async def body():
            with fleet(workers=1, retries=0) as svc:
                await plan_baseline(svc)
                svc._shards[0].worker.proc.kill()
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d0")
                assert record.status is JobStatus.DONE, record.error
                assert record.fallback
                assert svc.stats()["fallbacks"] == 1
                # The fallback full-plans the evolved scenario in the
                # parent, so it adopts the full-replan signature and
                # resets the replay chain.
                evolved = apply_delta(SPEC, DELTA)
                assert (
                    record.result["signature"]
                    == full_plan(evolved).signature
                )
                baseline = svc.baseline("b0")
                assert baseline.chain == ()
                assert baseline.root == evolved

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
            with fleet(workers=1, retries=1) as svc:
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
            with fleet(
                workers=1, retries=0, fallback_in_process=False
            ) as svc:
                await plan_baseline(svc)
                svc._shards[0].worker.proc.kill()
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d0")
                assert record.status is JobStatus.FAILED
                assert "attempt" in record.error
                # The shard recovered: later jobs still complete.
                svc.submit(Job("d1", "delta", baseline_id="b0", delta=DELTA))
                ok = await svc.wait("d1")
                assert ok.status is JobStatus.DONE, ok.error

        run(body())


HEAVY_SPEC = ScenarioSpec(
    grid=24, num_nets=260, total_sites=1400, macros=(MacroSpec(3, 3, 6, 6),)
)
HEAVY_DELTA = DeltaSpec((move_macro(0, 14, 14),))


async def cheap_delta_preempts_full_plan(svc, fast_reference):
    """Start a full plan of ``heavy``, then queue a cheap delta on
    ``light`` behind it; the full plan must be preempted, and both jobs
    must still land on their reference signatures."""
    svc.submit(
        Job(
            "slow",
            "delta",
            baseline_id="heavy",
            delta=HEAVY_DELTA,
            mode="full",
            tenant="batch",
        )
    )
    # Wait for the full plan to actually be on the worker.
    deadline = time.monotonic() + 30.0
    while svc.record("slow").status is JobStatus.QUEUED:
        assert time.monotonic() < deadline
        await asyncio.sleep(0.005)
    svc.submit(
        Job(
            "fast",
            "delta",
            baseline_id="light",
            delta=DELTA,
            tenant="interactive",
        )
    )
    fast = await svc.wait("fast")
    slow = await svc.wait("slow")
    assert fast.status is JobStatus.DONE, fast.error
    assert slow.status is JobStatus.DONE, slow.error

    # Preemption happened, was bounded, and did not change either
    # signature.
    assert slow.preemptions >= 1
    assert slow.preemptions <= 2
    assert svc.stats()["preemptions"] >= 1
    assert fast.result["signature"] == fast_reference
    evolved = apply_delta(HEAVY_SPEC, HEAVY_DELTA)
    assert slow.result["signature"] == full_plan(evolved).signature


class TestPreemption:
    def test_cheap_delta_preempts_running_full_plan(self):
        async def body():
            with fleet(
                workers=1, preempt_after=0.0, max_preemptions=2
            ) as svc:
                await plan_baseline(svc, "heavy", spec=HEAVY_SPEC)
                await plan_baseline(svc, "light", spec=SPEC)
                reference = incremental_replan(full_plan(SPEC), DELTA)
                await cheap_delta_preempts_full_plan(svc, reference.signature)

        run(body())

    def test_respawned_worker_still_preempts(self):
        """The control array reaches a worker forked after a crash."""
        probe = DeltaSpec((move_macro(0, 2, 2),))

        async def body():
            with fleet(
                workers=1, preempt_after=0.0, max_preemptions=2
            ) as svc:
                await plan_baseline(svc, "heavy", spec=HEAVY_SPEC)
                await plan_baseline(svc, "light", spec=SPEC)
                svc._shards[0].worker.proc.kill()
                svc.submit(
                    Job("probe", "delta", baseline_id="light", delta=probe)
                )
                record = await svc.wait("probe")
                assert record.status is JobStatus.DONE, record.error
                assert svc.stats()["respawns"] == 1

                reference = full_plan(SPEC)
                incremental_replan(reference, probe)
                incremental_replan(reference, DELTA)
                await cheap_delta_preempts_full_plan(svc, reference.signature)

        run(body())


class TestCheckpointRestore:
    def test_restored_baseline_keeps_replaying_its_chain(self, tmp_path):
        """A fleet checkpoint loads into a fresh fleet, whose shard
        rebuilds the plan and replays the next delta exactly."""
        again = DeltaSpec((move_macro(0, 2, 2),))

        async def body():
            with fleet(workers=2) as svc:
                await plan_baseline(svc)
                svc.submit(Job("d0", "delta", baseline_id="b0", delta=DELTA))
                record = await svc.wait("d0")
                assert record.status is JobStatus.DONE, record.error
                svc.checkpoint_to(tmp_path)

            restored = fleet(workers=2)
            assert load_service_checkpoints(tmp_path, restored) == ["b0"]
            _, state = load_checkpoint(tmp_path / "b0.ckpt.json")
            with pytest.raises(ServiceError):
                restored.install_baseline("b0", state)
            with restored as svc:
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
