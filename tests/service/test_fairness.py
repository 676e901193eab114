"""Service-level fairness: flooding vs trickle tenants, aging bound.

The pure scheduling invariants live in ``test_tenant_queues``; these
tests drive a real one-shard service so the guarantees are checked
end-to-end from the record timestamps the scheduler itself emits:

* a tenant flooding its queue must not inflate a trickle tenant's
  queue wait — the flood queues behind itself;
* no queued job waits past the aging threshold while younger cheap work
  keeps arriving ahead of it.

Assertions are *relative* (trickle vs flood percentiles from the same
run) so they hold on slow single-core CI machines.
"""

import asyncio

from repro.service import (
    DeltaSpec,
    Job,
    JobStatus,
    MacroSpec,
    PlanningService,
    ScenarioSpec,
    SchedulerOptions,
    move_macro,
)
from repro.utils import percentile

SPEC = ScenarioSpec(
    grid=8, num_nets=24, total_sites=160, macros=(MacroSpec(1, 1, 2, 2),)
)
DELTA = DeltaSpec((move_macro(0, 4, 4),))


async def _plan_baselines(svc, *bids):
    for bid in bids:
        svc.submit(
            Job(bid, "baseline", scenario=SPEC, tenant=bid.split("-")[0])
        )
    for bid in bids:
        record = await svc.wait(bid)
        assert record.status is JobStatus.DONE, record.error


def test_trickle_tenant_queue_wait_bounded_under_flood():
    async def body():
        options = SchedulerOptions(workers=1, job_timeout=60.0)
        with PlanningService(options=options) as svc:
            await _plan_baselines(svc, "flood-b", "trickle-b")
            flood_ids = []
            for i in range(12):
                job_id = f"flood-d{i}"
                svc.submit(
                    Job(
                        job_id,
                        "delta",
                        baseline_id="flood-b",
                        delta=DELTA,
                        tenant="flood",
                    )
                )
                flood_ids.append(job_id)
            trickle_ids = []
            for i in range(2):
                job_id = f"trickle-d{i}"
                svc.submit(
                    Job(
                        job_id,
                        "delta",
                        baseline_id="trickle-b",
                        delta=DELTA,
                        tenant="trickle",
                    )
                )
                trickle_ids.append(job_id)
            await svc.drain()
            for job_id in flood_ids + trickle_ids:
                assert svc.record(job_id).status is JobStatus.DONE

            flood_waits = [svc.record(j).queue_wait for j in flood_ids]
            trickle_waits = [svc.record(j).queue_wait for j in trickle_ids]
            flood_p95 = percentile(flood_waits, 0.95)
            trickle_p95 = percentile(trickle_waits, 0.95)
            # The trickle jobs entered behind a 12-deep flood backlog;
            # fair selection must serve them long before the flood tail
            # rather than FIFO-ing the whole backlog first.
            assert trickle_p95 < flood_p95
            trickle_last = max(
                svc.record(j).finished_at for j in trickle_ids
            )
            flood_last = max(svc.record(j).finished_at for j in flood_ids)
            assert trickle_last < flood_last

    asyncio.run(body())


def test_no_starvation_past_aging_threshold():
    """Aging bounds the one unfair preference the scheduler has.

    Within a tenant, cheap (incremental) jobs bypass older heavy ones —
    the preemption contract requires it — so a full-mode job queued
    behind a continuous cheap stream would starve indefinitely without
    the aging bound. Here a heavy job enters behind a 20-deep cheap
    backlog on the same tenant: it must be promoted once its age
    crosses the threshold rather than waiting for the backlog to drain.
    """

    async def body():
        options = SchedulerOptions(
            workers=1,
            job_timeout=60.0,
            aging_threshold=0.02,
        )
        with PlanningService(options=options) as svc:
            await _plan_baselines(svc, "cheap-b", "heavy-b")
            # The blocker occupies the worker so the heavy job is
            # *queued* (not dispatched) when the cheap stream arrives
            # behind it; the stream then bypasses it via cheap
            # preference until aging kicks in. All three submissions
            # happen before the blocker's ~ms execution completes, so
            # the ordering is not racy.
            svc.submit(
                Job(
                    "blocker",
                    "delta",
                    baseline_id="cheap-b",
                    delta=DELTA,
                    tenant="cheap",
                )
            )
            svc.submit(
                Job(
                    "heavy-d0",
                    "delta",
                    baseline_id="heavy-b",
                    delta=DELTA,
                    mode="full",
                    tenant="cheap",
                )
            )
            cheap_ids = []
            for i in range(20):
                job_id = f"cheap-d{i}"
                svc.submit(
                    Job(
                        job_id,
                        "delta",
                        baseline_id="cheap-b",
                        delta=DELTA,
                        tenant="cheap",
                    )
                )
                cheap_ids.append(job_id)
            await svc.drain()
            record = svc.record("heavy-d0")
            assert record.status is JobStatus.DONE, record.error
            for job_id in cheap_ids:
                assert svc.record(job_id).status is JobStatus.DONE
            assert svc.stats()["aged_promotions"] >= 1
            cheap_tail = max(
                svc.record(j).finished_at for j in cheap_ids
            )
            assert record.finished_at < cheap_tail
            assert record.queue_wait < 60.0

    asyncio.run(body())
